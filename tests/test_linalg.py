import random
from fractions import Fraction

import pytest

from pemb.fields import PrimeField, QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedError,
                         GradedLinearMap, GradedVectorSpace, InternalError,
                         cohomology)
from pemb.linalg import Matrix, dense
from dense import (col, cols, dense_apply, dense_from_cols, entry, lower, reference,
                   row, sparse)

FIELDS = [QQ, PrimeField(2), PrimeField(5)]


def in_scalar_form(field, x):
    """x is held as the field holds its scalars: over Q an int, or a
    Fraction with a denominator > 1 (never a float or a bool); over F_p a
    nonzero residue, an int in (0, p)."""
    if field == QQ:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 < x < field.p


def rand_matrix(field, rng, nrows, ncols, lo=-4, hi=4):
    return Matrix(field, [[field.of(rng.randint(lo, hi)) for _ in range(ncols)]
                          for _ in range(nrows)], ncols=ncols)


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, pivots = m.rref()
    assert red == m
    assert pivots == [0, 1]


def test_rref_zero():
    m = Matrix.zero(QQ, 3, 2)
    red, pivots = m.rref()
    assert red == m
    assert pivots == []


def test_rref_rank_one():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    red, pivots = m.rref()
    assert red == Matrix(QQ, [[1, 2], [0, 0]])
    assert pivots == [0]


def test_kernel_identity():
    assert Matrix.identity(QQ, 4).kernel_basis() == []


def test_kernel_zero():
    assert len(Matrix.zero(QQ, 2, 3).kernel_basis()) == 3


def test_kernel_row():
    m = Matrix(QQ, [[1, 2]])
    (v,) = m.kernel_basis()
    assert v == {0: Fraction(-2), 1: Fraction(1)}


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    b = {0: Fraction(1), 1: Fraction(-5), 2: Fraction(7, 2)}
    assert m.solve(b) == b


def test_solve_free_variable_rule():
    m = Matrix(QQ, [[1, 1]])
    assert m.solve({0: QQ.of(2)}) == {0: Fraction(2)}


def test_solve_inconsistent():
    m = Matrix(QQ, [[0]])
    assert m.solve({0: QQ.of(1)}) is None
    with pytest.raises(ValueError):
        m.solve({1: QQ.of(1)})


@pytest.mark.parametrize("field", FIELDS)
def test_solve_random_exact(field):
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(field, rng, nr, nc)
        x0 = sparse(field.of(rng.randint(-3, 3)) for _ in range(nc))
        b = a.apply(x0)
        x = a.solve(b)
        assert x is not None
        assert a.apply(x) == b


@pytest.mark.parametrize("field", FIELDS)
def test_rank_nullity(field):
    rng = random.Random(5)
    for _ in range(60):
        a = rand_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 5))
        assert a.rank() + len(a.kernel_basis()) == a.ncols
        for v in a.kernel_basis():
            assert a.apply(v) == {}


@pytest.mark.parametrize("field", FIELDS)
def test_rref_idempotent(field):
    rng = random.Random(23)
    for _ in range(40):
        a = rand_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 4))
        red, _ = a.rref()
        again, _ = red.rref()
        assert red == again


def test_matmul_and_transpose():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    assert a @ b == Matrix(QQ, [[2, 1], [4, 3]])
    assert a.transpose() == Matrix(QQ, [[1, 3], [2, 4]])


# The parent's dense `Matrix`, which stored every cell, is the reference
# for the sparse rows of `Matrix`: every operation must give the same
# dense view.  It computes in the reference field, with boxed F_p scalars.


class DenseMatrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, entries, ncols=None):
        self.field = field = reference(field)
        rows = tuple(tuple(field.of(x) for x in row) for row in entries)
        self.entries = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else (ncols or 0)
        for row in rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        return DenseMatrix(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return DenseMatrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rows(field, rows):
        return DenseMatrix(field, rows)

    @staticmethod
    def from_cols(field, cols, nrows=None):
        if not cols:
            return DenseMatrix.zero(field, nrows or 0, 0)
        n = len(cols[0])
        return DenseMatrix(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)],
                           ncols=len(cols))

    # -- basics ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self):
        return DenseMatrix(self.field, [[self.entries[i][j] for i in range(self.nrows)]
                                        for j in range(self.ncols)], ncols=self.nrows)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def __add__(self, other):
        _dense_check_shapes(self, other)
        return DenseMatrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.entries, other.entries)],
                           ncols=self.ncols)

    def __sub__(self, other):
        _dense_check_shapes(self, other)
        return DenseMatrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.entries, other.entries)],
                           ncols=self.ncols)

    def scale(self, c):
        c = self.field.of(c)
        return DenseMatrix(self.field, [[c * a for a in row] for row in self.entries],
                           ncols=self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product: %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        z = self.field.zero
        ot = other.transpose().entries
        out = []
        for row in self.entries:
            out.append([sum((a * b for a, b in zip(row, col) if a != 0), z) for col in ot])
        return DenseMatrix(self.field, out, ncols=other.ncols)

    def apply(self, v):
        """Matrix times column vector (tuple)."""
        if len(v) != self.ncols:
            raise ValueError("vector length %d != %d columns" % (len(v), self.ncols))
        z = self.field.zero
        return tuple(sum((a * b for a, b in zip(row, v) if a != 0), z) for row in self.entries)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        return DenseMatrix(self.field, [r1 + r2 for r1, r2 in zip(self.entries, other.entries)],
                           ncols=self.ncols + other.ncols)

    def __repr__(self):
        return "DenseMatrix(%s, %s)" % (self.field, [list(map(str, r)) for r in self.entries])

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row-echelon form and the strictly increasing pivot columns.

        Rows are eliminated one at a time as sparse dicts {col: coeff}
        against the pivot rows found so far, which stay fully reduced.  The
        reduced echelon form of a matrix is unique, so the result is the
        one the index-order pivot rule gives.
        """
        zero = self.field.zero
        rows = {}   # pivot column -> reduced sparse row, 1 at the pivot
        for entries in self.entries:
            row = {c: x for c, x in enumerate(entries) if x}
            _dense_reduce(row, rows, zero)
            if row:
                p = min(row)
                inv = self.field.div(self.field.one, row[p])
                row = {c: inv * x for c, x in row.items()}
                for other in rows.values():
                    if p in other:
                        _dense_reduce(other, {p: row}, zero)
                rows[p] = row
        pivots = sorted(rows)
        out = [[rows[p].get(c, zero) for c in range(self.ncols)] for p in pivots]
        out += [[zero] * self.ncols] * (self.nrows - len(pivots))
        return DenseMatrix(self.field, out, ncols=self.ncols), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the null space; deterministic (one vector per free column)."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        z, o = self.field.zero, self.field.one
        basis = []
        for fc in free:
            v = [z] * self.ncols
            v[fc] = o
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        """One solution of A x = b with free variables set to 0, or None."""
        if len(b) != self.nrows:
            raise ValueError("rhs length %d != %d rows" % (len(b), self.nrows))
        aug = self.hstack(DenseMatrix.from_cols(self.field, [tuple(b)], self.nrows))
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        z = self.field.zero
        x = [z] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.ncols]
        return tuple(x)


def _dense_reduce(row, pivot_rows, zero):
    """row -= row[p] * pivot_rows[p] for every pivot column p of row, in
    place, over the pivot row's nonzeros.  Each pivot row is 1 at its
    pivot and 0 at every other pivot, so one pass clears them all."""
    for p in [p for p in row if p in pivot_rows]:
        f = row[p]
        for c, x in pivot_rows[p].items():
            v = row.get(c, zero) - f * x
            if v:
                row[c] = v
            else:
                del row[c]


def _dense_check_shapes(a, b):
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise ValueError("shape mismatch: %dx%d vs %dx%d"
                         % (a.nrows, a.ncols, b.nrows, b.ncols))


# The dense elimination, quotient reducer and cohomology representatives
# below are the reference for the sparse `Matrix.rref` and everything that
# reads its output: the reduced echelon form is unique, so both must agree
# entry for entry.


def dense_rref(m):
    field = reference(m.field)
    a = [[field.of(x) for x in row] for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.ncols):
        if r >= m.nrows:
            break
        pr = next((i for i in range(r, m.nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.div(field.one, a[r][c])
        a[r] = [inv * x for x in a[r]]
        for i in range(m.nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return Matrix(field, a, ncols=m.ncols), pivots


def dense_kernel_basis(m):
    red, pivots = dense_rref(m)
    z, o = red.field.zero, red.field.one
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [z] * m.ncols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -entry(red, r, fc)
        basis.append(tuple(v))
    return basis


def dense_solve(m, b):
    aug = Matrix(reference(m.field), [r + (x,) for r, x in zip(m.entries, b)],
                 ncols=m.ncols + 1)
    red, pivots = dense_rref(aug)
    if m.ncols in pivots:
        return None
    x = [red.field.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = entry(red, r, m.ncols)
    return tuple(x)


class DenseQuotienter:
    def __init__(self, field, spans, dim):
        field = reference(field)
        self.field, self.dim = field, dim
        self.rows, self.pivots = [], []
        if spans:
            red, self.pivots = dense_rref(Matrix(field, [list(v) for v in spans]))
            self.rows = [row(red, r) for r in range(len(self.pivots))]
        self.keep = [i for i in range(dim) if i not in self.pivots]

    def project(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        return tuple(v[i] for i in self.keep)

    def contains(self, v):
        return all(x == 0 for x in self.project(v))


def dense_cohomology(cx, deg):
    """(reps, reduce) of the parent's CohomologyData in one degree: an
    independent image sublist first, then all cocycles."""
    field, n = cx.field, cx.space.dim(deg)
    z = dense_kernel_basis(cx.d.block(deg))
    b = [c for c in cols(cx.d.block(deg - 1)) if any(x != 0 for x in c)]
    if b:
        b = [b[p] for p in dense_rref(dense_from_cols(field, b, n))[1]]
    if not z:
        return [], lambda v: ()
    m = dense_from_cols(field, b + z, n)
    pivots = dense_rref(m)[1]
    reps = [z[p - len(b)] for p in pivots if p >= len(b)]
    return reps, lambda v: tuple(dense_solve(m, v)[p] for p in pivots if p >= len(b))


DIFF_FIELDS = FIELDS + [PrimeField(10007)]


def sample_matrices(field, rng):
    """Seeded dense, sparse, low-rank, zero-row and zero-column matrices."""
    for _ in range(12):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        yield rand_matrix(field, rng, nr, nc)
        yield Matrix(field, [[field.of(rng.choice([0] * 6 + [1, -1, 2, 3]))
                              for _ in range(nc)] for _ in range(nr)])
        k = rng.randint(1, 3)
        left, right = rand_matrix(field, rng, nr, k), rand_matrix(field, rng, k, nc)
        yield left @ right
        yield Matrix.zero(field, nr, nc)
        yield Matrix(field, [], ncols=nc)
        yield Matrix.zero(field, nr, 0)


def sample_complex(field, rng):
    """C^0 -> C^1 -> C^2 with d1 of low rank and d0 through its kernel."""
    n0, n1, n2 = rng.randint(0, 4), rng.randint(1, 6), rng.randint(0, 4)
    k = rng.randint(0, 2)
    d1 = rand_matrix(field, rng, n2, k) @ rand_matrix(field, rng, k, n1)
    kern = d1.kernel_basis()
    d0 = Matrix.from_cols(field, kern, n1) @ rand_matrix(field, rng, len(kern), n0)
    sp = GradedVectorSpace(field, DegreeWindow(0, 2), {0: n0, 1: n1, 2: n2})
    blocks = {d: m for d, m in ((0, d0), (1, d1))
              if sp.dim(d) and sp.dim(d + 1)}
    return CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks))


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_sparse_elimination_matches_dense_reference(field):
    rng = random.Random(20261018)
    for m in sample_matrices(field, rng):
        assert m.rref() == dense_rref(m)
        assert [dense(field, v, m.ncols) for v in m.kernel_basis()] == dense_kernel_basis(m)
        b = tuple(field.of(rng.randint(-3, 3)) for _ in range(m.nrows))
        for rhs in (b, dense_apply(m, tuple(field.of(rng.randint(-3, 3))
                                            for _ in range(m.ncols)))):
            ref_x = dense_solve(m, rhs)
            got = m.solve(sparse(lower(field, rhs)))
            assert got == (None if ref_x is None else sparse(ref_x))


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_cohomology_matches_dense_reference(field):
    rng = random.Random(7)
    for _ in range(40):
        cx = sample_complex(field, rng)
        coh = cohomology(cx)
        for deg in cx.space.degrees():
            reps, reduce = dense_cohomology(cx, deg)
            assert coh.reps[deg] == [sparse(r) for r in reps]
            image = cols(cx.d.block(deg - 1)) if cx.space.dim(deg - 1) else []
            # random cocycles, from the dense kernel and from the image
            rf = reference(field)
            for _ in range(6):
                v = [rf.zero] * cx.space.dim(deg)
                for w in dense_kernel_basis(cx.d.block(deg)) + image:
                    c = rf.of(rng.randint(-2, 2))
                    v = [x + c * y for x, y in zip(v, w)]
                assert coh.reduce(deg, sparse(lower(field, v))) == sparse(reduce(tuple(v)))


def test_cohomology_reduce_rejects_vectors_it_cannot_reduce():
    # d: k^2 -> k, (x, y) -> x, so the cocycles of degree 0 are the y-axis
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 1), {0: 2, 1: 1})
    coh = cohomology(CochainComplex(sp, GradedLinearMap(sp, sp, 1,
                                                        {0: Matrix(QQ, [[1, 0]])})))
    assert coh.reduce(0, {1: QQ.of(3)}) == {0: QQ.of(3)}
    with pytest.raises(GradedError, match="non-cocycle in degree 0"):
        coh.reduce(0, {0: QQ.one})
    # behind the cocycle test, the factored basis still refuses a vector
    # outside its span: with d = 0 every vector passes the cocycle test,
    # and the failure is the library's own
    coh.d = CochainComplex.zero_differential(sp).d
    with pytest.raises(InternalError, match="cocycle outside the cocycle span"):
        coh.reduce(0, {0: QQ.one})


def test_cohomology_eliminates_through_rref(monkeypatch):
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append((self.nrows, self.ncols))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    # d: k -> k^2, x -> (x, 0): one kernel rref per stored block, one rref
    # of (image | cocycles | I) where there are cocycles and a stored block
    # in or out, none in reduce
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 1), {0: 1, 1: 2})
    d = GradedLinearMap(sp, sp, 1, {0: Matrix(QQ, [[1], [0]])})
    coh = cohomology(CochainComplex(sp, d))
    assert calls == [(2, 1), (2, 5)]
    assert coh.reps == {0: [], 1: [{1: QQ.one}]}
    calls.clear()
    assert coh.reduce(1, {0: QQ.of(5), 1: QQ.of(3)}) == {0: QQ.of(3)}
    assert calls == []


def same_matrix(m, ref):
    return (m.nrows, m.ncols, m.entries) == (ref.nrows, ref.ncols, ref.entries)


def rand_sparse(field, rng, nrows, ncols):
    return Matrix(field, [[field.of(rng.choice([0] * 5 + [1, -1, 2]))
                           for _ in range(ncols)] for _ in range(nrows)], ncols=ncols)


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_sparse_rows_match_dense_matrix(field):
    rng = random.Random(5150)
    for m in sample_matrices(field, rng):
        ref = DenseMatrix(field, m.entries, ncols=m.ncols)
        assert m == Matrix(field, [lower(field, r) for r in ref.entries], ncols=ref.ncols)
        assert [row(m, i) for i in range(m.nrows)] == [ref.row(i) for i in range(m.nrows)]
        assert cols(m) == ref.cols()
        assert [col(m, j) for j in range(m.ncols)] == [ref.col(j) for j in range(m.ncols)]
        assert all(entry(m, i, j) == ref[i, j] for i in range(m.nrows) for j in range(m.ncols))
        assert m.is_zero() == ref.is_zero()
        other = rand_sparse(field, rng, m.nrows, m.ncols)
        ref_other = DenseMatrix(field, other.entries, ncols=other.ncols)
        assert same_matrix(m + other, ref + ref_other)
        assert same_matrix(m - other, ref - ref_other)
        for c in (0, 1, -1, 3, field.of(2)):
            assert same_matrix(m.scale(c), ref.scale(c))
        right = rand_sparse(field, rng, m.ncols, rng.randint(0, 4))
        assert same_matrix(m @ right, ref @ DenseMatrix(field, right.entries, right.ncols))
        assert same_matrix(m.transpose(), ref.transpose())
        v = tuple(field.of(rng.randint(-3, 3)) for _ in range(m.ncols))
        assert m.apply(sparse(v)) == sparse(ref.apply(v))
        red, pivots = m.rref()
        ref_red, ref_pivots = ref.rref()
        assert same_matrix(red, ref_red) and pivots == ref_pivots
        assert m.kernel_basis() == [sparse(k) for k in ref.kernel_basis()]
        b = tuple(field.of(rng.randint(-3, 3)) for _ in range(m.nrows))
        for rhs in (b, ref.apply(v)):
            x, ref_x = m.solve(sparse(lower(field, rhs))), ref.solve(rhs)
            assert x == (None if ref_x is None else sparse(ref_x))
        # equality sees the not how it was built
        twin = Matrix.sparse(field, [dict(reversed(r.items())) for r in m.rows], m.ncols)
        assert twin == m
        assert (m == other) == (ref == ref_other)
        assert (m + other - other) == m


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_apply_walks_the_columns_it_hits(field):
    """`apply` against the dense product, on vectors with one entry, a
    few or all, again and again on one matrix, with its keys in row
    order: the first call walks the rows and builds no column index, the
    second builds it once."""
    rng = random.Random(4242)
    for m in sample_matrices(field, rng):
        ref = DenseMatrix(field, m.entries, ncols=m.ncols)
        calls = 0
        for size in (1, 2, m.ncols, m.ncols):
            cols = rng.sample(range(m.ncols), min(size, m.ncols))
            v = tuple(field.of(rng.choice([1, -1, 2, -3])) if c in cols else field.zero
                      for c in range(m.ncols))
            got = m.apply(sparse(v))
            calls += any(v)
            assert isinstance(m._columns, dict) == (calls > 1)
            assert got == sparse(ref.apply(v))
            assert list(got) == sorted(got)
            assert all(in_scalar_form(field, x) for x in got.values())
    assert m.apply({}) == {}


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(10007), QQ])
def test_matrix_coerces_and_drops_zeros(field):
    row = [1, "1/2", Fraction(3, 4), "0", 0, Fraction(0), field.zero, -2]
    m = Matrix(field, [row])
    assert m.entries == DenseMatrix(field, [row]).entries
    assert sorted(m.rows[0]) == [0, 1, 2, 7]
    assert all(in_scalar_form(field, x) for x in m.rows[0].values())
    assert m.rows[0][1] == field.of(Fraction(1, 2))
    sparse = Matrix.sparse(field, [{c: field.of(row[c]) for c in (0, 1, 2, 7)}], len(row))
    assert sparse == m


def test_prime_field_ints_are_reduced_where_stored():
    f5 = PrimeField(5)
    assert Matrix(f5, [[-1, 5, 7]]).rows == ({0: 4, 2: 2},)
    m = Matrix.sparse(f5, [{0: 4, 1: 2}], 2)
    assert m.scale(-1).rows == ({0: 1, 1: 3},)
    assert m.scale(-3).rows == ({0: 3, 1: 4},) and m.scale(10).is_zero()
    assert (f5.zero, f5.one, f5.minus_one) == (0, 1, 4)
    assert (f5.of(-7), f5.of(Fraction(1, 2)), f5.of("-3/4")) == (3, 3, 3)
    assert f5.div(9, 3) == 3 and f5.div(-1, 2) == 2
    with pytest.raises(ZeroDivisionError):
        f5.div(1, 10)


def test_matrix_width_must_match_ncols():
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2]], ncols=3)
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(IndexError):
        Matrix.from_cols(QQ, [{3: QQ.one}], 3)
    assert (Matrix(QQ, [[1, 2]], ncols=2).nrows, Matrix(QQ, [], ncols=3).ncols) == (1, 3)
    assert Matrix.from_cols(QQ, [], 3).entries == ((), (), ())
    assert Matrix.from_cols(QQ, [{0: QQ.one}, {2: QQ.of(2)}], 3) == Matrix(
        QQ, [[1, 0], [0, 0], [0, 2]])
