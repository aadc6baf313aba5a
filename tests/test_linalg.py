import random
from fractions import Fraction

import pytest

from pemb.fields import PrimeField, QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         GradedVectorSpace, cohomology)
from pemb.linalg import Matrix, Quotienter

FIELDS = [QQ, PrimeField(2), PrimeField(5)]


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
    assert v == (Fraction(-2), Fraction(1))


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    b = (Fraction(1), Fraction(-5), Fraction(7, 2))
    assert m.solve(b) == b


def test_solve_free_variable_rule():
    m = Matrix(QQ, [[1, 1]])
    assert m.solve((QQ.of(2),)) == (Fraction(2), Fraction(0))


def test_solve_inconsistent():
    m = Matrix(QQ, [[0]])
    assert m.solve((QQ.of(1),)) is None


@pytest.mark.parametrize("field", FIELDS)
def test_solve_random_exact(field):
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(field, rng, nr, nc)
        x0 = tuple(field.of(rng.randint(-3, 3)) for _ in range(nc))
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
            assert all(c == 0 for c in a.apply(v))


@pytest.mark.parametrize("field", FIELDS)
def test_rref_idempotent(field):
    rng = random.Random(23)
    for _ in range(40):
        a = rand_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 4))
        red, _ = a.rref()
        again, _ = red.rref()
        assert red == again


def test_span_complement():
    vs = [(QQ.of(1), QQ.of(2), QQ.of(0))]
    assert Quotienter(QQ, vs, 3).keep == [1, 2]
    assert Quotienter(QQ, [], 2).keep == [0, 1]


def test_matmul_and_transpose():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    assert a @ b == Matrix(QQ, [[2, 1], [4, 3]])
    assert a.transpose() == Matrix(QQ, [[1, 3], [2, 4]])


# The dense elimination, quotient reducer and cohomology representatives
# below are the reference for the sparse `Matrix.rref` and everything that
# reads its output: the reduced echelon form is unique, so both must agree
# entry for entry.


def dense_rref(m):
    a = [list(row) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.ncols):
        if r >= m.nrows:
            break
        pr = next((i for i in range(r, m.nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = m.field.one / a[r][c]
        a[r] = [inv * x for x in a[r]]
        for i in range(m.nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.field, a, ncols=m.ncols), pivots


def dense_kernel_basis(m):
    red, pivots = dense_rref(m)
    z, o = m.field.zero, m.field.one
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [z] * m.ncols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(tuple(v))
    return basis


def dense_solve(m, b):
    red, pivots = dense_rref(m.hstack(Matrix.from_cols(m.field, [tuple(b)], m.nrows)))
    if m.ncols in pivots:
        return None
    x = [m.field.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, m.ncols]
    return tuple(x)


class DenseQuotienter:
    def __init__(self, field, spans, dim):
        self.field, self.dim = field, dim
        self.rows, self.pivots = [], []
        if spans:
            red, self.pivots = dense_rref(Matrix.from_rows(field, [list(v) for v in spans]))
            self.rows = [red.row(r) for r in range(len(self.pivots))]
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
    b = [c for c in cx.d.block(deg - 1).cols() if any(x != 0 for x in c)]
    if b:
        b = [b[p] for p in dense_rref(Matrix.from_cols(field, b, n))[1]]
    if not z:
        return [], lambda v: ()
    m = Matrix.from_cols(field, b + z, n)
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
    seen = 0
    for m in sample_matrices(field, rng):
        assert m.rref() == dense_rref(m)
        assert m.kernel_basis() == dense_kernel_basis(m)
        b = tuple(field.of(rng.randint(-3, 3)) for _ in range(m.nrows))
        for rhs in (b, m.apply(tuple(field.of(rng.randint(-3, 3))
                                     for _ in range(m.ncols)))):
            assert m.solve(rhs) == dense_solve(m, rhs)
        spans = [m.row(i) for i in range(m.nrows)]
        q, ref = Quotienter(field, spans, m.ncols), DenseQuotienter(field, spans, m.ncols)
        assert q.keep == ref.keep
        for v in spans + [tuple(field.of(rng.randint(-3, 3)) for _ in range(m.ncols))]:
            assert q.project(v) == ref.project(v)
            assert q.contains(v) == ref.contains(v)
            seen += not ref.contains(v)
    assert seen > 15


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_cohomology_matches_dense_reference(field):
    rng = random.Random(7)
    for _ in range(40):
        cx = sample_complex(field, rng)
        coh = cohomology(cx)
        for deg in cx.space.degrees():
            reps, reduce = dense_cohomology(cx, deg)
            assert coh.reps[deg] == reps
            image = cx.d.block(deg - 1).cols() if cx.space.dim(deg - 1) else []
            for _ in range(3):
                v = [field.zero] * cx.space.dim(deg)
                for w in coh.cocycles[deg] + image:
                    c = field.of(rng.randint(-2, 2))
                    v = [x + c * y for x, y in zip(v, w)]
                assert coh.reduce(deg, tuple(v)) == reduce(tuple(v))


def test_quotienter_and_cohomology_eliminate_through_rref(monkeypatch):
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append((self.nrows, self.ncols))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    q = Quotienter(QQ, [(QQ.of(1), QQ.of(2), QQ.of(0))], 3)
    assert calls == [(1, 3)]
    q.project((QQ.of(1), QQ.of(1), QQ.of(1)))
    q.contains((QQ.of(2), QQ.of(4), QQ.of(0)))
    assert calls == [(1, 3)]
    # d: k -> k^2, x -> (x, 0): one kernel rref per degree, one pivot rref
    # where there are cocycles, one solve in reduce
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 1), {0: 1, 1: 2})
    d = GradedLinearMap(sp, sp, 1, {0: Matrix(QQ, [[1], [0]])})
    calls.clear()
    coh = cohomology(CochainComplex(sp, d))
    assert calls == [(2, 1), (0, 2), (2, 3)]
    assert coh.reps == {0: [], 1: [(QQ.zero, QQ.one)]}
    calls.clear()
    assert coh.reduce(1, (QQ.of(5), QQ.of(3))) == (QQ.of(3),)
    assert len(calls) == 1
