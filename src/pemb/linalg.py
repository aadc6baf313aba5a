"""Exact linear algebra over Q or F_p.

A vector is a sparse dict {index: nonzero scalar}, and it never stores a
zero: the zero vector is {}.  This is the one vector form of the library,
from structure constants to cohomology; `dense` expands one to a tuple
for a printed report.  `axpy` is the one vector update, and `scaled`
and `sparse_sum` build the vectors that are not updates.

Over F_p a scalar is an int in [0, p), and a product or sum of residues
may leave that range: these kernels take such values as arguments and
reduce, modulo `field.characteristic`, every value they store or test
for zero.  The characteristic is 0 over Q, where nothing is reduced;
each kernel picks its loop once per call.

Matrices are immutable and field-tagged, stored as sparse rows, each a
vector over the columns, and the library builds them with
`Matrix.sparse`.  `entries`, the one dense view, is built on demand.
`Matrix.rref` is the one Gaussian elimination: `kernel_basis`, `solve`
and the cohomology bases all read its output.  It returns the unique
reduced echelon form, so every basis this module produces is
deterministic; golden-file tests upstream rely on that.
"""

from __future__ import annotations


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows", "_columns")

    def __init__(self, field, entries, ncols=None):
        """From dense rows; every entry is coerced into the field (an int
        need not be a residue mod p).  Only the tests, and the
        benchmark's own, build a matrix this way."""
        of = field.of
        rows = []
        for row in entries:
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ValueError("row of length %d in a matrix of %d columns"
                                 % (len(row), ncols))
            sparse = {}
            for c, x in enumerate(row):
                x = of(x)
                if x:
                    sparse[c] = x
            rows.append(sparse)
        self.field = field
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = ncols or 0
        self._columns = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def sparse(field, rows, ncols):
        """From rows already sparse: dicts {column < ncols: nonzero field
        scalar}, taken as they are, neither copied nor coerced.  The
        matrix shares them, so no one may change them afterwards."""
        m = Matrix.__new__(Matrix)
        m.field = field
        m.rows = tuple(rows)
        m.nrows = len(m.rows)
        m.ncols = ncols
        m._columns = None
        return m

    @staticmethod
    def zero(field, nrows, ncols):
        return Matrix.sparse(field, [{} for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field, n):
        return Matrix.sparse(field, [{i: field.one} for i in range(n)], n)

    @staticmethod
    def from_cols(field, cols, nrows):
        """From columns, vectors over range(nrows); the matrix copies them."""
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                rows[i][j] = x
        return Matrix.sparse(field, rows, len(cols))

    # -- dense view -----------------------------------------------------

    @property
    def entries(self):
        z = self.field.zero
        return tuple(tuple(r.get(c, z) for c in range(self.ncols)) for r in self.rows)

    def __repr__(self):
        return "Matrix(%s, %s)" % (self.field, [list(map(str, r)) for r in self.entries])

    # -- basics ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def transpose(self):
        out = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for c, x in r.items():
                out[c][i] = x
        return Matrix.sparse(self.field, out, self.nrows)

    def is_zero(self):
        return not any(self.rows)

    def __add__(self, other):
        return self._combine(other, self.field.one)

    def __sub__(self, other):
        return self._combine(other, self.field.minus_one)

    def _combine(self, other, f):
        """self + f * other."""
        _check_shapes(self, other)
        out = []
        for r1, r2 in zip(self.rows, other.rows):
            row = dict(r1)
            axpy(self.field, row, f, r2)
            out.append(row)
        return Matrix.sparse(self.field, out, self.ncols)

    def scale(self, c):
        field = self.field
        c = field.of(c)
        if not c:
            return Matrix.zero(field, self.nrows, self.ncols)
        return Matrix.sparse(field, [scaled(field, c, r) for r in self.rows], self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product: %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        field, out = self.field, []
        for r in self.rows:
            row = {}
            for k, a in r.items():
                axpy(field, row, a, other.rows[k])
            out.append(row)
        return Matrix.sparse(self.field, out, other.ncols)

    def apply(self, v):
        """Matrix times a vector over the columns, keyed in row order.
        The first call walks the rows, testing each entry against v; from
        the second on, it walks only the columns that v hits, through a
        column index built on the second call (the matrix is immutable),
        so a matrix applied once builds none."""
        if not v:
            return {}
        columns = self._columns
        p = self.field.characteristic
        if columns is None:
            self._columns = False
            out = {}
            for i, r in enumerate(self.rows):
                s = None
                for c, a in r.items():
                    if c in v:
                        s = a * v[c] if s is None else s + a * v[c]
                if s and p:
                    s %= p
                if s:
                    out[i] = s
            return out
        if columns is False:
            columns = {}
            for i, r in enumerate(self.rows):
                for c, a in r.items():
                    columns.setdefault(c, []).append((i, a))
            self._columns = columns
        sums = {}
        for c, x in v.items():
            for i, a in columns.get(c, ()):
                sums[i] = sums[i] + a * x if i in sums else a * x
        if p:
            return {i: s for i in sorted(sums) if (s := sums[i] % p)}
        return {i: s for i in sorted(sums) if (s := sums[i])}

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row-echelon form and the strictly increasing pivot columns.

        Copies of the rows are eliminated one at a time against the pivot
        rows found so far, which stay fully reduced.  The reduced echelon
        form of a matrix is unique, so the result is the one the
        index-order pivot rule gives.
        """
        field = self.field
        rows = {}   # pivot column -> reduced sparse row, 1 at the pivot
        for r in self.rows:
            row = dict(r)
            _reduce(field, row, rows)
            if row:
                p = min(row)
                if row[p] != field.one:
                    row = scaled(field, field.div(field.one, row[p]), row)
                for other in rows.values():
                    if p in other:
                        _reduce(field, other, {p: row})
                rows[p] = row
        pivots = sorted(rows)
        out = [rows[p] for p in pivots] + [{} for _ in range(self.nrows - len(pivots))]
        return Matrix.sparse(self.field, out, self.ncols), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the null space; deterministic (one vector per free column)."""
        return reduced_kernel(*self.rref(), self.ncols)

    def solve(self, b):
        """One solution x of A x = b, for a vector b over the rows, with
        free variables set to 0; None when there is none."""
        n = self.ncols
        if any(not 0 <= i < self.nrows for i in b):
            raise ValueError("rhs index outside the %d rows" % self.nrows)
        aug = Matrix.sparse(self.field, [{**r, n: b[i]} if i in b else r
                                         for i, r in enumerate(self.rows)], n + 1)
        red, pivots = aug.rref()
        if n in pivots:
            return None
        return {pc: row[n] for row, pc in zip(red.rows, pivots) if n in row}


def reduced_kernel(red, pivots, ncols):
    """Basis of the null space of the first ncols columns of a matrix, read
    off its `rref` (red, pivots): row operations keep those columns apart,
    so the first ncols columns of red are their reduced echelon form.  One
    vector per free column, so the basis is deterministic."""
    pivset = set(pivots)
    p = red.field.characteristic
    free = {fc: {fc: red.field.one} for fc in range(ncols)
            if fc not in pivset}   # free column -> its basis vector
    for row, pc in zip(red.rows, pivots):
        for c, x in row.items():
            if c in free:
                free[c][pc] = p - x if p else -x   # x is in (0, p) over F_p
    return list(free.values())


def axpy(field, row, f, other):
    """row += f * other in place, for vectors row and other and a scalar
    f that is nonzero in the field (over F_p, f and the entries of other
    may be unreduced); entries that become zero are dropped."""
    p = field.characteristic
    if p:
        for c, x in other.items():
            if c in row:
                v = (row[c] + f * x) % p
                if v:
                    row[c] = v
                else:
                    del row[c]
            else:
                row[c] = f * x % p
        return
    for c, x in other.items():
        if c in row:
            v = row[c] + f * x
            if v:
                row[c] = v
            else:
                del row[c]
        else:
            row[c] = f * x


def scaled(field, c, v):
    """The vector c * v, for a scalar c that is nonzero in the field and
    may be unreduced, like a sign -1 or a product of residues."""
    p = field.characteristic
    if p:
        return {i: c * x % p for i, x in v.items()}
    return {i: c * x for i, x in v.items()}


def _reduce(field, row, pivot_rows):
    """row -= row[p] * pivot_rows[p] for every pivot column p of row, in
    place.  Each pivot row is 1 at its pivot and 0 at every other pivot,
    so one pass clears them all."""
    for p in [p for p in row if p in pivot_rows]:
        axpy(field, row, -row[p], pivot_rows[p])


def _check_shapes(a, b):
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise ValueError("shape mismatch: %dx%d vs %dx%d"
                         % (a.nrows, a.ncols, b.nrows, b.ncols))


def dense(field, v, n):
    """The vector v as a tuple of length n, for a printed report."""
    return tuple(v.get(i, field.zero) for i in range(n))


def sparse_sum(field, terms):
    """The vector summing the (index, scalar) terms; over F_p the scalars
    may be unreduced."""
    out = {}
    for i, c in terms:
        out[i] = out[i] + c if i in out else c
    p = field.characteristic
    if p:
        return {i: r for i, c in out.items() if (r := c % p)}
    return {i: c for i, c in out.items() if c}
