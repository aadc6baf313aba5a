"""Exact linear algebra over Q or F_p.

Matrices are immutable, dense, and field-tagged.  `Matrix.rref` is the
one Gaussian elimination: `kernel_basis`, `solve`, `Quotienter` and the
cohomology bases all read its output.  It returns the unique reduced
echelon form, so every basis this module produces is deterministic;
golden-file tests upstream rely on that.
"""

from __future__ import annotations


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, entries, ncols=None):
        self.field = field
        rows = tuple(tuple(field.of(x) if not _is_scalar(x, field) else x for x in row)
                     for row in entries)
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
        return Matrix(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rows(field, rows):
        return Matrix(field, rows)

    @staticmethod
    def from_cols(field, cols, nrows=None):
        if not cols:
            return Matrix.zero(field, nrows or 0, 0)
        n = len(cols[0])
        return Matrix(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)],
                      ncols=len(cols))

    # -- basics ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))

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
        return Matrix(self.field, [[self.entries[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], ncols=self.nrows)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def __add__(self, other):
        _check_shapes(self, other)
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)],
                      ncols=self.ncols)

    def __sub__(self, other):
        _check_shapes(self, other)
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)],
                      ncols=self.ncols)

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.entries],
                      ncols=self.ncols)

    def scale(self, c):
        c = self.field.of(c) if not _is_scalar(c, self.field) else c
        return Matrix(self.field, [[c * a for a in row] for row in self.entries],
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
        return Matrix(self.field, out, ncols=other.ncols)

    def apply(self, v):
        """Matrix times column vector (tuple)."""
        if len(v) != self.ncols:
            raise ValueError("vector length %d != %d columns" % (len(v), self.ncols))
        z = self.field.zero
        return tuple(sum((a * b for a, b in zip(row, v) if a != 0), z) for row in self.entries)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.field, [r1 + r2 for r1, r2 in zip(self.entries, other.entries)],
                      ncols=self.ncols + other.ncols)

    def __repr__(self):
        return "Matrix(%s, %s)" % (self.field, [list(map(str, r)) for r in self.entries])

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
            _reduce(row, rows, zero)
            if row:
                p = min(row)
                inv = self.field.one / row[p]
                row = {c: inv * x for c, x in row.items()}
                for other in rows.values():
                    if p in other:
                        _reduce(other, {p: row}, zero)
                rows[p] = row
        pivots = sorted(rows)
        out = [[rows[p].get(c, zero) for c in range(self.ncols)] for p in pivots]
        out += [[zero] * self.ncols] * (self.nrows - len(pivots))
        return Matrix(self.field, out, ncols=self.ncols), pivots

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
        aug = self.hstack(Matrix.from_cols(self.field, [tuple(b)], self.nrows))
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        z = self.field.zero
        x = [z] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.ncols]
        return tuple(x)


def _is_scalar(x, field):
    return type(x) is type(field.zero)


def _reduce(row, pivot_rows, zero):
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


def _check_shapes(a, b):
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise ValueError("shape mismatch: %dx%d vs %dx%d"
                         % (a.nrows, a.ncols, b.nrows, b.ncols))


def zero_vec(field, n):
    return (field.zero,) * n


def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def add_vec(a, b):
    return tuple(x + y for x, y in zip(a, b))


def add_scaled(out, c, v):
    """out += c * v in place, over the nonzeros of v."""
    for k, x in enumerate(v):
        if x != 0:
            out[k] += c * x


def sub_vec(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale_vec(c, a):
    return tuple(c * x for x in a)


def is_zero_vec(a):
    return all(x == 0 for x in a)


class Quotienter:
    """Quotient of k^dim by the span of given vectors, pivot-rule basis:
    the kept coordinates are the non-pivot columns of the reduced span."""

    def __init__(self, field, spans, dim):
        self.field, self.dim = field, dim
        red, pivots = Matrix(field, spans, ncols=dim).rref() if spans else (None, [])
        self.rows = {p: {c: x for c, x in enumerate(red.row(r)) if x}
                     for r, p in enumerate(pivots)}
        self.keep = [i for i in range(dim) if i not in self.rows]

    def _remainder(self, v):
        """v reduced against the span, as a sparse row {kept index: coeff}."""
        row = {c: x for c, x in enumerate(v) if x}
        _reduce(row, self.rows, self.field.zero)
        return row

    def project(self, v):
        row = self._remainder(v)
        return tuple(row.get(i, self.field.zero) for i in self.keep)

    def lift(self, w):
        v = [self.field.zero] * self.dim
        for c, i in zip(w, self.keep):
            v[i] = c
        return tuple(v)

    def contains(self, v):
        return not self._remainder(v)
