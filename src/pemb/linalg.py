"""Exact linear algebra over Q or F_p.

Matrices are immutable, dense, and field-tagged.  Pivoting always scans
rows and columns in index order, so every basis this module produces is
deterministic; golden-file tests upstream rely on that.
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
        """Reduced row-echelon form and the strictly increasing pivot columns."""
        m = [list(row) for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.ncols):
            if r >= self.nrows:
                break
            pr = next((i for i in range(r, self.nrows) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = self.field.one / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(self.field, m, ncols=self.ncols), pivots

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


def _check_shapes(a, b):
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise ValueError("shape mismatch: %dx%d vs %dx%d"
                         % (a.nrows, a.ncols, b.nrows, b.ncols))


def vec(field, xs):
    return tuple(field.of(x) for x in xs)


def zero_vec(field, n):
    return (field.zero,) * n


def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def add_vec(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub_vec(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale_vec(c, a):
    return tuple(c * x for x in a)


def is_zero_vec(a):
    return all(x == 0 for x in a)


def span_complement_coords(field, vectors, dim):
    """Indices of standard basis vectors completing span(vectors) to k^dim.

    The chosen indices are the non-pivot coordinates of the row-reduced
    span, so the result is deterministic and the selected standard
    vectors meet the span trivially.
    """
    if not vectors:
        return list(range(dim))
    m = Matrix.from_rows(field, [list(v) for v in vectors])
    _, pivots = m.rref()
    pivset = set(pivots)
    return [i for i in range(dim) if i not in pivset]


def solve_affine(field, rows, rhs, ncols):
    """Full solution set of a linear system: (particular, kernel basis) or None.

    `rows` is a list of coefficient rows of length ncols; `rhs` the
    right-hand sides.  Deterministic free-variable-zero particular
    solution.
    """
    if not rows:
        return zero_vec(field, ncols), [unit_vec(field, ncols, i) for i in range(ncols)]
    a = Matrix.from_rows(field, rows)
    part = a.solve(rhs)
    if part is None:
        return None
    return part, a.kernel_basis()
