"""Dense vectors and boxed F_p scalars, the references for the library's
sparse vectors and int residues.

The library keeps every vector as a dict {index: nonzero scalar}.  Its
earlier form was the dense tuple of the full dimension, and the
exhaustive loops and table builders that the tests compare the sparse
code against were written for that form.  The helpers and views below
are that dense API, with its arithmetic, read off the sparse objects: a
`DenseCdga` has the dense `unit`, `product`, `mul_basis` and `mul_vec`
of a `Cdga`, a `DenseModule` the dense `action` and `act_vec` of a
`DgModule`.

The dense views of a `Matrix` that only the tests read, `row`, `col`,
`cols` and `entry`, live here, with `mul_basis` and `top_degree` of a
`Cdga` and `add_maps`, the sum of two graded maps.

Over F_p the library holds a scalar as an int in [0, p) and reduces in
its kernels only, so plain arithmetic on its scalars leaves that range.
The references compute instead in `reference(field)`: over F_p the
`BoxedPrimeField`, whose scalars are `FpElement`s that reduce on every
operation, as the library's own scalars once did.  An `FpElement`
compares equal to the int of its residue class, so a reference result
compares with `==` against the library's.
"""

from fractions import Fraction

from pemb.fields import FieldError, PrimeField
from pemb.graded import GradedLinearMap
from pemb.linalg import Matrix, dense


class FpElement:
    """A residue modulo a prime, with exact field arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError("mixed prime fields F_%d and F_%d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __mod__(self, p):
        """Already reduced: the library's kernels reduce what they store
        with `% p`, which leaves a boxed residue as it is."""
        if p != self.p:
            raise FieldError("F_%d element reduced mod %d" % (self.p, p))
        return self

    def __repr__(self):
        return "%d" % self.v


class BoxedPrimeField(PrimeField):
    """F_p with `FpElement` scalars.  The library's code runs on it
    unchanged: its kernels' `% p` leaves a boxed residue as it is."""

    def __init__(self, p):
        super().__init__(p)
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)
        self.minus_one = FpElement(-1, p)

    def of(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldError("element of F_%d given to F_%d" % (x.p, self.p))
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError("denominator of %s vanishes in F_%d" % (x, self.p))
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise FieldError("cannot coerce %r into F_%d" % (x, self.p))

    def div(self, a, b):
        return self.of(a) / self.of(b)


def reference(field):
    """The field the references compute in: Q itself, and for F_p the
    boxed F_p."""
    if field.characteristic == 0 or isinstance(field, BoxedPrimeField):
        return field
    return BoxedPrimeField(field.p)


def lift(field, v):
    """A dense vector of library scalars as one of `reference(field)`."""
    rf = reference(field)
    return tuple(rf.of(x) for x in v)


def lower(field, v):
    """A dense vector of the reference field as one of library scalars."""
    return tuple(field.of(x.v) if isinstance(x, FpElement) else x for x in v)


def sparse(v):
    """A dense vector as a sparse one."""
    return {i: x for i, x in enumerate(v) if x}


def zero_vec(field, n):
    return (reference(field).zero,) * n


def unit_vec(field, n, i):
    rf = reference(field)
    v = [rf.zero] * n
    v[i] = rf.one
    return tuple(v)


def add_vec(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub_vec(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale_vec(c, a):
    return tuple(c * x for x in a)


def is_zero_vec(a):
    return all(x == 0 for x in a)


def add_scaled(out, c, v):
    """out += c * v in place, over the nonzeros of v."""
    for k, x in enumerate(v):
        if x != 0:
            out[k] += c * x


def row(m, i):
    """Row i of a matrix as a dense tuple."""
    r, z = m.rows[i], m.field.zero
    return tuple(r.get(c, z) for c in range(m.ncols))


def col(m, j):
    """Column j of a matrix as a dense tuple."""
    z = m.field.zero
    return tuple(r.get(j, z) for r in m.rows)


def cols(m):
    return [col(m, j) for j in range(m.ncols)]


def entry(m, i, j):
    return m.rows[i].get(j, m.field.zero)


def mul_basis(a, d1, i1, d2, i2):
    """The stored product of two basis elements of a `Cdga` (not to be
    changed), or {}; a `DenseCdga` has its dense `mul_basis`."""
    return a.both_orders.get((d1, i1, d2, i2), {})


def top_degree(a):
    """The highest degree with a basis element, 0 for none."""
    degs = a.space.degrees()
    return degs[-1] if degs else 0


def add_maps(f, g):
    """The sum of two graded maps with one source, target and shift."""
    return GradedLinearMap(f.source, f.target, f.shift,
                           {d: f.block(d) + g.block(d) for d in f.source.degrees()})


def dense_apply(m, v):
    """Matrix times a dense column vector, in the reference field."""
    if len(v) != m.ncols:
        raise ValueError("vector length %d != %d columns" % (len(v), m.ncols))
    rf = reference(m.field)
    return tuple(sum((rf.of(a) * b for a, b in zip(row, v) if a != 0), rf.zero)
                 for row in m.entries)


def dense_from_cols(field, cols, nrows):
    """The matrix over the reference field with the given dense columns."""
    return Matrix(reference(field), cols, ncols=nrows).transpose()


def dense_table(table, space):
    """A product or action table with dense values in the reference field."""
    return {key: lift(space.field, dense(space.field, v, space.dim(key[0] + key[2])))
            for key, v in table.items()}


class DenseCdga:
    """The dense view of a `Cdga`."""

    def __init__(self, a):
        self.field, self.complex, self.space = reference(a.field), a.complex, a.space
        self.unit = lift(a.field, dense(a.field, a.unit, a.space.dim(0)))
        self.product = dense_table(a.product, a.space)
        self.both_orders = dense_table(a.both_orders, a.space)

    def mul_basis(self, d1, i1, d2, i2):
        return (self.both_orders.get((d1, i1, d2, i2))
                or zero_vec(self.field, self.space.dim(d1 + d2)))

    def mul_vec(self, d1, v1, d2, v2):
        out = [self.field.zero] * self.space.dim(d1 + d2)
        for i1, c1 in enumerate(v1):
            if c1 == 0:
                continue
            for i2, c2 in enumerate(v2):
                if c2 != 0 and (d1, i1, d2, i2) in self.both_orders:
                    add_scaled(out, c1 * c2, self.both_orders[(d1, i1, d2, i2)])
        return tuple(out)

    def basis_vec(self, d, i):
        return unit_vec(self.field, self.space.dim(d), i)

    def d_vec(self, d, v):
        return dense_apply(self.complex.d.block(d), v)


class DenseModule:
    """The dense view of a `DgModule`."""

    def __init__(self, m):
        self.algebra = DenseCdga(m.algebra)
        self.field, self.complex, self.space = reference(m.field), m.complex, m.space
        self.action = dense_table(m.action, m.space)

    def act_basis(self, da, ia, dm, jm):
        n = self.space.dim(da + dm)
        if n == 0:
            return ()
        return self.action.get((da, ia, dm, jm), zero_vec(self.field, n))

    def act_vec(self, da, av, dm, mv):
        out = [self.field.zero] * self.space.dim(da + dm)
        for ia, c1 in enumerate(av):
            if c1 == 0:
                continue
            for jm, c2 in enumerate(mv):
                if c2 != 0 and (da, ia, dm, jm) in self.action:
                    add_scaled(out, c1 * c2, self.action[(da, ia, dm, jm)])
        return tuple(out)

    def basis_vec(self, d, i):
        return unit_vec(self.field, self.space.dim(d), i)

    def d_vec(self, d, v):
        return dense_apply(self.complex.d.block(d), v)


class DenseMorphism:
    """The dense view of a morphism of CDGAs or of modules: its source
    and target as dense views, and `apply` on dense vectors."""

    def __init__(self, f, view):
        self.source, self.target, self.map = view(f.source), view(f.target), f.map

    def apply(self, d, v):
        return dense_apply(self.map.block(d), v)


def is_chain_map(f, source, target):
    """Check d_T f = (-1)^shift f d_S degreewise (shift-0 maps: d f = f d),
    block by block: the reference of the chain-map checks."""
    sign = target.field.sign(f.shift)
    for d in source.space.degrees():
        lhs = target.d.block(d + f.shift) @ f.block(d)
        rhs = (f.block(d + 1) @ source.d.block(d)).scale(sign)
        if lhs != rhs:
            return False
    return True


class ReferenceCohomology:
    """The elimination `graded.CohomologyData` ran in every degree before
    it skipped the degrees with no stored block: cocycles from
    `kernel_basis` of the shaped block out of the degree, even a zero
    one, and one `rref` of [image | cocycles | I] wherever there are
    cocycles.  The reference for its shortcut."""

    def __init__(self, complex_):
        self.complex = complex_
        field = complex_.field
        self.dims, self.cocycles, self.reps, self._decomp = {}, {}, {}, {}
        for deg in complex_.space.degrees():
            z = complex_.d.block(deg).kernel_basis()
            self.cocycles[deg] = z
            self.reps[deg] = []
            self._decomp[deg] = None
            if not z:
                continue
            n = complex_.space.dim(deg)
            b = [c for c in complex_.d.block(deg - 1).transpose().rows if c]
            k = len(b) + len(z)
            eye = [{i: field.one} for i in range(n)]
            red, pivots = Matrix.sparse(field, b + z + eye, n).transpose().rref()
            pivots = [p for p in pivots if p < k]
            nb = sum(1 for p in pivots if p < len(b))
            self.reps[deg] = [z[p - len(b)] for p in pivots[nb:]]
            e = [{c - k: x for c, x in r.items() if c >= k} for r in red.rows]
            self._decomp[deg] = (Matrix.sparse(field, e, n), nb, len(pivots))
            if self.reps[deg]:
                self.dims[deg] = len(self.reps[deg])

    def reduce(self, deg, v):
        if self._decomp.get(deg) is None:
            return {}
        e, nb, rank = self._decomp[deg]
        x = e.apply(v)
        assert all(i < rank for i in x)
        return {i - nb: c for i, c in x.items() if i >= nb}

    def write_coboundary(self, deg, v):
        return self.complex.d.block(deg - 1).solve(v)
