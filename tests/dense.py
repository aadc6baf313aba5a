"""Dense vectors, the reference for the library's sparse ones.

The library keeps every vector as a dict {index: nonzero scalar}.  Its
earlier form was the dense tuple of the full dimension, and the
exhaustive loops and table builders that the tests compare the sparse
code against were written for that form.  The helpers and views below
are that dense API, with its arithmetic, read off the sparse objects: a
`DenseCdga` has the dense `unit`, `product`, `mul_basis` and `mul_vec`
of a `Cdga`, a `DenseModule` the dense `action` and `act_vec` of a
`DgModule`.
"""

from pemb.linalg import Matrix, dense


def sparse(v):
    """A dense vector as a sparse one."""
    return {i: x for i, x in enumerate(v) if x}


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


def add_scaled(out, c, v):
    """out += c * v in place, over the nonzeros of v."""
    for k, x in enumerate(v):
        if x != 0:
            out[k] += c * x


def dense_apply(m, v):
    """Matrix times a dense column vector."""
    if len(v) != m.ncols:
        raise ValueError("vector length %d != %d columns" % (len(v), m.ncols))
    z = m.field.zero
    return tuple(sum((a * b for a, b in zip(row, v) if a != 0), z) for row in m.entries)


def dense_from_cols(field, cols, nrows):
    """The matrix with the given dense columns."""
    return Matrix(field, cols, ncols=nrows).transpose()


def dense_table(table, space):
    """A product or action table with dense values."""
    return {key: dense(space.field, v, space.dim(key[0] + key[2]))
            for key, v in table.items()}


class DenseCdga:
    """The dense view of a `Cdga`."""

    def __init__(self, a):
        self.field, self.complex, self.space = a.field, a.complex, a.space
        self.unit = dense(a.field, a.unit, a.space.dim(0))
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
        self.field, self.complex, self.space = m.field, m.complex, m.space
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
