"""Graded vector spaces, cochain complexes, and the basic functors.

Everything lives on a finite degree window; degrees outside the window
are zero by construction.  Sign conventions:

  suspension      (s^k c)^j = c^(k+j),  d(s^k x) = (-1)^k s^k(d x)
  dual            (#c)^i = (c^(-i))^*,  <x, delta(f)> = -(-1)^|x| <d x, f>
  mapping cone    C(f) = Y + sX,  d(y, sx) = (d y + f(x), -s(d x))
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, is_zero_vec, span_complement_coords, unit_vec, zero_vec


class GradedError(ValueError):
    pass


@dataclass(frozen=True)
class DegreeWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise GradedError("empty degree window [%d, %d]" % (self.lo, self.hi))

    def contains(self, d):
        return self.lo <= d <= self.hi

    def degrees(self):
        return range(self.lo, self.hi + 1)


class GradedVectorSpace:
    """Finite-dimensional graded vector space with labeled bases."""

    def __init__(self, field, window, dims, labels=None):
        self.field = field
        self.window = window
        self.dims = {d: n for d, n in dims.items() if n}
        for d in self.dims:
            if not window.contains(d):
                raise GradedError("degree %d outside window [%d, %d]"
                                  % (d, window.lo, window.hi))
        if labels is None:
            labels = {}
        self.labels = {d: tuple(labels.get(d) or ["b%d_%d" % (d, i) for i in range(n)])
                       for d, n in self.dims.items()}
        for d, n in self.dims.items():
            if len(self.labels[d]) != n:
                raise GradedError("label count mismatch in degree %d" % d)

    def dim(self, d):
        return self.dims.get(d, 0)

    def total_dim(self):
        return sum(self.dims.values())

    def degrees(self):
        return sorted(self.dims)

    def label(self, d, i):
        return self.labels[d][i]

    def zero(self, d):
        return zero_vec(self.field, self.dim(d))

    def __eq__(self, other):
        return (isinstance(other, GradedVectorSpace) and self.field == other.field
                and self.window == other.window and self.dims == other.dims)

    def __repr__(self):
        return "GradedVectorSpace(%s)" % (self.dims,)


class GradedLinearMap:
    """Degree-homogeneous linear map; block(d): source^d -> target^(d+shift)."""

    def __init__(self, source, target, shift, blocks):
        self.source = source
        self.target = target
        self.shift = shift
        self.blocks = {}
        for d, m in blocks.items():
            want = (target.dim(d + shift), source.dim(d))
            if (m.nrows, m.ncols) != want:
                raise GradedError("block at degree %d has shape %dx%d, expected %dx%d"
                                  % (d, m.nrows, m.ncols, want[0], want[1]))
            if not m.is_zero():
                self.blocks[d] = m

    @staticmethod
    def zero_map(source, target, shift):
        return GradedLinearMap(source, target, shift, {})

    @staticmethod
    def identity(space):
        return GradedLinearMap(space, space, 0,
                               {d: Matrix.identity(space.field, space.dim(d))
                                for d in space.degrees()})

    def block(self, d):
        if d in self.blocks:
            return self.blocks[d]
        return Matrix.zero(self.source.field, self.target.dim(d + self.shift),
                           self.source.dim(d))

    def apply(self, d, v):
        """Apply to a vector in source^d; returns a vector in target^(d+shift)."""
        return self.block(d).apply(v)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise GradedError("composition domain mismatch")
        blocks = {}
        for d in other.source.degrees():
            blocks[d] = self.block(d + other.shift) @ other.block(d)
        return GradedLinearMap(other.source, self.target, self.shift + other.shift, blocks)

    def add(self, other):
        blocks = {d: self.block(d) + other.block(d) for d in self.source.degrees()}
        return GradedLinearMap(self.source, self.target, self.shift, blocks)

    def sub(self, other):
        blocks = {d: self.block(d) - other.block(d) for d in self.source.degrees()}
        return GradedLinearMap(self.source, self.target, self.shift, blocks)

    def scale(self, c):
        return GradedLinearMap(self.source, self.target, self.shift,
                               {d: m.scale(c) for d, m in self.blocks.items()})

    def is_zero(self):
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, GradedLinearMap) or self.shift != other.shift:
            return False
        degs = set(self.blocks) | set(other.blocks)
        return all(self.block(d) == other.block(d) for d in degs)

    def __repr__(self):
        return "GradedLinearMap(shift=%d, degrees=%s)" % (self.shift, sorted(self.blocks))


class CochainComplex:
    """Graded space with a validated degree +1 differential."""

    def __init__(self, space, differential):
        if differential.shift != 1:
            raise GradedError("differential must raise degree by 1")
        self.space = space
        self.field = space.field
        self.d = differential
        for deg in space.degrees():
            sq = self.d.block(deg + 1) @ self.d.block(deg)
            if not sq.is_zero():
                raise GradedError("d*d != 0 at degree %d" % deg)

    @staticmethod
    def zero_differential(space):
        return CochainComplex(space, GradedLinearMap.zero_map(space, space, 1))

    def __repr__(self):
        return "CochainComplex(%s)" % (self.space.dims,)


def is_chain_map(f, source, target):
    """Check d_T f = (-1)^shift f d_S degreewise (shift-0 maps: d f = f d)."""
    sign = target.field.sign(f.shift)
    for d in source.space.degrees():
        lhs = target.d.block(d + f.shift) @ f.block(d)
        rhs = (f.block(d + 1) @ source.d.block(d)).scale(sign)
        if lhs != rhs:
            return False
    return True


class CohomologyData:
    """Cocycle/coboundary bases and chosen representatives per degree.

    Representatives are the pivot-rule cocycles: list the coboundary
    basis first, then the cocycle basis, row-reduce, and keep the
    cocycles landing on pivot columns.
    """

    def __init__(self, complex_):
        self.complex = complex_
        field = complex_.field
        self.field = field
        self.dims = {}
        self.cocycles = {}
        self.coboundaries = {}
        self.reps = {}
        self._decomp = {}
        for deg in complex_.space.degrees():
            z = complex_.d.block(deg).kernel_basis()
            b = [c for c in complex_.d.block(deg - 1).cols() if not is_zero_vec(c)]
            # span of the image, reduced to an independent list
            b = _independent(field, b, complex_.space.dim(deg))
            self.cocycles[deg] = z
            self.coboundaries[deg] = b
            if z:
                m = Matrix.from_cols(field, b + z, complex_.space.dim(deg))
                _, pivots = m.rref()
                reps = [z[p - len(b)] for p in pivots if p >= len(b)]
            else:
                m, pivots, reps = None, [], []
            self.reps[deg] = reps
            self._decomp[deg] = (m, len(b), pivots)
            if reps:
                self.dims[deg] = len(reps)

    def dim(self, deg):
        return self.dims.get(deg, 0)

    def reduce(self, deg, v):
        """Coordinates of the class [v] in the chosen H^deg basis.

        v must be a cocycle of degree deg; raises otherwise.
        """
        if deg not in self._decomp:
            return ()
        if not is_zero_vec(self.complex.d.apply(deg, v)):
            raise GradedError("reduce() given a non-cocycle in degree %d" % deg)
        m, nb, pivots = self._decomp[deg]
        if m is None:
            return ()
        x = m.solve(v)
        if x is None:
            raise GradedError("cocycle outside the cocycle span (internal)")
        return tuple(x[p] for p in pivots if p >= nb)

    def is_coboundary(self, deg, v):
        return all(c == 0 for c in self.reduce(deg, v))

    def rep(self, deg, i):
        return self.reps[deg][i]

    def write_coboundary(self, deg, v):
        """Find w with d(w) = v, or None."""
        return self.complex.d.block(deg - 1).solve(v)


def _independent(field, vectors, dim):
    """Reduce a spanning list to an independent sublist (pivot rule)."""
    if not vectors:
        return []
    m = Matrix.from_cols(field, vectors, dim)
    _, pivots = m.rref()
    return [vectors[p] for p in pivots]


def cohomology(complex_):
    return CohomologyData(complex_)


def induced_on_cohomology(f, coh_source, coh_target):
    """Blocks of H(f) in the chosen representative bases."""
    blocks = {}
    for deg in sorted(coh_source.dims):
        cols = [coh_target.reduce(deg + f.shift, f.apply(deg, z))
                for z in coh_source.reps[deg]]
        blocks[deg] = Matrix.from_cols(f.source.field, cols,
                                       coh_target.dim(deg + f.shift))
    return blocks


def quasi_isomorphism_failure(f, coh_source, coh_target):
    """First degree where the degree-0 map f does not induce an
    isomorphism on cohomology, or None when f is a quasi-isomorphism."""
    blocks = induced_on_cohomology(f, coh_source, coh_target)
    for deg in sorted(set(coh_source.dims) | set(coh_target.dims)):
        n = coh_target.dim(deg)
        if coh_source.dim(deg) != n or blocks[deg].rank() != n:
            return deg
    return None


def truncation_spans(complex_, t):
    """Spans of the subcomplex above degree t: every basis vector above t,
    and in degree t the standard vectors completing the cocycles."""
    sp, field = complex_.space, complex_.field
    spans = {}
    comp = span_complement_coords(
        field, [list(z) for z in complex_.d.block(t).kernel_basis()], sp.dim(t))
    if comp:
        spans[t] = [unit_vec(field, sp.dim(t), i) for i in comp]
    for d in sp.degrees():
        if d > t:
            spans[d] = [unit_vec(field, sp.dim(d), i) for i in range(sp.dim(d))]
    return spans


def suspend_label(k, lab):
    if k == 1:
        return "s" + lab
    return "s^%d%s" % (k, lab)


def suspend(complex_, k):
    """k-th suspension: degrees drop by k, differential picks up (-1)^k."""
    if k == 0:
        return complex_
    space = complex_.space
    w = DegreeWindow(space.window.lo - k, space.window.hi - k)
    dims = {d - k: n for d, n in space.dims.items()}
    labels = {d - k: [suspend_label(k, lab) for lab in space.labels[d]]
              for d in space.dims}
    new_space = GradedVectorSpace(space.field, w, dims, labels)
    sign = space.field.sign(k)
    blocks = {d - k: complex_.d.block(d).scale(sign) for d in space.degrees()}
    return CochainComplex(new_space, GradedLinearMap(new_space, new_space, 1, blocks))


def dualize(complex_):
    """Linear dual: (#c)^i = (c^(-i))^*, with the pairing sign rule."""
    space = complex_.space
    field = space.field
    w = DegreeWindow(-space.window.hi, -space.window.lo)
    dims = {-d: n for d, n in space.dims.items()}
    labels = {-d: ["#" + lab for lab in space.labels[d]] for d in space.dims}
    new_space = GradedVectorSpace(field, w, dims, labels)
    blocks = {}
    for j in new_space.degrees():
        # delta: (#c)^j -> (#c)^(j+1) is -(-1)^(j+1) (d: c^(-j-1) -> c^(-j))^T
        d_block = complex_.d.block(-j - 1)
        if d_block.nrows and d_block.ncols:
            blocks[j] = d_block.transpose().scale(-field.sign(j + 1))
    return CochainComplex(new_space, GradedLinearMap(new_space, new_space, 1, blocks))


@dataclass
class ConeSplit:
    """Mapping cone Y + sX with the canonical inclusion and projection."""

    complex: CochainComplex
    inclusion: GradedLinearMap      # Y -> cone
    projection: GradedLinearMap     # cone -> sX
    y_space: GradedVectorSpace
    sx_complex: CochainComplex

    def y_dim(self, d):
        return self.y_space.dim(d)


def mapping_cone(f, source, target):
    """Cone of a chain map f: X -> Y; d(y, sx) = (d y + f(x), -s(d x))."""
    if f.shift != 0:
        raise GradedError("cone requires a degree-0 map")
    if not is_chain_map(f, source, target):
        raise GradedError("cone requires a chain map")
    field = target.field
    sx = suspend(source, 1)
    y_sp = target.space
    w = DegreeWindow(min(y_sp.window.lo, sx.space.window.lo),
                     max(y_sp.window.hi, sx.space.window.hi))
    dims, labels = {}, {}
    for d in range(w.lo, w.hi + 1):
        n = y_sp.dim(d) + sx.space.dim(d)
        if n:
            dims[d] = n
            labels[d] = list(y_sp.labels.get(d, ())) + list(sx.space.labels.get(d, ()))
    cone_sp = GradedVectorSpace(field, w, dims, labels)
    blocks = {}
    for d in cone_sp.degrees():
        ny, nx = y_sp.dim(d), sx.space.dim(d)
        ny1, nx1 = y_sp.dim(d + 1), sx.space.dim(d + 1)
        rows = []
        dy = target.d.block(d)
        fb = f.block(d + 1)            # X^(d+1) = (sX)^d -> Y^(d+1)
        dsx = sx.d.block(d)            # already carries the -1
        for i in range(ny1):
            rows.append(list(dy.row(i))[:ny] + list(fb.row(i)))
        for i in range(nx1):
            rows.append([field.zero] * ny + list(dsx.row(i)))
        m = Matrix(field, rows) if rows else Matrix.zero(field, 0, ny + nx)
        blocks[d] = m
    cone = CochainComplex(cone_sp, GradedLinearMap(cone_sp, cone_sp, 1, blocks))
    incl_blocks, proj_blocks = {}, {}
    for d in cone_sp.degrees():
        ny, nx = y_sp.dim(d), sx.space.dim(d)
        ib = Matrix.from_rows(field,
                              [[field.one if i == j else field.zero for j in range(ny)]
                               for i in range(ny)] +
                              [[field.zero] * ny for _ in range(nx)])
        pb = Matrix.from_rows(field,
                              [[field.zero] * ny +
                               [field.one if i == j else field.zero for j in range(nx)]
                               for i in range(nx)])
        if ny:
            incl_blocks[d] = ib
        if nx:
            proj_blocks[d] = pb
    incl = GradedLinearMap(y_sp, cone_sp, 0, incl_blocks)
    proj = GradedLinearMap(cone_sp, sx.space, 0, proj_blocks)
    return ConeSplit(cone, incl, proj, y_sp, sx)


def direct_sum(complexes):
    """Direct sum of complexes, summands stacked in order in each degree,
    on the smallest window holding them all.

    Returns (sum, offsets, embed): offsets[(k, d)] is where summand k
    starts in degree d, and embed(k, d, v) includes its vector v.
    """
    field = complexes[0].field
    window = DegreeWindow(min(c.space.window.lo for c in complexes),
                          max(c.space.window.hi for c in complexes))
    dims, labels, offsets = {}, {}, {}
    for k, c in enumerate(complexes):
        for d in c.space.degrees():
            offsets[(k, d)] = dims.get(d, 0)
            dims[d] = dims.get(d, 0) + c.space.dim(d)
            labels.setdefault(d, []).extend(
                "c%d.%s" % (k, lab) for lab in c.space.labels[d])
    space = GradedVectorSpace(field, window, dims, labels)

    def embed(k, d, v):
        out = [field.zero] * space.dim(d)
        off = offsets.get((k, d), 0)
        out[off:off + len(v)] = v
        return tuple(out)

    blocks = {d: Matrix.from_cols(field, [embed(k, d + 1, col)
                                          for k, c in enumerate(complexes)
                                          for col in c.d.block(d).cols()],
                                  space.dim(d + 1))
              for d in space.degrees()}
    return CochainComplex(space, GradedLinearMap(space, space, 1, blocks)), offsets, embed


def rewindow(complex_, lo, hi):
    """Same complex on a different window; rejects if anything is lost."""
    space = complex_.space
    for d in space.degrees():
        if not (lo <= d <= hi):
            raise GradedError("degree %d does not fit the window [%d, %d]"
                              % (d, lo, hi))
    new_space = GradedVectorSpace(space.field, DegreeWindow(lo, hi),
                                  space.dims, space.labels)
    d_map = GradedLinearMap(new_space, new_space, 1, complex_.d.blocks)
    return CochainComplex(new_space, d_map)


def euler_characteristic(space):
    return sum((-1) ** d * n for d, n in space.dims.items())
