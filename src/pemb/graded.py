"""Graded vector spaces, cochain complexes, and the basic functors.

Everything lives on a finite degree window; degrees outside the window
are zero by construction.  Sign conventions:

  suspension      (s^k c)^j = c^(k+j),  d(s^k x) = (-1)^k s^k(d x)
  dual            (#c)^i = (c^(-i))^*,  <x, delta(f)> = -(-1)^|x| <d x, f>
  mapping cone    C(f) = Y + sX,  d(y, sx) = (d y + f(x), -s(d x))
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix


class GradedError(ValueError):
    pass


class InternalError(RuntimeError):
    """A construction broke what its own argument guarantees: a fault of
    `pemb`, not of the input (exit code 3).  Not a ValueError, so no
    handler of input errors turns it into one."""


@dataclass(frozen=True)
class DegreeWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise GradedError("empty degree window [%d, %d]" % (self.lo, self.hi))

    def contains(self, d):
        return self.lo <= d <= self.hi


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
        m = self.blocks.get(d)
        return m.apply(v) if m is not None else {}

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise GradedError("composition domain mismatch")
        blocks = {}
        for d in other.source.degrees():
            a, b = self.blocks.get(d + other.shift), other.blocks.get(d)
            if a is not None and b is not None:
                blocks[d] = a @ b
        return GradedLinearMap(other.source, self.target, self.shift + other.shift, blocks)

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
    """Graded space with a validated degree +1 differential.  Not changed
    once built, so `cohomology` keeps its result on it."""

    def __init__(self, space, differential):
        if differential.shift != 1:
            raise GradedError("differential must raise degree by 1")
        self.space = space
        self.field = space.field
        self.d = differential
        self._cohomology = None
        # d*d vanishes where d has no stored block in the degree or the next
        blocks = differential.blocks
        for deg in sorted(blocks):
            if deg + 1 in blocks and not (blocks[deg + 1] @ blocks[deg]).is_zero():
                raise GradedError("d*d != 0 at degree %d" % deg)

    @staticmethod
    def zero_differential(space):
        return CochainComplex(space, GradedLinearMap.zero_map(space, space, 1))

    def __repr__(self):
        return "CochainComplex(%s)" % (self.space.dims,)


class CohomologyData:
    """Chosen representatives per degree.

    Representatives are the pivot-rule cocycles: list the nonzero image
    columns first, then the cocycle basis, row-reduce, and keep the
    cocycles landing on pivot columns.  The columns at all pivots are a
    basis of the cocycles that starts with a basis of the image.

    A degree with no stored block out of it has the standard basis as
    its cocycles, with no elimination; with no stored block into it
    either, those are the representatives, and `reduce` returns its
    vector as it is.  The elimination would give the same: the columns
    of I, and E = I.

    The identity rides along in the same elimination: row-reducing
    [columns | I] to [R | E] gives E with E (column at the r-th pivot) =
    e_r, so E v holds the coordinates of a cocycle v in that basis, and
    its entries past the rank vanish exactly when v is in its span.
    """

    def __init__(self, complex_):
        # d, not the complex, which keeps this object: no reference cycle
        self.d = complex_.d
        field = complex_.field
        self.field = field
        self.dims = {}
        self.reps = {}
        self._decomp = {}
        blocks = complex_.d.blocks
        for deg in complex_.space.degrees():
            _, reps, decomp = degree_cohomology(field, complex_.space.dim(deg),
                                                blocks.get(deg), blocks.get(deg - 1))
            self.reps[deg], self._decomp[deg] = reps, decomp
            if reps:
                self.dims[deg] = len(reps)

    def dim(self, deg):
        return self.dims.get(deg, 0)

    def reduce(self, deg, v):
        """Coordinates of the class [v] in the chosen H^deg basis, as a
        vector over range(self.dim(deg)).

        v must be a cocycle of degree deg; raises otherwise.
        """
        if deg not in self._decomp:
            return {}
        if self.d.apply(deg, v):
            raise GradedError("reduce() given a non-cocycle in degree %d" % deg)
        if self._decomp[deg] is None:
            return {}
        e, nb, rank = self._decomp[deg]
        if e is None:
            return dict(v)
        x = e.apply(v)
        if any(i >= rank for i in x):
            raise InternalError("cocycle outside the cocycle span")
        return {i - nb: c for i, c in x.items() if i >= nb}

    def write_coboundary(self, deg, v):
        """Find w with d(w) = v, or None."""
        return self.d.block(deg - 1).solve(v)


def degree_cohomology(field, n, out, into):
    """(cocycles, representatives, decomposition) of one degree of
    dimension n, from the blocks of d out of it and into it (None for a
    block that d does not store): the step `CohomologyData` takes in
    each degree, as its docstring says.  The decomposition is None when
    there are no cocycles, and (None, 0, n) when d is zero on both
    sides."""
    if out is None:
        z = [{i: field.one} for i in range(n)]
    else:
        z = out.kernel_basis()
    if not z:
        return z, [], None
    if out is None and into is None:
        # d = 0 into and out of the degree: every vector is its own class
        return z, list(z), (None, 0, n)
    b = [c for c in into.transpose().rows if c] if into is not None else []
    cols = b + z
    k = len(cols)
    eye = [{i: field.one} for i in range(n)]
    red, pivots = Matrix.sparse(field, cols + eye, n).transpose().rref()
    pivots = [p for p in pivots if p < k]
    nb = sum(1 for p in pivots if p < len(b))
    reps = [z[p - len(b)] for p in pivots[nb:]]
    e = [{c - k: x for c, x in r.items() if c >= k} for r in red.rows]
    return z, reps, (Matrix.sparse(field, e, n), nb, len(pivots))


def cohomology(complex_):
    """The cohomology of a complex, built on the first call and kept on
    the complex for the later ones."""
    coh = complex_._cohomology
    if coh is None:
        coh = complex_._cohomology = CohomologyData(complex_)
    return coh


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
    """The subcomplex above degree t, as degree -> sorted basis indices:
    every basis element above t, and in degree t the pivot columns of d
    out of degree t, which d maps one-to-one onto the boundaries in
    degree t+1."""
    sp = complex_.space
    spans = {}
    # with no block out of degree t, d is zero there and nothing is listed
    m = complex_.d.blocks.get(t)
    if m is not None:
        spans[t] = m.rref()[1]
    for d in sp.degrees():
        if d > t:
            spans[d] = list(range(sp.dim(d)))
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
    blocks = {d - k: m if sign == space.field.one else m.scale(sign)
              for d in space.degrees() if (m := complex_.d.blocks.get(d)) is not None}
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
        d_block = complex_.d.blocks.get(-j - 1)
        if d_block is not None:
            blocks[j] = d_block.transpose().scale(-field.sign(j + 1))
    return CochainComplex(new_space, GradedLinearMap(new_space, new_space, 1, blocks))


@dataclass
class ConeSplit:
    """Mapping cone Y + sX with the canonical inclusion."""

    complex: CochainComplex
    inclusion: GradedLinearMap      # Y -> cone
    y_space: GradedVectorSpace

    def y_dim(self, d):
        return self.y_space.dim(d)


def mapping_cone(f, source, target):
    """Cone of a chain map f: X -> Y; d(y, sx) = (d y + f(x), -s(d x)).

    d^2(y, sx) = (d f(x) - f(d x), 0), so the cone's check of d*d = 0
    refuses, with a GradedError, a map that is not a chain map."""
    if f.shift != 0:
        raise GradedError("cone requires a degree-0 map")
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

    def shifted(row, k):
        return {c + k: x for c, x in row.items()}

    def rows_of(m, n):
        return m.rows if m is not None else [{}] * n

    blocks = {}
    for d in cone_sp.degrees():
        dy = target.d.blocks.get(d)
        fb = f.blocks.get(d + 1)       # X^(d+1) = (sX)^d -> Y^(d+1)
        dsx = sx.d.blocks.get(d)       # already carries the -1
        if dy is None and fb is None and dsx is None:
            continue
        ny, nx = y_sp.dim(d), sx.space.dim(d)
        top = y_sp.dim(d + 1)
        rows = ([{**r, **shifted(s, ny)} for r, s in zip(rows_of(dy, top), rows_of(fb, top))]
                + [shifted(r, ny) for r in rows_of(dsx, sx.space.dim(d + 1))])
        blocks[d] = Matrix.sparse(field, rows, ny + nx)
    cone = CochainComplex(cone_sp, GradedLinearMap(cone_sp, cone_sp, 1, blocks))
    incl_blocks = {}
    for d in cone_sp.degrees():
        ny, nx = y_sp.dim(d), sx.space.dim(d)
        if ny:
            incl_blocks[d] = Matrix.sparse(field, [{i: field.one} for i in range(ny)]
                                           + [{} for _ in range(nx)], ny)
    incl = GradedLinearMap(y_sp, cone_sp, 0, incl_blocks)
    return ConeSplit(cone, incl, y_sp)


def direct_sum(complexes):
    """Direct sum of complexes, summands stacked in order in each degree,
    on the smallest window holding them all.

    Returns (sum, offsets, embed): offsets[(k, d)] is where summand k
    starts in degree d, and embed(k, d, v) includes its vector v by
    shifting the indices.
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
        off = offsets.get((k, d), 0)
        return {i + off: x for i, x in v.items()} if off else v

    blocks = {}
    for d in space.degrees():
        parts = [(k, m) for k, c in enumerate(complexes)
                 if (m := c.d.blocks.get(d)) is not None]
        if not parts:
            continue
        rows = [{} for _ in range(space.dim(d + 1))]
        for k, m in parts:
            for r, row in enumerate(m.rows):
                rows[offsets[(k, d + 1)] + r] = embed(k, d, row)
        blocks[d] = Matrix.sparse(field, rows, space.dim(d))
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
