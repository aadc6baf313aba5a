"""DG modules over a CDGA and the linear-algebra engine built on them.

All module maps are found or certified by solving explicit affine
systems over the ground field: linearity and chain-map conditions become
rows, homotopy and cohomology-class conditions add auxiliary columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import projected_table, quotient_complex
from .checks import (check_module, check_module_morphism, escape_degree,
                     left_multiples)
from .graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                     GradedVectorSpace, cohomology, direct_sum, dualize,
                     mapping_cone, quasi_isomorphism_failure, suspend,
                     truncation_spans)
from .linalg import Matrix, add_vec, is_zero_vec, scale_vec, unit_vec, zero_vec


class ModuleError(ValueError):
    pass


class DgModule:
    """Left DG module over a CDGA, with sparse action constants.

    action maps (alg_deg, alg_idx, mod_deg, mod_idx) to the vector of
    a_{alg_deg,alg_idx} . m_{mod_deg,mod_idx} in degree alg_deg+mod_deg.
    """

    def __init__(self, algebra, complex_, action, validate=True):
        self.algebra = algebra
        self.complex = complex_
        self.space = complex_.space
        self.field = algebra.field
        self.action = {}
        for (da, ia, dm, jm), v in action.items():
            v = tuple(v)
            if len(v) != self.space.dim(da + dm):
                raise ModuleError("action (%d,%d) on (%d,%d) has wrong length"
                                  % (da, ia, dm, jm))
            if not is_zero_vec(v):
                self.action[(da, ia, dm, jm)] = v
        if validate:
            self.validate()

    def act_basis(self, da, ia, dm, jm):
        d = da + dm
        n = self.space.dim(d)
        if n == 0:
            return ()
        return self.action.get((da, ia, dm, jm), zero_vec(self.field, n))

    def act_vec(self, da, av, dm, mv):
        out = zero_vec(self.field, self.space.dim(da + dm))
        for ia, c1 in enumerate(av):
            if c1 == 0:
                continue
            for jm, c2 in enumerate(mv):
                if c2 == 0:
                    continue
                out = add_vec(out, scale_vec(c1 * c2, self.act_basis(da, ia, dm, jm)))
        return out

    def basis_vec(self, d, i):
        return unit_vec(self.field, self.space.dim(d), i)

    def d_vec(self, d, v):
        return self.complex.d.apply(d, v)

    def validate(self):
        witness = check_module(self)
        if witness is not None:
            raise ModuleError(str(witness))

    def __repr__(self):
        return "DgModule(dims=%s)" % (self.space.dims,)


def algebra_as_module(a):
    """`a` acting on itself from the left; the action lists both orders
    of every product, since module actions are one-sided."""
    action = dict(a.product)
    for (d1, i1, d2, i2), v in a.product.items():
        action.setdefault((d2, i2, d1, i1), scale_vec(a.field.sign(d1 * d2), v))
    return DgModule(a, a.complex, action, validate=False)


class DgModuleMorphism:
    """Degree-0 linear chain map between modules over one algebra."""

    def __init__(self, source, target, glm, validate=True):
        self.source = source
        self.target = target
        self.map = glm
        if validate:
            self.validate()

    def apply(self, d, v):
        return self.map.apply(d, v)

    def validate(self):
        witness = check_module_morphism(self)
        if witness is not None:
            raise ModuleError(str(witness))

    def compose(self, other):
        return DgModuleMorphism(other.source, self.target,
                                self.map.compose(other.map), validate=False)

    def scale(self, c):
        return DgModuleMorphism(self.source, self.target, self.map.scale(c),
                                validate=False)


def restrict_scalars(m, phi):
    """View a module over the target of phi as a module over its source."""
    a = phi.source
    action = {}
    sp = m.space
    for da in a.space.degrees():
        for ia in range(a.space.dim(da)):
            img = phi.apply(da, a.basis_vec(da, ia))
            if is_zero_vec(img):
                continue
            for dm in sp.degrees():
                if da + dm > sp.window.hi or sp.dim(da + dm) == 0:
                    continue
                for jm in range(sp.dim(dm)):
                    v = m.act_vec(da, img, dm, m.basis_vec(dm, jm))
                    if not is_zero_vec(v):
                        action[(da, ia, dm, jm)] = v
    return DgModule(a, m.complex, action)


def suspend_module(m, k):
    """k-fold suspension: r.(s^k x) = (-1)^(|r| k) s^k(r.x)."""
    if k == 0:
        return m
    cx = suspend(m.complex, k)
    action = {}
    for (da, ia, dm, jm), v in m.action.items():
        sgn = m.field.sign(da * k)
        action[(da, ia, dm - k, jm)] = scale_vec(sgn, v)
    return DgModule(m.algebra, cx, action)


def dual_module(m):
    """Linear dual with the left action <x, a.f> = +-<x.a, f> converted
    through graded commutativity: (a.f)(x) = (-1)^(|a|(|a|+|f|)) f(a.x)."""
    cx = dualize(m.complex)
    sp = m.space
    field = m.field
    a = m.algebra
    action = {}
    for da in a.space.degrees():
        for ia in range(a.space.dim(da)):
            av = a.basis_vec(da, ia)
            for j in cx.space.degrees():
                # a . (dual of M^(-j)) lands in duals of M^(-j-da)
                src_deg = -j
                out_deg = -j - da
                if cx.space.dim(j + da) == 0 or sp.dim(src_deg) == 0:
                    continue
                sgn = field.sign(da * (da + j))
                for b in range(sp.dim(src_deg)):
                    out = [field.zero] * sp.dim(out_deg)
                    for c in range(sp.dim(out_deg)):
                        w = m.act_vec(da, av, out_deg, m.basis_vec(out_deg, c))
                        out[c] = sgn * w[b]
                    if not is_zero_vec(tuple(out)):
                        action[(da, ia, j, b)] = tuple(out)
    return DgModule(a, cx, action)


def shifted_dual(m, n):
    """s^(-n) # M, the module of Poincare-Lefschetz comparisons."""
    return suspend_module(dual_module(m), -n)


def module_mapping_cone(f):
    """Cone of a module morphism as a module: a.(y, sx) = (a.y, (-1)^|a| s(a.x))."""
    cone = mapping_cone(f.map, f.source.complex, f.target.complex)
    X, Y = f.source, f.target
    a = Y.algebra
    field = Y.field
    csp = cone.complex.space
    action = {}
    for da in a.space.degrees():
        sgn = field.sign(da)
        for ia in range(a.space.dim(da)):
            av = a.basis_vec(da, ia)
            for dm in csp.degrees():
                t = da + dm
                if csp.dim(t) == 0:
                    continue
                ny, ny_t = cone.y_dim(dm), cone.y_dim(t)
                nx = csp.dim(dm) - ny
                for jm in range(csp.dim(dm)):
                    out = [field.zero] * csp.dim(t)
                    if jm < ny:
                        w = Y.act_vec(da, av, dm, Y.basis_vec(dm, jm))
                        for c, val in enumerate(w):
                            out[c] = val
                    else:
                        w = X.act_vec(da, av, dm + 1,
                                      X.basis_vec(dm + 1, jm - ny))
                        for c, val in enumerate(w):
                            out[ny_t + c] = sgn * val
                    if not is_zero_vec(tuple(out)):
                        action[(da, ia, dm, jm)] = tuple(out)
    module = DgModule(a, cone.complex, action)
    return module, cone


# -- hom complexes and solvers ------------------------------------------


def _slots(P, N, i):
    out = []
    for d in P.space.degrees():
        for l in range(N.space.dim(d + i)):
            for j in range(P.space.dim(d)):
                out.append((d, l, j))
    return out


def _linearity_rows(P, N, i, slots):
    """Rows of the A-linearity system f(a.m) = (-1)^(i|a|) a.f(m)."""
    field = P.field
    idx = {s: t for t, s in enumerate(slots)}
    a = P.algebra
    rows = []
    for da in a.space.degrees():
        sgn = field.sign(i * da)
        for ia in range(a.space.dim(da)):
            av = a.basis_vec(da, ia)
            for dm in P.space.degrees():
                am_deg = da + dm
                out_deg = am_deg + i
                if N.space.dim(out_deg) == 0 and N.space.dim(dm + i) == 0:
                    continue
                for jm in range(P.space.dim(dm)):
                    w = P.act_vec(da, av, dm, P.basis_vec(dm, jm))
                    for t in range(N.space.dim(out_deg)):
                        row = [field.zero] * len(slots)
                        for j, c in enumerate(w):
                            if c != 0 and (am_deg, t, j) in idx:
                                row[idx[(am_deg, t, j)]] = row[idx[(am_deg, t, j)]] + c
                        # minus (-1)^(i da) (a . f(m))_t
                        for l in range(N.space.dim(dm + i)):
                            u = N.act_vec(da, av, dm + i, N.basis_vec(dm + i, l))
                            c = u[t]
                            if c != 0 and (dm, l, jm) in idx:
                                row[idx[(dm, l, jm)]] = row[idx[(dm, l, jm)]] - sgn * c
                        if any(x != 0 for x in row):
                            rows.append(row)
    return rows


def _glm_from_coords(P, N, i, slots, coords):
    field = P.field
    blocks = {}
    for d in P.space.degrees():
        nr, nc = N.space.dim(d + i), P.space.dim(d)
        if nr and nc:
            blocks[d] = Matrix.zero(field, nr, nc)
    entries = {}
    for (d, l, j), c in zip(slots, coords):
        if c != 0:
            entries.setdefault(d, {})[(l, j)] = c
    for d, es in entries.items():
        nr, nc = N.space.dim(d + i), P.space.dim(d)
        rows = [[es.get((l, j), field.zero) for j in range(nc)] for l in range(nr)]
        blocks[d] = Matrix(field, rows, ncols=nc)
    return GradedLinearMap(P.space, N.space, i, blocks)


def _coords_from_glm(slots, glm):
    return tuple(glm.block(d)[l, j] for (d, l, j) in slots)


class HomComplex:
    """hom^*_A(P, N) with basis maps per degree and the differential
    delta(f) = d f - (-1)^|f| f d, realized as an abstract complex."""

    def __init__(self, P, N):
        self.P = P
        self.N = N
        field = P.field
        lo = N.space.window.lo - P.space.window.hi
        hi = N.space.window.hi - P.space.window.lo
        self.window = DegreeWindow(lo, hi + 1)
        self.basis = {}
        self.slots = {}
        for i in range(lo, hi + 1):
            slots = _slots(P, N, i)
            self.slots[i] = slots
            if not slots:
                self.basis[i] = []
                continue
            rows = _linearity_rows(P, N, i, slots)
            if rows:
                kern = Matrix.from_rows(field, rows).kernel_basis()
            else:
                kern = [unit_vec(field, len(slots), t) for t in range(len(slots))]
            self.basis[i] = [_glm_from_coords(P, N, i, slots, v) for v in kern]
        dims = {i: len(b) for i, b in self.basis.items() if b}
        space = GradedVectorSpace(field, self.window, dims,
                                  {i: ["f%d_%d" % (i, t) for t in range(n)]
                                   for i, n in dims.items()})
        blocks = {}
        for i in sorted(dims):
            cols = []
            for F in self.basis[i]:
                G = self._delta(F, i)
                cols.append(self.express(i + 1, G))
            blocks[i] = Matrix.from_cols(field, cols, space.dim(i + 1))
        self.complex = CochainComplex(space, GradedLinearMap(space, space, 1, blocks))

    def _delta(self, F, i):
        dn = self.N.complex.d
        dp = self.P.complex.d
        sgn = self.P.field.sign(i)
        left = GradedLinearMap(self.P.space, self.N.space, i + 1,
                               {d: dn.block(d + i) @ F.block(d)
                                for d in self.P.space.degrees()})
        right = GradedLinearMap(self.P.space, self.N.space, i + 1,
                                {d: (F.block(d + 1) @ dp.block(d)).scale(sgn)
                                 for d in self.P.space.degrees()})
        return left.sub(right)

    def express(self, i, G):
        """Coordinates of an A-linear map G of shift i in the hom basis."""
        field = self.P.field
        basis = self.basis.get(i, [])
        if not basis:
            if not G.is_zero():
                raise ModuleError("map does not lie in the hom complex (degree %d)" % i)
            return ()
        slots = self.slots[i]
        m = Matrix.from_cols(field, [_coords_from_glm(slots, F) for F in basis],
                             len(slots))
        x = m.solve(_coords_from_glm(slots, G))
        if x is None:
            raise ModuleError("map does not lie in the hom complex (degree %d)" % i)
        return x

    def element(self, i, coords):
        out = GradedLinearMap.zero_map(self.P.space, self.N.space, i)
        for F, c in zip(self.basis[i], coords):
            if c != 0:
                out = out.add(F.scale(c))
        return out


def hom_complex(P, N):
    return HomComplex(P, N)


@dataclass
class HomotopyClassSpace:
    P: object
    N: object
    dimension: int
    representatives: list
    chain_level_only: bool


def homotopy_classes(P, N, semifree=True):
    """H^0 of the hom complex; labeled chain-level only when the source
    is not known to be semifree."""
    hc = hom_complex(P, N)
    coh = cohomology(hc.complex)
    reps = []
    for z in coh.reps.get(0, []):
        glm = hc.element(0, z)
        reps.append(DgModuleMorphism(P, N, glm))
    return HomotopyClassSpace(P, N, coh.dim(0), reps, not semifree)


def solve_chain_maps(P, N, constraints=()):
    """All degree-0 A-linear chain maps P -> N subject to extra affine
    constraints.

    Each constraint is either ("affine", row_dict, rhs) with row_dict
    mapping slots (deg, target_idx, source_idx) to coefficients, or
    ("class", deg, cocycle, target_vector) demanding [f(cocycle)] =
    [target_vector] in H^deg(N); the latter adds auxiliary coboundary
    unknowns.  Returns (particular, kernel) as lists of morphisms, or
    None when inconsistent.
    """
    field = P.field
    slots = _slots(P, N, 0)
    idx = {s: t for t, s in enumerate(slots)}
    nf = len(slots)
    aux_cols = 0
    class_constraints = []
    for c in constraints:
        if c[0] == "class":
            _, deg, z, w = c
            class_constraints.append((deg, z, w, nf + aux_cols))
            aux_cols += N.space.dim(deg - 1)
    total = nf + aux_cols
    rows, rhs = [], []

    def pad(row):
        return row + [field.zero] * (total - len(row))

    for row in _linearity_rows(P, N, 0, slots):
        rows.append(pad(row))
        rhs.append(field.zero)
    # chain-map rows: (d_N f - f d_P)(m) = 0
    for dm in P.space.degrees():
        for jm in range(P.space.dim(dm)):
            dpm = P.complex.d.apply(dm, P.basis_vec(dm, jm))
            for t in range(N.space.dim(dm + 1)):
                row = [field.zero] * total
                for l in range(N.space.dim(dm)):
                    c = N.complex.d.block(dm)[t, l]
                    if c != 0:
                        row[idx[(dm, l, jm)]] = row[idx[(dm, l, jm)]] + c
                for j, c in enumerate(dpm):
                    if c != 0 and (dm + 1, t, j) in idx:
                        row[idx[(dm + 1, t, j)]] = row[idx[(dm + 1, t, j)]] - c
                if any(x != 0 for x in row):
                    rows.append(row)
                    rhs.append(field.zero)
    for c in constraints:
        if c[0] == "affine":
            _, rd, b = c
            row = [field.zero] * total
            for s, coeff in rd.items():
                row[idx[s]] = coeff
            rows.append(row)
            rhs.append(b)
    for deg, z, w, off in class_constraints:
        # f(z)_t - d(u)_t = w_t for auxiliary u in N^(deg-1)
        nprev = N.space.dim(deg - 1)
        dblock = N.complex.d.block(deg - 1)
        for t in range(N.space.dim(deg)):
            row = [field.zero] * total
            for j, cz in enumerate(z):
                if cz != 0 and (deg, t, j) in idx:
                    row[idx[(deg, t, j)]] = row[idx[(deg, t, j)]] + cz
            for u in range(nprev):
                c = dblock[t, u]
                if c != 0:
                    row[off + u] = row[off + u] - c
            rows.append(row)
            rhs.append(w[t])

    if not rows:
        part = zero_vec(field, total)
        kern = [unit_vec(field, total, t) for t in range(total)]
    else:
        m = Matrix.from_rows(field, rows)
        part = m.solve(tuple(rhs))
        if part is None:
            return None
        kern = m.kernel_basis()
    particular = DgModuleMorphism(P, N, _glm_from_coords(P, N, 0, slots, part[:nf]))
    kernel = []
    for v in kern:
        glm = _glm_from_coords(P, N, 0, slots, v[:nf])
        if not glm.is_zero():
            kernel.append(DgModuleMorphism(P, N, glm, validate=False))
    return particular, kernel


def homotopy_between(f, g):
    """Degree -1 A-linear h with d h + h d = f - g, or None."""
    P, N = f.source, f.target
    field = P.field
    slots = _slots(P, N, -1)
    idx = {s: t for t, s in enumerate(slots)}
    rows, rhs = [], []
    for row in _linearity_rows(P, N, -1, slots):
        rows.append(row)
        rhs.append(field.zero)
    diff = f.map.sub(g.map)
    for dm in P.space.degrees():
        for jm in range(P.space.dim(dm)):
            dpm = P.complex.d.apply(dm, P.basis_vec(dm, jm))
            target_vec = diff.apply(dm, P.basis_vec(dm, jm))
            for t in range(N.space.dim(dm)):
                row = [field.zero] * len(slots)
                for l in range(N.space.dim(dm - 1)):
                    c = N.complex.d.block(dm - 1)[t, l]
                    if c != 0:
                        row[idx[(dm, l, jm)]] = row[idx[(dm, l, jm)]] + c
                for j, c in enumerate(dpm):
                    if c != 0 and (dm + 1, t, j) in idx:
                        row[idx[(dm + 1, t, j)]] = row[idx[(dm + 1, t, j)]] + c
                rows.append(row)
                rhs.append(target_vec[t])
    if not rows:
        return GradedLinearMap.zero_map(P.space, N.space, -1)
    sol = Matrix.from_rows(field, rows).solve(tuple(rhs))
    if sol is None:
        return None
    return _glm_from_coords(P, N, -1, slots, sol)


# -- free and semifree modules ------------------------------------------


@dataclass
class FreeGenerator:
    label: str
    degree: int
    stage: int


def free_module(algebra, gens, dvals=None, window=None):
    """Free module on generators, with an optional differential given by
    vectors dvals[g] (in module coordinates, degree deg(g)+1).

    Basis per degree: (generator, algebra basis element) pairs in
    generator order.  Returns (module, basis index table)."""
    a = algebra
    field = a.field
    if window is None:
        window = a.space.window
    index = {}      # (g, da, ia) -> (deg, pos)
    slots = {}      # (deg, pos) -> (g, da, ia)
    dims, labels = {}, {}
    for d in range(window.lo, window.hi + 1):
        pos = 0
        labs = []
        for gi, g in enumerate(gens):
            e = d - g.degree
            for ia in range(a.space.dim(e)):
                index[(gi, e, ia)] = (d, pos)
                slots[(d, pos)] = (gi, e, ia)
                lab = g.label if e == 0 and a.space.label(e, ia) == "1" \
                    else "%s*%s" % (a.space.label(e, ia), g.label)
                labs.append(lab)
                pos += 1
        if pos:
            dims[d] = pos
            labels[d] = labs
    space = GradedVectorSpace(field, window, dims, labels)

    def act_on_basis(da, ia, dm, jm):
        out = [field.zero] * space.dim(da + dm)
        gi, e, ib = slots[(dm, jm)]
        prod = a.mul_vec(da, a.basis_vec(da, ia), e, a.basis_vec(e, ib))
        for ic, c in enumerate(prod):
            if c != 0:
                key = (gi, da + e, ic)
                if key in index:
                    _, p = index[key]
                    out[p] = out[p] + c
        return tuple(out)

    action = {}
    for da in a.space.degrees():
        for dm in dims:
            if da + dm > window.hi or space.dim(da + dm) == 0:
                continue
            for ia in range(a.space.dim(da)):
                for jm in range(dims[dm]):
                    v = act_on_basis(da, ia, dm, jm)
                    if not is_zero_vec(v):
                        action[(da, ia, dm, jm)] = v

    dvals = dvals or {}
    dblocks = {}

    # d(a x g) = d(a) x g + (-1)^|a| a . d(g); compute columns directly
    def d_col(dm, jm):
        gi, e, ib = slots[(dm, jm)]
        out = [field.zero] * space.dim(dm + 1)
        dav = a.d_vec(e, a.basis_vec(e, ib))
        for ic, c in enumerate(dav):
            if c != 0:
                key = (gi, e + 1, ic)
                if key in index:
                    _, p = index[key]
                    out[p] = out[p] + c
        dg = dvals.get(gi)
        if dg is not None:
            # a . dg with the action above
            sgn = field.sign(e)
            gdeg = gens[gi].degree
            for jt, c in enumerate(dg):
                if c == 0:
                    continue
                w = act_on_basis_vec(e, ib, gdeg + 1, jt)
                for p, cc in enumerate(w):
                    out[p] = out[p] + sgn * c * cc
        return tuple(out)

    def act_on_basis_vec(e, ib, dm, jm):
        key = (e, ib, dm, jm)
        return action.get(key, zero_vec(field, space.dim(e + dm)))

    for dm in sorted(dims):
        if dm + 1 > window.hi:
            continue
        cols = [d_col(dm, jm) for jm in range(dims[dm])]
        dblocks[dm] = Matrix.from_cols(field, cols, space.dim(dm + 1))
    cx = CochainComplex(space, GradedLinearMap(space, space, 1, dblocks))
    module = DgModule(a, cx, action)
    return module, index


@dataclass
class SemifreeModule:
    module: DgModule
    generators: list
    rho: DgModuleMorphism
    minimal: bool
    index: dict


def semifree_resolution(m, minimal=True, max_rounds=30, window=None):
    """Semifree quasi-isomorphism rho: (A x V, d) -> m, built degreewise.

    Generators are added in degree order: first cokernel generators
    (d = 0) hitting missed classes, then kernel-killing generators one
    degree below.  The minimal flag is checked on the result.  The
    window bounds the resolution itself and defaults to the target's.
    """
    a = m.algebra
    if not a.is_connected():
        raise ModuleError("semifree resolution needs a connected algebra")
    field = m.field
    if window is None:
        window = m.space.window
    gens = []
    dvals = {}
    rho_vals = {}

    def build():
        P, index = free_module(a, gens, dvals, window)
        slots = {v: k for k, v in index.items()}
        blocks = {}
        for d in P.space.degrees():
            cols = []
            for jm in range(P.space.dim(d)):
                gi, e, ib = slots[(d, jm)]
                g = gens[gi]
                cols.append(m.act_vec(e, a.basis_vec(e, ib), g.degree,
                                      rho_vals[gi]))
            blocks[d] = Matrix.from_cols(field, cols, m.space.dim(d))
        rho = GradedLinearMap(P.space, m.space, 0, blocks)
        return P, index, slots, rho

    coh_m = cohomology(m.complex)
    for j in range(window.lo, window.hi + 1):
        for round_ in range(max_rounds):
            P, _, _, rho = build()
            coh_P = cohomology(P.complex)
            # induced map on H^j
            img_cols = [coh_m.reduce(j, rho.apply(j, z)) for z in coh_P.reps.get(j, [])]
            hm_dim = coh_m.dim(j)
            hmat = Matrix.from_cols(field, img_cols, hm_dim)
            # cokernel: classes of H^j(m) outside the column span
            missing = []
            for t in range(hm_dim):
                e_t = unit_vec(field, hm_dim, t)
                aug = Matrix.from_cols(field, img_cols + [e_t], hm_dim)
                if aug.rank() != hmat.rank():
                    missing.append(t)
                    img_cols = img_cols + [e_t]
                    hmat = aug
            if missing:
                for t in missing:
                    gi = len(gens)
                    gens.append(FreeGenerator("v%d_%d" % (j, gi), j, gi))
                    rho_vals[gi] = coh_m.reps[j][t]
                continue
            kern = hmat.kernel_basis() if coh_P.dim(j) else []
            if not kern:
                break
            for v in kern:
                z = zero_vec(field, P.space.dim(j))
                for c, rep in zip(v, coh_P.reps[j]):
                    z = add_vec(z, scale_vec(c, rep))
                w = coh_m.write_coboundary(j, rho.apply(j, z))
                if w is None:
                    raise ModuleError("resolution internal error: class not exact")
                gi = len(gens)
                gens.append(FreeGenerator("u%d_%d" % (j, gi), j - 1, gi))
                dvals[gi] = z
                rho_vals[gi] = w
        else:
            raise ModuleError("semifree resolution did not stabilize in degree %d" % j)

    P, index, slots, rho_glm = build()
    rho = DgModuleMorphism(P, m, rho_glm)
    bad = quasi_isomorphism_failure(rho_glm, cohomology(P.complex), coh_m)
    if bad is not None:
        raise ModuleError("resolution is not a quasi-isomorphism (degree %d)" % bad)
    is_minimal = True
    for gi, z in dvals.items():
        deg = gens[gi].degree + 1
        for jm, c in enumerate(z):
            if c != 0 and slots[(deg, jm)][1] == 0:
                is_minimal = False
    if minimal and not is_minimal:
        raise ModuleError("resolution recipe produced a non-minimal differential")
    return SemifreeModule(P, gens, rho, is_minimal, index)


def random_semifree(a, rng, n_gens, max_degree, window=None):
    """Random semifree module: each new generator's differential is a
    random cocycle of the module built so far.  Always valid."""
    gens = []
    dvals = {}
    degrees = sorted(rng.randint(0, max_degree) for _ in range(n_gens))
    for gd in degrees:
        if gens:
            P, _ = free_module(a, gens, dvals, window)
            coh = cohomology(P.complex)
            cands = coh.cocycles.get(gd + 1, [])
        else:
            cands = []
        gi = len(gens)
        gens.append(FreeGenerator("g%d_%d" % (gd, gi), gd, gi))
        if cands and rng.random() < 0.7:
            z = zero_vec(a.field, len(cands[0]))
            for v in cands:
                z = add_vec(z, scale_vec(a.field.of(rng.randint(-2, 2)), v))
            if not is_zero_vec(z):
                dvals[gi] = z
    P, index = free_module(a, gens, dvals, window)
    return P


# -- sub/quotient machinery ---------------------------------------------


@dataclass
class ModuleTruncation:
    spans: dict
    quotient: DgModule
    projection: DgModuleMorphism
    sub_dims: dict
    sub_acyclic: bool


def quotient_module(m, spans):
    """Quotient by a graded subspace after checking it is a subDGmodule."""
    a = m.algebra
    qcx, proj, reducers = quotient_complex(m.complex, spans)
    hi = m.space.window.hi
    bad = escape_degree(spans, reducers, left_multiples(a, m.act_vec, hi))
    if bad is not None:
        raise ModuleError("subspace not action-closed (degree %d)" % bad)
    basis = [(d, i, a.basis_vec(d, i)) for d in a.space.degrees()
             for i in range(a.space.dim(d))]
    q = DgModule(a, qcx, projected_table(basis, reducers, m.act_vec, hi))
    return q, DgModuleMorphism(m, q, proj), reducers


def truncate_module(m, t):
    """Truncation subDGmodule above degree t: everything above t plus a
    complement of the cocycles in degree t; the quotient keeps H^(<=t)."""
    if not m.algebra.is_connected():
        raise ModuleError("truncation needs a connected algebra")
    spans = truncation_spans(m.complex, t)
    q, proj, _ = quotient_module(m, spans)
    # the subcomplex is acyclic exactly when the projection is a quasi-isomorphism
    acyclic = quasi_isomorphism_failure(proj.map, cohomology(m.complex),
                                        cohomology(q.complex)) is None
    return ModuleTruncation(spans, q, proj,
                            {d: len(vs) for d, vs in spans.items() if vs}, acyclic)


def direct_sum_modules(parts):
    """Direct sum of modules over one algebra."""
    if not parts:
        raise ModuleError("empty direct sum")
    cx, offset, embed = direct_sum([p.complex for p in parts])
    action = {}
    for pi, p in enumerate(parts):
        for (da, ia, dm, jm), v in p.action.items():
            action[(da, ia, dm, offset[(pi, dm)] + jm)] = embed(pi, da + dm, v)
    return DgModule(parts[0].algebra, cx, action), offset
