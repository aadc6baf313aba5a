"""DG modules over a CDGA and the linear-algebra engine built on them.

All module maps are found or certified by solving explicit affine
systems over the ground field: linearity and chain-map conditions become
rows, homotopy and cohomology-class conditions add auxiliary columns.

Free modules A x V are grown one generator at a time.  Within a degree
the basis lists (generator, algebra basis element) pairs in generator
order and a new generator comes last, so adding one appends its slots,
action entries and columns of d, and no index, entry or column written
before changes.  A semifree resolution adds its generators this way and
computes rho at each slot once.  Each round in degree j reads H^j(P)
and rho in degree j alone, from the stored columns of d out of degrees
j - 1 and j and of rho at j; P and H(P) are assembled once, after the
last round.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import check_module, check_module_morphism
from .graded import (CochainComplex, GradedLinearMap, GradedVectorSpace,
                     InternalError, cohomology, degree_cohomology, direct_sum,
                     dualize, mapping_cone, quasi_isomorphism_failure, suspend)
from .linalg import Matrix, axpy, reduced_kernel, scaled, sparse_sum


class ModuleError(ValueError):
    pass


class DgModule:
    """Left DG module over a CDGA, with sparse action constants.

    action maps (alg_deg, alg_idx, mod_deg, mod_idx) to the vector
    {index: nonzero scalar} of a_{alg_deg,alg_idx} . m_{mod_deg,mod_idx}
    in degree alg_deg+mod_deg.  Every key and every index must name a
    basis element, and no vector holds a zero scalar; a zero action, {},
    is not stored.  The constructor takes the table as it is, neither
    copied nor checked; `validate` checks indices, then axioms.
    """

    def __init__(self, algebra, complex_, action):
        self.algebra = algebra
        self.complex = complex_
        self.space = complex_.space
        self.field = algebra.field
        self.action = action
        # (S of the algebra, G) of a passing `check_module`, its proof record
        self.proven_generators = None

    def act_basis(self, da, ia, dm, jm):
        """The stored action on two basis elements (not to be changed),
        or {}."""
        return self.action.get((da, ia, dm, jm), {})

    def act_vec(self, da, av, dm, mv):
        out = {}
        field, table = self.field, self.action
        for ia, c1 in av.items():
            for jm, c2 in mv.items():
                w = table.get((da, ia, dm, jm))
                if w is not None:
                    axpy(field, out, c1 * c2, w)
        return out

    def validate(self):
        witness = check_module(self)
        if witness is not None:
            raise ModuleError(str(witness))

    def __repr__(self):
        return "DgModule(dims=%s)" % (self.space.dims,)


def algebra_as_module(a):
    """`a` acting on itself from the left; the action lists both orders
    of every product, since module actions are one-sided.  A proven `a`
    makes a proven module, with G the basis of A^0: `check_cdga` walked
    the module axioms on S, as the `checks` docstring says."""
    m = DgModule(a, a.complex, a.both_orders)
    s = a.proven_generators
    if s is not None:
        m.proven_generators = s, [(0, i) for i in range(a.space.dim(0))]
    return m


class DgModuleMorphism:
    """Degree-0 linear chain map between modules over one algebra;
    `validate` checks that it is one."""

    def __init__(self, source, target, glm):
        self.source = source
        self.target = target
        self.map = glm

    def apply(self, d, v):
        return self.map.apply(d, v)

    def validate(self):
        witness = check_module_morphism(self)
        if witness is not None:
            raise ModuleError(str(witness))

    def scale(self, c):
        return DgModuleMorphism(self.source, self.target, self.map.scale(c))


def restrict_scalars(m, phi):
    """View a module over the target of phi as a module over its source:
    a.x = phi(a).x, combining the action entries along the columns of phi;
    entries that cancel are dropped.  Only the entries on the elements
    that phi's rows name are read.  Not re-checked: phi is a morphism,
    so the axioms of m carry over."""
    named = {(db, ib) for db, block in phi.map.blocks.items()
             for ib, row in enumerate(block.rows) if row}
    by_element = {}
    for (db, ib, dm, jm), v in m.action.items():
        if (db, ib) in named:
            by_element.setdefault((db, ib), []).append((dm, jm, v))
    action = {}
    for da, block in phi.map.blocks.items():
        for ib, row in enumerate(block.rows):
            for ia, c in row.items():
                for dm, jm, v in by_element.get((da, ib), ()):
                    axpy(m.field, action.setdefault((da, ia, dm, jm), {}), c, v)
    return DgModule(phi.source, m.complex, {k: v for k, v in action.items() if v})


def _stacked_action(space, parts, offsets=None):
    """Action table of modules stacked degreewise in `space`.  Part p is
    (module, k), the k-fold suspension of the module, with
    r.(s^k x) = (-1)^(|r| k) s^k(r.x), starting in degree d at
    offsets[(p, d)] (default 0)."""
    offsets = offsets or {}
    field = space.field
    action = {}
    for p, (m, k) in enumerate(parts):
        for (da, ia, dm, jm), v in m.action.items():
            d = dm - k
            off = offsets.get((p, d + da), 0)
            s = field.sign(da * k)
            w = v if s == field.one else scaled(field, s, v)
            action[(da, ia, d, offsets.get((p, d), 0) + jm)] = (
                {i + off: x for i, x in w.items()} if off else w)
    return action


def suspend_module(m, k):
    """k-fold suspension: r.(s^k x) = (-1)^(|r| k) s^k(r.x).  Not
    re-checked: the sign is multiplicative in r, and both sides of
    Leibniz pick up (-1)^(|r| k + k)."""
    if k == 0:
        return m
    cx = suspend(m.complex, k)
    return DgModule(m.algebra, cx, _stacked_action(cx.space, [(m, k)]))


def dual_module(m):
    """Linear dual with the left action <x, a.f> = +-<x.a, f> converted
    through graded commutativity: (a.f)(x) = (-1)^(|a|(|a|+|f|)) f(a.x).
    The table is m's transposed: each entry a.m_c = sum_b w_b m_b of m
    gives a.(dual of m_b) the coordinate +-w_b at the dual of m_c.
    Not re-checked: the transpose of a module over a graded-commutative
    algebra, with `dualize`'s signs, is one."""
    cx = dualize(m.complex)
    field = m.field
    action = {}
    for (da, ia, dm, c), w in m.action.items():
        j = -(dm + da)
        sgn = field.sign(da * (da + j))
        if sgn != field.one:
            w = scaled(field, sgn, w)
        for b, x in w.items():
            action.setdefault((da, ia, j, b), {})[c] = x
    return DgModule(m.algebra, cx, action)


def shifted_dual(m, n):
    """s^(-n) # M, the module of Poincare-Lefschetz comparisons."""
    return suspend_module(dual_module(m), -n)


def restricted_shifted_dual(phi, n):
    """s^(-n) # Q as a module over R, for phi: R -> Q: Q acting on itself
    is restricted along phi first, and only the restriction is dualized
    and suspended.  Restriction commutes with both, since each rewrites
    an entry a.x through its algebra factor alone, so the table is the
    one that dualizing all of Q and then restricting gives."""
    return shifted_dual(restrict_scalars(algebra_as_module(phi.target), phi), n)


def module_mapping_cone(f):
    """Cone of a module morphism as a module, Y stacked over sX in each
    degree: a.(y, sx) = (a.y, (-1)^|a| s(a.x)).  It is a module exactly
    when f is linear (Leibniz on (a, sx) says f(a.x) = a.f(x)), so the
    reports that rest on it check it, not this function."""
    cone = mapping_cone(f.map, f.source.complex, f.target.complex)
    csp = cone.complex.space
    action = _stacked_action(csp, [(f.target, 0), (f.source, 1)],
                             {(1, d): cone.y_dim(d) for d in csp.degrees()})
    return DgModule(f.target.algebra, cone.complex, action), cone


# -- solvers over the hom complex ----------------------------------------


def _slots(P, N, i):
    out = []
    for d in P.space.degrees():
        for l in range(N.space.dim(d + i)):
            for j in range(P.space.dim(d)):
                out.append((d, l, j))
    return out


def _linearity_rows(P, N, i, slots):
    """Sparse rows of the A-linearity system f(a.m) = (-1)^(i|a|) a.f(m),
    the nonzero ones only."""
    field = P.field
    idx = {s: t for t, s in enumerate(slots)}
    a = P.algebra
    rows = []
    for da in a.space.degrees():
        sgn = field.sign(i * da)
        for ia in range(a.space.dim(da)):
            for dm in P.space.degrees():
                am_deg = da + dm
                out_deg = am_deg + i
                if N.space.dim(out_deg) == 0 and N.space.dim(dm + i) == 0:
                    continue
                # (a . e_l)_t for the basis elements e_l of N^(dm+i), by t
                us = {}
                for l in range(N.space.dim(dm + i)):
                    for t, x in N.act_basis(da, ia, dm + i, l).items():
                        us.setdefault(t, []).append((l, x))
                for jm in range(P.space.dim(dm)):
                    w = P.act_basis(da, ia, dm, jm)
                    if not w and not us:
                        continue
                    for t in range(N.space.dim(out_deg)):
                        terms = [(idx[(am_deg, t, j)], c) for j, c in w.items()
                                 if (am_deg, t, j) in idx]
                        # minus (-1)^(i da) (a . f(m))_t
                        terms += [(idx[(dm, l, jm)], -sgn * x) for l, x in us.get(t, ())
                                  if (dm, l, jm) in idx]
                        row = sparse_sum(field, terms)
                        if row:
                            rows.append(row)
    return rows


def _delta_rows(P, N, i, slots):
    """Sparse rows of delta(f) = d_N f - (-1)^i f d_P over the maps of
    shift i: one per basis element m of P and coordinate t of
    delta(f)(m), in basis order, zero rows included."""
    idx = {s: t for t, s in enumerate(slots)}
    field = P.field
    sgn = field.sign(i)
    rows = []
    for dm in P.space.degrees():
        dn = N.complex.d.blocks.get(dm + i)
        dp = P.complex.d.blocks.get(dm)
        nt, nm = N.space.dim(dm + i + 1), P.space.dim(dm)
        if dn is None and dp is None:
            rows.extend({} for _ in range(nm * nt))
            continue
        dn_rows = dn.rows if dn is not None else [{}] * nt
        dp_cols = dp.transpose().rows if dp is not None else [{}] * nm
        for jm in range(nm):
            for t in range(nt):
                terms = [(idx[(dm, l, jm)], c) for l, c in dn_rows[t].items()]
                terms += [(idx[(dm + 1, t, j)], -sgn * c) for j, c in dp_cols[jm].items()
                          if (dm + 1, t, j) in idx]
                rows.append(sparse_sum(field, terms))
    return rows


def _glm_from_coords(P, N, i, slots, coords):
    """The map of shift i with the coordinates {slot number: scalar};
    numbers past the slots are ignored."""
    rows = {}   # degree -> sparse rows of its block
    for t, c in coords.items():
        if t < len(slots):
            d, l, j = slots[t]
            if d not in rows:
                rows[d] = [{} for _ in range(N.space.dim(d + i))]
            rows[d][l][j] = c
    return GradedLinearMap(P.space, N.space, i,
                           {d: Matrix.sparse(P.field, r, P.space.dim(d))
                            for d, r in rows.items()})


def solve_chain_maps(P, N, constraints=()):
    """All degree-0 A-linear chain maps P -> N subject to cohomology-class
    constraints.

    Each constraint is ("class", deg, cocycle, target_vector), demanding
    [f(cocycle)] = [target_vector] in H^deg(N); it adds auxiliary
    coboundary unknowns.  Returns (particular, kernel) as lists of
    morphisms, or None when inconsistent.
    Linearity and the chain-map rule are rows of the system, so the
    solutions are not re-checked.
    """
    field = P.field
    slots = _slots(P, N, 0)
    idx = {s: t for t, s in enumerate(slots)}
    nf = len(slots)
    aux_cols = 0
    class_constraints = []
    for _, deg, z, w in constraints:
        class_constraints.append((deg, z, w, nf + aux_cols))
        aux_cols += N.space.dim(deg - 1)
    total = nf + aux_cols
    # linearity rows, then chain-map rows: (d_N f - f d_P)(m) = 0
    rows = [row for row in _linearity_rows(P, N, 0, slots) + _delta_rows(P, N, 0, slots)
            if row]
    rhs = {}
    for deg, z, w, off in class_constraints:
        # f(z)_t - d(u)_t = w_t for auxiliary u in N^(deg-1)
        dblock = N.complex.d.blocks.get(deg - 1)
        for t in range(N.space.dim(deg)):
            terms = [(idx[(deg, t, j)], cz) for j, cz in z.items() if (deg, t, j) in idx]
            if dblock is not None:
                terms += [(off + u, -c) for u, c in dblock.rows[t].items()]
            if t in w:
                rhs[len(rows)] = w[t]
            rows.append(sparse_sum(field, terms))

    if not rows:
        part = {}
        kern = [{t: field.one} for t in range(total)]
    else:
        m = Matrix.sparse(field, rows, total)
        part = m.solve(rhs)
        if part is None:
            return None
        kern = m.kernel_basis()
    # coordinates past the nf slots are the auxiliary unknowns
    particular = DgModuleMorphism(P, N, _glm_from_coords(P, N, 0, slots, part))
    kernel = []
    for v in kern:
        glm = _glm_from_coords(P, N, 0, slots, v)
        if not glm.is_zero():
            kernel.append(DgModuleMorphism(P, N, glm))
    return particular, kernel


def homotopy_between(f, g):
    """Degree -1 A-linear h with d h + h d = f - g, or None."""
    P, N = f.source, f.target
    field = P.field
    slots = _slots(P, N, -1)
    rows = _linearity_rows(P, N, -1, slots)
    # the delta rows run over (m, t) with t a coordinate of N^|m|
    k = len(rows)
    rows += _delta_rows(P, N, -1, slots)
    diff = f.map.sub(g.map)
    rhs = {}
    for dm in P.space.degrees():
        cols = diff.block(dm).transpose().rows
        for jm in range(P.space.dim(dm)):
            rhs.update((k + t, x) for t, x in cols[jm].items())
            k += N.space.dim(dm)
    if not rows:
        return GradedLinearMap.zero_map(P.space, N.space, -1)
    sol = Matrix.sparse(field, rows, len(slots)).solve(rhs)
    if sol is None:
        return None
    return _glm_from_coords(P, N, -1, slots, sol)


# -- free and semifree modules ------------------------------------------


@dataclass
class FreeGenerator:
    label: str
    degree: int


class _FreeBuilder:
    """A free module A x V grown one generator at a time, as the module
    docstring says: `add` appends, `assemble` builds the module on the
    generators so far from what is stored.  Not re-checked:
    a.(b x g) = (ab) x g inherits the algebra's axioms, d is defined by
    Leibniz, and `CochainComplex` checks d*d = 0."""

    def __init__(self, algebra, window):
        self.algebra = algebra
        self.window = window
        self.gens = []
        self.index = {}     # (g, e, ia) -> (deg, pos)
        self.slots = {}     # (deg, pos) -> (g, e, ia)
        self.dims, self.labels = {}, {}
        self.action = {}
        self.d_cols = {}    # deg -> columns of d out of deg, by pos
        # the products a.b by the right factor b
        self.by_right = {}
        for (da, ia, e, ib), v in algebra.both_orders.items():
            self.by_right.setdefault((e, ib), []).append((da, ia, v))

    def add(self, gen, dval=None):
        """Append a generator with d(gen) = dval, a vector on the
        generators before it; returns its slots (deg, e, ia) in order."""
        a, index, hi = self.algebra, self.index, self.window.hi
        field = a.field
        gi = len(self.gens)
        self.gens.append(gen)
        new = [(e + gen.degree, e, ia) for e in a.space.degrees()
               if self.window.contains(e + gen.degree) for ia in range(a.space.dim(e))]
        for d, e, ia in new:
            pos = self.dims.get(d, 0)
            self.dims[d] = pos + 1
            index[(gi, e, ia)] = (d, pos)
            self.slots[(d, pos)] = (gi, e, ia)
            lab = a.space.label(e, ia)
            self.labels.setdefault(d, []).append(
                gen.label if e == 0 and lab == "1" else "%s*%s" % (lab, gen.label))
        for d, e, ib in new:
            jm = index[(gi, e, ib)][1]
            # a . (b x g) = (a b) x g, over the nonzero products in both orders
            for da, ia, v in self.by_right.get((e, ib), ()):
                if da + d <= hi:
                    self.action[(da, ia, d, jm)] = {index[(gi, da + e, ic)][1]: c
                                                    for ic, c in v.items()}
            if d + 1 > hi:
                continue
            # d(a x g) = d(a) x g + (-1)^|a| a . d(g), with a . d(g) read off
            # the entries of the generators before g (a missing one is zero)
            out = {index[(gi, e + 1, ic)][1]: c
                   for ic, c in a.d_vec(e, a.basis_vec(e, ib)).items()
                   if (gi, e + 1, ic) in index}
            for jt, c in (dval or {}).items():
                axpy(field, out, field.sign(e) * c,
                     self.action.get((e, ib, gen.degree + 1, jt), {}))
            self.d_cols.setdefault(d, []).append(out)
        return new

    def d_block(self, d):
        """The block of d out of degree d on the generators so far, as
        `assemble` stores it: None where it is zero."""
        m = Matrix.from_cols(self.algebra.field, self.d_cols.get(d, ()),
                             self.dims.get(d + 1, 0))
        return None if m.is_zero() else m

    def assemble(self):
        """(module, basis index table) on the generators so far; the module
        holds a copy of the action table, which later `add` calls grow."""
        space = GradedVectorSpace(self.algebra.field, self.window, self.dims, self.labels)
        blocks = {d: m for d in self.d_cols if (m := self.d_block(d)) is not None}
        cx = CochainComplex(space, GradedLinearMap(space, space, 1, blocks))
        return DgModule(self.algebra, cx, dict(self.action)), self.index


@dataclass
class SemifreeModule:
    module: DgModule
    generators: list
    rho: DgModuleMorphism
    index: dict


# rounds of generators added in one degree before a resolution gives up,
# and the most generators it adds in one degree.  Where each kernel
# generator u adds a.u, b.u as new cocycles (a point in a torus), the
# kernel doubles each round, which the round bound alone lets run to
# about 2^30 generators.  The shipped examples, the benchmark ladders
# and 800 random problem files add at most 16 in one degree.
MAX_ROUNDS = 30
MAX_DEGREE_GENERATORS = 1000


def semifree_resolution(m, window=None):
    """Minimal semifree quasi-isomorphism rho: (A x V, d) -> m, built
    degreewise.

    Generators are added in degree order: first cokernel generators
    (d = 0) hitting missed classes, then kernel-killing generators one
    degree below.  Minimality, no d(g) with a term 1 x g', is checked on
    the result, and a differential that breaks it raises.  A degree that
    takes more than MAX_ROUNDS rounds, or adds more than
    MAX_DEGREE_GENERATORS generators, raises.  The window bounds the
    resolution itself and defaults to the target's.  rho is
    checked, and is a quasi-isomorphism: that test reads rho on cocycles
    only, and would pass a wrong rho(u) for a u that kills a class.
    """
    a = m.algebra
    if not a.is_connected():
        raise ModuleError("semifree resolution needs a connected algebra")
    field = m.field
    if window is None:
        window = m.space.window
    fb = _FreeBuilder(a, window)
    gens = fb.gens
    dvals = {}
    rho_cols = {}   # degree -> rho's columns, by slot

    def add(gen, rho_val, dval=None):
        """Append a generator; rho at its slot a x gen is a . rho(gen)."""
        if dval is not None:
            dvals[len(gens)] = dval
        for d, e, ib in fb.add(gen, dval):
            rho_cols.setdefault(d, []).append(
                m.act_vec(e, a.basis_vec(e, ib), gen.degree, rho_val))

    coh_m = cohomology(m.complex)
    for j in range(window.lo, window.hi + 1):
        first = len(gens)
        for round_ in range(MAX_ROUNDS + 1):
            if round_ == MAX_ROUNDS or len(gens) - first > MAX_DEGREE_GENERATORS:
                raise ModuleError("semifree resolution did not stabilize in degree %d" % j)
            if not fb.dims.get(j) and not coh_m.dim(j):
                break   # P^j = 0 and H^j(m) = 0: nothing to read or to hit
            # H^j(P) and rho at j on the generators so far, from the
            # blocks of d out of degree j and into it
            _, reps, _ = degree_cohomology(field, fb.dims.get(j, 0), fb.d_block(j),
                                           fb.d_block(j - 1))
            rho = Matrix.from_cols(field, rho_cols.get(j, ()), m.space.dim(j))
            # induced map on H^j
            img_cols = [coh_m.reduce(j, rho.apply(z)) for z in reps]
            n_img, hm_dim = len(img_cols), coh_m.dim(j)
            if not n_img and not hm_dim:
                break
            # one elimination per round, of (image columns | I).  Cokernel:
            # the classes e_t of H^j(m) outside the span of the image
            # columns and of the e_s before them, its pivots past the image
            eye = [{t: field.one} for t in range(hm_dim)]
            red, pivots = Matrix.from_cols(field, img_cols + eye, hm_dim).rref()
            missing = [p - n_img for p in pivots if p >= n_img]
            if missing:
                for t in missing:
                    gi = len(gens)
                    add(FreeGenerator("v%d_%d" % (j, gi), j), coh_m.reps[j][t])
                continue
            # kernel of the induced map, from the first n_img columns of red
            kern = reduced_kernel(red, pivots, n_img)
            if not kern:
                break
            for v in kern:
                z = {}
                for t, c in v.items():
                    axpy(field, z, c, reps[t])
                w = coh_m.write_coboundary(j, rho.apply(z))
                if w is None:
                    raise InternalError("resolution: class not exact")
                gi = len(gens)
                add(FreeGenerator("u%d_%d" % (j, gi), j - 1), w, z)

    P, _ = fb.assemble()
    rho_glm = GradedLinearMap(P.space, m.space, 0,
                              {d: Matrix.from_cols(field, cols, m.space.dim(d))
                               for d, cols in rho_cols.items()})
    coh_P = cohomology(P.complex)
    rho = DgModuleMorphism(P, m, rho_glm)
    rho.validate()
    bad = quasi_isomorphism_failure(rho_glm, coh_P, coh_m)
    if bad is not None:
        raise ModuleError("resolution is not a quasi-isomorphism (degree %d)" % bad)
    # minimal: no d(g) has a term 1 x g' (the algebra element of degree 0)
    if any(fb.slots[(gens[gi].degree + 1, jm)][1] == 0
           for gi, z in dvals.items() for jm in z):
        raise ModuleError("resolution recipe produced a non-minimal differential")
    return SemifreeModule(P, gens, rho, fb.index)


def direct_sum_modules(parts):
    """Direct sum of modules over one algebra, not re-checked: the axioms
    hold summand by summand."""
    if not parts:
        raise ModuleError("empty direct sum")
    cx, offset, _ = direct_sum([p.complex for p in parts])
    action = _stacked_action(cx.space, [(p, 0) for p in parts], offset)
    return DgModule(parts[0].algebra, cx, action), offset
