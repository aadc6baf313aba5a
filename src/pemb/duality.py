"""Top-degree maps: existence, scalar uniqueness, Gysin maps, and
duals of algebra morphisms.

A top-degree map is a module morphism psi: D -> R' inducing an
isomorphism on H^n; here both H^n are required to be lines and psi is
normalized so that H^n(psi) = +1 on the chosen generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import GradedLinearMap, cohomology, induced_on_cohomology
from .linalg import Matrix
from .modules import (DgModuleMorphism, ModuleError, algebra_as_module,
                      homotopy_between, restrict_scalars,
                      restricted_shifted_dual, shifted_dual, solve_chain_maps,
                      suspend_module)


class DualityError(ValueError):
    pass


@dataclass
class TopDegreeMap:
    map: DgModuleMorphism
    n: int
    hn: object                     # the 1x1 value of H^n(map)
    source_generator: dict         # chosen cocycle spanning H^n(source)
    target_generator: dict

    def validate(self):
        """Check the map and return its H^n value."""
        self.map.validate()
        coh_s = cohomology(self.map.source.complex)
        coh_t = cohomology(self.map.target.complex)
        if coh_s.dim(self.n) != 1 or coh_t.dim(self.n) != 1:
            raise DualityError("H^%d of source or target is not a line" % self.n)
        val = coh_t.reduce(self.n, self.map.apply(self.n, self.source_generator))
        if not val:
            raise DualityError("H^%d of the map vanishes" % self.n)
        return val[0]


def _line_generator(coh, n, what):
    if coh.dim(n) != 1:
        raise DualityError("%s has H^%d of dimension %d, expected a line"
                           % (what, n, coh.dim(n)))
    return coh.reps[n][0]


def construct_top_degree(D, target, n):
    """psi: D -> target with H^n(psi) carrying the chosen generator of
    H^n(D) to that of H^n(target), found by one affine solve over D as
    it is given.

    Both H^n must be lines.  D is not resolved here: over a semifree D
    the solve finds a top-degree map whenever one exists up to homotopy,
    and the pipelines hand over a semifree resolution (`stable_square`
    its restriction to the ambient, on which no input is known to leave
    the solve without a solution).  A failed solve raises DualityError,
    which the pipelines report as a hypothesis failure."""
    gen_d = _line_generator(cohomology(D.complex), n, "source module")
    gen_t = _line_generator(cohomology(target.complex), n, "target module")
    sol = solve_chain_maps(D, target, [("class", n, gen_d, gen_t)])
    if sol is None:
        raise DualityError("no top-degree map: no linear chain map carries "
                           "H^%d of the source module onto the target's" % n)
    return TopDegreeMap(sol[0], n, D.field.one, gen_d, gen_t)


def verify_scalar_uniqueness(psi, psi2):
    """Two top-degree maps on one model differ by a unit scalar up to
    homotopy: returns (u, h) with a verified h, or fails loudly."""
    if psi.map.source is not psi2.map.source or psi.map.target is not psi2.map.target:
        raise DualityError("scalar comparison needs a common model")
    field = psi.map.source.field
    coh_t = cohomology(psi.map.target.complex)
    v1 = coh_t.reduce(psi.n, psi.map.apply(psi.n, psi.source_generator)).get(0, field.zero)
    v2 = coh_t.reduce(psi.n, psi2.map.apply(psi.n, psi.source_generator)).get(0, field.zero)
    if not v2:
        raise DualityError("second map is not top-degree on this generator")
    u = field.div(v1, v2)
    h = homotopy_between(psi.map, psi2.map.scale(u))
    if h is None:
        raise DualityError("no homotopy between psi and u.psi': scalar "
                           "uniqueness fails on this model")
    # confirm d h + h d really equals the difference
    diff = psi.map.map.sub(psi2.map.map.scale(u))
    src, tgt = psi.map.source, psi.map.target
    for d in src.space.degrees():
        got = tgt.complex.d.block(d - 1) @ h.block(d)
        got = got + h.block(d + 1) @ src.complex.d.block(d)
        if got != diff.block(d):
            raise DualityError("homotopy verification failed in degree %d" % d)
    return u, h


def _top_coefficient(field, fundamental, vec):
    """Coefficient of the fundamental class in a top-degree vector."""
    if not fundamental:
        raise DualityError("degenerate fundamental class")
    i = min(fundamental)
    return field.div(vec[i], fundamental[i]) if i in vec else field.zero


def gysin_map(hf, cert_w, cert_v, k):
    """Umkehr map for f: V -> W at the cohomology level.

    hf models f^*: H(W) -> H(V); both algebras must carry valid duality
    certificates, with k = n_W - n_V.  The result sends s^(-k)H(V) into
    H(W) and is determined by the pairing equations
    <f^!(s^(-k)v).w, [W]> = <v.f^*(w), [V]>.
    """
    hw, hv = hf.source, hf.target
    nw, nv = cert_w.n, cert_v.n
    if nw - nv != k:
        raise DualityError("codimension mismatch: %d - %d != %d" % (nw, nv, k))
    field = hw.field
    blocks = {}
    for j in hw.space.degrees():
        src_dim = hv.space.dim(j - k)
        if src_dim == 0:
            continue
        out_dim = hw.space.dim(j)
        comp_deg = nw - j
        pair_dim = hw.space.dim(comp_deg)
        # rows over the unknown x = f^!(v): <x . w_t, [W]> = rhs_t, the
        # certificate's pairing of H^j(W) with H^(nw-j)(W), transposed
        pairing = cert_w.pairings[j].transpose()
        cols = []
        for s in range(src_dim):
            v = hv.basis_vec(j - k, s)
            rhs = {}
            for t in range(pair_dim):
                w = hw.basis_vec(comp_deg, t)
                prod = hv.mul_vec(j - k, v, comp_deg, hf.apply(comp_deg, w))
                x = _top_coefficient(field, cert_v.fundamental_class, prod)
                if x:
                    rhs[t] = x
            x = pairing.solve(rhs)
            if x is None:
                raise DualityError("pairing system inconsistent in degree %d" % j)
            cols.append(x)
        blocks[j] = Matrix.from_cols(field, cols, out_dim)
    source = suspend_module(restrict_scalars(algebra_as_module(hv), hf), -k)
    target = algebra_as_module(hw)
    glm = GradedLinearMap(source.space, target.space, 0, blocks)
    gen_s = _line_generator(cohomology(source.complex), nw, "shifted source")
    gen_t = _line_generator(cohomology(target.complex), nw, "target algebra")
    out = TopDegreeMap(DgModuleMorphism(source, target, glm), nw, field.one,
                       gen_s, gen_t)
    try:
        out.hn = out.validate()
    except ModuleError as e:
        raise DualityError("umkehr map failed linearity validation: %s" % e)
    return out


def shifted_dual_morphism(phi, n):
    """s^(-n) # phi as a module morphism over the source of phi; the
    degree-j block is the transpose of phi's degree-(n-j) block.  Not
    re-checked: the dual of a multiplicative chain map is a linear one."""
    source = restricted_shifted_dual(phi, n)
    target = shifted_dual(algebra_as_module(phi.source), n)
    glm = GradedLinearMap(source.space, target.space, 0,
                          {j: phi.map.block(n - j).transpose()
                           for j in source.space.degrees()})
    return DgModuleMorphism(source, target, glm)


def dual_morphism_top_degree(phi, n):
    """s^(-n) # phi certified as a top-degree map; phi must induce an
    isomorphism on H^0."""
    r, q = phi.source, phi.target
    coh_r = cohomology(r.complex)
    coh_q = cohomology(q.complex)
    h0 = induced_on_cohomology(phi.map, coh_r, coh_q).get(0)
    if (coh_r.dim(0) != coh_q.dim(0) or h0 is None
            or h0.rank() != coh_r.dim(0)):
        raise DualityError("H^0 of the morphism is not an isomorphism")
    morphism = shifted_dual_morphism(phi, n)
    source, target = morphism.source, morphism.target
    gen_s = _line_generator(cohomology(source.complex), n, "shifted dual of target algebra")
    gen_t = _line_generator(cohomology(target.complex), n, "shifted dual of source algebra")
    out = TopDegreeMap(morphism, n, None, gen_s, gen_t)
    out.hn = out.validate()
    return out
