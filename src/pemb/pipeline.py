"""End-to-end recipes for algebraic models of sphere-like embeddings.

Given a morphism phi: R -> Q modeling the restriction from an ambient
duality algebra to the embedded piece, the pipelines build complement
models, commuting squares, and Lefschetz-duality module structures,
each with machine-checkable certificates.  Hypothesis failures raise
HypothesisError with the violated inequality named; structural input
problems raise PipelineError.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (AlgebraError, Cdga, CdgaMorphism, check_poincare_duality,
                      cohomology_algebra, direct_sum_cdga,
                      quotient_by_acyclic_ideal, quotient_cdga)
from .cones import (ConeError, build_acyclic_truncation, check_shift_bounds,
                    semi_trivial_cone, truncated_cone)
from .duality import (DualityError, construct_top_degree, gysin_map,
                      shifted_dual_morphism)
from .graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                     GradedVectorSpace, cohomology, induced_on_cohomology,
                     quasi_isomorphism_failure)
from .linalg import Matrix, is_zero_vec, unit_vec, zero_vec
from .modules import (DgModule, DgModuleMorphism, algebra_as_module,
                      direct_sum_modules, module_mapping_cone,
                      restrict_scalars, semifree_resolution, shifted_dual,
                      truncate_module)


class PipelineError(ValueError):
    """Structural problem with the input (exit code 2 territory)."""


class HypothesisError(PipelineError):
    """A named theorem hypothesis fails on this input (exit code 1)."""


class EmbeddingProblem:
    """phi (or a family of phi_k out of one shared source) plus the
    ambient dimension n."""

    def __init__(self, branches, n, name=""):
        if not branches:
            raise PipelineError("at least one embedded component required")
        src = branches[0].source
        for b in branches:
            if b.source is not src:
                raise PipelineError("all branches must share the same "
                                    "ambient algebra object")
        self.branches = list(branches)
        self.n = n
        self.name = name
        self.ambient = src
        self.field = src.field
        if len(branches) == 1:
            self.target = branches[0].target
            self.phi = branches[0]
        else:
            self.target = direct_sum_cdga([b.target for b in branches])
            # the summands are stacked in order, so the branch blocks are too
            blocks = {d: Matrix(self.field, [row for b in self.branches
                                             for row in b.map.block(d).entries],
                                ncols=src.space.dim(d))
                      for d in src.space.degrees()}
            glm = GradedLinearMap(src.space, self.target.space, 0, blocks)
            self.phi = CdgaMorphism(src, self.target, glm)

    @property
    def is_menorah(self):
        return len(self.branches) > 1


@dataclass
class AnalysisReport:
    n: int
    m: int
    r: int
    codimension: int
    pd_certificate: object
    pd_failure: object
    unknotting: bool
    unknotting_bound: int
    stable: bool
    stable_plain: bool             # n >= 2m+4
    h1_injective: bool
    codimension_ok: bool
    ambient_connected: bool
    h_ambient_dims: dict
    h_target_dims: dict

    def lines(self):
        out = []
        out.append("ambient dimension n = %d" % self.n)
        out.append("top cohomology of embedded piece m = %d" % self.m)
        out.append("connectivity r = %d" % self.r)
        out.append("codimension n - m = %d : %s"
                   % (self.codimension, "PASS" if self.codimension_ok
                      else "FAIL (codimension >= 2 required)"))
        if self.pd_failure is not None:
            out.append("duality certificate: FAIL (%s)" % self.pd_failure)
        else:
            out.append("duality certificate: PASS (dimension %d)" % self.n)
        tag = "PASS" if self.unknotting else "FAIL"
        if self.unknotting and self.r == self.unknotting_bound:
            tag = "PASS (equality)"
        out.append("unknotting: r=%d >= 2m-n+2=%d : %s"
                   % (self.r, self.unknotting_bound, tag))
        out.append("stable range n >= 2m+4: %s"
                   % ("PASS" if self.stable_plain else "FAIL"))
        out.append("stable range n >= 2m+3 with injective H^1: %s"
                   % ("PASS" if self.stable else "FAIL"))
        return out


def _top_nonzero(dims):
    keys = [d for d, v in dims.items() if v and d > 0]
    return max(keys) if keys else 0


def analyze(problem):
    phi = problem.phi
    n = problem.n
    r_alg, q_alg = phi.source, phi.target
    halg_r, coh_r = cohomology_algebra(r_alg)
    coh_q = cohomology(q_alg.complex)
    cert, fail = check_poincare_duality(r_alg, n, halg_r, coh_r)
    m = _top_nonzero(coh_q.dims)
    blocks = induced_on_cohomology(phi.map, coh_r, coh_q)
    degs = sorted(set(coh_r.dims) | set(coh_q.dims) | {0})
    hi = max(degs) if degs else 0
    r = None
    for i in range(0, hi + 2):
        b = blocks.get(i, Matrix.zero(problem.field, coh_q.dim(i), coh_r.dim(i)))
        iso = (coh_r.dim(i) == coh_q.dim(i) and b.rank() == coh_r.dim(i))
        injective = b.rank() == coh_r.dim(i)
        if iso:
            continue
        r = i if injective else i - 1
        break
    if r is None:
        r = hi + 1
    h1 = blocks.get(1, Matrix.zero(problem.field, coh_q.dim(1), coh_r.dim(1)))
    h1_injective = h1.rank() == coh_r.dim(1)
    bound = 2 * m - n + 2
    return AnalysisReport(
        n=n, m=m, r=r, codimension=n - m,
        pd_certificate=cert, pd_failure=fail,
        unknotting=r >= bound, unknotting_bound=bound,
        stable=(n >= 2 * m + 4) or (n >= 2 * m + 3 and h1_injective),
        stable_plain=n >= 2 * m + 4,
        h1_injective=h1_injective,
        codimension_ok=n - m >= 2,
        ambient_connected=r_alg.is_connected(),
        h_ambient_dims=dict(coh_r.dims),
        h_target_dims=dict(coh_q.dims))


def _require(report, need_unknotting=True):
    if not report.ambient_connected:
        raise HypothesisError("ambient algebra is not connected")
    if report.pd_failure is not None:
        raise HypothesisError("ambient duality certificate failed: %s"
                              % report.pd_failure)
    if not report.codimension_ok:
        raise HypothesisError("codimension >= 2 fails: n - m = %d"
                              % report.codimension)
    if need_unknotting and not report.unknotting:
        raise HypothesisError("unknotting fails: r=%d < 2m-n+2=%d"
                              % (report.r, report.unknotting_bound))


def _resolve_shifted_dual(problem, window):
    """s^(-n)#Q as a module over the ambient algebra, resolved semifree."""
    dq = restrict_scalars(
        shifted_dual(algebra_as_module(problem.target), problem.n), problem.phi)
    return semifree_resolution(dq, minimal=True, window=window)


@dataclass
class ComplementModelResult:
    lambda_map: CdgaMorphism
    quotient: Cdga
    h_algebra: Cdga
    h_dims: dict
    resolution: object
    psi: object
    cone: object
    ideal: object
    analysis: AnalysisReport

    def lines(self):
        out = ["complement model H dims: %s" % format_dims(self.h_dims)]
        out.append("quotient CDGA validated; map from ambient model validated")
        out.append("truncation ideal acyclic: %s" % self.ideal.acyclic)
        if all_positive_products_zero(self.h_algebra):
            out.append("all positive products zero")
        return out


def complement_model(problem):
    report = analyze(problem)
    _require(report)
    n, m, r = report.n, report.m, report.r
    res = _resolve_shifted_dual(problem, DegreeWindow(0, n + 1))
    low = min(res.module.space.degrees(), default=n)
    if low < n - m:
        raise PipelineError("internal: resolution not concentrated in "
                            "degrees >= n - m")
    try:
        psi = construct_top_degree(res.module, algebra_as_module(problem.ambient),
                                   n, semifree=True)
    except DualityError as e:
        raise HypothesisError(str(e))
    cone = semi_trivial_cone(psi.map)
    try:
        ideal = build_acyclic_truncation(cone, n - r)
    except ConeError as e:
        raise HypothesisError(str(e))
    try:
        tc = truncated_cone(cone, ideal, n - m - 1, n - 2 * m + r - 1)
    except ConeError as e:
        raise HypothesisError(str(e))
    halg, coh = cohomology_algebra(tc.algebra)
    return ComplementModelResult(
        lambda_map=tc.base_map, quotient=tc.algebra, h_algebra=halg,
        h_dims=dict(coh.dims), resolution=res, psi=psi, cone=cone,
        ideal=ideal, analysis=report)


# -- squares ------------------------------------------------------------


@dataclass
class SquareResult:
    kind: str
    top_left: object
    top_right: object
    bottom_left: object
    bottom_right: object
    top_map: object
    bottom_map: object
    left_map: object
    right_map: object
    commutes: bool
    h_bottom_left: dict
    h_bottom_right: dict
    notes: dict = dc_field(default_factory=dict)
    analysis: AnalysisReport = None

    def lines(self):
        out = ["%s square" % self.kind]
        out.append("bottom-left H dims: %s" % format_dims(self.h_bottom_left))
        out.append("bottom-right H dims: %s" % format_dims(self.h_bottom_right))
        out.append("square commutes: %s" % self.commutes)
        for k in sorted(self.notes):
            out.append("%s: %s" % (k, self.notes[k]))
        return out


def _induced_quotient_morphism(phi, proj_r, proj_q):
    """The map on quotients making the square with phi commute; phi is a
    CDGA morphism or a graded linear map."""
    field = phi.source.field
    src, tgt = proj_r.target, proj_q.target
    blocks = {}
    for d in src.space.degrees():
        cols = []
        pr = proj_r.map.block(d)
        for i in range(src.space.dim(d)):
            lift = pr.solve(unit_vec(field, src.space.dim(d), i))
            if lift is None:
                raise PipelineError("internal: quotient projection not onto")
            cols.append(proj_q.apply(d, phi.apply(d, lift)))
        blocks[d] = Matrix.from_cols(field, cols, tgt.space.dim(d))
    return CdgaMorphism(src, tgt, GradedLinearMap(src.space, tgt.space, 0, blocks))


def _trivial_action_module(algebra, complex_):
    """complex_ as a module where only the unit of a connected algebra acts."""
    if not algebra.is_connected():
        raise PipelineError("trivial action needs a connected algebra")
    action = {}
    for d in complex_.space.degrees():
        for j in range(complex_.space.dim(d)):
            action[(0, 0, d, j)] = unit_vec(algebra.field,
                                            complex_.space.dim(d), j)
    return DgModule(algebra, complex_, action)


def _cone_map_blocks(field, space_l, split_l, space_r, split_r, y_map):
    """(y, sx) -> (y_map(y), sx) between cones sharing the same sX part."""
    blocks = {}
    for d in space_l.degrees():
        nyl = split_l.y_dim(d)
        nxl = space_l.dim(d) - nyl
        nyr = split_r.y_dim(d)
        out_dim = space_r.dim(d)
        cols = []
        for i in range(nyl):
            v = y_map.apply(d, unit_vec(field, nyl, i))
            cols.append(tuple(v) + (field.zero,) * (out_dim - nyr))
        for i in range(nxl):
            col = [field.zero] * out_dim
            col[nyr + i] = field.one
            cols.append(tuple(col))
        blocks[d] = Matrix.from_cols(field, cols, out_dim)
    return GradedLinearMap(space_l, space_r, 0, blocks)


def stable_square(problem):
    report = analyze(problem)
    _require(report, need_unknotting=False)
    n, m = report.n, report.m
    if not report.stable:
        raise HypothesisError(
            "stable range fails: need n >= 2m+4, or n >= 2m+3 with "
            "injective H^1 (n=%d, m=%d)" % (n, m))
    # normalize both algebras so nothing lives above n resp. m+2
    r_norm, proj_r = quotient_by_acyclic_ideal(problem.ambient, n - 1)
    q_norm, proj_q = quotient_by_acyclic_ideal(problem.target, m + 1)
    phi_n = _induced_quotient_morphism(problem.phi, proj_r, proj_q)
    # D over the embedded algebra
    dq = shifted_dual(algebra_as_module(q_norm), n)
    res = semifree_resolution(dq, minimal=True, window=DegreeWindow(0, n + 1))
    d_mod = res.module
    d_r = restrict_scalars(d_mod, phi_n)
    route = "direct"
    try:
        psi = construct_top_degree(d_r, algebra_as_module(r_norm), n,
                                   semifree=False)
        if psi.resolution is not None:
            route = "resolved over ambient"
            d_r = psi.map.source
    except DualityError as e:
        raise HypothesisError(str(e))
    cone_l = semi_trivial_cone(psi.map)
    phi_psi = phi_n.map.compose(psi.map.map)
    if not phi_psi.is_zero():
        raise PipelineError("internal: phi . psi expected to vanish in the "
                            "stable range")
    zero_map = DgModuleMorphism(
        _trivial_action_module(q_norm, d_r.complex) if route != "direct" else d_mod,
        algebra_as_module(q_norm),
        GradedLinearMap.zero_map(d_r.space, q_norm.space, 0))
    cone_r = semi_trivial_cone(zero_map)
    bounds_l = check_shift_bounds(cone_l)
    bounds_r = check_shift_bounds(cone_r)
    k = n - m - 1
    if not (bounds_l.found and k in bounds_l.values(cap=n + 2)
            and cone_l.leibniz.ok):
        raise PipelineError("internal: left cone fails the k = n-m-1 bounds")
    if not (bounds_r.found and cone_r.leibniz.ok):
        raise PipelineError("internal: right cone fails the degree bounds")
    bl, bl_incl = cone_l.to_cdga()
    br, br_incl = cone_r.to_cdga()
    bottom_glm = _cone_map_blocks(problem.field, cone_l.space, cone_l.split,
                                  cone_r.space, cone_r.split, phi_n.map)
    bottom = CdgaMorphism(bl, br, bottom_glm)
    commutes = bottom.map.compose(bl_incl.map) == br_incl.map.compose(phi_n.map)
    coh_bl = cohomology(bl.complex)
    coh_br = cohomology(br.complex)
    return SquareResult(
        kind="stable", top_left=r_norm, top_right=q_norm,
        bottom_left=bl, bottom_right=br,
        top_map=phi_n, bottom_map=bottom, left_map=bl_incl, right_map=br_incl,
        commutes=commutes,
        h_bottom_left=dict(coh_bl.dims), h_bottom_right=dict(coh_br.dims),
        notes={"psi route": route,
               "leibniz left": "pass", "leibniz right": "pass",
               "shift bound k": k},
        analysis=report)


def dgmodule_square(problem):
    """Module-level square for one or several branches out of a shared
    ambient algebra; no product claimed on the cones."""
    report = analyze(problem)
    if not report.ambient_connected:
        raise HypothesisError("ambient algebra is not connected")
    if report.pd_failure is not None:
        raise HypothesisError("ambient duality certificate failed: %s"
                              % report.pd_failure)
    n = problem.n
    r_mod = algebra_as_module(problem.ambient)
    parts, psis = [], []
    for bi, branch in enumerate(problem.branches):
        dq = restrict_scalars(
            shifted_dual(algebra_as_module(branch.target), n), branch)
        res = semifree_resolution(dq, minimal=True,
                                  window=DegreeWindow(0, n + 1))
        try:
            psi_k = construct_top_degree(res.module, r_mod, n, semifree=True)
        except DualityError as e:
            raise HypothesisError("branch %d: %s" % (bi, e))
        parts.append(res.module)
        psis.append(psi_k)
    d_mod, offsets = direct_sum_modules(parts)
    field = problem.field
    # the summands are stacked in order, so the columns of the psi_k are too
    blocks = {d: Matrix.from_cols(field, [col for psi_k in psis
                                          for col in psi_k.map.map.block(d).cols()],
                                  r_mod.space.dim(d))
              for d in d_mod.space.degrees()}
    psi = DgModuleMorphism(d_mod, r_mod,
                           GradedLinearMap(d_mod.space, r_mod.space, 0, blocks))
    q_mod = restrict_scalars(algebra_as_module(problem.target), problem.phi)
    phi_mod = DgModuleMorphism(r_mod, q_mod, problem.phi.map)
    phi_psi = DgModuleMorphism(d_mod, q_mod, problem.phi.map.compose(psi.map))
    bl_mod, bl_split = module_mapping_cone(psi)
    br_mod, br_split = module_mapping_cone(phi_psi)
    bottom_glm = _cone_map_blocks(field, bl_mod.space, bl_split,
                                  br_mod.space, br_split, problem.phi.map)
    bottom = DgModuleMorphism(bl_mod, br_mod, bottom_glm)
    commutes = (bottom_glm.compose(bl_split.inclusion)
                == br_split.inclusion.compose(problem.phi.map))
    coh_bl = cohomology(bl_mod.complex)
    coh_br = cohomology(br_mod.complex)
    return SquareResult(
        kind="module", top_left=problem.ambient, top_right=problem.target,
        bottom_left=bl_mod, bottom_right=br_mod,
        top_map=phi_mod, bottom_map=bottom,
        left_map=bl_split.inclusion, right_map=br_split.inclusion,
        commutes=commutes,
        h_bottom_left=dict(coh_bl.dims), h_bottom_right=dict(coh_br.dims),
        notes={"branches": len(problem.branches),
               "field": repr(problem.field)},
        analysis=report)


@dataclass
class LefschetzResult:
    h_dims: dict
    action: dict                   # (deg_W, i, deg_C, j) -> H(C) coords
    h_algebra: object              # Cdga or None
    algebra_undetermined: bool
    analysis: AnalysisReport
    cone_dims: dict

    def lines(self):
        out = ["complement H dims: %s" % format_dims(self.h_dims)]
        if self.algebra_undetermined:
            out.append("algebra undetermined (unknotting fails)")
        else:
            out.append("algebra determined")
            if self.h_algebra is not None and all_positive_products_zero(self.h_algebra):
                out.append("all positive products zero")
        return out


def lefschetz(problem):
    report = analyze(problem)
    if report.pd_failure is not None:
        raise HypothesisError("ambient duality certificate failed: %s"
                              % report.pd_failure)
    n, m, r = report.n, report.m, report.r
    dual_phi = shifted_dual_morphism(problem.phi, n)
    cone_mod, split = module_mapping_cone(dual_phi)
    coh_c = cohomology(cone_mod.complex)
    halg_r, coh_r = cohomology_algebra(problem.ambient)
    # module action of H(ambient) on H(cone)
    action = {}
    for dw in coh_r.dims:
        for i, zw in enumerate(coh_r.reps[dw]):
            for dc in coh_c.dims:
                t = dw + dc
                if coh_c.dim(t) == 0:
                    continue
                for j, zc in enumerate(coh_c.reps[dc]):
                    v = cone_mod.act_vec(dw, zw, dc, zc)
                    w = coh_c.reduce(t, v)
                    if w and not is_zero_vec(w):
                        action[(dw, i, dc, j)] = w
    if not report.unknotting:
        return LefschetzResult(dict(coh_c.dims), action, None, True, report,
                               dict(coh_c.dims))
    bound = n - m - 1
    # low-degree classes come from the ambient algebra through the action
    # on the degree-0 generator
    if coh_c.dim(0) != 1:
        raise HypothesisError("H^0 of the duality cone is not a line")
    c0 = coh_c.reps[0][0]
    from_w = {}                    # degree -> Matrix H^d(W) -> H^d(C)
    for d in [d for d in coh_r.dims if 0 <= d < bound]:
        cols = [coh_c.reduce(d, cone_mod.act_vec(d, zw, 0, c0))
                for zw in coh_r.reps[d]]
        mtx = Matrix.from_cols(problem.field, cols, coh_c.dim(d))
        if coh_c.dim(d) != coh_r.dim(d) or mtx.rank() != coh_c.dim(d):
            raise PipelineError("internal: low-degree comparison with the "
                                "ambient algebra is not an isomorphism "
                                "(degree %d)" % d)
        from_w[d] = mtx
    for d in coh_c.dims:
        if d < bound and d not in from_w and coh_c.dim(d):
            raise PipelineError("internal: complement class below the bound "
                                "missing from the ambient algebra (degree %d)"
                                % d)
    space = GradedVectorSpace(problem.field,
                              DegreeWindow(0, max(coh_c.dims) if coh_c.dims else 0),
                              dict(coh_c.dims),
                              {d: ["c%d_%d" % (d, i) for i in range(k)]
                               for d, k in coh_c.dims.items()})
    product = {}
    for d1 in space.degrees():
        for d2 in space.degrees():
            t = d1 + d2
            if space.dim(t) == 0 or t > space.window.hi:
                continue
            for i1 in range(space.dim(d1)):
                for i2 in range(space.dim(d2)):
                    if d1 < bound:
                        wcoords = from_w[d1].solve(
                            unit_vec(problem.field, space.dim(d1), i1))
                        zw = zero_vec(problem.field,
                                      problem.ambient.space.dim(d1))
                        for c, rep in zip(wcoords, coh_r.reps[d1]):
                            if c != 0:
                                zw = tuple(x + c * y for x, y in zip(zw, rep))
                        v = cone_mod.act_vec(d1, zw, d2, coh_c.reps[d2][i2])
                        w = coh_c.reduce(t, v)
                    elif d2 < bound:
                        sgn = problem.field.sign(d1 * d2)
                        w = product.get((d2, i2, d1, i1))
                        if w is None:
                            continue
                        w = tuple(sgn * x for x in w)
                    else:
                        continue
                    if w and not is_zero_vec(w):
                        product[(d1, i1, d2, i2)] = w
    unit = coh_c.reduce(0, c0)
    halg = Cdga(problem.field, CochainComplex.zero_differential(space),
                product, unit)
    return LefschetzResult(dict(coh_c.dims), action, halg, False, report,
                           dict(coh_c.dims))


def punctured_square(problem, attest_boundary_simply_connected=False):
    report = analyze(problem)
    _require(report)
    n, m, r = report.n, report.m, report.r
    if r < 1:
        raise HypothesisError("connectivity fails: r positive required, got %d"
                              % r)
    if n < m + r + 2:
        raise HypothesisError("range fails: n >= m+r+2 required "
                              "(n=%d, m=%d, r=%d)" % (n, m, r))
    coh_q = cohomology(problem.target.complex)
    for d in range(1, r):
        if coh_q.dim(d):
            raise HypothesisError("embedded piece is not (r-1)-connected: "
                                  "H^%d nonzero" % d)
    if not attest_boundary_simply_connected:
        raise HypothesisError("boundary simple connectivity not attested "
                              "(pass the attestation flag)")
    res = _resolve_shifted_dual(problem, DegreeWindow(0, n + 1))
    try:
        psi = construct_top_degree(res.module, algebra_as_module(problem.ambient),
                                   n, semifree=True)
    except DualityError as e:
        raise HypothesisError(str(e))
    cone_l = semi_trivial_cone(psi.map)
    phi_psi = problem.phi.map.compose(psi.map.map)
    if not phi_psi.is_zero():
        raise PipelineError("unsupported: phi . psi does not vanish, the "
                            "embedded algebra genuinely acts on the "
                            "resolution")
    d_q = _trivial_action_module(problem.target, res.module.complex)
    zero_map = DgModuleMorphism(
        d_q, algebra_as_module(problem.target),
        GradedLinearMap.zero_map(d_q.space, problem.target.space, 0))
    cone_r = semi_trivial_cone(zero_map)
    # truncation ideals: ambient above n-r-1, embedded above m, D above n-r
    tr_i = truncate_module(algebra_as_module(problem.ambient), n - r - 1)
    tr_j = truncate_module(algebra_as_module(problem.target), m)
    tr_k = truncate_module(res.module, n - r)
    spans_l = _embed_cone_spans(cone_l, tr_i.spans, tr_k.spans)
    spans_r = _embed_cone_spans(cone_r, tr_j.spans, tr_k.spans)
    try:
        ql, proj_l, _ = quotient_cdga(cone_l.algebra, spans_l)
        qr, proj_r, _ = quotient_cdga(cone_r.algebra, spans_r)
    except AlgebraError as e:
        raise PipelineError("quotient cone failed validation: %s" % e)
    left_base = CdgaMorphism(problem.ambient, ql,
                             proj_l.map.compose(cone_l.inclusion))
    right_base = CdgaMorphism(problem.target, qr,
                              proj_r.map.compose(cone_r.inclusion))
    # bar map between the quotients
    raw_bottom = _cone_map_blocks(problem.field, cone_l.space, cone_l.split,
                                  cone_r.space, cone_r.split, problem.phi.map)
    bottom = _induced_quotient_morphism(raw_bottom, proj_l, proj_r)
    commutes = (bottom.map.compose(left_base.map)
                == right_base.map.compose(problem.phi.map))
    # certificates: left projection quasi-iso; right kills one class at n-1
    coh_ql = cohomology(ql.complex)
    left_qiso = quasi_isomorphism_failure(
        proj_l.map, cohomology(cone_l.complex), coh_ql) is None
    coh_cr = cohomology(cone_r.complex)
    coh_qr = cohomology(qr.complex)
    killed = {d: coh_cr.dim(d) - coh_qr.dim(d)
              for d in set(coh_cr.dims) | set(coh_qr.dims)
              if coh_cr.dim(d) != coh_qr.dim(d)}
    right_ok = killed == {n - 1: 1}
    if not left_qiso:
        raise PipelineError("internal: ambient-side projection is not a "
                            "quasi-isomorphism")
    if not right_ok:
        raise PipelineError("internal: embedded-side projection does not "
                            "kill exactly one degree-%d class (killed: %s)"
                            % (n - 1, killed))
    return SquareResult(
        kind="punctured", top_left=problem.ambient, top_right=problem.target,
        bottom_left=ql, bottom_right=qr,
        top_map=problem.phi, bottom_map=bottom,
        left_map=left_base, right_map=right_base,
        commutes=commutes,
        h_bottom_left=dict(coh_ql.dims), h_bottom_right=dict(coh_qr.dims),
        notes={"ambient-side projection": "quasi-isomorphism",
               "embedded-side projection": "kills one degree-%d class" % (n - 1),
               "boundary simple connectivity": "attested"},
        analysis=report)


def _embed_cone_spans(cone, y_spans, x_spans):
    """Lift spans in the base and in the module into cone coordinates."""
    field = cone.field
    out = {}
    for d, vs in y_spans.items():
        if cone.space.dim(d) == 0:
            continue
        for v in vs:
            vec = [field.zero] * cone.space.dim(d)
            for i, c in enumerate(v):
                vec[i] = c
            out.setdefault(d, []).append(tuple(vec))
    for d, vs in x_spans.items():
        cd = d - 1
        if cone.space.dim(cd) == 0:
            continue
        ny = cone.split.y_dim(cd)
        for v in vs:
            vec = [field.zero] * cone.space.dim(cd)
            for i, c in enumerate(v):
                vec[ny + i] = c
            out.setdefault(cd, []).append(tuple(vec))
    return out


@dataclass
class GysinResult:
    map: object                    # certified top-degree umkehr map
    codimension: int
    ambient_certificate: object
    embedded_certificate: object
    h_source_dims: dict
    h_target_dims: dict

    def lines(self):
        out = ["umkehr map certified in codimension %d" % self.codimension]
        for j in sorted(self.map.map.map.blocks):
            b = self.map.map.map.block(j)
            if b.nrows and b.ncols:
                out.append("degree %d block: %s"
                           % (j, [[str(b[i, c]) for c in range(b.ncols)]
                                  for i in range(b.nrows)]))
        return out


def gysin(problem):
    """Umkehr map on cohomology for a single branch whose target also
    satisfies duality (in its own top dimension)."""
    if problem.is_menorah:
        raise PipelineError("umkehr maps need a single embedded component")
    halg_r, coh_r = cohomology_algebra(problem.ambient)
    halg_q, coh_q = cohomology_algebra(problem.target)
    n = problem.n
    m = _top_nonzero(coh_q.dims)
    cert_w, fail_w = check_poincare_duality(halg_r, n)
    if fail_w is not None:
        raise HypothesisError("ambient duality certificate failed: %s" % fail_w)
    cert_v, fail_v = check_poincare_duality(halg_q, m)
    if fail_v is not None:
        raise HypothesisError("embedded duality certificate failed: %s" % fail_v)
    blocks = induced_on_cohomology(problem.phi.map, coh_r, coh_q)
    glm = GradedLinearMap(halg_r.space, halg_q.space, 0,
                          {d: b for d, b in blocks.items()
                           if b.nrows and b.ncols})
    hf = CdgaMorphism(halg_r, halg_q, glm)
    try:
        g = gysin_map(hf, cert_w, cert_v, n - m)
    except DualityError as e:
        raise HypothesisError(str(e))
    return GysinResult(g, n - m, cert_w, cert_v,
                       {d: halg_q.space.dim(d) for d in halg_q.space.degrees()},
                       {d: halg_r.space.dim(d) for d in halg_r.space.degrees()})


# -- oracles and canonical tables ---------------------------------------


def reduced_homology_dims(algebra):
    """Reduced homology of the modeled space, read off cohomology dims."""
    coh = cohomology(algebra.complex)
    out = {}
    for d, k in coh.dims.items():
        if d == 0:
            if k > 1:
                out[0] = k - 1
        elif k:
            out[d] = k
    return out


def alexander_oracle(reduced_dims, n):
    """Predicted reduced cohomology of the complement in an n-sphere."""
    out = {}
    for d, k in reduced_dims.items():
        if k:
            out[n - d - 1] = k
    return out


def oracle_complement_dims(problem):
    """Full predicted H dims of the complement (with the unit line)."""
    pred = alexander_oracle(reduced_homology_dims(problem.target), problem.n)
    pred[0] = pred.get(0, 0) + 1
    return pred


def format_dims(dims):
    return "{" + ", ".join("%d:%d" % (d, dims[d]) for d in sorted(dims)) + "}"


def all_positive_products_zero(halg):
    for (d1, _i1, d2, _i2), v in halg.product.items():
        if d1 > 0 and d2 > 0 and not is_zero_vec(v):
            return False
    return True


def tables_match(h1, h2):
    """Whether two zero-differential algebra tables agree: same dims,
    and the same vanishing pattern of products of positive classes.
    For the tables arising here (trivial products, or one-dimensional
    degrees) this detects graded-algebra isomorphism."""
    if {d: h1.space.dim(d) for d in h1.space.degrees()} != \
       {d: h2.space.dim(d) for d in h2.space.degrees()}:
        return False
    z1 = all_positive_products_zero(h1)
    z2 = all_positive_products_zero(h2)
    if z1 or z2:
        return z1 and z2
    return _vanishing_pattern(h1) == _vanishing_pattern(h2)


def _vanishing_pattern(h):
    out = {}
    for (d1, i1, d2, i2), v in h.product.items():
        if d1 == 0 or d2 == 0 or is_zero_vec(v):
            continue
        out[(d1, i1, d2, i2)] = tuple(1 if c != 0 else 0 for c in v)
    return out
