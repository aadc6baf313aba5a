"""End-to-end recipes for algebraic models of sphere-like embeddings.

Given a morphism phi: R -> Q modeling the restriction from an ambient
duality algebra to the embedded piece, the pipelines build complement
models, commuting squares, and Lefschetz-duality module structures,
each with machine-checkable certificates.  Hypothesis failures raise
HypothesisError with the violated inequality named; structural input
problems raise PipelineError; a broken invariant of a construction
raises `graded.InternalError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (AlgebraError, Cdga, CdgaMorphism, check_poincare_duality,
                      cohomology_algebra, direct_sum_cdga, left_factors,
                      projected_table, quotient_by_acyclic_ideal, quotient_cdga,
                      same_tables)
from .cones import (ConeError, build_acyclic_truncation, check_shift_bounds,
                    semi_trivial_cone, truncated_cone)
from .duality import (DualityError, construct_top_degree, gysin_map,
                      shifted_dual_morphism)
from .graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                     GradedVectorSpace, InternalError, cohomology,
                     induced_on_cohomology, quasi_isomorphism_failure,
                     truncation_spans)
from .linalg import Matrix, dense
from .modules import (DgModule, DgModuleMorphism, algebra_as_module,
                      direct_sum_modules, module_mapping_cone,
                      restrict_scalars, restricted_shifted_dual,
                      semifree_resolution, shifted_dual)
from .tables import by, coefficients, substituted, swapped


class PipelineError(ValueError):
    """Structural problem with the input (exit code 2 territory)."""


class HypothesisError(PipelineError):
    """A named theorem hypothesis fails on this input (exit code 1)."""


class EmbeddingProblem:
    """phi (or a family of phi_k out of one shared source) plus the
    ambient dimension n.  Several branches give phi = (phi_1, ..., phi_k)
    into the product of the targets, a morphism summand by summand."""

    def __init__(self, branches, n):
        if not branches:
            raise PipelineError("at least one embedded component required")
        src = branches[0].source
        for b in branches:
            if b.source is not src:
                raise PipelineError("all branches must share the same "
                                    "ambient algebra object")
        self.branches = list(branches)
        self.n = n
        self.ambient = src
        self.field = src.field
        if len(branches) == 1:
            self.target = branches[0].target
            self.phi = branches[0]
        else:
            self.target = direct_sum_cdga([b.target for b in branches])
            # the summands are stacked in order, so the branch blocks are
            # too; an absent block stacks as zero rows
            blocks = {}
            for d in src.space.degrees():
                rows = []
                for b in self.branches:
                    m = b.map.blocks.get(d)
                    rows += (m.rows if m is not None
                             else [{} for _ in range(b.target.space.dim(d))])
                blocks[d] = Matrix.sparse(self.field, rows, src.space.dim(d))
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
    pd_failure: object
    unknotting: bool
    unknotting_bound: int
    stable: bool
    stable_plain: bool             # n >= 2m+4
    codimension_ok: bool
    ambient_connected: bool

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
    coh_r = cohomology(r_alg.complex)
    coh_q = cohomology(q_alg.complex)
    _, fail = check_poincare_duality(cohomology_algebra(r_alg)[0], n)
    m = _top_nonzero(coh_q.dims)
    # H^i(phi) is injective when its rank is dim H^i(R); a degree without
    # a block has H^i(R) = 0
    injective = {i: b.rank() == coh_r.dim(i) for i, b in
                 induced_on_cohomology(phi.map, coh_r, coh_q).items()}
    degs = sorted(set(coh_r.dims) | set(coh_q.dims) | {0})
    hi = max(degs) if degs else 0
    r = None
    for i in range(0, hi + 2):
        inj = injective.get(i, True)
        if inj and coh_r.dim(i) == coh_q.dim(i):
            continue
        r = i if inj else i - 1
        break
    if r is None:
        r = hi + 1
    bound = 2 * m - n + 2
    return AnalysisReport(
        n=n, m=m, r=r, codimension=n - m,
        pd_failure=fail,
        unknotting=r >= bound, unknotting_bound=bound,
        stable=(n >= 2 * m + 4) or (n >= 2 * m + 3 and injective.get(1, True)),
        stable_plain=n >= 2 * m + 4,
        codimension_ok=n - m >= 2,
        ambient_connected=r_alg.is_connected())


def _require_ambient(report):
    if not report.ambient_connected:
        raise HypothesisError("ambient algebra is not connected")
    if report.pd_failure is not None:
        raise HypothesisError("ambient duality certificate failed: %s"
                              % report.pd_failure)


def _require_dimension(m, n):
    """m <= n: the embedded piece has no cohomology above the ambient
    dimension.  `complement` and the squares on algebras ask for more,
    codimension >= 2; the module pipelines and `gysin` need only this."""
    if m > n:
        raise HypothesisError("m <= n fails: the embedded piece has cohomology in "
                              "degree m = %d above the ambient dimension n = %d"
                              % (m, n))


def _require(report, need_unknotting=True):
    _require_ambient(report)
    if not report.codimension_ok:
        raise HypothesisError("codimension >= 2 fails: n - m = %d"
                              % report.codimension)
    if need_unknotting and not report.unknotting:
        raise HypothesisError("unknotting fails: r=%d < 2m-n+2=%d"
                              % (report.r, report.unknotting_bound))


def _top_degree_map(phi, n):
    """(res, psi) for phi: R -> Q: res resolves s^(-n)#Q, as a module
    over R, semifree and minimal in degrees 0..n+1, and psi: res.module
    -> R is its top-degree map.  A hypothesis that leaves no top-degree
    map is named by a HypothesisError.

    A minimal resolution starts no lower than the cohomology it
    resolves, which starts in degree n - m, m the top degree of H(Q):
    Q is nonnegatively graded and H^j(s^(-n)#Q) is dual to H^(n-j)(Q)."""
    dq = restricted_shifted_dual(phi, n)
    res = semifree_resolution(dq, window=DegreeWindow(0, n + 1))
    if (min(res.module.space.degrees(), default=n)
            < min(cohomology(dq.complex).dims, default=n)):
        raise InternalError("resolution not concentrated in degrees >= n - m")
    try:
        return res, construct_top_degree(res.module, algebra_as_module(phi.source), n)
    except DualityError as e:
        raise HypothesisError(str(e))


def _zero_map_cone(module, q):
    """The semi-trivial cone of the zero map from a module over Q to Q."""
    zero = GradedLinearMap.zero_map(module.space, q.space, 0)
    return semi_trivial_cone(DgModuleMorphism(module, algebra_as_module(q), zero))


@dataclass
class ComplementModelResult:
    quotient: Cdga
    h_algebra: Cdga
    h_dims: dict
    resolution: object
    cone: object
    analysis: AnalysisReport


def complement_model(problem):
    report = analyze(problem)
    _require(report)
    n, m, r = report.n, report.m, report.r
    res, psi = _top_degree_map(problem.phi, n)
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
        quotient=tc.algebra, h_algebra=halg,
        h_dims=dict(coh.dims), resolution=res, cone=cone, analysis=report)


# -- squares ------------------------------------------------------------


@dataclass
class SquareResult:
    kind: str
    top_left: object
    top_right: object
    bottom_left: object
    bottom_right: object
    top_map: object
    commutes: bool
    h_bottom_left: dict
    h_bottom_right: dict
    notes: dict = dc_field(default_factory=dict)
    analysis: AnalysisReport = None


def _induced_quotient_morphism(phi, proj_r, proj_q):
    """The map on quotients making the square with phi commute; phi is a
    CDGA morphism or a graded linear map.  A quotient keeps basis
    elements, so the rows of a projection block, the kept basis vectors,
    lift the quotient's basis.  The callers report it and check it."""
    field = phi.source.field
    src, tgt = proj_r.target, proj_q.target
    blocks = {}
    for d in src.space.degrees():
        cols = [proj_q.apply(d, phi.apply(d, lift)) for lift in proj_r.map.block(d).rows]
        blocks[d] = Matrix.from_cols(field, cols, tgt.space.dim(d))
    return CdgaMorphism(src, tgt, GradedLinearMap(src.space, tgt.space, 0, blocks))


def _trivial_action_module(algebra, complex_):
    """complex_ as a module where only the unit of a connected algebra
    acts; every other axiom is about positive degrees, which act by 0."""
    if not algebra.is_connected():
        raise PipelineError("trivial action needs a connected algebra")
    one = algebra.field.one
    action = {(0, 0, d, j): {j: one} for d in complex_.space.degrees()
              for j in range(complex_.space.dim(d))}
    return DgModule(algebra, complex_, action)


def _cone_map_blocks(field, space_l, split_l, space_r, split_r, y_map):
    """(y, sx) -> (y_map(y), sx) between cones sharing the same sX part;
    each Y sits at the start of its degrees."""
    blocks = {}
    for d in space_l.degrees():
        nyl = split_l.y_dim(d)
        nyr = split_r.y_dim(d)
        cols = ([y_map.apply(d, {i: field.one}) for i in range(nyl)]
                + [{nyr + i: field.one} for i in range(space_l.dim(d) - nyl)])
        blocks[d] = Matrix.from_cols(field, cols, space_r.dim(d))
    return GradedLinearMap(space_l, space_r, 0, blocks)


def stable_square(problem):
    report = analyze(problem)
    _require(report, need_unknotting=False)
    n, m = report.n, report.m
    if not report.stable:
        raise HypothesisError(
            "stable range fails: need n >= 2m+4, or n >= 2m+3 with "
            "injective H^1 (n=%d, m=%d)" % (n, m))
    if problem.is_menorah:
        raise HypothesisError("one-component hypothesis fails: the stable square "
                              "needs a single embedded component, found %d"
                              % len(problem.branches))
    # normalize both algebras so nothing lives above n resp. m+2; where
    # they already do, the normalization is the identity
    r_norm, proj_r = quotient_by_acyclic_ideal(problem.ambient, n - 1)
    q_norm, proj_q = quotient_by_acyclic_ideal(problem.target, m + 1)
    if r_norm is problem.ambient and q_norm is problem.target:
        phi_n = problem.phi
    else:
        phi_n = _induced_quotient_morphism(problem.phi, proj_r, proj_q)
    # the corners and maps reported below that the pipeline built (the
    # parser checked the others); the bottom corners are checked by their
    # Leibniz reports
    for built, given in ((r_norm, problem.ambient), (q_norm, problem.target),
                         (phi_n, problem.phi)):
        if built is not given:
            built.validate()
    # D over the embedded algebra
    dq = shifted_dual(algebra_as_module(q_norm), n)
    d_mod = semifree_resolution(dq, window=DegreeWindow(0, n + 1)).module
    try:
        psi = construct_top_degree(restrict_scalars(d_mod, phi_n),
                                   algebra_as_module(r_norm), n)
    except DualityError as e:
        raise HypothesisError(str(e))
    cone_l = semi_trivial_cone(psi.map)
    phi_psi = phi_n.map.compose(psi.map.map)
    if not phi_psi.is_zero():
        raise InternalError("phi . psi expected to vanish in the stable range")
    cone_r = _zero_map_cone(d_mod, q_norm)
    bounds_l = check_shift_bounds(cone_l)
    bounds_r = check_shift_bounds(cone_r)
    k = n - m - 1
    if not (bounds_l.admits(k) and cone_l.leibniz is None):
        raise InternalError("left cone fails the k = n-m-1 bounds")
    if not (bounds_r.found and cone_r.leibniz is None):
        raise InternalError("right cone fails the degree bounds")
    bl, bl_incl = cone_l.to_cdga()
    br, br_incl = cone_r.to_cdga()
    bottom_glm = _cone_map_blocks(problem.field, cone_l.space, cone_l.split,
                                  cone_r.space, cone_r.split, phi_n.map)
    bottom = CdgaMorphism(bl, br, bottom_glm)
    for built in (bl_incl, br_incl, bottom):
        built.validate()
    commutes = bottom.map.compose(bl_incl.map) == br_incl.map.compose(phi_n.map)
    coh_bl = cohomology(bl.complex)
    coh_br = cohomology(br.complex)
    return SquareResult(
        kind="stable", top_left=r_norm, top_right=q_norm,
        bottom_left=bl, bottom_right=br,
        top_map=phi_n, commutes=commutes,
        h_bottom_left=dict(coh_bl.dims), h_bottom_right=dict(coh_br.dims),
        # psi has one route; the reports keep its line, which the goldens pin
        notes={"psi route": "direct",
               "leibniz left": "pass", "leibniz right": "pass",
               "shift bound k": k},
        analysis=report)


def dgmodule_square(problem):
    """Module-level square for one or several branches out of a shared
    ambient algebra; no product claimed on the cones."""
    report = analyze(problem)
    _require_ambient(report)
    _require_dimension(report.m, report.n)
    n = problem.n
    r_mod = algebra_as_module(problem.ambient)
    parts, psis = [], []
    done = []                      # (branch, res, psi) of each map resolved
    for bi, branch in enumerate(problem.branches):
        # a target sharing an earlier one's tables, under an equal map,
        # restricts to the same module: its (res, psi) serve again
        for b, res, psi_k in done:
            if same_tables(b.target, branch.target) and b.map == branch.map:
                break
        else:
            try:
                res, psi_k = _top_degree_map(branch, n)
            except HypothesisError as e:
                raise HypothesisError("branch %d: %s" % (bi, e))
            done.append((branch, res, psi_k))
        parts.append(res.module)
        psis.append(psi_k)
    d_mod, offsets = direct_sum_modules(parts)
    field = problem.field
    # the summands are stacked in order, so the columns of the psi_k are too
    blocks = {d: Matrix.from_cols(field, [col for psi_k in psis for col
                                          in psi_k.map.map.block(d).transpose().rows],
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
    # the cone modules' Leibniz rule holds only for linear attaching maps,
    # so these checks also cover psi and phi . psi
    for built in (bl_mod, br_mod, bottom):
        built.validate()
    commutes = (bottom_glm.compose(bl_split.inclusion)
                == br_split.inclusion.compose(problem.phi.map))
    coh_bl = cohomology(bl_mod.complex)
    coh_br = cohomology(br_mod.complex)
    return SquareResult(
        kind="module", top_left=problem.ambient, top_right=problem.target,
        bottom_left=bl_mod, bottom_right=br_mod,
        top_map=phi_mod, commutes=commutes,
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


def lefschetz(problem):
    report = analyze(problem)
    if report.pd_failure is not None:
        raise HypothesisError("ambient duality certificate failed: %s"
                              % report.pd_failure)
    _require_dimension(report.m, report.n)
    n, m = report.n, report.m
    cone_mod, _ = module_mapping_cone(shifted_dual_morphism(problem.phi, n))
    cone_mod.validate()
    coh_c = cohomology(cone_mod.complex)
    coh_r = cohomology(problem.ambient.complex)
    # module action of H(ambient) on H(cone)
    action = projected_table(left_factors(coh_r.reps), coh_c.reps, coh_c.reduce,
                             cone_mod.act_vec, max(coh_c.dims, default=0))
    if not report.unknotting:
        return LefschetzResult(dict(coh_c.dims), action, None, True, report)
    bound = n - m - 1
    if coh_c.dim(0) != 1:
        raise HypothesisError("H^0 of the duality cone is not a line")
    field = problem.field
    # below the bound, w -> w.[1] (the action entries (d, k, 0, 0)) is an
    # isomorphism H^d(W) -> H^d(C); its inverse maps each class c to the
    # coefficients x_k of w_k in c = sum x_k w_k.[1]
    inverse = {}
    for d in sorted(set(coh_r.dims) | set(coh_c.dims)):
        if d >= bound:
            break
        k = coh_c.dim(d)
        comparison = Matrix.from_cols(field, [action.get((d, j, 0, 0), {})
                                              for j in range(coh_r.dim(d))], k)
        if comparison.ncols != k or comparison.rank() != k:
            raise InternalError("low-degree comparison with the ambient algebra "
                                "is not an isomorphism (degree %d)" % d)
        inverse.update({(d, i): comparison.solve({i: field.one}) for i in range(k)})
    space = GradedVectorSpace(field,
                              DegreeWindow(0, max(coh_c.dims) if coh_c.dims else 0),
                              dict(coh_c.dims),
                              {d: ["c%d_%d" % (d, i) for i in range(k)]
                               for d, k in coh_c.dims.items()})
    # c.c' = sum x_k (w_k.c') for |c| below the bound; a right factor
    # below the bound: graded commutativity
    product = substituted(field, by(action, 0), coefficients(inverse))
    product = {k: w for k, w in product.items() if w}
    product.update(swapped(field, {k: w for k, w in product.items() if k[2] >= bound}))
    unit = coh_c.reduce(0, coh_c.reps[0][0])
    halg = Cdga(field, CochainComplex.zero_differential(space), product, unit)
    halg.validate()
    return LefschetzResult(dict(coh_c.dims), action, halg, False, report)


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
    res, psi = _top_degree_map(problem.phi, n)
    cone_l = semi_trivial_cone(psi.map)
    phi_psi = problem.phi.map.compose(psi.map.map)
    if not phi_psi.is_zero():
        raise PipelineError("unsupported: phi . psi does not vanish, the "
                            "embedded algebra genuinely acts on the "
                            "resolution")
    cone_r = _zero_map_cone(
        _trivial_action_module(problem.target, res.module.complex), problem.target)
    # truncation ideals: ambient above n-r-1, embedded above m, D above
    # n-r.  Their closure under d and the actions is checked on the cones,
    # by the quotients below; the cone products are not checked: their
    # quotients, the reported corners, are
    spans_d = truncation_spans(res.module.complex, n - r)
    spans_l = _embed_cone_spans(
        cone_l, truncation_spans(problem.ambient.complex, n - r - 1), spans_d)
    spans_r = _embed_cone_spans(
        cone_r, truncation_spans(problem.target.complex, m), spans_d)
    try:
        ql, proj_l = quotient_cdga(cone_l.algebra, spans_l)
        qr, proj_r = quotient_cdga(cone_r.algebra, spans_r)
        ql.validate()
        qr.validate()
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
    left_base.validate()
    right_base.validate()
    # the base maps are CDGA morphisms by construction; the bar map is one
    # under the hypotheses, the attested one among them
    try:
        bottom.validate()
    except AlgebraError as e:
        raise HypothesisError("attested boundary simple connectivity fails: %s" % e) from e
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
        raise InternalError("ambient-side projection is not a quasi-isomorphism")
    if not right_ok:
        raise InternalError("embedded-side projection does not kill exactly "
                            "one degree-%d class (killed: %s)" % (n - 1, killed))
    return SquareResult(
        kind="punctured", top_left=problem.ambient, top_right=problem.target,
        bottom_left=ql, bottom_right=qr,
        top_map=problem.phi, commutes=commutes,
        h_bottom_left=dict(coh_ql.dims), h_bottom_right=dict(coh_qr.dims),
        notes={"ambient-side projection": "quasi-isomorphism",
               "embedded-side projection": "kills one degree-%d class" % (n - 1),
               "boundary simple connectivity": "attested"},
        analysis=report)


def _embed_cone_spans(cone, y_spans, x_spans):
    """Basis indices in the base and in the module as cone indices: the
    base sits at the start of each degree, the module after it."""
    out = {}
    for d, idx in y_spans.items():
        if cone.space.dim(d):
            out.setdefault(d, []).extend(idx)
    for d, idx in x_spans.items():
        cd = d - 1
        if cone.space.dim(cd):
            ny = cone.split.y_dim(cd)
            out.setdefault(cd, []).extend(ny + i for i in idx)
    return out


@dataclass
class GysinResult:
    map: object                    # certified top-degree umkehr map
    codimension: int

    def lines(self):
        out = ["umkehr map certified in codimension %d" % self.codimension]
        for j, b in sorted(self.map.map.map.blocks.items()):
            out.append("degree %d block: %s"
                       % (j, [[str(x) for x in dense(b.field, row, b.ncols)]
                              for row in b.rows]))
        return out


def gysin(problem):
    """Umkehr map on cohomology for a single branch whose target also
    satisfies duality (in its own top dimension).  H(phi) is not
    re-checked: phi is checked, so it is unital and multiplicative on the
    representatives whose products the H-algebras reduce."""
    if problem.is_menorah:
        raise HypothesisError("one-component hypothesis fails: umkehr maps "
                              "need a single embedded component, found %d"
                              % len(problem.branches))
    halg_r, coh_r = cohomology_algebra(problem.ambient)
    halg_q, coh_q = cohomology_algebra(problem.target)
    n = problem.n
    m = _top_nonzero(coh_q.dims)
    cert_w, fail_w = check_poincare_duality(halg_r, n)
    if fail_w is not None:
        raise HypothesisError("ambient duality certificate failed: %s" % fail_w)
    _require_dimension(m, n)
    cert_v, fail_v = check_poincare_duality(halg_q, m)
    if fail_v is not None:
        raise HypothesisError("embedded duality certificate failed: %s" % fail_v)
    blocks = induced_on_cohomology(problem.phi.map, coh_r, coh_q)
    hf = CdgaMorphism(halg_r, halg_q,
                      GradedLinearMap(halg_r.space, halg_q.space, 0, blocks))
    try:
        g = gysin_map(hf, cert_w, cert_v, n - m)
    except DualityError as e:
        raise HypothesisError(str(e))
    return GysinResult(g, n - m)


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
    """Full predicted H dims of the complement (with the unit line), or
    None when the ambient is not a cohomology n-sphere, where Alexander
    duality in S^n says nothing."""
    if dict(cohomology(problem.ambient.complex).dims) != {0: 1, problem.n: 1}:
        return None
    pred = alexander_oracle(reduced_homology_dims(problem.target), problem.n)
    pred[0] = pred.get(0, 0) + 1
    return pred


def format_dims(dims):
    return "{" + ", ".join("%d:%d" % (d, dims[d]) for d in sorted(dims)) + "}"


def all_positive_products_zero(halg):
    return not any(d1 > 0 and d2 > 0 for (d1, _i1, d2, _i2) in halg.product)
