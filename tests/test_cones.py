import random

import pytest

from builders import free_module, sphere
from dense import add_maps, mul_basis
from pemb import cli, pipeline
from pemb.algebra import CdgaMorphism, materialize_free_cdga
from pemb.cones import (ConeError, build_acyclic_truncation, check_shift_bounds,
                        semi_trivial_cone, truncated_cone)
from pemb.fields import QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         GradedVectorSpace, cohomology, truncation_spans)
from pemb.linalg import Matrix
from pemb.modules import (DgModuleMorphism, FreeGenerator, algebra_as_module,
                          restrict_scalars, shifted_dual, solve_chain_maps)
from pemb.parser import parse_file


def empty_cone():
    r = sphere(6)
    x, _ = free_module(r, [], {}, DegreeWindow(0, 7))
    f = DgModuleMorphism(x, algebra_as_module(r),
                         GradedLinearMap.zero_map(x.space, r.space, 0))
    return semi_trivial_cone(f)


def pipeline_cone():
    """R = H^*(S^6), D = s^{-6}#H^*(S^2) over R, psi the top-degree map."""
    r = sphere(6, hi=7)
    q = sphere(2, hi=7)
    phi = CdgaMorphism(r, q, GradedLinearMap(r.space, q.space, 0,
                                             {0: Matrix.identity(QQ, 1)}))
    d = restrict_scalars(shifted_dual(algebra_as_module(q), 6), phi)
    psi, _ = solve_chain_maps(
        d, algebra_as_module(r),
        [("class", 6, {0: QQ.one}, r.basis_vec(6, 0))])
    psi.validate()
    return semi_trivial_cone(psi)


def test_cone_of_empty_module_is_base():
    cone = empty_cone()
    assert cone.leibniz is None
    assert cone.space.dims == cone.base.space.dims
    bounds = check_shift_bounds(cone)
    assert bounds.found and bounds.hi is None
    alg, incl = cone.to_cdga()
    assert incl.map.block(6).rank() == 1


def test_pipeline_cone_passes_leibniz():
    cone = pipeline_cone()
    assert cone.space.dims == {0: 1, 3: 1, 5: 1, 6: 1}
    assert cohomology(cone.complex).dims == {0: 1, 3: 1}
    assert cone.leibniz is None
    bounds = check_shift_bounds(cone)
    assert (bounds.lo, bounds.hi) == (3, 3)
    cone.to_cdga()


def witness_cone():
    """u^3-truncated polynomial base with two attached generators whose
    images multiply above the degree bounds: Leibniz genuinely fails."""
    r = materialize_free_cdga(QQ, [("u", 2)], {}, [{(0, 0, 0): 1}],
                              DegreeWindow(0, 8))
    x, _ = free_module(r, [FreeGenerator("a", 2), FreeGenerator("b", 4)],
                       {}, DegreeWindow(0, 8))
    u = r.basis_vec(2, 0)
    u2 = r.mul_vec(2, u, 2, u)
    blocks = {
        2: Matrix.from_cols(QQ, [u], 1),                  # f(a) = u
        4: Matrix.from_cols(QQ, [u2, u2], 1),             # f(u a) = f(b) = u^2
    }
    f = DgModuleMorphism(x, algebra_as_module(r),
                         GradedLinearMap(x.space, r.space, 0, blocks))
    f.validate()
    return semi_trivial_cone(f)


def test_frozen_leibniz_failure_witness():
    cone = witness_cone()
    rep = cone.leibniz
    assert rep is not None
    (d1, _), (d2, _) = rep.basis
    l1, l2 = rep.labels
    assert (d1, l1) == (1, "sa")
    assert (d2, l2) == (3, "sb")
    assert rep.degree == 5
    # defect = s(u^2 a) - s(u b) in the ordered degree-5 basis
    assert rep.defect == {0: QQ.one, 1: QQ.of(-1)}
    assert not check_shift_bounds(cone).found
    with pytest.raises(ConeError):
        cone.to_cdga()


def test_acyclic_truncation_of_pipeline_cone():
    cone = pipeline_cone()
    ideal = build_acyclic_truncation(cone, 4)
    assert {d: len(vs) for d, vs in ideal.items()} == {5: 1, 6: 1}
    # d maps the degree-5 suspended class onto e6
    tc = truncated_cone(cone, ideal, 3, 3)
    assert tc.algebra.space.dims == {0: 1, 3: 1}
    # the ideal is acyclic: the quotient keeps the cone's cohomology
    assert cohomology(tc.algebra.complex).dims == cohomology(cone.complex).dims
    assert mul_basis(tc.algebra, 3, 0, 3, 0) == {}
    assert tc.base_map.map.block(6).is_zero()
    assert tc.base_map.map.block(0).rank() == 1


def test_acyclic_truncation_rejects_visible_cohomology():
    cone = pipeline_cone()
    with pytest.raises(ConeError, match="connectivity hypothesis violated"):
        build_acyclic_truncation(cone, 3)


def test_truncated_cone_rejects_bad_bounds():
    cone = pipeline_cone()
    ideal = build_acyclic_truncation(cone, 4)
    with pytest.raises(ConeError, match="suspended part"):
        truncated_cone(cone, ideal, 4, 3)
    with pytest.raises(ConeError, match="not contained in the ideal"):
        truncated_cone(cone, {}, 3, 3)


def test_zero_ideal_with_plain_bounds_reduces_to_cone():
    cone = pipeline_cone()
    ideal = build_acyclic_truncation(cone, 7)  # empty above the window top
    assert ideal == {}
    tc = truncated_cone(cone, ideal, 3, 0)
    assert tc.algebra.space.dims == cone.space.dims


def test_truncated_cone_rejects_an_ideal_that_is_not_acyclic():
    """The line of e6 is closed under d and products and meets the
    bounds, but it is a cocycle and no coboundary: dividing it out adds
    the class of the degree-5 suspended element."""
    cone = pipeline_cone()
    with pytest.raises(ConeError, match=r"truncation ideal is not acyclic \(degree 5\)"):
        truncated_cone(cone, {6: [0]}, 3, 0)


def random_bounded_cone(rng, k):
    """Random cone satisfying the concentration bounds by construction."""
    j = rng.choice([d for d in range(2, 2 * k + 1)])
    r = sphere(j, hi=2 * k)
    gdeg = rng.randint(k + 1, 2 * k + 1)
    gens = [FreeGenerator("g%d" % i, gdeg)
            for i in range(rng.randint(1, 2))]
    x, _ = free_module(r, gens, {}, DegreeWindow(0, 2 * k + 1))
    sol = solve_chain_maps(x, algebra_as_module(r))
    f, kernel = sol
    glm = f.map
    for g in kernel:
        if rng.random() < 0.6:
            glm = add_maps(glm, g.map.scale(QQ.of(rng.randint(-2, 2))))
    f = DgModuleMorphism(x, algebra_as_module(r), glm)
    f.validate()
    return semi_trivial_cone(f)


def test_bounded_cones_always_pass_leibniz():
    rng = random.Random(20240818)
    for _ in range(25):
        k = rng.randint(2, 4)
        cone = random_bounded_cone(rng, k)
        bounds = check_shift_bounds(cone)
        assert bounds.found and bounds.admits(k)
        assert cone.leibniz is None
        cone.to_cdga()


def section_spans(complex_, cut):
    """The truncation as it was built by solving, a reference for
    `build_acyclic_truncation`: every basis vector from degree cut on,
    and in degree cut - 1 one solution of d w = z, free variables set
    to 0, for each z of the kernel basis in degree cut."""
    sp, d = complex_.space, complex_.d
    spans = {}
    z = d.block(cut).kernel_basis() if sp.dim(cut) else []
    if z:
        spans[cut - 1] = [d.block(cut - 1).solve(zv) for zv in z]
    for e in sp.degrees():
        if e >= cut:
            spans[e] = [{i: complex_.field.one} for i in range(sp.dim(e))]
    return spans


def reduced_span(field, vectors, dim):
    """{pivot column: reduced row} of the span of vectors in k^dim."""
    red, pivots = Matrix.sparse(field, vectors, dim).rref()
    return dict(zip(pivots, red.rows))


def assert_same_truncation(complex_, cut, ideal):
    """The basis indices `ideal` span what the solved sections span."""
    field, want = complex_.field, section_spans(complex_, cut)
    for d in complex_.space.degrees():
        n = complex_.space.dim(d)
        got = reduced_span(field, [{i: field.one} for i in ideal.get(d, [])], n)
        assert got == reduced_span(field, want.get(d, []), n), (cut, d)


def test_truncation_matches_the_solved_sections_on_the_examples(monkeypatch):
    seen = []

    def recorded(cone, cut):
        spans = build_acyclic_truncation(cone, cut)
        seen.append((cone, cut, spans))
        return spans
    monkeypatch.setattr(pipeline, "build_acyclic_truncation", recorded)
    reached = []
    for name in sorted(cli.EXAMPLES):
        del seen[:]
        try:
            pipeline.complement_model(parse_file(str(cli.example_path(name)))
                                      .embedding_problem())
        except pipeline.PipelineError:
            pass
        for cone, cut, spans in seen:
            assert_same_truncation(cone.complex, cut, spans)
            reached.append(name)
    assert reached == ["cp1_in_cp2_gysin", "cp2_in_s8", "point_in_sn", "s2_in_s6",
                       "s2_in_s9_stable", "wedge_in_s8"]


def test_truncation_matches_the_solved_sections_on_random_cones():
    """Every cut above the cohomology of 300 random cones; the truncation
    has a part in degree cut - 1 in 30 of the 354 cases."""
    checked = sections = 0
    for seed in range(300):
        rng = random.Random(seed)
        cone = random_bounded_cone(rng, rng.randint(2, 4))
        top = max(cone.space.degrees())
        for cut in range(max(cohomology(cone.complex).dims) + 1, top + 2):
            spans = build_acyclic_truncation(cone, cut)
            assert_same_truncation(cone.complex, cut, spans)
            checked += 1
            sections += cut - 1 in spans
    assert (checked, sections) == (354, 30)


def test_truncation_matches_the_solved_sections_on_random_complexes():
    """Degrees 1, 2, 3 with H^2 = H^3 = 0: d1 random, d2 the rows of a
    basis of the y with y d1 = 0.  Unlike the cones above, d1 often has
    rank 2 or more (35 of the 60), so the part in degree 1 needs every
    pivot."""
    rng = random.Random(20261019)
    ranks = []
    for _ in range(60):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        d1 = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(a)] for _ in range(b)])
        d2 = Matrix.sparse(QQ, d1.transpose().kernel_basis(), b)
        sp = GradedVectorSpace(QQ, DegreeWindow(0, 3), {1: a, 2: b, 3: d2.nrows})
        cx = CochainComplex(sp, GradedLinearMap(sp, sp, 1, {1: d1, 2: d2}))
        assert all(d < 2 for d in cohomology(cx).dims)
        spans = truncation_spans(cx, 1)
        assert_same_truncation(cx, 2, spans)
        ranks.append(len(spans.get(1, [])))
    assert sum(r >= 2 for r in ranks) == 35
