import sys
from pathlib import Path

import pytest

from builders import (S3S1_IN_S3S11, SULLIVAN_S2_IN_S9, run_cli, sphere, sullivan_cp2,
                      tables_match, torus_s1_s7, wedge_s2_s4)
from pemb import cli, duality, pipeline
from pemb.algebra import CdgaMorphism, materialize_free_cdga
from pemb.checks import check_cdga, check_cdga_morphism
from pemb.fields import QQ
from pemb.graded import DegreeWindow, GradedLinearMap, cohomology
from pemb.linalg import Matrix
from pemb.parser import parse
from pemb.pipeline import (EmbeddingProblem, HypothesisError, PipelineError,
                           alexander_oracle, analyze, complement_model,
                           dgmodule_square, gysin, lefschetz,
                           oracle_complement_dims, punctured_square,
                           reduced_homology_dims, stable_square)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's problem generator)


def zero_morphism(r, q):
    """Unital morphism killing everything of positive degree."""
    glm = GradedLinearMap(r.space, q.space, 0, {0: Matrix.identity(QQ, 1)})
    return CdgaMorphism(r, q, glm)


def point_algebra(hi):
    return materialize_free_cdga(QQ, [], {}, [], DegreeWindow(0, hi))


def s2_in_s6():
    return EmbeddingProblem([zero_morphism(sphere(6, hi=7), sphere(2, hi=7))], 6)


def wedge_in_s8():
    return EmbeddingProblem([zero_morphism(sphere(8, hi=9), wedge_s2_s4(hi=9))], 8)


def cp2_in_s8():
    # hi=8 keeps the model free of clipped-differential artifacts in the
    # top window degree
    return EmbeddingProblem([zero_morphism(sphere(8, hi=9), sullivan_cp2(hi=8))], 8)


def two_s7_in_s15():
    r = sphere(15, hi=16)
    q = sphere(7, hi=16)
    return EmbeddingProblem([zero_morphism(r, q), zero_morphism(r, q)], 15)


def test_analyze_s2_in_s6():
    rep = analyze(s2_in_s6())
    assert rep.m == 2 and rep.r == 2
    assert rep.codimension == 4 and rep.codimension_ok
    assert rep.unknotting and rep.pd_failure is None


def test_analyze_wedge_equality_case():
    rep = analyze(wedge_in_s8())
    assert rep.m == 4 and rep.r == 2
    assert rep.unknotting_bound == 2
    assert rep.unknotting and rep.r == rep.unknotting_bound


def test_analyze_hopf_torus_fails_unknotting():
    p = EmbeddingProblem(
        [zero_morphism(sphere(15, hi=16), torus_s1_s7(hi=16))], 15)
    rep = analyze(p)
    assert rep.m == 8 and rep.r == 1
    assert not rep.unknotting
    with pytest.raises(HypothesisError):
        complement_model(p)


def test_complement_s2_in_s6():
    out = complement_model(s2_in_s6())
    assert out.h_dims == {0: 1, 3: 1}
    assert not any(d1 > 0 and d2 > 0 for (d1, _, d2, _) in out.h_algebra.product)
    assert out.h_dims == oracle_complement_dims(s2_in_s6())


def test_complement_wedge_in_s8():
    out = complement_model(wedge_in_s8())
    assert out.h_dims == {0: 1, 3: 1, 5: 1}
    assert out.h_dims == oracle_complement_dims(wedge_in_s8())


def test_complement_cp2_in_s8():
    out = complement_model(cp2_in_s8())
    assert out.h_dims == {0: 1, 3: 1, 5: 1}


def test_complement_point_in_s9():
    p = EmbeddingProblem([zero_morphism(sphere(9, hi=10), point_algebra(10))], 9)
    rep = analyze(p)
    assert rep.m == 0 and rep.r == 8
    out = complement_model(p)
    assert out.h_dims == {0: 1}


def test_stable_square_s2_in_s9():
    p = EmbeddingProblem([zero_morphism(sphere(9, hi=10), sphere(2, hi=10))], 9)
    sq = stable_square(p)
    assert sq.h_bottom_left == {0: 1, 6: 1}
    assert sq.h_bottom_right == {0: 1, 2: 1, 6: 1, 8: 1}
    assert sq.commutes
    assert sq.notes["shift bound k"] == 6


def test_stable_square_normalizes_a_sullivan_target(tmp_path):
    """S^2 as (x2, y3 ; dy = x^2) in S^9.  The target has basis elements
    up to degree 10, so the square normalizes it to 1, x, y, x^2 (the
    ambient stays as parsed) and builds phi between the normalized
    algebras; its tables and certificates are those of S^2 in S^9."""
    problem = parse(SULLIVAN_S2_IN_S9).embedding_problem()
    sq = stable_square(problem)
    assert sq.top_left is problem.ambient
    assert sq.top_right is not problem.target and sq.top_map is not problem.phi
    assert sq.top_right.space.dims == {0: 1, 2: 1, 3: 1, 4: 1}
    assert cohomology(sq.top_right.complex).dims == {0: 1, 2: 1}
    assert check_cdga(sq.top_right) is None and check_cdga_morphism(sq.top_map) is None
    assert sq.h_bottom_left == {0: 1, 6: 1}
    assert sq.h_bottom_right == {0: 1, 2: 1, 6: 1, 8: 1}
    assert sq.commutes
    assert sq.notes == {"psi route": "direct", "leibniz left": "pass",
                        "leibniz right": "pass", "shift bound k": 6}
    path = tmp_path / "sullivan_s2_in_s9.pemb"
    path.write_text(SULLIVAN_S2_IN_S9)
    code, out, _ = run_cli(["stable-square", str(path)])
    assert code == 0
    assert out.splitlines() == [
        "stable square", "bottom-left H: deg 0:1, deg 6:1",
        "bottom-right H: deg 0:1, deg 2:1, deg 6:1, deg 8:1", "square commutes: True",
        "leibniz left: pass", "leibniz right: pass", "psi route: direct",
        "shift bound k: 6"]


def test_stable_square_needs_stable_range():
    with pytest.raises(HypothesisError, match="stable range"):
        stable_square(s2_in_s6())


# CP^1 in CP^4 twice, the ambient as k[y]/y^5 and as its Sullivan model
# (y2, z9 ; dz = y^5), and S^2 in S^9 with an ambient whose presentation
# is not minimal, (a3, b4, e9 ; da = b)
STABLE_RANGE_AMBIENTS = {
    "cp1_in_cp4": ("window 0 9", "generator y deg 2 ; relation y^5", "y -> x", 8),
    "cp1_in_sullivan_cp4": ("window 0 10", "generator y deg 2 ; generator z deg 9 ; "
                            "d z = y^5", "y -> x ; z -> 0", 8),
    "s2_in_nonminimal_s9": ("window 0 10", "generator a deg 3 ; generator b deg 4 ; "
                            "generator e deg 9 ; d a = b", "a -> 0 ; b -> 0 ; e -> 0", 9),
}


def stable_range_problem(key):
    window, ambient, images, n = STABLE_RANGE_AMBIENTS[key]
    return "\n".join(["field rational", window, "cdga R { %s }" % ambient,
                      "cdga Q { generator x deg 2 ; relation x^2 }",
                      "morphism f : R -> Q { %s }" % images,
                      "problem { ambient R dim %d ; embedded Q via f }" % n])


def test_stable_square_finds_psi_on_the_resolution(tmp_path):
    """psi has one route, the solve on the resolution of D restricted to
    the ambient; it succeeds on a polynomial, a Sullivan and a
    non-minimal ambient, and the two models of CP^4 give one report."""
    outs = {}
    for key in STABLE_RANGE_AMBIENTS:
        path = tmp_path / (key + ".pemb")
        path.write_text(stable_range_problem(key))
        code, outs[key], err = run_cli(["stable-square", str(path)])
        assert (code, err) == (0, "")
        assert "psi route: direct" in outs[key].splitlines()
        assert "square commutes: True" in outs[key].splitlines()
    assert outs["cp1_in_cp4"] == outs["cp1_in_sullivan_cp4"]


def test_failed_top_degree_solve_is_a_hypothesis_failure(monkeypatch):
    """A top-degree solve without a solution is one DualityError for both
    callers, which the pipelines name as a hypothesis failure (exit 1)."""
    monkeypatch.setattr(duality, "solve_chain_maps", lambda *args: None)
    for sub, name, n in (("complement", "s2_in_s6", 6),
                         ("stable-square", "s2_in_s9_stable", 9)):
        code, out, err = run_cli([sub, str(cli.example_path(name))])
        assert (code, out) == (1, "")
        assert err == ("hypothesis failure: no top-degree map: no linear chain map "
                       "carries H^%d of the source module onto the target's\n" % n)


def test_dgmodule_square_two_s7():
    sq = dgmodule_square(two_s7_in_s15())
    assert sq.h_bottom_left == {0: 1, 7: 2, 14: 1}
    assert sq.commutes
    assert sq.notes["branches"] == 2


def test_stacked_branches_build_no_zero_block(monkeypatch):
    """A menorah's phi stacks the stored blocks of its branches, and a
    degree where a branch stores none as zero rows: building the problem
    makes no zero matrix, and every block is the branch blocks stacked."""
    texts = [cli.example_path("two_s7_in_s15").read_text(),
             ladder.build("menorah_fp", 1).problems["menorah8"].text]
    for text in texts:
        pf = parse(text)

        def forbidden(*args):
            raise AssertionError("built a zero block")
        with monkeypatch.context() as patched:
            patched.setattr(Matrix, "zero", staticmethod(forbidden))
            problem = pf.embedding_problem()
        assert problem.is_menorah
        for d in problem.ambient.space.degrees():
            block = problem.phi.map.block(d)
            assert block.rows == tuple(row for b in problem.branches
                                       for row in b.map.block(d).rows)
            assert block.ncols == problem.ambient.space.dim(d)


def test_mixed_link_matches_the_alexander_tables(monkeypatch, tmp_path):
    """Two S^3 and one S^5 in S^12: the two S^3 share one resolution and
    the S^5 has its own, and both reports give the closed-form tables of
    Alexander duality and of the tube boundary, over Q and F_p."""
    n, dims = 12, [3, 5, 3]
    names = ["A", "B", "C"]
    text = ["field rational", "window 0 %d" % (n + 1), "cdga R { generator e deg %d }" % n]
    text += ["cdga %s { generator g%s deg %d }" % (q, q, d) for q, d in zip(names, dims)]
    text += ["morphism f%s : R -> %s { e -> 0 }" % (q, q) for q in names]
    text += ["problem { ambient R dim %d ; %s }"
             % (n, " ; ".join("embedded %s via f%s" % (q, q) for q in names))]
    path = tmp_path / "mixed.pemb"
    path.write_text("\n".join(text) + "\n")
    reduced = {0: len(dims) - 1}
    for d in dims:
        reduced[d] = reduced.get(d, 0) + 1
    boundary = {}
    for d in dims:
        for k, c in ladder.poincare_product([{0: 1, d: 1}, {0: 1, n - d - 1: 1}]).items():
            boundary[k] = boundary.get(k, 0) + c
    prob = ladder.Problem(path.read_text(), n, max(dims),
                          ladder.alexander_table(reduced, n), boundary)
    assert prob.complement == {0: 1, 6: 1, 8: 2, 11: 2}
    resolutions = []
    semifree = pipeline.semifree_resolution

    def counted(*args, **kwargs):
        resolutions.append(args[0])
        return semifree(*args, **kwargs)

    monkeypatch.setattr(pipeline, "semifree_resolution", counted)
    for command, extra in (("dgmodule-square", []), ("dgmodule-square", ["--field", "10007"]),
                           ("lefschetz", [])):
        job = ladder.Job(command, "mixed")
        code, out, err = run_cli([command, str(path)] + extra)
        assert ladder.check(job, prob, code, out, err) == [], (command, out, err)
    assert len(resolutions) == 4


def test_lefschetz_menorah_undetermined():
    out = lefschetz(two_s7_in_s15())
    assert out.h_dims == {0: 1, 7: 2, 14: 1}
    assert out.algebra_undetermined
    assert out.h_algebra is None


def test_lefschetz_s2_in_s6_matches_complement():
    lf = lefschetz(s2_in_s6())
    assert not lf.algebra_undetermined
    assert lf.h_dims == {0: 1, 3: 1}
    cm = complement_model(s2_in_s6())
    assert tables_match(lf.h_algebra, cm.h_algebra)


def test_lefschetz_wedge_matches_complement():
    lf = lefschetz(wedge_in_s8())
    cm = complement_model(wedge_in_s8())
    assert lf.h_dims == cm.h_dims == {0: 1, 3: 1, 5: 1}
    assert tables_match(lf.h_algebra, cm.h_algebra)


def test_punctured_square_s2_in_s6():
    p = s2_in_s6()
    with pytest.raises(HypothesisError, match="attest"):
        punctured_square(p)
    sq = punctured_square(p, attest_boundary_simply_connected=True)
    assert sq.h_bottom_left == {0: 1, 3: 1}
    assert sq.h_bottom_right == {0: 1, 2: 1, 3: 1}
    assert sq.commutes
    assert "kills one degree-5 class" in sq.notes["embedded-side projection"]


def test_gysin_pipeline_cp1_in_cp2():
    from builders import complex_projective
    w = complex_projective(2, hi=5)
    v = complex_projective(1, hi=5)
    hf = CdgaMorphism(w, v, GradedLinearMap(
        w.space, v.space, 0,
        {0: Matrix.identity(QQ, 1), 2: Matrix(QQ, [[1]])}))
    out = gysin(EmbeddingProblem([hf], 4))
    assert out.codimension == 2
    assert out.map.map.map.block(2) == Matrix(QQ, [[1]])
    assert out.map.map.map.block(4) == Matrix(QQ, [[1]])


def test_the_oracle_needs_a_cohomology_sphere_ambient(tmp_path):
    """Alexander duality in S^n predicts the complement only inside a
    cohomology n-sphere.  For S^3 x S^1 in S^3 x S^11 it would predict
    {0:1, 9:1, 10:1, 12:1} against the correct H(S^3 x S^9), so the
    report says the oracle does not apply."""
    path = tmp_path / "p.pemb"
    path.write_text(S3S1_IN_S3S11)
    assert oracle_complement_dims(parse(S3S1_IN_S3S11).embedding_problem()) is None
    code, out, _ = run_cli(["complement", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "H^*(C): deg 0:1, deg 3:1, deg 9:1, deg 12:1"
    assert out.splitlines()[-1] == ("independent dimension oracle: not applicable "
                                    "(ambient is not a cohomology n-sphere)")
    code, out, _ = run_cli(["complement", str(cli.example_path("s2_in_s6"))])
    assert "independent dimension oracle: {0:1, 3:1} : MATCH" in out.splitlines()


def test_a_false_attestation_is_a_hypothesis_failure(tmp_path):
    """S^3 x S^1 in S^3 x S^11 has a boundary that is not simply
    connected.  Attested anyway, `punctured-square` builds a map between
    its quotient cones that is not multiplicative: the attested
    hypothesis fails (exit 1, with the map's witness), where the input
    is not malformed (exit 2)."""
    path = tmp_path / "p.pemb"
    path.write_text(S3S1_IN_S3S11)
    code, out, err = run_cli(["punctured-square", str(path),
                              "--attest-boundary-simply-connected"])
    assert (code, out) == (1, "")
    assert err == ("hypothesis failure: attested boundary simple connectivity fails: "
                   "morphism not multiplicative on (x, sv10_0)\n")


def test_alexander_oracle():
    assert alexander_oracle({2: 1}, 6) == {3: 1}
    assert alexander_oracle({2: 1, 4: 1}, 8) == {5: 1, 3: 1}
    red = reduced_homology_dims(two_s7_in_s15().target)
    assert red == {0: 1, 7: 2}
    assert alexander_oracle(red, 15) == {14: 1, 7: 2}


@pytest.mark.parametrize("workload, key", [("torus_checks", "torus3"),
                                           ("torus_checks", "torus4"),
                                           ("sphere_quotient", "spheres2"),
                                           ("sphere_quotient", "spheres3")])
def test_dgmodule_square_over_f_p_prints_the_rational_cohomology(tmp_path, workload, key):
    """The rational rungs of the ladder at seed 1 have integral data and
    torsion-free cohomology, so `dgmodule-square --field 10007` resolves
    them to the same bottom cohomology as over Q: the two `H` lines of
    both reports agree, and are the Alexander tables."""
    prob = ladder.build(workload, 1).problems[key]
    path = tmp_path / "p.pemb"
    path.write_text(prob.text)
    reports = []
    for extra in ([], ["--field", "10007"]):
        code, out, err = run_cli(["dgmodule-square", str(path)] + extra)
        assert (code, err) == (0, "")
        reports.append([line for line in out.splitlines()
                        if line.startswith(("bottom-left H: ", "bottom-right H: "))])
    assert len(reports[0]) == 2
    assert reports[0] == reports[1]
    job = ladder.Job("dgmodule-square", key)
    assert reports[0] == ladder.expected_lines(job, prob)[:2]
