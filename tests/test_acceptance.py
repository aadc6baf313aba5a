"""Acceptance suite: one printed pass/fail line per criterion.

The printed lines bypass capture so they always appear in the run log.
"""

import random
import sys

import pytest

from builders import (complex_projective, product_s2_s4, random_semifree, run_cli,
                      sphere, tables_match)
from dense import add_maps
from pemb import cli
from pemb.duality import (TopDegreeMap, construct_top_degree,
                          verify_scalar_uniqueness)
from pemb.fields import QQ
from pemb.graded import DegreeWindow, cohomology
from homotopy import homotopy_classes
from pemb.modules import DgModuleMorphism, algebra_as_module, solve_chain_maps
from pemb.parser import parse_file
from pemb.pipeline import complement_model, lefschetz
from pemb.cones import check_shift_bounds
from test_cones import random_bounded_cone, witness_cone


def _criterion(num, description):
    def deco(fn):
        def wrapped(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print("criterion %02d: FAIL - %s" % (num, description),
                      file=sys.__stdout__)
                raise
            print("criterion %02d: PASS - %s" % (num, description),
                  file=sys.__stdout__)
        wrapped.__name__ = fn.__name__
        return wrapped
    return deco


@_criterion(1, "unknot baseline complement matches the duality oracle")
def test_criterion_01_unknot_baseline():
    code, out, _ = run_cli(["complement", str(cli.example_path("s2_in_s6"))])
    assert code == 0
    assert "H^*(C): deg 0:1, deg 3:1" in out
    assert "all positive products zero" in out
    assert "independent dimension oracle: {0:1, 3:1} : MATCH" in out


@_criterion(2, "wedge instance: trivial multiplication and equality case")
def test_criterion_02_wedge_instance():
    path = str(cli.example_path("wedge_in_s8"))
    code, out, _ = run_cli(["complement", path])
    assert code == 0
    assert "H^*(C): deg 0:1, deg 3:1, deg 5:1" in out
    assert "all positive products zero" in out
    code, out, _ = run_cli(["analyze", path])
    assert code == 0
    assert "unknotting: r=2 >= 2m-n+2=2 : PASS (equality)" in out


@_criterion(3, "two-sphere family: dims fixed, algebra flagged undetermined")
def test_criterion_03_knottedness_flag():
    code, out, _ = run_cli(["lefschetz", str(cli.example_path("two_s7_in_s15"))])
    assert code == 0
    assert "H^*(C): deg 0:1, deg 7:2, deg 14:1" in out
    assert "algebra undetermined (unknotting fails)" in out


@_criterion(4, "stable-range square with certified cone products")
def test_criterion_04_stable_square():
    code, out, _ = run_cli(["stable-square",
                            str(cli.example_path("s2_in_s9_stable"))])
    assert code == 0
    assert "bottom-left H: deg 0:1, deg 6:1" in out
    assert "bottom-right H: deg 0:1, deg 2:1, deg 6:1, deg 8:1" in out
    assert "square commutes: True" in out
    assert "leibniz left: pass" in out and "leibniz right: pass" in out


@_criterion(5, "punctured square with both projection certificates")
def test_criterion_05_punctured_square():
    code, out, _ = run_cli(["punctured-square",
                            str(cli.example_path("s2_in_s6")),
                            "--attest-boundary-simply-connected"])
    assert code == 0
    assert "bottom-right H: deg 0:1, deg 2:1, deg 3:1" in out
    assert "ambient-side projection: quasi-isomorphism" in out
    assert "embedded-side projection: kills one degree-5 class" in out
    assert "square commutes: True" in out


def _duality_bases():
    return [(sphere(3, hi=4), 3),
            (complex_projective(2, hi=5), 4),
            (product_s2_s4(hi=7), 6)]


def _random_instances(count_per_base):
    rng = random.Random(20240820)
    out = []
    for a, n in _duality_bases():
        for _ in range(count_per_base):
            p = random_semifree(a, rng, rng.randint(1, 3), n - 1,
                                DegreeWindow(0, a.space.window.hi))
            out.append((a, n, p, rng.random()))
    return out


@_criterion(6, "homotopy classes into the base count top-degree maps "
               "(>=100 random semifree modules)")
def test_criterion_06_homotopy_class_dimension():
    instances = _random_instances(34)
    assert len(instances) >= 100
    for a, n, p, _ in instances:
        target = algebra_as_module(a)
        hc = homotopy_classes(p, target)
        for f in hc.representatives:
            f.validate()
        coh_p = cohomology(p.complex)
        expected = coh_p.dim(n) * 1     # top cohomology of the base is a line
        assert hc.dimension == expected, (n, coh_p.dims)


@_criterion(7, "top-degree maps exist and are unique up to scalar and "
               "homotopy on every line-topped instance")
def test_criterion_07_scalar_uniqueness():
    instances = _random_instances(34)
    checked = 0
    for a, n, p, salt in instances:
        coh_p = cohomology(p.complex)
        if coh_p.dim(n) != 1:
            continue
        target = algebra_as_module(a)
        psi = construct_top_degree(p, target, n)
        psi.validate()
        # an independently normalized second construction
        c = QQ.of(2 + int(salt * 3))
        gen_t = {i: c * x for i, x in psi.target_generator.items()}
        sol = solve_chain_maps(p, target,
                               [("class", n, psi.source_generator, gen_t)])
        assert sol is not None
        m2, kernel = sol
        glm = m2.map
        for g in kernel[:2]:
            glm = add_maps(glm, g.map)
        psi2 = TopDegreeMap(DgModuleMorphism(p, target, glm), n, c,
                            psi.source_generator, psi.target_generator)
        psi2.validate()
        u, _ = verify_scalar_uniqueness(psi, psi2)
        assert u == QQ.div(QQ.one, c)
        checked += 1
    assert checked >= 30


@_criterion(8, "degree-bounded cones always satisfy Leibniz "
               "(>=100 random cones) and the frozen witness still fails")
def test_criterion_08_cone_bounds():
    rng = random.Random(20240821)
    for _ in range(100):
        k = rng.randint(2, 4)
        cone = random_bounded_cone(rng, k)
        bounds = check_shift_bounds(cone)
        assert bounds.found and bounds.admits(k)
        assert cone.leibniz is None
        cone.to_cdga()
    cone = witness_cone()
    rep = cone.leibniz
    assert rep is not None
    (d1, _), (d2, _) = rep.basis
    l1, l2 = rep.labels
    assert (d1, l1) == (1, "sa") and (d2, l2) == (3, "sb")
    assert rep.degree == 5
    assert rep.defect == {0: QQ.one, 1: QQ.of(-1)}


@_criterion(9, "wrong-way map on the projective pair")
def test_criterion_09_gysin():
    code, out, _ = run_cli(["gysin", str(cli.example_path("cp1_in_cp2_gysin"))])
    assert code == 0
    assert "umkehr map certified in codimension 2" in out
    assert "degree 2 block: [['1']]" in out
    assert "degree 4 block: [['1']]" in out


@_criterion(10, "complement and duality-cone pipelines agree on the corpus")
def test_criterion_10_cross_validation():
    for name in ("s2_in_s6", "wedge_in_s8", "cp2_in_s8", "point_in_sn"):
        pf = parse_file(str(cli.example_path(name)))
        problem = pf.embedding_problem()
        cm = complement_model(problem)
        lf = lefschetz(problem)
        assert not lf.algebra_undetermined, name
        assert lf.h_dims == cm.h_dims, name
        assert tables_match(lf.h_algebra, cm.h_algebra), name


@_criterion(11, "module square dimensions agree over the rationals and F_2")
def test_criterion_11_field_generality():
    path = str(cli.example_path("two_s7_in_s15"))
    code, out_q, _ = run_cli(["dgmodule-square", path])
    assert code == 0
    code, out_2, _ = run_cli(["dgmodule-square", path, "--field", "2"])
    assert code == 0
    rows = lambda t: [l for l in t.splitlines() if l.startswith("bottom")]
    assert rows(out_q) == rows(out_2)
    assert "bottom-left H: deg 0:1, deg 7:2, deg 14:1" in out_q
