import random

import pytest

from builders import complex_projective, record_cohomology_constructions, run_cli, sphere
from dense import add_maps, col
from homotopy import HomComplex, homotopy_classes
from pemb import cli
from pemb.algebra import CdgaMorphism, check_poincare_duality, materialize_free_cdga
from pemb.duality import (DualityError, TopDegreeMap, construct_top_degree,
                          dual_morphism_top_degree, gysin_map,
                          verify_scalar_uniqueness)
from pemb.fields import QQ
from pemb.graded import DegreeWindow, GradedLinearMap, cohomology
from pemb.linalg import Matrix
from pemb.modules import (algebra_as_module, restrict_scalars, semifree_resolution,
                          shifted_dual)


def sphere_restriction(n, k, hi):
    r = sphere(n, hi=hi)
    q = sphere(k, hi=hi)
    glm = GradedLinearMap(r.space, q.space, 0, {0: Matrix.identity(QQ, 1)})
    return CdgaMorphism(r, q, glm)


def test_identity_is_top_degree():
    r = sphere(6)
    m = algebra_as_module(r)
    psi = construct_top_degree(m, m, 6)
    assert psi.hn == QQ.one
    assert psi.validate() == QQ.one


def test_pipeline_top_degree_map():
    phi = sphere_restriction(6, 2, 7)
    d = restrict_scalars(shifted_dual(algebra_as_module(phi.target), 6), phi)
    psi = construct_top_degree(d, algebra_as_module(phi.source), 6)
    assert psi.validate() == QQ.one
    assert psi.map.map.apply(6, {0: QQ.one}) == {0: QQ.one}
    assert psi.map.map.block(4).is_zero()


def test_top_degree_on_projective_dual():
    r = complex_projective(2, hi=5)
    d = shifted_dual(algebra_as_module(r), 4)
    assert d.space.dims == {0: 1, 2: 1, 4: 1}
    psi = construct_top_degree(d, algebra_as_module(r), 4)
    assert psi.validate() == QQ.one


def test_scalar_uniqueness_on_scaled_map():
    phi = sphere_restriction(6, 2, 7)
    d = restrict_scalars(shifted_dual(algebra_as_module(phi.target), 6), phi)
    psi = construct_top_degree(d, algebra_as_module(phi.source), 6)
    doubled = TopDegreeMap(psi.map.scale(QQ.of(2)), 6, QQ.of(2),
                           psi.source_generator, psi.target_generator)
    assert doubled.validate() == QQ.of(2)
    u, h = verify_scalar_uniqueness(psi, doubled)
    assert u == QQ.div(QQ.of(1), QQ.of(2))
    assert h.is_zero()


def test_scalar_uniqueness_after_coboundary_shift():
    r = complex_projective(2, hi=5)
    d = shifted_dual(algebra_as_module(r), 4)
    m = algebra_as_module(r)
    psi = construct_top_degree(d, m, 4)
    hc = HomComplex(d, m)
    changed = psi
    for h0 in hc.basis.get(-1, []):
        delta = hc._delta(h0, -1)
        from pemb.modules import DgModuleMorphism
        changed = TopDegreeMap(
            DgModuleMorphism(d, m, add_maps(changed.map.map, delta)),
            4, psi.hn, psi.source_generator, psi.target_generator)
    assert changed.validate() == psi.validate()
    u, h = verify_scalar_uniqueness(psi, changed)
    assert u == QQ.one


def test_gysin_identity():
    v = complex_projective(1, hi=3)
    cert, fail = check_poincare_duality(v, 2)
    assert fail is None
    ident = CdgaMorphism(v, v, GradedLinearMap.identity(v.space))
    g = gysin_map(ident, cert, cert, 0)
    assert g.map.map.block(0).rank() == 1
    assert g.map.map.block(2) == Matrix.identity(QQ, 1)


def test_gysin_cp1_in_cp2():
    w = complex_projective(2, hi=5)
    v = complex_projective(1, hi=5)
    cert_w, _ = check_poincare_duality(w, 4)
    cert_v, _ = check_poincare_duality(v, 2)
    hf = CdgaMorphism(w, v, GradedLinearMap(
        w.space, v.space, 0,
        {0: Matrix.identity(QQ, 1), 2: Matrix(QQ, [[1]])}))
    g = gysin_map(hf, cert_w, cert_v, 2)
    # f^!(s^{-2} 1) = x and f^!(s^{-2} u) = x^2
    assert g.map.map.block(2) == Matrix(QQ, [[1]])
    assert g.map.map.block(4) == Matrix(QQ, [[1]])


def test_gysin_first_factor_of_two_spheres():
    w = materialize_free_cdga(QQ, [("a", 3), ("b", 3)], {}, [],
                              DegreeWindow(0, 7))
    v = sphere(3, hi=7)
    cert_w, fail_w = check_poincare_duality(w, 6)
    cert_v, fail_v = check_poincare_duality(v, 3)
    assert fail_w is None and fail_v is None
    hf = CdgaMorphism(w, v, GradedLinearMap(
        w.space, v.space, 0,
        {0: Matrix.identity(QQ, 1), 3: Matrix(QQ, [[1, 0]])}))
    g = gysin_map(hf, cert_w, cert_v, 3)
    col0 = col(g.map.map.block(3), 0)
    assert col0 in (((QQ.zero), QQ.one), (QQ.zero, QQ.of(-1)))
    assert g.map.map.block(6).rank() == 1


def test_dual_morphism_top_degree():
    phi = sphere_restriction(6, 2, 7)
    t = dual_morphism_top_degree(phi, 6)
    assert t.map.source.space.dims == {4: 1, 6: 1}
    assert t.map.target.space.dims == {0: 1, 6: 1}
    assert t.map.map.block(6) == Matrix(QQ, [[1]])
    assert t.map.map.block(4).is_zero()
    assert t.hn == QQ.one


def test_dual_morphism_identity():
    r = sphere(6)
    ident = CdgaMorphism(r, r, GradedLinearMap.identity(r.space))
    t = dual_morphism_top_degree(ident, 6)
    assert t.map.map.block(0) == Matrix.identity(QQ, 1)
    assert t.map.map.block(6) == Matrix.identity(QQ, 1)


def test_homotopy_class_dimension_matches_top_line():
    # chain-homotopy classes D -> R biject with maps H^n(D) -> H^n(R)
    phi = sphere_restriction(6, 2, 7)
    d = restrict_scalars(shifted_dual(algebra_as_module(phi.target), 6), phi)
    res = semifree_resolution(d, window=DegreeWindow(0, 7))
    res.module.validate()
    hc = homotopy_classes(res.module, algebra_as_module(phi.source))
    assert hc.dimension == 1
    hc.representatives[0].validate()


def test_gysin_computes_each_cohomology_once(monkeypatch):
    # the umkehr map's check reads the H^n lines of the cohomology that
    # chose its generators: the two complexes `duality` reads have their
    # cohomology built once each
    from pemb import duality
    calls = []

    def counted(complex_):
        calls.append(complex_)
        return cohomology(complex_)

    monkeypatch.setattr(duality, "cohomology", counted)
    built = record_cohomology_constructions(monkeypatch)
    code, out, _ = run_cli(["gysin", str(cli.example_path("cp1_in_cp2_gysin"))])
    assert code == 0 and "umkehr" in out
    read = {id(cx) for cx in calls}
    assert len(read) == 2
    assert sorted(id(cx) for cx in built if id(cx) in read) == sorted(read)
