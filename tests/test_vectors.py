"""The one vector form: {index: nonzero scalar} everywhere below the reports.

Every table value, unit, differential row and cohomology representative
of the builders' algebras and of every shipped example (the parsed
algebras, their cohomology algebras, the complement models, shifted duals
and cone modules) must be a dict with nonzero field scalars at indices
inside its degree.  Over Q a scalar is an int, or a Fraction only when it
has a denominator.  The tables are also compared, with dense values,
against the dense loops of `dense`, `test_linalg` and `test_modules`,
over Q and F_5, and so is every quotient that a pipeline builds.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from builders import (S3S1_IN_S3S11, SULLIVAN_S2_IN_S9, complex_projective,
                      product_s2_s4, sphere, sullivan_cp2, torus_s1_s7, wedge_s2_s4)
from dense import (DenseCdga, col, cols, dense_apply, dense_table, is_zero_vec,
                   lift as lift_vec, top_degree, unit_vec)
from pemb import algebra, cli
from pemb.algebra import (AlgebraError, cohomology_algebra, materialize_free_cdga,
                          quotient_cdga)
from pemb.cones import semi_trivial_cone
from pemb.fields import FieldError, PrimeField, QQ
from pemb.graded import DegreeWindow, cohomology
from pemb.linalg import dense
from pemb.modules import (DgModuleMorphism, algebra_as_module, dual_module,
                          module_mapping_cone, shifted_dual, solve_chain_maps,
                          suspend_module)
from pemb.parser import parse_file
from pemb.pipeline import (HypothesisError, PipelineError, complement_model,
                           punctured_square, stable_square)
from test_linalg import DenseQuotienter, dense_cohomology, in_scalar_form
from test_modules import dense_cone_action, dense_cone_product, dense_dual_action

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's problem generator)

FIELDS = [QQ, PrimeField(5)]


def assert_vector(v, field, n):
    assert type(v) is dict, v
    for i, x in v.items():
        assert type(i) is int and 0 <= i < n, (i, n)
        assert in_scalar_form(field, x) and x, x


def assert_table(table, left, right, field):
    for (d1, i1, d2, i2), v in table.items():
        assert 0 <= i1 < left.dim(d1) and 0 <= i2 < right.dim(d2)
        assert v
        assert_vector(v, field, right.dim(d1 + d2))


def assert_sparse_differential(complex_):
    for d, block in complex_.d.blocks.items():
        for row in block.rows:
            assert_vector(row, complex_.field, complex_.space.dim(d))


def assert_sparse_cdga(a):
    assert a.unit
    assert_vector(a.unit, a.field, a.space.dim(0))
    assert_table(a.product, a.space, a.space, a.field)
    assert_table(a.both_orders, a.space, a.space, a.field)
    assert_sparse_differential(a.complex)


def assert_sparse_module(m):
    assert_table(m.action, m.algebra.space, m.space, m.field)
    assert_sparse_differential(m.complex)


def assert_sparse_cohomology(complex_):
    coh = cohomology(complex_)
    for deg, vs in coh.reps.items():
        for v in vs:
            assert v
            assert_vector(v, complex_.field, complex_.space.dim(deg))
    return coh


def dense_cohomology_table(a):
    """The product and unit of the cohomology algebra, from the dense
    representatives and the dense product."""
    da, sp = DenseCdga(a), a.space
    reps, reduce = {}, {}
    for d in sp.degrees():
        reps[d], reduce[d] = dense_cohomology(a.complex, d)
    product = {}
    for d1 in sp.degrees():
        for d2 in sp.degrees():
            if d1 + d2 > sp.window.hi:
                continue
            for i1, z1 in enumerate(reps[d1]):
                for i2, z2 in enumerate(reps[d2]):
                    v = da.mul_vec(d1, z1, d2, z2)
                    w = reduce[d1 + d2](v) if d1 + d2 in reduce else ()
                    if w and not is_zero_vec(w):
                        product[(d1, i1, d2, i2)] = w
    return product, reduce[0](da.unit)


def assert_cohomology_algebra_matches_dense(a):
    halg, _ = cohomology_algebra(a)
    assert_sparse_cdga(halg)
    product, unit = dense_cohomology_table(a)
    assert dense_table(halg.product, halg.space) == product
    assert dense(a.field, halg.unit, halg.space.dim(0)) == unit


def dense_quotient(a, ideal):
    """Product (in both orders), unit, d and projection of the quotient
    of a by a d-closed ideal given as degree -> basis indices, through
    dense quotients by the standard vectors at those indices and the
    dense product: d and the projection as {degree: dense columns}."""
    da, sp, field = DenseCdga(a), a.space, a.field
    reducers = {d: DenseQuotienter(field, [unit_vec(field, sp.dim(d), i)
                                           for i in ideal.get(d, [])], sp.dim(d))
                for d in sp.degrees()}

    def lift(d, i):
        return unit_vec(field, sp.dim(d), reducers[d].keep[i])

    product = {}
    for d1, r1 in reducers.items():
        for i1 in range(len(r1.keep)):
            for d2, r2 in reducers.items():
                rd = reducers.get(d1 + d2)
                if d1 + d2 > sp.window.hi or rd is None or not rd.keep:
                    continue
                for i2 in range(len(r2.keep)):
                    w = rd.project(da.mul_vec(d1, lift(d1, i1), d2, lift(d2, i2)))
                    if not is_zero_vec(w):
                        product[(d1, i1, d2, i2)] = w
    d_cols = {d: [rd.project(lift_vec(field, col(a.complex.d.block(d), i)))
                  for i in r.keep]
              for d, r in reducers.items() if r.keep and (rd := reducers.get(d + 1))}
    projection = {d: [r.project(unit_vec(field, sp.dim(d), i)) for i in range(sp.dim(d))]
                  for d, r in reducers.items() if r.keep}
    return product, reducers[0].project(da.unit), d_cols, projection


def assert_quotient_matches_dense(a, ideal, q, proj):
    product, unit, d_cols, projection = dense_quotient(a, ideal)
    assert dense_table(q.both_orders, q.space) == product
    assert dense(q.field, q.unit, q.space.dim(0)) == unit
    assert {d: cols(q.complex.d.block(d)) for d in d_cols} == d_cols
    assert not set(q.complex.d.blocks) - set(d_cols)
    assert {d: cols(proj.map.block(d)) for d in projection} == projection
    assert q.space.degrees() == sorted(projection)


def check_modules_over(a):
    """Sparse shifted dual, dual and cone tables over a, equal to the
    dense builders."""
    m = algebra_as_module(a)
    assert_sparse_module(m)
    dual = shifted_dual(m, top_degree(a))
    assert_sparse_module(dual)
    assert_sparse_cohomology(dual.complex)
    plain = dual_module(m)
    assert dense_table(plain.action, plain.space) == dense_dual_action(m)
    x = suspend_module(dual, -2)
    f, _ = solve_chain_maps(x, m)
    f = DgModuleMorphism(x, m, f.map)
    f.validate()
    cone_mod = module_mapping_cone(f)[0]
    assert_sparse_module(cone_mod)
    assert dense_table(cone_mod.action, cone_mod.space) == dense_cone_action(f)
    cone = semi_trivial_cone(f)
    assert_sparse_cdga(cone.algebra)
    assert dense_table(cone.algebra.product, cone.space) == dense_cone_product(cone, f)


def test_rational_scalars_are_ints_until_a_denominator_appears():
    assert type(QQ.zero) is type(QQ.one) is type(QQ.minus_one) is int
    for x, want in ((True, 1), (False, 0), (-3, -3), (Fraction(6, 3), 2), ("4/2", 2),
                    (Fraction(1, 2), Fraction(1, 2)), ("-3/6", Fraction(-1, 2))):
        got = QQ.of(x)
        assert got == want and type(got) is type(want), (x, got)
    for a, b, want in ((6, 3, 2), (-4, 2, -2), (Fraction(1, 2), Fraction(1, 4), 2),
                       (1, 3, Fraction(1, 3)), (2, -4, Fraction(-1, 2)),
                       (Fraction(1, 2), 3, Fraction(1, 6))):
        got = QQ.div(a, b)
        assert got == want and type(got) is type(want), (a, b, got)
    for b in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.div(1, b)
    for x in (1.5, 2.0, None):
        with pytest.raises(FieldError):
            QQ.of(x)
    f5 = PrimeField(5)
    assert f5.div(f5.of(1), f5.of(2)) == 3 and type(f5.div(1, f5.of(2))) is type(f5.zero)
    with pytest.raises(ZeroDivisionError):
        f5.div(f5.one, f5.zero)


@pytest.mark.parametrize("field", FIELDS)
def test_builder_algebras_keep_one_vector_form(field):
    for a in (sphere(2, field=field), sphere(3, hi=7, field=field),
              sphere(6, field=field), complex_projective(2, field=field),
              wedge_s2_s4(field=field), product_s2_s4(field=field),
              sullivan_cp2(field=field), torus_s1_s7(hi=9, field=field)):
        assert_sparse_cdga(a)
        assert_sparse_cohomology(a.complex)
        assert_cohomology_algebra_matches_dense(a)
        check_modules_over(a)


@pytest.mark.parametrize("field", FIELDS)
def test_shipped_examples_keep_one_vector_form(field):
    models = 0
    for name in sorted(cli.EXAMPLES):
        pf = parse_file(str(cli.example_path(name)), field_override=field)
        for parsed in pf.algebras.values():
            a = parsed.cdga
            assert_sparse_cdga(a)
            assert_sparse_cohomology(a.complex)
            assert_cohomology_algebra_matches_dense(a)
        for phi in pf.morphisms.values():
            for d, block in phi.map.blocks.items():
                for row in block.rows:
                    assert_vector(row, field, phi.source.space.dim(d))
        try:
            cm = complement_model(pf.embedding_problem())
        except (HypothesisError, PipelineError):
            continue
        models += 1
        for a in (cm.cone.algebra, cm.quotient, cm.h_algebra):
            assert_sparse_cdga(a)
        assert_sparse_module(cm.resolution.module)
        assert_sparse_module(cm.cone.cone_module)
        assert_cohomology_algebra_matches_dense(cm.quotient)
    assert models >= 5


def pipeline_problem_files(directory):
    """Paths of the shipped examples, the problems of the test suite and
    every rung of the benchmark ladders at seed 1."""
    paths = [str(cli.example_path(name)) for name in sorted(cli.EXAMPLES)]
    texts = {"sullivan_s2_in_s9": SULLIVAN_S2_IN_S9, "s3s1_in_s3s11": S3S1_IN_S3S11}
    for workload in ladder.WORKLOADS:
        texts.update((key, prob.text) for key, prob in ladder.build(workload, 1).problems.items())
    for key, text in texts.items():
        path = directory / (key + ".pemb")
        path.write_text(text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("field", FIELDS)
def test_every_pipeline_quotient_matches_dense(monkeypatch, tmp_path, field):
    """Every quotient that `complement`, `stable-square` and
    `punctured-square` build equals the dense quotient by the standard
    vectors of its index set: product, unit, d and projection.  That is
    the complement's truncated cone, the stable square's normalizations
    and both cones of the punctured square."""
    seen = []
    original = algebra.quotient_cdga

    def recorded(a, ideal):
        q, proj = original(a, ideal)
        seen.append((sys._getframe(1).f_code.co_name, a, ideal, q, proj))
        return q, proj
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "pemb" or name.startswith("pemb.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recorded)
    for path in pipeline_problem_files(tmp_path):
        problem = parse_file(path, field_override=field).embedding_problem()
        for run in (complement_model, stable_square,
                    lambda p: punctured_square(p, attest_boundary_simply_connected=True)):
            try:
                run(problem)
            except (HypothesisError, PipelineError):
                pass
    for caller, a, ideal, q, proj in seen:
        assert_quotient_matches_dense(a, ideal, q, proj)
    callers = [caller for caller, *_ in seen]
    assert {c: callers.count(c) for c in callers} == {
        "truncated_cone": 14, "quotient_by_acyclic_ideal": 1, "punctured_square": 24}


def dense_closure_failure(a, ideal):
    """The error of a quotient of `a` by the span of the listed basis
    elements, by the walk of the listed elements in order: the first
    degree whose d leaves the span, then, for the first listed element
    with a multiple outside the span, the lowest degree of one; None
    when the span is a differential ideal."""
    da, sp, field = DenseCdga(a), a.space, a.field

    def outside(d, v):
        return any(x != 0 and i not in ideal.get(d, ()) for i, x in enumerate(v))
    for d, listed in ideal.items():
        if sp.dim(d + 1) and any(outside(d + 1, dense_apply(a.complex.d.block(d),
                                                            unit_vec(field, sp.dim(d), i)))
                                 for i in listed):
            return "subspace not closed under d at degree %d" % d
    for d, listed in ideal.items():
        for i in listed:
            v = unit_vec(field, sp.dim(d), i)
            for e in sp.degrees():
                if d + e <= sp.window.hi and any(
                        outside(d + e, da.mul_vec(e, unit_vec(field, sp.dim(e), j), d, v))
                        for j in range(sp.dim(e))):
                    return "subspace is not an ideal (degree %d)" % (d + e)
    return None


def two_stage_model(field):
    """(x2, y2, u3, v3 ; du = xy, dv = x^2 - y^2): blocks of d with
    several rows and columns."""
    return materialize_free_cdga(field, [("x", 2), ("y", 2), ("u", 3), ("v", 3)],
                                 {"u": {(0, 1): 1}, "v": {(0, 0): 1, (1, 1): -1}}, [],
                                 DegreeWindow(0, 8))


@pytest.mark.parametrize("field", FIELDS)
def test_quotients_by_random_index_sets_match_dense(field):
    """Random index sets, in random degree order, some everything above
    a cut and part of the cut, some drawn index by index: the quotient
    raises the dense walk's error, or equals the dense quotient."""
    rng = random.Random(20261020)
    algebras = [two_stage_model(field), sullivan_cp2(field=field),
                product_s2_s4(field=field), torus_s1_s7(hi=9, field=field)]
    outcomes = {}   # quotients built, and failures of closure under d and products
    for _ in range(60):
        a = rng.choice(algebras)
        degrees = a.space.degrees()
        cut = rng.choice(degrees)
        upper = rng.random() < 0.5
        ideal = {}
        for d in rng.sample(degrees, len(degrees)):
            n = a.space.dim(d)
            if upper and d > cut:
                ideal[d] = list(range(n))
            elif not upper or d == cut:
                ideal[d] = sorted(rng.sample(range(n), rng.randint(0, n)))
        want = dense_closure_failure(a, ideal)
        try:
            q, proj = quotient_cdga(a, ideal)
        except AlgebraError as e:
            assert str(e) == want, ideal
        else:
            assert want is None, ideal
            assert_quotient_matches_dense(a, ideal, q, proj)
        kind = "quotient" if want is None else "d" if "under d" in want else "product"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes == {"quotient": 40, "product": 13, "d": 7}
