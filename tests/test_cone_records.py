"""Module proof records and the cone's Leibniz report from its inputs.

`check_module` walks the first factors in S of a proven algebra and
leaves (S, G) on a module that passes; `check_module_morphism` decides
linearity on S between two such modules.  The Leibniz report of a cone
R + sX of f: X -> R reads R's record, X's module check, f's check and
beta on G x G, and falls back to `check_cdga` on the cone table when
any of them fails.  Each lemma has a mutation row below; the reduced
verdict is compared with the exhaustive one on every cone the shipped
examples, the benchmark ladders and the problems of the test suite
build.
"""

import sys
from pathlib import Path

import pytest

from builders import SULLIVAN_S2_IN_S9, free_module, run_cli
from pemb import checks, cli
from pemb.algebra import Cdga, CdgaMorphism, materialize_free_cdga
from pemb.checks import check_cdga, check_module, check_module_morphism
from pemb.cones import ConeError, MappingConeAlgebra, leibniz_report, proven_from_inputs
from pemb.fields import QQ, PrimeField
from pemb.graded import DegreeWindow, GradedLinearMap
from pemb.linalg import Matrix
from pemb.modules import (DgModule, DgModuleMorphism, FreeGenerator, algebra_as_module,
                          restrict_scalars)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's problem generator)


def truncated_u(field=QQ):
    """Q[u]/u^3, |u| = 2, in degrees 0..8, proven."""
    r = materialize_free_cdga(field, [("u", 2)], {}, [{(0, 0, 0): 1}],
                              DegreeWindow(0, 8))
    r.validate()
    return r


def module_on(r, degrees):
    """The free module over r on one generator per degree, unchecked."""
    gens = [FreeGenerator("g%d" % i, d) for i, d in enumerate(degrees)]
    return free_module(r, gens, {}, DegreeWindow(0, 8))[0]


def map_by_columns(x, r, cols):
    """f: x -> r acting on itself, with f(x_(d, j)) = cols[(d, j)]."""
    blocks = {}
    for d in x.space.degrees():
        if any(key[0] == d for key in cols):
            blocks[d] = Matrix.from_cols(r.field, [cols.get((d, j), {})
                                                   for j in range(x.space.dim(d))],
                                         r.space.dim(d))
    return DgModuleMorphism(x, algebra_as_module(r),
                            GradedLinearMap(x.space, r.space, 0, blocks))


def cone_table(cone):
    """The cone's product as a new algebra, with no proof record."""
    a = cone.algebra
    return Cdga(a.field, a.complex, a.product, a.unit)


def report(cone):
    """leibniz_report's verdict: the witness it returns, or the one it
    raises as a ConeError, as a string."""
    try:
        return leibniz_report(cone)
    except ConeError as e:
        return str(e)


def exhaustive(cone):
    """check_cdga's verdict on the cone table, in `report`'s form."""
    witness = check_cdga(cone_table(cone))
    if witness is not None and witness.axiom != "Leibniz":
        return "cone product is not a CDGA: %s" % witness
    return witness


# -- the valid cone and one mutation per lemma -------------------------------


def linear_cone():
    """R = Q[u]/u^3, X = R.a with |a| = 2, f(u^k a) = u^(k+1): a CDGA,
    since beta(a, a) = f(a).a - f(a).a = 0."""
    r = truncated_u()
    x = module_on(r, [2])
    u, u2 = {0: QQ.one}, r.mul_vec(2, {0: QQ.one}, 2, {0: QQ.one})
    return MappingConeAlgebra(map_by_columns(x, r, {(2, 0): u, (4, 0): u2}))


def action_mutation():
    """X's action perturbed (u.a negated) under the zero map: only the
    module axioms of X fail."""
    r = truncated_u()
    x = module_on(r, [2])
    action = dict(x.action)
    action[(2, 0, 2, 0)] = {i: -c for i, c in action[(2, 0, 2, 0)].items()}
    return MappingConeAlgebra(map_by_columns(DgModule(r, x.complex, action), r, {}))


def linearity_mutation():
    """f(u a) = 2u^2 where linearity asks for u.f(a) = u^2."""
    r = truncated_u()
    x = module_on(r, [2])
    u2 = r.mul_vec(2, {0: QQ.one}, 2, {0: QQ.one})
    return MappingConeAlgebra(map_by_columns(x, r, {(2, 0): {0: QQ.one},
                                                    (4, 0): {0: 2 * u2[0]}}))


def beta_mutation():
    """X = R.a + R.b, |a| = 2, |b| = 4, f(a) = u, f(b) = u^2: X is a
    module and f linear, but beta(a, b) = u.b - u^2.a is not zero."""
    r = truncated_u()
    x = module_on(r, [2, 4])
    u, u2 = {0: QQ.one}, r.mul_vec(2, {0: QQ.one}, 2, {0: QQ.one})
    # degree 4 of X: u a, then b
    return MappingConeAlgebra(map_by_columns(x, r, {(2, 0): u, (4, 0): u2, (4, 1): u2}))


def test_the_valid_cone_is_proven_from_its_inputs():
    cone = linear_cone()
    assert exhaustive(cone) is None
    assert proven_from_inputs(cone)
    assert cone.leibniz is None
    assert cone.algebra.proven_generators == checks.generating_set(cone_table(cone))
    s, g = cone.attaching.source.proven_generators
    assert s is cone.base.proven_generators and g == [(2, 0)]


# (name, cone builder, which of the three inputs fails, axiom of the witness)
MUTATIONS = [
    ("X's action", action_mutation, "module", "associativity"),
    ("f's linearity", linearity_mutation, "morphism", "Leibniz"),
    ("beta", beta_mutation, "beta", "Leibniz"),
]


@pytest.mark.parametrize("build, fails, axiom", [m[1:] for m in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
def test_each_lemma_has_a_mutation_the_report_names_exhaustively(build, fails, axiom):
    """Each row breaks one input: the reduced route fails, at that input
    and no earlier one, and the report is `check_cdga`'s exhaustive
    witness on the cone table, returned or raised."""
    cone = build()
    f = cone.attaching
    module_ok = check_module(f.source) is None
    morphism_ok = module_ok and check_module_morphism(f) is None
    assert (module_ok, morphism_ok) == {"module": (False, False),
                                        "morphism": (True, False),
                                        "beta": (True, True)}[fails]
    assert not proven_from_inputs(build())
    cone = build()
    got, walked = report(cone), checks._Walk(cone_table(cone)).first_failure()
    assert got == exhaustive(cone)
    assert walked.axiom == axiom
    assert got in (walked, "cone product is not a CDGA: %s" % walked)
    assert cone.algebra.proven_generators is None


def test_the_beta_row_is_the_frozen_witness():
    """beta(a, b) fails on (sa, sb), the pair the exhaustive walk names."""
    w = report(beta_mutation())
    assert w.axiom == "Leibniz" and w.labels == ("sg0", "sg1")
    assert (w.degree, w.defect) == (5, {0: QQ.one, 1: QQ.of(-1)})


def test_a_cone_over_an_unproven_base_is_checked_exhaustively():
    r = materialize_free_cdga(QQ, [("u", 2)], {}, [{(0, 0, 0): 1}], DegreeWindow(0, 8))
    x = module_on(r, [2])
    cone = MappingConeAlgebra(map_by_columns(x, r, {}))
    assert not proven_from_inputs(cone)
    assert cone.leibniz is None
    # `check_cdga` passed the cone table and left its record
    assert cone.algebra.proven_generators is not None


# -- the module walk on S and the records -----------------------------------


def test_the_module_walk_visits_only_first_factors_in_s(monkeypatch):
    """Over a proven algebra a passing module is walked with its algebra
    factor in S alone; over an unproven one, on every basis element."""
    walked = []
    failures = checks._Walk.failures

    def recorded(self, firsts, axioms):
        walked.extend(firsts)
        return failures(self, firsts, axioms)

    monkeypatch.setattr(checks._Walk, "failures", recorded)
    r = truncated_u()
    s = r.proven_generators
    x = module_on(r, [2, 3])
    assert check_module(x) is None
    assert walked and set(walked) <= set(s)
    assert x.proven_generators == (s, [(2, 0), (3, 0)])
    del walked[:]
    unproven = materialize_free_cdga(QQ, [("u", 2)], {}, [{(0, 0, 0): 1}],
                                     DegreeWindow(0, 8))
    y = module_on(unproven, [2])
    assert check_module(y) is None and y.proven_generators is None
    every = {(d, i) for d in unproven.space.degrees() for i in range(unproven.space.dim(d))}
    assert set(walked) == every


def test_a_module_walk_indexes_only_the_products_of_s(monkeypatch, tmp_path):
    """The module walks of `stable-square` and `dgmodule-square` on a
    ladder rung, all over proven algebras, index the products xy of
    their algebra with x in S alone: as many as its table holds with
    first factor in S, and never the whole table.  A module that fails
    indexes them all, for the exhaustive walk, and names its witness."""
    walks = []
    init = checks._Walk.__init__

    def recorded(self, a, module=None, firsts=None):
        init(self, a, module, firsts)
        if module is not None:
            walks.append((self, a))

    monkeypatch.setattr(checks._Walk, "__init__", recorded)
    prob = ladder.build("sphere_quotient", 1).problems["spheres3"]
    path = tmp_path / "p.pemb"
    path.write_text(prob.text)
    for command in ("stable-square", "dgmodule-square"):
        assert run_cli([command, str(path)])[0] == 0
    assert len(walks) >= 3
    for walk, a in walks:
        s = set(a.proven_generators)
        assert walk.every is None and set(walk.products) <= s
        indexed = sum(len(rows) for rows in walk.products.values())
        assert indexed == sum(1 for key in a.both_orders if key[:2] in s)
        assert indexed < len(a.both_orders)
    del walks[:]
    cone = action_mutation()
    x = cone.attaching.source
    witness = check_module(x)
    (walk, a), = walks
    assert walk.every is not None and len(walk.every) == a.space.total_dim()
    assert witness == checks._Walk(a, x).first_failure()
    assert witness.axiom == "module associativity"


def test_derived_modules_start_without_a_record():
    r = truncated_u()
    x = module_on(r, [2])
    assert x.proven_generators is None
    x.validate()
    assert x.proven_generators is not None
    assert restrict_scalars(x, CdgaMorphism.identity(r)).proven_generators is None
    assert algebra_as_module(r).proven_generators == (r.proven_generators, [(0, 0)])


def test_linearity_on_s_names_the_exhaustive_witness(monkeypatch):
    """Between two recorded modules linearity is walked on S; a map that
    fails there is walked on every pair, which names the witness."""
    calls = []
    linearity = checks._linearity

    def recorded(f, fcol, firsts=None):
        calls.append("every pair" if firsts is None else "on S")
        return linearity(f, fcol, firsts)

    monkeypatch.setattr(checks, "_linearity", recorded)
    r = truncated_u()
    x = module_on(r, [2])
    x.validate()
    ident = GradedLinearMap.identity(x.space)
    assert check_module_morphism(DgModuleMorphism(x, x, ident)) is None
    assert calls == ["on S"]
    del calls[:]
    doubled = GradedLinearMap(x.space, x.space, 0, {**ident.blocks, 4: ident.blocks[4].scale(2)})
    witness = check_module_morphism(DgModuleMorphism(x, x, doubled))
    assert calls == ["on S", "every pair"]
    unrecorded = DgModule(r, x.complex, x.action)
    assert witness == check_module_morphism(DgModuleMorphism(unrecorded, unrecorded, doubled))
    assert witness.axiom == "linearity" and witness.labels == ("u", "g0")


def test_dgmodule_square_checks_its_bottom_map_on_s(monkeypatch):
    """The bottom map of `dgmodule-square` joins the two cone modules its
    checks passed: its linearity is decided on S of the ambient, and no
    pair beyond S is walked between two recorded modules."""
    walks = []
    linearity = checks._linearity

    def recorded(f, fcol, firsts=None):
        recorded_ends = (f.source.proven_generators is not None
                         and f.target.proven_generators is not None)
        walks.append((recorded_ends, firsts is None))
        return linearity(f, fcol, firsts)

    monkeypatch.setattr(checks, "_linearity", recorded)
    for name in sorted(cli.EXAMPLES):
        del walks[:]
        if run_cli(["dgmodule-square", str(cli.example_path(name))])[0] != 0:
            continue
        assert (True, False) in walks, name
        assert (True, True) not in walks, name


# -- differential test: the reduced verdict against the exhaustive one ------


LOCAL = {"sullivan_s2_in_s9": SULLIVAN_S2_IN_S9}
CONE_COMMANDS = (["complement"], ["stable-square"],
                 ["punctured-square", "--attest-boundary-simply-connected"])


def problem_paths(directory):
    for name in sorted(cli.EXAMPLES):
        yield str(cli.example_path(name))
    for name, text in LOCAL.items():
        path = directory / (name + ".pemb")
        path.write_text(text)
        yield str(path)
    for workload in ladder.WORKLOADS:
        wl = ladder.build(workload, 1)
        for key, path in ladder.write_problems(wl, directory / workload).items():
            yield path


def rebuilt(cone):
    """The cone of the same map on a fresh copy of X, so that no record
    set by the run is read."""
    f = cone.attaching
    x = DgModule(f.source.algebra, f.source.complex, f.source.action)
    return MappingConeAlgebra(DgModuleMorphism(x, f.target, f.map))


def test_reduced_and_exhaustive_verdicts_agree_on_every_cone(monkeypatch, tmp_path):
    built = []
    init = MappingConeAlgebra.__init__

    def recorded(self, f):
        init(self, f)
        built.append(self)

    monkeypatch.setattr(MappingConeAlgebra, "__init__", recorded)
    for path in problem_paths(tmp_path):
        for command in CONE_COMMANDS:
            run_cli([command[0], path] + command[1:])
    cones_seen = list(built) + [build() for _, build, _, _ in MUTATIONS] + [linear_cone()]
    monkeypatch.setattr(MappingConeAlgebra, "__init__", init)
    passed = 0
    for cone in cones_seen:
        verdict = exhaustive(cone)
        assert proven_from_inputs(rebuilt(cone)) == (verdict is None)
        assert report(rebuilt(cone)) == verdict
        passed += verdict is None
    # every cone a run builds passes; every mutation fails both ways
    assert len(built) >= 40
    assert passed == len(cones_seen) - len(MUTATIONS)


def test_reduced_route_over_a_prime_field():
    """The signs of beta hold over F_p too: the beta row fails and the
    valid cone passes, each as the exhaustive walk says."""
    f5 = PrimeField(5)
    r = truncated_u(f5)
    one = f5.one
    for degrees, cols, expected in (
            ([2], {(2, 0): {0: one}, (4, 0): r.mul_vec(2, {0: one}, 2, {0: one})}, True),
            ([1, 3], {(3, 1): {}}, True),
            ([2, 4], {(2, 0): {0: one}, (4, 0): r.mul_vec(2, {0: one}, 2, {0: one}),
                      (4, 1): r.mul_vec(2, {0: one}, 2, {0: one})}, False)):
        cone = MappingConeAlgebra(map_by_columns(module_on(r, degrees), r, cols))
        assert proven_from_inputs(rebuilt(cone)) is expected
        assert (exhaustive(cone) is None) is expected
        assert report(cone) == exhaustive(cone)


def test_a_cone_with_an_odd_generator_is_decided_by_beta_on_the_diagonal():
    """For |a| odd, beta(a, a) = 2 f(a).a: the diagonal of G x G is read."""
    r = materialize_free_cdga(QQ, [("v", 2), ("w", 3)], {}, [{(0, 0): 1}],
                              DegreeWindow(0, 8))
    r.validate()
    x = module_on(r, [3])
    # f(a) = w, f(v a) = v w: linear; beta(a, a) = 2 w.a, nonzero in degree 6
    vw = r.mul_vec(2, {0: QQ.one}, 3, {0: QQ.one})
    cone = MappingConeAlgebra(map_by_columns(x, r, {(3, 0): {0: QQ.one}, (5, 0): vw}))
    assert check_module(cone.attaching.source) is None
    assert check_module_morphism(cone.attaching) is None
    assert not proven_from_inputs(cone)
    assert report(rebuilt(cone)) == exhaustive(cone)
    assert exhaustive(cone).axiom == "Leibniz"
