"""Checks run once: at the trust boundary and where a report rests on them.

The parser checks every algebra and morphism it reads.  A report checks
what it certifies, prints or emits: the Leibniz report of a cone, the
truncated cone and its base map, the corners and maps that the square
pipelines build, the cone modules of `dgmodule-square` and `lefschetz`,
the H-algebras of `lefschetz` and `cohomology --object`, and the umkehr
map.  Every construction in between keeps the axioms, by the argument
in its docstring, and is not checked again.

Each broken-builder test below replaces one of those constructions by a
wrong one and shows that a check that remains still rejects a shipped
example (or, for a builder no shipped example reaches, a problem of the
test suite), with a nonzero exit code and that check's message.  The
constructors of algebras and modules take their tables as they are, and
the index checks are in the algebra and module checks; a builder that
hands over an index outside the basis is rejected by name too.  The
full-check harness wraps the four constructors so that every object
built is checked, runs every shipped example and the smallest rung of each benchmark
ladder under it, and finds no witness.  Where the stable square's
normalizations are the identity, it builds and checks nothing for them.
Each truncation is built and certified once, and a parsed algebra has
its indices checked once.  Every algebra morphism that parsing and the
stable square check joins two algebras that `check_cdga` passed, so it
is checked multiplicative on the generating set alone.  A free
presentation that a file repeats under other names is materialized and
checked once per parse, never once per process, and `dgmodule-square`
resolves the equal branches of a menorah once.
"""

import re
import sys
from pathlib import Path

import pytest

from pemb import algebra, checks, cli, cones, duality, graded, modules, pipeline
from pemb.algebra import Cdga, CdgaMorphism
from pemb.checks import (check_cdga, check_cdga_morphism, check_module,
                         check_module_morphism)
from pemb.fields import QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         GradedVectorSpace)
from pemb.linalg import Matrix
from pemb.modules import (DgModule, DgModuleMorphism, ModuleError,
                          semifree_resolution)
from pemb.parser import parse

from builders import SULLIVAN_S2_IN_S9, record_cohomology_constructions, run_cli, sphere

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's problem generator)


def patch_everywhere(monkeypatch, module, attr, make):
    """Replace module.attr by make(original) in every `pemb` namespace
    that bound it."""
    original = getattr(module, attr)
    wrapped = make(original)
    for name, other in list(sys.modules.items()):
        if other is not None and (name == "pemb" or name.startswith("pemb.")):
            for key, value in list(vars(other).items()):
                if value is original:
                    monkeypatch.setattr(other, key, wrapped)


def negate_first(table, keep):
    """table with its first entry, in key order, that keep(key) accepts
    negated (the table itself when keep accepts none)."""
    key = min((k for k in table if keep(k)), default=None)
    if key is None:
        return table
    return {**table, key: {i: -x for i, x in table[key].items()}}


def positive(key):
    return key[0] > 0


def unit_action(key):
    return key[0] == 0


def both_positive(key):
    return key[0] > 0 and key[2] > 0


def broken_algebra(a):
    """An algebra builder's result with one product of positive classes
    negated."""
    return Cdga(a.field, a.complex, negate_first(a.product, both_positive), a.unit)


def broken_module(keep):
    """A module builder's result with one action entry negated."""
    def broken(m):
        return DgModule(m.algebra, m.complex, negate_first(m.action, keep))
    return broken


def doubled_lowest_positive(glm):
    d = min(d for d in glm.blocks if d > 0)
    return GradedLinearMap(glm.source, glm.target, glm.shift,
                           {**glm.blocks, d: glm.blocks[d].scale(2)})


def on_result(change, first=False):
    """make() for patch_everywhere: the builder, then change() on its
    result (on its first item with `first`)."""
    def make(build):
        def broken(*args, **kwargs):
            out = build(*args, **kwargs)
            return (change(out[0]),) + tuple(out[1:]) if first else change(out)
        return broken
    return make


def _without_later_units(s):
    """A direct sum whose summands after the first lose the products with
    their unit."""
    later_unit = {(0, i) for i in s.unit if i > 0}
    return Cdga(s.field, s.complex,
                {k: v for k, v in s.product.items()
                 if k[:2] not in later_unit and k[2:] not in later_unit}, s.unit)


def _cone_with_broken_unit_on_sx(build):
    """module_mapping_cone whose unit negates one element of sX."""
    def broken(f):
        m, split = build(f)
        return DgModule(m.algebra, m.complex, negate_first(
            m.action, lambda k: k[0] == 0 and k[3] >= split.y_dim(k[2]))), split
    return broken


def _stacked_without_last_unit(monkeypatch):
    """EmbeddingProblem whose stacked morphism loses the last branch's
    unit."""
    init = pipeline.EmbeddingProblem.__init__

    def broken(self, branches, n):
        init(self, branches, n)
        if self.is_menorah:
            phi = self.phi
            rows = list(phi.map.block(0).rows[:-1]) + [{}]
            blocks = {**phi.map.blocks, 0: Matrix.sparse(self.field, rows, 1)}
            self.phi = CdgaMorphism(phi.source, phi.target, GradedLinearMap(
                phi.map.source, phi.map.target, 0, blocks))
    monkeypatch.setattr(pipeline.EmbeddingProblem, "__init__", broken)


def _unit_doubled_on_cohomology(monkeypatch):
    """gysin's induced map of H-algebras with the unit sent to twice
    the unit."""
    induced = pipeline.induced_on_cohomology

    def broken(f, coh_source, coh_target):
        blocks = induced(f, coh_source, coh_target)
        return {**blocks, 0: blocks[0].scale(2)}
    monkeypatch.setattr(pipeline, "induced_on_cohomology", broken)


def with_product_outside_basis(product, space, field):
    """A product table handed over with one more entry: the unit times
    an element one past the last of the top degree."""
    d = max(space.degrees())
    return {**product, (0, 0, d, space.dim(d)): {0: field.one}}


def _algebra_with_product_outside_basis(a):
    return Cdga(a.field, a.complex,
                        with_product_outside_basis(a.product, a.space, a.field), a.unit)


def _cone_product_outside_basis(monkeypatch):
    build = cones.MappingConeAlgebra._build_product

    def broken(self):
        product, unit = build(self)
        return with_product_outside_basis(product, self.space, self.field), unit
    monkeypatch.setattr(cones.MappingConeAlgebra, "_build_product", broken)


def _spans_with_a_positive_vector(build):
    """_embed_cone_spans with one more index: the first basis element of
    the cone's lowest positive degree, a cocycle whose multiples leave
    the ideal."""
    def broken(cone, y_spans, x_spans):
        spans = build(cone, y_spans, x_spans)
        d = min(d for d in cone.space.degrees() if d > 0)
        spans.setdefault(d, []).append(0)
        return spans
    return broken


PRODUCT_OUTSIDE = r"product of \(0,0\)\*\(\d+,\d+\) names no basis element"


def _patch(module, attr, make):
    return lambda monkeypatch: patch_everywhere(monkeypatch, module, attr, make)


ATTEST = "--attest-boundary-simply-connected"

# problems of the test suite, by the name the cases below use
LOCAL = {"sullivan_s2_in_s9": SULLIVAN_S2_IN_S9}


def example_file(example, directory):
    """Path of a shipped example, or of a problem of `LOCAL` written to
    `directory`."""
    if example not in LOCAL:
        return str(cli.example_path(example))
    path = directory / (example + ".pemb")
    path.write_text(LOCAL[example])
    return str(path)

# (broken builder, patch, example, argv after the path, exit code, message)
BROKEN = [
    ("restrict_scalars",
     _patch(modules, "restrict_scalars", on_result(broken_module(positive))),
     "cp1_in_cp2_gysin", ["lefschetz"], 2, r"action Leibniz fails on \(x, ss\^-4#t\)"),
    ("dual_module",
     _patch(modules, "dual_module", on_result(broken_module(positive))),
     "cp1_in_cp2_gysin", ["lefschetz"], 2,
     r"action not associative on \(x, x, s\^-4#x\^2\)"),
    ("suspend_module",
     _patch(modules, "suspend_module", on_result(broken_module(positive))),
     "cp1_in_cp2_gysin", ["gysin"], 1,
     r"umkehr map failed linearity validation: morphism not linear over \(h2_0\)"),
    ("_stacked_action",
     _patch(modules, "_stacked_action",
            lambda build: lambda *a: negate_first(build(*a), positive)),
     "cp1_in_cp2_gysin", ["dgmodule-square"], 2,
     r"action not associative on \(x, x, 1\)"),
    ("module_mapping_cone",
     _patch(modules, "module_mapping_cone", _cone_with_broken_unit_on_sx),
     "cp2_in_s8", ["complement"], 1, r"truncation ideal rejected: unit law fails on sv4_0"),
    # free modules are grown in place; the builder's assembly hands them over
    ("free_module",
     lambda monkeypatch: monkeypatch.setattr(
         modules._FreeBuilder, "assemble", on_result(broken_module(unit_action), first=True)(
             modules._FreeBuilder.assemble)),
     "cp2_in_s8", ["dgmodule-square"], 2, r"morphism not linear over \(1\) at v4_0"),
    ("solve_chain_maps",
     _patch(modules, "solve_chain_maps", on_result(lambda sol: sol and (
         DgModuleMorphism(sol[0].source, sol[0].target,
                          doubled_lowest_positive(sol[0].map)), sol[1]))),
     "cp1_in_cp2_gysin", ["dgmodule-square"], 2,
     r"action Leibniz fails on \(x, sc0\.v2_0\)"),
    ("_linearity_rows",
     _patch(modules, "_linearity_rows", on_result(lambda rows: rows[1:])),
     "cp1_in_cp2_gysin", ["dgmodule-square"], 2,
     r"action Leibniz fails on \(x, sc0\.v2_0\)"),
    ("quotient_cdga",
     _patch(algebra, "quotient_cdga", on_result(broken_algebra, first=True)),
     "cp2_in_s8", ["punctured-square", ATTEST], 2,
     r"morphism not multiplicative on \(x, x\)"),
    ("projected_table",
     _patch(algebra, "projected_table",
            on_result(lambda t: negate_first(t, both_positive))),
     "hopf_torus", ["cohomology", "--object", "Q"], 2,
     r"commutativity fails on \(h1_0, h7_0\)"),
    ("cohomology_algebra",
     _patch(algebra, "cohomology_algebra", on_result(broken_algebra, first=True)),
     "hopf_torus", ["cohomology", "--object", "Q"], 2,
     r"commutativity fails on \(h1_0, h7_0\)"),
    ("direct_sum_cdga",
     _patch(algebra, "direct_sum_cdga", on_result(_without_later_units)),
     "two_s7_in_s15", ["dgmodule-square"], 2, r"unit does not act as identity on c1\.1"),
    ("direct_sum_modules",
     _patch(modules, "direct_sum_modules", on_result(broken_module(positive), first=True)),
     "cp1_in_cp2_gysin", ["dgmodule-square"], 2,
     r"action Leibniz fails on \(x, sc0\.v2_0\)"),
    ("EmbeddingProblem", _stacked_without_last_unit,
     "two_s7_in_s15", ["lefschetz"], 2, r"unit does not act as identity on ss\^-15#c1\.b7"),
    ("_induced_quotient_morphism",
     _patch(pipeline, "_induced_quotient_morphism", on_result(
         lambda f: CdgaMorphism(f.source, f.target, f.map.scale(2)))),
     "sullivan_s2_in_s9", ["stable-square"], 2, r"morphism does not preserve the unit"),
    # the truncation spans are read, not checked, where they are built:
    # the quotients of the cones check their closure under the products
    ("_embed_cone_spans",
     _patch(pipeline, "_embed_cone_spans", _spans_with_a_positive_vector),
     "cp2_in_s8", ["punctured-square", ATTEST], 2,
     r"quotient cone failed validation: subspace is not an ideal \(degree 4\)"),
    ("_trivial_action_module",
     _patch(pipeline, "_trivial_action_module", on_result(broken_module(unit_action))),
     "s2_in_s6", ["punctured-square", ATTEST], 2,
     r"quotient cone failed validation: unit law fails on sv4_0"),
    ("induced_on_cohomology", _unit_doubled_on_cohomology,
     "cp1_in_cp2_gysin", ["gysin"], 1,
     r"umkehr map failed linearity validation: morphism not linear over \(h0_0\)"),
    ("shifted_dual_morphism",
     _patch(duality, "shifted_dual_morphism", on_result(
         lambda f: DgModuleMorphism(f.source, f.target, doubled_lowest_positive(f.map)))),
     "cp1_in_cp2_gysin", ["lefschetz"], 2, r"action Leibniz fails on \(x, ss\^-4#t\)"),
    # the `Cdga` constructor does not check indices; `check_cdga` names a
    # product entry outside the basis before any axiom, not as a traceback
    ("cohomology_algebra-index",
     _patch(algebra, "cohomology_algebra",
            on_result(_algebra_with_product_outside_basis, first=True)),
     "hopf_torus", ["cohomology", "--object", "Q"], 2, "error: " + PRODUCT_OUTSIDE),
    ("quotient_cdga-index",
     _patch(algebra, "quotient_cdga",
            on_result(_algebra_with_product_outside_basis, first=True)),
     "cp2_in_s8", ["punctured-square", ATTEST], 2,
     "quotient cone failed validation: " + PRODUCT_OUTSIDE),
    ("MappingConeAlgebra-index", _cone_product_outside_basis,
     "s2_in_s9_stable", ["stable-square"], 2,
     "error: cone product is not a CDGA: " + PRODUCT_OUTSIDE),
]


@pytest.mark.parametrize("builder, patch, example, args, code, message", BROKEN,
                         ids=[case[0] for case in BROKEN])
def test_a_remaining_check_rejects_a_broken_builder(monkeypatch, tmp_path, builder,
                                                    patch, example, args, code, message):
    argv = [args[0], example_file(example, tmp_path)] + args[1:]
    assert run_cli(argv)[0] == 0
    patch(monkeypatch)
    got, _, err = run_cli(argv)
    assert got == code
    assert re.search(message, err), err


def with_key_outside_basis(m):
    """A module builder's result, handed over with one more entry: the
    unit acting on an element one past the last of the top degree."""
    d = max(m.space.degrees())
    return DgModule(m.algebra, m.complex,
                            {**m.action, (0, 0, d, m.space.dim(d)): {0: m.field.one}})


OUTSIDE = r"action \(0,0\) on \(4,1\) names no basis element"

# (builder, argv after the path, exit code, message) on cp1_in_cp2_gysin
HANDED_OVER = [
    ("dual_module", ["lefschetz"], 2, "error: " + OUTSIDE),
    ("suspend_module", ["gysin"], 1, "umkehr map failed linearity validation: " + OUTSIDE),
]


@pytest.mark.parametrize("builder, args, code, message", HANDED_OVER,
                         ids=[case[0] for case in HANDED_OVER])
def test_a_remaining_check_names_a_handed_over_index_outside_the_basis(
        monkeypatch, builder, args, code, message):
    """The `DgModule` constructor does not check indices; the module and
    module-morphism checks name an entry outside the basis first, so a
    builder that hands one over is rejected by name, not by a traceback."""
    argv = [args[0], str(cli.example_path("cp1_in_cp2_gysin"))] + args[1:]
    assert run_cli(argv)[0] == 0
    patch_everywhere(monkeypatch, modules, builder, on_result(with_key_outside_basis))
    got, _, err = run_cli(argv)
    assert got == code
    assert re.search(message, err), err


def test_semifree_resolution_keeps_its_check_of_rho(monkeypatch):
    """rho is the one re-check that stays: its quasi-isomorphism test reads
    rho on cocycles only, so a wrong rho(u) on a kernel-killing generator
    u passes it.  Over S^2 = k[x]/x^2, m has d(m1) = m2 = x.m0, so the
    resolution kills x g0 by a generator u with rho(u) = m1."""
    a = sphere(2, hi=4)
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 4), {0: 1, 1: 1, 2: 1},
                           {0: ["m0"], 1: ["m1"], 2: ["m2"]})
    cx = CochainComplex(sp, GradedLinearMap(sp, sp, 1, {1: Matrix(QQ, [[1]])}))
    one = QQ.one
    m = DgModule(a, cx, {(0, 0, 0, 0): {0: one}, (0, 0, 1, 0): {0: one},
                         (0, 0, 2, 0): {0: one}, (2, 0, 0, 0): {0: one}})
    m.validate()
    assert len(semifree_resolution(m).generators) == 4
    write = graded.CohomologyData.write_coboundary
    monkeypatch.setattr(graded.CohomologyData, "write_coboundary",
                        lambda self, deg, v: {i: 2 * x for i, x in write(self, deg, v).items()})
    with pytest.raises(ModuleError, match="module morphism is not a chain map"):
        semifree_resolution(m)


# -- the full-check harness ------------------------------------------------

def check_cdga_as_exhaustively(a):
    """`check_cdga`'s witness, which must be that of the exhaustive walk:
    commutativity, associativity and Leibniz in turn, each on every first
    factor (the checks before them are exhaustive themselves)."""
    witness = check_cdga(a)
    if witness is None or witness.axiom in ("commutativity", "associativity", "Leibniz"):
        assert witness == checks._Walk(a).first_failure()
    return witness


CHECKS = ((Cdga, check_cdga_as_exhaustively), (CdgaMorphism, check_cdga_morphism),
          (DgModule, check_module), (DgModuleMorphism, check_module_morphism))


def check_every_object(monkeypatch):
    """Wrap the four constructors so that each object built is checked
    (an algebra also by the exhaustive walk, which must agree); returns
    the list the witnesses go to, as (class, witness, the function that
    built the object)."""
    found = []

    def record(obj, check):
        witness = check(obj)
        if witness is not None:
            found.append((type(obj).__name__, str(witness),
                          sys._getframe(2).f_code.co_name))

    for cls, check in CHECKS:
        def checked(self, *args, _init=cls.__init__, _check=check, **kwargs):
            _init(self, *args, **kwargs)
            record(self, _check)
        monkeypatch.setattr(cls, "__init__", checked)
    return found


SUBCOMMANDS = ("validate", "analyze", "complement", "stable-square",
               "dgmodule-square", "lefschetz", "punctured-square", "gysin")


def shipped_runs():
    """argv of every subcommand on every shipped example: each algebra
    under `cohomology --object`, `punctured-square` also with the
    attestation and `dgmodule-square` also over F_5."""
    for name in sorted(cli.EXAMPLES):
        path = str(cli.example_path(name))
        for sub in SUBCOMMANDS:
            yield [sub, path]
        yield ["punctured-square", path, ATTEST]
        yield ["dgmodule-square", path, "--field", "5"]
        for obj in sorted(cli.parse_file(path).algebras):
            yield ["cohomology", path, "--object", obj]


def test_full_check_harness_finds_no_witness(monkeypatch, tmp_path):
    found = check_every_object(monkeypatch)
    codes = {}
    for argv in shipped_runs():
        codes[tuple(argv)] = run_cli(argv)[0]
    assert set(codes.values()) == {0, 1}
    for workload in ladder.WORKLOADS:
        wl = ladder.build(workload, 1)
        key = next(iter(wl.problems))
        path = tmp_path / (key + ".pemb")
        path.write_text(wl.problems[key].text)
        for job in wl.jobs:
            if job.problem == key:
                code, out, err = run_cli([job.command, str(path)])
                assert ladder.check(job, wl.problems[key], code, out, err) == []
    assert found == []


# -- the identity normalization ---------------------------------------------


def stable_square_problems(directory):
    """(name, embedding problem) of every shipped example and every rung
    of the benchmark ladders, parsed and checked."""
    for name in sorted(cli.EXAMPLES):
        yield name, cli.parse_file(str(cli.example_path(name))).embedding_problem()
    for workload in ladder.WORKLOADS:
        wl = ladder.build(workload, 1)
        for key, problem in wl.problems.items():
            path = directory / (key + ".pemb")
            path.write_text(problem.text)
            yield key, cli.parse_file(str(path)).embedding_problem()


def test_identity_normalization_builds_and_checks_nothing(monkeypatch, tmp_path):
    """On every shipped example and ladder rung the stable square's two
    normalizations are the identity: it builds no quotient and no map
    between quotients, computes no cohomology to justify one, and checks
    none of the parsed ambient, target or phi again."""
    problems = list(stable_square_problems(tmp_path))
    calls = []

    def counted(what):
        def make(f):
            def wrapped(*args, **kwargs):
                calls.append((what, args[0]))
                return f(*args, **kwargs)
            return wrapped
        return make

    def normalized(f):
        def wrapped(a, above):
            q, proj = f(a, above)
            calls.append(("normalization", q is a))
            return q, proj
        return wrapped

    def cohomology_in_normalization(f):
        def wrapped(*args):
            if sys._getframe(1).f_code.co_name == "quotient_by_acyclic_ideal":
                calls.append(("cohomology", None))
            return f(*args)
        return wrapped

    patch_everywhere(monkeypatch, algebra, "quotient_cdga", counted("built"))
    patch_everywhere(monkeypatch, pipeline, "_induced_quotient_morphism", counted("built"))
    patch_everywhere(monkeypatch, algebra, "quotient_by_acyclic_ideal", normalized)
    patch_everywhere(monkeypatch, graded, "cohomology", cohomology_in_normalization)
    for check in (check_cdga, check_cdga_morphism):
        patch_everywhere(monkeypatch, sys.modules[check.__module__], check.__name__,
                         counted("check"))
    stable = set()
    for name, problem in problems:
        del calls[:]
        try:
            pipeline.stable_square(problem)
            stable.add(name)
        except pipeline.HypothesisError:
            pass
        parsed = [problem.ambient, problem.target, problem.phi]
        assert [c for c in calls if c[0] == "normalization"] in (
            [], [("normalization", True)] * 2), name
        assert not [c for c in calls if c[0] in ("built", "cohomology")], name
        assert not [c for c in calls if c[0] == "check"
                    and any(c[1] is p for p in parsed)], name
    assert stable == {"point_in_sn", "s2_in_s9_stable", "torus3", "torus4", "torus5",
                      "spheres2", "spheres3", "spheres4"}


# -- morphisms between proven algebras --------------------------------------


def test_stable_square_checks_each_morphism_on_s(monkeypatch, tmp_path):
    """Every algebra morphism checked in parsing the shipped examples and
    ladder rungs, and in their stable squares, joins two algebras that
    `check_cdga` passed: each check decides multiplicativity on S of its
    source, passes there and walks no pair beyond it."""
    calls = []
    counted_calls(monkeypatch, checks, "check_cdga_morphism", calls)
    walk = checks._multiplicativity

    def recorded(f, fcol, hi, firsts=None):
        calls.append("every pair" if firsts is None else "on S")
        return walk(f, fcol, hi, firsts)

    monkeypatch.setattr(checks, "_multiplicativity", recorded)
    stable = 0
    for name, problem in stable_square_problems(tmp_path):
        before = calls.count("check_cdga_morphism")
        try:
            pipeline.stable_square(problem)
        except pipeline.HypothesisError:
            continue
        stable += 1
        # the two inclusions into the bottom corners and the bottom map
        assert calls.count("check_cdga_morphism") - before == 3, name
    assert stable == 8
    assert "every pair" not in calls
    assert calls.count("on S") == calls.count("check_cdga_morphism") > 3 * stable


# -- each truncation built once ---------------------------------------------


def counted_calls(monkeypatch, module, attr, calls):
    """Append attr to calls on each call of module.attr, in every `pemb`
    namespace that bound it."""
    def make(f):
        def wrapped(*args, **kwargs):
            calls.append(attr)
            return f(*args, **kwargs)
        return wrapped
    patch_everywhere(monkeypatch, module, attr, make)


def test_each_truncation_is_built_and_certified_once(monkeypatch):
    """On cp2_in_s8, `punctured-square` reads the three truncation spans
    and builds only the two quotient cones; `complement` builds its one
    quotient and certifies the ideal acyclic on it, and the H-algebra
    reads that quotient's cohomology, built once."""
    calls = []
    counted_calls(monkeypatch, algebra, "quotient_complex", calls)
    built = record_cohomology_constructions(monkeypatch)
    path = str(cli.example_path("cp2_in_s8"))
    for argv, quotients, cohomologies in (
            (["punctured-square", path, ATTEST], 2, 8), (["complement", path], 1, 6)):
        del calls[:], built[:]
        assert run_cli(argv)[0] == 0
        assert (calls.count("quotient_complex"), len(built)) == (
            quotients, cohomologies), argv[0]


# (example, argv after the path, CohomologyData constructions)
COHOMOLOGY_RUNS = [
    ("cp2_in_s8", ["complement"], 6),
    ("cp2_in_s8", ["punctured-square", ATTEST], 8),
    ("cp2_in_s8", ["dgmodule-square"], 6),
    ("cp1_in_cp2_gysin", ["gysin"], 4),
    ("cp1_in_cp2_gysin", ["lefschetz"], 3),
    ("sullivan_s2_in_s9", ["stable-square"], 7),
]


@pytest.mark.parametrize("example, args, constructions", COHOMOLOGY_RUNS,
                         ids=["%s %s" % (case[0], case[1][0]) for case in COHOMOLOGY_RUNS])
def test_each_complex_has_its_cohomology_built_once(monkeypatch, tmp_path, example,
                                                    args, constructions):
    """`graded.cohomology` keeps what it builds on the complex, so the
    stages that read one complex's cohomology share one `CohomologyData`:
    the resolution's and the ambient's in the top-degree map, the
    ambient's in `analyze`, `lefschetz` and `gysin`, a normalized
    target's in `stable-square`.  A resolution's rounds each read one
    degree of H(P), without a `CohomologyData`; H(P) is built once,
    after the last round."""
    built = record_cohomology_constructions(monkeypatch)
    argv = [args[0], example_file(example, tmp_path)] + args[1:]
    assert run_cli(argv)[0] == 0
    assert len({id(cx) for cx in built}) == len(built) == constructions


@pytest.mark.parametrize("example", ["cp1_in_cp2_gysin", "cp2_in_s8"])
def test_gysin_builds_each_h_algebra_once(monkeypatch, example):
    """`gysin` certifies duality on the H-algebras of the ambient and the
    target that it built, so it builds just those two."""
    calls = []
    counted_calls(monkeypatch, algebra, "cohomology_algebra", calls)
    assert run_cli(["gysin", str(cli.example_path(example))])[0] == 0
    assert len(calls) == 2


def test_a_parsed_algebra_has_its_indices_checked_once(monkeypatch):
    """The parser hands an explicit algebra over and checks its indices
    once, in `validate`: one `outside_basis` call for each of the two
    algebras of a stable-square report."""
    code, machine, _ = run_cli(["stable-square", str(cli.example_path("s2_in_s9_stable")),
                                "--format", "machine"])
    assert code == 0
    calls = []
    counted_calls(monkeypatch, checks, "outside_basis", calls)
    assert sorted(parse(machine).algebras) == ["BL", "BR"]
    assert len(calls) == 2


# -- one materialization per distinct presentation -------------------------


def menorah16(directory):
    """Path of the 16-branch rung of the menorah ladder: one ambient and
    16 copies of one presentation of S^3 under 16 names."""
    path = directory / "menorah16.pemb"
    path.write_text(ladder.build("menorah_fp", 1).problems["menorah16"].text)
    return str(path)


def counting(monkeypatch):
    """Calls of the materialization, the algebra check and the semifree
    resolution, in order."""
    calls = []
    counted_calls(monkeypatch, algebra, "materialize_free_cdga", calls)
    counted_calls(monkeypatch, checks, "check_cdga", calls)
    counted_calls(monkeypatch, modules, "semifree_resolution", calls)
    return calls


def test_each_distinct_presentation_is_materialized_and_checked_once(
        monkeypatch, tmp_path):
    """Parsing a 16-branch menorah materializes and checks the ambient
    and one branch; the other 15 branches share that branch's algebra.
    `dgmodule-square` resolves the one map they share once, not 16 times."""
    path = menorah16(tmp_path)
    calls = counting(monkeypatch)
    pf = cli.parse_file(path)
    assert (calls.count("materialize_free_cdga"), calls.count("check_cdga")) == (2, 2)
    _, _, branches = pf.problem
    targets = [pf.algebras[q].cdga for q, _ in branches]
    assert all(t.product is targets[0].product for t in targets)
    del calls[:]
    assert run_cli(["dgmodule-square", path])[0] == 0
    assert calls.count("semifree_resolution") == 1


def test_a_repeated_morphism_is_checked_once(monkeypatch, tmp_path):
    """The 16 maps R -> Q_k of a menorah are equal, and their targets
    share one checked algebra's tables: parsing checks the first and
    lets the other 15 pass as it did.  A map that differs is checked."""
    calls = []
    counted_calls(monkeypatch, checks, "check_cdga_morphism", calls)
    pf = cli.parse_file(menorah16(tmp_path))
    assert len(pf.morphisms) == 16
    assert calls.count("check_cdga_morphism") == 1
    del calls[:]
    parse("field rational\nwindow 0 5\n"
          "cdga R { generator a deg 2 ; relation a^2 }\n"
          "cdga Q { generator x deg 2 ; relation x^2 }\n"
          "cdga P { generator y deg 2 ; relation y^2 }\n"
          "cdga T { generator z deg 2 ; generator w deg 3 ; relation z^2 }\n"
          "morphism f : R -> Q { a -> x }\n"
          "morphism g : R -> Q { a -> 0 }\n"
          "morphism h : R -> Q { a -> x }\n"
          "morphism k : R -> P { a -> y }\n"
          "morphism t : R -> T { a -> z }\n")
    # f, g (another map) and t (a target with other tables); h equals f,
    # and k equals f into a copy of Q under other names
    assert calls.count("check_cdga_morphism") == 3


def test_nothing_is_shared_between_two_runs(monkeypatch, tmp_path):
    """The shared presentations live on one parsed file: a second run in
    the same process materializes and checks again, as the first did."""
    path = menorah16(tmp_path)
    calls = counting(monkeypatch)
    runs = []
    for _ in range(2):
        del calls[:]
        assert run_cli(["dgmodule-square", path])[0] == 0
        runs.append(list(calls))
    assert runs[0] == runs[1]
    assert [runs[0].count(c) for c in ("materialize_free_cdga", "check_cdga",
                                       "semifree_resolution")] == [2, 2, 1]
