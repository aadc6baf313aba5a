"""Checks run once: at the trust boundary and where a report rests on them.

The parser checks every explicit algebra and every morphism it reads; a
free presentation, the free module of a semifree resolution and its
map rho are proven where they are built.  A report checks what it
certifies, prints or emits: the Leibniz report of a cone, the truncated
cone and its base map, the corners and maps that the square pipelines
build, the cone modules of `dgmodule-square` and `lefschetz`, the
H-algebras of `lefschetz` and `cohomology --object`, and the umkehr
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
built is walked exhaustively, runs every shipped example, every rung of
each benchmark ladder at two seeds and four resolutions of the ground
field under it, finds no witness, and finds every proof record equal to
the one read off its object's table and the direct unit pass agreeing
with `_unit_law`.  What is proven by construction is walked at run time
no more, so a fault there is named by the harness alone: each fault row
injects one and shows the harness naming it.  A fault in a unit entry,
or in an idempotent product of a direct sum, is named with the
exhaustive walk's witness.
Where the stable square's normalizations are the identity, it builds
and checks nothing for them.  Each truncation is built and certified
once, and a parsed algebra has its indices checked once.  Every algebra
morphism that parsing and the stable square check joins two proven
algebras, so it is checked multiplicative on the generating set alone.
A free presentation that a file repeats under other names is
materialized once per parse, never once per process, and
`dgmodule-square` resolves the equal branches of a menorah once.
"""

import inspect
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

from pemb import algebra, checks, cli, cones, duality, graded, modules, pipeline, tables
from pemb.algebra import Cdga, CdgaMorphism, materialize_free_cdga
from pemb.checks import (check_cdga, check_cdga_morphism, check_module,
                         check_module_morphism)
from pemb.fields import QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         GradedVectorSpace)
from pemb.linalg import Matrix, scaled
from pemb.modules import (DgModule, DgModuleMorphism, FreeGenerator, ModuleError,
                          semifree_resolution)
from pemb.parser import parse

from builders import (SULLIVAN_S2_IN_S9, complex_projective, free_module,
                      record_cohomology_constructions, run_cli, sphere, sullivan_cp2)
from test_golden import GOLDEN, digest

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

def as_exhaustively(check, walk, axioms):
    """`check`, whose witness, where it is None or names one of `axioms`,
    must be that of `walk`, the exhaustive walk (the checks before those
    axioms are exhaustive themselves); a disagreement is returned as the
    witness, so that the harness names it."""
    def checked(obj):
        witness = check(obj)
        if witness is None or witness.axiom in axioms:
            full = walk(obj)
            if full != witness:
                return "%s, where the exhaustive walk finds %s" % (witness, full)
        return witness
    return checked


ALGEBRA_UNIT = (("unit", 0), ("right unit", 1))
MODULE_UNIT = (("module unit", 0),)


def unit_laws(obj):
    """(algebra, table, sides) of the unit laws of an algebra or module."""
    if isinstance(obj, Cdga):
        return obj, obj.both_orders, ALGEBRA_UNIT
    return obj.algebra, obj.action, MODULE_UNIT


def unit_pass_disagreement(obj):
    """Where the algebra of `obj`, an algebra or module whose check
    passed, has a line in degree 0: the disagreement of the direct unit
    pass with `_unit_law`, or None."""
    a, table, sides = unit_laws(obj)
    if checks._line_unit(a) is None:
        return None
    law = checks._unit_law(a.unit, table, sides, obj.space)
    if checks._unit_fixes(a, table, sides, obj.space) != (law is None):
        return "the direct unit pass disagrees with %s" % law
    return None


# Algebras and modules are walked on every first factor, module maps on
# every pair (x, n), whatever records their ends carry.
CHECKS = (
    (Cdga, as_exhaustively(check_cdga, lambda a: checks._Walk(a).first_failure(),
                           ("commutativity", "associativity", "Leibniz"))),
    (CdgaMorphism, check_cdga_morphism),
    (DgModule, as_exhaustively(check_module,
                               lambda m: checks._Walk(m.algebra, m).first_failure(),
                               ("module associativity", "module Leibniz"))),
    (DgModuleMorphism, as_exhaustively(
        check_module_morphism, lambda f: checks._linearity(f, tables.columns(f.map)),
        ("linearity",))))


def check_every_object(monkeypatch):
    """Wrap the four constructors so that each object built is checked
    exhaustively; returns the list the witnesses go to, as (class,
    witness, the function that built the object), and the list of
    (object, that function) of every algebra and module built.  On an
    algebra or module that passes, the direct unit pass must agree with
    `_unit_law`.  The checks leave no record: an object's record is the
    one its builder or a check of the program sets."""
    found, built = [], []

    def record(obj, check):
        witness = check(obj)
        builder = sys._getframe(2).f_code.co_name
        if hasattr(obj, "proven_generators"):
            witness = witness or unit_pass_disagreement(obj)
            obj.proven_generators = None
            built.append((obj, builder))
        if witness is not None:
            found.append((type(obj).__name__, str(witness), builder))

    for cls, check in CHECKS:
        def checked(self, *args, _init=cls.__init__, _check=check, **kwargs):
            _init(self, *args, **kwargs)
            record(self, _check)
        monkeypatch.setattr(cls, "__init__", checked)
    return found, built


def wrong_records(built):
    """(builder, record, the record read off the table) of each object of
    `built` whose proof record is not read off its table: an algebra's
    must be `generating_set`, a module's (S of its algebra,
    `module_generating_set`)."""
    out = []
    for obj, builder in built:
        record = obj.proven_generators
        if record is not None:
            want = (checks.generating_set(obj) if isinstance(obj, Cdga) else
                    (checks.generating_set(obj.algebra), checks.module_generating_set(obj)))
            if record != want:
                out.append((builder, record, want))
    return out


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


def ladder_runs(directory):
    """(argv, job, problem) of every job of every benchmark ladder at
    seeds 1 and 2, the problems written to `directory`."""
    for seed in (1, 2):
        for workload in ladder.WORKLOADS:
            wl = ladder.build(workload, seed)
            for job in wl.jobs:
                path = directory / ("%d-%s.pemb" % (seed, job.problem))
                path.write_text(wl.problems[job.problem].text)
                yield [job.command, str(path)], job, wl.problems[job.problem]


def resolve_the_ground_field(a):
    """The semifree resolution of the ground field, in degree 0, over `a`."""
    ground, _ = free_module(a, [FreeGenerator("g", 0)], {}, DegreeWindow(0, 0))
    return semifree_resolution(ground, window=a.space.window)


def exterior_s3_s3():
    """H^*(S^3 x S^3): two odd generators, whose product acts on the
    differentials of the resolution of the ground field."""
    return materialize_free_cdga(QQ, [("a", 3), ("b", 3)], {}, [], DegreeWindow(0, 8))


def nil3_x_s1():
    """Lambda(a, t, b, c), dc = ab: the Heisenberg nilmanifold times S^1.
    d(tc) = -t ab = atb, where `_merge_sign` moves t past b."""
    return materialize_free_cdga(QQ, [("a", 1), ("t", 1), ("b", 1), ("c", 1)],
                                 {"c": {(0, 2): 1}}, [], DegreeWindow(0, 4))


# Algebras over which the resolution of the ground field has kernel-killing
# generators with d != 0; the shipped examples' and the ladders' have
# d = 0, or no element of odd degree acting on it.
GROUND = (lambda: sphere(2, hi=7), lambda: complex_projective(2, hi=9), sullivan_cp2,
          exterior_s3_s3)


FALSE_ATTESTATION = "hypothesis failure: attested boundary simple connectivity fails: "


def test_full_check_harness_finds_no_witness(monkeypatch, tmp_path):
    """Every object that the shipped examples, every rung of the ladders
    at two seeds and the resolutions of the ground field over `GROUND`
    build is walked exhaustively, and passes, but the bar map that a false
    attestation asks for, as the run reports; every proof record, whether
    its builder set it by construction or a check of the program did, is
    the one read off its table.  The presentations, the free modules of
    the resolutions and their maps rho are among them.  On each algebra
    and module with a line in degree 0, the direct unit pass agrees with
    `_unit_law`."""
    found, built = check_every_object(monkeypatch)
    recorded = set()
    lines = {Cdga: 0, DgModule: 0}

    def records_read_off_the_tables(run):
        assert wrong_records(built) == [], run
        recorded.update(b for obj, b in built if obj.proven_generators is not None)
        for obj, _ in built:
            lines[type(obj)] += checks._line_unit(unit_laws(obj)[0]) is not None
        del built[:]

    codes = {}
    for argv in shipped_runs():
        code, _, err = run_cli(argv)
        codes[tuple(argv)] = code
        if err.startswith(FALSE_ATTESTATION):
            # the bar map of a false attestation is not multiplicative, as reported
            assert found.pop() == ("CdgaMorphism", err[len(FALSE_ATTESTATION):].strip(),
                                   "_induced_quotient_morphism")
        records_read_off_the_tables(argv)
    assert set(codes.values()) == {0, 1}
    assert codes["punctured-square", str(cli.example_path("s3s1_in_s3s11")), ATTEST] == 1
    for argv, job, problem in ladder_runs(tmp_path):
        code, out, err = run_cli(argv)
        assert ladder.check(job, problem, code, out, err) == []
        records_read_off_the_tables(job.name)
    for build in GROUND:
        resolve_the_ground_field(build())
        records_read_off_the_tables(build)
    assert found == []
    assert {"materialize_free_cdga", "assemble"} <= recorded
    assert min(lines.values()) > 100


# -- faults that only the harness names -------------------------------------


def mutated(monkeypatch, module, owner, name, old, new):
    """Replace the function `name` of `owner` (`module` itself, or a class
    of it) by one compiled from its source with the text `old`, which
    must occur once, replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), namespace)
    if owner is module:
        patch_everywhere(monkeypatch, module, name, lambda f: namespace[name])
    else:
        monkeypatch.setattr(owner, name, namespace[name])


def koszul_sign_dropped(merge):
    """_merge_sign with the sign of an odd number of swaps flipped to +1."""
    def flipped(field, m1, m2, gen_degs):
        s, out = merge(field, m1, m2, gen_degs)
        return (s if s is None else field.one), out
    return flipped


def negated_products(form):
    """FreePresentation.monomial_form with the class of each basis
    monomial of two or more factors negated."""
    def wrong(self, t):
        v = form(self, t)
        return {i: -x for i, x in v.items()} if len(t) > 1 and t in self._position else v
    return wrong


def last_element_dropped(basis):
    return lambda *args: basis(*args)[:-1]


def rung(workload, command, problem):
    """A run of `command` on a ladder problem at seed 1."""
    def run(directory):
        path = directory / (problem + ".pemb")
        path.write_text(ladder.build(workload, 1).problems[problem].text)
        run_cli([command, str(path)])
    return run


def shipped(example, command):
    """A run of `command` on a shipped example; returns whether the
    report differs from its golden digest."""
    def run(directory):
        argv = [command, str(cli.example_path(example)), "--format", "table"]
        golden = json.loads(GOLDEN.read_text())
        return digest(argv) != golden["%s %s table" % (example, command)]
    return run


# (fault, patch, run, (builder, message) of a witness that the harness
# must name, or None where the fault builds another valid algebra and the
# run's golden digest names it).  Each run but the last lets its fault
# pass; the last is refused by a later check, as its wrapped module
# carries no record.
FAULTS = [
    ("mask_sign",
     lambda monkeypatch: mutated(
         monkeypatch, algebra, algebra, "materialize_free_cdga",
         "field.sign((above1 & odds2[i2]).bit_count())", "field.one"),
     rung("torus_checks", "complement", "torus3"),
     ("materialize_free_cdga", r"^associativity fails on \(")),
    ("_merge_sign",
     _patch(algebra, "_merge_sign", koszul_sign_dropped),
     lambda directory: nil3_x_s1(),
     ("materialize_free_cdga", r"^Leibniz fails on \(t, c\)$")),
    ("monomial_form",
     lambda monkeypatch: monkeypatch.setattr(
         algebra.FreePresentation, "monomial_form",
         negated_products(algebra.FreePresentation.monomial_form)),
     rung("sphere_quotient", "complement", "spheres2"),
     ("materialize_free_cdga", r"^unit law fails on \w+\*\w+$")),
    ("_groebner_basis",
     _patch(algebra, "_groebner_basis", last_element_dropped),
     shipped("cp2_in_s8", "dgmodule-square"), None),
    ("_FreeBuilder.add",
     lambda monkeypatch: mutated(monkeypatch, modules, modules._FreeBuilder, "add",
                                 "field.sign(e) * c", "c"),
     lambda directory: resolve_the_ground_field(exterior_s3_s3()),
     ("assemble", r"^action Leibniz fails on \(a, u3_2\)$")),
    ("rho",
     lambda monkeypatch: mutated(
         monkeypatch, modules, modules, "semifree_resolution",
         "m.act_vec(e, a.basis_vec(e, ib), gen.degree, rho_val))",
         "scaled(field, 2 if e else 1, m.act_vec(e, a.basis_vec(e, ib), gen.degree, rho_val)))"),
     rung("torus_checks", "stable-square", "torus3"),
     ("semifree_resolution", r"^morphism not linear over \(\w+\) at v7_0$")),
    # free modules are grown in place; the builder's assembly hands them over
    ("free_module",
     lambda monkeypatch: monkeypatch.setattr(
         modules._FreeBuilder, "assemble", on_result(broken_module(unit_action), first=True)(
             modules._FreeBuilder.assemble)),
     shipped("cp2_in_s8", "dgmodule-square"),
     ("semifree_resolution", r"^morphism not linear over \(1\) at v4_0$")),
]


@pytest.mark.parametrize("patch, run, named", [f[1:] for f in FAULTS],
                         ids=[f[0] for f in FAULTS])
def test_the_harness_names_each_injected_fault(monkeypatch, tmp_path, patch, run, named):
    """A fault in what is proven by construction, not walked at run time,
    is named by the harness's exhaustive walks of what the run builds."""
    found, _ = check_every_object(monkeypatch)
    patch(monkeypatch)
    changed = run(tmp_path)
    if named is None:
        assert changed and found == []
    else:
        builder, message = named
        assert any(b == builder and re.search(message, w) for _, w, b in found), found


# -- the unit laws: one direct pass, `_unit_law` to name a witness -----------


def s3_x_s1():
    """H^*(S^3 x S^1), proven where it is built: A^0 is a line."""
    return materialize_free_cdga(QQ, [("a", 3), ("t", 1)], {}, [], DegreeWindow(0, 6))


def with_entry(table, key, change):
    """A copy of `table` with the entry at `key` changed by `change`, or
    dropped where `change` gives None."""
    out = dict(table)
    v = change(out.pop(key))
    if v is not None:
        out[key] = v
    return out


def scaled_left_unit(a):
    """The entry (0, 0, 3, 0), e times a, doubled: the unit law fails on a."""
    return Cdga(a.field, a.complex, with_entry(a.product, (0, 0, 3, 0),
                                                lambda v: {i: 2 * c for i, c in v.items()}),
                a.unit)


def dropped_right_unit(a):
    """The entry (3, 0, 0, 0), a times e, dropped from the stored table."""
    b = Cdga(a.field, a.complex, a.product, a.unit)
    b.both_orders = with_entry(a.both_orders, (3, 0, 0, 0), lambda v: None)
    return b


def changed_module_unit(a):
    """A acting on itself with e.(a t) sent to a t + a t."""
    m = modules.algebra_as_module(a)
    return DgModule(a, m.complex, with_entry(m.action, (0, 0, 4, 0),
                                              lambda v: {i: 2 * c for i, c in v.items()}))


@pytest.mark.parametrize("broken, check, named", [
    (scaled_left_unit, check_cdga, "unit law fails on a"),
    (dropped_right_unit, check_cdga, "unit law (right) fails on a"),
    (changed_module_unit, check_module, "unit does not act as identity on a*t"),
], ids=["left unit scaled", "right unit dropped", "module unit changed"])
def test_a_unit_fault_is_named_with_the_exhaustive_witness(broken, check, named):
    """A unit entry scaled, dropped or changed fails the direct pass, and
    the check names the witness of `_unit_law`, the exhaustive walk of
    the unit laws."""
    obj = broken(s3_x_s1())
    a, table, sides = unit_laws(obj)
    assert checks._line_unit(a) == QQ.one
    assert not checks._unit_fixes(a, table, sides, obj.space)
    witness = check(obj)
    assert witness == checks._unit_law(a.unit, table, sides, obj.space)
    assert str(witness) == named


HALF_UNIT = """\
field rational
window 0 8
cdga A explicit {
  basis e deg 0
  basis a deg 3
  basis t deg 1
  basis at deg 4
  product e e = 2 * e
  product e a = 2 * a
  product e t = 2 * t
  product e at = 2 * at
  product a t = at
  product t a = -1 * at
}
"""


def test_a_unit_other_than_the_basis_element_passes_the_direct_pass(monkeypatch):
    """An explicit algebra whose unit is e/2: the direct pass compares
    each entry e x with x / c, c = 1/2, and decides the unit laws
    without `_unit_law`; over F_p too.  Its module check passes alike."""
    calls = []
    counted_calls(monkeypatch, checks, "_unit_law", calls)
    for field in ("rational", "prime 7"):
        a = parse(HALF_UNIT.replace("rational", field)).algebras["A"].cdga
        assert a.unit == {0: a.field.div(1, 2)} and a.proven_generators is not None
        assert checks._unit_fixes(a, a.both_orders, ALGEBRA_UNIT, a.space)
        assert check_module(modules.algebra_as_module(a)) is None
    assert calls == []


def test_an_idempotent_product_fault_is_named_on_the_menorah_sum():
    """The target of a menorah is a direct sum with A^0 spanned by k
    idempotents e_i, not a line, so it keeps the walk of every tuple.
    With e_0 x_0 doubled and e_1 x_0 = -x_0 the unit laws still hold, and
    only tuples with a factor of degree 0 fail: the check names the
    exhaustive walk's witness."""
    target = parse(ladder.build("menorah_fp", 1).problems["menorah4"].text
                   ).embedding_problem().target
    field = target.field
    assert target.space.dim(0) == 4 and checks._line_unit(target) is None
    product = dict(target.product)
    for key in ((0, 0, 3, 0), (3, 0, 0, 0)):
        product[key] = scaled(field, field.of(2), product[key])
    product[(0, 1, 3, 0)] = {0: field.minus_one}
    broken = Cdga(field, target.complex, product, target.unit)
    assert checks._unit_law(broken.unit, broken.both_orders, ALGEBRA_UNIT, broken.space) is None
    witness = check_cdga(broken)
    assert witness is not None and witness == checks._Walk(broken).first_failure()
    assert witness.axiom == "associativity" and witness.basis[0][0] == 0


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
    assert stable == {"point_in_sn", "s2_in_s9_stable", "s3s1_in_s3s11", "torus3", "torus4",
                      "torus5", "spheres2", "spheres3", "spheres4"}


# -- morphisms between proven algebras --------------------------------------


def test_stable_square_checks_each_morphism_on_s(monkeypatch, tmp_path):
    """Every algebra morphism checked in parsing the shipped examples and
    ladder rungs, and in their stable squares, joins two proven algebras:
    each check decides multiplicativity on S of its source, passes there
    and walks no pair beyond it."""
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
    assert stable == 9
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
    """Calls of the materialization, the algebra check, the reading of a
    proof record and the semifree resolution, in order."""
    calls = []
    counted_calls(monkeypatch, algebra, "materialize_free_cdga", calls)
    counted_calls(monkeypatch, checks, "check_cdga", calls)
    counted_calls(monkeypatch, checks, "generating_set", calls)
    counted_calls(monkeypatch, modules, "semifree_resolution", calls)
    return calls


def test_each_distinct_presentation_is_materialized_and_checked_once(
        monkeypatch, tmp_path):
    """Parsing a 16-branch menorah materializes the ambient and one
    branch, each proven where it is built: its record read off its table
    once, and no `check_cdga` walk.  The other 15 branches share that
    branch's algebra.  `dgmodule-square` resolves the one map they share
    once, not 16 times."""
    path = menorah16(tmp_path)
    calls = counting(monkeypatch)
    pf = cli.parse_file(path)
    assert [calls.count(c) for c in ("materialize_free_cdga", "check_cdga",
                                     "generating_set")] == [2, 0, 2]
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
    the same process materializes and proves again, as the first did."""
    path = menorah16(tmp_path)
    calls = counting(monkeypatch)
    runs = []
    for _ in range(2):
        del calls[:]
        assert run_cli(["dgmodule-square", path])[0] == 0
        runs.append(list(calls))
    assert runs[0] == runs[1]
    assert [runs[0].count(c) for c in ("materialize_free_cdga", "check_cdga",
                                       "generating_set", "semifree_resolution")] == [2, 0, 2, 1]
