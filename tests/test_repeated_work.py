"""The complement path without repeated work, against the earlier forms
kept in `repeated.py`.

Each unordered pair of standard monomials is merged once, s^(-n) # Q is
restricted along phi before it is dualized, and a restriction groups
only the action entries on the elements that phi names.  Each must give
the tables the earlier forms gave, in the same order, on every
presentation and every morphism of the shipped examples, the benchmark
ladders at seeds 1 and 7 and the problems of `builders`.  On the largest
rung of each ladder, the work left is counted.
"""

import sys
from pathlib import Path

import pytest

import builders
from builders import S3S1_IN_S3S11, SULLIVAN_S2_IN_S9, run_cli
from pemb import cli, modules, parser
from pemb.duality import shifted_dual_morphism
from pemb.fields import QQ, PrimeField
from pemb.modules import (algebra_as_module, restrict_scalars, restricted_shifted_dual,
                          shifted_dual)
from pemb.parser import parse
from repeated import (dualize_then_restrict, every_pair_product,
                      restrict_grouping_every_element)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's problem generator)

FIELDS = [QQ, PrimeField(10007)]


def problem_texts():
    """The text of each shipped example, each ladder problem at seeds 1
    and 7, and the problems of `builders`."""
    texts = [cli.example_path(name).read_text() for name in sorted(cli.EXAMPLES)]
    for seed in (1, 7):
        for workload in ladder.WORKLOADS:
            problems = ladder.build(workload, seed).problems
            texts += [problems[key].text for key in sorted(problems)]
    return texts + [S3S1_IN_S3S11, SULLIVAN_S2_IN_S9]


def test_each_product_table_equals_the_every_pair_table(monkeypatch):
    """The table merged once per unordered pair is the every-pair table,
    keys in the same order: the insertion order, on which the bound of
    `MAX_PRODUCT_ENTRIES` and its message rest, is the earlier loop's."""
    built = []
    materialize = parser.materialize_free_cdga

    def recorded(*args):
        a = materialize(*args)
        built.append(a)
        return a

    for namespace in (parser, builders):
        monkeypatch.setattr(namespace, "materialize_free_cdga", recorded)
    for text in problem_texts():
        parse(text)
    for field in FIELDS + [PrimeField(2)]:
        for n in range(1, 7):
            builders.sphere(n, field=field)
        for k in (2, 3):
            builders.complex_projective(k, field=field)
        for build in (builders.wedge_s2_s4, builders.product_s2_s4,
                      builders.sullivan_cp2, builders.torus_s1_s7):
            build(field=field)
    assert len(built) >= 60
    # some table has an odd pair whose second key carries a sign
    assert any(d1 % 2 and d2 % 2 for a in built for d1, _, d2, _ in a.product)
    for a in built:
        assert list(a.product.items()) == list(every_pair_product(a).items())


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F10007"])
def test_restricting_first_gives_the_dual_of_all_of_q_restricted(field):
    """s^(-n) # Q restricted before it is dualized has the table, the d
    blocks and the labels of the dual of all of Q restricted after, for
    each morphism of each problem; `shifted_dual_morphism` has it as its
    source."""
    compared = 0
    for text in problem_texts():
        problem = parse(text, field_override=field).embedding_problem()
        for phi in problem.branches:
            got = restricted_shifted_dual(phi, problem.n)
            ref = dualize_then_restrict(phi, problem.n)
            for m in (got, shifted_dual_morphism(phi, problem.n).source):
                assert m.algebra is ref.algebra is phi.source
                assert m.action == ref.action
                assert m.complex.d.blocks == ref.complex.d.blocks
                assert m.space.dims == ref.space.dims
                assert m.space.labels == ref.space.labels
            compared += 1
    # 8 examples (two_s7_in_s15 with two branches), 2 problems of
    # `builders`, 12 one-branch rungs and 2 x (4 + 8 + 16) menorah branches
    assert compared == 9 + 2 + 12 + 56


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F10007"])
def test_restricting_reads_only_what_phi_names_for_the_same_table(field):
    """Q acting on itself, and its shifted dual, restricted along each
    morphism of each problem have the table, insertion order included,
    that grouping every entry of the action first gives."""
    compared = 0
    for text in problem_texts():
        problem = parse(text, field_override=field).embedding_problem()
        for phi in problem.branches:
            q = algebra_as_module(phi.target)
            for m in (q, shifted_dual(q, problem.n)):
                got = restrict_scalars(m, phi).action
                ref = restrict_grouping_every_element(m, phi).action
                assert list(got.items()) == list(ref.items())
                compared += 1
    assert compared == 2 * (9 + 2 + 12 + 56)


def test_the_largest_rungs_skip_the_empty_rounds_and_the_unnamed_elements(
        monkeypatch, tmp_path):
    """On the largest rung of each workload at seed 1, the resolutions
    build blocks of d only in the rounds of a degree where P or H^j of
    the resolved module is nonzero, and each restriction groups only the
    entries of its module's action on the elements that phi names:
    (entries grouped, entries in the table), one pair per restriction."""
    d_blocks = []
    d_block = modules._FreeBuilder.d_block

    def counted(self, d):
        d_blocks.append(d)
        return d_block(self, d)

    grouped = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is modules.restrict_scalars.__code__:
            names = frame.f_locals
            grouped.append((sum(map(len, names["by_element"].values())),
                            len(names["m"].action)))

    monkeypatch.setattr(modules._FreeBuilder, "d_block", counted)
    for workload, name, command, blocks, groups in (
            ("torus_checks", "torus5", "complement", 30, [(32, 243)]),
            ("menorah_fp", "menorah16", "dgmodule-square", 10, [(2, 3), (32, 48)]),
            ("sphere_quotient", "spheres4", "stable-square", 17, [(16, 81)])):
        path = tmp_path / (name + ".pemb")
        path.write_text(ladder.build(workload, 1).problems[name].text)
        d_blocks.clear()
        grouped.clear()
        sys.setprofile(profile)
        try:
            code, _, _ = run_cli([command, str(path)])
        finally:
            sys.setprofile(None)
        assert (code, len(d_blocks), grouped) == (0, blocks, groups), name
