"""Products of classes are reduced in one place, `algebra.projected_table`.

The H-algebra of `cohomology_algebra`, the action and the product of
`lefschetz` and the pairing that `gysin_map` solves against are read
off tables that are built once.  Each is compared here with the loop it
replaced (`classtables.py`) on every shipped example, on every problem
of the benchmark ladder at seed 7 and on the problems below.
"""

import sys
from pathlib import Path

import pytest

from builders import S3S1_IN_S3S11, run_cli
from classtables import cohomology_product, gysin_pairing, lefschetz_product
from dense import mul_basis
from pemb import algebra, cli, modules, pipeline
from pemb.algebra import check_poincare_duality, cohomology_algebra
from pemb.linalg import Matrix, scaled
from pemb.parser import parse

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's problem generator)

# An ambient whose degree-0 basis element is twice the unit: the
# pairings of degrees 0 and n are 2, not the unit law's 1.
UNIT_TWICE = """field rational
window 0 5
cdga R explicit {
  basis one deg 0 ; basis z deg 4
  product one one = 2 one ; product one z = 2 z ; product z one = 2 z
}
cdga Q explicit {
  basis u deg 0 ; basis w deg 2
  product u u = u ; product u w = w ; product w u = w
}
morphism f : R -> Q { one -> 2 u }
problem { ambient R dim 4 ; embedded Q via f }
"""

FIELDS = {"Q": "field rational", "F_10007": "field prime 10007"}


def problem_texts():
    """(name, text) of every shipped example, every ladder problem at
    seed 7 and the problems above, the first also over F_10007."""
    for name in sorted(cli.EXAMPLES):
        yield name, cli.example_path(name).read_text()
    for workload in ladder.WORKLOADS:
        for key, prob in ladder.build(workload, 7).problems.items():
            yield key, prob.text
    for field, line in FIELDS.items():
        yield "s3s1_in_s3s11 " + field, S3S1_IN_S3S11.replace("field rational", line)
    yield "unit_twice", UNIT_TWICE


PROBLEMS = list(problem_texts())


@pytest.mark.parametrize("name, text", PROBLEMS, ids=[p[0] for p in PROBLEMS])
def test_tables_over_classes_match_the_loops_they_replaced(name, text):
    pf = parse(text)
    for parsed in pf.algebras.values():
        assert cohomology_algebra(parsed.cdga)[0].product == cohomology_product(parsed.cdga)
    problem = pf.embedding_problem()
    try:
        out = pipeline.lefschetz(problem)
    except pipeline.HypothesisError:
        out = None
    if out is not None and not out.algebra_undetermined:
        assert out.h_algebra.product == lefschetz_product(problem)
    hw = cohomology_algebra(problem.ambient)[0]
    cert, _ = check_poincare_duality(hw, problem.n)
    if cert is not None:
        assert sorted(cert.pairings) == sorted({0, problem.n} | set(hw.space.degrees()))
        for j in hw.space.degrees():
            assert cert.pairings[j].transpose() == gysin_pairing(hw, cert, j), j


def test_every_kind_of_problem_is_compared():
    """The comparison above reaches a determined Lefschetz algebra on
    shipped examples, on every ladder family and over both fields."""
    determined = []
    for name, text in PROBLEMS:
        try:
            out = pipeline.lefschetz(parse(text).embedding_problem())
        except pipeline.HypothesisError:
            continue
        if not out.algebra_undetermined:
            determined.append(name)
    assert {"cp2_in_s8", "torus4", "spheres4", "menorah16", "s3s1_in_s3s11 Q",
            "s3s1_in_s3s11 F_10007"} <= set(determined)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_product_at_the_bound_comes_from_graded_commutativity(field, tmp_path):
    """c3 lies below the bound 9, c9 does not: c3.c9 is read off the
    action table and c9.c3 = (-1)^27 c3.c9 is nonzero in degree 12."""
    text = S3S1_IN_S3S11.replace("field rational", FIELDS[field])
    problem = parse(text).embedding_problem()
    out = pipeline.lefschetz(problem)
    assert not out.algebra_undetermined
    assert out.h_dims == {0: 1, 3: 1, 9: 1, 12: 1}
    h = out.h_algebra
    forward = mul_basis(h, 3, 0, 9, 0)
    assert forward and (9, 0, 3, 0) in h.product
    assert mul_basis(h, 9, 0, 3, 0) == scaled(h.field, h.field.minus_one, forward)
    assert pipeline.complement_model(problem).h_dims == out.h_dims
    path = tmp_path / "p.pemb"
    path.write_text(text)
    code, stdout, _ = run_cli(["lefschetz", str(path)])
    assert code == 0 and "algebra determined" in stdout


def test_the_pairings_of_degrees_0_and_n_are_read_off_the_table(tmp_path):
    """Where the degree-0 basis element is twice the unit, the pairing of
    degrees (0, n) is 2, and the umkehr map solved against it is 1."""
    problem = parse(UNIT_TWICE).embedding_problem()
    cert, fail = check_poincare_duality(cohomology_algebra(problem.ambient)[0], 4)
    assert fail is None
    assert cert.pairings[0] == cert.pairings[4] == Matrix(cert.pairings[0].field, [[2]])
    path = tmp_path / "p.pemb"
    path.write_text(UNIT_TWICE)
    assert run_cli(["gysin", str(path)]) == (
        0, "umkehr map certified in codimension 2\ndegree 4 block: [['1']]\n", "")


def counted(monkeypatch, cls, attr):
    calls = []
    f = getattr(cls, attr)

    def wrapped(*args):
        calls.append(attr)
        return f(*args)
    monkeypatch.setattr(cls, attr, wrapped)
    return calls


# (workload, problem, command, class, method, most calls)
COUNTS = [
    ("menorah_fp", "menorah16", "lefschetz", modules.DgModule, "act_vec", 32),
    ("sphere_quotient", "spheres4", "gysin", algebra.Cdga, "mul_vec", 167),
]


@pytest.mark.parametrize("workload, key, command, cls, attr, most", COUNTS,
                         ids=["%s:%s" % (c[2], c[1]) for c in COUNTS])
def test_no_product_of_classes_is_computed_twice(monkeypatch, tmp_path, workload, key,
                                                 command, cls, attr, most):
    """`lefschetz` acts once per pair of classes, for the action table,
    and `gysin` takes the ambient pairing from its certificate."""
    path = tmp_path / (key + ".pemb")
    path.write_text(ladder.build(workload, 1).problems[key].text)
    calls = counted(monkeypatch, cls, attr)
    assert run_cli([command, str(path)])[0] == 0
    assert len(calls) <= most
