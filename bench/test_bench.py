"""Tests of the benchmark itself: oracles, span arithmetic, wrappers.

    python3 -m pytest -q bench
"""

import os

import pytest

import ladder
import spans
import worker

cli_main = worker.import_cli()

from pemb.linalg import Matrix            # noqa: E402  (after import_cli)
from pemb.fields import QQ                # noqa: E402
from pemb.parser import parse             # noqa: E402
from pemb.pipeline import oracle_complement_dims  # noqa: E402

SMALLEST = {"torus_checks": "torus3", "sphere_quotient": "spheres2",
            "menorah_fp": "menorah4"}


def _smallest(workload, seed):
    wl = ladder.build(workload, seed)
    key = SMALLEST[workload]
    jobs = tuple(j for j in wl.jobs if j.problem == key)
    work = os.path.join(worker.ROOT, ".bench_work",
                        "test-%s-%d" % (workload, seed))
    small = ladder.Workload(workload, {key: wl.problems[key]}, jobs, "")
    return small, ladder.write_problems(small, work)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ladder.WORKLOADS)
def test_oracle_matches_pemb_on_smallest_rung(workload, seed):
    wl, paths = _smallest(workload, seed)
    assert wl.jobs
    _, results = worker.run_pass(cli_main, wl, paths)
    for job, code, out, err, _ in results:
        assert ladder.check(job, wl.problems[job.problem], code, out, err) == []
    for prob in wl.problems.values():
        problem = parse(prob.text).embedding_problem()
        assert oracle_complement_dims(problem) == prob.complement


def test_seed_varies_text_not_size():
    a = ladder.build("menorah_fp", 1).problems["menorah4"]
    b = ladder.build("menorah_fp", 2).problems["menorah4"]
    assert a.text != b.text
    assert (a.complement, a.boundary) == (b.complement, b.boundary)
    assert ladder.build("menorah_fp", 1) == ladder.build("menorah_fp", 1)


def test_check_catches_a_wrong_table():
    wl = ladder.build("torus_checks", 1)
    job = wl.jobs[0]
    prob = wl.problems[job.problem]
    good = "\n".join(ladder.expected_lines(job, prob)) + "\n"
    assert ladder.check(job, prob, 0, good, "") == []
    bad = good.replace("deg 0:1", "deg 0:2", 1)
    assert ladder.check(job, prob, 0, bad, "")
    assert ladder.check(job, prob, 1, good, "")


def test_span_totals_on_synthetic_tree():
    # a [0,10] -> b [1,4] -> a [2,3] ; a -> c [5,9]
    tree = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
            ["a", 2.0, 3.0, 1, 0], ["c", 5.0, 9.0, 0, 0]]
    totals = spans.span_totals(tree)
    assert totals["a"] == (10.0, (10 - 3 - 4) + 1.0, 2)
    assert totals["b"] == (3.0, 3.0 - 1.0, 1)
    assert totals["c"] == (4.0, 4.0, 1)
    assert sum(own for _, own, _ in totals.values()) == 10.0


def test_wrapped_functions_return_identical_results():
    m = Matrix(QQ, [[0, 2, 4], [1, 1, 1], [2, 4, 6]])
    originals = {k: v for k, v in vars(Matrix).items()}
    wl, paths = _smallest("sphere_quotient", 1)
    _, plain = worker.run_pass(cli_main, wl, paths)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert Matrix.rref is not originals["rref"]
        wrapped_rref = m.rref()
        _, traced = worker.run_pass(cli_main, wl, paths, rec)
    finally:
        spans.uninstall(undo)
    assert dict(vars(Matrix)) == originals
    assert wrapped_rref == m.rref()
    assert [r[1:4] for r in traced] == [r[1:4] for r in plain]
    assert rec.counts["linalg.rref_cells"] > 0 and rec.spans


def test_counts_repeat_exactly():
    wl, paths = _smallest("torus_checks", 1)
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            worker.run_pass(cli_main, wl, paths, rec)
        finally:
            spans.uninstall(undo)
        m = spans.layer_metrics(rec)
        counts.append({k: v for k, v in m.items()
                       if spans.LAYER_METRICS[k][0] == "count"})
    assert counts[0] == counts[1]
    assert all(counts[0][k] > 0 for k in ("linalg.rref_calls",
                                          "algebra.mul_vec_calls",
                                          "modules.act_vec_calls"))
