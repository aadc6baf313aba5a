"""Ladder benchmark of `pemb`: time to a certified report.

    python3 bench/run.py --workload torus_checks --seed 1 --seconds 42 --trace 0

Run from the root of a checkout.  For one workload (see ladder.py and
BENCHMARK.json) it starts single-threaded child processes (worker.py):
six that only set up, then one that also runs the job list in passes
until the next pass would overrun `--seconds`, checking every report
against the closed-form oracle.

With `--trace 0` the last line of stdout carries the end-to-end metrics:
  setup_s        median over the seven children of the time from process
                 start until `pemb` is imported and the inputs are written
  pass_s         median wall seconds of one pass over the job list
  largest_job_s  median wall seconds of the workload's top rung
  peak_rss_mb    ru_maxrss of the measuring child
Every timing sample is divided by the host's slowdown while it was taken,
which a fixed probe loop measures after each job (see worker.PROBE_S),
so the timings read as wall seconds on the unloaded host.  The raw wall
samples and each pass's slowdown are in the summary line.
With `--trace 1` it carries the per-layer metrics of spans.py, medians
over traced passes, each traced pass following an untraced one.

The line before it is a summary: every sample (a run has 2 to 9 passes,
too few for a percentile with ten samples beyond it), the report digest,
the failure ratio and, when traced, each span's share of self time.
Exit code 1, with no result line, when a child fails or `pemb` cannot be
imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

import ladder  # noqa: E402  (HERE is on sys.path as the script directory)
import spans   # noqa: E402
import worker  # noqa: E402

SETUP_ONLY_RUNS = 6
DEADLINE_S = 170           # the whole run must end within 180 s


class ChildError(RuntimeError):
    pass


def run_child(args, extra, timeout):
    """Start worker.py, wait for it, return its JSON result."""
    # String hashing is fixed so that counts repeat exactly between runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    cmd += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError("worker exceeded %.0f s" % timeout)
    if proc.returncode != 0:
        raise ChildError("worker exited with code %d" % proc.returncode)
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildError("worker printed no result")


def slowdown(probe_s):
    """How much slower than unloaded the host ran, from probe times."""
    return statistics.median(probe_s) / worker.PROBE_S


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ladder.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")

    begin = time.monotonic()
    try:
        children = [] if args.trace else [
            run_child(args, ["--setup-only"], 60) for _ in range(SETUP_ONLY_RUNS)]
        res = run_child(args, [], DEADLINE_S - (time.monotonic() - begin))
    except ChildError as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1

    failed = len(res["failures"])
    summary = {"workload": args.workload, "seed": args.seed,
               "report_digest": res["report_digest"],
               "fail_ratio": failed / res["attempted"],
               "pass_s_samples": res["pass_s"],
               "largest_job_s_samples": res["top_job_s"],
               "failures": res["failures"][:5]}
    if args.trace:
        summary["self_share"] = res["self_share"]
        summary["spans_file"] = res["spans_file"]
        metrics = {name: metric(res["layers"][name], unit)
                   for name, (unit, _, _) in spans.LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = metric(res["layers"]["trace.overhead_s"], "s")
    else:
        # The measuring child's set-up is scaled by its whole run's probes.
        setups = [c["setup_s"] / slowdown(c["probe_s"]) for c in children]
        setups.append(res["setup_s"] / slowdown(sum(res["probe_s"], [])))
        ks = [slowdown(p) for p in res["probe_s"]]
        summary["setup_s_samples"] = [c["setup_s"] for c in children] + [res["setup_s"]]
        summary["host_slowdown"] = ks
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "pass_s": metric(statistics.median(
                t / k for t, k in zip(res["pass_s"], ks)), "s"),
            "largest_job_s": metric(statistics.median(
                t / k for t, k in zip(res["top_job_s"], ks)), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
