"""Benchmark child process: one workload, one seed, single-threaded.

Imports `pemb` from the checkout's `src`, writes the seeded problem
files, then runs the workload's job list through `pemb.cli.main` in
passes until the next pass would overrun `--seconds`.  Every report is
checked against the closed-form oracle in `ladder`.  With `--trace 0`
the host-speed probe runs after every job; with `--trace 1` each
untraced pass is followed by a traced one (see `spans`), and the spans
are written to the work directory once, at the end.

Prints one JSON object on stdout; `run.py` reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import ladder  # noqa: E402  (HERE is on sys.path as the script directory)
import spans   # noqa: E402


def import_cli():
    """`pemb.cli.main` from this checkout, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import pemb.cli
    if not os.path.abspath(pemb.cli.__file__).startswith(src + os.sep):
        raise ImportError("pemb was not imported from %s" % src)
    return pemb.cli.main


# Other tenants of a shared host slow every process on it by up to 1.8x
# for tens of seconds at a time, which no change to `pemb` can cause.
# This fixed stdlib loop, timed after every job, tracks that slowdown:
# run.py divides each pass's timings by the pass's median probe time
# over PROBE_S, the probe's time in the least loaded phases of a shared
# 2.1 GHz Xeon vCPU under CPython 3.11.
PROBE_S = 0.02


def probe_seconds():
    """Wall seconds of the host-speed probe (interpreter and Fraction
    arithmetic into a small dict; the collector is off so that the
    program's heap cannot change it)."""
    gc.disable()
    try:
        t = perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        d = {}
        for i in range(2000):
            d[(i % 97, i)] = Fraction(i, 7) * Fraction(3, i + 1)
        return perf_counter() - t
    finally:
        gc.enable()


def run_pass(main, workload, paths, rec=None, probes=None):
    """Run every job once: (seconds in jobs, [(job, code, out, err,
    seconds)]).  With a `probes` list, time the probe after each job."""
    results = []
    for i, job in enumerate(workload.jobs):
        if rec is not None:
            rec.job = i
        out, err = io.StringIO(), io.StringIO()
        t = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([job.command, paths[job.problem]])
        except Exception:
            # A crash is a failed job, not a crashed benchmark.
            code = None
            err.write(traceback.format_exc())
        results.append((job, code, out.getvalue(), err.getvalue(),
                        perf_counter() - t))
        if probes is not None:
            probes.append(probe_seconds())
    return sum(r[4] for r in results), results


class Tally:
    """Checks every job of every pass; collects timings and the digest."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.first_out = {}        # job name -> stdout of its first run
        self.pass_s = []
        self.top_job_s = []

    def add(self, seconds, results, timed=True):
        for job, code, out, err, dt in results:
            self.attempted += 1
            bad = ladder.check(job, self.workload.problems[job.problem],
                               code, out, err)
            if self.first_out.setdefault(job.name, out) != out:
                bad.append("stdout differs from the first pass")
            if bad:
                self.failures.append({"job": job.name, "why": bad,
                                      "stderr": err[-2000:]})
            if timed and job.name == self.workload.top_job:
                self.top_job_s.append(dt)
        if timed:
            self.pass_s.append(seconds)

    def report_digest(self):
        """sha256 of every job's stdout, in job order, under its name."""
        text = "".join("# %s\n%s" % (job.name, self.first_out[job.name])
                       for job in self.workload.jobs)
        return hashlib.sha256(text.encode()).hexdigest()


def self_shares(recorders, traced_s):
    """Share of traced wall time spent in each span's own code, and in
    code outside every span (the CLI, printing and argument parsing)."""
    own = {}
    for rec in recorders:
        for name, (_, s, _) in spans.span_totals(rec.spans).items():
            own[name] = own.get(name, 0.0) + s
    own["(outside spans)"] = traced_s - sum(own.values())
    return {k: round(v / traced_s, 4)
            for k, v in sorted(own.items(), key=lambda kv: -kv[1])}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=ladder.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC, shared by all processes, just "
                         "before the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli_main = import_cli()
    workload = ladder.build(args.workload, args.seed)
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, args.seed))
    paths = ladder.write_problems(workload, work)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "probe_s": [probe_seconds() for _ in range(10)]}))
        return 0

    tally = Tally(workload)
    probes = []                # per untraced pass, the probe after each job
    layers, recorders, traced_s = [], [], 0.0
    start = perf_counter()
    while True:
        t = perf_counter()
        probes.append(None if args.trace else [])
        plain_s, results = run_pass(cli_main, workload, paths, probes=probes[-1])
        tally.add(plain_s, results)
        if args.trace:
            rec = spans.Recorder()
            undo = spans.install(rec)
            try:
                traced, results = run_pass(cli_main, workload, paths, rec)
            finally:
                spans.uninstall(undo)
            tally.add(traced, results, timed=False)
            metrics = spans.layer_metrics(rec)
            metrics["trace.overhead_s"] = traced - plain_s
            layers.append(metrics)
            recorders.append(rec)
            traced_s += traced
        # Stop when one more pass (or traced pair) would overrun the budget.
        now = perf_counter()
        if (now - start) + (now - t) > args.seconds:
            break

    out = {"setup_s": setup_s, "pass_s": tally.pass_s,
           "top_job_s": tally.top_job_s, "probe_s": probes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "attempted": tally.attempted, "failures": tally.failures,
           "report_digest": tally.report_digest()}
    if args.trace:
        out["layers"] = {name: statistics.median(m[name] for m in layers)
                         for name in layers[0]}
        out["self_share"] = self_shares(recorders, traced_s)
        spans_path = os.path.join(work, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([{"pass": i, "spans": rec.spans}
                       for i, rec in enumerate(recorders)], fh)
        out["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
