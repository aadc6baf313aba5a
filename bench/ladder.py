"""Seeded problem ladder for the benchmark, with closed-form oracles.

Three families of embeddings into spheres, each written as a `pemb`
problem file.  Every ambient algebra is one generator of degree n with
`e -> 0` and window 0..n+1.  The seed varies generator and algebra
names, the declaration order of generators, relations and branches,
and the prime of the F_p family; it never varies problem sizes, so
every seed does the same amount of work.

The expected reports come from Alexander duality,
H~^i(S^n - M) = H~_{n-i-1}(M), and from the boundary of a trivial
tubular neighbourhood, M x S^{n-m-1}.  Both are computed here in closed
form, without importing `pemb`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import comb

# 5-digit primes for the F_p family; the seed picks one.
PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091,
          10093)

# First letters of generated names; 'd' is left out because
# `d x = ...` declares a differential.
_LETTERS = "abcfghkmpqstuvwxyz"

WORKLOADS = ("torus_checks", "sphere_quotient", "menorah_fp")


@dataclass(frozen=True)
class Problem:
    """One generated input file and its closed-form cohomology tables."""
    text: str
    n: int                     # ambient sphere dimension
    m: int                     # dimension of the embedded piece
    complement: dict           # degree -> dim H^*(S^n - M), unit included
    boundary: dict             # degree -> dim H^* of the tube boundary


@dataclass(frozen=True)
class Job:
    """One CLI run on one problem, with its expected verdict."""
    command: str
    problem: str
    exit_code: int = 0
    stderr_needle: str = ""    # must appear on stderr

    @property
    def name(self):
        return "%s:%s" % (self.command, self.problem)


@dataclass(frozen=True)
class Workload:
    name: str
    problems: dict             # key -> Problem
    jobs: tuple
    top_job: str               # Job.name of the largest rung


def poincare_product(factors):
    """Coefficients of a product of polynomials given as {deg: coeff}."""
    out = {0: 1}
    for f in factors:
        nxt = {}
        for d1, c1 in out.items():
            for d2, c2 in f.items():
                nxt[d1 + d2] = nxt.get(d1 + d2, 0) + c1 * c2
        out = nxt
    return {d: c for d, c in out.items() if c}


def alexander_table(reduced_homology, n):
    """H^*(S^n - M) with the unit line, from the reduced homology of M."""
    out = {0: 1}
    for j, b in reduced_homology.items():
        if b:
            out[n - j - 1] = out.get(n - j - 1, 0) + b
    return out


class _Names:
    """Distinct seeded identifiers of the `pemb` input language."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def fresh(self, capital=False):
        while True:
            name = self.rng.choice(_LETTERS) + str(self.rng.randrange(10, 1000))
            if capital:
                name = name.capitalize()
            if name not in self.used:
                self.used.add(name)
                return name


def _render(field_line, n, ambient, gen, algebras, branches):
    """Problem file text; branches are (algebra, morphism) name pairs."""
    out = [field_line, "window 0 %d" % (n + 1), "",
           "cdga %s {" % ambient, "  generator %s deg %d" % (gen, n), "}", ""]
    for name, body in algebras:
        out += ["cdga %s {" % name] + ["  " + line for line in body] + ["}", ""]
    for target, mor in branches:
        out += ["morphism %s : %s -> %s {" % (mor, ambient, target),
                "  %s -> 0" % gen, "}", ""]
    out += (["problem {", "  ambient %s dim %d" % (ambient, n)]
            + ["  embedded %s via %s" % b for b in branches] + ["}"])
    return "\n".join(out) + "\n"


def sphere_product(rng, k, d, n):
    """(S^d)^k in S^n over Q: k generators of degree d, with x_i*x_i
    relations when d is even.  For d = 1 this is the torus T^k."""
    names = _Names(rng)
    ambient, gen, target, mor = (names.fresh(True), names.fresh(),
                                 names.fresh(True), names.fresh())
    gens = [names.fresh() for _ in range(k)]
    body = ["generator %s deg %d" % (g, d) for g in rng.sample(gens, k)]
    if d % 2 == 0:
        body += ["relation %s*%s" % (g, g) for g in rng.sample(gens, k)]
    text = _render("field rational", n, ambient, gen, [(target, body)],
                   [(target, mor)])
    m = k * d
    return Problem(text, n, m,
                   alexander_table({j * d: comb(k, j) for j in range(1, k + 1)}, n),
                   poincare_product([{0: 1, d: 1}] * k + [{0: 1, n - m - 1: 1}]))


def menorah(rng, k, d, n, p):
    """k disjoint S^d in S^n over F_p, one branch per sphere."""
    names = _Names(rng)
    ambient, gen = names.fresh(True), names.fresh()
    branches = [(names.fresh(True), names.fresh(), names.fresh())
                for _ in range(k)]
    rng.shuffle(branches)
    algebras = [(q, ["generator %s deg %d" % (g, d)]) for q, _, g in branches]
    text = _render("field prime %d" % p, n, ambient, gen, algebras,
                   [(q, f) for q, f, _ in branches])
    return Problem(text, n, d, alexander_table({0: k - 1, d: k}, n),
                   {0: k, d: k, n - d - 1: k, n - 1: k})


def build(workload, seed):
    """The workload's problems and job list for a seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "torus_checks":
        probs = {"torus%d" % k: sphere_product(rng, k, 1, 2 * k + 4)
                 for k in (3, 4, 5)}
        jobs = ([Job("complement", "torus%d" % k) for k in (3, 4, 5)]
                + [Job("stable-square", "torus%d" % k) for k in (3, 4)]
                + [Job("lefschetz", "torus4")])
        top = "complement:torus5"
    elif workload == "sphere_quotient":
        probs = {"spheres%d" % k: sphere_product(rng, k, 2, 4 * k + 4)
                 for k in (2, 3, 4)}
        jobs = ([Job("complement", "spheres%d" % k) for k in (2, 3, 4)]
                + [Job("stable-square", "spheres%d" % k) for k in (3, 4)]
                + [Job("gysin", "spheres4")])
        top = "stable-square:spheres4"
    elif workload == "menorah_fp":
        p = rng.choice(PRIMES)
        probs = {"menorah%d" % k: menorah(rng, k, 3, 10, p) for k in (4, 8, 16)}
        jobs = [Job(c, "menorah%d" % k) for k in (4, 8, 16)
                for c in ("dgmodule-square", "lefschetz")]
        # The unknotting hypothesis fails on a menorah: a named failure.
        jobs.append(Job("complement", "menorah4", exit_code=1,
                        stderr_needle="H^10 of dimension 4"))
        top = "lefschetz:menorah16"
    else:
        raise ValueError("unknown workload %r" % workload)
    return Workload(workload, probs, tuple(jobs), top)


def _table(dims):
    return ", ".join("deg %d:%d" % (d, dims[d]) for d in sorted(dims))


def expected_lines(job, prob):
    """Report lines the job's stdout must contain: the oracle tables and
    the certificates the command prints."""
    if job.exit_code:
        return []
    c, b = _table(prob.complement), _table(prob.boundary)
    if job.command == "complement":
        oracle = ", ".join("%d:%d" % (d, prob.complement[d])
                           for d in sorted(prob.complement))
        return ["H^*(C): " + c,
                "duality certificate: PASS (dimension %d)" % prob.n,
                "independent dimension oracle: {%s} : MATCH" % oracle]
    if job.command in ("stable-square", "dgmodule-square"):
        return ["bottom-left H: " + c, "bottom-right H: " + b,
                "square commutes: True"]
    if job.command == "lefschetz":
        return ["H^*(C): " + c]
    if job.command == "gysin":
        return ["umkehr map certified in codimension %d" % (prob.n - prob.m)]
    raise ValueError("no expectations for %r" % job.command)


def check(job, prob, exit_code, stdout, stderr):
    """Reasons the job's report is wrong; empty when it is right."""
    bad = []
    if exit_code != job.exit_code:
        bad.append("exit code %r, expected %d" % (exit_code, job.exit_code))
    lines = set(stdout.splitlines())
    bad += ["missing line %r" % line for line in expected_lines(job, prob)
            if line not in lines]
    if job.stderr_needle not in stderr:
        bad.append("stderr lacks %r" % job.stderr_needle)
    return bad


def write_problems(workload, directory):
    """Write each problem file; return {problem key: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for key, prob in workload.problems.items():
        path = os.path.join(directory, key + ".pemb")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(prob.text)
        paths[key] = path
    return paths
