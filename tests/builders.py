"""Shared constructions of small standard algebras, modules and
complexes for the test suite, `run_cli` and `tables_match`.

`free_module`, the free module on a list of generators, lives here: the
library grows its free modules one generator at a time, in
`modules._FreeBuilder`, and only the tests build one on a given list."""

import io
from contextlib import redirect_stderr, redirect_stdout

from pemb import cli, graded
from pemb.algebra import materialize_free_cdga
from pemb.fields import QQ
from pemb.graded import DegreeWindow
from pemb.linalg import axpy
from pemb.modules import FreeGenerator, _FreeBuilder
from pemb.pipeline import all_positive_products_zero


def sphere(n, hi=None, field=QQ):
    """Cohomology of the n-sphere as a one-generator presentation."""
    if hi is None:
        hi = n + 1
    rels = [{(0, 0): 1}] if n % 2 == 0 else []
    return materialize_free_cdga(field, [("e%d" % n, n)], {}, rels,
                                 DegreeWindow(0, hi))


def complex_projective(k, hi=None, field=QQ):
    if hi is None:
        hi = 2 * k + 1
    return materialize_free_cdga(field, [("x", 2)], {}, [{(0,) * (k + 1): 1}],
                                 DegreeWindow(0, hi))


def wedge_s2_s4(hi=9, field=QQ):
    """H^*(S^2 v S^4): two even classes with all positive products zero."""
    rels = [{(0, 0): 1}, {(0, 1): 1}, {(1, 1): 1}]
    return materialize_free_cdga(field, [("x2", 2), ("x4", 4)], {}, rels,
                                 DegreeWindow(0, hi))


def product_s2_s4(hi=7, field=QQ):
    """H^*(S^2 x S^4)."""
    rels = [{(0, 0): 1}, {(1, 1): 1}]
    return materialize_free_cdga(field, [("x2", 2), ("x4", 4)], {}, rels,
                                 DegreeWindow(0, hi))


def sullivan_cp2(hi=8, field=QQ):
    """(x2, y5 ; dy = x^3), a two-stage model with H = H^*(CP^2)."""
    return materialize_free_cdga(field, [("x", 2), ("y", 5)],
                                 {"y": {(0, 0, 0): 1}}, [], DegreeWindow(0, hi))


def torus_s1_s7(hi=16, field=QQ):
    """H^*(S^1 x S^7), exterior on degrees 1 and 7."""
    return materialize_free_cdga(field, [("a", 1), ("b", 7)], {}, [],
                                 DegreeWindow(0, hi))


# S^3 x S^1 in S^3 x S^11, the shipped example: an ambient that is not a
# cohomology sphere, H(C) = H(S^3 x S^9), in degrees 0, 3, 9 and 12.
# The bound n - m - 1 of `lefschetz` is 9, so c9.c3 comes from graded
# commutativity.
S3S1_IN_S3S11 = cli.example_path("s3s1_in_s3s11").read_text()

# S^2 in S^9 with the target a Sullivan model, (x2, y3 ; dy = x^2): it
# has basis elements up to the top of the window, so the stable square's
# normalization of the target by an acyclic ideal above degree m+2 = 4
# is not the identity, as on every shipped example.
SULLIVAN_S2_IN_S9 = """\
field rational
window 0 10

cdga R {
  generator e9 deg 9
}

cdga Q {
  generator x deg 2
  generator y deg 3
  d y = x*x
}

morphism f : R -> Q {
  e9 -> 0
}

problem {
  ambient R dim 9
  embedded Q via f
}
"""


def free_module(algebra, gens, dvals=None, window=None):
    """(module, basis index table) of the free module on gens, with
    d(g) = dvals[g] in module coordinates (degree deg(g)+1, on the
    generators before g), grown by `_FreeBuilder` one generator at a
    time.  Basis per degree: (generator, algebra basis element) pairs in
    generator order."""
    fb = _FreeBuilder(algebra, algebra.space.window if window is None else window)
    dvals = dvals or {}
    for gi, g in enumerate(gens):
        fb.add(g, dvals.get(gi))
    return fb.assemble()


def euler_characteristic(space):
    return sum((-1) ** d * n for d, n in space.dims.items())


def random_semifree(a, rng, n_gens, max_degree, window=None):
    """Random semifree module: each new generator's differential is a
    random cocycle of the module built so far.  Always valid; checked
    here, since `free_module` does not check what it builds."""
    gens = []
    dvals = {}
    degrees = sorted(rng.randint(0, max_degree) for _ in range(n_gens))
    for gd in degrees:
        if gens:
            P, _ = free_module(a, gens, dvals, window)
            cands = P.complex.d.block(gd + 1).kernel_basis()
        else:
            cands = []
        gi = len(gens)
        gens.append(FreeGenerator("g%d_%d" % (gd, gi), gd))
        if cands and rng.random() < 0.7:
            z = {}
            for v in cands:
                c = a.field.of(rng.randint(-2, 2))
                if c:
                    axpy(a.field, z, c, v)
            if z:
                dvals[gi] = z
    P, _ = free_module(a, gens, dvals, window)
    P.validate()
    return P


def record_cohomology_constructions(monkeypatch):
    """The list that each `CohomologyData` construction from now on
    appends its complex to.  The list keeps the complexes alive, so no
    two of them share an id."""
    built = []
    init = graded.CohomologyData.__init__

    def recorded(self, complex_):
        built.append(complex_)
        init(self, complex_)
    monkeypatch.setattr(graded.CohomologyData, "__init__", recorded)
    return built


def run_cli(argv):
    """(exit code, stdout, stderr) of `pemb.cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def tables_match(h1, h2):
    """Whether two zero-differential algebra tables agree: same dims,
    and the same vanishing pattern of products of positive classes.
    For the tables arising here (trivial products, or one-dimensional
    degrees) this detects graded-algebra isomorphism."""
    if {d: h1.space.dim(d) for d in h1.space.degrees()} != \
       {d: h2.space.dim(d) for d in h2.space.degrees()}:
        return False
    z1 = all_positive_products_zero(h1)
    z2 = all_positive_products_zero(h2)
    if z1 or z2:
        return z1 and z2
    return _vanishing_pattern(h1) == _vanishing_pattern(h2)


def _vanishing_pattern(h):
    return {(d1, i1, d2, i2): set(v) for (d1, i1, d2, i2), v in h.product.items()
            if d1 and d2}
