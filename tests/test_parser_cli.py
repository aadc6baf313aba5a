import importlib
import os
import sys
import time
from fractions import Fraction
from itertools import count
from math import comb

import pytest

from builders import run_cli
from dense import entry
from pemb import algebra, cli, parser, pipeline
from pemb.algebra import (MAX_PRODUCT_ENTRIES, MAX_STANDARD_MONOMIALS, Cdga,
                          materialize_free_cdga, renamed_presentation)
from pemb.fields import MAX_PRIME, QQ, is_prime
from pemb.graded import DegreeWindow, cohomology
from pemb.linalg import Matrix
from pemb.parser import ParseError, emit_explicit, parse, parse_file


SPHERE_PAIR = """
field rational
window 0 7
cdga R { generator e6 deg 6 }
cdga Q { generator x2 deg 2 ; relation x2*x2 }
morphism f : R -> Q { e6 -> 0 }
problem { ambient R dim 6 ; embedded Q via f }
"""


def test_parse_sphere_pair():
    pf = parse(SPHERE_PAIR)
    r = pf.algebras["R"].cdga
    q = pf.algebras["Q"].cdga
    assert {d: r.space.dim(d) for d in r.space.degrees()} == {0: 1, 6: 1}
    assert {d: q.space.dim(d) for d in q.space.degrees()} == {0: 1, 2: 1}
    phi = pf.morphisms["f"]
    assert phi.map.block(6).is_zero()
    problem = pf.embedding_problem()
    assert problem.n == 6 and not problem.is_menorah


def test_parse_polynomial_differential():
    pf = parse("""
field rational
window 0 8
cdga A {
  generator x deg 2
  generator y deg 5
  d y = x^3
}
""")
    a = pf.algebras["A"].cdga
    assert a.space.dim(5) == 1 and a.space.dim(6) == 1
    assert not a.complex.d.block(5).is_zero()


def test_parse_koszul_sign_in_expression():
    # writing b*a for odd a, b must equal -a*b
    pf = parse("""
field rational
window 0 9
cdga A {
  generator a deg 3
  generator b deg 5
}
morphism g : A -> A { a -> a ; b -> b }
cdga B {
  generator u deg 3
  generator v deg 5
  generator w deg 8
  d w = 0
}
morphism h : B -> B { u -> u ; v -> v ; w -> v*u }
""")
    b = pf.algebras["B"].cdga
    h = pf.morphisms["h"]
    labels = [b.space.label(8, i) for i in range(b.space.dim(8))]
    col = [entry(h.map.block(8), i, labels.index("w")) for i in range(len(labels))]
    assert col[labels.index("u*v")] == Fraction(-1)


def test_parse_explicit_block_and_unit():
    pf = parse("""
field rational
window 0 4
cdga E explicit {
  basis one deg 0
  basis t deg 2
  basis z deg 3
  product one one = one
  product one t = t
  product t one = t
  product one z = z
  product z one = z
  d t = z
}
""")
    e = pf.algebras["E"].cdga
    assert e.unit == {0: Fraction(1)}
    assert not e.complex.d.block(2).is_zero()


def test_parse_rejects_wrong_differential_degree():
    with pytest.raises(ParseError, match="raise degree by 1"):
        parse("""
field rational
window 0 8
cdga A { generator x deg 2 ; generator y deg 5 ; d y = x^2 }
""")


def test_parse_rejects_unknown_generator():
    with pytest.raises(ParseError, match="unknown generator"):
        parse("""
field rational
window 0 8
cdga A { generator x deg 2 ; d x = zz }
""")


def test_parse_noncommutative_table_names_pair():
    with pytest.raises(ParseError, match="commut"):
        parse("""
field rational
window 0 4
cdga E explicit {
  basis one deg 0
  basis a deg 1
  basis b deg 1
  basis c deg 2
  product one one = one
  product one a = a ; product a one = a
  product one b = b ; product b one = b
  product one c = c ; product c one = c
  product a b = c
  product b a = c
}
""")


def test_parse_prime_field():
    pf = parse("""
field prime 2
window 0 7
cdga R { generator e6 deg 6 }
""")
    assert pf.field.characteristic == 2


def test_primality_is_exact_below_the_bound():
    trial = lambda n: n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-2, 20000) if is_prime(n)] == [
        n for n in range(-2, 20000) if trial(n)]
    # composites that pass the first eleven and the first twelve prime bases
    for n in (3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 18 + 3)


def test_prime_modulus_checked_in_bounded_time(tmp_path):
    path = tmp_path / "p.pemb"
    not_prime = "error: line 2: %d is not prime\n"
    for p, want in ((10 ** 18 + 3, (0, "")),
                    (10 ** 18 + 1, (2, not_prime % (10 ** 18 + 1))),
                    (4, (2, not_prime % 4)),
                    (2 ** 89 - 1, (2, "error: line 2: %d exceeds the largest supported "
                                      "prime modulus, bound %d\n" % (2 ** 89 - 1, MAX_PRIME)))):
        path.write_text(SPHERE_PAIR.replace("field rational", "field prime %d" % p))
        start = time.perf_counter()
        code, _, err = run_cli(["validate", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == want, p
    start = time.perf_counter()
    code, _, err = run_cli(["dgmodule-square", str(cli.example_path("s2_in_s6")),
                            "--field", str(10 ** 18 + 1)])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (2, "error: %d is not prime\n" % (10 ** 18 + 1))


POINT_IN_A_POINT = """\
field rational
window 0 3
cdga P explicit { basis p deg 0 ; product p p = p }
cdga Q explicit { basis q deg 0 ; product q q = q }
morphism f : P -> Q { p -> q }
problem { ambient P dim %d ; embedded Q via f }
"""


def test_degree_loops_are_bounded_by_the_classes_and_the_window(tmp_path):
    """The duality certificate walks the degrees that hold a class, not
    every degree below the dimension of the file: a one-point ambient of
    dimension 10^12 fails in H^n at once, as one of dimension 7 does.  A
    window may reach `parser.MAX_DEGREE` and no further."""
    path = tmp_path / "p.pemb"
    fail = "duality certificate: FAIL (H^n is not one-dimensional (degree %d))"
    for n in (7, 10 ** 12):
        path.write_text(POINT_IN_A_POINT % n)
        start = time.perf_counter()
        code, out, _ = run_cli(["analyze", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and fail % n in out.splitlines()
    path.write_text("field rational\nwindow 0 %d\n" % parser.MAX_DEGREE)
    assert run_cli(["validate", str(path)]) == (0, "", "")


def test_machine_roundtrip():
    pf = parse(SPHERE_PAIR)
    from pemb.pipeline import complement_model
    out = complement_model(pf.embedding_problem())
    text = "field rational\nwindow 0 %d\n%s" % (
        out.quotient.space.window.hi, emit_explicit("C", out.quotient))
    pf2 = parse(text)
    c = pf2.algebras["C"].cdga
    assert {d: c.space.dim(d) for d in c.space.degrees()} == \
        {d: out.quotient.space.dim(d) for d in out.quotient.space.degrees()}
    assert len(c.product) == len(out.quotient.product)


def test_cli_complement_machine_roundtrip(tmp_path):
    code, out, _ = run_cli(["complement", str(cli.example_path("s2_in_s6")),
                            "--format", "machine"])
    assert code == 0
    pf = parse(out)
    c = pf.algebras["C"].cdga
    assert {d: c.space.dim(d) for d in c.space.degrees()} == {0: 1, 3: 1}


def test_cli_exit_codes(tmp_path):
    code, out, _ = run_cli(["analyze", str(cli.example_path("s2_in_s6"))])
    assert code == 0
    assert "unknotting: r=2 >= 2m-n+2=0 : PASS" in out
    code, _, err = run_cli(["complement", str(cli.example_path("hopf_torus"))])
    assert code == 1
    assert "unknotting" in err
    bad = tmp_path / "bad.pemb"
    bad.write_text("field rational\nwindow 0 5\ncdga A { generator x deg 2 "
                   "; d x = x }\n")
    code, _, err = run_cli(["validate", str(bad)])
    assert code == 2
    assert "raise degree by 1" in err
    code, _, err = run_cli(["validate", str(tmp_path / "missing.pemb")])
    assert code == 2
    # hostile input: a zero denominator, bytes that are not UTF-8, a
    # negative window start
    bad.write_text(SPHERE_PAIR.replace("e6 -> 0", "e6 -> 1/0"))
    code, _, err = run_cli(["validate", str(bad)])
    assert (code, err) == (2, "error: line 6: zero denominator in 1/0\n")
    bad.write_bytes(b"field rational\nwindow 0 7\n# caf\xe9\n")
    code, _, err = run_cli(["validate", str(bad)])
    assert (code, err) == (2, "error: line 3: not valid UTF-8 (byte 0xe9)\n")
    bad.write_text("field rational\nwindow -3 7\n")
    code, _, err = run_cli(["validate", str(bad)])
    assert (code, err) == (2, "error: line 2: window must start at 0\n")
    # a third window bound, a negative upper bound
    bad.write_text(SPHERE_PAIR.replace("window 0 7", "window 0 7 9"))
    code, _, err = run_cli(["validate", str(bad)])
    assert (code, err) == (2, "error: line 3: unexpected '9' after the "
                              "window bounds\n")
    bad.write_text("field rational\nwindow 0 -3\n")
    code, _, err = run_cli(["validate", str(bad)])
    assert (code, err) == (2, "error: line 2: window upper bound must be a "
                              "nonnegative integer, found -3\n")
    # a stable square on a target of four embedded components: the stable
    # range holds, the one-component hypothesis does not
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    try:
        ladder = importlib.import_module("ladder")
    finally:
        sys.path.pop(0)
    bad.write_text(ladder.build("menorah_fp", 1).problems["menorah4"].text)
    code, _, err = run_cli(["stable-square", str(bad)])
    assert (code, err) == (1, "hypothesis failure: one-component hypothesis fails: "
                              "the stable square needs a single embedded "
                              "component, found 4\n")
    # an umkehr map on two embedded components: the same named hypothesis
    code, _, err = run_cli(["gysin", str(cli.example_path("two_s7_in_s15"))])
    assert (code, err) == (1, "hypothesis failure: one-component hypothesis fails: "
                              "umkehr maps need a single embedded component, "
                              "found 2\n")
    # four degree-2 generators on a window to 161: the standard monomials
    # are counted as they are enumerated and stop at the budget, in the
    # degree 2k where the C(k + 4, 4) monomials up to it pass it
    degree = 2 * next(k for k in count() if comb(k + 4, 4) > MAX_STANDARD_MONOMIALS)
    bad.write_text("field rational\nwindow 0 161\ncdga A {\n  generator a deg 2\n"
                   "  generator b deg 2\n  generator c deg 2\n  generator e deg 2\n}\n")
    start = time.perf_counter()
    code, _, err = run_cli(["validate", str(bad)])
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (2, "error: line 3: presentation has more than %d standard "
                              "monomials by degree %d\n"
                              % (MAX_STANDARD_MONOMIALS, degree))
    # a power far above the window: its degree is read off the exponent
    # before the power is expanded, so it is as cheap as a small one
    example = cli.example_path("s2_in_s6").read_text()
    runs = []
    for power in (20, 100000000):
        bad.write_text(example.replace("relation x2*x2", "relation x2*x2\n"
                                       "  relation x2^%d" % power))
        start = time.perf_counter()
        runs.append(run_cli(["complement", str(bad)]))
        assert time.perf_counter() - start < 1.0
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_internal_error_exits_3(monkeypatch):
    """A construction that breaks what its own argument guarantees is a
    fault of the program, not of the input: exit code 3, one line on
    stderr, no traceback."""
    monkeypatch.setattr(pipeline, "quasi_isomorphism_failure", lambda *args: 4)
    code, out, err = run_cli(["punctured-square", str(cli.example_path("cp2_in_s8")),
                              "--attest-boundary-simply-connected"])
    assert (code, out, err) == (
        3, "", "error: internal: ambient-side projection is not a quasi-isomorphism\n")


def test_product_table_stops_past_its_bound(tmp_path, monkeypatch):
    """Four degree-2 generators on a window to 38: 8,855 standard
    monomials, within their budget, and one nonzero product for each of
    the C(19 + 8, 8) pairs of exponent vectors of total at most 19, past
    the table bound.  The products are counted as they are stored and
    stop at the bound plus one; the bound is lowered here, so that the
    run stops early."""
    assert comb(19 + 4, 4) <= MAX_STANDARD_MONOMIALS < comb(20 + 4, 4)
    assert comb(19 + 8, 8) > MAX_PRODUCT_ENTRIES
    bound = 1000
    monkeypatch.setattr(algebra, "MAX_PRODUCT_ENTRIES", bound)
    stored = []
    monomial_form = algebra.FreePresentation.monomial_form
    monkeypatch.setattr(algebra.FreePresentation, "monomial_form",
                        lambda pres, t: stored.append(t) or monomial_form(pres, t))
    bad = tmp_path / "bad.pemb"
    bad.write_text("field rational\nwindow 0 38\ncdga A {\n  generator a deg 2\n"
                   "  generator b deg 2\n  generator c deg 2\n  generator e deg 2\n}\n")
    # the unit times each monomial comes first: the C(k + 4, 4) monomials
    # of degree up to 2k pass the bound in degree 2k
    degree = 2 * next(k for k in count() if comb(k + 4, 4) > bound)
    start = time.perf_counter()
    code, _, err = run_cli(["validate", str(bad)])
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (2, "error: line 3: presentation has more than %d nonzero "
                              "products of basis elements by degree %d\n"
                              % (bound, degree))
    assert len(stored) == bound + 1


def test_cli_validate_and_cohomology():
    code, out, _ = run_cli(["validate", str(cli.example_path("wedge_in_s8"))])
    assert code == 0
    assert "algebra Q: validated" in out
    assert "problem: ambient R dim 8, 1 embedded component" in out
    code, out, _ = run_cli(["cohomology", str(cli.example_path("cp2_in_s8")),
                            "--object", "Q"])
    assert code == 0
    assert "deg 0:1, deg 2:1, deg 4:1" in out


def test_cli_examples_run_all():
    code, out, _ = run_cli(["examples", "list"])
    assert code == 0
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert set(names) == set(cli.EXAMPLES)
    for name in names:
        code, out, err = run_cli(["examples", "run", name,
                                  "--attest-boundary-simply-connected"])
        expected = 1 if name == "hopf_torus" else 0
        assert code == expected, (name, out, err)


def test_cli_dgmodule_field_flag():
    path = str(cli.example_path("two_s7_in_s15"))
    code, out_q, _ = run_cli(["dgmodule-square", path])
    assert code == 0
    code, out_2, _ = run_cli(["dgmodule-square", path, "--field", "2"])
    assert code == 0
    keep = lambda t: [l for l in t.splitlines() if l.startswith("bottom")]
    assert keep(out_q) == keep(out_2)
    assert "deg 0:1, deg 7:2, deg 14:1" in out_q


def test_cli_parser_is_built_once_and_keeps_no_state(capsys):
    """The parser is built once per process; a failing argv after a
    successful run still exits 2 with the usage, and each parse starts
    from the defaults."""
    path = str(cli.example_path("two_s7_in_s15"))
    assert run_cli(["dgmodule-square", path, "--field", "5", "--format", "machine"])[0] == 0
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["dgmodule-square", path, "--field", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pemb dgmodule-square") and "invalid int value" in err
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: pemb")
    parse = cli._build_parser().parse_args
    first = parse(["dgmodule-square", path, "--field", "5", "--format", "machine"])
    second = parse(["dgmodule-square", path])
    assert first is not second
    assert (second.field, second.format) == (None, "table")
    assert vars(first) == {"command": "dgmodule-square", "path": path,
                           "field": 5, "format": "machine"}
    # `examples run` rewrites the command of its own namespace only
    assert run_cli(["examples", "run", "s2_in_s6"])[0] == 0
    assert parse(["examples", "run", "s2_in_s6"]).command == "examples"


def test_cli_punctured_requires_attestation():
    path = str(cli.example_path("s2_in_s6"))
    code, _, err = run_cli(["punctured-square", path])
    assert code == 1 and "attest" in err
    code, out, _ = run_cli(["punctured-square", path,
                            "--attest-boundary-simply-connected"])
    assert code == 0
    assert "kills one degree-5 class" in out


def test_cli_stable_square_machine():
    path = str(cli.example_path("s2_in_s9_stable"))
    code, out, _ = run_cli(["stable-square", path, "--format", "machine"])
    assert code == 0
    pf = parse(out)
    bl = pf.algebras["BL"].cdga
    br = pf.algebras["BR"].cdga
    assert {d: br.space.dim(d) for d in br.space.degrees()} == \
        {0: 1, 2: 1, 6: 1, 8: 1}
    assert bl.space.dim(0) == 1


def test_cli_gysin():
    code, out, _ = run_cli(["gysin", str(cli.example_path("cp1_in_cp2_gysin"))])
    assert code == 0
    assert "codimension 2" in out
    assert "degree 2 block: [['1']]" in out
    assert "degree 4 block: [['1']]" in out


def test_free_presentation_never_reads_dense_matrices(monkeypatch):
    """Materializing the largest (S^2)^k rung of the benchmark ladder stays
    on sparse rows: the one dense view of a `entries`, is never
    built."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    ladder = importlib.import_module("ladder")
    problem = ladder.build("sphere_quotient", 1).problems["spheres4"]

    def dense_view(self, *args):
        raise AssertionError("dense view of a %dx%d matrix" % (self.nrows, self.ncols))

    monkeypatch.setattr(Matrix, "entries", property(dense_view))
    pf = parse(problem.text)
    _, _, [(target, _)] = pf.problem
    assert pf.algebras[target].cdga.space.dims == {0: 1, 2: 4, 4: 6, 6: 4, 8: 1}


# -- presentations equal up to names share one materialization -------------

SHARED = ("field rational\nwindow 0 9\n"
          "cdga A { generator x deg 2 ; generator y deg 3 ; generator z deg 4 ;"
          " d y = x^2 ; relation x*z }\n")
# A with its generators renamed, and with one degree, one relation or one
# d(g) changed
RENAMED = ("cdga B { generator u deg 2 ; generator v deg 3 ; generator w deg 4 ;"
           " d v = u^2 ; relation u*w }\n")
DIFFERENT = [RENAMED.replace("w deg 4", "w deg 6"),
             RENAMED.replace("relation u*w", "relation w^2"),
             RENAMED.replace("d v = u^2", "d v = 2 u^2")]


def test_a_renamed_presentation_shares_the_checked_algebra(tmp_path):
    """A block equal to an earlier one up to its generator names gets the
    earlier algebra's tables and proof record, under its own names, and a
    complex of its own whose cohomology starts unset."""
    pf = parse(SHARED + RENAMED)
    a, b = pf.algebras["A"].cdga, pf.algebras["B"].cdga
    assert a.proven_generators is not None
    for attr in ("product", "both_orders", "unit", "proven_generators"):
        assert getattr(b, attr) is getattr(a, attr), attr
    assert b.complex.d.blocks is a.complex.d.blocks
    assert b.presentation is a.presentation
    # a copy made after the original's cohomology is known starts without it
    assert cohomology(a.complex) is a.complex._cohomology
    c = renamed_presentation(a, ["p", "q", "r"])
    assert c.complex is not a.complex and c.complex._cohomology is None
    assert c.proven_generators is a.proven_generators
    assert c.space.labels[5] == ("p*q",) and c.complex.d.target is c.space
    assert type(c) is Cdga and type(c.complex.d) is type(a.complex.d)
    assert (pf.algebras["A"].gen_names, pf.algebras["B"].gen_names) == (
        ["x", "y", "z"], ["u", "v", "w"])
    assert a.space.labels[5] == ("x*y",) and b.space.labels[5] == ("u*v",)
    assert b.complex.space is b.space and b.complex.d.source is b.space
    # the reference: each block materialized on its own gives these tables
    window = DegreeWindow(0, 9)
    for names, alg in (("xyz", a), ("uvw", b)):
        g1, g2, g3 = names
        own = materialize_free_cdga(QQ, [(g1, 2), (g2, 3), (g3, 4)],
                                    {g2: {(0, 0): 1}}, [{(0, 2): 1}], window)
        assert own.product == alg.product and own.unit == alg.unit
        assert own.complex.d == alg.complex.d
        assert own.space.labels == alg.space.labels
    # the names of each block reach the reports
    path = tmp_path / "shared.pemb"
    path.write_text(SHARED + RENAMED)
    reports = {}
    for name in ("A", "B"):
        for fmt in ("table", "machine"):
            code, out, _ = run_cli(["cohomology", str(path), "--object", name,
                                    "--format", fmt])
            assert code == 0
            reports[name, fmt] = out
    assert reports["B", "table"] == reports["A", "table"].replace("H^*(A)", "H^*(B)")
    assert reports["B", "machine"] == reports["A", "machine"].replace("H_A", "H_B")
    assert "cdga H_B explicit {" in reports["B", "machine"]


@pytest.mark.parametrize("other", DIFFERENT, ids=["degree", "relation", "d"])
def test_presentations_that_differ_share_nothing(other):
    """One changed degree, relation or d(g) makes another presentation:
    it is materialized and checked on its own."""
    pf = parse(SHARED + other)
    a, b = pf.algebras["A"].cdga, pf.algebras["B"].cdga
    for attr in ("product", "unit", "proven_generators"):
        assert getattr(b, attr) is not getattr(a, attr), attr
    assert b.complex.d.blocks is not a.complex.d.blocks
    assert b.presentation.standard is not a.presentation.standard


# -- every error the parser raises, through the command line ---------------

HEAD = "field rational\nwindow 0 7\n"
FREE = HEAD + "cdga R { generator e6 deg 6 }\ncdga Q { generator x2 deg 2 ; relation x2^2 }\n"
EXPLICIT = HEAD + ("cdga E explicit {\n  basis one deg 0 ; basis a deg 1 ; basis b deg 2\n"
                   "  basis c deg 3 ; product one one = one ; product one a = a\n"
                   "  product one b = b ; product one c = c\n")
MORPHISM = FREE + "morphism f : R -> Q {\n"
PROBLEM = FREE + "morphism f : R -> Q { e6 -> 0 }\nproblem {\n"

# (file text or bytes, line of the error, message): one for each error the
# parser raises, in the order of parser.py
PARSE_ERRORS = [
    (HEAD + "cdga A { generator x deg 2 @ }\n", 3, "unexpected character '@'"),
    (HEAD + "cdga A {\n  generator x deg 2\n", 0, "unexpected end of file"),
    (HEAD + "cdga A { generator x deg 2 ; relation x^2 + }\n", 3, "sign with no term after it"),
    (MORPHISM + "  e6 -> -\n}\n", 6, "sign with no term after it"),
    (HEAD + "cdga A { generator x deg 2 ; generator y deg 2 ; relation x - - y }\n", 3,
     "sign with no term after it"),
    (HEAD + "cdga A { generator x deg 2 ; relation 2 3 x^2 }\n", 3,
     "two coefficients in one term"),
    (HEAD + "cdga A { generator x deg 2 ; relation 1/0 x^2 }\n", 3, "zero denominator in 1/0"),
    (HEAD + "cdga A { generator x deg 2 ; relation x = x }\n", 3, "unexpected token '='"),
    (HEAD + "cdga A { generator x deg 2 ; relation x^y }\n", 3, "bad exponent after x"),
    (HEAD + "cdga A { generator x deg 2 ; relation w^2 }\n", 3, "unknown generator 'w'"),
    (HEAD + "cdga A { generator x deg 2 ; relation x + x^2 }\n", 3,
     "relation is not homogeneous"),
    (HEAD + "cdga A { generator x deg }\n", 3, "incomplete statement"),
    (HEAD + "cdga A { generator x degree 2 }\n", 3, "expected 'deg', found 'degree'"),
    (HEAD + "cdga A { generator a deg -2 }\n", 3, "generator a must have positive degree"),
    (HEAD + "cdga A { generator x deg two }\n", 3, "degree must be an integer"),
    (HEAD + "cdga A { generator x deg 2 ; generator x deg 3 }\n", 3,
     "duplicate generator name 'x'"),
    (HEAD + "cdga A { basis x deg 2 }\n", 3, "unknown declaration 'basis' in cdga block"),
    (HEAD + "cdga A { generator x deg 0 }\n", 3, "generator x must have positive degree"),
    (HEAD + "cdga A { generator x deg 2 ; d w = x }\n", 3, "d given for unknown generator 'w'"),
    (HEAD + "cdga A { generator x deg 2 ; d x = x }\n", 3, "differential must raise degree by 1"),
    (EXPLICIT + "  d a = b^2\n}\n", 7, "expected a linear combination of basis labels"),
    (EXPLICIT + "  d a = w\n}\n", 7, "unknown basis label 'w'"),
    (EXPLICIT + "  d a = b + c\n}\n", 7, "combination mixes degrees 2 and 3"),
    (EXPLICIT + "  d a = c\n}\n", 7, "combination has degree 3, expected 2"),
    (EXPLICIT + "  basis t deg -2\n}\n", 7, "degree must be a nonnegative integer, found -2"),
    (EXPLICIT + "  basis e deg five\n}\n", 7, "degree must be an integer"),
    (EXPLICIT + "  generator e deg 5\n}\n", 7,
     "unknown declaration 'generator' in explicit cdga block"),
    (EXPLICIT + "  basis a deg 5\n}\n", 7, "duplicate basis label 'a'"),
    (EXPLICIT + "  basis e deg 9\n}\n", 7, "degree 9 outside the window"),
    (EXPLICIT + "  d w = b\n}\n", 7, "d given for unknown basis label 'w'"),
    (EXPLICIT + "  product a w = c\n}\n", 7, "unknown basis label 'w'"),
    (HEAD + "cdga E explicit { basis a deg 1 }\n", 3, "explicit algebra has no degree-0 basis"),
    (HEAD + "cdga E explicit { basis one deg 0 }\n", 3, "product table has no unit"),
    (MORPHISM + "  e6 -> x2^4\n}\n", 6, "image degree 8 outside the window"),
    (MORPHISM + "  e6 0\n}\n", 6, "expected '<element> -> <expression>'"),
    (MORPHISM + "  e6 e7 -> 0\n}\n", 6, "left side of '->' must be one name"),
    (EXPLICIT + "}\nmorphism f : E -> E {\n  w -> b\n}\n", 9, "unknown basis label 'w'"),
    (EXPLICIT + "}\nmorphism f : E -> E {\n  b -> c\n}\n", 9,
     "image of b has degree 3, expected 2"),
    (MORPHISM + "  e5 -> 0\n}\n", 6, "unknown generator 'e5'"),
    (MORPHISM.replace("e6 deg 6", "e2 deg 2").replace("R -> Q", "Q -> R")
     + "  x2 -> e2 * e2\n}\n", 6, "image of x2 has degree 4, expected 2"),
    (HEAD + "cdga P explicit { basis p deg 0 ; basis q deg 0 ; product p p = p ;"
     " product q q = q }\ncdga T explicit { basis t deg 0 ; product t t = t }\n"
     "morphism f : P -> T { }\n", 5,
     "morphism does not preserve the unit; unlisted unit components: p, q"),
    ("field prime 4\nwindow 0 7\n", 1, "4 is not prime"),
    ("field real\nwindow 0 7\n", 1, "expected 'field rational' or 'field prime <p>'"),
    ("field rational\nwindow -3 7\n", 2, "window must start at 0"),
    ("field rational\nwindow 0 -3\n", 2,
     "window upper bound must be a nonnegative integer, found -3"),
    ("field rational\nwindow 0 7 9\n", 2, "unexpected '9' after the window bounds"),
    ("field rational\nwindow 0 seven\n", 2, "window bounds must be integers"),
    ("field rational\nwindow 2 7\n", 2, "window must start at 0"),
    ("field rational\nwindow 0 10001\n", 2,
     "window upper bound 10001 exceeds the largest degree 10000"),
    ("field rational\ncdga A { generator x deg 2 }\n", 2, "field and window must come first"),
    (HEAD + "cdga A B { generator x deg 2 }\n", 3, "expected 'cdga <Name> [explicit] {'"),
    (FREE + "cdga R { generator e6 deg 6 }\n", 5, "duplicate algebra name 'R'"),
    ("field prime 5\nwindow 0 7\ncdga A { generator x deg 2 ; relation 1/5 x^2 }\n", 3,
     "denominator of 1/5 vanishes in F_5"),
    (FREE + "morphism f : R -> P { e6 -> 0 }\n", 5, "unknown algebra 'P'"),
    (FREE + "morphism f : R -> Q { e6 -> 0 }\nmorphism f : R -> Q { e6 -> 0 }\n", 6,
     "duplicate morphism name 'f'"),
    (HEAD + "cdga R { generator a deg 1 ; generator b deg 2 ; d a = b }\n"
     "cdga Q { generator x deg 1 ; generator y deg 2 }\n"
     "morphism f : R -> Q { a -> x ; b -> y }\n", 5, "morphism is not a chain map"),
    (PROBLEM + "  ambient P dim 6\n}\n", 7, "unknown algebra 'P'"),
    (PROBLEM + "  ambient R dim -3\n}\n", 7,
     "dimension must be a nonnegative integer, found -3"),
    (PROBLEM + "  ambient R dim six\n}\n", 7, "dimension must be an integer"),
    (PROBLEM + "  embedded P via f\n}\n", 7, "unknown algebra 'P'"),
    (PROBLEM + "  embedded Q via g\n}\n", 7, "unknown morphism 'g'"),
    (PROBLEM + "  boundary Q\n}\n", 7, "unknown problem declaration 'boundary'"),
    (PROBLEM + "  embedded Q via f\n}\n", 6, "problem block needs an ambient line"),
    (PROBLEM + "  ambient R dim 6\n}\n", 6, "problem block needs an embedded line"),
    (PROBLEM + "  ambient Q dim 6 ; embedded Q via f\n}\n", 6,
     "morphism 'f' does not start at the ambient algebra"),
    (PROBLEM + "  ambient R dim 6 ; embedded R via f\n}\n", 6, "morphism 'f' does not land in 'R'"),
    (HEAD + "algebra A {\n", 3, "unknown declaration 'algebra'"),
    ("# nothing but a comment\n", 0, "file declares no field"),
    (b"field rational\nwindow 0 7\n# caf\xe9\n", 3, "not valid UTF-8 (byte 0xe9)"),
]


@pytest.mark.parametrize("text, line, message", PARSE_ERRORS)
def test_every_parse_error_exits_2_with_its_line(tmp_path, text, line, message):
    """Each error the parser raises reaches `validate` as exit code 2 and
    one line on stderr naming the line of the file, with no traceback."""
    path = tmp_path / "bad.pemb"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run_cli(["validate", str(path)]) == (2, "", "error: line %d: %s\n" % (line, message))


def test_morphism_out_of_an_explicit_algebra():
    """Images of an explicit source are read by basis label; a component
    e_i of the source unit, sum c_i e_i, left unlisted goes to 1/c_i times
    the target unit, so that the unit goes to the unit."""
    text = (HEAD + "cdga S explicit {\n  basis %s deg 0 ; basis u deg 2\n"
            "  product %s %s = %s ; product %s u = %s\n}\n"
            "cdga Q { generator x2 deg 2 ; relation x2^2 }\n"
            "morphism f : S -> Q { u -> 3 x2 }\n")
    for e, c in (("one", 1), ("two", 2)):   # e * e = c e, so the unit is e / c
        f = parse(text % (e, e, e, "%d %s" % (c, e), e, "%d u" % c)).morphisms["f"]
        assert f.map.block(0).rows == ({0: QQ.of(c)},)
        assert f.map.block(2).rows == ({0: QQ.of(3)},)
        assert f.apply(0, f.source.unit) == f.target.unit
    # two points to one: the unlisted point p goes to 1, q is listed as 0
    pf = parse(HEAD + "cdga P explicit {\n  basis p deg 0 ; basis q deg 0\n"
               "  product p p = p ; product q q = q\n}\n"
               "cdga T explicit { basis pt deg 0 ; product pt pt = pt }\n"
               "morphism f : P -> T { q -> 0 }\n")
    f = pf.morphisms["f"]
    assert f.source.unit == {0: QQ.one, 1: QQ.one}
    assert f.map.block(0).rows == ({0: QQ.one},)
    # both points unlisted: each goes to 1, so 1 goes to 2; the error names them
    with pytest.raises(ParseError, match="^line 8: morphism does not preserve the unit; "
                                         "unlisted unit components: p, q$"):
        parse(HEAD + "cdga P explicit {\n  basis p deg 0 ; basis q deg 0\n"
              "  product p p = p ; product q q = q\n}\n"
              "cdga T explicit { basis pt deg 0 ; product pt pt = pt }\n"
              "morphism f : P -> T { }\n")
    # explicit on both sides, the identity of EXPLICIT from its positive part
    f = parse(EXPLICIT + "}\nmorphism f : E -> E { a -> a ; b -> b ; c -> c }\n").morphisms["f"]
    assert all(f.map.block(d).rows == ({0: QQ.one},) for d in range(4))
