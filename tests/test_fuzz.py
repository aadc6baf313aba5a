"""A grammar fuzz of the command line: every generated problem file,
run through every subcommand, exits 0 (success), 1 (a named hypothesis
failure) or 2 (a parse or validation error), with no traceback and in
bounded time.

Problem files are drawn from a small grammar: a sphere or a free
algebra on a few generators with square and Sullivan-style relations
as the ambient, such free algebras or an explicit one-point algebra as
the targets, morphisms sending each ambient generator to zero or to a
target generator of its degree, and one or two embedded branches.
One token of a drawn file may be replaced by a word of the grammar, so
that parse errors are reached too.  The examples are derandomized, so
every run draws the same files.
"""

import signal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from builders import run_cli
from test_modules import point_in_torus

COMMANDS = [["validate"], ["analyze"], ["complement"], ["stable-square"],
            ["lefschetz"], ["gysin"], ["dgmodule-square"],
            ["punctured-square", "--attest-boundary-simply-connected"],
            ["cohomology", "--object", "Q0"]]

WORDS = ["generator", "deg", "relation", "d", "=", "{", "}", ";", "->", "0", "1",
         "2", "-1", "x", "x^2", "R", "Q0", "dim", "explicit", "basis", "product"]

# seconds a run may take before the fuzz calls it unbounded
GUARD = 20

# an embedded circle over a point, m = 1 > n = 0: a file the fuzz drew
M_ABOVE_N = ("field prime 5\nwindow 0 1\ncdga R {  }\n"
             "cdga Q0 { generator x deg 1 }\nmorphism f0 : R -> Q0 {  }\n"
             "problem { ambient R dim 0 ; embedded Q0 via f0 }\n")


@st.composite
def free_algebra(draw, name, hi, letters):
    """(text of a free algebra block, [(generator, degree)])."""
    degs = draw(st.lists(st.integers(1, hi), max_size=len(letters)))
    gens = list(zip(letters, degs))
    lines = ["generator %s deg %d" % g for g in gens]
    for g, d in gens:
        if d % 2 == 0 and draw(st.booleans()):
            lines.append("relation %s^%d" % (g, draw(st.sampled_from([2, 3]))))
        for h, e in gens:
            if d % 2 == 0 and e == 2 * d - 1 and draw(st.booleans()):
                lines.append("d %s = %s*%s" % (h, g, g))
    return "cdga %s { %s }\n" % (name, " ; ".join(lines)), gens


@st.composite
def problem_files(draw):
    field = draw(st.sampled_from(["field rational", "field prime 2", "field prime 5"]))
    hi = draw(st.integers(1, 9))
    text = "%s\nwindow 0 %d\n" % (field, hi)
    if draw(st.booleans()):
        ambient, agens = draw(free_algebra("R", hi, "ab"))
        n = draw(st.integers(0, hi))
    else:
        n = draw(st.integers(1, hi))
        agens = [("a", n)]
        ambient = "cdga R { generator a deg %d%s }\n" % (n, " ; relation a^2" * (n % 2 == 0))
    text += ambient
    problem = []
    for b in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 9)) == 9:
            target = "cdga Q%d explicit { basis q deg 0 ; product q q = q }\n" % b
            tgens = []
        else:
            target, tgens = draw(free_algebra("Q%d" % b, hi, "xyz"))
        text += target
        images = []
        for g, d in agens:
            same = [h for h, e in tgens if e == d]
            images.append("%s -> %s" % (g, draw(st.sampled_from(["0"] + same))))
        text += "morphism f%d : R -> Q%d { %s }\n" % (b, b, " ; ".join(images))
        problem.append("embedded Q%d via f%d" % (b, b))
    text += "problem { ambient R dim %d ; %s }\n" % (n, " ; ".join(problem))
    if draw(st.integers(0, 4)) == 4:
        tokens = text.split(" ")
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(st.sampled_from(WORDS))
        text = " ".join(tokens)
    return text


class Unbounded(Exception):
    pass


def _unbounded(signum, frame):
    raise Unbounded("run exceeded %d s" % GUARD)


@pytest.fixture
def guarded():
    previous = signal.signal(signal.SIGALRM, _unbounded)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def run_guarded(argv):
    signal.alarm(GUARD)
    try:
        return run_cli(argv)
    finally:
        signal.alarm(0)


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(text=problem_files())
@example(text=point_in_torus(2))
@example(text=M_ABOVE_N)
def test_every_generated_file_exits_with_a_contract_code(guarded, tmp_path, text):
    path = tmp_path / "p.pemb"
    path.write_text(text)
    for command in COMMANDS:
        code, out, err = run_guarded([command[0], str(path)] + command[1:])
        assert code in (0, 1, 2), (command, code, err)
        assert "Traceback" not in out + err
        assert code == 0 or err.startswith(("error: ", "hypothesis failure: ")), err


@pytest.mark.parametrize("command", ["dgmodule-square", "lefschetz", "gysin"])
def test_an_embedded_piece_above_the_ambient_dimension_is_named(tmp_path, command):
    """m > n is a hypothesis failure of the module pipelines and of
    `gysin`, which need no bound on the codimension; `complement` names
    codimension >= 2."""
    path = tmp_path / "p.pemb"
    path.write_text(M_ABOVE_N)
    code, out, err = run_cli([command, str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("hypothesis failure: m <= n fails: ") and "m = 1" in err
