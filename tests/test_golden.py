"""Golden digests of the CLI: exit code, stdout and stderr of every
subcommand on every shipped example, in both formats.  `cohomology`
runs on every algebra of every example.

The digests in `golden_digests.json` pin the reports byte for byte, so
a refactor that changes any basis, sign or message shows up here.
"""

import hashlib
import json
from pathlib import Path

from builders import run_cli
from pemb import cli
from pemb.parser import parse_file

SUBCOMMANDS = ("validate", "analyze", "complement", "stable-square",
               "dgmodule-square", "lefschetz", "punctured-square", "gysin")
GOLDEN = Path(__file__).with_name("golden_digests.json")


def cases():
    """(case name, argv) for every example, subcommand and format, plus
    `dgmodule-square --field p` on every example for p = 2, 5 and 10007:
    p = 2 has -1 = 1, and 10007 is in the range of the ladder's primes.
    `punctured-square` also runs attested, which is the only way it gets
    past the attestation check, and `cohomology` on each algebra."""
    for name in sorted(cli.EXAMPLES):
        path = str(cli.example_path(name))
        for fmt in ("table", "machine"):
            for sub in SUBCOMMANDS:
                yield "%s %s %s" % (name, sub, fmt), [sub, path, "--format", fmt]
            yield ("%s punctured-square attested %s" % (name, fmt),
                   ["punctured-square", path, "--format", fmt,
                    "--attest-boundary-simply-connected"])
            for obj in sorted(parse_file(path).algebras):
                yield ("%s cohomology %s %s" % (name, obj, fmt),
                       ["cohomology", path, "--format", fmt, "--object", obj])
        for p in ("2", "5", "10007"):
            yield ("%s dgmodule-square field%s" % (name, p),
                   ["dgmodule-square", path, "--field", p])


def digest(argv):
    code, out, err = run_cli(argv)
    # the example path may appear in messages; it depends on the checkout
    text = "%d\n%s\0%s" % (code, out, err)
    return hashlib.sha256(text.replace(argv[1], "<path>").encode()).hexdigest()


def test_cli_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = {case: digest(argv) for case, argv in cases()}
    assert sorted(got) == sorted(golden)
    changed = sorted(case for case in got if got[case] != golden[case])
    assert not changed, changed
