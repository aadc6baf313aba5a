"""Machine reports round-trip through the parser.

Every `--format machine` report of `complement`, `stable-square`,
`lefschetz` and `cohomology` that exits 0 on a shipped example is
parsed again, so the parser checks each emitted algebra at the trust
boundary, and the cohomology of each must have the dimensions that the
table report of the same run prints.  A `lefschetz` run whose algebra is
undetermined emits a document that declares no algebra.
"""

import re

import pytest

from builders import run_cli
from pemb import cli
from pemb.graded import cohomology
from pemb.parser import parse


def table_dims(table, prefix):
    """{degree: dimension} of the table line starting with prefix."""
    (line,) = [ln for ln in table.splitlines() if ln.startswith(prefix)]
    return {int(d): int(n) for d, n in re.findall(r"deg (\d+):(\d+)", line)}


def reports(path):
    """(argv, {algebra in the machine report: prefix of its table line})."""
    yield ["complement", path], {"C": "H^*(C): "}
    yield ["stable-square", path], {"BL": "bottom-left H: ", "BR": "bottom-right H: "}
    yield ["lefschetz", path], {"HC": "H^*(C): "}
    for obj in sorted(cli.parse_file(path).algebras):
        yield (["cohomology", path, "--object", obj],
               {"H_%s" % obj: "H^*(%s): " % obj})


@pytest.mark.parametrize("example", sorted(cli.EXAMPLES))
def test_machine_reports_reparse_with_the_table_dims(example):
    path = str(cli.example_path(example))
    reparsed = 0
    for argv, algebras in reports(path):
        code, table, _ = run_cli(argv)
        mcode, machine, _ = run_cli(argv + ["--format", "machine"])
        assert mcode == code
        if code != 0:
            continue
        pf = parse(machine)
        if "algebra undetermined" in table:
            # lefschetz has no algebra to emit: a document declaring none
            assert not pf.algebras
            continue
        assert sorted(pf.algebras) == sorted(algebras)
        for name, prefix in algebras.items():
            got = cohomology(pf.algebras[name].cdga.complex).dims
            assert got == table_dims(table, prefix), (argv, name)
        reparsed += 1
    assert reparsed >= 2   # an ambient and an embedded algebra at least
