"""Every source file of the package is ASCII.

Each run of the CLI compiles `src/pemb` when no bytecode cache is kept,
and a non-ASCII character makes the compiler hold its source as a wider
string: five of them in one docstring once raised the peak memory of
`import pemb.cli` by about 80 KB.  Mathematics in docstrings is written
in ASCII, as in `d*d = 0` and `Lambda(V)`.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pemb"


def non_ascii(text):
    """(line, column, character) of every character of `text` outside
    ASCII, in text order."""
    return [(n, col, ch) for n, line in enumerate(text.splitlines(), 1)
            for col, ch in enumerate(line, 1) if ord(ch) > 127]


def test_non_ascii_characters_are_found():
    assert non_ascii("x = 1\n# d∘d = 0, Λ(V)\n") == [(2, 4, "∘"), (2, 12, "Λ")]
    assert non_ascii("plain\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_source_is_ascii(path):
    assert non_ascii(path.read_text(encoding="utf-8")) == []
