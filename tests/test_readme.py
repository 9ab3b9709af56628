"""README's examples print what README says they print.

The Python quick-start block runs as written; each ``print(...)  # value``
line must print the value in its comment (a value ending in ``…`` is the
printed number rounded to the digits shown).  The CLI example's argv runs through `main`, and its envelope must
be the text README shows under it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from keysec.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``after``."""
    return re.search(rf"{re.escape(after)}\n.*?```{lang}\n(.*?)```", README, re.S).group(1)


def test_the_library_quick_start_prints_its_comments():
    code = _block("## Library quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    shown = [re.split(r"\s+—", line.split("# ", 1)[1])[0].strip()
             for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(shown) == 3
    for got, want in zip(printed, shown):
        if want.endswith("…"):  # a number rounded to the digits shown
            got = f"{float(got):.{len(want.split('.')[1]) - 1}f}…"
        assert got == want


def test_the_cli_example_prints_its_envelope(monkeypatch):
    monkeypatch.delenv("KEYSEC_NUMERIC_MODE", raising=False)
    command, envelope = _block("## CLI", "sh").split("\n", 1)
    argv = shlex.split(command.removeprefix("$ "))
    assert argv[0] == "keysec"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[1:]) == 0
    assert out.getvalue() == envelope
