"""The envelope contract: every frozen CLI envelope of the benchmark, run in process.

`bench/golden/cli.json` freezes the envelope of each argv of the cli-batch
table in `bench/cases.py`: a rational envelope by the SHA-256 of its bytes, a
float envelope by its values, each within the benchmark's tolerance.  Each argv
runs through `keysec.cli.main` from the repository root, on the input files
the benchmark writes under `bench/out/work`, and its exit code and stdout are
checked by the benchmark's own `_check_cli`, the envelope schema included.
"""

import sys
from pathlib import Path

import pytest

from keysec.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))
try:
    import cases  # bench/cases.py, which imports bench/oracles.py
finally:
    sys.path.remove(str(ROOT / "bench"))

CALLS = [(mode, cases.cli_argv(command, mode, variant))
         for command, mode, variants in cases.cli_table() for variant in variants]


@pytest.fixture(scope="module", autouse=True)
def _work_files():
    cases.write_cli_files()


def test_the_golden_file_freezes_every_call_once():
    assert len(CALLS) == 159
    assert {" ".join(argv) for _, argv in CALLS} == set(cases._cli_refs()[1])


@pytest.mark.parametrize("mode, argv", CALLS, ids=[" ".join(argv) for _, argv in CALLS])
def test_every_golden_call_gives_its_frozen_envelope(mode, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("KEYSEC_NUMERIC_MODE", raising=False)
    code = main(argv)
    cases._check_cli({"kind": "cli", "mode": mode, "argv": argv}, (code, capsys.readouterr().out))
