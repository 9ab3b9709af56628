"""The envelope contract: every frozen CLI envelope of the benchmark, run in process.

`bench/golden/cli.json` freezes the envelope of each argv of the cli-batch
table in `bench/cases.py`: a rational envelope by the SHA-256 of its bytes, a
float envelope by its values, each within the benchmark's tolerance.  Each argv
runs through `keysec.cli.main` from the repository root, on the input files
the benchmark writes under `bench/out/work`, and its exit code and stdout are
checked by the benchmark's own `_check_cli`, the envelope schema included.
"""

import builtins
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import keysec
from keysec.cli import main
from keysec.verify import run_invariant_suite

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


def test_no_builtin_sum_is_handed_a_float(capsys, monkeypatch):
    """Builtin `sum` compensates float sums from Python 3.12 on: every float total the package
    adds left to right goes through `keysec.dist._in_order`, so no output bit depends on the
    interpreter.  A `sum` that refuses floats, set in every keysec module, meets no float in
    the golden calls or the invariant suite."""
    tripped = []

    def float_free_sum(values, start=0):
        values = list(values)
        if any(isinstance(v, float) for v in [start, *values]):
            tripped.append(values)
            raise AssertionError("builtin sum handed a float")
        return builtins.sum(values, start)

    for info in pkgutil.iter_modules(keysec.__path__):
        monkeypatch.setattr(importlib.import_module(f"keysec.{info.name}"), "sum", float_free_sum, raising=False)
    monkeypatch.setattr(keysec, "sum", float_free_sum, raising=False)
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("KEYSEC_NUMERIC_MODE", raising=False)
    summed = []
    for _, argv in CALLS:
        before = len(tripped)
        main(argv)
        capsys.readouterr()
        summed += [" ".join(argv)] if len(tripped) > before else []
    failed = [result.name for result in run_invariant_suite() if not result.passed]
    assert summed == [] and failed == [] and tripped == []
