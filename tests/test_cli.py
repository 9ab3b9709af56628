"""Command-line front end: envelopes, exit codes, determinism."""

import argparse
import ast
import functools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import keysec
from keysec import cli
from keysec.cli import COMMANDS, GROUPS, build_parser, main
from keysec.numerics import CAPS, MODES, ValidationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_envelope_shape(capsys):
    env = run_json(capsys, "dist", "delta", "--p", "uniform:4", "--q", "uniform:4")
    assert set(env) == {"command", "inputs", "outputs", "provenance", "numeric_mode"}
    assert env["command"] == "dist delta"
    assert env["inputs"] == {"p": "uniform:4", "q": "uniform:4"}
    assert env["outputs"]["delta"] == 0.0
    assert env["numeric_mode"] == "float"
    assert "sum" in env["provenance"]


def test_documented_examples(capsys):
    env = run_json(capsys, "budget", "near-uniform-bits", "--d", "log10:-20",
                   "--exponent", "1/3")
    assert env["outputs"]["bits"] == 22
    env = run_json(capsys, "cvqkd", "uncertainty", "--a", "0.01", "--b", "0.01",
                   "--s", "1", "--t", "1")
    assert env["outputs"]["relative"] == pytest.approx(0.0199, abs=1e-12)


def test_rational_mode_renders_fractions(capsys):
    env = run_json(capsys, "spike", "construct", "--n", "2", "--eps", "1/4",
                   "--mode", "rational")
    assert env["numeric_mode"] == "rational"
    assert env["outputs"]["distribution"] == ["1/2", "1/6", "1/6", "1/6"]
    assert env["outputs"]["p1"] == "1/2"
    assert env["outputs"]["distance"] == "1/4"


def test_byte_identical_reruns(capsys):
    args = ("kpa", "avg-guess", "--p", "spike:3:1/8", "--n1", "1", "--n2", "2",
            "--mode", "rational")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, v1, _ = run_cli(capsys, "verify-all")
    _, v2, _ = run_cli(capsys, "verify-all")
    assert v1 == v2


def test_distribution_sources(tmp_path, capsys):
    spec = '["1/2","1/8","1/8","1/4"]'
    inline = run_json(capsys, "dist", "entropy", "--p", spec, "--mode", "rational")
    path = tmp_path / "dist.json"
    path.write_text(spec)
    from_file = run_json(capsys, "dist", "entropy", "--p", f"@{path}", "--mode", "rational")
    assert inline["outputs"] == from_file["outputs"]
    assert inline["outputs"]["p1"] == "1/2"
    assert inline["outputs"]["min_entropy_bits"] == 1.0
    # without --mode the same text is read on the float backend
    as_float = run_json(capsys, "dist", "entropy", "--p", spec)
    assert as_float["outputs"]["p1"] == 0.5


def test_mode_env_and_flag(monkeypatch, capsys):
    monkeypatch.setenv("KEYSEC_NUMERIC_MODE", "rational")
    env = run_json(capsys, "dist", "delta", "--p", "uniform:2", "--q", "spike:2:1/8")
    assert env["numeric_mode"] == "rational"
    assert env["outputs"]["delta"] == "1/8"
    env = run_json(capsys, "dist", "delta", "--p", "uniform:2", "--q", "spike:2:1/8",
                   "--mode", "float")
    assert env["numeric_mode"] == "float"
    assert env["outputs"]["delta"] == pytest.approx(0.125, abs=1e-12)


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "dist", "delta", "--p", "uniform:0", "--q", "uniform:4")
    assert code == 2 and "validation" in err
    code, _, err = run_cli(capsys, "mac", "epsilon", "--b", "12", "--blocks", "2")
    assert code == 3 and "resource" in err
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0
    code, _, _ = run_cli(capsys, "dist")
    assert code == 1
    code, _, err = run_cli(capsys, "spike", "construct", "--n", "2", "--eps", "7/8",
                           "--mode", "rational")
    assert code == 2 and "infeasible" in err
    code, _, err = run_cli(capsys, "spike", "low-info", "--n", "2", "--lam", "0.25")
    assert code == 2 and err.startswith("infeasible: spike 2**(-0.25*2) exceeds 1/2")
    code, _, err = run_cli(capsys, "dist", "entropy", "--p", "@/nonexistent/file.json")
    assert code == 2


def test_an_unreadable_file_is_refused_with_its_flag_and_reason(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for argv, refusal in (
        (("dist", "entropy", "--p", f"@{missing}"), f"--p: cannot read {missing}: No such file or directory"),
        (("ecpa", "compare", "--code", f"@{tmp_path}", "--crossover", "0.1"),
         f"--code: cannot read {tmp_path}: Is a directory"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"validation error: {refusal}\n"), argv


def test_non_utf8_files_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff["1/2","1/2"]')
    for argv in (
        ("dist", "entropy", "--p", f"@{path}"),
        ("ecpa", "compare", "--code", f"@{path}", "--crossover", "0.1"),
        ("dist", "trace", "--rho", f"@{path}", "--sigma", "diag:uniform:1"),
        ("dist", "mi", "--prior", "uniform:1", "--conditional", f"@{path}"),
    ):
        code, out, err = run_cli(capsys, *argv)
        flag = argv[argv.index(f"@{path}") - 1]
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"validation error: {flag}: {path} is not UTF-8 text: ") and err.count("\n") == 1, argv


def test_malformed_exact_entries_exit_2_with_the_parse_refusal(capsys):
    code, out, err = run_cli(capsys, "dist", "delta", "--mode", "rational",
                             "--p", '["1/0","1/1"]', "--q", '["1/2","1/2"]')
    assert (code, out, err) == (2, "", "validation error: --p: cannot parse '1/0' as a rational number\n")
    env = run_json(capsys, "dist", "delta", "--mode", "rational", "--p", '["2/4","01/2"]', "--q", "uniform:1")
    assert env["outputs"]["delta"] == "0/1"


def test_a_wrong_length_is_refused_before_the_entries(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "dist", "entropy", "--mode", "rational", "--p", '["x","1/2","1/2"]')
    assert (code, out, err) == (2, "", "validation error: --p: length 3 is not a power of two >= 2\n")
    monkeypatch.setitem(CAPS, "key_bits", CAPS["key_bits"]._replace(limit=2))
    code, out, err = run_cli(capsys, "dist", "entropy", "--mode", "rational", "--p", json.dumps(["x"] * 8))
    assert (code, out) == (3, "")
    assert err == "resource limit: --p: a dense law over 2^3 keys needs 3 bits, over the key_bits cap of 2 bits\n"


def test_non_finite_inputs_exit_2_with_one_line(capsys):
    for argv in (
        ("dist", "entropy", "--p", '["nan","1.0"]'),
        ("dist", "delta", "--p", "[Infinity, 0]", "--q", "uniform:1"),
        ("budget", "near-uniform-bits", "--mode", "float", "--d", "log10:-inf"),
        ("budget", "near-uniform-bits", "--mode", "float", "--d", "log10:nan"),
        ("budget", "near-uniform-bits", "--mode", "rational", "--d", "log10:-inf"),
        ("budget", "near-uniform-bits", "--mode", "rational", "--d", "log10:nan"),
        ("budget", "accumulate", "--d-round", "nan", "--rate", "1", "--seconds", "1"),
        ("budget", "near-uniform-bits", "--mode", "rational", "--d", "log10:-1e400"),
        ("budget", "near-uniform-bits", "--mode", "float", "--d", "log10:-1e308"),
        ("verify-all", "--n-max", "0"),
        ("dist", "binary-entropy", "--mode", "rational", "--q", "1e400"),
        ("dist", "trace", "--rho", "[1, 2]", "--sigma", "[[1]]"),
        ("ecpa", "compare", "--code", "0111;1011", "--code", "1100;0011", "--crossover", "0.1",
         "--weights", "nan,0.5"),
        ("ecpa", "compare", "--code", "0111;1011", "--crossover", "nan"),
        ("kpa", "breach", "--n", "3", "--eps", "inf", "--n1", "1", "--n2", "2"),
        ("conditional", "max-deviation", "--n", "2", "--eps", "inf", "--event", "0,1", "--sub-event", "0"),
        ("cvqkd", "uncertainty", "--s", "inf", "--t", "1", "--a", "0", "--b", "0"),
        ("budget", "markov", "--mean", "nan", "--threshold", "1"),
        ("mac", "attack", "--b", "3", "--blocks", "2", "--modulus", "-11", "--attack", "substitution",
         "--hash-key", "spike:3:1/8"),
        ("mac", "forgery-witness", "--b", "3", "--blocks", "2", "--modulus", "-11"),
        ("dist", "trace", "--rho", "[[1,0],[0]]", "--sigma", "[[1]]"),
        ("dist", "trace", "--rho", '[[[1,"x"]]]', "--sigma", "[[1]]"),
        ("dist", "trace", "--rho", "[[[1,[2]]]]", "--sigma", "[[1]]"),
        ("dist", "trace", "--rho", "[[[true,0]]]", "--sigma", "[[1]]"),
        ("dist", "trace", "--rho", "[[NaN]]", "--sigma", "[[1]]"),
        ("dist", "trace", "--rho", "[[Infinity]]", "--sigma", "[[1]]"),
        ("ecpa", "leak", "--f", "1.2", "--n", "9" * 400, "--q", "0.1"),
        ("budget", "required-d", "--n", "9" * 400),
        ("mac", "degrade", "--eps", "0.1", "--eps-h", "0.1", "--eps-t", "0.01", "--m", "9" * 400),
        ("dist", "entropy", "--p", f"[{'1' * 5000}, 0]"),  # past int()'s 4,300-digit limit
        ("dist", "mi", "--prior", "uniform:1", "--conditional", f"[[{'1' * 5000}]]"),
        ("dist", "trace", "--rho", f"[[{'1' * 5000}]]", "--sigma", "[[1]]"),
        ("dist", "trace", "--rho", "[[1,0]]", "--sigma", "[[1]]"),  # not square
        # finite inputs whose result is not: the refusal names the quantity that overflows
        ("budget", "gap", "--current", "log10:-1e308", "--target", "log10:-1e308", "--exponent", "1/3"),
        ("ecpa", "leak", "--f", "2", "--n", str(10**308), "--q", "0.5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("validation error:") and err.count("\n") == 1, err
        if "gap" in argv:
            assert err == "validation error: required average level log10 d must be finite, got -inf\n", err
        if str(10**308) in argv:
            assert err == "validation error: reconciliation disclosure must be finite, got inf\n", err
        if "[[NaN]]" in argv or "[[Infinity]]" in argv:
            assert err == "validation error: --rho: state has a non-finite entry\n", err
        if "9" * 400 in argv:
            assert err.endswith(" is outside the float range\n"), err
        if any("1" * 5000 in arg for arg in argv):
            assert " is not valid JSON: Exceeds the limit (4300 digits)" in err, err


def test_empty_values_and_dense_sizes_are_refused(capsys):
    # an empty --modulus or --tag-key is refused like every other empty value, not read as absent
    for argv in (
        ("mac", "epsilon", "--b", "3", "--blocks", "2", "--modulus", ""),
        ("mac", "attack", "--b", "2", "--blocks", "2", "--attack", "substitution",
         "--hash-key", "uniform:2", "--tag-key", ""),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("validation error:") and err.count("\n") == 1, err
    # dense laws above MAX_KEY_BITS are refused by the bit-length check, before any allocation
    for argv in (
        ("dist", "delta", "--p", "uniform:30", "--q", "uniform:30"),
        ("spike", "construct", "--n", "40", "--eps", "1/8", "--mode", "rational"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("resource limit:") and err.count("\n") == 1, err


#: one argv that each row of CAPS refuses
CAP_ARGV = {
    "key_bits": ("dist", "delta", "--p", "uniform:30", "--q", "uniform:30"),
    "field_bits": ("mac", "epsilon", "--b", "12", "--blocks", "2"),
    "mac_entry_bits": ("mac", "attack", "--b", "4", "--blocks", "4", "--attack", "substitution",
                       "--hash-key", "uniform:4", "--tag-key", "uniform:4"),
    "data_bits": ("ecpa", "compare", "--code", "0" * 12 + "1", "--crossover", "1/10"),
    "matrix_bits": ("ecpa", "compare", "--code", "0" * 16 + "1", "--crossover", "1/10"),
    "state_dim": ("dist", "trace", "--rho", "diag:uniform:7", "--sigma", "diag:uniform:7"),
    "decimal_digits": ("dist", "entropy", "--mode", "rational", "--p", '["1e5000","0"]'),
    "denominator_bits": ("dist", "entropy", "--mode", "rational",
                         "--p", json.dumps([f"1/{10**3000}", f"1/{3**6300}"])),  # coprime: 19,951 bits
}


def test_cap_refusals_of_both_exit_classes_share_one_format(capsys):
    # every cap is reachable from the CLI, and each refusal is one line of the one format
    line = re.compile(r"(resource limit|validation error): .+ needs (\d+) (\w+), "
                      r"over the (\w+) cap of (\d+) \3\n")
    assert set(CAP_ARGV) == set(CAPS)
    for name, argv in CAP_ARGV.items():
        code, out, err = run_cli(capsys, *argv)
        cap = CAPS[name]
        assert (code, out) == (cap.error.exit_code, ""), argv
        match = line.fullmatch(err)
        assert match and match[4] == name, err
        assert int(match[5]) == cap.limit < int(match[2])


def test_kpa_commands_are_bounded_by_key_bits_alone(capsys):
    validator = jsonschema.Draft202012Validator(_SCHEMA)
    for argv in (  # one bit past the retired per-mode enumeration caps (12 bits rational, 20 float)
        ("kpa", "breach", "--n", "13", "--eps", "1/16", "--n1", "1", "--n2", "12", "--mode", "rational"),
        ("kpa", "avg-guess", "--p", "uniform:13", "--n1", "6", "--n2", "7", "--mode", "rational"),
        ("kpa", "bit-agreement", "--p", "uniform:13", "--mode", "rational"),
        ("kpa", "avg-guess", "--p", "uniform:21", "--n1", "1", "--n2", "20", "--mode", "float"),
        ("kpa", "bit-agreement", "--p", "uniform:21", "--mode", "float"),
    ):
        validator.validate(run_json(capsys, *argv))
    for argv in (
        ("kpa", "avg-guess", "--p", "uniform:25", "--n1", "12", "--n2", "13"),
        ("kpa", "breach", "--n", "25", "--eps", "1/16", "--n1", "12", "--n2", "13", "--mode", "rational"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "") and err.endswith("over the key_bits cap of 24 bits\n"), (argv, err)


def test_an_unexpected_exception_exits_1_with_one_line(capsys, monkeypatch):
    def broken(a):
        raise IndexError("list index\nout of range")

    monkeypatch.setitem(cli.COMMANDS, "dist entropy", COMMANDS["dist entropy"]._replace(handler=broken))
    code, out, err = run_cli(capsys, "dist", "entropy", "--p", "uniform:2")
    assert (code, out, err) == (1, "", "internal error: IndexError: list index out of range\n")


def test_cli_reaches_the_library_through_the_package():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if name.startswith((".", "keysec"))} == {"keysec", ".numerics"}
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_python_m_runs_the_cli():
    src = str(Path(keysec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("KEYSEC_NUMERIC_MODE", None)
    proc = subprocess.run([sys.executable, "-m", "keysec.cli", "dist", "entropy", "--p", "uniform:2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    jsonschema.Draft202012Validator(_SCHEMA).validate(envelope)
    assert (envelope["command"], envelope["outputs"]["p1"]) == ("dist entropy", 0.25)


def test_a_reader_that_closes_stdout_early_ends_the_call_with_exit_1():
    src = str(Path(keysec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["spike", "construct", "--n", "12", "--eps", "0.1"], ["budget", "required-d", "--n", "8"]):
        proc = subprocess.Popen([sys.executable, "-m", "keysec.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the read end closes before the envelope is written
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1, (argv, err)
        assert err.count("\n") <= 1 and "Traceback" not in err and "Exception ignored" not in err, (argv, err)


#: integer spellings and their values, read alike by every integer flag, --subset and --event
INT_SPELLINGS = {"10": 10, "010": 10, "0x1f": 31, "0b101": 5, "1_000": 1000, "-3": -3, " 7 ": 7, "\u0663": 3}


def test_integer_flags_subsets_and_events_read_one_grammar(capsys):
    read = {flag: COMMANDS[command].args[flag].reader for command, flag in (
        ("budget required-d", "--n"), ("kpa breach", "--subset"), ("dist event-bound", "--event"))}
    for text, value in INT_SPELLINGS.items():
        assert read["--n"](text, "float") == value and read["--subset"](f"{text},1", "float") == (value, 1)
        if value < 0:
            with pytest.raises(ValidationError, match="event member must be a non-negative integer"):
                read["--event"](f"{text},1", "float")
        else:
            assert read["--event"](f"{text},1", "float").members == {value, 1}
            assert run_json(capsys, "budget", "required-d", "--n", text)["outputs"] == run_json(
                capsys, "budget", "required-d", "--n", str(value))["outputs"]
        for before in (lambda t: int(t, 0), int):  # the old readers: of the integer flags, and of --event
            try:
                assert before(text) == value, text  # a spelling accepted before keeps its value
            except ValueError:
                pass
    event = ["dist", "event-bound", "--p", "spike:1:1/4", "--q", "uniform:1", "--event"]
    assert run_json(capsys, *event, "0x1")["outputs"] == run_json(capsys, *event, "1")["outputs"]


#: run `main` on the argv in a fresh interpreter, then print its exit code and the modules loaded
_LOADED = """import contextlib, io, json, sys
from keysec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))"""


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code *argv`` in a fresh interpreter that imports this checkout's keysec."""
    src = str(Path(keysec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)


#: what the scalar commands of dist, ecpa and mac leave unloaded, their formulas living in numerics
_NUMPY_FREE = {"numpy", "keysec.dist", "keysec.ecpa", "keysec.mac"}


@pytest.mark.parametrize("argv, unloaded", [
    ("budget required-d --n 128", {"numpy", "keysec.dist"}),
    ("cvqkd uncertainty --s 1 --t 1 --a 0.01 --b 0.01", {"numpy", "keysec.dist"}),
    ("dist entropy --p uniform:4", {f"keysec.{name}" for name in ("mac", "ecpa", "extremal", "kpa", "verify")}),
    *((f"{call} --mode {mode}", _NUMPY_FREE) for call in (
        "dist binary-entropy --q 1/10", "ecpa leak --f 1.2 --n 1000 --q 3/100",
        "mac degrade --eps 1/8 --eps-h 1/100 --eps-t 1/50 --m 3") for mode in MODES),
])
def test_a_command_loads_only_the_modules_it_calls(argv, unloaded):
    proc = _fresh(_LOADED, *argv.split())
    code, loaded = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    assert not unloaded & set(loaded)


def test_importing_the_cli_loads_numerics_alone_of_the_library():
    proc = _fresh("import json, sys; import keysec.cli; print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(proc.stdout))
    assert {m for m in loaded if m.split(".")[0] == "keysec"} == {"keysec", "keysec.cli", "keysec.numerics"}
    assert not {"numpy", "dataclasses"} & loaded


def test_the_branch_parser_prints_what_the_whole_tree_prints(capsys, monkeypatch):
    helps = [[*argv, "--help"] for argv in [[], *([group] for group in GROUPS), *(c.split() for c in COMMANDS)]]
    errors = [[], ["bogus"], ["budget"], ["budget", "bogus"], ["budget", "required-d"],
              ["-x", "budget", "required-d", "--n", "1"], ["budget", "required-d", "--n", "1", "--q"]]
    branch = [run_cli(capsys, *argv) for argv in helps + errors]
    whole = build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda branch=None: whole)
    assert [run_cli(capsys, *argv) for argv in helps + errors] == branch
    assert all(code == 0 and out for code, out, _ in branch[:len(helps)])


def test_every_command_shows_the_help_line_of_each_of_its_flags(capsys):
    shared = {}
    for command, entry in COMMANDS.items():
        code, out, _ = run_cli(capsys, *command.split(), "--help")
        screen = " ".join(out.split())  # argparse wraps a long help line
        assert code == 0
        for flag, arg in entry.args.items():
            assert arg.help is None or arg.help in screen, (command, flag)
            shared.setdefault(flag, []).append(arg.help)
    # a flag that several commands share carries one help line, shown by each
    for flag in ("--conditional", "--subset", "--modulus", "--code", "--weights"):
        assert len(shared[flag]) > 1 and None not in shared[flag] and len(set(shared[flag])) == 1, flag


def test_verify_all_reports_and_exits_zero(capsys):
    env = run_json(capsys, "verify-all", "--n-max", "6", "--seed", "42")
    assert env["outputs"]["all_passed"] is True
    results = env["outputs"]["results"]
    assert len(results) >= 10
    assert all(set(r) == {"name", "passed", "detail"} for r in results)


def test_verify_all_failing_check_exits_1_and_keeps_running(capsys, monkeypatch):
    def fails(rng, n_max):
        return False, "deliberately failed"

    def raises(rng, n_max):
        raise ZeroDivisionError("deliberately raised")

    first = keysec.verify._CHECKS[0]
    monkeypatch.setattr(keysec.verify, "_CHECKS", [("fails", fails), ("raises", raises), first])
    code, out, err = run_cli(capsys, "verify-all", "--n-max", "2")
    assert (code, err) == (1, "")
    outputs = json.loads(out)["outputs"]
    assert outputs["all_passed"] is False
    assert [(r["name"], r["passed"]) for r in outputs["results"]] == [
        ("fails", False), ("raises", False), (first[0], True)]
    assert outputs["results"][1]["detail"] == "raised ZeroDivisionError: deliberately raised"


def test_state_string_entries_and_malformed_specs(capsys):
    env = run_json(capsys, "dist", "trace", "--rho", '[["0.5+0j", 0], [0, "0.5"]]',
                   "--sigma", "[[0.5, 0], [0, 0.5]]")
    assert env["outputs"]["trace_distance"] == 0.0
    for argv, message in (
        (("dist", "trace", "--rho", '[["zz", 0], [0, "0.5"]]', "--sigma", "[[1]]"),
         "--rho: cannot read complex entry 'zz'"),
        (("dist", "delta", "--p", "spike:2", "--q", "uniform:2"),
         "--p: spike spec needs spike:n:eps, got 'spike:2'"),
        (("ecpa", "compare", "--code", "01;011", "--crossover", "0.1"),
         "--code: ragged parity-check rows: 3 vs 2 columns"),
        (("kpa", "breach", "--n", "4", "--eps", "0.1", "--n1", "3", "--n2", "3"),
         "split covers 6 bits but the key has 4"),
        # every integer text is refused by parse_int in one wording, named for what it reads
        (("kpa", "breach", "--n", "3", "--eps", "0.1", "--n1", "1", "--n2", "2", "--subset", "0,x"),
         "--subset: value must be an integer, got 'x'"),
        (("dist", "event-bound", "--p", "uniform:2", "--q", "uniform:2", "--event", "1,x"),
         "--event: event member must be an integer, got 'x'"),
        (("conditional", "max-deviation", "--n", "2", "--eps", "1/10", "--event", "0,1", "--sub-event", "x"),
         "--sub-event: event member must be an integer, got 'x'"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"validation error: {message}\n")


def test_a_json_flag_must_hold_a_non_empty_array(capsys):
    before = {"--p": ("dist", "entropy"), "--conditional": ("dist", "mi", "--prior", "uniform:1"),
              "--rho": ("dist", "trace", "--sigma", "[[1]]")}
    for flag, what in (("--p", "distribution"), ("--conditional", "matrix"), ("--rho", "state")):
        for text in ("[]", "{}", '"x"'):
            refusal = f"validation error: {flag}: {what} must be a non-empty JSON array\n"
            assert run_cli(capsys, *before[flag], flag, text) == (2, "", refusal), (flag, text)
    # an array whose elements are not all rows; a law reads each entry as a number
    for flag, refusal in (("--p", "cannot parse '[2]' as a float number"),
                          ("--conditional", "matrix must be a JSON array of rows"),
                          ("--rho", "state must be a JSON array of rows")):
        assert run_cli(capsys, *before[flag], flag, "[1, [2]]") == (2, "", f"validation error: {flag}: {refusal}\n")


def test_a_float_law_accepted_as_uniform_decomposes_at_lam_zero(capsys):
    """Each entry exceeds 1/2 by 4e-10: the container accepts the law within the ``total`` slack,
    and the mixture check reads its entry bounds with the same slack, as the event bound does."""
    law = "[0.5000000004, 0.5000000004]"
    env = run_json(capsys, "mixture", "check", "--p", law, "--lam", "0", "--mode", "float")
    assert env["outputs"] == {"decomposable": True, "residual": [0.5, 0.5], "uniform_weight": 1.0}
    env = run_json(capsys, "dist", "event-bound", "--p", law, "--q", "uniform:1", "--event", "0", "--mode", "float")
    assert env["outputs"]["holds"] is True


@pytest.mark.parametrize("law, lam, residual", [
    ("uniform:2", "1e-300", [0.25] * 4),  # the shift rounds to 0: the uniform residual, as in rational mode
    ("[0.250000000001, 0.249999999999, 0.25, 0.25]", "5e-324", [1.0, 0.0, 0.0, 0.0]),  # shift / lam overflows
])
def test_a_float_mixture_at_a_tiny_weight_decomposes_with_nothing_on_stderr(capsys, law, lam, residual):
    code, out, err = run_cli(capsys, "mixture", "check", "--p", law, "--lam", lam, "--mode", "float")
    assert (code, err) == (0, "")
    assert json.loads(out)["outputs"] == {"decomposable": True, "residual": residual, "uniform_weight": 1.0}


def test_conditional_and_mixture_witnesses_via_cli(capsys):
    env = run_json(capsys, "conditional", "max-deviation", "--n", "2", "--eps", "1/10",
                   "--event", "0,1", "--sub-event", "0", "--mode", "rational")
    assert env["outputs"]["deviation"] == "1/5"
    assert env["outputs"]["distribution"] == ["7/20", "3/20", "1/4", "1/4"]
    env = run_json(capsys, "mixture", "check", "--p", "[0.4,0.2,0.2,0.2]",
                   "--lam", "0.2")
    assert env["outputs"]["decomposable"] is True
    assert env["outputs"]["uniform_weight"] == pytest.approx(0.8)
    env = run_json(capsys, "mixture", "check", "--p", "spike:2:1/4", "--lam", "1/100",
                   "--mode", "rational")
    assert env["outputs"]["decomposable"] is False
    assert env["outputs"]["residual"] is None


def test_mac_and_ecpa_via_cli(capsys):
    env = run_json(capsys, "mac", "attack", "--b", "3", "--blocks", "2",
                   "--attack", "substitution", "--hash-key", "uniform:3",
                   "--mode", "rational")
    assert env["outputs"]["success"] == "1/4"
    env = run_json(capsys, "ecpa", "compare", "--code", "0111;1011",
                   "--code", "1100;0011", "--crossover", "0.1")
    out = env["outputs"]
    assert out["p1_code_known_avg"] >= out["p1_mixture"] >= out["p1_no_code"]
    env = run_json(capsys, "ecpa", "leak", "--f", "1", "--n", "7", "--q", "0.5")
    assert env["outputs"]["leak_bits"] == 7.0


def test_trace_distance_via_cli(capsys):
    env = run_json(capsys, "dist", "trace", "--rho", "diag:spike:2:0.3",
                   "--sigma", "diag:uniform:2")
    assert env["outputs"]["trace_distance"] == pytest.approx(0.3, abs=1e-12)
    env = run_json(capsys, "dist", "trace",
                   "--rho", '[[0.6, [0.2, 0.1]], [[0.2, -0.1], 0.4]]',
                   "--sigma", '[[0.5, 0], [0, 0.5]]')
    assert env["outputs"]["trace_distance"] == pytest.approx(0.24494897427831783, abs=1e-12)


def test_budget_gap_via_cli(capsys):
    env = run_json(capsys, "budget", "gap", "--current", "log10:-9",
                   "--exponent", "1/3", "--mode", "rational")
    assert env["outputs"]["gap_orders"] == "36/1"
    assert env["outputs"]["log10_required_average"] == "-45/1"
    # level below float range still parses via the log10 form
    env = run_json(capsys, "budget", "near-uniform-bits", "--d", "log10:-400",
                   "--exponent", "1")
    assert env["outputs"]["bits"] == 1328


#: one small call per subcommand, for the registry coverage test
SAMPLE_ARGV = {
    "dist delta": ["--p", "uniform:2", "--q", "spike:2:1/8"],
    "dist entropy": ["--p", '["1/2","1/4","1/8","1/8"]'],
    "dist mi": ["--prior", "uniform:1", "--conditional", '[["1/2","1/2"],["1","0"]]'],
    "dist trace": ["--rho", "diag:spike:1:1/4", "--sigma", "diag:uniform:1"],
    "dist d-criterion": ["--prior", "uniform:1", "--conditional", '[["1/2","1/2"],["1","0"]]'],
    "dist binary-entropy": ["--q", "1/4"],
    "dist event-bound": ["--p", "spike:2:1/8", "--q", "uniform:2", "--event", "0,1"],
    "spike construct": ["--n", "2", "--eps", "1/8", "--at", "3"],
    "spike low-info": ["--n", "4", "--lam", "0.5"],
    "mixture check": ["--p", "spike:2:1/8", "--lam", "1/2"],
    "conditional max-deviation": ["--n", "2", "--eps", "1/10", "--event", "0,1", "--sub-event", "0"],
    "kpa avg-guess": ["--p", "spike:3:1/8", "--n1", "1", "--n2", "2", "--subset", "0"],
    "kpa breach": ["--n", "3", "--eps", "1/16", "--n1", "1", "--n2", "2"],
    "kpa bit-agreement": ["--p", "spike:2:1/8"],
    "mac epsilon": ["--b", "3", "--blocks", "2", "--modulus", "0xB"],
    "mac attack": ["--b", "2", "--blocks", "2", "--attack", "substitution", "--hash-key", "uniform:2",
                   "--tag-key", "spike:2:1/8", "--tag-averaged"],
    "mac degrade": ["--eps", "1/8", "--eps-h", "1/100", "--eps-t", "1/50", "--m", "3"],
    "mac forgery-witness": ["--b", "3", "--blocks", "2"],
    "ecpa leak": ["--f", "1.2", "--n", "100", "--q", "1/20"],
    "ecpa posterior": ["--code", "0111;1011", "--code", "1100;0011", "--weights", "1/4,3/4",
                       "--observation", "0110", "--crossover", "1/10", "--code-known"],
    "ecpa compare": ["--code", "0111;1011", "--code", "1100;0011", "--crossover", "1/10"],
    "budget markov": ["--mean", "1/1000", "--threshold", "1/10"],
    "budget individual": ["--d", "1e-20", "--exponent", "1/2"],
    "budget accumulate": ["--d-round", "1e-14", "--rate", "100", "--seconds", "3600"],
    "budget near-uniform-bits": ["--d", "log10:-20", "--exponent", "1/3"],
    "budget required-d": ["--n", "128"],
    "budget gap": ["--current", "1e-9", "--exponent", "1/2"],
    "cvqkd uncertainty": ["--s", "1", "--t", "1", "--a", "0.01", "--b", "0.01"],
    "cvqkd verdict": ["--s", "1.5", "--t", "0.9", "--a", "0.05", "--b", "0.1"],
    "cvqkd tradeoff": ["--s", "1.5", "--t", "0.9", "--a", "0.05", "--b", "0.1", "--shift", "0.4",
                       "--thresholds", "1,1.4"],
    "verify-all": ["--n-max", "2", "--seed", "3"],
}


def _parser_commands() -> set:
    """Every subcommand path the argparse tree exposes."""
    def walk(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return {prefix}
        return set().union(*(walk(p, f"{prefix} {name}".strip()) for name, p in subs[0].choices.items()))
    return walk(build_parser(), "")


_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_envelope.schema.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("command", sorted(set(COMMANDS) | _parser_commands()))
@pytest.mark.parametrize("mode", ["float", "rational"])
def test_every_registry_command_emits_a_schema_valid_envelope(capsys, command, mode):
    assert command in COMMANDS, f"{command!r} is in the parser but not in COMMANDS"
    assert command in SAMPLE_ARGV, f"{command!r} has no sample argv"
    assert COMMANDS[command].provenance
    env = run_json(capsys, *command.split(), *SAMPLE_ARGV[command], "--mode", mode)
    jsonschema.Draft202012Validator(_SCHEMA).validate(env)
    assert (env["command"], env["numeric_mode"]) == (command, mode)
    assert env["provenance"] == COMMANDS[command].provenance


#: values put in place of one flag value at a time; 25..40 would allocate 2^n entries at the parent commit
HOSTILE_VALUES = ("nan", "inf", "-inf", "", "zz", "-1", "0", "1/0", "99999999")


def test_hostile_flag_values_exit_cleanly(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))  # one parser for every call
    validator = jsonschema.Draft202012Validator(_SCHEMA)
    for command, sample in SAMPLE_ARGV.items():
        values = [i + 1 for i, tok in enumerate(sample) if tok.startswith("--")
                  and i + 1 < len(sample) and not sample[i + 1].startswith("--")]
        for mode in ("float", "rational"):
            for i in values:
                for value in HOSTILE_VALUES:
                    argv = [*command.split(), *sample[:i], value, *sample[i + 1:], "--mode", mode]
                    code, out, err = run_cli(capsys, *argv)
                    assert code in (0, 1, 2, 3), argv
                    assert "Traceback" not in err, argv
                    if out:
                        validator.validate(json.loads(out))
                    if value in ("nan", "inf", "-inf"):
                        assert code != 0, argv


#: decimals whose exponent would make ``Fraction`` build ``10**exponent``: refused at the
#: ``decimal_digits`` cap in rational mode, read by float() in float mode
HUGE_EXPONENTS = ("1e5000", "-1e5000", "1e-5000", "1e10000000", "9999999999999999999e009223372036854775808")

#: an exact decimal with no exponent whose numerator (8,000 digits) is too long for str()
LONG_DECIMAL = f"{'1' * 4000}.{'1' * 4000}"

#: refusals that print a number past Python's 4,300-digit conversion limit, with their exit codes
LONG_REFUSALS = [
    (["dist", "entropy", "--mode", "rational", "--p", json.dumps([LONG_DECIMAL, "0"])], 2),
    (["mixture", "check", "--mode", "rational", "--p", "uniform:2", "--lam", LONG_DECIMAL], 2),
    (["spike", "construct", "--n", "3", "--mode", "rational", "--eps", LONG_DECIMAL], 2),
    (["mac", "attack", "--b", "10", "--blocks", "9" * 4300, "--attack", "substitution",
      "--hash-key", "uniform:10", "--tag-key", "uniform:10"], 3),  # needs 10 * blocks + 20 bits
    (["budget", "individual", "--mode", "rational", "--d", "1e-9", "--exponent", LONG_DECIMAL], 2),
    (["kpa", "breach", "--n", "3", "--eps", "1/16", "--n1", "9" * 4300, "--n2", "2"], 3),  # a 2^(n1 + n2) law
    (["dist", "event-bound", "--p", "uniform:2", "--q", "uniform:2", "--event", "0," + "9" * 4000], 2),
    (["conditional", "max-deviation", "--n", "2", "--eps", "1/10", "--event", "0," + "9" * 4000,
      "--sub-event", "0"], 2),
    (["ecpa", "posterior", "--code", "011", "--observation", "011", "--crossover", "0.1", "--code-known",
      "--code-index", "9" * 4000], 2),
]

#: a decimal whose exact value has a 4,300-digit denominator
TINY = "0." + "0" * 4299 + "1"

#: accepted exact inputs whose results hold an integer past Python's 4,300-digit conversion limit
LONG_RESULTS = [
    ["spike", "construct", "--n", "2", "--mode", "rational", "--eps", TINY],
    ["budget", "markov", "--mean", "1/2", "--threshold", "9" * 4300, "--mode", "rational"],
    ["mac", "degrade", "--mode", "rational", "--eps", TINY, "--eps-h", "0", "--eps-t", "0", "--m", "1"],
]

#: run `main` on each argv of a JSON list from stdin, then print each exit code, stdout and stderr
_SWEEP = """import contextlib, io, json, sys
from keysec.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))"""


def test_a_refusal_by_a_reader_names_its_flag(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))  # one parser for every call
    for command, sample in SAMPLE_ARGV.items():
        for flag, arg in COMMANDS[command].args.items():
            if not callable(arg.reader):
                continue
            argv = [*command.split(), *sample, flag, "zz"]  # the last value is read (every one, for --code)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err.count("\n")) == (2, "", 1), (argv, err)
            assert err.startswith(f"validation error: {flag}: "), (argv, err)


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_float_flags_read_fractions_as_their_values(capsys, mode):
    for command, flag, fraction, decimal in (
        (["spike", "low-info", "--n", "4"], "--lam", "1/2", "0.5"),
        (["cvqkd", "uncertainty", "--t", "1", "--a", "0.01", "--b", "0.01"], "--s", "3/2", "1.5"),
    ):
        exact, plain = (run_json(capsys, *command, flag, value, "--mode", mode) for value in (fraction, decimal))
        assert exact["outputs"] == plain["outputs"], command


#: refusals that echo a 100,000-character flag value (120,000 digits for --threshold)
LONG_ECHOES = [
    ["budget", "markov", "--mean", "1/3", "--threshold", "9" * 120_000, "--mode", "rational"],
    ["kpa", "breach", "--n", "3", "--eps", "1/16", "--n1", "x" * 100_000, "--n2", "2"],
    ["dist", "entropy", "--p", "spike:3:" + "z" * 100_000],
    ["budget", "individual", "--d", "z" * 100_000, "--exponent", "1"],
    ["ecpa", "compare", "--code", "2" * 100_000, "--crossover", "1/10"],
    ["dist", "trace", "--rho", json.dumps([["z" * 100_000]]), "--sigma", "[[1]]"],
    ["dist", "event-bound", "--p", "uniform:2", "--q", "uniform:2", "--event", "z" * 100_000],
    ["kpa", "breach", "--n", "3", "--eps", "1/16", "--n1", "1", "--n2", "2", "--subset", ",".join(["0"] * 50_000)],
    ["mac", "epsilon", "--b", "4", "--blocks", "1", "--modulus", "0x" + "f" * 99_998],
    ["dist", "entropy", "--p", "@" + "z" * 99_999],
]


def test_huge_decimal_exponents_exit_cleanly_in_bounded_time(tmp_path):
    entries, flags = [], []  # the value as one entry of a law, a spike and a conditional row; as each flag value
    for mode in ("float", "rational"):
        for value in HUGE_EXPONENTS:
            entries += [[*argv, "--mode", mode] for argv in (
                ["dist", "entropy", "--p", json.dumps([value, "0"])],
                ["dist", "delta", "--p", f"spike:1:{value}", "--q", "uniform:1"],
                ["dist", "mi", "--prior", "uniform:1", "--conditional", json.dumps([[value, "0"], ["1", "0"]])],
            )]
            for command, sample in SAMPLE_ARGV.items():
                values = [i + 1 for i, tok in enumerate(sample) if tok.startswith("--")
                          and i + 1 < len(sample) and not sample[i + 1].startswith("--")]
                flags += [[*command.split(), *sample[:i], value, *sample[i + 1:], "--mode", mode] for i in values]
    src = str(Path(keysec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    refusals = [argv for argv, _ in LONG_REFUSALS]
    rng = random.Random(0)  # 1,024 distinct 1,000-digit denominators: an lcm of up to 10^6 digits
    law = tmp_path / "law.json"
    law.write_text(json.dumps([f"1/{rng.randrange(10**999, 10**1000)}" for _ in range(1024)]), encoding="utf-8")
    lcm = ["dist", "entropy", "--mode", "rational", "--p", f"@{law}"]
    row = tmp_path / "row.txt"  # one parity-check row of 1.6 million columns: 55 s when read quadratically
    row.write_text("1" * 1_600_000, encoding="ascii")
    wide = ["ecpa", "compare", "--code", f"@{row}", "--crossover", "1/10"]
    argvs = entries + flags + refusals + LONG_ECHOES + LONG_RESULTS + [lcm, wide]
    proc = subprocess.run([sys.executable, "-c", _SWEEP], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=120)  # a built 10**exponent takes minutes
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    code, out, err = results.pop()
    assert (code, out, err.count("\n")) == (2, "", 1) and "over the matrix_bits cap of 16 bits" in err, err[:200]
    code, out, err = results.pop()
    assert (code, out, err.count("\n")) == (3, "", 1) and "over the denominator_bits cap" in err, err[:200]
    validator = jsonschema.Draft202012Validator(_SCHEMA)
    for argv, (code, out, err) in zip(LONG_RESULTS, results[-len(LONG_RESULTS):], strict=True):
        assert (code, err) == (0, ""), (argv[:2], err[:200])
        assert max(map(len, re.findall(r"\d+", out))) > 4300
        validator.validate(json.loads(out))
    results = results[:-len(LONG_RESULTS)]
    for argv, (code, out, err) in zip(LONG_ECHOES, results[-len(LONG_ECHOES):], strict=True):
        assert (code, out, err.count("\n")) == (2, "", 1) and len(err) <= 2000, (argv[:2], len(err), err[:200])
    results = results[:-len(LONG_ECHOES)]
    for (argv, exit_code), (code, out, err) in zip(LONG_REFUSALS, results[-len(refusals):], strict=True):
        assert (code, out, err.count("\n")) == (exit_code, "", 1), (argv[:2], err[:200])
        assert "digits)" in err and len(err) < 400, err  # the long number is cut to its leading digits
    results = results[:-len(refusals)]
    for argv, (code, out, err) in zip(entries + flags, results, strict=True):
        assert code in (0, 1, 2, 3) and "Traceback" not in err and "internal error" not in err, (argv, err)
        if out:
            validator.validate(json.loads(out))
        if code == 3:  # rational mode, or a flag read exactly in both modes (budget's --exponent)
            assert "over the decimal_digits cap of 4000 digits" in err, (argv, err)
    for argv, (code, _, err) in zip(entries, results):
        if argv[-1] == "rational":
            assert code == 3, (argv, err)


def test_a_long_flag_value_is_echoed_once():
    src = str(Path(keysec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SWEEP], input=json.dumps(LONG_ECHOES),
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for argv, (code, out, err) in zip(LONG_ECHOES, json.loads(proc.stdout), strict=True):
        assert (code, out, err.count("\n")) == (2, "", 1), (argv[:2], err[:200])
        # one echo cut to 500 characters, and no second one inside another message
        assert err.count("characters)") == 1 and len(err) < 650, (argv[:2], len(err), err[-300:])
