"""Command-line front end: envelopes, exit codes, determinism."""

import json

import pytest

from keysec.cli import main


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
    code, _, err = run_cli(capsys, "dist", "entropy", "--p", "@/nonexistent/file.json")
    assert code == 2


def test_non_finite_inputs_exit_2_with_one_line(capsys):
    for argv in (
        ("dist", "entropy", "--p", '["nan","1.0"]'),
        ("dist", "delta", "--p", "[Infinity, 0]", "--q", "uniform:1"),
        ("budget", "near-uniform-bits", "--mode", "float", "--d", "log10:-inf"),
        ("budget", "near-uniform-bits", "--mode", "float", "--d", "log10:nan"),
        ("budget", "near-uniform-bits", "--mode", "rational", "--d", "log10:-inf"),
        ("budget", "near-uniform-bits", "--mode", "rational", "--d", "log10:nan"),
        ("budget", "accumulate", "--d-round", "nan", "--rate", "1", "--seconds", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("validation error:") and err.count("\n") == 1, err


def test_verify_all_reports_and_exits_zero(capsys):
    env = run_json(capsys, "verify-all", "--n-max", "6", "--seed", "42")
    assert env["outputs"]["all_passed"] is True
    results = env["outputs"]["results"]
    assert len(results) >= 10
    assert all(set(r) == {"name", "passed", "detail"} for r in results)


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
