"""The timed keysec calls of every case kind.

This module imports keysec and the standard library only: no case
generation and no reference checks, so the worker process that runs
these calls (`worker.py`) holds just what the calls themselves need.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import keysec as ks

import worker

ROOT = Path(__file__).resolve().parent.parent

CLI_ENTRY = "from keysec.cli import console_main; console_main()"


class Dist(NamedTuple):
    """What a worker sends back of a `KeyDistribution`, which does not pickle."""

    n: int
    probs: tuple


def _law_json(law: list) -> str:
    nums, den = law
    return json.dumps([f"{a}/{den}" for a in nums])


def _rational_dist(law: list) -> "ks.KeyDistribution":
    return ks.KeyDistribution.from_json(_law_json(law), mode="rational")


def _key_split(split: list) -> "ks.KeySplit":
    return ks.KeySplit(split[0], split[1], split[2])


def _ensemble(case) -> "ks.CodeEnsemble":
    codes = [ks.ParityCheckMatrix(case["n"], rows) for rows in case["codes"]]
    return ks.CodeEnsemble(codes, [Fraction(w) for w in case["weights"]])


def score(case):
    p = ks.KeyDistribution.from_json(case["law"])
    return {
        "dist": p,
        "delta": ks.statistical_distance(p, ks.KeyDistribution.uniform(case["n"])),
        "stats": ks.entropy_stats(p),
        "avg": [ks.average_conditional_guess(p, _key_split(s)) for s in case["splits"]],
        "agreement": ks.eve_bit_agreement(p),
        "mixture": ks.check_mixture_decomposition(p, case["lam"]),
    }


def probe(case):
    model = ks.ClassicalProbeModel(ks.KeyDistribution(case["n"], case["prior"]), case["conditional"])
    return ks.mutual_information(model), ks.d_criterion(model)


def mac(case):
    spec = ks.HashFamilySpec(case["b"], case["blocks"], case["modulus"])
    tag = _rational_dist(case["tag"]) if case["tag"] else None
    keys = ks.MacKeyModel(_rational_dist(case["hash"]), tag, case["uses"])
    return ks.attack_success(spec, keys, case["attack"], tag_averaged=case["avg"])


def witness(case):
    return ks.forgeable_key_distribution(ks.HashFamilySpec(case["b"], case["blocks"], case["modulus"]))


def compare(case):
    return ks.leakage_comparison(_ensemble(case), ks.EveChannel(Fraction(case["q"])))


def posterior(case):
    known = case["known"]
    return ks.mixture_posterior(
        _ensemble(case), case["observation"], ks.EveChannel(Fraction(case["q"])),
        syndromes_hidden=known is None, code_index=known or 0,
    )


def spike(case):
    return ks.construct_spike(case["n"], Fraction(case["eps"]), at=case["at"])


def avg_guess(case):
    return ks.average_conditional_guess(_rational_dist(case["law"]), _key_split(case["split"]))


def breach(case):
    return ks.conditional_breach_witness(case["n"], Fraction(case["eps"]), _key_split(case["split"]))


def max_deviation(case):
    return ks.max_conditional_deviation(
        case["n"], Fraction(case["eps"]), ks.EventSpec(case["event"]), ks.EventSpec(case["sub"])
    )


def mixture(case):
    return ks.check_mixture_decomposition(_rational_dist(case["law"]), Fraction(case["lam"]))


def cli_subprocess(argv: list) -> tuple:
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=ROOT, env=worker.child_env(),
                          capture_output=True)
    return proc.returncode, proc.stdout.decode("utf-8")


def cli_in_process(argv: list) -> tuple:
    import keysec.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = keysec.cli.main(argv)
    return code, buf.getvalue()


def cli(case):
    run = cli_in_process if case.get("in_process") else cli_subprocess
    return run(case["argv"])


CALLS = {f.__name__: f for f in (score, probe, mac, witness, compare, posterior, spike, avg_guess, breach,
                                 max_deviation, mixture, cli)}


def timed(case) -> tuple:
    """(latency in CPU seconds, output, error text or None) of one case's call.

    The latency is the CPU time of the call, counting every thread and any
    interpreter it started (`worker.cpu_s`).
    """
    t0 = worker.cpu_s()
    try:
        out = CALLS[case["kind"]](case)
    except Exception as exc:
        return worker.cpu_s() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return worker.cpu_s() - t0, out, None
