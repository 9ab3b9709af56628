"""Seeded case tables for the three workloads, and the check of each output.

A round is one pass over a workload's fixed case mix.  Every round of a
run draws fresh inputs from (seed, round, slot), so a slot does not
repeat the input it had in the round before.  The seed fills in values
only: key laws, which bits a split keeps, code rows, events, field
polynomials, CLI variants, rationals over fixed denominators.
Everything that sets a call's cost is fixed per slot: key and field
sizes, the hash-law kind, the number of codes and of parity checks,
split and event sizes.  So every round, on every seed, does the same
kind and amount of work.

Every case is a plain dict, so two generations can be compared.
`calls.CALLS[kind](case)` makes the keysec calls that are timed;
`CHECKS[kind](case, out)` raises `Mismatch` when an output disagrees
with a closed form, an independent recomputation from `oracles`, or an
envelope frozen in `golden/cli.json`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = "bench/out/work"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


class Mismatch(AssertionError):
    """An output that differs from its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _rng(workload: str, seed: int, rnd: int, slot: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}:{slot}")


# ---------------------------------------------------------------- laws


def _float_law(rng: random.Random, n: int) -> list:
    raw = [rng.random() ** 2 for _ in range(1 << n)]
    total = math.fsum(raw)
    return [x / total for x in raw]


def _int_law(rng: random.Random, n: int, top: int = 60) -> list:
    """A rational law as [numerators, denominator], all entries positive."""
    nums = [rng.randrange(1, top + 1) for _ in range(1 << n)]
    return [nums, sum(nums)]


def _ratio(rng: random.Random, top: int, den: int) -> str:
    """A seeded k/den below top/den with k prime to den, so its denominator, and cost, is fixed."""
    return str(Fraction(rng.choice([k for k in range(1, top) if math.gcd(k, den) == 1]), den))


def _weights(rng: random.Random, count: int, den: int = 97) -> list:
    """`count` seeded positive weights summing to 1, each over the prime `den`."""
    cuts = [0, *sorted(rng.sample(range(1, den), count - 1)), den]
    return [str(Fraction(b - a, den)) for a, b in zip(cuts, cuts[1:])]


def _spike_law(rng: random.Random, n: int) -> list:
    size = 1 << n
    eps = Fraction(_ratio(rng, 40, 80))
    at = rng.randrange(size)
    probs = [Fraction(1, size) - eps / (size - 1)] * size
    probs[at] = Fraction(1, size) + eps
    den = math.lcm(*(p.denominator for p in probs))
    return [[int(p * den) for p in probs], den]


def _split(rng: random.Random, n: int, shape: int) -> list:
    """Split `shape` of an n-bit key: its sizes are fixed, the seed picks the kept bits."""
    n1 = 1 + shape % (n - 1)
    n2 = n - n1
    subset = None
    if shape % 2:
        subset = sorted(rng.sample(range(n2), 1 + shape // 2 % n2))
    return [n1, n2, subset]


def _subset_bits(split: list) -> list:
    return split[2] if split[2] is not None else list(range(split[1]))


def _distance(probs, size: int) -> Fraction:
    u = Fraction(1, size)
    return sum((abs(p - u) for p in probs), Fraction(0)) / 2


# ---------------------------------------------------------------- score-float

#: key sizes of one round's scoring operations: many small keys for
#: per-call overhead, a few large ones for per-entry work
SCORE_SIZES = [6] * 24 + [7] * 15 + [8] * 15 + [9] * 12 + [10] * 10 + [11] * 6 + [12] * 5 + [13] * 3 + [14, 14, 15, 16]
#: (key bits, outcomes) of one round's probe models
PROBE_SIZES = [(6, 4), (6, 8), (7, 4), (7, 8), (8, 8), (8, 12), (9, 12), (9, 16), (10, 12), (10, 16)]


def score_float_cases(seed: int, rnd: int) -> list:
    cases = []
    for slot, n in enumerate(SCORE_SIZES):
        rng = _rng("score-float", seed, rnd, slot)
        law = _float_law(rng, n)
        arr = np.array(law)
        size = len(law)
        lam = max(0.0, 1 - size * arr.min(), (size * arr.max() - 1) / (size - 1))
        cases.append({
            "kind": "score",
            "n": n,
            "law": json.dumps(law),
            "splits": [_split(rng, n, 3 * slot + k) for k in range(3)],
            "lam": min(1.0, lam + 1e-9),
        })
    for slot, (n, outcomes) in enumerate(PROBE_SIZES, start=len(SCORE_SIZES)):
        rng = _rng("score-float", seed, rnd, slot)
        rows = []
        for _ in range(1 << n):
            raw = [rng.random() for _ in range(outcomes)]
            total = math.fsum(raw)
            rows.append([x / total for x in raw])
        cases.append({"kind": "probe", "n": n, "prior": _float_law(rng, n), "conditional": rows})
    return cases


def _check_score(case, out):
    law = json.loads(case["law"])
    arr = np.array(law)
    n, size = case["n"], len(law)
    expect(out["dist"].probs == tuple(law), "from_json changed an entry")
    delta = 0.5 * math.fsum(abs(x - 1.0 / size) for x in law)
    expect(oracles.close(out["delta"], delta, 1e-12), "distance to uniform")
    stats = out["stats"]
    expect(stats.p1 == arr.max(), "p1 is not the largest entry")
    expect(oracles.close(stats.min_entropy_bits, -math.log2(arr.max()), 1e-12), "min-entropy")
    nz = arr[arr > 0]
    expect(oracles.close(stats.shannon_bits, float(-(nz * np.log2(nz)).sum())), "Shannon entropy")
    for split, res in zip(case["splits"], out["avg"]):
        s = len(_subset_bits(split))
        avg = float(oracles.split_best_mass(arr, split[0], _subset_bits(split)))
        expect(oracles.close(res.avg_p1, avg, 1e-12), f"split average {split}")
        expect(oracles.close(res.bound, 2.0**-s + delta, 1e-12), f"split bound {split}")
        expect(res.holds and avg <= 2.0**-s + delta + 1e-9, f"avg <= 2^-s + delta fails for {split}")
    guess = int(np.argmax(arr))
    flips = oracles.popcount(np.arange(size) ^ guess)
    expect(oracles.close(out["agreement"], float(np.dot(arr, (n - flips) / n)), 1e-12), "bit agreement")
    mix, lam = out["mixture"], case["lam"]
    expect(mix is not None, "a decomposing weight was refused")
    expect(oracles.close(mix.uniform_weight, 1 - lam, 1e-12), "uniform weight")
    rebuilt = (1 - lam) / size + lam * np.array(mix.residual.probs)
    expect(np.allclose(rebuilt, arr, rtol=0, atol=1e-12), "mixture does not recompose P")


def _check_probe(case, out):
    prior = np.array(case["prior"])
    joint = prior[:, None] * np.array(case["conditional"])
    marginal = joint.sum(axis=0)
    ratio = np.divide(joint, prior[:, None] * marginal[None, :], out=np.ones_like(joint), where=joint > 0)
    mi = float((joint * np.log2(ratio)).sum())
    d = 0.5 * float(np.abs(joint - marginal[None, :] / len(prior)).sum())
    expect(oracles.close(out[0], mi), "mutual information")
    expect(oracles.close(out[1], d), "d criterion")


# ---------------------------------------------------------------- exact-attack

#: hash-key law kinds of the ideal-pad MAC cases, taken in turn by slot
HASH_LAWS = ("uniform", "spike", "witness")


def _field(seed: int, rnd: int, slot: int, b: int) -> int:
    """The slot's field polynomial, taken in turn over the rounds so that consecutive rounds differ."""
    polys = oracles.field_polynomials(b)
    return polys[(seed + rnd + slot) % len(polys)]


def _hash_law(rng: random.Random, b: int, blocks: int, mod: int, kind: str) -> list:
    if kind == "uniform":
        return [[1] * (1 << b), 1 << b]
    if kind == "spike":
        return _spike_law(rng, b)
    _, a1, a2, _ = oracles.collision(b, blocks, mod)
    nums = [0] * (1 << b)
    nums[a1] = nums[a2] = 1
    return [nums, 2]


def _mac_case(rng, mod, b, blocks, attack, masked, uses=1, avg=False, law="uniform") -> dict:
    return {
        "kind": "mac",
        "b": b,
        "blocks": blocks,
        "modulus": mod,
        "attack": attack,
        "hash": _int_law(rng, b) if masked else _hash_law(rng, b, blocks, mod, law),
        "tag": _int_law(rng, b) if masked else None,
        "uses": uses,
        "avg": avg,
    }


def _codes(rng: random.Random, n: int, count: int, shape: int) -> list:
    """Random parity checks; each row owns one pivot bit, so rows are independent.

    Code j has 1 + (shape + j) mod n/2 checks; the seed picks the rows.
    """
    codes = []
    for j in range(count):
        checks = 1 + (shape + j) % (n // 2)
        pivots = rng.sample(range(n), checks)
        free = [j for j in range(n) if j not in pivots]
        codes.append([
            (1 << p) | sum(1 << j for j in free if rng.random() < 0.5) for p in pivots
        ])
    return codes


def _ensemble_case(rng, kind: str, n: int, count: int, shape: int) -> dict:
    case = {
        "kind": kind,
        "n": n,
        "codes": _codes(rng, n, count, shape),
        "weights": _weights(rng, count),
        "q": _ratio(rng, 25, 100),
    }
    if kind == "posterior":
        case["observation"] = "".join(rng.choice("01") for _ in range(n))
        case["known"] = rng.randrange(count) if shape % 2 else None
    return case


def _event_case(rng, n: int) -> dict:
    size = 1 << n
    event = sorted(rng.sample(range(size), size // 16))
    sub = sorted(rng.sample(event, size // 64))
    return {
        "kind": "max_deviation",
        "n": n,
        "eps": _ratio(rng, 200, 10000),
        "event": event,
        "sub": sub,
    }


def _spike_case(rng, n: int) -> dict:
    return {"kind": "spike", "n": n, "eps": _ratio(rng, 500, 1000),
            "at": rng.randrange(1 << n)}


def _avg_guess_case(rng, n: int, shape: int) -> dict:
    return {"kind": "avg_guess", "n": n, "law": _int_law(rng, n), "split": _split(rng, n, shape)}


def _breach_case(rng, n: int, shape: int) -> dict:
    return {"kind": "breach", "n": n, "eps": _ratio(rng, 100, 1000),
            "split": _split(rng, n, shape)}


def _mixture_case(rng, n: int) -> dict:
    law = _int_law(rng, n)
    lam = oracles.mixture_weight(np.array(law[0]), law[1])
    return {"kind": "mixture", "n": n, "law": law, "lam": str(lam)}


def exact_attack_cases(seed: int, rnd: int) -> list:
    """One round: MAC about half the time, ECPA a quarter, exact dist/kpa/extremal the rest.

    The twenty-two n = 10 split averages, with the n = 12 spikes and
    deviations beside them, sit at the median latency, and the b = 5
    ideal-pad substitutions at the tail percentile.  So both percentiles
    land among many operations of like latency, whose noise averages out.
    """
    cases = []

    def add(make, *params):
        cases.append(make(_rng("exact-attack", seed, rnd, len(cases)), *params))

    def add_mac(b, *params):
        add(_mac_case, _field(seed, rnd, len(cases), b), b, *params)

    for i, (b, blocks) in enumerate([(3, 2)] * 3 + [(3, 3), (3, 3), (4, 2), (4, 2), (4, 3)] + [(5, 2)] * 6):
        add_mac(b, blocks, "substitution", False, 1, False, HASH_LAWS[i % 3])
    for i, (b, blocks) in enumerate(((3, 3), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3))):
        add_mac(b, blocks, "impersonation", False, 1, False, HASH_LAWS[i % 3])
    for b, blocks in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)):
        cases.append({"kind": "witness", "b": b, "blocks": blocks, "modulus": _field(seed, rnd, len(cases), b)})
    for b, blocks, uses, avg in ((2, 2, 1, False), (2, 2, 1, True), (2, 2, 2, False), (2, 2, 2, True),
                                 (2, 3, 2, False), (2, 3, 2, True), (3, 2, 2, True), (3, 2, 1, False)):
        add_mac(b, blocks, "substitution", True, uses, avg)
    for b, blocks in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        add_mac(b, blocks, "impersonation", True)
    for i, (n, count) in enumerate(((12, 3), (12, 3), (12, 2), (12, 2), (11, 3), (11, 3), (11, 2), (10, 2),
                                    (8, 1), (8, 1), (8, 3))):
        add(_ensemble_case, "compare", n, count, i)
    for i, (n, count) in enumerate(((12, 2), (11, 3), (10, 1), (10, 2), (9, 1), (9, 2), (9, 3), (8, 3), (8, 3),
                                    (8, 1), (8, 1))):
        add(_ensemble_case, "posterior", n, count, i)
    for n in (12, 12, 12, 12, 12, 12, 11, 11, 10, 10):
        add(_spike_case, n)
    for i, n in enumerate((12, 12, 11, 11) + (10,) * 22):
        add(_avg_guess_case, n, i)
    for i, n in enumerate((12, 12, 12, 10, 10)):
        add(_breach_case, n, i)
    for n in (12, 12, 12, 12, 11, 11, 10, 10, 10):
        add(_event_case, n)
    for n in (12, 12, 10, 10, 10):
        add(_mixture_case, n)
    return cases


def _check_mac(case, out):
    b, blocks, attack = case["b"], case["blocks"], case["attack"]
    if case["tag"] is None:
        nums, den = case["hash"]
        if attack == "impersonation":
            expect(out == Fraction(1, 1 << b), "ideal-pad impersonation is not 2^-b")
        elif den == 1 << b and set(nums) == {1}:
            expect(out == Fraction(blocks, 1 << b), "uniform substitution is not blocks/2^b")
        elif den == 2:
            expect(out == 1, "witness law substitution is not certain")
    ref = oracles.mac_success(b, blocks, case["modulus"], case["hash"], case["tag"], attack, case["uses"], case["avg"])
    expect(out == ref, f"forgery success {out} != {ref}")


def _check_witness(case, out):
    d, a1, a2, hv = oracles.collision(case["b"], case["blocks"], case["modulus"])
    size = 1 << case["b"]
    probs = [Fraction(0)] * size
    probs[a1] = probs[a2] = Fraction(1, 2)
    expect((out.message_delta, out.tag_delta) == (d, hv), "first colliding difference")
    expect(out.distribution.probs == tuple(probs), "witness law")
    expect(out.distance == Fraction(size - 2, size), "witness distance")


def _check_compare(case, out):
    q, n = float(Fraction(case["q"])), case["n"]
    weights = [float(Fraction(w)) for w in case["weights"]]
    no_code, known, mixture = oracles.leakage(n, case["codes"], weights, q)
    expect(oracles.close(out.p1_no_code, (1 - q) ** n, 1e-12), "no_code is not (1-q)^n")
    expect(out.p1_code_known_avg + 1e-12 >= out.p1_mixture >= out.p1_no_code - 1e-12,
           "known >= mixture >= no_code fails")
    expect(oracles.close(out.p1_code_known_avg, known), "known-code success")
    expect(oracles.close(out.p1_mixture, mixture), "mixture success")


def _check_posterior(case, out):
    obs = sum(1 << j for j, ch in enumerate(case["observation"]) if ch == "1")
    ref = oracles.posterior(case["n"], case["codes"], [Fraction(w) for w in case["weights"]],
                            Fraction(case["q"]), obs, case["known"])
    expect(list(out.probs) == ref, "posterior")


def _check_spike(case, out):
    size, eps = 1 << case["n"], Fraction(case["eps"])
    expect(out.p1 == Fraction(1, size) + eps, "spike p1 is not 1/N + eps")
    expect(out.distance == eps, "spike distance")
    probs = [Fraction(1, size) - eps / (size - 1)] * size
    probs[case["at"]] = out.p1
    expect(out.distribution.probs == tuple(probs), "spike entries")


def _check_avg_guess(case, out):
    (nums, den), split = case["law"], case["split"]
    arr = np.array(nums, dtype=np.int64)
    avg = Fraction(int(oracles.split_best_mass(arr, split[0], _subset_bits(split))), den)
    bound = Fraction(1, 1 << len(_subset_bits(split))) + oracles.distance_to_uniform(arr, den)
    expect(out.avg_p1 == avg, f"split average {out.avg_p1} != {avg}")
    expect(out.bound == bound, "split bound")
    expect(out.holds and avg <= bound, "avg <= 2^-s + delta fails")


def _check_breach(case, out):
    n1, n2, _ = case["split"]
    size, s, eps = 1 << case["n"], len(_subset_bits(case["split"])), Fraction(case["eps"])
    moved = min(eps, Fraction((1 << n2) - (1 << (n2 - s)), size))
    expect(out.worst_conditional_p == Fraction(1, 1 << s) + moved * (1 << n1), "breach guess")
    expect(sum(out.distribution.probs) == 1, "breach law does not sum to 1")
    expect(_distance(out.distribution.probs, size) == moved, "breach law distance")


def _check_max_deviation(case, out):
    size, eps = 1 << case["n"], Fraction(case["eps"])
    a, b = len(case["event"]), len(case["sub"])
    up = min(eps, Fraction(a - b, size))
    down = min(eps, Fraction(b, size)) if a > b else Fraction(0)
    moved = max(up, down)
    expect(out.deviation == moved / Fraction(a, size), "deviation closed form")
    probs = out.distribution.probs
    p_a = sum((probs[k] for k in case["event"]), Fraction(0))
    p_b = sum((probs[k] for k in case["sub"]), Fraction(0))
    expect(abs(p_b / p_a - Fraction(b, a)) == out.deviation, "conditional shift")
    expect(_distance(probs, size) == moved <= eps, "deviation law distance")


def _check_mixture(case, out):
    lam, size = Fraction(case["lam"]), 1 << case["n"]
    expect(out is not None, "a decomposing weight was refused")
    expect(out.uniform_weight == 1 - lam, "uniform weight")
    rebuilt = [(1 - lam) / size + lam * r for r in out.residual.probs]
    nums, den = case["law"]
    expect(rebuilt == [Fraction(a, den) for a in nums], "mixture does not recompose P")


# ---------------------------------------------------------------- cli-batch

#: files the @path arguments name; fixed, so envelopes echo the same paths
CLI_FILES = {
    "law2.json": json.dumps(["1/2", "1/4", "1/8", "1/8"]),
    "law3.json": json.dumps(["1/16", "3/16", "1/8", "1/8", "1/16", "1/4", "1/16", "1/8"]),
    "law4.json": json.dumps([f"{k + 1}/136" for k in range(16)]),
    "cond.json": json.dumps([["1/2", "1/4", "1/4"], ["1", "0", "0"], ["1/3", "1/3", "1/3"], ["0", "1/2", "1/2"]]),
    "code6.txt": "110100\n011010\n",
    "rho.json": json.dumps([[0.6, [0.1, 0.2]], [[0.1, -0.2], 0.4]]),
}

_L2 = '["1/4","1/4","1/8","3/8"]'
_Q2 = '["1/2","1/6","1/6","1/6"]'
_COND = '[["1/2","1/2"],["1","0"],["1/3","2/3"],["1/4","3/4"]]'


def _w(name: str) -> str:
    return f"@{WORK_DIR}/{name}"


_PROBES = [
    ["--prior", "uniform:2", "--conditional", _w("cond.json")],
    ["--prior", _L2, "--conditional", _COND],
    ["--prior", _w("law2.json"), "--conditional", _w("cond.json")],
]

#: (command, variants) run in both modes; every variant must exit 0
CLI_BOTH = [
    ("dist delta", [["--p", "uniform:3", "--q", "spike:3:1/10"],
                    ["--p", _w("law3.json"), "--q", "uniform:3"],
                    ["--p", _L2, "--q", _Q2]]),
    ("dist entropy", [["--p", "spike:6:1/10"], ["--p", _w("law4.json")], ["--p", _L2]]),
    ("dist mi", _PROBES),
    ("dist d-criterion", _PROBES),
    ("dist binary-entropy", [["--q", "1/10"], ["--q", "0.25"], ["--q", "3/7"]]),
    ("dist event-bound", [["--p", _w("law3.json"), "--q", "uniform:3", "--event", "0,1,5"],
                          ["--p", "spike:3:1/5", "--q", "uniform:3", "--event", "0"],
                          ["--p", _L2, "--q", _Q2, "--event", "1,2"]]),
    ("mixture check", [["--p", "spike:4:1/10", "--lam", "1/5"],
                       ["--p", _w("law4.json"), "--lam", "1/2"],
                       ["--p", "uniform:4", "--lam", "1/10"]]),
    ("spike construct", [["--n", "6", "--eps", "0.125"], ["--n", "6", "--eps", "0.3", "--at", "7"],
                         ["--n", "6", "--eps", "0.001", "--at", "63"]]),
    ("conditional max-deviation", [["--n", "6", "--eps", "1/20", "--event", "0,1,2,3", "--sub-event", "0"],
                                   ["--n", "6", "--eps", "1/100", "--event", "1,2,3", "--sub-event", "1,2"],
                                   ["--n", "6", "--eps", "1/3", "--event", "0,5,9", "--sub-event", "5"]]),
    ("kpa avg-guess", [["--p", _w("law4.json"), "--n1", "2", "--n2", "2"],
                       ["--p", "spike:4:1/10", "--n1", "2", "--n2", "2", "--subset", "0"],
                       ["--p", "uniform:4", "--n1", "1", "--n2", "3", "--subset", "1"]]),
    ("kpa breach", [["--n", "6", "--eps", "1/20", "--n1", "2", "--n2", "4"],
                    ["--n", "6", "--eps", "1/2", "--n1", "2", "--n2", "4", "--subset", "0"],
                    ["--n", "6", "--eps", "1/64", "--n1", "3", "--n2", "3"]]),
    ("kpa bit-agreement", [["--p", _w("law3.json")], ["--p", "spike:3:1/7"], ["--p", "uniform:3"]]),
    ("mac attack", [["--b", "3", "--blocks", "2", "--attack", "substitution", "--hash-key", "spike:3:1/8"],
                    ["--b", "2", "--blocks", "2", "--attack", "substitution", "--hash-key", _w("law2.json"),
                     "--tag-key", "uniform:2", "--uses", "2", "--tag-averaged"],
                    ["--b", "3", "--blocks", "2", "--attack", "impersonation", "--hash-key", _w("law3.json"),
                     "--tag-key", "spike:3:1/10"]]),
    ("mac degrade", [["--eps", "1/8", "--eps-h", "1/100", "--eps-t", "1/50", "--m", "3"],
                     ["--eps", "1/4", "--eps-h", "1/2", "--eps-t", "1/10", "--m", "10"],
                     ["--eps", "3/32", "--eps-h", "0", "--eps-t", "1/1000", "--m", "1"]]),
    ("ecpa leak", [["--f", "1.2", "--n", "1000", "--q", "3/100"],
                   ["--f", "1.05", "--n", "4096", "--q", "0.11"],
                   ["--f", "2", "--n", "10", "--q", "1/2"]]),
    ("ecpa posterior", [["--code", "0110;1011", "--observation", "0111", "--crossover", "1/10"],
                        ["--code", _w("code6.txt"), "--code", "111000;000111", "--observation", "101010",
                         "--crossover", "1/20", "--weights", "1/3,2/3"],
                        ["--code", _w("code6.txt"), "--code", "100001", "--observation", "001100",
                         "--crossover", "1/8", "--code-known", "--code-index", "1"]]),
    ("ecpa compare", [["--code", "0110;1011", "--crossover", "1/10"],
                      ["--code", _w("code6.txt"), "--code", "111000;000111", "--crossover", "1/20"],
                      ["--code", "10100;01011", "--code", "11111", "--code", "00110",
                       "--crossover", "1/5", "--weights", "1/2,1/4,1/4"]]),
    ("budget markov", [["--mean", "1/1000", "--threshold", "1/10"], ["--mean", "3", "--threshold", "2"],
                       ["--mean", "0.002", "--threshold", "0.5"]]),
    ("budget individual", [["--d", "1e-20", "--exponent", "1/2"], ["--d", "log10:-30", "--exponent", "1/3"],
                           ["--d", "1e-9", "--exponent", "1"]]),
    ("budget near-uniform-bits", [["--d", "1e-20"], ["--d", "log10:-40", "--exponent", "1/2"],
                                  ["--d", "1e-6", "--exponent", "1/3"]]),
    ("budget gap", [["--current", "1e-9", "--exponent", "1/2"],
                    ["--current", "log10:-12", "--target", "log10:-20", "--exponent", "1/3"],
                    ["--current", "1e-30", "--exponent", "1"]]),
]

_CV = ["--s", "1.5", "--t", "0.9", "--a", "0.05", "--b", "0.1"]

#: commands whose output does not depend on the numeric mode
CLI_ONE = [
    ("dist trace", [["--rho", "diag:uniform:2", "--sigma", "diag:spike:2:1/4"],
                    ["--rho", _w("rho.json"), "--sigma", "diag:uniform:1"],
                    ["--rho", "[[1,0],[0,0]]", "--sigma", "[[0.5,0.5],[0.5,0.5]]"]]),
    ("spike low-info", [["--n", "6", "--lam", "0.5"], ["--n", "5", "--lam", "0.75"], ["--n", "4", "--lam", "1"]]),
    ("mac epsilon", [["--b", "4", "--blocks", "2"], ["--b", "8", "--blocks", "3"],
                     ["--b", "3", "--blocks", "1", "--modulus", "0xB"]]),
    ("mac forgery-witness", [["--b", "4", "--blocks", "2"], ["--b", "4", "--blocks", "3"],
                             ["--b", "4", "--blocks", "2", "--modulus", "0x19"]]),
    ("budget accumulate", [["--d-round", "1e-14", "--rate", "100", "--seconds", "3600"],
                           ["--d-round", "log10:-20", "--rate", "1e6", "--seconds", "86400"],
                           ["--d-round", "1e-9", "--rate", "10", "--seconds", "60"]]),
    ("budget required-d", [["--n", "128"], ["--n", "256"], ["--n", "64"]]),
    ("cvqkd uncertainty", [_CV, ["--s", "2", "--t", "0.5", "--a", "0.01", "--b", "0.02"],
                           ["--s", "1", "--t", "1", "--a", "0.3", "--b", "0.3"]]),
    ("cvqkd verdict", [_CV, ["--s", "1.0", "--t", "0.4", "--a", "0.01", "--b", "0.01"],
                       ["--s", "1.5", "--t", "1.0", "--a", "0.3", "--b", "0.3"]]),
    ("cvqkd tradeoff", [_CV + ["--shift", "0.4", "--thresholds", "1,1.2,1.4,1.6"],
                        _CV + ["--shift", "0.1", "--thresholds", "0.5,2"],
                        ["--s", "2", "--t", "0.9", "--a", "0.05", "--b", "0.05", "--shift", "0.4",
                         "--thresholds", "1.5,1.8,2.1"]]),
    ("verify-all", [["--n-max", "4", "--seed", "1"], ["--n-max", "4", "--seed", "2"],
                    ["--n-max", "4", "--seed", "3"]]),
]

#: the one render-heavy call of a round: a 2^10-entry rational envelope
CLI_HEAVY = ("spike construct", "rational", [["--n", "10", "--eps", "1/8"],
                                             ["--n", "10", "--eps", "3/10", "--at", "7"],
                                             ["--n", "10", "--eps", "1/1000", "--at", "1023"]])


def cli_table() -> list:
    """Every (command, mode, variants) row of one cli-batch round."""
    rows = []
    for command, variants in CLI_BOTH:
        rows += [(command, "rational", variants), (command, "float", variants)]
    rows += [(command, None, variants) for command, variants in CLI_ONE]
    return rows + [CLI_HEAVY]


def cli_argv(command: str, mode, variant: list) -> list:
    return command.split() + variant + (["--mode", mode] if mode else [])


def cli_batch_cases(seed: int, rnd: int) -> list:
    """One call per row of `cli_table`; the seed picks each row's variant."""
    cases = []
    for slot, (command, mode, variants) in enumerate(cli_table()):
        variant = _rng("cli-batch", seed, rnd, slot).choice(variants)
        cases.append({"kind": "cli", "mode": mode, "argv": cli_argv(command, mode, variant)})
    return cases


def write_cli_files() -> None:
    work = ROOT / WORK_DIR
    work.mkdir(parents=True, exist_ok=True)
    for name, text in CLI_FILES.items():
        (work / name).write_text(text, encoding="utf-8")


@functools.cache
def _cli_refs() -> tuple:
    """The envelope schema's validator and the frozen envelopes, loaded on first use."""
    import jsonschema

    schema = json.loads((ROOT / "docs" / "report_envelope.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema), json.loads(GOLDEN.read_text(encoding="utf-8"))


def envelope_record(stdout: str, mode) -> dict:
    """What golden/cli.json keeps of one envelope."""
    if mode == "rational":
        return {"sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    return {"envelope": json.loads(stdout)}


def _same_values(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return oracles.close(got, want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_same_values(g, w) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same_values(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


def _check_cli(case, out):
    code, stdout = out
    expect(code == 0, f"exit code {code}")
    envelope = json.loads(stdout)
    validator, golden = _cli_refs()
    errors = [e.message for e in validator.iter_errors(envelope)]
    expect(not errors, f"envelope fails the schema: {errors[:1]}")
    want = golden[" ".join(case["argv"])]
    got = envelope_record(stdout, case["mode"])
    if "sha256" in want:
        expect(got == want, "rational envelope is not byte-identical to the frozen one")
    else:
        expect(_same_values(got["envelope"], want["envelope"]), "float envelope differs from the frozen one")


# ---------------------------------------------------------------- dispatch

def label(case) -> str:
    """A case's kind and size, or a CLI call's argv: what failures and the tail listing name."""
    if case["kind"] == "cli":
        return " ".join(case["argv"])
    size = [f"{k}={case[k]}" for k in ("n", "b", "blocks", "attack", "uses") if k in case]
    return " ".join([case["kind"], *size] + (["masked"] if case.get("tag") else []))


CHECKS = {
    "score": _check_score,
    "probe": _check_probe,
    "mac": _check_mac,
    "witness": _check_witness,
    "compare": _check_compare,
    "posterior": _check_posterior,
    "spike": _check_spike,
    "avg_guess": _check_avg_guess,
    "breach": _check_breach,
    "max_deviation": _check_max_deviation,
    "mixture": _check_mixture,
    "cli": _check_cli,
}

CASES = {
    "score-float": score_float_cases,
    "exact-attack": exact_attack_cases,
    "cli-batch": cli_batch_cases,
}
