"""Batch command-line front end: every operation as a subcommand.

Each invocation runs one operation and prints a single JSON report
envelope on stdout::

    {"command": ..., "inputs": ..., "outputs": ...,
     "provenance": ..., "numeric_mode": ...}

``inputs`` echoes the arguments verbatim, ``provenance`` states the
formula or model the numbers came from, and outputs are rendered
exactly ("num/den" strings) in rational mode.  Exit codes: 0 success,
1 usage (or a failing verify-all), 2 validation error, 3 resource cap.

Distribution arguments accept ``uniform:N``, ``spike:N:EPS``, an inline
JSON array, or ``@path`` to a JSON file.  The numeric mode comes from
``--mode``, else the KEYSEC_NUMERIC_MODE environment variable, else
float.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import budget as _budget
from . import cvqkd as _cvqkd
from . import ecpa as _ecpa
from . import mac as _mac
from .dist import (
    ClassicalProbeModel,
    HermitianState,
    KeyDistribution,
    binary_entropy,
    d_criterion,
    entropy_stats,
    mutual_information,
    statistical_distance,
    trace_distance,
)
from .extremal import (
    EventSpec,
    check_event_bound,
    check_mixture_decomposition,
    construct_low_info_high_guess,
    construct_spike,
    max_conditional_deviation,
)
from .kpa import KeySplit, average_conditional_guess, conditional_breach_witness, eve_bit_agreement
from .numerics import (
    InfeasibleError,
    ResourceLimitError,
    ValidationError,
    format_number,
    parse_number,
    resolve_mode,
)
from .verify import run_invariant_suite

__all__ = ["main", "console_main", "build_parser"]

PROVENANCE = {
    "dist delta": "delta(P,Q) = (1/2) sum_i |P_i - Q_i| (total-variation distance)",
    "dist entropy": "p1 = max_i P_i; min-entropy = -log2 p1; Shannon entropy with 0 log 0 = 0",
    "dist mi": "I(K;Y) = H(K) - H(K|Y) over the probe model's joint law",
    "dist trace": "T(rho,sigma) = (1/2) sum |eigenvalues(rho - sigma)|",
    "dist d-criterion": "d = (1/2) sum_{k,y} |p(k) p(y|k) - pbar(y)/N| (joint vs uniform-key product)",
    "dist binary-entropy": "h(q) = -q log2 q - (1-q) log2(1-q)",
    "dist event-bound": "|P(A) - Q(A)| <= delta(P,Q) for every event A",
    "spike construct": "peak 1/N + eps, others 1/N - eps/(N-1); distance from uniform is exactly eps",
    "spike low-info": "p1 = 2^(-lam n), remainder uniform; n - H(P) <= n 2^(-lam n)",
    "mixture check": "P = (1-lam) U + lam P' exists iff (1-lam)/N <= P_i <= lam + (1-lam)/N for all i",
    "conditional max-deviation": "max |P(B|A) - U(B|A)| under delta(P,U) <= eps; optimum min(eps, movable)/U(A)",
    "kpa avg-guess": "sum_k1 max_v P(K2*=v, K1=k1) <= 2^(-|K2*|) + delta(P,U)",
    "kpa breach": "mass moved inside one K1 slice: conditional guess 2^(-|K2*|) + moved 2^(n1)",
    "kpa bit-agreement": "expected fraction of key bits matching the most probable key value",
    "mac epsilon": "polynomial evaluation over GF(2^b): eps = message_blocks / 2^b",
    "mac attack": "exact optimal forgery success against the posterior hash-key distribution",
    "mac degrade": "imperfect keys: eps + eps_h (hash key) and eps + m eps_t (m masked tags), clipped at 1",
    "mac forgery-witness": "two-point hash-key law making one substitution forgery succeed with certainty",
    "ecpa leak": "reconciliation disclosure leak = f n h(Q)",
    "ecpa posterior": "Bayes posterior over data words given a noisy view of a hidden-code codeword",
    "ecpa compare": "exact MAP success: code known (averaged), hidden-code mixture, no code structure",
    "budget markov": "Pr[Z >= threshold] <= min(1, mean/threshold) for non-negative Z",
    "budget individual": "average-to-individual conversion: log10 d' = exponent * log10 d",
    "budget accumulate": "union bound over rounds: log10 total = log10 d_round + log10(rate seconds), capped at 0",
    "budget near-uniform-bits": "largest n with 2^-n >= d^exponent: floor(-log10_d exponent log2 10)",
    "budget required-d": "near-uniform n-bit key needs d ~ 2^-n: log10 d = -n log10 2",
    "budget gap": "orders short of target: current - target/exponent (positive = insufficient)",
    "cvqkd uncertainty": "relative = a + b - ab = 1 - (1-a)(1-b); absolute = relative S T",
    "cvqkd verdict": "loss limit if S T < threshold; masked if (a+b-ab) S T > threshold",
    "cvqkd tradeoff": "declared model: Gaussian level around S T, attack shifts mean up; alarm above threshold",
    "verify-all": "cross-module invariant suite",
}


# ---------------------------------------------------------------- parsing


def _int(text, what: str) -> int:
    try:
        return int(str(text), 0)
    except ValueError as exc:
        raise ValidationError(f"{what} must be an integer, got {text!r}") from exc


def _float(text, what: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a number, got {text!r}") from exc


def _distribution(text: str, mode: str) -> KeyDistribution:
    text = text.strip()
    if text.startswith("uniform:"):
        return KeyDistribution.uniform(_int(text[8:], "uniform length"), mode=mode)
    if text.startswith("spike:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"spike spec needs spike:n:eps, got {text!r}")
        return construct_spike(_int(parts[1], "spike length"), parse_number(parts[2], mode)).distribution
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return KeyDistribution.from_json(fh.read(), mode=mode)
    return KeyDistribution.from_json(text, mode=mode)


def _maybe_file(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _matrix(text: str, mode: str) -> list:
    try:
        raw = json.loads(_maybe_file(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"matrix is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ValidationError("matrix must be a JSON array of rows")
    return [[parse_number(str(v), mode) for v in row] for row in raw]


def _complex_entry(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, str):
        try:
            return complex(v.replace(" ", ""))
        except ValueError as exc:
            raise ValidationError(f"cannot read complex entry {v!r}") from exc
    raise ValidationError(f"cannot read complex entry {v!r}")


def _state(text: str, mode: str) -> HermitianState:
    text = text.strip()
    if text.startswith("diag:"):
        return HermitianState.from_distribution(_distribution(text[5:], mode))
    try:
        raw = json.loads(_maybe_file(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValidationError("state must be a JSON matrix or diag:<distribution>")
    return HermitianState(np.array([[_complex_entry(v) for v in row] for row in raw]))


def _event(text: str) -> EventSpec:
    return EventSpec.from_text(text)


def _subset(text) -> tuple | None:
    if text is None:
        return None
    return tuple(_int(part, "subset position") for part in str(text).split(","))


def _codes(values, what: str = "code") -> list:
    if not values:
        raise ValidationError(f"at least one --{what} is required")
    out = []
    for value in values:
        body = _maybe_file(value)
        body = body.replace(";", "\n").replace(",", "\n")
        out.append(_ecpa.ParityCheckMatrix.from_text(body))
    return out


def _weights(text: str | None, count: int, mode: str) -> tuple:
    if text is None:
        if mode == "rational":
            return tuple(Fraction(1, count) for _ in range(count))
        return tuple(1.0 / count for _ in range(count))
    parts = [parse_number(p, mode) for p in text.split(",")]
    if len(parts) != count:
        raise ValidationError(f"{len(parts)} weights for {count} codes")
    return tuple(parts)


# ---------------------------------------------------------------- output


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction):
        return format_number(value)
    if isinstance(value, float):
        return value
    if isinstance(value, KeyDistribution):
        return value.as_array().tolist() if value.mode == "float" else value.formatted()
    if hasattr(value, "_asdict"):
        return {k: _jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot render {type(value).__name__} into the report")


def _inputs_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "command", "mode", "group", "action"}
    out = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        out[key.replace("_", "-")] = value if isinstance(value, (bool, int)) else str(value)
    return out


def _render(args: argparse.Namespace, mode: str, outputs: dict) -> str:
    envelope = {
        "command": args.command,
        "inputs": _inputs_echo(args),
        "outputs": _jsonable(outputs),
        "provenance": PROVENANCE[args.command],
        "numeric_mode": mode,
    }
    try:
        return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # strict JSON has no NaN or infinity
        raise ValidationError(f"an output is not a finite number: {exc}") from exc


# ---------------------------------------------------------------- handlers


def _cmd_dist_delta(args, mode):
    p = _distribution(args.p, mode)
    q = _distribution(args.q, mode)
    return {"delta": statistical_distance(p, q)}


def _cmd_dist_entropy(args, mode):
    stats = entropy_stats(_distribution(args.p, mode))
    return {
        "p1": stats.p1,
        "min_entropy_bits": stats.min_entropy_bits,
        "shannon_entropy_bits": stats.shannon_bits,
    }


def _probe_model(args, mode) -> ClassicalProbeModel:
    return ClassicalProbeModel(_distribution(args.prior, mode), _matrix(args.conditional, mode))


def _cmd_dist_mi(args, mode):
    return {"mutual_information_bits": mutual_information(_probe_model(args, mode))}


def _cmd_dist_trace(args, mode):
    return {"trace_distance": trace_distance(_state(args.rho, mode), _state(args.sigma, mode))}


def _cmd_dist_dcrit(args, mode):
    return {"d": d_criterion(_probe_model(args, mode))}


def _cmd_dist_h(args, mode):
    return {"h": binary_entropy(parse_number(args.q, mode))}


def _cmd_dist_event_bound(args, mode):
    report = check_event_bound(_distribution(args.p, mode), _distribution(args.q, mode), _event(args.event))
    return {"lhs": report.gap, "bound": report.distance, "holds": report.holds}


def _cmd_spike_construct(args, mode):
    res = construct_spike(_int(args.n, "n"), parse_number(args.eps, mode), at=_int(args.at, "at"))
    return {"distribution": res.distribution, "p1": res.p1, "distance": res.distance}


def _cmd_spike_low_info(args, mode):
    res = construct_low_info_high_guess(_int(args.n, "n"), _float(args.lam, "lam"))
    return {
        "distribution": res.distribution,
        "p1": res.p1,
        "info_bits": res.info_bits,
        "info_bound_bits": res.info_bound_bits,
    }


def _cmd_mixture_check(args, mode):
    result = check_mixture_decomposition(_distribution(args.p, mode), parse_number(args.lam, mode))
    if result is None:
        return {"decomposable": False, "uniform_weight": None, "residual": None}
    return {
        "decomposable": True,
        "uniform_weight": result.uniform_weight,
        "residual": result.residual,
    }


def _cmd_conditional_max_dev(args, mode):
    res = max_conditional_deviation(
        _int(args.n, "n"), parse_number(args.eps, mode), _event(args.event), _event(args.sub_event)
    )
    return {"distribution": res.distribution, "deviation": res.deviation}


def _split_from(args) -> KeySplit:
    return KeySplit(_int(args.n1, "n1"), _int(args.n2, "n2"), _subset(args.subset))


def _cmd_kpa_avg(args, mode):
    res = average_conditional_guess(_distribution(args.p, mode), _split_from(args))
    return {"avg_p1": res.avg_p1, "bound": res.bound, "holds": res.holds}


def _cmd_kpa_breach(args, mode):
    res = conditional_breach_witness(_int(args.n, "n"), parse_number(args.eps, mode), _split_from(args))
    return {
        "distribution": res.distribution,
        "worst_conditional_p": res.worst_conditional_p,
        "k1_value": res.k1_value,
        "subset_value": res.subset_value,
    }


def _cmd_kpa_agreement(args, mode):
    return {"agreement": eve_bit_agreement(_distribution(args.p, mode))}


def _family(args) -> _mac.HashFamilySpec:
    modulus = _int(args.modulus, "modulus") if args.modulus else 0
    return _mac.HashFamilySpec(
        field_bits=_int(args.b, "field bits"),
        message_blocks=_int(args.blocks, "message blocks"),
        modulus=modulus,
    )


def _cmd_mac_epsilon(args, mode):
    return {"epsilon": _mac.asu_epsilon(_family(args))}


def _cmd_mac_attack(args, mode):
    keys = _mac.MacKeyModel(
        hash_key_dist=_distribution(args.hash_key, mode),
        tag_key_dist=_distribution(args.tag_key, mode) if args.tag_key else None,
        uses=_int(args.uses, "uses"),
    )
    success = _mac.attack_success(_family(args), keys, args.attack, tag_averaged=args.tag_averaged)
    return {"success": success}


def _cmd_mac_degrade(args, mode):
    res = _mac.degraded_epsilon(
        parse_number(args.eps, mode),
        parse_number(args.eps_h, mode),
        parse_number(args.eps_t, mode),
        _int(args.m, "m"),
    )
    return {"hash_key_level": res.hash_key_level, "tag_key_level": res.tag_key_level}


def _cmd_mac_witness(args, mode):
    res = _mac.forgeable_key_distribution(_family(args))
    return {
        "distribution": res.distribution,
        "message_delta": res.message_delta,
        "tag_delta": res.tag_delta,
        "distance": res.distance,
    }


def _cmd_ecpa_leak(args, mode):
    return {
        "leak_bits": _ecpa.ec_leak(
            _float(args.f, "f"), _int(args.n, "n"), parse_number(args.q, mode)
        )
    }


def _ensemble_from(args, mode) -> _ecpa.CodeEnsemble:
    codes = _codes(args.code)
    return _ecpa.CodeEnsemble(codes, _weights(args.weights, len(codes), mode))


def _cmd_ecpa_posterior(args, mode):
    posterior = _ecpa.mixture_posterior(
        _ensemble_from(args, mode),
        args.observation,
        _ecpa.EveChannel(parse_number(args.crossover, mode)),
        syndromes_hidden=not args.code_known,
        code_index=_int(args.code_index, "code index"),
    )
    return {"posterior": posterior}


def _cmd_ecpa_compare(args, mode):
    cmp = _ecpa.leakage_comparison(
        _ensemble_from(args, mode), _ecpa.EveChannel(parse_number(args.crossover, mode))
    )
    return {
        "p1_no_code": cmp.p1_no_code,
        "p1_code_known_avg": cmp.p1_code_known_avg,
        "p1_mixture": cmp.p1_mixture,
    }


def _cmd_budget_markov(args, mode):
    return {
        "bound": _budget.markov_tail_bound(
            parse_number(args.mean, mode), parse_number(args.threshold, mode)
        )
    }


def _cmd_budget_individual(args, mode):
    level = _budget.parse_security_level(args.d, mode)
    budget = _budget.LogBudget(level, _budget.as_markov_exponent(args.exponent))
    return {"log10_individual": _budget.individual_level(budget)}


def _cmd_budget_accumulate(args, mode):
    res = _budget.accumulated_failure(
        _budget.parse_security_level(args.d_round),
        _float(args.rate, "rate"),
        _float(args.seconds, "seconds"),
    )
    return {"rounds": res.rounds, "log10_total": res.log10_total}


def _cmd_budget_bits(args, mode):
    return {"bits": _budget.near_uniform_bits(_budget.parse_security_level(args.d, mode), args.exponent)}


def _cmd_budget_required(args, mode):
    return {"log10_d": _budget.required_d_for_near_uniform(_int(args.n, "n"))}


def _cmd_budget_gap(args, mode):
    target = args.target if args.target is not None else f"log10:{_budget.DEFAULT_ONE_SHOT_LOG10:g}"
    current = _budget.parse_security_level(args.current, mode)
    target_level = _budget.parse_security_level(target, mode)
    exp = _budget.as_markov_exponent(args.exponent)
    gap = _budget.guarantee_gap(current, target_level, exp)
    required = (
        Fraction(target_level) / exp
        if isinstance(gap, Fraction)
        else float(target_level) / float(exp)
    )
    return {"gap_orders": gap, "log10_required_average": required}


def _cv_params(args) -> _cvqkd.CvParams:
    return _cvqkd.CvParams(
        s=_float(args.s, "s"), t=_float(args.t, "t"), a=_float(args.a, "a"), b=_float(args.b, "b")
    )


def _cmd_cv_uncertainty(args, mode):
    res = _cvqkd.output_uncertainty(_cv_params(args))
    return {"relative": res.relative, "absolute": res.absolute}


def _cmd_cv_verdict(args, mode):
    res = _cvqkd.detectability_verdict(
        _cv_params(args),
        loss_threshold=_float(args.loss_threshold, "loss threshold"),
        masking_threshold=_float(args.masking_threshold, "masking threshold"),
    )
    return {"verdict": res.verdict, "loss_limited": res.loss_limited, "masked": res.masked}


def _cmd_cv_tradeoff(args, mode):
    grid = [_float(part, "threshold") for part in args.thresholds.split(",")]
    points = _cvqkd.false_alarm_tradeoff(_cv_params(args), grid, _float(args.shift, "shift"))
    return {"points": points}


def _cmd_verify_all(args, mode):
    results = run_invariant_suite(n_max=_int(args.n_max, "n-max"), seed=_int(args.seed, "seed"))
    return {"all_passed": all(r.passed for r in results), "results": results}


# ---------------------------------------------------------------- parser


def _add(sub, group: str, name: str, handler, helptext: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=helptext)
    p.set_defaults(func=handler, command=f"{group} {name}" if group else name)
    p.add_argument("--mode", choices=("rational", "float"), default=None,
                   help="numeric backend (default: KEYSEC_NUMERIC_MODE or float)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keysec",
        description="Quantitative security analysis of imperfect (non-uniform) cryptographic keys.",
    )
    top = parser.add_subparsers(dest="group", metavar="command")

    dist = top.add_parser("dist", help="distances, entropies, and probe-model measures")
    ds = dist.add_subparsers(dest="action", metavar="action")
    p = _add(ds, "dist", "delta", _cmd_dist_delta, "statistical distance between two distributions")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p = _add(ds, "dist", "entropy", _cmd_dist_entropy, "guessing probability and entropies")
    p.add_argument("--p", required=True)
    p = _add(ds, "dist", "mi", _cmd_dist_mi, "mutual information of a probe model")
    p.add_argument("--prior", required=True)
    p.add_argument("--conditional", required=True, help="JSON matrix p(y|k) or @file")
    p = _add(ds, "dist", "trace", _cmd_dist_trace, "trace distance between two states")
    p.add_argument("--rho", required=True, help="JSON matrix, @file, or diag:<distribution>")
    p.add_argument("--sigma", required=True)
    p = _add(ds, "dist", "d-criterion", _cmd_dist_dcrit, "joint-vs-uniform-product distance")
    p.add_argument("--prior", required=True)
    p.add_argument("--conditional", required=True)
    p = _add(ds, "dist", "binary-entropy", _cmd_dist_h, "binary entropy h(q)")
    p.add_argument("--q", required=True)
    p = _add(ds, "dist", "event-bound", _cmd_dist_event_bound, "event probability gap vs distance")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--event", required=True, help="comma-separated key values")

    spike = top.add_parser("spike", help="extremal spike constructions")
    ss = spike.add_subparsers(dest="action", metavar="action")
    p = _add(ss, "spike", "construct", _cmd_spike_construct, "maximal-guess distribution at fixed distance")
    p.add_argument("--n", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--at", default="0")
    p = _add(ss, "spike", "low-info", _cmd_spike_low_info, "vanishing-information, high-guess family")
    p.add_argument("--n", required=True)
    p.add_argument("--lam", required=True)

    mixture = top.add_parser("mixture", help="uniform-mixture decomposition")
    ms = mixture.add_subparsers(dest="action", metavar="action")
    p = _add(ms, "mixture", "check", _cmd_mixture_check, "decompose P as (1-lam) uniform + lam residual")
    p.add_argument("--p", required=True)
    p.add_argument("--lam", required=True)

    conditional = top.add_parser("conditional", help="conditional-event deviation extremes")
    cs = conditional.add_subparsers(dest="action", metavar="action")
    p = _add(cs, "conditional", "max-deviation", _cmd_conditional_max_dev,
             "worst conditional shift under a distance budget")
    p.add_argument("--n", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--event", required=True)
    p.add_argument("--sub-event", required=True)

    kpa = top.add_parser("kpa", help="split-key known-plaintext analysis")
    ks = kpa.add_subparsers(dest="action", metavar="action")
    p = _add(ks, "kpa", "avg-guess", _cmd_kpa_avg, "averaged conditional guess vs its bound")
    p.add_argument("--p", required=True)
    p.add_argument("--n1", required=True)
    p.add_argument("--n2", required=True)
    p.add_argument("--subset", default=None, help="K2 bit positions, default all")
    p = _add(ks, "kpa", "breach", _cmd_kpa_breach, "single-slice conditioning breach witness")
    p.add_argument("--n", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--n1", required=True)
    p.add_argument("--n2", required=True)
    p.add_argument("--subset", default=None)
    p = _add(ks, "kpa", "bit-agreement", _cmd_kpa_agreement, "expected bit agreement of the best guess")
    p.add_argument("--p", required=True)

    mac = top.add_parser("mac", help="authentication with imperfect keys")
    mcs = mac.add_subparsers(dest="action", metavar="action")
    p = _add(mcs, "mac", "epsilon", _cmd_mac_epsilon, "family universality level")
    p.add_argument("--b", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--modulus", default=None, help="field polynomial bit pattern (hex ok)")
    p = _add(mcs, "mac", "attack", _cmd_mac_attack, "exact optimal forgery probability")
    p.add_argument("--b", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--modulus", default=None)
    p.add_argument("--attack", required=True, choices=("impersonation", "substitution"))
    p.add_argument("--hash-key", required=True)
    p.add_argument("--tag-key", default=None, help="mask distribution; omit for the ideal pad")
    p.add_argument("--uses", default="1")
    p.add_argument("--tag-averaged", action="store_true")
    p = _add(mcs, "mac", "degrade", _cmd_mac_degrade, "universality after imperfect keys")
    p.add_argument("--eps", required=True)
    p.add_argument("--eps-h", required=True)
    p.add_argument("--eps-t", required=True)
    p.add_argument("--m", required=True)
    p = _add(mcs, "mac", "forgery-witness", _cmd_mac_witness, "key law defeating the worst case")
    p.add_argument("--b", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--modulus", default=None)

    ecpa = top.add_parser("ecpa", help="error-correction leakage analysis")
    es = ecpa.add_subparsers(dest="action", metavar="action")
    p = _add(es, "ecpa", "leak", _cmd_ecpa_leak, "reconciliation disclosure f n h(Q)")
    p.add_argument("--f", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--q", required=True)
    p = _add(es, "ecpa", "posterior", _cmd_ecpa_posterior, "posterior over data words")
    p.add_argument("--code", action="append", required=True,
                   help="parity rows ('0110;1011'), or @file; repeatable")
    p.add_argument("--weights", default=None, help="comma-separated code weights")
    p.add_argument("--observation", required=True, help="observed bits, e.g. 0110")
    p.add_argument("--crossover", required=True)
    p.add_argument("--code-known", action="store_true", help="reveal the code index")
    p.add_argument("--code-index", default="0")
    p = _add(es, "ecpa", "compare", _cmd_ecpa_compare, "guessing success with/without code structure")
    p.add_argument("--code", action="append", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--crossover", required=True)

    budget = top.add_parser("budget", help="log-domain security-budget arithmetic")
    bs = budget.add_subparsers(dest="action", metavar="action")
    p = _add(bs, "budget", "markov", _cmd_budget_markov, "average-to-tail bound")
    p.add_argument("--mean", required=True)
    p.add_argument("--threshold", required=True)
    p = _add(bs, "budget", "individual", _cmd_budget_individual, "individual-guarantee level")
    p.add_argument("--d", required=True, help="level as 1e-20 or log10:-20")
    p.add_argument("--exponent", required=True, help="1, 1/2, or 1/3")
    p = _add(bs, "budget", "accumulate", _cmd_budget_accumulate, "union bound over rounds")
    p.add_argument("--d-round", required=True)
    p.add_argument("--rate", required=True, help="rounds per second")
    p.add_argument("--seconds", required=True)
    p = _add(bs, "budget", "near-uniform-bits", _cmd_budget_bits, "honest near-uniform key length")
    p.add_argument("--d", required=True)
    p.add_argument("--exponent", default="1")
    p = _add(bs, "budget", "required-d", _cmd_budget_required, "level demanded by an n-bit claim")
    p.add_argument("--n", required=True)
    p = _add(bs, "budget", "gap", _cmd_budget_gap, "orders of magnitude to a target")
    p.add_argument("--current", required=True)
    p.add_argument("--target", default=None, help="individual target (default log10:-15)")
    p.add_argument("--exponent", required=True)

    cv = top.add_parser("cvqkd", help="CV-QKD monitoring arithmetic")
    cvs = cv.add_subparsers(dest="action", metavar="action")
    p = _add(cvs, "cvqkd", "uncertainty", _cmd_cv_uncertainty, "combined output uncertainty")
    for flag in ("--s", "--t", "--a", "--b"):
        p.add_argument(flag, required=True)
    p = _add(cvs, "cvqkd", "verdict", _cmd_cv_verdict, "intercept-resend detectability verdict")
    for flag in ("--s", "--t", "--a", "--b"):
        p.add_argument(flag, required=True)
    p.add_argument("--loss-threshold", default="0.5")
    p.add_argument("--masking-threshold", default="0.25")
    p = _add(cvs, "cvqkd", "tradeoff", _cmd_cv_tradeoff, "false-alarm / miss threshold sweep")
    for flag in ("--s", "--t", "--a", "--b"):
        p.add_argument(flag, required=True)
    p.add_argument("--shift", required=True, help="attack signature shift of the mean level")
    p.add_argument("--thresholds", required=True, help="comma-separated grid")

    p = _add(top, "", "verify-all", _cmd_verify_all, "run the cross-module invariant suite")
    p.add_argument("--n-max", default="10")
    p.add_argument("--seed", default="42")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        mode = resolve_mode(args.mode)
        outputs = args.func(args, mode)
        text = _render(args, mode, outputs)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if args.command == "verify-all" and not outputs["all_passed"]:
        return 1
    return 0


def console_main() -> None:
    raise SystemExit(main())
