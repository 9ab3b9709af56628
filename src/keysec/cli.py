"""Batch command-line front end: every operation as a subcommand.

Each invocation runs one operation and prints a single JSON report
envelope on stdout::

    {"command": ..., "inputs": ..., "outputs": ...,
     "provenance": ..., "numeric_mode": ...}

``inputs`` echoes the arguments verbatim, ``provenance`` states the
formula or model the numbers came from, and outputs are rendered
exactly ("num/den" strings) in rational mode.  Exit codes: 0 success,
1 usage, a failing verify-all or an internal error, 2 validation error,
3 resource cap.

A subcommand is one `COMMANDS` entry: its help line, its provenance
(required, since every envelope states one), its flags and its handler.
Each flag declares a reader, a default or `REQUIRED`, and a help line.
`main` reads every flag once through its reader and hands the values to
the handler, which makes the library call; `build_parser` is a loop
over the table.

A call loads only what its command uses.  `main` builds the flags of
the one group the argv names, and readers and handlers reach the library
as ``keysec.<module>.<name>``, so the lazy package imports that module
alone: a ``budget`` or ``cvqkd`` call loads ``numerics`` and its own
module and no numpy, and so do ``dist binary-entropy``, ``ecpa leak``
and ``mac degrade``, whose formulas are in ``numerics``; another
``dist`` call adds ``dist``, another ``mac`` call ``dist`` and ``mac``.

Distribution arguments accept ``uniform:N``, ``spike:N:EPS``, an inline
JSON array, or ``@path`` to a JSON file.  The numeric mode comes from
``--mode``, else the KEYSEC_NUMERIC_MODE environment variable, else
float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import keysec

from .numerics import (MODES, ResourceLimitError, ValidationError, _shown, check_scalar,
                       format_number, parse_int, parse_number)

__all__ = ["main", "console_main", "build_parser", "COMMANDS"]


# ---------------------------------------------------------------- parsing


def _distribution(text: str, mode: str) -> keysec.dist.KeyDistribution:
    text = text.strip()
    if text.startswith("uniform:"):
        return keysec.dist.KeyDistribution.uniform(parse_int(text[8:], "uniform length"), mode=mode)
    if text.startswith("spike:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"spike spec needs spike:n:eps, got {_shown(text, repr)}")
        spike = keysec.extremal.construct_spike(parse_int(parts[1], "spike length"), parse_number(parts[2], mode))
        return spike.distribution
    return keysec.dist.KeyDistribution.from_json(_maybe_file(text), mode=mode)


def _maybe_file(text: str) -> str:
    return keysec.numerics._read_text(text[1:]) if text.startswith("@") else text


def _rows(text: str, what: str) -> list:
    """The non-empty JSON array of rows in ``text``, or in the file ``@path`` names."""
    raw = keysec.dist._json_array(_maybe_file(text), what)
    if not all(isinstance(r, list) for r in raw):
        raise ValidationError(f"{what} must be a JSON array of rows")
    return raw


def _complex_entry(v) -> complex:
    """One state entry: a JSON number, a ``[re, im]`` pair of numbers, or a string like ``"1-2j"``."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0]
    try:
        if isinstance(v, str):
            return complex(v.replace(" ", ""))
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
            return complex(*parts)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot read complex entry {_shown(v, repr)}") from exc
    raise ValidationError(f"cannot read complex entry {_shown(v, repr)}")


def _state(text: str, mode: str) -> keysec.dist.HermitianState:
    text = text.strip()
    if text.startswith("diag:"):
        return keysec.dist.HermitianState.from_distribution(_distribution(text[5:], mode))
    return keysec.dist.HermitianState([[_complex_entry(v) for v in row] for row in _rows(text, "state")])


# ---------------------------------------------------------------- readers
#
# A reader turns the text of one flag into its value: reader(text, mode).
# `_read` names the flag in any refusal a reader raises.

_DIST = _distribution
_NUMBER = parse_number
_INT = lambda text, mode: parse_int(text)
_FLOAT = lambda text, mode: parse_number(text, "float")  # a float whatever the mode
_STATE = _state
_MATRIX = lambda text, mode: [[parse_number(str(v), mode) for v in row] for row in _rows(text, "matrix")]
_EVENT = lambda text, mode: keysec.extremal.EventSpec.from_text(text)
_SUBSET = lambda text, mode: tuple(parse_int(part) for part in text.split(","))
# the one repeatable flag: a list of every --code
_CODES = lambda values, mode: [keysec.ecpa.ParityCheckMatrix.from_text(_maybe_file(v)) for v in values]
_WEIGHTS = lambda text, mode: tuple(parse_number(part, mode) for part in text.split(","))
_LEVEL = lambda text, mode: keysec.budget.parse_security_level(text, mode)
_FLOAT_LEVEL = lambda text, mode: keysec.budget.parse_security_level(text)  # float whatever the mode
_EXPONENT = lambda text, mode: keysec.budget.as_markov_exponent(text)
_THRESHOLDS = lambda text, mode: [parse_number(part, "float") for part in text.split(",")]

#: default of a flag that must be given
REQUIRED = object()


class Arg(NamedTuple):
    """One flag: its reader, its default (or REQUIRED) and its help line.

    The reader is a function (text, mode) -> value.  None passes the
    text through as given, or the bool of a flag whose default is False
    (a switch); a tuple of choices passes the chosen text through.  A flag
    that is absent and defaults to None skips its reader and stays None,
    which leaves it out of the envelope's inputs.
    """

    reader: Callable | tuple | None
    default: object
    help: str | None = None


class Command(NamedTuple):
    """One subcommand: help line, provenance, flags in order, and the handler.

    The handler takes a namespace of the flags' values (dashes become
    underscores) and ``mode``; it returns the outputs, as a dict or as a
    library NamedTuple whose fields are the output names.
    """

    help: str
    provenance: str
    args: dict
    handler: Callable


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# ---------------------------------------------------------------- handlers


def _family(a) -> keysec.mac.HashFamilySpec:
    return keysec.mac.HashFamilySpec(field_bits=a.b, message_blocks=a.blocks, modulus=a.modulus or 0)


def _ensemble(a) -> keysec.ecpa.CodeEnsemble:
    count = len(a.code)
    weights = a.weights or [check_scalar(Fraction(1, count), "code weight", mode=a.mode)] * count
    return keysec.ecpa.CodeEnsemble(a.code, weights)


def _cv_params(a) -> keysec.cvqkd.CvParams:
    return keysec.cvqkd.CvParams(s=a.s, t=a.t, a=a.a, b=a.b)


def _mixture_check(a):
    result = keysec.extremal.check_mixture_decomposition(a.p, a.lam)
    if result is None:
        return {"decomposable": False, "uniform_weight": None, "residual": None}
    return {"decomposable": True, **result._asdict()}


def _mac_attack(a):
    keys = keysec.mac.MacKeyModel(hash_key_dist=a.hash_key, tag_key_dist=a.tag_key, uses=a.uses)
    return {"success": keysec.mac.attack_success(_family(a), keys, a.attack, tag_averaged=a.tag_averaged)}


def _budget_gap(a):
    target = a.target
    if target is None:
        target = keysec.budget.parse_security_level(f"log10:{keysec.budget.DEFAULT_ONE_SHOT_LOG10:g}", a.mode)
    gap = keysec.budget.guarantee_gap(a.current, target, a.exponent)
    return {"gap_orders": gap, "log10_required_average": target / a.exponent}


def _verify_all(a):
    results = keysec.verify.run_invariant_suite(n_max=a.n_max, seed=a.seed)
    return {"all_passed": all(r.passed for r in results), "results": results}


# ---------------------------------------------------------------- commands

_PROBE = {"--prior": Arg(_DIST, REQUIRED), "--conditional": Arg(_MATRIX, REQUIRED, "JSON matrix p(y|k) or @file")}
_SPLIT = {"--n1": Arg(_INT, REQUIRED), "--n2": Arg(_INT, REQUIRED),
          "--subset": Arg(_SUBSET, None, "K2 bit positions, default all")}
_FAMILY = {
    "--b": Arg(_INT, REQUIRED),
    "--blocks": Arg(_INT, REQUIRED),
    "--modulus": Arg(_INT, None, "field polynomial bit pattern (hex ok)"),
}
_ENSEMBLE = {"--code": Arg(_CODES, REQUIRED, "parity rows ('0110;1011'), or @file; repeatable"),
             "--weights": Arg(_WEIGHTS, None, "comma-separated code weights")}
_CV = {flag: Arg(_FLOAT, REQUIRED) for flag in ("--s", "--t", "--a", "--b")}

GROUPS = {
    "dist": "distances, entropies, and probe-model measures",
    "spike": "extremal spike constructions",
    "mixture": "uniform-mixture decomposition",
    "conditional": "conditional-event deviation extremes",
    "kpa": "split-key known-plaintext analysis",
    "mac": "authentication with imperfect keys",
    "ecpa": "error-correction leakage analysis",
    "budget": "log-domain security-budget arithmetic",
    "cvqkd": "CV-QKD monitoring arithmetic",
}

COMMANDS = {
    "dist delta": Command(
        "statistical distance between two distributions",
        "delta(P,Q) = (1/2) sum_i |P_i - Q_i| (total-variation distance)",
        {"--p": Arg(_DIST, REQUIRED), "--q": Arg(_DIST, REQUIRED)},
        lambda a: {"delta": keysec.dist.statistical_distance(a.p, a.q)},
    ),
    "dist entropy": Command(
        "guessing probability and entropies",
        "p1 = max_i P_i; min-entropy = -log2 p1; Shannon entropy with 0 log 0 = 0",
        {"--p": Arg(_DIST, REQUIRED)},
        lambda a: dict(zip(("p1", "min_entropy_bits", "shannon_entropy_bits"), keysec.dist.entropy_stats(a.p))),
    ),
    "dist mi": Command(
        "mutual information of a probe model",
        "I(K;Y) = H(K) - H(K|Y) over the probe model's joint law",
        _PROBE,
        lambda a: {"mutual_information_bits": keysec.dist.mutual_information(
            keysec.dist.ClassicalProbeModel(a.prior, a.conditional)
        )},
    ),
    "dist trace": Command(
        "trace distance between two states",
        "T(rho,sigma) = (1/2) sum |eigenvalues(rho - sigma)|",
        {"--rho": Arg(_STATE, REQUIRED, "JSON matrix, @file, or diag:<distribution>"),
         "--sigma": Arg(_STATE, REQUIRED)},
        lambda a: {"trace_distance": keysec.dist.trace_distance(a.rho, a.sigma)},
    ),
    "dist d-criterion": Command(
        "joint-vs-uniform-product distance",
        "d = (1/2) sum_{k,y} |p(k) p(y|k) - pbar(y)/N| (joint vs uniform-key product)",
        _PROBE,
        lambda a: {"d": keysec.dist.d_criterion(keysec.dist.ClassicalProbeModel(a.prior, a.conditional))},
    ),
    "dist binary-entropy": Command(
        "binary entropy h(q)",
        "h(q) = -q log2 q - (1-q) log2(1-q)",
        {"--q": Arg(_NUMBER, REQUIRED)},
        lambda a: {"h": keysec.numerics.binary_entropy(a.q)},
    ),
    "dist event-bound": Command(
        "event probability gap vs distance",
        "|P(A) - Q(A)| <= delta(P,Q) for every event A",
        {"--p": Arg(_DIST, REQUIRED), "--q": Arg(_DIST, REQUIRED),
         "--event": Arg(_EVENT, REQUIRED, "comma-separated key values")},
        lambda a: dict(zip(("lhs", "bound", "holds"), keysec.extremal.check_event_bound(a.p, a.q, a.event))),
    ),
    "spike construct": Command(
        "maximal-guess distribution at fixed distance",
        "peak 1/N + eps, others 1/N - eps/(N-1); distance from uniform is exactly eps",
        {"--n": Arg(_INT, REQUIRED), "--eps": Arg(_NUMBER, REQUIRED), "--at": Arg(_INT, "0")},
        lambda a: keysec.extremal.construct_spike(a.n, a.eps, at=a.at),
    ),
    "spike low-info": Command(
        "vanishing-information, high-guess family",
        "p1 = 2^(-lam n), remainder uniform; n - H(P) <= n 2^(-lam n)",
        {"--n": Arg(_INT, REQUIRED), "--lam": Arg(_FLOAT, REQUIRED)},
        lambda a: keysec.extremal.construct_low_info_high_guess(a.n, a.lam),
    ),
    "mixture check": Command(
        "decompose P as (1-lam) uniform + lam residual",
        "P = (1-lam) U + lam P' exists iff (1-lam)/N <= P_i <= lam + (1-lam)/N for all i",
        {"--p": Arg(_DIST, REQUIRED), "--lam": Arg(_NUMBER, REQUIRED)},
        _mixture_check,
    ),
    "conditional max-deviation": Command(
        "worst conditional shift under a distance budget",
        "max |P(B|A) - U(B|A)| under delta(P,U) <= eps; optimum min(eps, movable)/U(A)",
        {"--n": Arg(_INT, REQUIRED), "--eps": Arg(_NUMBER, REQUIRED),
         "--event": Arg(_EVENT, REQUIRED), "--sub-event": Arg(_EVENT, REQUIRED)},
        lambda a: keysec.extremal.max_conditional_deviation(a.n, a.eps, a.event, a.sub_event),
    ),
    "kpa avg-guess": Command(
        "averaged conditional guess vs its bound",
        "sum_k1 max_v P(K2*=v, K1=k1) <= 2^(-|K2*|) + delta(P,U)",
        {"--p": Arg(_DIST, REQUIRED), **_SPLIT},
        lambda a: keysec.kpa.average_conditional_guess(a.p, keysec.kpa.KeySplit(a.n1, a.n2, a.subset)),
    ),
    "kpa breach": Command(
        "single-slice conditioning breach witness",
        "mass moved inside one K1 slice: conditional guess 2^(-|K2*|) + moved 2^(n1)",
        {"--n": Arg(_INT, REQUIRED), "--eps": Arg(_NUMBER, REQUIRED), **_SPLIT},
        lambda a: keysec.kpa.conditional_breach_witness(a.n, a.eps, keysec.kpa.KeySplit(a.n1, a.n2, a.subset)),
    ),
    "kpa bit-agreement": Command(
        "expected bit agreement of the best guess",
        "expected fraction of key bits matching the most probable key value",
        {"--p": Arg(_DIST, REQUIRED)},
        lambda a: {"agreement": keysec.kpa.eve_bit_agreement(a.p)},
    ),
    "mac epsilon": Command(
        "family universality level",
        "polynomial evaluation over GF(2^b): eps = message_blocks / 2^b",
        _FAMILY,
        lambda a: {"epsilon": keysec.mac.asu_epsilon(_family(a))},
    ),
    "mac attack": Command(
        "exact optimal forgery probability",
        "exact optimal forgery success against the posterior hash-key distribution",
        {**_FAMILY,
         "--attack": Arg(("impersonation", "substitution"), REQUIRED),
         "--hash-key": Arg(_DIST, REQUIRED),
         "--tag-key": Arg(_DIST, None, "mask distribution; omit for the ideal pad"),
         "--uses": Arg(_INT, "1"),
         "--tag-averaged": Arg(None, False)},
        _mac_attack,
    ),
    "mac degrade": Command(
        "universality after imperfect keys",
        "imperfect keys: eps + eps_h (hash key) and eps + m eps_t (m masked tags), clipped at 1",
        {"--eps": Arg(_NUMBER, REQUIRED), "--eps-h": Arg(_NUMBER, REQUIRED),
         "--eps-t": Arg(_NUMBER, REQUIRED), "--m": Arg(_INT, REQUIRED)},
        lambda a: keysec.numerics.degraded_epsilon(a.eps, a.eps_h, a.eps_t, a.m),
    ),
    "mac forgery-witness": Command(
        "key law defeating the worst case",
        "two-point hash-key law making one substitution forgery succeed with certainty",
        _FAMILY,
        lambda a: keysec.mac.forgeable_key_distribution(_family(a)),
    ),
    "ecpa leak": Command(
        "reconciliation disclosure f n h(Q)",
        "reconciliation disclosure leak = f n h(Q)",
        {"--f": Arg(_FLOAT, REQUIRED), "--n": Arg(_INT, REQUIRED), "--q": Arg(_NUMBER, REQUIRED)},
        lambda a: {"leak_bits": keysec.numerics.ec_leak(a.f, a.n, a.q)},
    ),
    "ecpa posterior": Command(
        "posterior over data words",
        "Bayes posterior over data words given a noisy view of a hidden-code codeword",
        {**_ENSEMBLE,
         "--observation": Arg(None, REQUIRED, "observed bits, e.g. 0110"),
         "--crossover": Arg(_NUMBER, REQUIRED),
         "--code-known": Arg(None, False, "reveal the code index"),
         "--code-index": Arg(_INT, "0")},
        lambda a: {"posterior": keysec.ecpa.mixture_posterior(
            _ensemble(a), a.observation, keysec.ecpa.EveChannel(a.crossover),
            syndromes_hidden=not a.code_known, code_index=a.code_index,
        )},
    ),
    "ecpa compare": Command(
        "guessing success with/without code structure",
        "exact MAP success: code known (averaged), hidden-code mixture, no code structure",
        {**_ENSEMBLE, "--crossover": Arg(_NUMBER, REQUIRED)},
        lambda a: keysec.ecpa.leakage_comparison(_ensemble(a), keysec.ecpa.EveChannel(a.crossover)),
    ),
    "budget markov": Command(
        "average-to-tail bound",
        "Pr[Z >= threshold] <= min(1, mean/threshold) for non-negative Z",
        {"--mean": Arg(_NUMBER, REQUIRED), "--threshold": Arg(_NUMBER, REQUIRED)},
        lambda a: {"bound": keysec.budget.markov_tail_bound(a.mean, a.threshold)},
    ),
    "budget individual": Command(
        "individual-guarantee level",
        "average-to-individual conversion: log10 d' = exponent * log10 d",
        {"--d": Arg(_LEVEL, REQUIRED, "level as 1e-20 or log10:-20"),
         "--exponent": Arg(_EXPONENT, REQUIRED, "1, 1/2, or 1/3")},
        lambda a: {"log10_individual": keysec.budget.individual_level(keysec.budget.LogBudget(a.d, a.exponent))},
    ),
    "budget accumulate": Command(
        "union bound over rounds",
        "union bound over rounds: log10 total = log10 d_round + log10(rate seconds), capped at 0",
        {"--d-round": Arg(_FLOAT_LEVEL, REQUIRED), "--rate": Arg(_FLOAT, REQUIRED, "rounds per second"),
         "--seconds": Arg(_FLOAT, REQUIRED)},
        lambda a: keysec.budget.accumulated_failure(a.d_round, a.rate, a.seconds),
    ),
    "budget near-uniform-bits": Command(
        "honest near-uniform key length",
        "largest n with 2^-n >= d^exponent: floor(-log10_d exponent log2 10)",
        {"--d": Arg(_LEVEL, REQUIRED), "--exponent": Arg(_EXPONENT, "1")},
        lambda a: {"bits": keysec.budget.near_uniform_bits(a.d, a.exponent)},
    ),
    "budget required-d": Command(
        "level demanded by an n-bit claim",
        "near-uniform n-bit key needs d ~ 2^-n: log10 d = -n log10 2",
        {"--n": Arg(_INT, REQUIRED)},
        lambda a: {"log10_d": keysec.budget.required_d_for_near_uniform(a.n)},
    ),
    "budget gap": Command(
        "orders of magnitude to a target",
        "orders short of target: current - target/exponent (positive = insufficient)",
        {"--current": Arg(_LEVEL, REQUIRED),
         "--target": Arg(_LEVEL, None, "individual target (default log10:-15)"),
         "--exponent": Arg(_EXPONENT, REQUIRED)},
        _budget_gap,
    ),
    "cvqkd uncertainty": Command(
        "combined output uncertainty",
        "relative = a + b - ab = 1 - (1-a)(1-b); absolute = relative S T",
        _CV,
        lambda a: keysec.cvqkd.output_uncertainty(_cv_params(a)),
    ),
    "cvqkd verdict": Command(
        "intercept-resend detectability verdict",
        "loss limit if S T < threshold; masked if (a+b-ab) S T > threshold",
        {**_CV, "--loss-threshold": Arg(_FLOAT, "0.5"), "--masking-threshold": Arg(_FLOAT, "0.25")},
        lambda a: keysec.cvqkd.detectability_verdict(
            _cv_params(a), loss_threshold=a.loss_threshold, masking_threshold=a.masking_threshold
        ),
    ),
    "cvqkd tradeoff": Command(
        "false-alarm / miss threshold sweep",
        "declared model: Gaussian level around S T, attack shifts mean up; alarm above threshold",
        {**_CV, "--shift": Arg(_FLOAT, REQUIRED, "attack signature shift of the mean level"),
         "--thresholds": Arg(_THRESHOLDS, REQUIRED, "comma-separated grid")},
        lambda a: {"points": keysec.cvqkd.false_alarm_tradeoff(_cv_params(a), a.thresholds, a.shift)},
    ),
    "verify-all": Command(
        "run the cross-module invariant suite",
        "cross-module invariant suite",
        {"--n-max": Arg(_INT, "10"), "--seed": Arg(_INT, "42")},
        _verify_all,
    ),
}


# ---------------------------------------------------------------- output


def _jsonable(value):
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Fraction):
        return format_number(value)
    dist = sys.modules.get("keysec.dist")  # a law exists only once dist is loaded; no need to load it here
    if dist is not None and isinstance(value, dist.KeyDistribution):
        return value.as_array().tolist() if value.mode == "float" else value.formatted()
    if hasattr(value, "_asdict"):
        return {k: _jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot render {type(value).__name__} into the report")


def _inputs_echo(args: argparse.Namespace) -> dict:
    skip = {"command", "mode", "group", "action"}
    out = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        out[key.replace("_", "-")] = value if isinstance(value, (bool, int)) else str(value)
    return out


def _render(args: argparse.Namespace, mode: str, outputs) -> str:
    """The envelope as JSON text.  Exact results print at any length: Python's limit
    on the digits of an int turned into text is lifted while the envelope is built
    and restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        envelope = {
            "command": args.command,
            "inputs": _inputs_echo(args),
            "outputs": _jsonable(outputs),
            "provenance": COMMANDS[args.command].provenance,
            "numeric_mode": mode,
        }
        try:
            return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # strict JSON has no NaN or infinity
            raise ValidationError(f"an output is not a finite number: {exc}") from exc
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- entry points


def build_parser(branch: str | None = None) -> argparse.ArgumentParser:
    """The argparse tree: every group and top-level command, with its help line.

    Only the ``branch`` group or top-level command gets its actions and
    flags; ``None`` builds them all.  Every help screen of the branch is
    the same as in the whole tree.
    """
    parser = argparse.ArgumentParser(
        prog="keysec",
        description="Quantitative security analysis of imperfect (non-uniform) cryptographic keys.",
    )
    top = parser.add_subparsers(dest="group", metavar="command")
    actions = {}
    for command, entry in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group and group not in actions:
            group_parser = top.add_parser(group, help=GROUPS[group])
            actions[group] = group_parser.add_subparsers(dest="action", metavar="action")
        if branch not in (None, group or name):
            if not group:  # a top-level command is a choice of the top parser
                top.add_parser(name, help=entry.help)
            continue
        p = (actions[group] if group else top).add_parser(name, help=entry.help)
        p.set_defaults(command=command)
        p.add_argument("--mode", choices=MODES, default=None,
                       help="numeric backend (default: KEYSEC_NUMERIC_MODE or float)")
        for flag, arg in entry.args.items():
            if arg.default is REQUIRED:
                kwargs = {"required": True}
            elif arg.default is False:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"default": arg.default}
            if arg.reader is _CODES:
                kwargs["action"] = "append"
            if isinstance(arg.reader, tuple):
                kwargs["choices"] = arg.reader
            p.add_argument(flag, help=arg.help, **kwargs)
    return parser


def _read(args: argparse.Namespace, mode: str) -> argparse.Namespace:
    """Every flag of the command through its reader, in declaration order; a refusal
    names its flag."""
    values = argparse.Namespace(mode=mode)
    for flag, arg in COMMANDS[args.command].args.items():
        text = getattr(args, _dest(flag))
        if text is not None and callable(arg.reader):
            try:
                text = arg.reader(text, mode)
            except (ValidationError, ResourceLimitError) as exc:  # the same class, so the same exit code
                raise type(exc)(f"{flag}: {exc}") from exc
        setattr(values, _dest(flag), text)
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse enters the group named by the first positional argument; every argument before it is an option
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "command"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        mode = keysec.numerics.resolve_mode(args.mode)
        outputs = COMMANDS[args.command].handler(_read(args, mode))
        text = _render(args, mode, outputs)
    except (ValidationError, ResourceLimitError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # the failure boundary: a fault in keysec itself, reported on one line
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1
    print(text)
    if args.command == "verify-all" and not outputs["all_passed"]:
        return 1
    return 0


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # a reader closed stdout early (`| head -1`): exit 1, and exit's flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
