"""Security-budget arithmetic, kept strictly in the log10 domain.

Levels much below 10^-308 degrade to subnormals and then to zero as
floats, so every quantity here is carried as ``log10_d <= 0``.  The
module covers the conversions that
turn a headline average-case distance into an operational number: the
Markov average-to-individual conversion (which costs a root, i.e. a
factor of 1/2 or 1/3 on the exponent), accumulation over repeated
protocol rounds (union bound), and the translation between a distance
level and the length of a key that can honestly be called near-uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import NamedTuple, Union

from .numerics import (SLACKS, Number, ValidationError, _shown, check_int, check_mode, check_scalar, parse_number,
                       scalar_mode, slack)

__all__ = [
    "MARKOV_EXPONENTS",
    "DEFAULT_ONE_SHOT_LOG10",
    "LogBudget",
    "AccumulatedFailure",
    "as_markov_exponent",
    "markov_tail_bound",
    "individual_level",
    "accumulated_failure",
    "near_uniform_bits",
    "required_d_for_near_uniform",
    "guarantee_gap",
    "parse_security_level",
]

#: admissible average-to-individual conversion exponents.  The double
#: application of the tail bound justifies the cube root but nothing
#: smaller; 1/4 is specifically rejected.
MARKOV_EXPONENTS = (Fraction(1), Fraction(1, 2), Fraction(1, 3))

#: default "effective one-shot impossibility" level, configurable by callers
DEFAULT_ONE_SHOT_LOG10 = -15.0


def as_markov_exponent(value: Union[str, Number]) -> Fraction:
    """Coerce to one of the admissible exponents {1, 1/2, 1/3}.

    Strings like ``"1/3"`` are exact; floats are matched within the ``rounding``
    slack of `keysec.numerics.SLACKS`.
    Anything else -- notably 1/4 -- is rejected: iterating the tail bound
    twice buys the cube root, and no further.
    """
    value = check_scalar(value, "exponent")
    tol = slack("rounding", value)
    for frac in MARKOV_EXPONENTS:
        if abs(value - frac) <= tol:
            return frac
    raise ValidationError(
        f"exponent {_shown(value)} is not admissible: the average-to-individual "
        "conversion supports only 1, 1/2, 1/3 (in particular not 1/4)"
    )


@dataclass(frozen=True)
class LogBudget:
    """A security level ``log10_d <= 0`` with its conversion exponent."""

    log10_d: Number
    markov_exponent: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "log10_d", check_scalar(self.log10_d, "log10 of a distance level", hi=0))
        object.__setattr__(self, "markov_exponent", as_markov_exponent(self.markov_exponent))


class AccumulatedFailure(NamedTuple):
    rounds: float
    log10_total: float


def markov_tail_bound(mean: Number, threshold: Number) -> Number:
    """Tail bound ``Pr[Z >= threshold] <= min(1, mean / threshold)`` for Z >= 0."""
    threshold = check_scalar(threshold, "threshold", lo=0, lo_open=True)
    mean = check_scalar(mean, "mean of a non-negative variable", lo=0)
    one = check_scalar(1, "probability bound", mode=scalar_mode(mean, threshold))
    return min(mean / threshold, one)


def individual_level(budget: LogBudget) -> Number:
    """Per-instance level after the Markov conversion: ``log10_d * exponent``.

    An average-case ``d`` only caps the *expected* deviation; the chance
    that a single run misbehaves is bounded via the tail bound, at the
    price of a square or cube root -- i.e. the log10 level shrinks by the
    exponent factor.
    """
    return budget.log10_d * budget.markov_exponent


def accumulated_failure(
    log10_d_round: Number, rounds_per_second: Number, seconds: Number
) -> AccumulatedFailure:
    """Union-bound total over repeated rounds, in log10.

    ``rounds = rate * seconds``; the total failure level is
    ``log10_d_round + log10(rounds)``, capped at 0 (a probability bound
    never exceeds 1).
    """
    rate = check_scalar(rounds_per_second, "rate", lo=0, mode="float", lo_open=True)
    seconds = check_scalar(seconds, "duration", lo=0, mode="float", lo_open=True)
    level = check_scalar(log10_d_round, "per-round level log10 d", hi=0, mode="float")
    rounds = check_scalar(rate * seconds, "rounds (rate times duration)", lo=0, lo_open=True)
    total = level + math.log10(rounds)
    return AccumulatedFailure(rounds=rounds, log10_total=min(total, 0.0))


def near_uniform_bits(log10_d: Number, exponent: Union[str, Number] = Fraction(1)) -> int:
    """Longest key length honestly callable near-uniform at this level.

    Near-uniform at length ``n`` asks for a distance around ``2^-n``; the
    answer is ``floor(-log10_d * exponent * log2(10))``, with the exponent
    applying the average-to-individual conversion first.  A nudge by the
    ``bits`` slack absorbs float round-off so exact powers of two invert cleanly
    (e.g. ``log10_d = -15`` must yield 49, not 48).
    """
    log10_d = check_scalar(log10_d, "log10 d", hi=0, hi_open=True)
    exp = as_markov_exponent(exponent)
    try:
        return int(math.floor(-float(log10_d) * float(exp) * math.log2(10.0) + SLACKS["bits"].size))
    except OverflowError as exc:  # the level, or the bit count, exceeds float range
        raise ValidationError(f"log10 d is too far below 0 for a float bit count (exponent {exp})") from exc


def required_d_for_near_uniform(n: int) -> float:
    """log10 of the distance demanded by an ``n``-bit near-uniform claim: ``-n log10 2``."""
    return -check_scalar(check_int(n, "key length"), "key length", mode="float") * math.log10(2.0)


def guarantee_gap(
    log10_current: Number, log10_target_individual: Number, exponent: Union[str, Number]
) -> Number:
    """Orders of magnitude separating today's level from a target.

    The target is an *individual* guarantee, so the average-case level
    that delivers it is ``target / exponent``; the gap is
    ``current - required`` (positive means the current level falls short
    by that many orders).  Exact when both levels are rationals.

    For the common 10^-15 target at exponent 1/3 this puts the required
    average level at 10^-45; a looser figure of 10^-40 also circulates
    for the same standard.  Both are usable here -- pass the target and
    exponent explicitly -- and this function makes no attempt to decide
    between them.
    """
    exp = as_markov_exponent(exponent)
    current = check_scalar(log10_current, "current level log10 d", hi=0, hi_open=True)
    target = check_scalar(log10_target_individual, "target level log10 d", hi=0, hi_open=True)
    # exact only when both levels are: beside a float current level the target is read as a float
    target = check_scalar(target, "target level log10 d", mode=scalar_mode(current, target))
    return current - check_scalar(target / exp, "required average level log10 d")


def parse_security_level(text: str, mode: str = "float") -> Number:
    """Parse a distance level into log10 form, in the given numeric mode.

    Accepts a plain decimal like ``1e-20`` / ``0.001`` or the explicit
    ``log10:-301.03`` form for levels far below float range (its value is
    read by `parse_number`, so ``log10:-1/3`` works too).  Rational mode
    returns Fractions: the log10 value itself, or the 28-digit decimal
    logarithm of a plain level.  Non-finite values are refused.
    """
    text = text.strip()
    if text.startswith("log10:"):
        return check_scalar(parse_number(text[len("log10:") :], mode), "log10 of a distance level", hi=0)
    try:
        dec = Decimal(text)
    except InvalidOperation as exc:
        raise ValidationError(f"cannot parse security level {_shown(text, repr)}") from exc
    if not dec.is_finite():
        raise ValidationError(f"distance level must be finite, got {_shown(text, repr)}")
    if dec <= 0:
        raise ValidationError(f"distance level must be positive, got {_shown(text, repr)}")
    if dec > 1:
        raise ValidationError(f"distance level cannot exceed 1, got {_shown(text, repr)}")
    return check_scalar(Fraction(dec.log10()), "log10 of a distance level", mode=check_mode(mode))
