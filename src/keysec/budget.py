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

from .numerics import Number, ValidationError, is_rational, parse_number

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

    Strings like ``"1/3"`` are exact; floats are matched within 1e-12.
    Anything else -- notably 1/4 -- is rejected: iterating the tail bound
    twice buys the cube root, and no further.
    """
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse exponent {value!r}") from exc
    if is_rational(value):
        frac = Fraction(value)
        if frac in MARKOV_EXPONENTS:
            return frac
    else:
        for frac in MARKOV_EXPONENTS:
            if abs(float(value) - float(frac)) <= 1e-12:
                return frac
    raise ValidationError(
        f"exponent {value!r} is not admissible: the average-to-individual "
        "conversion supports only 1, 1/2, 1/3 (in particular not 1/4)"
    )


@dataclass(frozen=True)
class LogBudget:
    """A security level ``log10_d <= 0`` with its conversion exponent."""

    log10_d: Number
    markov_exponent: Fraction = Fraction(1)

    def __post_init__(self):
        if self.log10_d > 0:
            raise ValidationError(f"log10 of a distance level cannot be positive, got {self.log10_d!r}")
        object.__setattr__(self, "markov_exponent", as_markov_exponent(self.markov_exponent))


class AccumulatedFailure(NamedTuple):
    rounds: float
    log10_total: float


def markov_tail_bound(mean: Number, threshold: Number) -> Number:
    """Tail bound ``Pr[Z >= threshold] <= min(1, mean / threshold)`` for Z >= 0."""
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold!r}")
    if mean < 0:
        raise ValidationError(f"mean of a non-negative variable cannot be {mean!r}")
    ratio = (
        Fraction(mean) / Fraction(threshold)
        if is_rational(mean) and is_rational(threshold)
        else float(mean) / float(threshold)
    )
    if ratio >= 1:
        return Fraction(1) if isinstance(ratio, Fraction) else 1.0
    return ratio


def individual_level(budget: LogBudget) -> Number:
    """Per-instance level after the Markov conversion: ``log10_d * exponent``.

    An average-case ``d`` only caps the *expected* deviation; the chance
    that a single run misbehaves is bounded via the tail bound, at the
    price of a square or cube root -- i.e. the log10 level shrinks by the
    exponent factor.
    """
    if is_rational(budget.log10_d):
        return Fraction(budget.log10_d) * budget.markov_exponent
    return float(budget.log10_d) * float(budget.markov_exponent)


def accumulated_failure(
    log10_d_round: Number, rounds_per_second: Number, seconds: Number
) -> AccumulatedFailure:
    """Union-bound total over repeated rounds, in log10.

    ``rounds = rate * seconds``; the total failure level is
    ``log10_d_round + log10(rounds)``, capped at 0 (a probability bound
    never exceeds 1).
    """
    if rounds_per_second <= 0 or seconds <= 0:
        raise ValidationError("rate and duration must be positive")
    if log10_d_round > 0:
        raise ValidationError(f"per-round level must satisfy log10 d <= 0, got {log10_d_round!r}")
    rounds = float(rounds_per_second) * float(seconds)
    total = float(log10_d_round) + math.log10(rounds)
    return AccumulatedFailure(rounds=rounds, log10_total=min(total, 0.0))


def near_uniform_bits(log10_d: Number, exponent: Union[str, Number] = Fraction(1)) -> int:
    """Longest key length honestly callable near-uniform at this level.

    Near-uniform at length ``n`` asks for a distance around ``2^-n``; the
    answer is ``floor(-log10_d * exponent * log2(10))``, with the exponent
    applying the average-to-individual conversion first.  A 1e-9 nudge
    absorbs float round-off so exact powers of two invert cleanly
    (e.g. ``log10_d = -15`` must yield 49, not 48).
    """
    if log10_d >= 0:
        raise ValidationError(f"need log10 d < 0, got {log10_d!r}")
    exp = as_markov_exponent(exponent)
    value = -float(log10_d) * float(exp) * math.log2(10.0)
    return int(math.floor(value + 1e-9))


def required_d_for_near_uniform(n: int) -> float:
    """log10 of the distance demanded by an ``n``-bit near-uniform claim: ``-n log10 2``."""
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"key length must be a positive integer, got {n!r}")
    return -n * math.log10(2.0)


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
    if log10_current >= 0 or log10_target_individual >= 0:
        raise ValidationError("levels must satisfy log10 d < 0")
    if is_rational(log10_current) and is_rational(log10_target_individual):
        required = Fraction(log10_target_individual) / exp
        return Fraction(log10_current) - required
    required = float(log10_target_individual) / float(exp)
    return float(log10_current) - required


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
        value = parse_number(text[len("log10:") :], mode)
        if isinstance(value, float) and not math.isfinite(value):  # Fractions are finite
            raise ValidationError(f"log10 of a distance level must be finite: {text!r}")
        if value > 0:
            raise ValidationError(f"log10 of a distance level cannot be positive: {text!r}")
        return value
    try:
        dec = Decimal(text)
    except InvalidOperation as exc:
        raise ValidationError(f"cannot parse security level {text!r}") from exc
    if not dec.is_finite():
        raise ValidationError(f"distance level must be finite, got {text!r}")
    if dec <= 0:
        raise ValidationError(f"distance level must be positive, got {text!r}")
    if dec > 1:
        raise ValidationError(f"distance level cannot exceed 1, got {text!r}")
    return Fraction(dec.log10()) if mode == "rational" else float(dec.log10())
