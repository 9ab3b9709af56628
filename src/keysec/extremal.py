"""Extremal key distributions compatible with a distance budget.

A promise like "the key is within statistical distance eps of uniform"
still admits sharply non-ideal keys.  This module constructs the
witnesses: the spike that maximizes single-guess probability, a family
with vanishing mutual information but a heavy spike, the mixture
decomposition that pins down how much of the key is genuinely uniform,
and mass-transport maximizers for conditional-event deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dist import (KeyDistribution, _in_order, _law, _over, _shannon_bits, _transport, _wide,
                   statistical_distance)
from .numerics import (InfeasibleError, Number, ValidationError, _shown, check_int, check_key_bits, check_scalar,
                       parse_int, scalar_mode, slack)

__all__ = [
    "EventSpec",
    "SpikeResult",
    "LowInfoFamily",
    "MixtureDecomposition",
    "ConditionalDeviation",
    "EventBoundReport",
    "construct_spike",
    "construct_low_info_high_guess",
    "check_mixture_decomposition",
    "max_conditional_deviation",
    "check_event_bound",
]


@dataclass(frozen=True)
class EventSpec:
    """A set of key values, given as integer indices."""

    members: frozenset

    def __init__(self, members):
        members = list(members)  # `from_text` passes a generator
        if set(map(type, members)) == {int} and min(members) >= 0:
            values = frozenset(members)
        else:  # bools, numpy integers, other types, negative members or none: check each
            values = frozenset(check_int(m, "event member", lo=0) for m in members)
        if not values:
            raise ValidationError("event must contain at least one key value")
        object.__setattr__(self, "members", values)

    @classmethod
    def from_text(cls, text: str) -> "EventSpec":
        """Parse a comma-separated member list like ``"0,1,5"``."""
        return cls(parse_int(part, "event member") for part in text.split(","))

    def validate_for(self, n: int) -> None:
        top = max(self.members)
        if top >= 1 << n:
            raise ValidationError(f"event member {_shown(top)} outside the {n}-bit key space")

    def sorted_members(self) -> list:
        return sorted(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, k: int) -> bool:
        return k in self.members

    def issubset(self, other: "EventSpec") -> bool:
        return self.members.issubset(other.members)


class SpikeResult(NamedTuple):
    distribution: KeyDistribution
    p1: Number
    distance: Number


class LowInfoFamily(NamedTuple):
    distribution: KeyDistribution
    p1: Number
    info_bits: float
    info_bound_bits: float


class MixtureDecomposition(NamedTuple):
    uniform_weight: Number
    residual: KeyDistribution


class ConditionalDeviation(NamedTuple):
    distribution: KeyDistribution
    deviation: Number


class EventBoundReport(NamedTuple):
    gap: Number
    distance: Number
    holds: bool


def construct_spike(n: int, epsilon: Number, at: int = 0) -> SpikeResult:
    """Distribution at distance exactly ``epsilon`` from uniform with maximal spike.

    Puts ``1/N + epsilon`` on key value ``at`` and spreads the deficit
    evenly over the other ``N - 1`` values.  Among all distributions with
    statistical distance at most ``epsilon`` from uniform, this one has
    the largest single-guess probability, so it witnesses that a distance
    guarantee alone caps guessing no better than ``1/N + epsilon``.

    Parameters
    ----------
    n : int
        Key length in bits.
    epsilon : Number
        Distance budget; feasible range is ``[0, (N-1)/N]``.  A `Fraction`
        (or int, or numeric string) selects the exact backend.
    at : int
        Index of the spiked key value.

    Raises
    ------
    InfeasibleError
        If ``epsilon`` exceeds ``(N-1)/N``, the largest achievable
        distance from uniform.
    """
    size = 1 << check_key_bits(n)
    at = check_int(at, "spike location", lo=0, hi=size)
    eps = check_scalar(epsilon, "distance budget", lo=0)
    mode = scalar_mode(eps)
    top = check_scalar(Fraction(size - 1, size), "largest distance", mode=mode)
    if eps > top + slack("rounding", eps):
        raise InfeasibleError(
            f"distance {_shown(eps)} from uniform is impossible on {size} values (maximum is {top})"
        )
    law, moved = _transport(n, np.delete(np.arange(size), at), [at], eps)
    return SpikeResult(distribution=law, p1=Fraction(1, size) + moved, distance=moved)


def construct_low_info_high_guess(n: int, lam: float) -> LowInfoFamily:
    """Family where an eavesdropper learns almost nothing yet guesses well.

    The spiked value carries ``p1 = 2**(-lam * n)``; the rest is uniform.
    The information in the key's non-uniformity, ``n - H(P)``, is bounded
    by ``n * 2**(-lam * n)`` and so vanishes as ``n`` grows -- while the
    guessing probability ``p1`` stays exponentially larger than the ideal
    ``2**-n`` whenever ``lam < 1``.
    """
    check_key_bits(n)
    lam = check_scalar(lam, "decay rate", lo=0, hi=1, mode="float", lo_open=True)
    if lam * n < 1.0:
        raise InfeasibleError(
            f"spike 2**(-{lam}*{n}) exceeds 1/2; need lam * n >= 1 for a valid distribution"
        )
    size = 1 << n
    p1 = 2.0 ** (-lam * n)
    rest = (1.0 - p1) / (size - 1)
    law = np.full(size, rest)
    law[0] = p1
    dist = KeyDistribution._built(n, law)
    info = n - _shannon_bits(law)
    bound = n * p1
    if info > bound + slack("bits", info):
        raise RuntimeError(
            f"internal check failed: information {info} exceeds bound {bound}"
        )
    return LowInfoFamily(distribution=dist, p1=p1, info_bits=max(info, 0.0), info_bound_bits=bound)


def check_mixture_decomposition(p: KeyDistribution, lam: Number) -> MixtureDecomposition | None:
    """Try to write ``p = (1 - lam) * uniform + lam * residual``.

    Such a decomposition exists iff every entry satisfies
    ``(1 - lam)/N <= p_k <= lam + (1 - lam)/N``: the key behaves as
    "perfectly uniform with probability ``1 - lam``, arbitrary with
    probability ``lam``".  Returns the decomposition, or None when the
    bounds fail.

    The backend follows ``p``; a float ``lam`` passed against an exact
    distribution is converted to its exact binary value.  On the float path
    ``lam`` may leave ``[0, 1]`` by the ``rounding`` slack, and an entry its
    bounds by the ``total`` slack, the one the law was accepted with.
    """
    size = p.size
    rounding = slack("rounding", p)
    lam = check_scalar(lam, "mixture weight", lo=-rounding, hi=1 + rounding, mode=p.mode)
    lam = min(max(lam, 0.0), 1.0)  # a float within the slack onto [0, 1]; exact weights pass as they are
    lo = (1 - lam) / size
    hi = lam + lo
    nums, den = _law(p)
    tol = slack("total", p)
    if _over(nums.min(), den) < lo - tol or _over(nums.max(), den) > hi + tol:
        return None
    if lam and p.mode == "rational":
        # (num/den - lo) / lam over the denominator den * lo.den * lam.num
        scale = lo.denominator * lam.denominator
        shifted = _wide(nums, den * scale) * scale - lo.numerator * lam.denominator * den
        return MixtureDecomposition(1 - lam, KeyDistribution._built(p.n, shifted, den * lo.denominator * lam.numerator))
    if lam:
        shifted = np.maximum(nums - lo, 0.0)
        with np.errstate(over="ignore"):  # a shift / lam past the float range is normalised as it is
            raw = shifted / lam
            total = _in_order(raw)  # summed left to right, as the scalar formula
        raw, total = (raw, total) if np.isfinite(total) else (shifted, _in_order(shifted))
        if total:
            return MixtureDecomposition(1 - lam, KeyDistribution(p.n, raw / total))
    return MixtureDecomposition(1 - lam, KeyDistribution.uniform(p.n, p.mode))  # lam = 0, or a shift rounded to 0


def max_conditional_deviation(
    n: int, epsilon: Number, event: EventSpec, sub_event: EventSpec
) -> ConditionalDeviation:
    """Worst conditional-probability shift a distance budget allows.

    Over all ``P`` with statistical distance at most ``epsilon`` from
    uniform, maximizes ``|P(B | A) - U(B | A)|`` for ``B`` a sub-event of
    ``A`` and returns an achieving distribution.  The optimum transports
    mass *inside* ``A``: raising ``P(B|A)`` moves ``min(eps, U(A\\B))``
    from ``A\\B`` onto ``B``; lowering it moves ``min(eps, U(B))`` the
    other way.  Division by ``P(A)`` is what makes the damage scale like
    ``epsilon / U(A)`` rather than ``epsilon``: conditioning on a rare
    event amplifies a small distance guarantee.

    Ties between the raising and lowering directions resolve to raising.
    """
    size = 1 << check_key_bits(n)
    event.validate_for(n)
    sub_event.validate_for(n)
    if not sub_event.issubset(event):
        raise ValidationError("sub-event must be contained in the conditioning event")
    eps = check_scalar(epsilon, "distance budget", lo=0)
    u_event = check_scalar(Fraction(len(event), size), "uniform mass", mode=scalar_mode(eps))
    inside = sub_event.sorted_members()
    complement = sorted(event.members - sub_event.members)
    # moving m inside A changes P(B|A) by exactly m / U(A); with A \ B empty nothing moves. Lowering moves
    # more only when B is the larger part and eps > U(A \ B), that is eps * 2^n > |A \ B|: exact in both modes.
    lower = 0 < len(complement) < len(inside) and eps * size > len(complement)
    law, moved = _transport(n, *((inside, complement) if lower else (complement, inside)), eps)
    return ConditionalDeviation(distribution=law, deviation=moved / u_event)


def check_event_bound(p: KeyDistribution, q: KeyDistribution, event: EventSpec) -> EventBoundReport:
    """Report ``|P(A) - Q(A)|`` against the statistical distance.

    The gap can never exceed the distance; ``holds`` is the verdict, with the
    ``total`` slack on the float path: a float law's total may miss 1 by that
    much, and the gap can exceed the distance by half the difference of the
    two totals.
    """
    distance = statistical_distance(p, q)  # refuses laws of different bit lengths
    event.validate_for(p.n)
    gap = abs(p.prob_of(event.members) - q.prob_of(event.members))
    holds = gap <= distance + slack("total", p, q)
    return EventBoundReport(gap=gap, distance=distance, holds=holds)
