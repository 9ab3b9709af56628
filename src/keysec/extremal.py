"""Extremal key distributions compatible with a distance budget.

A promise like "the key is within statistical distance eps of uniform"
still admits sharply non-ideal keys.  This module constructs the
witnesses: the spike that maximizes single-guess probability, a family
with vanishing mutual information but a heavy spike, the mixture
decomposition that pins down how much of the key is genuinely uniform,
and mass-transport maximizers for conditional-event deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dist import KeyDistribution, Lattice, _shannon_bits, _transport, _wide, statistical_distance
from .numerics import InfeasibleError, Number, ValidationError, is_rational

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
        values = frozenset(int(m) for m in members)
        if not values:
            raise ValidationError("event must contain at least one key value")
        if any(m < 0 for m in values):
            raise ValidationError("event members must be non-negative key values")
        object.__setattr__(self, "members", values)

    @classmethod
    def from_text(cls, text: str) -> "EventSpec":
        """Parse a comma-separated member list like ``"0,1,5"``."""
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValidationError(f"cannot parse event {text!r}: {exc}") from exc

    def validate_for(self, n: int) -> None:
        top = max(self.members)
        if top >= 1 << n:
            raise ValidationError(f"event member {top} outside the {n}-bit key space")

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
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"key length must be a positive integer, got {n!r}")
    size = 1 << n
    if not 0 <= at < size:
        raise ValidationError(f"spike location {at} outside [0, {size})")
    if isinstance(epsilon, str):
        epsilon = Fraction(epsilon)
    if is_rational(epsilon):
        eps = Fraction(epsilon)
        if eps < 0:
            raise ValidationError(f"distance budget must be non-negative, got {eps}")
        if eps > Fraction(size - 1, size):
            raise InfeasibleError(
                f"distance {eps} from uniform is impossible on {size} values "
                f"(maximum is {Fraction(size - 1, size)})"
            )
        peak = Fraction(1, size) + eps
        other = Fraction(1, size) - eps / (size - 1)
        den = math.lcm(peak.denominator, other.denominator)
        nums = [other.numerator * (den // other.denominator)] * size
        nums[at] = peak.numerator * (den // peak.denominator)
        law = Lattice(nums, den)
    else:
        eps = float(epsilon)
        if eps < 0:
            raise ValidationError(f"distance budget must be non-negative, got {eps}")
        if eps > (size - 1) / size + 1e-12:
            raise InfeasibleError(
                f"distance {eps} from uniform is impossible on {size} values "
                f"(maximum is {(size - 1) / size})"
            )
        eps = min(eps, (size - 1) / size)
        peak = 1.0 / size + eps
        other = 1.0 / size - eps / (size - 1)
        law = np.full(size, other)
        law[at] = peak
    return SpikeResult(distribution=KeyDistribution(n, law), p1=peak, distance=eps)


def construct_low_info_high_guess(n: int, lam: float) -> LowInfoFamily:
    """Family where an eavesdropper learns almost nothing yet guesses well.

    The spiked value carries ``p1 = 2**(-lam * n)``; the rest is uniform.
    The information in the key's non-uniformity, ``n - H(P)``, is bounded
    by ``n * 2**(-lam * n)`` and so vanishes as ``n`` grows -- while the
    guessing probability ``p1`` stays exponentially larger than the ideal
    ``2**-n`` whenever ``lam < 1``.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"key length must be a positive integer, got {n!r}")
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise ValidationError(f"decay rate must be in (0, 1], got {lam!r}")
    if lam * n < 1.0:
        raise InfeasibleError(
            f"spike 2**(-{lam}*{n}) exceeds 1/2; need lam * n >= 1 for a valid distribution"
        )
    size = 1 << n
    p1 = 2.0 ** (-lam * n)
    rest = (1.0 - p1) / (size - 1)
    law = np.full(size, rest)
    law[0] = p1
    dist = KeyDistribution(n, law)
    info = n - _shannon_bits(law)
    bound = n * p1
    if info > bound + 1e-9:
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
    distribution is converted to its exact binary value.
    """
    size = p.size
    if p.mode == "rational":
        lam_x = Fraction(lam)
        if not 0 <= lam_x <= 1:
            raise ValidationError(f"mixture weight must be in [0, 1], got {lam_x}")
        lo = (1 - lam_x) / size
        hi = lam_x + lo
        nums, den = p.lattice
        if Fraction(int(nums.min()), den) < lo or Fraction(int(nums.max()), den) > hi:
            return None
        if lam_x == 0:
            residual = KeyDistribution.uniform(p.n, mode="rational")
        else:
            # (num/den - lo) / lam over the denominator den * lo.den * lam.num
            scale = lo.denominator * lam_x.denominator
            shifted = _wide(nums, den * scale) * scale - lo.numerator * lam_x.denominator * den
            residual = KeyDistribution(p.n, Lattice(shifted, den * lo.denominator * lam_x.numerator))
        return MixtureDecomposition(uniform_weight=1 - lam_x, residual=residual)
    lam_f = float(lam)
    if not -1e-12 <= lam_f <= 1 + 1e-12:
        raise ValidationError(f"mixture weight must be in [0, 1], got {lam_f}")
    lam_f = min(max(lam_f, 0.0), 1.0)
    lo = (1.0 - lam_f) / size
    hi = lam_f + lo
    slack = 1e-12
    law = p.as_array()
    if law.min() < lo - slack or law.max() > hi + slack:
        return None
    if lam_f == 0.0:
        residual = KeyDistribution.uniform(p.n)
    else:
        shifted = law - lo
        raw = np.where(shifted < 0.0, 0.0, shifted) / lam_f  # max(x, 0.0) keeps -0.0
        total = sum(raw.tolist())  # left to right, as the scalar formula
        residual = KeyDistribution(p.n, raw / total)
    return MixtureDecomposition(uniform_weight=1.0 - lam_f, residual=residual)


def _uniform_mass(count: int, size: int, exact: bool) -> Number:
    return Fraction(count, size) if exact else count / size


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
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"key length must be a positive integer, got {n!r}")
    event.validate_for(n)
    sub_event.validate_for(n)
    if not sub_event.issubset(event):
        raise ValidationError("sub-event must be contained in the conditioning event")
    if isinstance(epsilon, str):
        epsilon = Fraction(epsilon)
    exact = is_rational(epsilon)
    eps = Fraction(epsilon) if exact else float(epsilon)
    if eps < 0:
        raise ValidationError(f"distance budget must be non-negative, got {eps}")
    size = 1 << n
    inside = sub_event.sorted_members()
    complement = sorted(event.members - sub_event.members)
    u_event = _uniform_mass(len(event), size, exact)
    u_sub = _uniform_mass(len(inside), size, exact)
    u_comp = _uniform_mass(len(complement), size, exact)

    # moving m inside A changes P(B|A) by exactly m / U(A)
    move_up = min(eps, u_comp)
    move_down = min(eps, u_sub) if complement else (Fraction(0) if exact else 0.0)
    if move_up >= move_down:
        donors, receivers, moved = complement, inside, move_up
    else:
        donors, receivers, moved = inside, complement, move_down

    law = _transport(size, donors, receivers, moved)
    return ConditionalDeviation(distribution=KeyDistribution(n, law), deviation=moved / u_event)


def check_event_bound(p: KeyDistribution, q: KeyDistribution, event: EventSpec) -> EventBoundReport:
    """Report ``|P(A) - Q(A)|`` against the statistical distance.

    The gap can never exceed the distance; ``holds`` is the verdict
    (with a 1e-12 slack on the float path).
    """
    if p.n != q.n:
        raise ValidationError(f"bit lengths differ: {p.n} vs {q.n}")
    event.validate_for(p.n)
    gap = abs(p.prob_of(event.members) - q.prob_of(event.members))
    distance = statistical_distance(p, q)
    if isinstance(gap, Fraction) and isinstance(distance, Fraction):
        holds = gap <= distance
    else:
        holds = float(gap) <= float(distance) + 1e-12
    return EventBoundReport(gap=gap, distance=distance, holds=holds)
