"""Known-plaintext exposure of split keys.

When part of a running key leaks (the classic known-plaintext situation:
ciphertext XOR known plaintext reveals keystream), the attacker conditions
on the exposed part ``K1`` and guesses a target slice ``K2*`` of the rest.
For a key within statistical distance ``eps`` of uniform the *averaged*
conditional guessing probability obeys ``2^-|K2*| + eps``; this module
computes that average exactly, and also builds the witness showing that
conditioning on one specific ``K1`` value enjoys no such protection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .dist import KeyDistribution, _transport, _wide, statistical_distance
from .numerics import Number, ResourceLimitError, ValidationError, is_rational

__all__ = [
    "KeySplit",
    "AverageGuessBound",
    "BreachWitness",
    "average_conditional_guess",
    "conditional_breach_witness",
    "eve_bit_agreement",
    "FLOAT_ENUM_BITS",
    "RATIONAL_ENUM_BITS",
]

#: enumeration caps: 2^20 conditional tables stay desk-scale in floats,
#: exact rational accumulation is kept to 2^12
FLOAT_ENUM_BITS = 20
RATIONAL_ENUM_BITS = 12


@dataclass(frozen=True)
class KeySplit:
    """Split ``K = K1 || K2`` with a target subset of ``K2``'s bits.

    ``K1`` is the low ``n1`` bits of the key integer and ``K2`` the high
    ``n2`` bits.  ``subset_bits`` are positions inside ``K2`` (0-based)
    whose bits form the guessing target ``K2*``; omitted means all of
    ``K2``.
    """

    n1: int
    n2: int
    subset_bits: tuple = field(default=None)

    def __post_init__(self):
        if not (isinstance(self.n1, int) and isinstance(self.n2, int)):
            raise ValidationError("split sizes must be integers")
        if self.n1 < 1 or self.n2 < 1:
            raise ValidationError(f"both split parts need at least one bit, got {self.n1}|{self.n2}")
        bits = self.subset_bits
        if bits is None:
            bits = tuple(range(self.n2))
        else:
            bits = tuple(int(b) for b in bits)
            if not bits:
                raise ValidationError("target subset of K2 must be nonempty")
            if len(set(bits)) != len(bits):
                raise ValidationError(f"target subset has repeated positions: {bits}")
            if any(b < 0 or b >= self.n2 for b in bits):
                raise ValidationError(f"subset positions {bits} outside K2's {self.n2} bits")
            bits = tuple(sorted(bits))
        object.__setattr__(self, "subset_bits", bits)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def subset_size(self) -> int:
        return len(self.subset_bits)

    def k1_of(self, k: int) -> int:
        return k & ((1 << self.n1) - 1)

    def k2_of(self, k: int) -> int:
        return k >> self.n1

    def subset_value(self, k2: int) -> int:
        v = 0
        for j, pos in enumerate(self.subset_bits):
            v |= ((k2 >> pos) & 1) << j
        return v


class AverageGuessBound(NamedTuple):
    avg_p1: Number
    bound: Number
    holds: bool


class BreachWitness(NamedTuple):
    distribution: KeyDistribution
    worst_conditional_p: Number
    k1_value: int
    subset_value: int


def _subset_values(split: KeySplit, k2: np.ndarray) -> np.ndarray:
    """`KeySplit.subset_value` of every entry of ``k2``."""
    sub = np.zeros_like(k2)
    for j, pos in enumerate(split.subset_bits):
        sub |= ((k2 >> pos) & 1) << j
    return sub


def _check_cap(n: int, mode: str) -> None:
    cap = RATIONAL_ENUM_BITS if mode == "rational" else FLOAT_ENUM_BITS
    if n > cap:
        raise ResourceLimitError(
            f"enumeration over {n}-bit keys exceeds the {cap}-bit cap in {mode} mode"
        )


def average_conditional_guess(p: KeyDistribution, split: KeySplit) -> AverageGuessBound:
    """Averaged best guess of ``K2*`` given ``K1``, against its distance bound.

    Computes ``sum_{k1} max_v P(K2* = v, K1 = k1)`` by exact enumeration.
    The sum is the K1-marginal-weighted average of the best conditional
    guessing probability (Bayes: the marginal weight cancels against the
    conditioning denominator), and can never exceed
    ``2^-|K2*| + delta(P, U)``.

    Returns the average, the bound, and the comparison verdict (exact in
    rational mode, 1e-9 slack in float mode).
    """
    if split.n != p.n:
        raise ValidationError(f"split covers {split.n} bits but the key has {p.n}")
    _check_cap(p.n, p.mode)
    s, width = split.subset_size, 1 << split.n1
    exact = p.mode == "rational"
    law = p.lattice.nums if exact else p.as_array()
    # joint[v, k1] = P(K2* = v, K1 = k1): rows of the (K2, K1) table added in K2 order
    joint = np.zeros((1 << s, width), dtype=law.dtype)
    np.add.at(joint, _subset_values(split, np.arange(1 << split.n2)), law.reshape(-1, width))
    best = joint.max(axis=0).sum()
    delta = statistical_distance(p)  # to the uniform law
    if exact:
        avg = Fraction(int(best), p.lattice.den)
        bound = Fraction(1, 1 << s) + delta
        return AverageGuessBound(avg_p1=avg, bound=bound, holds=avg <= bound)
    avg, bound = float(best), 1.0 / (1 << s) + delta
    return AverageGuessBound(avg_p1=avg, bound=bound, holds=avg <= bound + 1e-9)


def conditional_breach_witness(n: int, epsilon: Number, split: KeySplit) -> BreachWitness:
    """Key within ``epsilon`` of uniform whose ``K1 = 0`` slice betrays ``K2*``.

    Starting from uniform, moves probability inside the ``k1 = 0`` slice
    onto the key values with ``K2* = 0``, spending at most ``epsilon`` of
    statistical distance.  The slice's conditional guessing probability
    becomes ``2^-|K2*| + moved * 2^n1`` -- the distance budget amplified
    by the rarity ``2^-n1`` of the conditioning event -- and reaches 1
    when the budget covers the slice.  Budgets beyond that are clipped to
    the feasible maximum rather than rejected.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"key length must be a positive integer, got {n!r}")
    if split.n != n:
        raise ValidationError(f"split covers {split.n} bits but the key has {n}")
    if isinstance(epsilon, str):
        epsilon = Fraction(epsilon)
    exact = is_rational(epsilon)
    eps = Fraction(epsilon) if exact else float(epsilon)
    if eps < 0:
        raise ValidationError(f"distance budget must be non-negative, got {eps}")
    _check_cap(n, "rational" if exact else "float")
    size = 1 << n
    u = Fraction(1, size) if exact else 1.0 / size
    k2 = np.arange(1 << split.n2)
    hit = _subset_values(split, k2) == 0
    receivers, donors = k2[hit] << split.n1, k2[~hit] << split.n1  # the k1 = 0 slice
    moved = min(eps, u * len(donors))
    s = split.subset_size
    if exact:
        worst = Fraction(1, 1 << s) + moved * (1 << split.n1)
    else:
        worst = 1.0 / (1 << s) + moved * (1 << split.n1)
    return BreachWitness(
        distribution=KeyDistribution(n, _transport(size, donors, receivers, moved)),
        worst_conditional_p=worst,
        k1_value=0,
        subset_value=0,
    )


def eve_bit_agreement(p: KeyDistribution) -> Number:
    """Expected fraction of key bits matching the single best guess.

    The guess is the most probable key value (lowest index on ties); the
    result is ``sum_k P(k) * (n - hamming(k XOR guess)) / n``.  Even an
    attacker far from identifying the whole key can align most bits --
    this is the quantity a bitwise-error-rate argument has to bound.
    """
    _check_cap(p.n, p.mode)
    exact = p.mode == "rational"
    law = p.lattice.nums if exact else p.as_array()
    guess = int(np.argmax(law))  # the first, so the lowest index, on ties
    agree = p.n - np.bitwise_count(np.arange(p.size) ^ guess).astype(np.int64)
    if not exact:
        return float(np.dot(law, agree / p.n))
    den = p.lattice.den * p.n
    return Fraction(int((_wide(law, den) * agree).sum()), den)
