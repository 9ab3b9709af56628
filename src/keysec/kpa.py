"""Known-plaintext exposure of split keys.

When part of a running key leaks (the classic known-plaintext situation:
ciphertext XOR known plaintext reveals keystream), the attacker conditions
on the exposed part ``K1`` and guesses a target slice ``K2*`` of the rest.
For a key within statistical distance ``eps`` of uniform the *averaged*
conditional guessing probability obeys ``2^-|K2*| + eps``; this module
computes that average exactly, and also builds the witness showing that
conditioning on one specific ``K1`` value enjoys no such protection.
Every enumeration is capped by key length, per mode: the
``float_enum_bits`` and ``rational_enum_bits`` entries of
`keysec.numerics.CAPS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dist import KeyDistribution, _law, _over, _transport, _wide, statistical_distance
from .numerics import Number, ValidationError, check_cap, check_int, check_key_bits, check_scalar, scalar_mode

__all__ = [
    "KeySplit",
    "AverageGuessBound",
    "BreachWitness",
    "average_conditional_guess",
    "conditional_breach_witness",
    "eve_bit_agreement",
]


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
        object.__setattr__(self, "n1", check_int(self.n1, "split size n1"))
        object.__setattr__(self, "n2", check_int(self.n2, "split size n2"))
        check_key_bits(self.n1 + self.n2)  # before the default subset lists K2's bits
        bits = self.subset_bits
        if bits is None:
            bits = tuple(range(self.n2))
        else:
            bits = tuple(check_int(b, "subset position", lo=0, hi=self.n2) for b in bits)
            if not bits:
                raise ValidationError("target subset of K2 must be nonempty")
            if len(set(bits)) != len(bits):
                raise ValidationError(f"target subset has repeated positions: {bits}")
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
        """The value of ``K2*`` read from ``k2`` in ``[0, 2^n2)``."""
        k2 = check_int(k2, "K2 value", lo=0, hi=1 << self.n2)
        return sum(((k2 >> pos) & 1) << j for j, pos in enumerate(self.subset_bits))


class AverageGuessBound(NamedTuple):
    avg_p1: Number
    bound: Number
    holds: bool


class BreachWitness(NamedTuple):
    distribution: KeyDistribution
    worst_conditional_p: Number
    k1_value: int
    subset_value: int


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
    check_cap(f"{p.mode}_enum_bits", p.n, f"{p.mode} enumeration over 2^{p.n} keys")
    s, n2 = split.subset_size, split.n2
    nums, den = _law(p)
    # one axis per K2 bit, highest first, then K1; the target bits' axes move to the front
    target = [n2 - 1 - pos for pos in reversed(split.subset_bits)]
    order = target + [a for a in range(n2) if a not in target] + [n2]
    cube = nums.reshape((2,) * n2 + (-1,)).transpose(order).reshape(1 << s, 1 << (n2 - s), -1)
    # joint[v, k1] = P(K2* = v, K1 = k1): a sum over a slow axis adds one row at a
    # time, so each cell adds its rows in increasing K2 order, in every dtype
    joint = cube.sum(axis=1)
    avg = _over(joint.max(axis=0).sum(), den)
    bound = Fraction(1, 1 << s) + statistical_distance(p)  # the distance to the uniform law
    slack = 0 if p.mode == "rational" else 1e-9
    return AverageGuessBound(avg_p1=avg, bound=bound, holds=avg <= bound + slack)


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
    size = 1 << check_key_bits(n)
    if split.n != n:
        raise ValidationError(f"split covers {split.n} bits but the key has {n}")
    eps = check_scalar(epsilon, "distance budget", lo=0)
    mode = scalar_mode(eps)
    check_cap(f"{mode}_enum_bits", n, f"{mode} enumeration over 2^{n} keys")
    u = check_scalar(Fraction(1, size), "uniform mass", mode=mode)
    k2 = np.arange(1 << split.n2)
    hit = k2 & sum(1 << pos for pos in split.subset_bits) == 0  # K2* = 0
    receivers, donors = k2[hit] << split.n1, k2[~hit] << split.n1  # the k1 = 0 slice
    moved = min(eps, u * len(donors))
    worst = Fraction(1, 1 << split.subset_size) + moved * (1 << split.n1)
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
    check_cap(f"{p.mode}_enum_bits", p.n, f"{p.mode} enumeration over 2^{p.n} keys")
    nums, den = _law(p)
    guess = int(np.argmax(nums))  # the first, so the lowest index, on ties
    agree = p.n - np.bitwise_count(np.arange(p.size) ^ guess).astype(np.int64)
    if p.mode == "float":
        return float(np.dot(nums, agree / p.n))  # a BLAS dot, not a sum of numerators
    return _over((_wide(nums, den * p.n) * agree).sum(), den * p.n)
