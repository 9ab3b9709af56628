"""Split-key conditioning: averaged guess bound, breach witness, bit agreement.

Frozen values come from a dictionary-grouping oracle
(`_oracles.avg_guess_oracle`) that never touches the package's numpy
path.
"""

import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

import _oracles as oracles
from conftest import random_float_probs, random_rational_probs
from keysec import (
    KeyDistribution,
    KeySplit,
    Lattice,
    ResourceLimitError,
    ValidationError,
    average_conditional_guess,
    conditional_breach_witness,
    eve_bit_agreement,
    statistical_distance,
)

# 3-bit key, mildly non-uniform; tv distance from uniform is exactly 1/8
P8 = [F(3, 16), F(1, 16), F(2, 16), F(2, 16), F(1, 16), F(3, 16), F(2, 16), F(2, 16)]


def test_key_split_validation():
    s = KeySplit(1, 2)
    assert s.n == 3 and s.subset_size == 2
    assert KeySplit(1, 2, (1,)).subset_size == 1
    with pytest.raises(ValidationError):
        KeySplit(0, 2)
    with pytest.raises(ValidationError):
        KeySplit(1, 2, (2,))  # position outside K2
    with pytest.raises(ValidationError):
        KeySplit(1, 2, (0, 0))  # duplicate positions
    with pytest.raises(ValidationError, match="^target subset of K2 must be nonempty$"):
        KeySplit(1, 2, ())
    with pytest.raises(ValidationError, match="^split covers 6 bits but the key has 4$"):
        conditional_breach_witness(4, F(1, 10), KeySplit(3, 3))
    with pytest.raises(ValidationError):
        average_conditional_guess(KeyDistribution(3, P8), KeySplit(2, 2))


def test_split_helpers():
    s = KeySplit(2, 3, (0, 2))
    key = 0b10110
    assert s.k1_of(key) == 0b10
    assert s.k2_of(key) == 0b101
    assert s.subset_value(s.k2_of(key)) == 0b11  # bits 0 and 2 of k2 = 101
    assert [s.subset_value(k) for k in range(8)] == [0, 1, 0, 1, 2, 3, 2, 3]
    assert s.subset_value(np.uint8(5)) == 0b11
    for bad in (-1, 8):
        with pytest.raises(ValidationError, match=re.escape(f"K2 value {bad} outside [0, 8)")):
            s.subset_value(bad)


def test_average_guess_frozen():
    res = average_conditional_guess(KeyDistribution(3, P8), KeySplit(1, 2))
    assert res.avg_p1 == F(3, 8)
    assert res.bound == F(3, 8)  # 2^-2 + 1/8: the bound is tight here
    assert res.holds
    sub = average_conditional_guess(KeyDistribution(3, P8), KeySplit(1, 2, (1,)))
    assert sub.avg_p1 == F(5, 8) and sub.bound == F(5, 8) and sub.holds


def test_average_guess_uniform_equality():
    for n1, n2 in ((1, 2), (2, 1), (2, 2)):
        u = KeyDistribution.uniform(n1 + n2, mode="rational")
        res = average_conditional_guess(u, KeySplit(n1, n2))
        assert res.avg_p1 == F(1, 1 << n2) == res.bound
        assert res.holds


def test_average_guess_matches_oracle_random(rng):
    for _ in range(25):
        n = rng.randint(2, 6)
        probs = random_rational_probs(rng, 1 << n)
        n1 = rng.randint(1, n - 1)
        n2 = n - n1
        positions = tuple(sorted(rng.sample(range(n2), rng.randint(1, n2))))
        res = average_conditional_guess(KeyDistribution(n, probs), KeySplit(n1, n2, positions))
        assert res.avg_p1 == oracles.avg_guess_oracle(probs, n1, n2, positions)
        assert res.holds


def test_average_guess_float_path_matches_rational(rng):
    for _ in range(10):
        n = rng.randint(2, 8)
        probs = random_rational_probs(rng, 1 << n)
        split = KeySplit(1, n - 1)
        exact = average_conditional_guess(KeyDistribution(n, probs), split)
        approx = average_conditional_guess(
            KeyDistribution(n, [float(p) for p in probs]), split
        )
        assert approx.avg_p1 == pytest.approx(float(exact.avg_p1), abs=1e-12)


def test_breach_witness_documented():
    res = conditional_breach_witness(4, F(1, 4), KeySplit(2, 2))
    assert res.worst_conditional_p == 1
    u = KeyDistribution.uniform(4, mode="rational")
    assert statistical_distance(res.distribution, u) == F(3, 16)
    # the averaged bound still holds on the same distribution
    avg = average_conditional_guess(res.distribution, KeySplit(2, 2))
    assert avg.holds and avg.avg_p1 == F(7, 16) == avg.bound


def test_breach_witness_small_budget():
    res = conditional_breach_witness(4, F(1, 32), KeySplit(2, 2))
    # all of eps can move inside the slice: worst = 1/4 + eps * 2^n1
    assert res.worst_conditional_p == F(1, 4) + F(1, 32) * 4
    u = KeyDistribution.uniform(4, mode="rational")
    assert statistical_distance(res.distribution, u) <= F(1, 32)
    assert res.k1_value == 0 and res.subset_value == 0


def test_breach_witness_verifies_conditionally(rng):
    # check the claimed conditional probability directly from the joint law
    res = conditional_breach_witness(3, F(1, 10), KeySplit(1, 2))
    probs = res.distribution.probs
    k1 = res.k1_value
    slice_mass = sum(probs[k] for k in range(8) if (k & 1) == k1)
    hit_mass = sum(
        probs[k] for k in range(8) if (k & 1) == k1 and (k >> 1) == res.subset_value
    )
    assert hit_mass / slice_mass == res.worst_conditional_p


def test_kpa_kernels_run_one_bit_past_the_retired_enumeration_caps(rng):
    # rational n = 13 and float n = 21 were refused by per-mode caps; key_bits alone bounds them now
    probs = random_rational_probs(rng, 1 << 13, 10**6)
    p = KeyDistribution(13, probs)
    for split in (KeySplit(6, 7), KeySplit(1, 12, (0, 5, 11))):
        res = average_conditional_guess(p, split)
        assert res.avg_p1 == oracles.avg_guess_oracle(probs, split.n1, split.n2, split.subset_bits)
        assert res.holds
    assert eve_bit_agreement(p) == oracles.ref_bit_agreement(probs, 13)
    res = conditional_breach_witness(13, F(1, 100), KeySplit(6, 7, (2, 4)))
    nums, den = res.distribution.lattice
    slice_ = nums[::1 << 6]  # the k1 = 0 slice, indexed by K2
    assert res.worst_conditional_p == F(1, 4) + F(1, 100) * (1 << 6)
    assert F(int(slice_[np.arange(1 << 7) & 0b10100 == 0].sum()), int(slice_.sum())) == res.worst_conditional_p
    assert statistical_distance(res.distribution) == F(1, 100)

    uniform = KeyDistribution.uniform(21)
    for split in (KeySplit(1, 20), KeySplit(10, 11, (0, 3, 10))):
        assert average_conditional_guess(uniform, split).avg_p1 == 2.0**-split.subset_size
    assert eve_bit_agreement(uniform) == pytest.approx(0.5, rel=1e-12)
    res = conditional_breach_witness(21, 1 / 16, KeySplit(1, 20))
    assert res.worst_conditional_p == 2.0**-20 + 1 / 16 * 2
    law = res.distribution.as_array()
    assert law[0] / law[::2].sum() == pytest.approx(res.worst_conditional_p, rel=1e-12)

    with pytest.raises(ResourceLimitError, match=r"needs 25 bits, over the key_bits cap of 24 bits$"):
        KeySplit(12, 13)


def test_eve_bit_agreement_frozen():
    assert eve_bit_agreement(KeyDistribution(3, P8)) == F(1, 2)
    assert eve_bit_agreement(KeyDistribution.point_mass(3, at=5, mode="rational")) == 1
    assert eve_bit_agreement(KeyDistribution.uniform(4, mode="rational")) == F(1, 2)


def test_eve_bit_agreement_spiky_beats_uniform(rng):
    # mass concentrated on one value pushes agreement above 1/2
    from keysec import construct_spike

    spike = construct_spike(4, F(2, 5)).distribution
    assert eve_bit_agreement(spike) > F(1, 2)


def test_average_guess_float_random_bound(rng):
    for _ in range(20):
        n = rng.randint(2, 10)
        probs = random_float_probs(rng, 1 << n)
        res = average_conditional_guess(KeyDistribution(n, probs), KeySplit(1, n - 1))
        assert res.holds


def _add_at_average(probs: np.ndarray, split: KeySplit) -> float:
    """sum_k1 max_v P(K2* = v, K1 = k1), the joint table built by np.add.at in K2 order."""
    width = 1 << split.n1
    targets = [sum(((k2 >> pos) & 1) << j for j, pos in enumerate(split.subset_bits)) for k2 in range(1 << split.n2)]
    joint = np.zeros((1 << split.subset_size, width))
    np.add.at(joint, targets, probs.reshape(-1, width))
    return float(joint.max(axis=0).sum())


def test_float_average_guess_keeps_the_bits_of_add_at():
    rng = random.Random(31)
    for n in range(2, 13):
        probs = np.array([0.0 if rng.random() < 0.3 else rng.random() for _ in range(1 << n)])
        probs[rng.randrange(1 << n)] += 0.5
        p = KeyDistribution(n, probs / math.fsum(probs))
        for n1 in range(1, n):
            n2 = n - n1
            for subset in (None, rng.sample(range(n2), rng.randint(1, n2))):
                split = KeySplit(n1, n2, subset)
                avg = average_conditional_guess(p, split).avg_p1
                assert avg.hex() == _add_at_average(p.as_array(), split).hex(), (n, n1, subset)


def test_float_average_guess_keeps_the_bits_of_add_at_up_to_16_bits():
    rng = random.Random(37)
    for n in range(13, 17):
        probs = np.array([0.0 if rng.random() < 0.3 else rng.random() for _ in range(1 << n)])
        probs[rng.randrange(1 << n)] += 0.5
        p = KeyDistribution(n, probs / math.fsum(probs))
        for n1 in (1, rng.randint(2, n - 1)):
            n2 = n - n1
            for subset in (None, rng.sample(range(n2), rng.randint(1, n2)), [rng.randrange(n2)]):
                split = KeySplit(n1, n2, subset)
                avg = average_conditional_guess(p, split).avg_p1
                assert avg.hex() == _add_at_average(p.as_array(), split).hex(), (n, n1, subset)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_exact_average_guess_is_the_add_at_sum(dtype):
    # numerators below 2^30 keep an int64 law; past 2^64 they are Python ints
    rng = random.Random(43)
    scale = 1 << 30 if dtype is np.int64 else 1 << 70
    for n in range(2, 13):
        nums = [0 if rng.random() < 0.3 else rng.randrange(1, scale) for _ in range(1 << n)]
        nums[rng.randrange(1 << n)] += scale
        p = KeyDistribution(n, Lattice(nums, sum(nums)))
        law, den = p.lattice
        assert law.dtype == dtype
        for n1 in range(1, n):
            n2, width = n - n1, 1 << n1
            for subset in (None, rng.sample(range(n2), rng.randint(1, n2))):
                split = KeySplit(n1, n2, subset)
                joint = np.zeros((1 << split.subset_size, width), dtype=law.dtype)
                np.add.at(joint, [split.subset_value(k2) for k2 in range(1 << n2)], law.reshape(-1, width))
                expected = F(int(joint.max(axis=0).sum()), den)
                assert average_conditional_guess(p, split).avg_p1 == expected, (n, n1, subset)


def test_breach_receivers_are_the_k2_with_a_zero_target():
    for n in range(2, 9):
        uniform = F(1, 1 << n)
        for n1 in range(1, n):
            n2 = n - n1
            for mask in range(1, 1 << n2):  # every nonempty target subset
                split = KeySplit(n1, n2, [pos for pos in range(n2) if mask >> pos & 1])
                probs = conditional_breach_witness(n, uniform / 4, split).distribution.probs
                zero = {k2 for k2 in range(1 << n2) if split.subset_value(k2) == 0}
                assert {k for k, x in enumerate(probs) if x > uniform} == {k2 << n1 for k2 in zero}
                assert {k for k, x in enumerate(probs) if x < uniform} == {
                    k2 << n1 for k2 in range(1 << n2) if k2 not in zero
                }
