"""The array-backed KeyDistribution against a tuple-of-scalars reference.

`KeyDistribution` stores numerators over a denominator: float64 over 1, or
an exact integer lattice.
The reference (`_oracles.ref_*`) evaluates every measure on the plain
tuple of entries with scalar arithmetic.  Float results must carry
identical bits and exact results identical Fractions, over random float
and rational laws at n = 1..10 with zeros, large denominators (numerators
up to 2^80, so the lattice's Python-int path runs) and splits with
target subsets, and over seeded float laws at n = 11 and 12, whose sums
are long enough to take the binned kernel (`dist._exact_sum`) in place
of `math.fsum`.
"""

import hashlib
import json
import math
import random
import re
import time
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from keysec import (
    ClassicalProbeModel,
    EventSpec,
    HashFamilySpec,
    KeyDistribution,
    KeySplit,
    ValidationError,
    average_conditional_guess,
    check_mixture_decomposition,
    conditional_breach_witness,
    construct_low_info_high_guess,
    construct_spike,
    d_criterion,
    entropy_stats,
    eve_bit_agreement,
    forgeable_key_distribution,
    max_conditional_deviation,
    mutual_information,
    statistical_distance,
)
from keysec.dist import Lattice, _check_rows
from keysec.ecpa import CodeEnsemble, EveChannel, mixture_posterior, random_parity_check
from keysec.numerics import CAPS, format_number


def same(a, b) -> bool:
    """Equal values of the same type; floats compared bit for bit."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    return type(a) is type(b) and a == b


def draw_law(rng: random.Random, n: int, exact: bool, scale_bits: int, zeros: float) -> tuple:
    size = 1 << n
    if exact:
        weights = [0 if rng.random() < zeros else rng.randrange(1, 1 << scale_bits) for _ in range(size)]
        weights[rng.randrange(size)] += 1
        return tuple(F(w, sum(weights)) for w in weights)
    weights = [0.0 if rng.random() < zeros else rng.random() ** 2 for _ in range(size)]
    weights[rng.randrange(size)] += 0.5
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


@st.composite
def laws(draw, n=None, n_min=1, exact=None, n_max=10):
    """(n, entries) of a random law; the entries come from a seeded generator."""
    n = draw(st.integers(n_min, n_max)) if n is None else n
    exact = draw(st.booleans()) if exact is None else exact
    scale_bits = draw(st.sampled_from([6, 40, 62, 80]))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))
    return n, draw_law(random.Random(draw(st.integers(0, 2**32))), n, exact, scale_bits, zeros)


@st.composite
def law_pairs(draw):
    n, p = draw(laws())
    _, q = draw(laws(n=n))
    return n, p, q


@st.composite
def splits(draw, n):
    n1 = draw(st.integers(1, n - 1))
    subset = None
    if draw(st.booleans()):
        subset = draw(st.lists(st.integers(0, n - n1 - 1), min_size=1, unique=True))
    return KeySplit(n1, n - n1, subset)


# ---------------------------------------------------------------- container


@given(laws())
def test_probs_equality_and_hash_match_the_tuple(law):
    n, probs = law
    p = KeyDistribution(n, list(probs))
    assert p.probs == probs
    assert all(type(x) is (F if p.mode == "rational" else float) for x in p.probs)
    assert p == KeyDistribution(n, probs) and hash(p) == hash(KeyDistribution(n, probs))
    as_floats = tuple(float(x) for x in probs)
    f = KeyDistribution(n, as_floats)
    assert (p == f) == ((n, probs) == (n, as_floats))
    if p == f:
        assert hash(p) == hash(f)
    assert KeyDistribution.from_json(p.to_json()) == p
    assert same(list(p.as_array().tolist()), [float(x) for x in probs])


@pytest.mark.parametrize("exact", [False, True])
@given(data=st.data())
def test_indexing_and_repr_read_the_lattice_without_building_probs(exact, data):
    n, probs = data.draw(laws(exact=exact))
    p, size = KeyDistribution(n, list(probs)), len(probs)
    k = data.draw(st.integers(-size, size - 1))
    bounds = st.none() | st.integers(-size - 2, size + 2)
    cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.none() | st.sampled_from([-3, -1, 1, 2])))
    assert same(p[k], probs[k]) and same(p[cut], probs[cut])
    head = ", ".join(format_number(x) for x in probs[:4])
    assert repr(p) == f"KeyDistribution(n={n}, [{head}{', ...' if size > 4 else ''}])"
    for outside in (size, -size - 1):
        with pytest.raises(IndexError):
            p[outside]
    hash(p)
    assert "probs" not in vars(p)


def test_hashing_an_exact_n20_spike_reads_the_lattice():
    p = construct_spike(20, F(1, 8)).distribution
    start = time.process_time()
    hash(p)
    assert time.process_time() - start < 0.5  # 3.8 s when the 2^20 Fractions of `probs` were hashed
    assert "probs" not in vars(p)


def test_lattice_is_canonical_and_widens_for_large_numerators():
    small = KeyDistribution(2, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
    assert small.lattice.den == 8 and small.lattice.nums.tolist() == [4, 2, 1, 1]
    assert small.lattice.nums.dtype == np.int64
    huge = KeyDistribution(1, [F(1, 2**80), 1 - F(1, 2**80)])
    assert huge.lattice.nums.dtype == object and huge.lattice.den == 2**80
    assert huge.probs == (F(1, 2**80), 1 - F(1, 2**80))
    # an unreduced lattice is reduced, so equal laws compare equal
    assert KeyDistribution(2, small.lattice._replace(nums=small.lattice.nums * 3, den=24)) == small


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("nums, den, stored", [
    ([1, 1, 2, 4], 8, np.int64), ([3, 3, 6, 12], 24, np.int64), ([1, 1, 1, 2**70 - 3], 2**70, object),
], ids=["reduced", "unreduced", "wide"])
def test_a_lattice_passed_in_is_stored_as_a_read_only_copy(dtype, nums, den, stored):
    given = np.array(nums, dtype=dtype if max(nums) < 2**63 else object)
    law = KeyDistribution(2, Lattice(given, den))
    assert law.lattice.nums.dtype == stored and not law.lattice.nums.flags.writeable
    assert given.flags.writeable
    given[0] = 0
    assert law.lattice.nums.tolist() == [a // math.gcd(den, *nums) for a in nums]


@pytest.mark.parametrize("n", [1, 8, 16])
def test_exact_uniform_law_is_the_lattice_of_its_fractions(n):
    law = KeyDistribution.uniform(n, mode="rational")
    same = KeyDistribution(n, [F(1, 1 << n)] * (1 << n))
    assert law == same and law.lattice.den == same.lattice.den == 1 << n
    assert law.lattice.nums.dtype == np.int64 and not law.lattice.nums.flags.writeable
    assert np.array_equal(law.lattice.nums, same.lattice.nums)


# ---------------------------------------------------------------- measures


@given(law_pairs())
def test_statistical_distance_matches_reference(pair):
    n, p, q = pair
    dp, dq = KeyDistribution(n, p), KeyDistribution(n, q)
    assert same(statistical_distance(dp, dq), oracles.ref_distance(p, q))
    uniform = oracles.ref_uniform(n, dp.mode == "rational")
    assert same(statistical_distance(dp), oracles.ref_distance(p, uniform))
    assert same(statistical_distance(dp), statistical_distance(dp, KeyDistribution.uniform(n, dp.mode)))


@given(laws())
def test_entropy_stats_match_reference(law):
    n, probs = law
    assert same(tuple(entropy_stats(KeyDistribution(n, probs))), oracles.ref_entropy_stats(probs))


@given(st.data())
def test_average_guess_matches_reference(data):
    n, probs = data.draw(laws(n_min=2))
    split = data.draw(splits(n))
    res = average_conditional_guess(KeyDistribution(n, probs), split)
    assert same(tuple(res), oracles.ref_avg_guess(probs, split.n1, split.n2, split.subset_bits))


# inputs where np.log2 and math.log2 round differently and the difference reaches the sum
CRAFTED = (0.8987919599055768, 0.9873506349586143, 0.8741944479676026, 0.8306978238042115)


def crafted_law(x: float, n: int) -> tuple:
    """``x`` beside ``2^n - 1`` equal entries: (x, 1 - x) at n = 1, a support summed by the binned
    kernel at n = 11."""
    return (x, *((1 - x) / ((1 << n) - 1),) * ((1 << n) - 1))


@pytest.mark.parametrize("x", CRAFTED)
def test_entropy_keeps_the_bits_of_np_log2_per_entry(x):
    for n in (1, 11):
        law = crafted_law(x, n)
        assert same(entropy_stats(KeyDistribution(n, law)).shannon_bits, oracles.ref_shannon(law))


@st.composite
def entropy_laws(draw):
    """(n, entries) of a law at n <= 12: a random float or exact one, or a point mass."""
    if draw(st.booleans()):
        return draw(laws(n_max=12))
    n = draw(st.integers(1, 12))
    zero, one = (F(0), F(1)) if draw(st.booleans()) else (0.0, 1.0)
    at = draw(st.integers(0, (1 << n) - 1))
    return n, tuple(one if k == at else zero for k in range(1 << n))


def assert_shannon_within_bound(law: KeyDistribution):
    """Shannon bits within a relative 2^-51 of -sum p log2 p at 60 digits over the stored floats:
    with log2 within 1 ulp each term is within 1.5 * 2^-52, every term has one sign, and the
    correctly rounded sum adds 2^-53."""
    got = entropy_stats(law).shannon_bits
    ref = oracles.shannon_bits_mp(law.as_array().tolist())
    assert abs(mpmath.mpf(got) - ref) <= ref * mpmath.mpf(2) ** -51


@given(entropy_laws())
def test_entropy_is_within_its_bound_of_mpmath(law):
    assert_shannon_within_bound(KeyDistribution(*law))


@pytest.mark.parametrize("x", CRAFTED)
@pytest.mark.parametrize("n", [1, 11])
def test_crafted_entropy_is_within_its_bound_of_mpmath(x, n):
    assert_shannon_within_bound(KeyDistribution(n, crafted_law(x, n)))


@pytest.mark.parametrize("n, seed, zeros", [(11, 1, 0.0), (11, 2, 0.3), (12, 3, 0.0), (12, 4, 0.3)])
def test_long_float_laws_match_reference(n, seed, zeros):
    rng = random.Random(seed)
    p, q = draw_law(rng, n, False, 62, zeros), draw_law(rng, n, False, 62, 0.0)
    dp = KeyDistribution(n, p)
    assert same(statistical_distance(dp, KeyDistribution(n, q)), oracles.ref_distance(p, q))
    assert same(statistical_distance(dp), oracles.ref_distance(p, oracles.ref_uniform(n, False)))
    assert same(tuple(entropy_stats(dp)), oracles.ref_entropy_stats(p))
    for split in (KeySplit(1, n - 1), KeySplit(n // 2, n - n // 2, [0, 2])):
        res = average_conditional_guess(dp, split)
        assert same(tuple(res), oracles.ref_avg_guess(p, split.n1, split.n2, split.subset_bits))
    size = 1 << n
    lam = min(1.0, max(0.0, 1 - size * min(p), (size * max(p) - 1) / (size - 1)) + 1e-9)
    res, ref = check_mixture_decomposition(dp, lam), oracles.ref_mixture(p, n, lam)
    assert same(res.uniform_weight, ref[0]) and same(res.residual.probs, ref[1])


@pytest.mark.parametrize("seed, width", [(5, 2), (6, 5)])
def test_long_probe_model_matches_reference(seed, width):
    rng = random.Random(seed)
    prior = draw_law(rng, 11, False, 62, 0.1)
    rows = [_row(rng, width, False) for _ in prior]
    model = ClassicalProbeModel(KeyDistribution(11, prior), rows)
    info, d = oracles.ref_probe(prior, rows)
    assert same(mutual_information(model), info)
    assert same(d_criterion(model), d)


@given(laws())
def test_bit_agreement_matches_reference(law):
    n, probs = law
    assert same(eve_bit_agreement(KeyDistribution(n, probs)), oracles.ref_bit_agreement(probs, n))


@given(laws(), st.sampled_from(["tight", "random", "zero", "one"]), st.floats(0, 1))
def test_mixture_matches_reference(law, which, u):
    n, probs = law
    size = 1 << n
    lo, hi = float(min(probs)), float(max(probs))
    need = max(0.0, 1 - size * lo, (size * hi - 1) / (size - 1))
    lam = {"tight": min(1.0, need + 1e-9), "random": u, "zero": 0.0, "one": 1.0}[which]
    if isinstance(probs[0], F) and which == "tight":
        lam = max(F(0), 1 - size * min(probs), (size * max(probs) - 1) / (size - 1))
    res = check_mixture_decomposition(KeyDistribution(n, probs), lam)
    ref = oracles.ref_mixture(probs, n, lam)
    if ref is None:
        assert res is None
    else:
        assert same(res.uniform_weight, ref[0]) and same(res.residual.probs, ref[1])


def test_a_float_law_stores_negative_zero_as_positive_zero():
    # -0.0 lies in [0, 1]; every reader stores it as +0.0, and the mixture residual keeps no -0.0
    for law in (KeyDistribution(1, (-0.0, 1.0)), KeyDistribution(1, np.array([-0.0, 1.0])),
                KeyDistribution.from_json("[-0.0, 1.0]"), KeyDistribution.from_json('["-0.0", "1.0"]')):
        assert same(law.probs, (0.0, 1.0))
        assert same(check_mixture_decomposition(law, 1.0).residual.probs, (0.0, 1.0))


@given(st.data())
def test_probe_model_matches_reference(data):
    n, prior = data.draw(laws(n=data.draw(st.integers(1, 6))))
    exact = isinstance(prior[0], F)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    width = data.draw(st.integers(1, 6))
    rows = [_row(rng, width, exact) for _ in prior]
    model = ClassicalProbeModel(KeyDistribution(n, prior), rows)
    assert model.conditional == tuple(tuple(r) for r in rows)
    info, d = oracles.ref_probe(prior, rows)
    assert same(mutual_information(model), info)
    assert same(d_criterion(model), d)


@pytest.mark.parametrize("exact", [False, True])
def test_probe_model_with_an_outcome_of_no_mass_matches_reference(exact):
    # outcome 1 has no mass: it adds no conditional entropy and its column of d is the joint's
    rng = random.Random(17)
    prior = draw_law(rng, 5, exact, 40, 0.2)
    rows = [[row[0], row[0] * 0, *row[1:]] for row in (_row(rng, 3, exact) for _ in prior)]
    model = ClassicalProbeModel(KeyDistribution(5, prior), rows)
    assert model.outcome_marginal()[1] == 0
    info, d = oracles.ref_probe(prior, rows)
    assert same(mutual_information(model), info)
    assert same(d_criterion(model), d)


def _row(rng: random.Random, width: int, exact: bool) -> list:
    if exact:
        weights = [rng.randrange(0, 30) for _ in range(width)]
        weights[rng.randrange(width)] += 1
        return [F(w, sum(weights)) for w in weights]
    weights = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(width)]
    weights[rng.randrange(width)] += 0.5
    total = math.fsum(weights)
    return [w / total for w in weights]


# ---------------------------------------------------------------- transport


@given(st.integers(2, 8), st.data())
def test_breach_witness_is_the_raising_conditional_deviation(n, data):
    split = data.draw(splits(n))
    eps = data.draw(st.one_of(st.fractions(0, 1, max_denominator=1000), st.floats(0, 1)))
    breach = conditional_breach_witness(n, eps, split)
    # A = the K1 = 0 slice, B = its members with K2* = 0
    slice_ = [k2 << split.n1 for k2 in range(1 << split.n2)]
    members = [k for k in slice_ if split.subset_value(k >> split.n1) == 0]
    dev = max_conditional_deviation(n, eps, EventSpec(slice_), EventSpec(members))
    assert dev.distribution == breach.distribution
    assert same(breach.distribution.probs, dev.distribution.probs)
    s = split.subset_size
    base = F(1, 1 << s) if isinstance(dev.deviation, F) else 1.0 / (1 << s)
    assert same(breach.worst_conditional_p, base + dev.deviation)


#: (build at a budget, key bits, uniform mass of the donors): the spike's budget reaches its
#: donors' mass (it refuses more), the others' 3/4 passes it; B = {0, 1, 2} of A = {0, .., 3}
#: is the larger part, so past U(A \ B) = 1/8 the deviation lowers P(B | A)
WITNESSES = {
    "spike": (lambda eps: construct_spike(2, eps, at=1).distribution, 2, F(3, 4)),
    "breach": (lambda eps: conditional_breach_witness(4, eps, KeySplit(2, 2)).distribution, 4, F(3, 16)),
    "raise": (lambda eps: max_conditional_deviation(3, eps, EventSpec(range(4)), EventSpec({0})).distribution,
              3, F(3, 8)),
    "lower": (lambda eps: max_conditional_deviation(3, eps, EventSpec(range(4)), EventSpec(range(3))).distribution,
              3, F(3, 8)),
}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("eps", [F(1, 100), F(3, 4)])
@pytest.mark.parametrize("witness", sorted(WITNESSES))
def test_a_witness_moves_its_distance_to_uniform(witness, eps, exact):
    build, n, donors = WITNESSES[witness]
    law = build(eps if exact else float(eps))
    moved = min(eps, donors)  # the budget, clipped at the donors' uniform mass
    assert statistical_distance(law) == (moved if exact else pytest.approx(float(moved), abs=1e-15))


@pytest.mark.parametrize("b", range(2, 7))
def test_the_forgery_witness_reports_its_distance_to_uniform(b):
    witness = forgeable_key_distribution(HashFamilySpec(b, 2))
    assert witness.distance == statistical_distance(witness.distribution) == F((1 << b) - 2, 1 << b)
    assert witness.distribution.probs == (F(1, 2), F(1, 2)) + (F(0),) * ((1 << b) - 2)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_a_point_mass_is_all_mass_moved(mode):
    law = KeyDistribution.point_mass(3, at=6, mode=mode)
    assert statistical_distance(law) == F(7, 8) and law.probs == (0,) * 6 + (1, 0)
    assert law.mode == mode and type(law[6]) is (F if mode == "rational" else float)


# ---------------------------------------------------------------- laws keysec builds


def _budget(rng: random.Random, exact: bool):
    """A distance budget in [0, 1/2], over a denominator past 2^63 half the time."""
    q = rng.choice([100, 3**50])
    eps = F(rng.randrange(q + 1), 2 * q)
    return eps if exact else float(eps)


def _posterior(rng: random.Random, n: int, exact: bool) -> KeyDistribution:
    codes = [random_parity_check(n, rng.randrange(1, n), rng) for _ in range(rng.randrange(1, 4))]
    weights = [F(rng.randrange(1, 10)) for _ in codes]
    weights = [w / sum(weights) for w in weights]
    d = rng.choice([100, 3**40])  # a crossover over 3^40 takes the Python-int lattice
    q = F(rng.randrange(1, d // 2 + 1), d)
    if not exact:
        weights, q = [float(w) for w in weights[:-1]], float(q)
        weights.append(1.0 - math.fsum(weights))
    return mixture_posterior(CodeEnsemble(codes, weights), format(rng.randrange(1 << n), f"0{n}b"), EveChannel(q))


def _residual(rng: random.Random, n: int, exact: bool) -> KeyDistribution:
    law = draw_law(rng, n, exact, rng.choice([6, 80]), rng.choice([0.0, 0.3]))
    low, high, size = F(min(law)), F(max(law)), 1 << n
    least = max(1 - size * low, (size * high - 1) / (size - 1), F(0))  # the least decomposable weight
    lam = least + (1 - least) * F(rng.randrange(1, 11), 10)
    return check_mixture_decomposition(KeyDistribution(n, law), lam if exact else float(lam)).residual


#: every law keysec builds, from (generator, key bits n >= 2, exact); the forgery witness is exact in both
#: (and at most the field_bits cap wide), the low-information family float in both
BUILDERS = {
    "uniform": lambda rng, n, exact: KeyDistribution.uniform(n, "rational" if exact else "float"),
    "point mass": lambda rng, n, exact: KeyDistribution.point_mass(
        n, rng.randrange(1 << n), "rational" if exact else "float"),
    "spike": lambda rng, n, exact: construct_spike(n, _budget(rng, exact), at=rng.randrange(1 << n)).distribution,
    "breach": lambda rng, n, exact: conditional_breach_witness(
        n, _budget(rng, exact), KeySplit(n - 1, 1) if rng.random() < 0.5 else KeySplit(1, n - 1)).distribution,
    "max-deviation": lambda rng, n, exact: max_conditional_deviation(
        n, _budget(rng, exact), EventSpec(range(1, 1 << n)), EventSpec(range(1, rng.randrange(2, 1 << n)))
    ).distribution,
    "forgery witness": lambda rng, n, exact: forgeable_key_distribution(
        HashFamilySpec(min(n, CAPS["field_bits"].limit), 2)).distribution,
    "low information": lambda rng, n, exact: construct_low_info_high_guess(n, rng.uniform(1 / n, 1)).distribution,
    "posterior": _posterior,
    "residual": _residual,
}


@settings(max_examples=400)  # about 20 draws a builder in each mode
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from([*range(2, 9), 11]), st.booleans(), st.integers(0, 2**32))
def test_every_built_law_is_the_lattice_the_public_check_returns(builder, n, exact, seed):
    # a law keysec builds is stored unchecked (`KeyDistribution._built`) in both modes; `_check_rows`, the
    # check of public construction, accepts it and returns the same denominator, dtype and numerators (float
    # ones bit for bit); at n = 11 a float row is past `_LONG_ROW`, so the check takes its long-row path
    _assert_stored_as_checked(BUILDERS[builder](random.Random(seed), n, exact))


@pytest.mark.parametrize("n", [2, 3])
def test_an_exact_witness_with_a_uniform_numerator_past_int64_is_stored_as_python_ints(n):
    # a denominator of 2^(63 + n) puts the uniform numerator at 2^63, which numpy alone would store as uint64
    spike = construct_spike(n, F((2**n - 1) * (2**62 + 1), 2 ** (63 + n))).distribution
    assert spike.lattice.den == 2 ** (63 + n) and spike.lattice.nums[1] == 2**62 - 1
    _assert_stored_as_checked(spike)


def _assert_stored_as_checked(law: KeyDistribution):
    nums, den = _check_rows(law._data, law.mode, law.size, "distribution".format)
    stored = law._data
    assert type(den) is type(stored.den) and den == stored.den and nums.dtype == stored.nums.dtype
    assert same(nums[0].tolist(), stored.nums.tolist()) and not stored.nums.flags.writeable


# ---------------------------------------------------------------- refusals


@pytest.mark.parametrize(
    "probs",
    [  # (entries, what the refusal says)
        ([math.nan, 1.0], "distribution entry 0 is nan, outside"),
        ([1.0, math.nan], "distribution entry 1 is nan, outside"),
        ([math.inf, 0.0], "distribution entry 0 is inf, outside"),
        ([-math.inf, 1.0], "distribution entry 0 is -inf, outside"),
        ([1.5, -0.5], "distribution entry 0 is 1.5, outside"),
        ([0.7, 0.7], "distribution sums to 1.4, not 1"),
        ([F(3, 2), F(-1, 2)], "distribution entry 0 is Fraction(3, 2), outside"),
        ([F(1, 2), F(1, 3)], "distribution sums to 5/6, not 1"),
        ([1 + F(1, 10**10), F(0)], "distribution entry 0 is Fraction(10000000001, 10000000000), outside"),
        (Lattice([-1, 3], 2), "distribution entry 0 is Fraction(-1, 2), outside"),
        (Lattice([0, 3], 2), "distribution entry 1 is Fraction(3, 2), outside"),
        (Lattice(np.array([1, 2]), 2), "distribution sums to 3/2, not 1"),
        (Lattice([0.5, 0.5], 1), "distribution numerator must be an integer, got 0.5"),
        (Lattice(np.array([1.0, 0.0]), 1), "distribution numerator must be an integer, got 1.0"),
        (Lattice([F(1), 0], 1), "distribution numerator must be an integer, got Fraction(1, 1)"),
        (Lattice([True, False], 1), "distribution numerator must be an integer, got True"),
        (Lattice([1, 0], 0), "distribution denominator must be a positive integer, got 0"),
        (Lattice([1, 0], True), "distribution denominator must be a positive integer, got True"),
    ],
)
def test_refuses_non_finite_out_of_range_and_bad_totals(probs):
    probs, message = probs
    with pytest.raises(ValidationError, match=re.escape(message)) as refusal:
        KeyDistribution(1, probs)
    assert type(refusal.value) is ValidationError


def test_probe_model_refuses_rows_that_are_not_sequences():
    with pytest.raises(ValidationError, match="conditional rows must be sequences"):
        ClassicalProbeModel(KeyDistribution.uniform(1), [1, 2])


def test_refuses_non_finite_entries_in_every_entry_point():
    with pytest.raises(ValidationError, match="nan"):
        KeyDistribution.from_json('["nan", "1.0"]')
    with pytest.raises(ValidationError):
        KeyDistribution.from_json("[Infinity, 0]")
    with pytest.raises(ValidationError):
        KeyDistribution(1, np.array([math.nan, 1.0]))
    with pytest.raises(ValidationError):
        ClassicalProbeModel(KeyDistribution.uniform(1), [[math.nan, 1.0], [0.5, 0.5]])


# ---------------------------------------------------------------- golden bits


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _scoring_mix_outputs(n: int) -> list:
    """`float.hex` of every output of the float scoring mix on seeded laws at ``n`` bits:
    the parsed law, both distances to uniform, the entropy stats, three splits, the bit
    agreement, the mixture decomposition, and a probe model's information and ``d``."""
    rng = random.Random(1000 + n)
    law = draw_law(rng, n, False, 62, (0.0, 0.3)[n % 2])
    p = KeyDistribution.from_json(json.dumps(law))
    out = [*p.probs, statistical_distance(p, KeyDistribution.uniform(n)), statistical_distance(p)]
    out += entropy_stats(p)
    for _ in range(3):
        n1 = rng.randrange(1, n)
        subset = rng.sample(range(n - n1), rng.randrange(1, n - n1 + 1)) if rng.random() < 0.5 else None
        out += average_conditional_guess(p, KeySplit(n1, n - n1, subset))
    size = 1 << n
    lam = min(1.0, max(0.0, 1 - size * min(law), (size * max(law) - 1) / (size - 1)) + 1e-9)
    mixture = check_mixture_decomposition(p, lam)
    out += [eve_bit_agreement(p), mixture.uniform_weight, *mixture.residual.probs]
    model = ClassicalProbeModel(p, [_row(rng, 3 + n % 5, False) for _ in range(size)])
    out += [mutual_information(model), d_criterion(model), *model.outcome_marginal()]
    return [_hex(v) for v in out]


def test_scoring_mix_keeps_its_float_bits():
    # frozen on the code before the cached views, the bincount joint and the array sums
    digest = hashlib.sha256()
    for n in range(6, 13):
        digest.update("\n".join(_scoring_mix_outputs(n)).encode() + b"\n")
    assert digest.hexdigest() == "d6ee1a3cf6ce4f053e566a16d6424e903311d1c88ba9f2f3b6c0c7b437a24b3b"


# ---------------------------------------------------------------- values computed once


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_distance_to_uniform_is_the_two_law_distance_computed_once(mode):
    rng = random.Random(37)
    for n in range(1, 13):
        p = KeyDistribution(n, draw_law(rng, n, mode == "rational", (6, 62)[n % 2], 0.3))
        distance = statistical_distance(p)
        assert same(distance, statistical_distance(p, KeyDistribution.uniform(n, mode)))
        assert statistical_distance(p) is distance


def test_mixture_residual_is_summed_left_to_right():
    rng = random.Random(41)
    for n in range(1, 13):
        probs = draw_law(rng, n, False, 62, 0.3)
        size = 1 << n
        lam = min(1.0, max(0.0, 1 - size * min(probs), (size * max(probs) - 1) / (size - 1)) + 1e-9)
        lo = (1.0 - lam) / size
        raw = [max(x - lo, 0.0) / lam for x in probs]
        total = raw[0]
        for x in raw[1:]:
            total += x
        res = check_mixture_decomposition(KeyDistribution(n, probs), lam)
        assert same(res.residual.probs, tuple(x / total for x in raw))


def test_probe_model_totals_keep_their_bits():
    # float.hex values frozen before the outcome totals were cached
    rng = random.Random(7)
    model = ClassicalProbeModel(KeyDistribution(5, draw_law(rng, 5, False, 62, 0.2)),
                                [_row(rng, 4, False) for _ in range(32)])
    expected = ["0x1.328665e7b3144p-2", "0x1.d5cd7b73b129dp-3", "0x1.0c5707697dc19p-2", "0x1.ac77a9e9ed2abp-3",
                "0x1.3a9483bca43d7p-1"]
    for _ in range(2):  # the second pass reads the cached totals
        assert [v.hex() for v in (*model.outcome_marginal(), d_criterion(model))] == expected
    assert model._outcome_totals is model._outcome_totals


@pytest.mark.parametrize("exact", [False, True])
def test_probe_joint_is_built_once_per_model(monkeypatch, exact):
    builds, build = [], ClassicalProbeModel._joint.func

    def counted(model):
        builds.append(model)
        return build(model)

    monkeypatch.setattr(ClassicalProbeModel._joint, "func", counted)
    rng = random.Random(11)
    models = [ClassicalProbeModel(KeyDistribution(4, draw_law(rng, 4, exact, 20, 0.2)),
                                  [_row(rng, 3, exact) for _ in range(16)]) for _ in range(2)]
    for model in models:
        for measure in (mutual_information, d_criterion, ClassicalProbeModel.outcome_marginal, d_criterion):
            measure(model)
        assert not model._joint.nums.flags.writeable
    assert builds == models


@pytest.mark.parametrize("exact", [False, True])
def test_a_joint_entry_is_its_prior_entry_times_its_conditional_entry(exact):
    rng = random.Random(12)
    model = ClassicalProbeModel(KeyDistribution(4, draw_law(rng, 4, exact, 62, 0.2)),
                                [_row(rng, 3, exact) for _ in range(16)])
    joint = [model.joint(k, y) for k in range(16) for y in range(3)]
    assert "conditional" not in vars(model)
    assert same(joint, [model.prior[k] * model.conditional[k][y] for k in range(16) for y in range(3)])
