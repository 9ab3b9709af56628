"""Distances, entropies, and probe-model measures.

Frozen expectations were produced by independent reference
implementations (plain summation over the defining formulas, mpmath at
60 digits for entropies, eigenvalue decomposition for matrix
distances) and are asserted here at 1e-12 or exactly.
"""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keysec import (
    ClassicalProbeModel,
    HermitianState,
    KeyDistribution,
    ResourceLimitError,
    ValidationError,
    binary_entropy,
    d_criterion,
    entropy_stats,
    mutual_information,
    parse_number,
    statistical_distance,
    trace_distance,
)
from keysec.numerics import CAPS

P_RAT = [F(1, 2), F(1, 8), F(1, 8), F(1, 4)]
ROWS = [[F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)], [F(0), F(1)]]


# ---------------------------------------------------------------- container


def test_distribution_validation():
    with pytest.raises(ValidationError):
        KeyDistribution(0, [1.0])
    with pytest.raises(ValidationError):
        KeyDistribution(2, [0.5, 0.5])  # wrong length
    with pytest.raises(ValidationError):
        KeyDistribution(1, [0.7, 0.7])
    with pytest.raises(ValidationError):
        KeyDistribution(1, [F(1, 2), 0.5])  # mixed backends
    with pytest.raises(ValidationError):
        KeyDistribution(1, [F(3, 2), F(-1, 2)])


def test_distribution_is_immutable_and_hashable():
    d = KeyDistribution.uniform(2, mode="rational")
    with pytest.raises(AttributeError):
        d.n = 3
    assert d == KeyDistribution(2, [F(1, 4)] * 4)
    assert hash(d) == hash(KeyDistribution(2, [F(1, 4)] * 4))
    # 1/4 is dyadic, so the float-backed uniform carries identical values
    assert d == KeyDistribution.uniform(2) and d.mode != KeyDistribution.uniform(2).mode
    assert d != KeyDistribution(2, [F(1, 2), F(1, 6), F(1, 6), F(1, 6)])


def test_point_mass_and_prob_of():
    d = KeyDistribution.point_mass(2, at=3, mode="rational")
    assert d.probs[3] == 1
    assert d.prob_of([0, 1, 3]) == 1
    assert d.prob_of([3, 3]) == 1  # duplicates collapse
    with pytest.raises(ValidationError):
        d.prob_of([4])
    with pytest.raises(ValidationError):
        KeyDistribution.point_mass(2, at=4)


def test_json_round_trip():
    d = KeyDistribution(2, P_RAT)
    again = KeyDistribution.from_json(d.to_json())
    assert again == d and again.mode == "rational"
    f = KeyDistribution(1, [0.25, 0.75])
    assert KeyDistribution.from_json(f.to_json()) == f
    # mode can be forced
    forced = KeyDistribution.from_json("[0.25, 0.75]", mode="rational")
    assert forced.probs == (F(1, 4), F(3, 4))
    with pytest.raises(ValidationError):
        KeyDistribution.from_json("[0.5, 0.25, 0.25]")  # not a power of two
    for text in ('["1/2", "1/4", "1/4"]', '["1/1"]'):
        with pytest.raises(ValidationError, match=r"^length \d is not a power of two >= 2$"):
            KeyDistribution.from_json(text)
    with pytest.raises(ValidationError):
        KeyDistribution.from_json("{}")


def _outcome(read):
    """A read law's lattice, dtype and JSON, or the refusal's type and message."""
    try:
        d = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return d.lattice.den, d.lattice.nums.tolist(), d.lattice.nums.dtype, d.to_json()


@st.composite
def _plain_laws(draw):
    """An exact law and its entries as ``"a/b"`` strings: unreduced, over mixed
    denominators, with some ``"0"``/``"1"`` entries, and numerators on both sides
    of int64 (weights up to 10^30, scales up to 2^70)."""
    n = draw(st.integers(1, 4))
    top = draw(st.sampled_from([1, 7, 97, 1 << 62, 1 << 64, 1 << 70, 10**30]))
    weights = draw(st.lists(st.integers(0, top), min_size=1 << n, max_size=1 << n))
    weights[draw(st.integers(0, (1 << n) - 1))] += 1
    law = [F(w, sum(weights)) for w in weights]
    entries = []
    for p in law:
        k = draw(st.sampled_from([1, 1, 2, 3, 1 << 70, 10**30]))
        whole = p.denominator == 1 and draw(st.booleans())
        entries.append(str(p.numerator) if whole else f"{p.numerator * k}/{p.denominator * k}")
    return n, entries


@settings(max_examples=300, deadline=None)
@given(_plain_laws())
def test_plain_entries_read_as_their_fractions(case):
    n, entries = case
    oracle = KeyDistribution(n, [F(*map(int, e.split("/"))) for e in entries])
    text = json.dumps(entries)
    read = KeyDistribution.from_json(text, mode="rational")
    assert read.lattice.den == oracle.lattice.den
    assert read.lattice.nums.tolist() == oracle.lattice.nums.tolist()
    assert read.lattice.nums.dtype == oracle.lattice.nums.dtype
    assert read.to_json() == oracle.to_json() and read == oracle
    if any("/" in e for e in entries):
        assert _outcome(lambda: KeyDistribution.from_json(text)) == _outcome(lambda: read)


def test_plain_entries_cross_the_int64_boundary():
    big = KeyDistribution.from_json(json.dumps([f"{(1 << 63) + 1}/{1 << 64}", f"{(1 << 63) - 1}/{1 << 64}"]))
    assert big.lattice.nums.dtype == object and big.lattice.den == 1 << 64
    scaled = KeyDistribution.from_json(json.dumps([f"{10**30}/{2 * 10**30}", "1/2"]))
    assert scaled.lattice.den == 2 and scaled.lattice.nums.tolist() == [1, 1]
    assert scaled.lattice.nums.dtype == np.int64
    point = KeyDistribution.from_json('["0", "1", "0", "0"]', mode="rational")
    assert point == KeyDistribution.point_mass(2, at=1, mode="rational")


HUGE = "9" * 5000  # past int()'s default limit of 4,300 digits

MALFORMED = ["1/0", "0/0", "3/-10", "-1/2", "+1/2", " 1/2", "1/2 ", "1 /2", "1/ 2", "\t1/2\n",
             "1_0/20", "0.5", "5e-1", "1E0", "\u00b9/2", "\u0661/\u0662", "\u0661", "", "/2", "1/",
             "1/2/3", "1,2", "1/2,0", "00/02", "1/00", HUGE, "1/" + HUGE, HUGE + "/1"]


@pytest.mark.parametrize("entry", MALFORMED, ids=lambda e: repr(e if len(e) < 12 else f"{e[:3]}...{e[-3:]}"))
@pytest.mark.parametrize("mode", ["rational", None])
def test_malformed_entries_read_as_parse_number_reads_them(entry, mode):
    entries = [entry, "1/2"]
    got = _outcome(lambda: KeyDistribution.from_json(json.dumps(entries), mode=mode))
    try:
        values = [parse_number(e, "rational") for e in entries]
    except ValidationError as exc:
        assert got == (ValidationError, str(exc))
    else:
        assert got == _outcome(lambda: KeyDistribution(1, values))
    if HUGE in entry:
        assert got[0] is ValidationError and got[1].startswith("cannot parse")


def _parsed(entries):
    """The outcome of reading ``entries`` one `parse_number` at a time, the reader of
    every array that is not plain: its Fractions' law, or the first refusal."""
    try:
        values = [parse_number(e, "rational") for e in entries]
    except ValidationError as exc:
        return ValidationError, str(exc)
    return _outcome(lambda: KeyDistribution(len(entries).bit_length() - 1, values))


_E63 = 1 << 63

READ_LIKE_PARSE_NUMBER = {
    # separator-balanced, but not plain: a part is empty or an entry holds two slashes or a comma
    "two slashes": ["1/2/3", "4"],
    "double slash": ["1//2", "3"],
    "empty parts": ["/2", "1/"],
    "comma inside": ["1,2/3", "0"],
    "comma and slash": ["1/2,3", "4/5"],
    "leading comma": [",1/2", "1/2"],
    "trailing comma": ["1/2", "1/2,"],
    "trailing slash": ["1/2/", "1/2"],
    "zero denominator": ["1/0", "0/1"],
    "zero-padded zero denominator": ["1/2", "1/" + "0" * 20],
    # non-ASCII digits beside plain entries
    "arabic-indic": ["١/٢", "1/2"],
    "fullwidth": ["1/2", "１/2"],
    "superscript": ["¹/2", "1/2"],
    "devanagari denominator": ["1/2", "1/२"],
    "no-break space": ["1/2", "1/2 "],
    "vulgar fraction": ["½", "1/2"],
    # 18, 19 and 20 digits, 2^63 - 1, 2^63 and 2^63 + 1, and zero-padded long parts
    "18 digits": [f"{10**17}/{2 * 10**17}", f"{3 * 10**17}/{6 * 10**17}"],
    "19 digits": [f"{10**18}/{2 * 10**18}", f"{4 * 10**18}/{8 * 10**18}"],
    "20 digits": [f"{10**19}/{2 * 10**19}", f"{3 * 10**19}/{6 * 10**19}"],
    "nines": ["9" * 18 + "/" + "9" * 19, "9" * 20 + "/" + "9" * 19 + "0"],
    "2^63 - 1 over 2^64 - 2": [f"{_E63 - 1}/{2 * _E63 - 2}", "1/2"],
    "2^63 + 1 over 2^64": [f"{_E63 + 1}/{2 * _E63}", f"{_E63 - 1}/{2 * _E63}"],
    "2^63 over 2^63 + 1": [f"{_E63}/{_E63 + 1}", f"1/{_E63 + 1}"],
    "20 digits outside [0, 1]": ["9" * 20, "0"],
    "2^63 outside [0, 1]": [f"{_E63}/1", "0"],
    "2^63 + 1 over 2": [f"{_E63 + 1}/2", "1/2"],
    "zero-padded 25 digits": ["0" * 24 + "1/" + "0" * 24 + "2", "1/2"],
    "zero-padded sums to 2": ["0" * 21 + "1", "1"],
    # one, two and many distinct denominators, whole-number entries among them
    "one denominator": ["1/4", "1/4", "1/4", "1/4"],
    "whole numbers": ["0", "1", "0", "0"],
    "two denominators": ["1/3", "1/3", "1/6", "1/6"],
    "zero beside a/b": ["0", "1/2", "1/4", "1/4"],
    "many denominators": ["1/2", "1/4", "1/8", "1/16", "1/32", "1/64", "1/128", "1/128"],
    "lcm past 2^63": [f"1/{(1 << 61) - 1}", f"1/{(1 << 31) - 1}", "1/3",
                      f"{1 - F(1, (1 << 61) - 1) - F(1, (1 << 31) - 1) - F(1, 3)}"],
    "many denominators, not summing to 1": [f"1/{k}" for k in range(2, 18)],
}


@pytest.mark.parametrize("entries", READ_LIKE_PARSE_NUMBER.values(), ids=READ_LIKE_PARSE_NUMBER.keys())
def test_arrays_read_as_their_parse_number_law(entries):
    text = json.dumps(entries)
    assert _outcome(lambda: KeyDistribution.from_json(text, mode="rational")) == _parsed(entries)
    if any("/" in e for e in entries):  # read exactly when the mode is inferred too
        assert _outcome(lambda: KeyDistribution.from_json(text)) == _parsed(entries)


@pytest.mark.parametrize("zeros", [1, 2, 3])
def test_laws_with_zero_entries_round_trip_through_json(zeros):
    law = [F(0)] * zeros + [F(1, 3), F(2, 9), F(4, 9)] + [F(0)] * (5 - zeros)
    d = KeyDistribution(3, law)
    text = d.to_json()
    for mode in ("rational", None):
        read = KeyDistribution.from_json(text, mode=mode)
        assert _outcome(lambda: read) == _outcome(lambda: d) == _parsed(json.loads(text))
        assert read.to_json() == text


@st.composite
def _digit_arrays(draw):
    """2 to 64 entries ``"a"`` or ``"a/b"`` whose parts are drawn with 1 to 25 digits,
    leading zeros included: entries drawn at random, or a law whose weights have such
    digits, each entry scaled by 1 or by such a number, its zeros sometimes ``"0"``."""
    n = draw(st.integers(1, 6))
    digits = st.integers(1, 25).flatmap(lambda k: st.integers(0, 10**k - 1).map(lambda v: str(v).zfill(k)))
    if draw(st.booleans()):
        return [draw(digits) + draw(st.sampled_from(["", "/" + draw(digits)])) for _ in range(1 << n)]
    weights = [int(draw(digits)) for _ in range(1 << n)]
    weights[0] += 1
    total, entries = sum(weights), []
    for w in weights:
        scale = draw(st.sampled_from([1, int(draw(digits)) or 1]))
        entries.append(f"{w * scale}/{total * scale}" if w or draw(st.booleans()) else "0")
    return entries


@settings(max_examples=100, deadline=None)
@given(_digit_arrays())
def test_plain_arrays_of_long_parts_read_as_their_fractions(entries):
    text = json.dumps(entries)
    assert _outcome(lambda: KeyDistribution.from_json(text, mode="rational")) == _parsed(entries)


def test_a_wrong_length_is_refused_before_any_entry_is_read(monkeypatch):
    for mode in ("rational", "float", None):
        with pytest.raises(ValidationError, match=r"^length 3 is not a power of two >= 2$"):
            KeyDistribution.from_json('["x", "1/2", "1/2"]', mode=mode)
    monkeypatch.setitem(CAPS, "key_bits", CAPS["key_bits"]._replace(limit=2))
    with pytest.raises(ResourceLimitError, match=r"^a dense law over 2\^3 keys needs 3 bits, over the key_bits cap"):
        KeyDistribution.from_json(json.dumps(["x"] * 8), mode="rational")


# ---------------------------------------------------------------- distance


def test_statistical_distance_frozen():
    u = KeyDistribution.uniform(2, mode="rational")
    assert statistical_distance(KeyDistribution(2, P_RAT), u) == F(1, 4)
    pf = KeyDistribution(2, [0.5, 0.3, 0.125, 0.075])
    uf = KeyDistribution.uniform(2)
    assert statistical_distance(pf, uf) == pytest.approx(0.3, abs=1e-15)


def test_statistical_distance_basics():
    p = KeyDistribution(2, P_RAT)
    u = KeyDistribution.uniform(2, mode="rational")
    assert statistical_distance(p, p) == 0
    assert statistical_distance(p, u) == statistical_distance(u, p)
    with pytest.raises(ValidationError):
        statistical_distance(p, KeyDistribution.uniform(3, mode="rational"))
    # mixed backends are allowed here and degrade to float
    mixed = statistical_distance(p, KeyDistribution.uniform(2))
    assert isinstance(mixed, float) and mixed == pytest.approx(0.25)


@given(st.lists(st.integers(0, 100), min_size=4, max_size=4),
       st.lists(st.integers(0, 100), min_size=4, max_size=4),
       st.lists(st.integers(0, 100), min_size=4, max_size=4))
def test_distance_triangle_inequality(a, b, c):
    dists = []
    for raw in (a, b, c):
        total = sum(raw) or 1
        probs = [F(x, total) for x in raw]
        probs[0] += 1 - sum(probs)
        if probs[0] < 0:
            return
        dists.append(KeyDistribution(2, probs))
    pa, pb, pc = dists
    assert statistical_distance(pa, pc) <= statistical_distance(pa, pb) + statistical_distance(pb, pc)
    assert 0 <= statistical_distance(pa, pb) <= 1


# ---------------------------------------------------------------- entropies


def test_entropy_stats_frozen():
    st_ = entropy_stats(KeyDistribution(2, P_RAT))
    assert st_.p1 == F(1, 2)
    assert st_.min_entropy_bits == 1.0
    assert st_.shannon_bits == pytest.approx(1.75, abs=1e-13)


def test_entropy_extremes():
    u = entropy_stats(KeyDistribution.uniform(3, mode="rational"))
    assert u.p1 == F(1, 8) and u.min_entropy_bits == 3.0 and u.shannon_bits == pytest.approx(3.0)
    pt = entropy_stats(KeyDistribution.point_mass(3, at=5, mode="rational"))
    assert pt.p1 == 1 and pt.min_entropy_bits == 0.0 and pt.shannon_bits == 0.0


def test_binary_entropy_frozen():
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)
    assert binary_entropy(F(1, 4)) == pytest.approx(0.8112781244591328, abs=1e-14)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.3) == binary_entropy(0.7)
    with pytest.raises(ValidationError):
        binary_entropy(-0.1)
    with pytest.raises(ValidationError):
        binary_entropy(1.01)


# ---------------------------------------------------------------- probe model


def test_probe_model_validation():
    prior = KeyDistribution(2, P_RAT)
    with pytest.raises(ValidationError):
        ClassicalProbeModel(prior, ROWS[:3])  # one row per key value
    bad = [row[:] for row in ROWS]
    bad[1] = [F(1, 2), F(1, 3)]
    with pytest.raises(ValidationError):
        ClassicalProbeModel(prior, bad)  # rows must be stochastic
    with pytest.raises(ValidationError):
        ClassicalProbeModel(prior, [[0.5, 0.5]] * 4)  # float rows on exact prior


def test_mutual_information_frozen():
    model = ClassicalProbeModel(KeyDistribution(2, P_RAT), ROWS)
    assert mutual_information(model) == pytest.approx(0.5172327717796459, abs=1e-12)


def test_mutual_information_independent_channel_is_zero():
    model = ClassicalProbeModel(KeyDistribution(2, P_RAT), [[F(1, 3), F(2, 3)]] * 4)
    assert mutual_information(model) == pytest.approx(0.0, abs=1e-15)


def test_mutual_information_bounded_by_prior_entropy():
    # identity-ish channel reveals everything: I = H(K)
    eye = [[F(1 if y == k else 0) for y in range(4)] for k in range(4)]
    model = ClassicalProbeModel(KeyDistribution(2, P_RAT), eye)
    assert mutual_information(model) == pytest.approx(1.75, abs=1e-13)


def test_d_criterion_frozen():
    model = ClassicalProbeModel(KeyDistribution(2, P_RAT), ROWS)
    assert d_criterion(model) == F(9, 20)


def test_d_criterion_uniform_unrevealing_is_zero():
    model = ClassicalProbeModel(
        KeyDistribution.uniform(2, mode="rational"), [[F(1, 2), F(1, 2)]] * 4
    )
    assert d_criterion(model) == 0


def test_d_criterion_at_least_marginal_distance():
    # with a constant channel, d reduces to delta(prior, uniform)
    prior = KeyDistribution(2, P_RAT)
    model = ClassicalProbeModel(prior, [[F(1)] for _ in range(4)])
    assert d_criterion(model) == statistical_distance(
        prior, KeyDistribution.uniform(2, mode="rational")
    )


# ---------------------------------------------------------------- states


def test_trace_distance_frozen():
    rho = HermitianState(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
    sigma = HermitianState(np.eye(2) / 2)
    assert trace_distance(rho, sigma) == pytest.approx(0.24494897427831783, abs=1e-14)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_matches_delta_on_diagonals():
    probs = [0.5, 0.3, 0.125, 0.075]
    rho = HermitianState.from_distribution(KeyDistribution(2, probs))
    sigma = HermitianState.from_distribution(KeyDistribution.uniform(2))
    expected = statistical_distance(KeyDistribution(2, probs), KeyDistribution.uniform(2))
    assert trace_distance(rho, sigma) == pytest.approx(expected, abs=1e-14)


def test_state_validation():
    with pytest.raises(ValidationError, match="^state is not Hermitian$"):
        HermitianState(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match=r"^state trace is 2\.0, not 1$"):
        HermitianState(np.eye(2))
    with pytest.raises(ValidationError, match=r"^state has negative eigenvalue -0\.5$"):
        HermitianState(np.diag([1.5, -0.5]))
    for non_finite in ([[math.nan]], [[math.inf]], [[0.5, complex(0, math.nan)], [0, 0.5]]):
        with pytest.raises(ValidationError, match="^state has a non-finite entry$"):
            HermitianState(non_finite)
    with pytest.raises(ValidationError):
        HermitianState(np.eye(128) / 128)  # beyond the supported dimension
    for ragged_or_not_numbers in ([[1, 0], [0]], [[1, "x"]], [[1, [2]]]):
        with pytest.raises(ValidationError, match="not a matrix of numbers"):
            HermitianState(ragged_or_not_numbers)
    with pytest.raises(ValidationError):
        trace_distance(
            HermitianState(np.eye(2) / 2), HermitianState(np.eye(4) / 4)
        )


def test_shannon_entropy_ignores_zero_entries():
    d = KeyDistribution(2, [F(1, 2), F(1, 2), F(0), F(0)])
    assert entropy_stats(d).shannon_bits == pytest.approx(1.0, abs=1e-15)
    assert math.isfinite(entropy_stats(d).min_entropy_bits)
