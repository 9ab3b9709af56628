"""Distances, entropies, and probe-model measures.

Frozen expectations were produced by independent reference
implementations (plain summation over the defining formulas, mpmath at
60 digits for entropies, eigenvalue decomposition for matrix
distances) and are asserted here at 1e-12 or exactly.
"""

import functools
import json
import math
import operator
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles

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
from keysec import cli, dist
from keysec.dist import _LONG_ROW, _certified, _check_rows, _exact_sum, _in_order, _total
from keysec.numerics import CAPS, SLACKS

TOTAL = SLACKS["total"].size  # a float law's total may miss 1 by this much

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
    assert d != "a law" and d != KeyDistribution.uniform(1, mode="rational")  # not a law; another bit length
    assert KeyDistribution(2, (p for p in [F(1, 4)] * 4)) == d  # entries from a generator
    assert len(d) == 4 and list(d) == [F(1, 4)] * 4
    with pytest.raises(ValidationError, match="^a float-mode distribution has no exact lattice$"):
        KeyDistribution.uniform(2).lattice


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
    "empty last part": ["1/2", "1/"],
    "empty middle part": ["1/4", "1/", "1/4", "1/4"],
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


def test_the_common_denominator_is_charged_before_any_numerator_is_scaled():
    rng = random.Random(18)
    short = [f"1/{rng.randrange(10**17, 10**18)}" for _ in range(1024)]  # the whole-text reader
    long = [f"1/{rng.randrange(10**999, 10**1000)}" for _ in range(1024)]  # the parse_number loop
    refusal = r"^the entries' common denominator needs \d+ bits, over the denominator_bits cap of 16384 bits$"
    for entries in (short, long):
        with pytest.raises(ResourceLimitError, match=refusal):
            KeyDistribution.from_json(json.dumps(entries))
    rows = [[F(e) for e in long[:512]], [F(e) for e in long[512:]]]
    with pytest.raises(ResourceLimitError, match=refusal):
        ClassicalProbeModel(KeyDistribution.uniform(1, mode="rational"), rows)
    # a denominator of 2^16383 has 16,384 bits: the most the cap accepts
    assert KeyDistribution(1, [F(1, 1 << 16383), 1 - F(1, 1 << 16383)]).lattice.den == 1 << 16383
    with pytest.raises(ResourceLimitError, match="needs 16385 bits"):
        KeyDistribution(1, [F(1, 1 << 16384), 1 - F(1, 1 << 16384)])


def test_a_wrong_length_is_refused_before_any_entry_is_read(monkeypatch):
    for mode in ("rational", "float", None):
        with pytest.raises(ValidationError, match=r"^length 3 is not a power of two >= 2$"):
            KeyDistribution.from_json('["x", "1/2", "1/2"]', mode=mode)
    monkeypatch.setitem(CAPS, "key_bits", CAPS["key_bits"]._replace(limit=2))
    for entries in (["x"] * 8, ["1/8"] * 8):  # a plain array is refused before its numbers are read too
        with pytest.raises(ResourceLimitError, match=r"^a dense law over 2\^3 keys needs 3 bits, over the key_bits cap"):
            KeyDistribution.from_json(json.dumps(entries), mode="rational")


def _no_decode(text, what):
    raise AssertionError(f"{what} was decoded as JSON")


@pytest.mark.parametrize("n", range(1, 13))
def test_plain_arrays_are_read_from_their_text_with_no_json_decode(n, monkeypatch):
    """`json.dumps` output, compact separators and `to_json` output read to the law's lattice,
    int64 or (half the mass on one key, at odd n >= 9) ``object``, with the JSON reader disabled."""
    rng = random.Random(n)
    top = 10**14 if n % 2 else 1000
    weights = [rng.randrange(top) for _ in range(1 << n)]
    weights[0] += top << n >> 1
    law = [F(w, sum(weights)) for w in weights]
    oracle = _outcome(lambda: KeyDistribution(n, law))
    entries = [f"{p.numerator * k}/{p.denominator * k}" for p, k in zip(law, rng.choices([1, 2, 3], k=1 << n))]
    texts = [json.dumps(entries), json.dumps(entries, separators=(",", ":")), KeyDistribution(n, law).to_json()]
    monkeypatch.setattr(dist, "_json_array", _no_decode)
    for text in texts:
        for mode in ("rational", None):
            assert _outcome(lambda: KeyDistribution.from_json(text, mode=mode)) == oracle


def test_a_law_file_ending_in_a_newline_is_read_with_no_json_decode(tmp_path, monkeypatch):
    """JSON whitespace at either end leaves a plain array plain: a file's closing newline included."""
    path = tmp_path / "law.json"
    path.write_text('["1/2", "1/4", "1/8", "1/8"]\n', encoding="utf-8")
    monkeypatch.setattr(dist, "_json_array", _no_decode)
    law = cli._distribution(f"@{path}", "rational")
    assert law == KeyDistribution(2, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
    assert KeyDistribution.from_json(' \t\r\n["1/2", "1/2"]\r\n') == KeyDistribution.uniform(1, mode="rational")


def test_a_form_feed_is_not_json_whitespace():
    for text in ('["1/2", "1/2"]\x0c', '\x0c["1/2", "1/2"]'):  # str.strip() would drop it; json.loads refuses it
        with pytest.raises(ValidationError, match="^distribution is not valid JSON"):
            KeyDistribution.from_json(text, mode="rational")


def _decoded(text):
    """The outcome of decoding ``text`` as JSON and reading its entries as `_parsed` does, or the JSON refusal."""
    try:
        entries = json.loads(text)
    except ValueError as exc:
        return ValidationError, f"distribution is not valid JSON: {exc}"
    return _parsed(entries)


def _nth(text, old, new, k):
    """``text`` with occurrence ``k`` (modulo their count) of ``old`` replaced by ``new``."""
    if old not in text:
        return text
    at = -1
    for _ in range(k % text.count(old) + 1):
        at = text.index(old, at + 1)
    return text[:at] + new + text[at + len(old):]


#: edits that take a plain array's text just off its shape, each at the k-th place it can go
OFF_SHAPE = {
    "space inside [": lambda t, k: "[ " + t[1:],
    "space inside ]": lambda t, k: t[:-1] + " ]",
    "space around the text": lambda t, k: f" {t}\n",
    "space before a comma": lambda t, k: _nth(t, '", "', '" , "', k),
    "no space after a comma": lambda t, k: _nth(t, '", "', '","', k),
    "two spaces after a comma": lambda t, k: _nth(t, '", "', '",  "', k),
    "newline separator": lambda t, k: _nth(t, '", "', '",\n"', k),
    "escaped slash": lambda t, k: _nth(t, "/", "\\/", k),
    "escaped digit": lambda t, k: _nth(t, "1", "\\u0031", k),
    "trailing comma": lambda t, k: t[:-1] + ",]",
    "arabic-indic digit": lambda t, k: _nth(t, "2", "\u0662", k),
    "fullwidth digit": lambda t, k: _nth(t, "1", "\uff11", k),
    "digit after a string": lambda t, k: _nth(t, '",', '"5,', k),
    "digit before a string": lambda t, k: _nth(t, ' "', ' 5"', k),
    "digit inside a separator": lambda t, k: _nth(t, '", "', '",5 "', k),
    "digit after ]": lambda t, k: t + "0",
    "digit before ]": lambda t, k: t[:-1] + "0]",
    "lone surrogate": lambda t, k: _nth(t, "1", "\ud800", k),
    "empty first numerator": lambda t, k: re.sub(r'"[0-9]+/', '"/', t, count=1),
    "empty last denominator": lambda t, k: re.sub(r'/[0-9]+"]$', '/"]', t),
    "on the shape": lambda t, k: t,
}


@st.composite
def _off_shape_texts(draw):
    """A plain array, its parts 1 to 25 digits long or 2^63 - 1 and its entries sometimes
    ``"1/0"`` or a bare ``"0"``, in the text of an `OFF_SHAPE` edit."""
    n = draw(st.integers(1, 4))
    digits = st.integers(1, 25).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1).map(str))
    part = st.one_of(digits, st.just(str(_E63 - 1)), st.sampled_from(["1", "2", "12"]))
    if draw(st.booleans()):  # a law over one denominator, so some texts are read to a law
        den = int(draw(part)) + (1 << n)
        nums = [1] * ((1 << n) - 1) + [den - (1 << n) + 1]
        entries = [f"{a}/{den}" for a in draw(st.permutations(nums))]
    else:
        entries = [f"{draw(part)}/{draw(part)}" for _ in range(1 << n)]
    entries[draw(st.integers(0, (1 << n) - 1))] = draw(st.sampled_from([entries[0], "1/0", "0"]))
    text = json.dumps(entries)
    edit = draw(st.sampled_from(sorted(OFF_SHAPE)))
    return edit, OFF_SHAPE[edit](text, draw(st.integers(0, 100)))


@settings(max_examples=400, deadline=None)
@given(_off_shape_texts())
def test_texts_just_off_a_plain_array_read_as_their_json_decode(case):
    edit, text = case
    expected = _decoded(text)
    assert _outcome(lambda: KeyDistribution.from_json(text, mode="rational")) == expected
    try:
        entries = json.loads(text)
    except ValueError:  # a misspelled mode is never looked at before the text is found not to be JSON
        assert _outcome(lambda: KeyDistribution.from_json(text, mode="rationl")) == expected
        return
    if any("/" in e for e in entries):
        assert _outcome(lambda: KeyDistribution.from_json(text)) == expected
    with pytest.raises(ValidationError, match="^unknown numeric mode 'rationl'"):
        KeyDistribution.from_json(text, mode="rationl")


def test_the_numpy_reads_the_plain_reader_relies_on():
    """`np.fromstring` saturates an int64 part at 2^63 - 1, which the plain reader takes as a part
    too long to read, and stops short at an empty part, inside or first, which it refuses."""
    assert np.fromstring("99999999999999999999", dtype=np.int64, sep=",").tolist() == [_E63 - 1]
    assert np.fromstring(b"1,2,", dtype=np.int64, sep=",").tolist() == [1, 2]
    for text in (b"1,,2", b",1,2"):
        with pytest.raises(ValueError):
            np.fromstring(text, dtype=np.int64, sep=",")


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


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_a_certain_key_has_positive_zero_entropy(mode):
    # -log2(1.0) and a negated zero total are -0.0; the entropies are written 0.0 - x
    for n in (1, 4):
        stats = entropy_stats(KeyDistribution.point_mass(n, at=n - 1, mode=mode))
        assert math.copysign(1.0, stats.min_entropy_bits) == math.copysign(1.0, stats.shannon_bits) == 1.0
        row = [F(1, 2)] * 2 if mode == "rational" else [0.5, 0.5]
        model = ClassicalProbeModel(KeyDistribution.point_mass(n, mode=mode), [row] * (1 << n))
        assert math.copysign(1.0, mutual_information(model)) == 1.0


@pytest.mark.parametrize("argv, key", [
    (("dist", "entropy", "--p", "[1.0,0.0]"), "min_entropy_bits"),
    (("dist", "entropy", "--p", "[1.0,0.0]"), "shannon_entropy_bits"),
    (("dist", "entropy", "--p", '["1","0"]'), "shannon_entropy_bits"),
    (("dist", "mi", "--prior", "[1.0,0.0]", "--conditional", "[[0.5,0.5],[0.25,0.75]]"), "mutual_information_bits"),
    # a -0.0 argument reads as +0.0 (`check_scalar`); the inputs echo its text
    (("ecpa", "posterior", "--code", "0110", "--observation", "0110", "--crossover", "-0.0", "--mode", "float"),
     "posterior"),
    (("budget", "markov", "--mean", "-0.0", "--threshold", "1", "--mode", "float"), "bound"),
    (("spike", "construct", "--n", "1", "--eps", "-0.0", "--mode", "float"), "distance"),
    (("conditional", "max-deviation", "--n", "1", "--eps", "-0.0", "--event", "0", "--sub-event", "0",
      "--mode", "float"), "deviation"),
])
def test_a_certain_key_prints_no_negative_zero(capsys, argv, key):
    assert cli.main(list(argv)) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert 0.0 in np.ravel(outputs[key]) and "-0.0" not in json.dumps(outputs)


def test_the_numpy_log2_the_entropy_relies_on():
    """`np.log2` rounds each entry as it rounds that entry alone, wherever the entry sits: the
    Shannon kernel takes one call over the support, and its reference `np.log2(float(p))` per entry."""
    values = 1.0 - np.random.default_rng(35).random(200_001)  # in (0, 1]
    bits = np.log2(values).view(np.int64)
    strided = np.empty(2 * values.size)
    strided[::2] = values
    shifted = np.empty(values.size + 1)
    shifted[1:] = values
    assert np.array_equal(np.log2(strided[::2]).view(np.int64), bits)
    assert np.array_equal(np.log2(shifted[1:]).view(np.int64), bits)
    assert np.array_equal(np.array([np.log2(x) for x in values.tolist()]).view(np.int64), bits)


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


@pytest.mark.parametrize("q, rel", [(1 - F(1, 10**19), 0.03), (1 - F(1, 10**12), 1e-6), (F(7, 10), 1e-15)])
def test_an_exact_q_near_one_keeps_its_distance_to_one(q, rel):
    # h(q) = h(1-q), so an exact q is reflected below 1/2 before it is rounded: the two agree bit for bit,
    # and near 1 the error is that of the small argument 1-q, whose (1-q) log2(1-q) term rounds 1 - (1-q)
    # (2.2% at 10**-19, 7.7e-7 at 10**-12); q = 1 - 10**-19 rounded to a float is 1, with h = 0
    assert binary_entropy(q) == binary_entropy(1 - q)
    assert binary_entropy(q) == pytest.approx(float(oracles.binary_entropy_mp(q)), rel=rel)


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
    with pytest.raises(ValidationError, match="^conditional row 2 has 1 entries, expected 2$"):
        ClassicalProbeModel(prior, [ROWS[0], ROWS[1], [F(1)], ROWS[3]])
    with pytest.raises(ValidationError, match="^outcome alphabet must be non-empty$"):
        ClassicalProbeModel(prior, [[]] * 4)


def test_mutual_information_frozen():
    model = ClassicalProbeModel(KeyDistribution(2, P_RAT), ROWS)
    assert mutual_information(model) == pytest.approx(0.5172327717796459, abs=1e-12)


def test_mutual_information_independent_channel_is_zero():
    model = ClassicalProbeModel(KeyDistribution(2, P_RAT), [[F(1, 3), F(2, 3)]] * 4)
    assert mutual_information(model) == pytest.approx(0.0, abs=1e-15)
    never = ClassicalProbeModel(KeyDistribution(2, P_RAT), [[F(1, 3), F(0), F(2, 3)]] * 4)  # p(y = 1) = 0
    assert mutual_information(never) == mutual_information(model)


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
    assert rho != HermitianState(rho.matrix) and len({rho, rho}) == 1  # states compare by identity


def test_trace_distance_matches_delta_on_diagonals():
    probs = [0.5, 0.3, 0.125, 0.075]
    rho = HermitianState.from_distribution(KeyDistribution(2, probs))
    sigma = HermitianState.from_distribution(KeyDistribution.uniform(2))
    expected = statistical_distance(KeyDistribution(2, probs), KeyDistribution.uniform(2))
    assert trace_distance(rho, sigma) == pytest.approx(expected, abs=1e-14)


def test_hermiticity_is_numpy_allcloses_test_with_a_relative_part():
    """``|m_ij - conj(m_ji)| <= hermitian + hermitian_rel * |m_ji|``: an asymmetry of 1e-7 on
    entries of 0.1 passes through the relative part, and one of 1e-5 does not."""
    HermitianState([[0.5, 0.1 + 1e-7], [0.1, 0.5]])
    with pytest.raises(ValidationError, match="^state is not Hermitian$"):
        HermitianState([[0.5, 0.1 + 1e-5], [0.1, 0.5]])


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
    with pytest.raises(ValidationError, match=r"^state must be a square matrix, got shape \(1, 2\)$"):
        HermitianState([[1, 0]])
    with pytest.raises(ValidationError):
        trace_distance(
            HermitianState(np.eye(2) / 2), HermitianState(np.eye(4) / 4)
        )


def test_shannon_entropy_ignores_zero_entries():
    d = KeyDistribution(2, [F(1, 2), F(1, 2), F(0), F(0)])
    assert entropy_stats(d).shannon_bits == pytest.approx(1.0, abs=1e-15)
    assert math.isfinite(entropy_stats(d).min_entropy_bits)


# ---------------------------------------------------------------- correctly rounded sums

#: sizes around the row length at which float sums switch from math.fsum to `_exact_sum`
_SUM_SIZES = [1, 2, _LONG_ROW - 1, _LONG_ROW, _LONG_ROW + 1, 3 * _LONG_ROW]


def _fsum_hex(values: np.ndarray) -> str:
    return math.fsum(values.tolist()).hex()


@st.composite
def _float_arrays(draw):
    """Finite float64 arrays: values of either sign over a drawn range of binades (subnormals
    included), with runs of zeros and negative zeros."""
    size = draw(st.sampled_from(_SUM_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    lo, hi = draw(st.sampled_from([(-1074, -1000), (-1074, 1), (-60, 1), (-1074, 100), (-30, -29)]))
    values = np.ldexp(rng.random(size), rng.integers(lo, hi, size))
    values[rng.random(size) < draw(st.sampled_from([0.0, 0.5]))] *= -1.0
    values[rng.random(size) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = draw(st.sampled_from([0.0, -0.0]))
    return values


@given(_float_arrays())
def test_exact_sum_is_the_fsum_of_the_entries(values):
    assert _exact_sum(values).hex() == _fsum_hex(values)


@given(st.sampled_from(_SUM_SIZES), st.integers(0, 2**32))
def test_exact_sum_of_a_law_with_slightly_negative_entries(size, seed):
    # float laws may hold entries down to -TOTAL; their sums are the validation totals
    rng = np.random.default_rng(seed)
    law = rng.random(size) ** 2
    law /= law.sum()
    law[rng.random(size) < 0.2] = -TOTAL * rng.random()
    assert _exact_sum(law).hex() == _fsum_hex(law)


@pytest.mark.parametrize(
    "head, fill",
    [
        ([], 5e-324),  # the least subnormal, repeated
        ([1.0, 2**-53], 0.0),  # a tie, rounded to even: 1.0
        ([1 + 2**-52, 2**-53], 0.0),  # a tie, rounded to even: 1 + 2**-51
        ([-1.0, -(2**-53)], 0.0),
        ([2.0**1000, 5e-324, -(2.0**1000)], 0.0),  # 2,074 binades apart; the sum is the subnormal
        ([2.0**-1000, 2.0**20, -(2.0**20)], 0.0),
        ([-(2**-53)], 1 - 2**-53),  # the largest mantissa: both halves at their bound
        ([], -0.0),
        ([], 0.0),
    ],
)
@pytest.mark.parametrize("size", [4, _LONG_ROW - 1, _LONG_ROW, _LONG_ROW + 1, 3 * _LONG_ROW])
def test_exact_sum_of_ties_subnormals_and_zeros(head, fill, size):
    values = np.array(head + [fill] * (size - len(head)))
    assert _exact_sum(values).hex() == _fsum_hex(values)
    if not values.any():
        assert _exact_sum(values).hex() == (0.0).hex()  # as math.fsum: +0.0, also from -0.0 entries


@pytest.mark.parametrize("width", [_LONG_ROW - 1, _LONG_ROW, 3 * _LONG_ROW])
def test_total_of_tables_of_both_widths(width):
    # every row in one call, an array of row sums: float rows of both summations (an all-zero
    # row, entries of both signs, subnormals, one entry slightly below 0), then integer rows
    # in int64 and past it; a row alone gives a Python number
    rng = np.random.default_rng(width)
    table = np.ldexp(rng.random((6, width)), rng.integers(-80, 1, (6, width)))
    table[1] = 0.0
    table[2, ::2] = -table[2, ::2]
    table[4] = np.ldexp(rng.random(width), -1070)
    table[5, 7] = -TOTAL * rng.random()
    expected = [math.fsum(row).hex() for row in table.tolist()]
    for rows in (table, table.T.copy().T):  # contiguous and strided rows
        sums = _total(rows)
        assert isinstance(sums, np.ndarray) and sums.dtype == np.float64
        assert [x.hex() for x in sums.tolist()] == expected
    assert type(_total(table[3])) is float and _total(table[3]).hex() == expected[3]
    ints = rng.integers(-(2**40), 2**40, (3, width))
    for rows in (ints, ints.astype(object) * 2**40):
        sums = _total(rows)
        assert isinstance(sums, np.ndarray) and sums.dtype == rows.dtype
        assert sums.tolist() == [sum(row) for row in rows.tolist()]
        assert type(_total(rows[0])) is int and _total(rows[0]) == sums[0]


@pytest.mark.parametrize("total", [_total, _in_order])
@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_both_totals_give_a_number_for_a_row_and_an_array_for_a_table(total, dtype):
    table = np.arange(6).reshape(2, 3).astype(dtype)
    assert type(total(table[1])) is (float if dtype is np.float64 else int) and total(table[1]) == 12
    sums = total(table)
    assert isinstance(sums, np.ndarray) and sums.dtype == table.dtype and sums.tolist() == [3, 12]


@given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 300))
@settings(max_examples=200)
def test_in_order_adds_left_to_right(seed, rows, width):
    # the fold a loop over the entries makes, to the bit, whatever builtin `sum` does
    rng = np.random.default_rng(seed)
    table = np.ldexp(rng.random((rows, width)), rng.integers(-60, 1, (rows, width)))
    table[rng.random((rows, width)) < 0.3] *= -1.0
    expected = [functools.reduce(operator.add, row).hex() for row in table.tolist()]
    assert [x.hex() for x in _in_order(table).tolist()] == expected
    totals = [_in_order(row) for row in table]
    assert {type(x) for x in totals} == {float} and [x.hex() for x in totals] == expected


def test_in_order_keeps_integers_exact():
    assert type(_in_order(np.array([3, 4], dtype=np.int64))) is int
    wide = np.array([2**63 - 1, 2**63, 5], dtype=object)  # past int64
    total = _in_order(wide)
    assert type(total) is int and total == 2**64 + 4
    assert _in_order(np.stack([wide, wide])).tolist() == [2**64 + 4] * 2


def test_no_bin_of_an_exact_sum_reaches_2_to_the_53():
    # _exact_sum bins a high half |h| < 2**26 and a low half |l| < 2**27 of each mantissa,
    # in runs of 2**26 entries: float64 adds integers exactly while partial sums stay within 2**53
    run = 1 << 26
    assert run * ((1 << 26) - 1) < 2**53 and run * ((1 << 27) - 1) < 2**53
    # a law has at most 2**24 entries, so every sum over one law is binned in a single run
    assert 1 << CAPS["key_bits"].limit <= run
    # d_criterion sums its flattened (2**n x outcomes) table, and no cap bounds the outcomes:
    # past 2**26 entries the run length, not a cap, keeps each bin exact
    assert (1 << CAPS["key_bits"].limit) * 5 > run
    # frexp's exponents of finite doubles span -1073..1024: a bounded number of bins
    assert np.frexp(5e-324)[1] == -1073 and np.frexp(np.finfo(float).max)[1] == 1024


# ---------------------------------------------------------------- certified totals


def _fsum_verdict(rows: np.ndarray, label) -> str | None:
    """The refusal a float table earns by its entries' range, then by the correctly rounded
    sum of each row; None if it earns none."""
    for k, row in enumerate(rows.tolist()):
        for i, entry in enumerate(row):
            if not -TOTAL <= entry <= 1 + TOTAL:
                return f"{label(k)} entry {i} is {entry!r}, outside [0, 1]"
    for k, row in enumerate(rows.tolist()):
        total = math.fsum(row)
        if abs(total - 1) > TOTAL:
            return f"{label(k)} sums to {total!r}, not 1 (tolerance {TOTAL})"
    return None


@st.composite
def _edge_tables(draw):
    """Float tables (one row: a law; several: probe rows) whose rows' correctly rounded
    totals sit at 1 or 1 +- TOTAL, give or take a few ulps, some with entries
    slightly below 0."""
    width = draw(st.sampled_from([2, 3, 16, 255, _LONG_ROW - 1, _LONG_ROW, _LONG_ROW + 1, 4096]))
    count = draw(st.sampled_from([1, 1, 4, 64])) if width <= 16 else 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = rng.random((count, width)) ** draw(st.sampled_from([1, 4]))
    rows /= rows.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        rows[rng.random(rows.shape) < 0.2] = -TOTAL * rng.random()
    for row in rows:
        # move the largest entry so the correctly rounded total lands at the drawn target
        target = 1 + draw(st.sampled_from([-1.0, 0.0, 1.0])) * TOTAL
        target += draw(st.integers(-4, 4)) * 2.0**-52
        row[np.argmax(row)] += target - math.fsum(row.tolist())
    return rows


@settings(max_examples=300)
@given(_edge_tables())
def test_the_certified_total_keeps_the_correctly_rounded_verdict(rows):
    count, width = rows.shape
    label = ("distribution" if count == 1 else "conditional row {}").format
    refusal = _fsum_verdict(rows, label)
    try:
        nums, den = _check_rows(rows.ravel(), "float", width, label)
    except ValidationError as exc:
        assert str(exc) == refusal
    else:
        assert refusal is None
        assert den == 1 and nums.tobytes() == rows.tobytes()


def test_certified_laws_and_probe_rows_skip_the_correctly_rounded_sum(monkeypatch):
    def refuse(nums):
        raise AssertionError("_total ran")

    monkeypatch.setattr("keysec.dist._total", refuse)
    rng = np.random.default_rng(29)
    law = rng.random(1 << 16)
    KeyDistribution(16, law / law.sum())
    rows = rng.random((1 << 10, 16))
    prior = rng.random(1 << 10)
    ClassicalProbeModel(KeyDistribution(10, prior / prior.sum()), (rows / rows.sum(axis=1, keepdims=True)).tolist())


def test_laws_the_bound_cannot_decide_reach_the_correctly_rounded_sum(monkeypatch):
    calls = []

    def counted(nums):
        calls.append(nums.shape)
        return _total(nums)

    monkeypatch.setattr("keysec.dist._total", counted)
    # 1,024 entries of (1 + 1e-9 - 1e-13) / 1024: the plain sum is within the tolerance,
    # but its error bound, about 2.3e-13 at 1,024 entries, is wider than the room left
    inside = np.full(_LONG_ROW, (1 + TOTAL - 1e-13) / _LONG_ROW)
    KeyDistribution(10, inside)
    assert calls == [(1, _LONG_ROW)]
    outside = np.full(_LONG_ROW, (1 + 2 * TOTAL) / _LONG_ROW)
    with pytest.raises(ValidationError, match=r"^distribution sums to 1\.000000002\d*, not 1 \(tolerance 1e-09\)$"):
        KeyDistribution(10, outside)
    assert calls == [(1, _LONG_ROW)] * 2


def test_no_row_is_certified_where_the_summation_bound_exceeds_the_tolerance():
    # gamma_{N-1} = (N - 1) u / (1 - (N - 1) u) with u = 2**-53 passes TOTAL at N = 2**24
    size, u = 1 << 24, 2.0**-53
    assert (size - 1) * u / (1 - (size - 1) * u) > TOTAL
    for bits in (22, 23, 24):  # entries 2**-bits sum to exactly 1, in every order
        row = np.broadcast_to(2.0**-bits, (1, 1 << bits))
        assert _certified(row, TOTAL, 0.0) is (bits == 22)
