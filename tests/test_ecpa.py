"""Error-correction leakage: codes, posteriors, MAP success ordering.

Exact expectations come from `_oracles.posterior_oracle` and
`_oracles.map_success_oracle`, which work from the joint law with
Fraction arithmetic and no numpy.
"""

import dataclasses
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from keysec import ecpa
from keysec import (
    CodeEnsemble,
    EveChannel,
    InfeasibleError,
    KeyDistribution,
    ParityCheckMatrix,
    ResourceLimitError,
    ValidationError,
    binary_entropy,
    ec_leak,
    leakage_comparison,
    load_parity_check,
    mixture_posterior,
    random_parity_check,
)

C1_TEXT = "0111\n1011"
C2_TEXT = "1100\n0011"


def _rows(text):
    return [sum(int(ch) << j for j, ch in enumerate(line)) for line in text.split()]


def test_parity_matrices_are_frozen_values():
    c1, again = ParityCheckMatrix.from_text(C1_TEXT), ParityCheckMatrix(4, _rows(C1_TEXT))
    assert c1 == again and hash(c1) == hash(again) == hash((4, tuple(_rows(C1_TEXT))))
    assert c1 != ParityCheckMatrix.from_text(C2_TEXT) and c1 != (4, c1.rows)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c1.rows = (1,)


def test_parity_matrix_basics():
    c1 = ParityCheckMatrix.from_text(C1_TEXT)
    assert c1.n_data == 4 and c1.n_checks == 2
    assert sorted(c1.codewords()) == [0, 7, 11, 12]
    assert sorted(ParityCheckMatrix.from_text(C2_TEXT).codewords()) == [0, 3, 12, 15]
    assert ParityCheckMatrix.from_text(c1.to_text()) == c1
    with pytest.raises(ValidationError):
        ParityCheckMatrix.from_text("0111\n0111")  # dependent rows
    with pytest.raises(ValidationError):
        ParityCheckMatrix.from_text("0000")
    with pytest.raises(ValidationError):
        ParityCheckMatrix.from_text("01\n10\n11")  # more checks than dimensions


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 2**32))))
def test_parity_text_round_trips(shape):
    n, checks, seed = shape
    m = random_parity_check(n, checks, random.Random(seed))
    text = m.to_text()
    assert ParityCheckMatrix.from_text(text) == m
    assert _rows(text) == list(m.rows)  # column j of each line is bit j of its row


def test_a_bit_string_is_read_as_the_reference_reads_it():
    rng = random.Random(23)
    for width in range(1, 17):
        words = range(1 << width) if width <= 8 else [0, (1 << width) - 1, *rng.sample(range(1 << width), 200)]
        for word in words:
            text = "".join(str((word >> j) & 1) for j in range(width))
            assert _rows(text) == [word]
            assert ecpa._as_word(f" {text}\n", width) == ecpa._as_word([int(ch) for ch in text], width) == word
        with pytest.raises(ValidationError, match="observation has"):
            ecpa._as_word("0" * (width + 1), width)
        with pytest.raises(ValidationError, match="observation must be 0/1 characters"):
            ecpa._as_word("2" * width, width)


def test_a_wide_parity_row_is_refused_in_linear_time():
    start = time.process_time()
    with pytest.raises(ValidationError, match="needs 1600000 bits, over the matrix_bits cap of 16 bits"):
        ParityCheckMatrix.from_text("1" * 1_600_000)  # a row of 1.6 million columns: 55 s when read quadratically
    assert time.process_time() - start < 5


def test_parity_matrix_file_round_trip(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text(C1_TEXT + "\n")
    assert load_parity_check(str(path)) == ParityCheckMatrix.from_text(C1_TEXT)


def test_random_parity_check_properties():
    rng = random.Random(5)
    for _ in range(10):
        m = random_parity_check(6, 3, rng)
        assert m.n_data == 6 and m.n_checks == 3
        assert len(m.codewords()) == 8  # full rank: 2^(6-3)
    # deterministic under a fixed seed
    a = random_parity_check(5, 2, random.Random(11))
    b = random_parity_check(5, 2, random.Random(11))
    assert a == b


def test_codewords_match_the_oracle_in_increasing_order():
    rng = random.Random(17)
    for n in range(1, 13):
        for checks in sorted({1, (n + 1) // 2, n}):
            m = random_parity_check(n, checks, rng)
            words = m.codewords()
            assert list(words) == oracles.enumerate_codewords(m.rows, n)
            assert len(words) == 1 << (n - checks) and all(type(w) is int for w in words)


def test_library_integers_are_read_by_check_int():
    ens = CodeEnsemble([ParityCheckMatrix.from_text(C1_TEXT)] * 2, (F(1, 2), F(1, 2)))
    ch = EveChannel(F(1, 10))
    for call in (
        lambda: ParityCheckMatrix(4, [3.7, True]),
        lambda: ParityCheckMatrix(4, [16]),
        lambda: mixture_posterior(ens, [1.5, 0, True, 0], ch),
        lambda: mixture_posterior(ens, [2, 0, 1, 0], ch),
        lambda: mixture_posterior(ens, "0110", ch, syndromes_hidden=False, code_index=True),
        lambda: mixture_posterior(ens, "0110", ch, syndromes_hidden=False, code_index=0.5),
        lambda: random_parity_check(4, True, random.Random(0)),
        lambda: random_parity_check(4.5, 2, random.Random(0)),
        lambda: random_parity_check(4, 5, random.Random(0)),
    ):
        with pytest.raises(ValidationError):
            call()
    # the refusals a CLI caller can reach keep their wording
    with pytest.raises(ValidationError, match="code index -1 outside the 2-code ensemble"):
        mixture_posterior(ens, "0110", ch, syndromes_hidden=False, code_index=-1)


def test_channel_and_ensemble_validation():
    with pytest.raises(ValidationError):
        EveChannel(-0.1)
    with pytest.raises(ValidationError):
        EveChannel(0.6)  # beyond symmetric-channel midpoint
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="crossover"):
            EveChannel(bad)
    c1 = ParityCheckMatrix.from_text(C1_TEXT)
    with pytest.raises(ValidationError):
        CodeEnsemble([c1, ParityCheckMatrix.from_text("011\n101")], (F(1, 2), F(1, 2)))
    with pytest.raises(ValidationError):
        CodeEnsemble([c1], (F(1, 2),))  # weights must sum to one
    ens = CodeEnsemble([c1], (F(1),))
    assert ens.weights == (F(1),) and type(ens.weights[0]) is F


def test_ensemble_weight_checks():
    codes = [ParityCheckMatrix.from_text(t) for t in (C1_TEXT, C2_TEXT, "1111")]
    ens = CodeEnsemble(codes, (F(1, 3),) * 3)  # exact total, no rounding
    assert all(type(w) is F for w in ens.weights)
    assert CodeEnsemble(codes[:2], (0.5, 0.5 + 1e-12)).weights == (0.5, 0.5 + 1e-12)  # float slack
    for weights, message in (
        ((F(1, 2), F(1, 3)), "ensemble weights sums to 5/6, not 1"),
        ((0.7, 0.7), "ensemble weights sums to 1.4"),
        ((F(-1, 4), F(5, 4)), "ensemble weights entry 0 is Fraction\\(-1, 4\\), outside"),
        ((float("nan"), 1.0), "ensemble weights entry 0 is nan, outside"),
        ((float("nan"), 0.5), "ensemble weights entry 0 is nan, outside"),
        ((0.5, float("inf")), "ensemble weights entry 1 is inf, outside"),
        ((0.5, F(1, 2)), "mix exact rationals and floats"),
    ):
        with pytest.raises(ValidationError, match=message):
            CodeEnsemble(codes[:2], weights)


def test_mixture_posterior_frozen():
    ens = CodeEnsemble(
        [ParityCheckMatrix.from_text(C1_TEXT), ParityCheckMatrix.from_text(C2_TEXT)],
        (F(2, 5), F(3, 5)),
    )
    post = mixture_posterior(ens, "0110", EveChannel(F(1, 10)))
    expected = oracles.posterior_oracle(
        [_rows(C1_TEXT), _rows(C2_TEXT)], [F(2, 5), F(3, 5)],
        sum(int(ch) << j for j, ch in enumerate("0110")), 4, F(1, 10),
    )
    assert list(post.probs) == expected
    assert post.probs[7] == F(81, 154)  # closest codeword of the heavier... of code 1
    assert sum(post.probs) == 1


def test_mixture_posterior_known_code():
    ens = CodeEnsemble(
        [ParityCheckMatrix.from_text(C1_TEXT), ParityCheckMatrix.from_text(C2_TEXT)],
        (F(2, 5), F(3, 5)),
    )
    post = mixture_posterior(
        ens, "0110", EveChannel(F(1, 10)), syndromes_hidden=False, code_index=1
    )
    solo = CodeEnsemble([ParityCheckMatrix.from_text(C2_TEXT)], (F(1),))
    assert post == mixture_posterior(solo, "0110", EveChannel(F(1, 10)))
    with pytest.raises(ValidationError):
        mixture_posterior(ens, "0110", EveChannel(F(1, 10)), syndromes_hidden=False, code_index=2)


def test_mixture_posterior_accepts_bit_sequences():
    ens = CodeEnsemble([ParityCheckMatrix.from_text(C1_TEXT)], (F(1),))
    ch = EveChannel(F(1, 10))
    assert mixture_posterior(ens, "0110", ch) == mixture_posterior(ens, [0, 1, 1, 0], ch)
    with pytest.raises(ValidationError):
        mixture_posterior(ens, "01", ch)  # wrong length
    with pytest.raises(ValidationError):
        mixture_posterior(ens, "01x0", ch)


def test_mixture_posterior_impossible_observation():
    # q = 0 and an observation outside every codeword: zero total likelihood
    ens = CodeEnsemble([ParityCheckMatrix.from_text(C1_TEXT)], (F(1),))
    with pytest.raises(InfeasibleError):
        mixture_posterior(ens, "0001", EveChannel(F(0)))
    # but a codeword observation is fine and gives a point mass
    post = mixture_posterior(ens, "1110", EveChannel(F(0)))  # word 7 = 0111 little-endian
    assert post.probs[7] == 1


def test_leakage_comparison_frozen():
    ens = CodeEnsemble(
        [ParityCheckMatrix.from_text(C1_TEXT), ParityCheckMatrix.from_text(C2_TEXT)],
        (0.4, 0.6),
    )
    cmp = leakage_comparison(ens, EveChannel(0.1))
    assert cmp.p1_code_known_avg == pytest.approx(0.83592, abs=1e-12)
    assert cmp.p1_mixture == pytest.approx(0.79461, abs=1e-12)
    assert cmp.p1_no_code == pytest.approx(0.6561, abs=1e-15)
    assert cmp.p1_code_known_avg >= cmp.p1_mixture >= cmp.p1_no_code


def test_leakage_comparison_matches_exact_oracle():
    weights = [F(2, 5), F(3, 5)]
    rows = [_rows(C1_TEXT), _rows(C2_TEXT)]
    known = oracles.map_success_oracle(rows, weights, 4, F(1, 10), known=True)
    mixture = oracles.map_success_oracle(rows, weights, 4, F(1, 10), known=False)
    ens = CodeEnsemble(
        [ParityCheckMatrix.from_text(C1_TEXT), ParityCheckMatrix.from_text(C2_TEXT)],
        (0.4, 0.6),
    )
    cmp = leakage_comparison(ens, EveChannel(0.1))
    assert cmp.p1_code_known_avg == pytest.approx(float(known), abs=1e-12)
    assert cmp.p1_mixture == pytest.approx(float(mixture), abs=1e-12)


def _seeded_ensembles(rng, count):
    for _ in range(count):
        n = rng.randint(2, 8)
        codes = [random_parity_check(n, rng.randint(1, n), rng) for _ in range(rng.randint(1, 3))]
        raw = [F(rng.randint(1, 9)) for _ in codes]
        yield n, codes, [w / sum(raw) for w in raw], F(rng.randint(1, 49), 100)


def test_mixture_posterior_matches_the_oracle(rng):
    for n, codes, weights, q in _seeded_ensembles(rng, 24):
        y = rng.randrange(1 << n)
        obs = [(y >> j) & 1 for j in range(n)]
        index = rng.randrange(len(codes))
        for hidden, rows, ws in (
            (True, [c.rows for c in codes], weights),
            (False, [codes[index].rows], [F(1)]),
        ):
            expected = oracles.posterior_oracle(rows, ws, y, n, q)
            exact = mixture_posterior(CodeEnsemble(codes, weights), obs, EveChannel(q), hidden, index)
            assert list(exact.probs) == expected
            floats = CodeEnsemble(codes, [float(w) for w in weights])
            post = mixture_posterior(floats, obs, EveChannel(float(q)), hidden, index)
            assert post.mode == "float"
            assert max(abs(a - float(b)) for a, b in zip(post.probs, expected)) <= 1e-12


def test_float_results_keep_their_bits():
    # float.hex values frozen before the code prior was written once for both modes
    pair = CodeEnsemble(
        [ParityCheckMatrix.from_text(C1_TEXT), ParityCheckMatrix.from_text(C2_TEXT)], (0.4, 0.6)
    )
    assert [v.hex() for v in leakage_comparison(pair, EveChannel(0.1))] == [
        "0x1.4fec56d5cfaadp-1", "0x1.abfdb4cc25072p-1", "0x1.96d71f36262cdp-1",
    ]
    post = mixture_posterior(pair, "0110", EveChannel(0.1))
    assert {k: p.hex() for k, p in enumerate(post.probs) if p} == {
        0: "0x1.2b3884fcace20p-3", 3: "0x1.67109f959c428p-4", 7: "0x1.0d4c77b03531ep-1",
        11: "0x1.a98ef606a63bep-8", 12: "0x1.2b3884fcace20p-3", 15: "0x1.67109f959c428p-4",
    }
    codes = [ParityCheckMatrix(7, rows) for rows in ((60, 79), (48, 35, 18), (24, 111, 87, 1))]
    triple = CodeEnsemble(codes, (0.25, 0.35, 0.4))
    assert [v.hex() for v in leakage_comparison(triple, EveChannel(0.15))] == [
        "0x1.48455c380f3afp-2", "0x1.311a2aa19439bp-1", "0x1.db55270df6627p-2",
    ]
    hidden = mixture_posterior(triple, "0110101", EveChannel(0.15))
    known = mixture_posterior(triple, "0110101", EveChannel(0.15), syndromes_hidden=False, code_index=2)
    assert (hidden[0].hex(), hidden[94].hex(), known[94].hex()) == (
        "0x1.7373852910b0ep-9", "0x1.4b5349bd1f7b1p-2", "0x1.3a6e978d4fdf4p-1",
    )


def test_map_success_matches_the_brute_force_oracle():
    # q = 1/2 and the doubles just below it make the float likelihoods of
    # neighbouring flip counts nearly equal
    rng = random.Random(1010)
    near_half = [float(np.nextafter(0.5, 0))]
    for _ in range(3):
        near_half.append(float(np.nextafter(near_half[-1], 0)))
    for n in range(1, 13):
        flips = np.arange(n + 1, dtype=float)
        for trial in range(2 if n > 10 else 4):
            codes = [random_parity_check(n, rng.randint(1, n), rng) for _ in range(rng.randint(1, 12))]
            weights = [rng.random() + 0.01 for _ in codes]
            prior = ecpa._code_prior(zip(codes, [w / sum(weights) for w in weights]), n, False).nums
            for q in (0.0, 0.5, near_half[trial], rng.random() / 2):
                like = np.power(q, flips) * np.power(1.0 - q, n - flips)
                got = ecpa._map_success(prior, like, n)
                assert got.hex() == oracles.map_success_float_oracle(prior, like).hex(), (n, trial, q)


def test_single_code_known_equals_mixture_exactly():
    ens = CodeEnsemble([ParityCheckMatrix.from_text(C1_TEXT)], (1.0,))
    cmp = leakage_comparison(ens, EveChannel(0.2))
    assert cmp.p1_code_known_avg == cmp.p1_mixture  # bitwise, same computation


def test_ordering_on_random_ensembles(rng):
    for _ in range(8):
        n = rng.randint(3, 7)
        codes = [
            random_parity_check(n, rng.randint(1, n - 1), rng)
            for _ in range(rng.randint(1, 3))
        ]
        weights = [rng.random() + 0.05 for _ in codes]
        total = sum(weights)
        ens = CodeEnsemble(codes, tuple(w / total for w in weights))
        cmp = leakage_comparison(ens, EveChannel(rng.uniform(0.01, 0.49)))
        assert cmp.p1_code_known_avg >= cmp.p1_mixture - 1e-12
        assert cmp.p1_mixture >= cmp.p1_no_code - 1e-12


def test_resource_caps():
    rng = random.Random(3)
    big = random_parity_check(13, 2, rng)
    ens = CodeEnsemble([big], (1.0,))
    with pytest.raises(ResourceLimitError):
        leakage_comparison(ens, EveChannel(0.1))
    with pytest.raises(ResourceLimitError):
        mixture_posterior(ens, "0" * 13, EveChannel(0.1))
    with pytest.raises(ValidationError):
        ParityCheckMatrix.from_text("0" * 17 + "1")  # beyond the matrix width limit

    class NoDraws:
        def randrange(self, *args):
            raise AssertionError("rows drawn before the width was checked")

    with pytest.raises(ValidationError, match="parity-check matrix width"):
        random_parity_check(17, 1, NoDraws())


def test_ec_leak_formula():
    assert ec_leak(1.0, 7, 0.5) == 7.0
    assert ec_leak(1.2, 9, F(0)) == 0.0
    assert ec_leak(1.1, 100, 0.11) == pytest.approx(54.99075539809808, abs=1e-10)
    assert ec_leak(1.1, 100, 0.11) == pytest.approx(110 * binary_entropy(0.11), abs=1e-12)
    with pytest.raises(ValidationError):
        ec_leak(0.9, 7, 0.1)  # reconciliation overhead below the Shannon floor
    with pytest.raises(ValidationError):
        ec_leak(2.5, 7, 0.1)
    with pytest.raises(ValidationError):
        ec_leak(1.0, -1, 0.1)


def test_ec_leak_monotone_in_crossover():
    values = [ec_leak(1.1, 50, q / 200) for q in range(0, 101)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_codeword_uniform_prior_round_trip():
    # flat prior over a single code's words, noiseless channel: posterior is
    # a point mass exactly at the observation
    c = ParityCheckMatrix.from_text(C2_TEXT)
    ens = CodeEnsemble([c], (F(1),))
    for w in c.codewords():
        obs = "".join(str((w >> j) & 1) for j in range(4))
        post = mixture_posterior(ens, obs, EveChannel(F(0)))
        assert post.probs[w] == 1


def test_as_array_round_trip():
    c = ParityCheckMatrix.from_text(C1_TEXT)
    arr = np.array([[int(ch) for ch in line] for line in C1_TEXT.split()])
    rebuilt = ParityCheckMatrix.from_text(
        "\n".join("".join(str(v) for v in row) for row in arr)
    )
    assert rebuilt == c


def test_codewords_are_built_once_into_a_read_only_array():
    rng = random.Random(19)
    for n in range(1, 11):
        m = random_parity_check(n, rng.randint(1, n), rng)
        assert m._words is m._words and not m._words.flags.writeable
        with pytest.raises(ValueError):
            m._words[0] = 1
        assert m.codewords() == tuple(oracles.enumerate_codewords(m.rows, n))


def test_float_posterior_is_summed_left_to_right():
    rng = random.Random(43)
    for n, codes, weights, q in _seeded_ensembles(rng, 16):
        ensemble, q = CodeEnsemble(codes, [float(w) for w in weights]), float(q)
        y = rng.randrange(1 << n)
        for hidden in (True, False):
            chosen = zip(codes, ensemble.weights) if hidden else [(codes[0], 1.0)]
            prior = [0.0] * (1 << n)
            for code, w in chosen:
                words = oracles.enumerate_codewords(code.rows, n)
                for x in words:
                    prior[x] += w / len(words)
            flips = [bin(x ^ y).count("1") for x in range(1 << n)]
            post = [prior[x] * q ** c * (1 - q) ** (n - c) for x, c in enumerate(flips)]
            total = post[0]
            for x in post[1:]:
                total += x
            res = mixture_posterior(ensemble, format(y, f"0{n}b")[::-1], EveChannel(q), hidden, 0)
            assert [v.hex() for v in res.probs] == [(x / total).hex() for x in post]


@pytest.mark.parametrize("up,down,dtype", [
    (1, (1 << 15) - 2, np.int64),  # 8 * b^4 < 2^63: int64 numerators
    (1, (1 << 15) - 1, object),  # b = 2^15: 8 * b^4 = 2^63, Python ints
    (1 << 20, (1 << 20) + 1, object),  # numerators near 2^83, past int64
])
def test_exact_posterior_on_each_side_of_the_int64_bound(monkeypatch, up, down, dtype):
    # one code of 8 words: prior numerators 1 over 8, likelihoods up^c down^(4 - c) over b^4
    q, seen, wide = F(up, up + down), [], ecpa._wide

    def spy(nums, bound):
        seen.append(wide(nums, bound))
        return seen[-1]

    monkeypatch.setattr(ecpa, "_wide", spy)
    code = ParityCheckMatrix(4, [0b0011])
    post = mixture_posterior(CodeEnsemble([code], (F(1),)), "0110", EveChannel(q))
    assert seen[-1].dtype == dtype  # the prior the likelihood products start from
    assert list(post.probs) == oracles.posterior_oracle([code.rows], [F(1)], 0b0110, 4, q)
