"""Authentication with imperfect keys: hash family, attacks, degradation.

Field arithmetic and forgery odds are checked against an independent
polynomial oracle (`_oracles`: LSB-first coefficient lists, term-by-term
hashing, exhaustive bucket counting).
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from keysec import (
    HashFamilySpec,
    InfeasibleError,
    KeyDistribution,
    MacKeyModel,
    ResourceLimitError,
    ValidationError,
    asu_epsilon,
    attack_success,
    construct_spike,
    degraded_epsilon,
    forgeable_key_distribution,
    statistical_distance,
)
from keysec import mac
from keysec.mac import DEFAULT_MODULI

NONUNIFORM = [F(5, 16), F(1, 16), F(3, 16), F(1, 16), F(2, 16), F(1, 16), F(2, 16), F(1, 16)]


def test_spec_validation():
    spec = HashFamilySpec(field_bits=3, message_blocks=2)
    assert spec.modulus == DEFAULT_MODULI[3] == 0b1011
    assert spec.tag_space == 8 and spec.message_space == 64
    with pytest.raises(ResourceLimitError):
        HashFamilySpec(field_bits=11, message_blocks=2)
    with pytest.raises(ValidationError):
        HashFamilySpec(field_bits=3, message_blocks=0)
    for b, blocks, modulus in ((True, 2, 0), (3, True, 0), (3, 2, -11), (4, 2, -0x13), (3, 2, 11.0)):
        with pytest.raises(ValidationError):  # a negative modulus has the right degree but never reduces
            HashFamilySpec(field_bits=b, message_blocks=blocks, modulus=modulus)
    with pytest.raises(ValidationError):
        HashFamilySpec(field_bits=3, message_blocks=2, modulus=0b101)  # wrong degree
    with pytest.raises(ValidationError):
        HashFamilySpec(field_bits=3, message_blocks=2, modulus=0b1111)  # x^3+x^2+x+1 reducible


def test_hash_values_match_polynomial_oracle():
    rng = random.Random(99)
    for b in (2, 3, 5, 8):
        spec = HashFamilySpec(field_bits=b, message_blocks=2)
        for _ in range(40):
            key = rng.randrange(1 << b)
            msg = rng.randrange(1 << (2 * b))
            assert spec.hash_value(key, msg) == oracles.hash_oracle(
                key, msg, b, 2, spec.modulus
            )


def test_hash_is_linear_in_the_message():
    spec = HashFamilySpec(field_bits=4, message_blocks=3)
    rng = random.Random(7)
    for _ in range(30):
        key = rng.randrange(16)
        m1 = rng.randrange(1 << 12)
        m2 = rng.randrange(1 << 12)
        # blockwise XOR of messages = XOR of hashes (GF(2) linearity)
        assert spec.hash_value(key, m1 ^ m2) == spec.hash_value(key, m1) ^ spec.hash_value(key, m2)
    assert spec.hash_value(rng.randrange(16), 0) == 0


def test_asu_epsilon_frozen():
    assert asu_epsilon(HashFamilySpec(field_bits=3, message_blocks=2)) == F(1, 4)
    assert asu_epsilon(HashFamilySpec(field_bits=4, message_blocks=3)) == F(3, 16)
    assert asu_epsilon(HashFamilySpec(field_bits=6, message_blocks=2)) == F(1, 32)


@pytest.mark.parametrize("b,m", [(3, 2), (4, 2), (4, 3), (6, 2)])
def test_uniform_key_attacks_within_epsilon(b, m):
    spec = HashFamilySpec(field_bits=b, message_blocks=m)
    keys = MacKeyModel(hash_key_dist=KeyDistribution.uniform(b, mode="rational"))
    eps = asu_epsilon(spec)
    imp = attack_success(spec, keys, "impersonation")
    sub = attack_success(spec, keys, "substitution")
    assert imp == F(1, 1 << b)  # blind tag guess
    assert sub == eps  # worst message difference meets the bound exactly
    assert imp <= eps and sub <= eps


def test_nonuniform_substitution_frozen():
    spec = HashFamilySpec(field_bits=3, message_blocks=2)
    keys = MacKeyModel(hash_key_dist=KeyDistribution(3, NONUNIFORM))
    got = attack_success(spec, keys, "substitution")
    assert got == F(1, 2)
    assert got == oracles.substitution_success_oracle(3, 2, spec.modulus, NONUNIFORM)


def test_ideal_pad_equals_explicit_uniform_mask():
    spec = HashFamilySpec(field_bits=3, message_blocks=2)
    pd = KeyDistribution(3, NONUNIFORM)
    uniform_mask = KeyDistribution.uniform(3, mode="rational")
    for attack in ("impersonation", "substitution"):
        ideal = attack_success(spec, MacKeyModel(hash_key_dist=pd), attack)
        masked = attack_success(
            spec, MacKeyModel(hash_key_dist=pd, tag_key_dist=uniform_mask), attack
        )
        assert ideal == masked, attack


def test_biased_mask_leaks():
    # a biased pad lets the transcript narrow down the hash key
    spec = HashFamilySpec(field_bits=3, message_blocks=2)
    pd = KeyDistribution(3, NONUNIFORM)
    biased = construct_spike(3, F(1, 2)).distribution
    ideal = attack_success(spec, MacKeyModel(hash_key_dist=pd), "substitution")
    leaky = attack_success(
        spec, MacKeyModel(hash_key_dist=pd, tag_key_dist=biased), "substitution"
    )
    assert leaky >= ideal


def test_tag_averaged_at_most_worst_case():
    spec = HashFamilySpec(field_bits=3, message_blocks=2)
    keys = MacKeyModel(
        hash_key_dist=KeyDistribution(3, NONUNIFORM),
        tag_key_dist=KeyDistribution.uniform(3, mode="rational"),
    )
    worst = attack_success(spec, keys, "substitution")
    avg = attack_success(spec, keys, "substitution", tag_averaged=True)
    assert avg <= worst


def test_multi_use_transcript():
    spec = HashFamilySpec(field_bits=2, message_blocks=2)
    keys1 = MacKeyModel(
        hash_key_dist=KeyDistribution(2, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)]),
        tag_key_dist=KeyDistribution.uniform(2, mode="rational"),
        uses=1,
    )
    keys2 = MacKeyModel(
        hash_key_dist=KeyDistribution(2, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)]),
        tag_key_dist=KeyDistribution.uniform(2, mode="rational"),
        uses=2,
    )
    s1 = attack_success(spec, keys1, "substitution")
    s2 = attack_success(spec, keys2, "substitution")
    # one fresh uniform pad per use keeps the transcript unrevealing
    assert s2 == s1


def test_attack_validation_and_caps():
    spec = HashFamilySpec(field_bits=3, message_blocks=2)
    keys = MacKeyModel(hash_key_dist=KeyDistribution.uniform(3, mode="rational"))
    with pytest.raises(ValidationError):
        attack_success(spec, keys, "replay")
    uniform3 = KeyDistribution.uniform(3, mode="rational")
    with pytest.raises(ValidationError, match="^hash key model requires a KeyDistribution$"):
        MacKeyModel(hash_key_dist=list(uniform3))
    with pytest.raises(ValidationError, match="^tag key model must be a KeyDistribution or None$"):
        MacKeyModel(uniform3, tag_key_dist=list(uniform3))
    with pytest.raises(ValidationError):
        attack_success(
            spec, MacKeyModel(hash_key_dist=KeyDistribution.uniform(4, mode="rational")),
            "substitution",
        )
    # the ideal pad reads its forgery off the prior: 18 message bits are no refusal
    assert attack_success(
        HashFamilySpec(field_bits=6, message_blocks=3),
        MacKeyModel(hash_key_dist=KeyDistribution.uniform(6, mode="rational")),
        "substitution",
    ) == F(3, 64)
    uniform5 = KeyDistribution.uniform(5, mode="rational")
    with pytest.raises(ResourceLimitError):  # 2^(5 * 4) tag tuples x 2^5 keys
        attack_success(HashFamilySpec(field_bits=5, message_blocks=2), MacKeyModel(uniform5, uniform5, 4),
                       "substitution")
    # too many uses for the message space is refused first, whatever the table would need
    uniform9 = KeyDistribution.uniform(9, mode="rational")
    refusal = r"^262144 distinct observed messages do not fit a 2\^18-message space$"
    with pytest.raises(ValidationError, match=refusal):
        attack_success(HashFamilySpec(field_bits=9, message_blocks=2), MacKeyModel(uniform9, uniform9, 1 << 18),
                       "substitution")



def test_long_messages_and_attack_names_are_cut_in_refusals():
    # a message past Python's 4,300-digit conversion limit, and a 100,000-character attack name
    with pytest.raises(ValidationError, match=r"^message 10{49}\.\.\.\(5001 digits\) outside \[0, 2\^6\)"):
        HashFamilySpec(3, 2).hash_value(0, 10**5000)
    keys = MacKeyModel(hash_key_dist=KeyDistribution.uniform(3, mode="rational"))
    with pytest.raises(ValidationError, match=r"^unknown attack 'x+\.\.\.\(100002 characters\); expected") as err:
        attack_success(HashFamilySpec(3, 1), keys, "x" * 100_000)
    assert len(str(err.value)) < 650

def test_degraded_epsilon_frozen():
    res = degraded_epsilon(F(1, 4), F(1, 10), F(1, 20), 3)
    assert res.hash_key_level == F(7, 20)
    assert res.tag_key_level == F(2, 5)
    clipped = degraded_epsilon(F(3, 4), F(1, 2), F(1, 2), 4)
    assert clipped.hash_key_level == 1 and clipped.tag_key_level == 1
    f = degraded_epsilon(0.25, 0.1, 0.05, 3)
    assert f.hash_key_level == pytest.approx(0.35) and f.tag_key_level == pytest.approx(0.4)
    with pytest.raises(ValidationError):
        degraded_epsilon(F(1, 4), F(1, 10), F(1, 20), 0)
    with pytest.raises(ValidationError):
        degraded_epsilon(F(5, 4), F(1, 10), F(1, 20), 1)


def test_degraded_epsilon_mixed_modes():
    # a float eps with an exact eps_t adds the rounded m * eps_t, and m stays exact
    mixed = degraded_epsilon(0.1, 0.1, F(1, 100), 7)
    assert mixed.tag_key_level.hex() == "0x1.5c28f5c28f5c3p-3" == (0.1 + float(F(7, 100))).hex()
    assert mixed.hash_key_level.hex() == (0.1 + 0.1).hex()
    # an exact m * eps_t beyond the float range is refused, not raised as an OverflowError
    with pytest.raises(ValidationError, match="^level is outside the float range$"):
        degraded_epsilon(0.1, 0.1, F(1, 100), 10**400)


@pytest.mark.parametrize("b", [3, 4, 5])
def test_forgery_witness_breaks_the_scheme(b):
    spec = HashFamilySpec(field_bits=b, message_blocks=2)
    wit = forgeable_key_distribution(spec)
    assert wit.message_delta == (1 << b) | 1  # lowest colliding difference
    assert wit.tag_delta == 0
    size = 1 << b
    expected_distance = F(size - 2, size)
    assert wit.distance == expected_distance
    u = KeyDistribution.uniform(b, mode="rational")
    assert statistical_distance(wit.distribution, u) == expected_distance
    success = attack_success(
        spec, MacKeyModel(hash_key_dist=wit.distribution), "substitution"
    )
    assert success == 1


def test_forgery_witness_needs_two_blocks():
    with pytest.raises(InfeasibleError):
        forgeable_key_distribution(HashFamilySpec(field_bits=3, message_blocks=1))


#: every irreducible polynomial of degree 1..5 over GF(2), x^b term included
IRREDUCIBLE = {
    1: (0b10, 0b11),
    2: (0b111,),
    3: (0b1011, 0b1101),
    4: (0x13, 0x19, 0x1F),
    5: (0x25, 0x29, 0x2F, 0x37, 0x3B, 0x3D),
}


@pytest.mark.parametrize("b,modulus", [(b, mod) for b in IRREDUCIBLE for mod in IRREDUCIBLE[b]])
def test_forgery_witness_is_the_first_collision_of_the_oracle(b, modulus):
    size = 1 << b
    for m in (2, 3, 4):
        for d in range(1, size + 1):  # every smaller nonzero difference is injective in the key
            hashes = [oracles.hash_oracle(alpha, d, b, m, modulus) for alpha in range(size)]
            assert len(set(hashes)) == size, (m, d)
        assert [oracles.hash_oracle(alpha, size + 1, b, m, modulus) for alpha in (0, 1)] == [0, 0]
        wit = forgeable_key_distribution(HashFamilySpec(field_bits=b, message_blocks=m, modulus=modulus))
        assert (wit.message_delta, wit.tag_delta) == (size + 1, 0)
        assert wit.distribution.probs == (F(1, 2), F(1, 2)) + (F(0),) * (size - 2)
        assert wit.distance == F(size - 2, size)


@pytest.mark.parametrize(
    "b,m,modulus",
    [(b, m, mod) for b in (1, 2, 3, 4) for m in (1, 2, 3) for mod in IRREDUCIBLE[b]]
    + [(5, 2, mod) for mod in IRREDUCIBLE[5]],
)
def test_hash_table_matches_polynomial_oracle(b, m, modulus):
    spec = HashFamilySpec(field_bits=b, message_blocks=m, modulus=modulus)
    msgs = spec.message_space
    basis = mac._basis_rows(spec, b * m)
    table = mac._xor_span(basis)[:msgs]
    expected = [
        [oracles.hash_oracle(alpha, d, b, m, modulus) for alpha in range(1 << b)]
        for d in range(msgs)
    ]
    assert table.tolist() == expected


def _law(weights):
    total = sum(weights)
    return [F(w, total) for w in weights]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ideal_pad_substitution_within_independent_bounds(data):
    b = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 3))
    modulus = data.draw(st.sampled_from(IRREDUCIBLE[b]))
    weights = data.draw(
        st.lists(st.integers(0, 50), min_size=1 << b, max_size=1 << b).filter(any)
    )
    probs = _law(weights)
    spec = HashFamilySpec(field_bits=b, message_blocks=m, modulus=modulus)
    got = attack_success(spec, MacKeyModel(hash_key_dist=KeyDistribution(b, probs)), "substitution")
    eps = F(m, 1 << b)
    delta = oracles.tv_distance(probs, [F(1, 1 << b)] * (1 << b))
    assert got <= eps + delta  # distance bound
    assert got <= (1 << b) * max(probs) * eps  # Dodis-Yu min-entropy bound
    if b <= 3:
        assert got == oracles.substitution_success_oracle(b, m, modulus, probs)


#: the large-denominator two-use game below, frozen from a per-posterior
#: loop over Fraction arithmetic
WORST_OBJECT_PATH = F(717804235616299842472202296294677811, 763378304299100494489559022632943937)
AVERAGED_OBJECT_PATH = F(913979714256876727217955, 1073749405663908831288484)


def test_large_denominators_take_the_object_path(monkeypatch):
    # 2^40-scale denominators with two uses: the total numerator
    # den_hash * den_mask^2 is ~2^120, past int64
    spec = HashFamilySpec(field_bits=2, message_blocks=2)
    keys = MacKeyModel(
        hash_key_dist=KeyDistribution(2, _law([2**40 + 1, 3**25, 7**14, 5**17])),
        tag_key_dist=KeyDistribution(2, _law([2**39 + 7, 11**11, 13**10, 2**40 - 87])),
        uses=2,
    )
    dtypes = []
    real = mac._top_mass

    def spy(posts, roots):
        dtypes.append(posts.dtype)
        return real(posts, roots)

    monkeypatch.setattr(mac, "_top_mass", spy)
    worst = attack_success(spec, keys, "substitution")
    averaged = attack_success(spec, keys, "substitution", tag_averaged=True)
    assert dtypes == [np.dtype(object)] * 2
    assert worst == WORST_OBJECT_PATH
    assert averaged == AVERAGED_OBJECT_PATH
    small = MacKeyModel(
        hash_key_dist=KeyDistribution(2, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)]),
        tag_key_dist=KeyDistribution(2, [F(1, 3), F(1, 3), F(1, 6), F(1, 6)]),
        uses=2,
    )
    attack_success(spec, small, "substitution")
    assert dtypes[-1] == np.dtype(np.int64)


#: every game, as (attack, tag mask, uses, tag_averaged): the first two use the ideal pad
GAMES = [
    ("impersonation", False, 1, False),
    ("substitution", False, 1, False),
    ("impersonation", True, 1, False),
    ("substitution", True, 1, False),
    ("substitution", True, 1, True),
    ("substitution", True, 2, False),
    ("substitution", True, 2, True),
]


@pytest.mark.parametrize("attack,masked,uses,averaged", GAMES)
def test_float_and_mixed_mode_games(attack, masked, uses, averaged):
    spec = HashFamilySpec(field_bits=2, message_blocks=2)
    exact_hash, exact_mask = _law([5, 1, 3, 7]), _law([4, 1, 2, 1])

    def game(hash_law, mask_law):
        keys = MacKeyModel(KeyDistribution(2, hash_law), KeyDistribution(2, mask_law) if masked else None, uses)
        return attack_success(spec, keys, attack, tag_averaged=averaged)

    def floats(law):
        return [float(p) for p in law]

    exact = game(exact_hash, exact_mask)
    got = game(floats(exact_hash), floats(exact_mask))
    assert type(exact) is F and type(got) is float  # a Python float, not np.float64
    assert abs(got - exact) <= 1e-12
    if masked:  # one exact law and one float law play the all-float game, bit for bit
        for mixed in (game(exact_hash, floats(exact_mask)), game(floats(exact_hash), exact_mask)):
            assert type(mixed) is float and mixed.hex() == got.hex()


@pytest.mark.parametrize(
    "b,m,uses,bits",
    [
        (6, 3, 1, 30),  # 2^18 messages x 2^6 tags x 2^6 keys
        (7, 1, 1, 21),  # a single use, one bit past the cap
        (5, 2, 4, 25),  # 2^(5 * 4) tag tuples x 2^5 keys
        (3, 1, 6, 21),  # many uses, one bit past the cap
    ],
)
def test_refusals_state_work_and_cap(b, m, uses, bits):
    uniform = KeyDistribution.uniform(b, mode="rational")
    refusal = rf"^masked substitution table needs {bits} bits, over the mac_entry_bits cap of 20 bits$"
    with pytest.raises(ResourceLimitError, match=refusal):
        attack_success(HashFamilySpec(field_bits=b, message_blocks=m), MacKeyModel(uniform, uniform, uses),
                       "substitution")


def _seeded_law(seed, b, exact):
    rng = random.Random(seed)
    weights = [rng.randint(1, 50) for _ in range(1 << b)]
    return _law(weights) if exact else [w / sum(weights) for w in weights]


#: games up to the 20-bit table, as (b, blocks, uses, exact, tag_averaged, value): the first is the
#: largest the three caps before mac_entry_bits accepted, the rest they refused.  The values were
#: computed by the earlier code with its caps lifted.
UP_TO_THE_CAP = [
    (4, 1, 3, True, False, F(1768704, 3180839)),
    (5, 2, 1, False, False, "0x1.51a7d8c143702p-2"),
    (4, 1, 4, True, True, F(5696275934051, 16793172021439)),
    (4, 2, 1, True, False, F(4608, 8291)),
    (3, 2, 5, False, True, "0x1.5c431490431e7p-1"),
]


@pytest.mark.parametrize("b,m,uses,exact,averaged,value", UP_TO_THE_CAP, ids=lambda v: str(v).replace("/", ":"))
def test_tables_up_to_the_cap_are_accepted(b, m, uses, exact, averaged, value):
    hash_law, mask_law = _seeded_law(b, b, exact), _seeded_law(10 + b, b, exact)
    keys = MacKeyModel(KeyDistribution(b, hash_law), KeyDistribution(b, mask_law), uses)
    got = attack_success(HashFamilySpec(field_bits=b, message_blocks=m), keys, "substitution", tag_averaged=averaged)
    assert got == value if exact else got.hex() == value


@pytest.mark.parametrize("b,m", [(6, 3), (8, 2)])
def test_ideal_pad_games_past_the_caps_are_accepted(b, m):
    # the ideal pad and impersonation build no message table, so the mac_entry_bits cap does not apply
    keys = MacKeyModel(hash_key_dist=KeyDistribution.uniform(b, mode="rational"))
    spec = HashFamilySpec(field_bits=b, message_blocks=m)
    assert attack_success(spec, keys, "substitution") == F(min(m, 1 << b), 1 << b)
    assert attack_success(spec, keys, "impersonation") == F(1, 1 << b)
    spike = construct_spike(b, F(1, 4)).distribution
    masked = MacKeyModel(hash_key_dist=keys.hash_key_dist, tag_key_dist=spike)
    assert attack_success(spec, masked, "impersonation") == max(spike.probs) == F(1, 1 << b) + F(1, 4)


def test_many_blocks_never_build_the_message_space(monkeypatch):
    def untouchable(*args):
        raise AssertionError("2^(b * m_blk) was built")

    monkeypatch.setattr(HashFamilySpec, "message_space", property(untouchable))
    monkeypatch.setattr(mac, "_basis_rows", untouchable)
    spec = HashFamilySpec(field_bits=8, message_blocks=10**6)
    uniform = KeyDistribution.uniform(8, mode="rational")
    # the ideal pad: 10^6 roots cover all 256 keys
    assert attack_success(spec, MacKeyModel(hash_key_dist=uniform), "substitution") == 1
    with pytest.raises(ResourceLimitError, match=r"\b8000016 bits, over the mac_entry_bits cap of 20 bits$"):
        attack_success(spec, MacKeyModel(hash_key_dist=uniform, tag_key_dist=uniform), "substitution")
    # masked impersonation: the zero message's tag is the mask, so it wins with the mask's top entry
    spike = construct_spike(8, F(1, 8)).distribution
    assert attack_success(spec, MacKeyModel(uniform, spike), "impersonation") == max(spike.probs)
    wit = forgeable_key_distribution(spec)
    assert (wit.message_delta, wit.tag_delta) == (257, 0)
    # blocks above the message's top block are zero and hash to nothing
    assert spec.hash_value(3, 257) == oracles.hash_oracle(3, 257, 8, 2, spec.modulus)


def test_many_use_games_hash_only_the_messages_sent(monkeypatch):
    def untouchable(*args):
        raise AssertionError("2^(b * m_blk) was built")

    rows = []
    real = mac._basis_rows

    def spy(spec, bits):
        rows.append(bits)
        return real(spec, bits)

    monkeypatch.setattr(HashFamilySpec, "message_space", property(untouchable))
    monkeypatch.setattr(mac, "_basis_rows", spy)
    spec = HashFamilySpec(field_bits=4, message_blocks=10**6)
    keys = MacKeyModel(KeyDistribution(4, _seeded_law(7, 4, True)), KeyDistribution(4, _seeded_law(8, 4, True)), 3)
    # 10^6 roots cover all 16 keys: the forgery always wins
    for averaged in (False, True):
        assert attack_success(spec, keys, "substitution", tag_averaged=averaged) == 1
    assert rows == [2, 2]  # messages 1..3 have 3.bit_length() bits


def _test_laws(rng, b):
    """A uniform, a tied and a random exact law on b-bit keys."""
    size = 1 << b
    tied = [rng.choice((0, 1, 3)) for _ in range(size)]
    yield [F(1, size)] * size
    yield _law(tied if any(tied) else [1] * size)
    yield _law([rng.randint(1, 50) for _ in range(size)])


@pytest.mark.parametrize("b,m", [(b, m) for b in (1, 2, 3) for m in (1, 2)])
def test_masked_substitution_matches_the_oracle(b, m):
    rng = random.Random(10 * b + m)
    spec = HashFamilySpec(field_bits=b, message_blocks=m)
    laws = list(_test_laws(rng, b))
    for hash_law, mask_law in ((laws[0], laws[1]), (laws[1], laws[0]), (laws[2], laws[1]), (laws[2], laws[2])):
        for uses in (1, 2) if spec.message_space > 2 else (1,):
            keys = MacKeyModel(KeyDistribution(b, hash_law), KeyDistribution(b, mask_law), uses)
            for averaged in (False, True):
                got = attack_success(spec, keys, "substitution", tag_averaged=averaged)
                want = oracles.masked_substitution_oracle(
                    b, m, spec.modulus, hash_law, mask_law, uses, averaged
                )
                assert got == want, (hash_law, mask_law, uses, averaged)


@pytest.mark.parametrize("b,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_tag_averaged_success_stays_within_the_tag_law(b, m):
    # masks within eps_t of uniform, spent over `uses` tags under one uniform hash key: the
    # tag-averaged forgery is at most eps + uses * eps_t (Wegman & Carter 1981; Stinson 1994)
    rng = random.Random(1000 + 10 * b + m)
    spec = HashFamilySpec(field_bits=b, message_blocks=m)
    uniform, *masks = _test_laws(rng, b)
    for uses in range(1, min(3, spec.message_space - 1) + 1):
        for mask_law in [uniform, *masks]:
            level = asu_epsilon(spec) + uses * oracles.tv_distance(mask_law, uniform)
            averaged = oracles.masked_substitution_oracle(b, m, spec.modulus, uniform, mask_law, uses, True)
            assert averaged <= level, (uses, mask_law)
            keys = MacKeyModel(KeyDistribution(b, uniform), KeyDistribution(b, mask_law), uses)
            assert attack_success(spec, keys, "substitution", tag_averaged=True) == averaged


def test_the_worst_case_transcript_can_beat_the_tag_level():
    # the level bounds the average over tags, not each transcript: here it is 1/4 + 2 * 3/20
    spec, uses = HashFamilySpec(field_bits=2, message_blocks=1), 2
    uniform, mask_law = [F(1, 4)] * 4, [F(2, 5), F(1, 5), F(1, 5), F(1, 5)]
    level = asu_epsilon(spec) + uses * oracles.tv_distance(mask_law, uniform)
    keys = MacKeyModel(KeyDistribution(2, uniform), KeyDistribution(2, mask_law), uses)
    worst = attack_success(spec, keys, "substitution")
    assert level == F(11, 20) < worst == F(4, 7)
    assert worst == oracles.masked_substitution_oracle(2, 1, spec.modulus, uniform, mask_law, uses, False)
    assert attack_success(spec, keys, "substitution", tag_averaged=True) <= level


@pytest.mark.parametrize("b,m", [(b, m) for b in (1, 2, 3) for m in (1, 2, 3)])
def test_masked_impersonation_matches_the_oracle(b, m):
    rng = random.Random(10 * b + m)
    spec = HashFamilySpec(field_bits=b, message_blocks=m)
    laws = list(_test_laws(rng, b))
    for hash_law, mask_law in ((laws[0], laws[1]), (laws[1], laws[0]), (laws[2], laws[1]), (laws[2], laws[2])):
        keys = MacKeyModel(KeyDistribution(b, hash_law), KeyDistribution(b, mask_law))
        got = attack_success(spec, keys, "impersonation")
        assert got == oracles.masked_impersonation_oracle(b, m, spec.modulus, hash_law, mask_law) == max(mask_law)
        ideal = attack_success(spec, MacKeyModel(KeyDistribution(b, hash_law)), "impersonation")
        assert ideal == oracles.masked_impersonation_oracle(b, m, spec.modulus, hash_law, laws[0]) == laws[0][0]


def test_masked_impersonation_on_numerators_past_int64():
    spec = HashFamilySpec(field_bits=2, message_blocks=2)
    hash_law = _law([10**30, 1, 3, 10**30 + 7])
    mask = KeyDistribution(2, _law([10**30 + 1, 10**30, 5, 3 * 10**29]))
    assert mask._data.nums.dtype == object  # Python-int numerators: the top one is no numpy scalar
    got = attack_success(spec, MacKeyModel(KeyDistribution(2, hash_law), mask), "impersonation")
    assert got == max(mask.probs) == oracles.masked_impersonation_oracle(2, 2, spec.modulus, hash_law, mask.probs)


def _fold(values):
    """A float sum left to right, as a loop over the keys adds."""
    return functools.reduce(operator.add, values, 0.0)


def _top_fold(row, k):
    """The key-order sum of the ``k`` largest entries, ties to the lower key."""
    top = sorted(range(len(row)), key=lambda i: -row[i])[:k]  # a stable sort
    return _fold(row[i] for i in sorted(top))


def _best_fold(row, k):
    """The largest key-order sum over every ``k``-subset of the keys."""
    return max(_fold(row[i] for i in subset) for subset in itertools.combinations(range(len(row)), k))


def _tied_float_law(rng, b):
    """Floats of few distinct values, some nudged by an ulp into near-ties."""
    weights = [rng.choice((1.0, 2.0, 3.0)) for _ in range(1 << b)]
    probs = [w / sum(weights) for w in weights]
    return [math.nextafter(p, rng.choice((0.0, 1.0))) if rng.random() < 0.3 else p for p in probs]


@pytest.mark.parametrize("b,m", [(b, m) for b in (1, 2, 3) for m in (1, 2, 3)])
def test_float_forgery_is_the_key_order_sum_of_the_lowest_index_top_entries(b, m):
    rng = random.Random(100 * b + m)
    spec = HashFamilySpec(field_bits=b, message_blocks=m)
    k = min(m, 1 << b)
    table = [[oracles.hash_oracle(a, msg, b, m, spec.modulus) for a in range(1 << b)] for msg in range(1 << b * m)]
    for trial in range(60):
        prior, mask = _tied_float_law(rng, b), _tied_float_law(rng, b)
        ideal = attack_success(spec, MacKeyModel(KeyDistribution(b, prior)), "substitution")
        assert ideal.hex() == _top_fold(prior, k).hex() and ideal <= _best_fold(prior, k)
        if trial >= 4 or m == 3:
            continue  # the masked games, a few and at most 2^6 messages
        keys = MacKeyModel(KeyDistribution(b, prior), KeyDistribution(b, mask))
        rows = [[[p * mask[t ^ h] for p, h in zip(prior, hashes)] for t in range(1 << b)] for hashes in table]
        seen = [r for g in rows for r in g if _fold(r) > 0]  # transcripts of positive probability
        worst = attack_success(spec, keys, "substitution")
        assert worst.hex() == max(_top_fold(r, k) / _fold(r) for r in seen).hex()
        assert worst <= max(_best_fold(r, k) / _fold(r) for r in seen)
        averaged = attack_success(spec, keys, "substitution", tag_averaged=True)
        assert averaged.hex() == max(_fold(_top_fold(r, k) for r in g) for g in rows).hex()
        assert averaged <= max(_fold(_best_fold(r, k) for r in g) for g in rows)
        # impersonation: the zero message's mass, the key-order prior total times the top mask entry;
        # no transcript's mass, summed per hash value and then weighted by the mask, is larger
        imp = attack_success(spec, keys, "impersonation")
        assert imp.hex() == (_fold(prior) * max(mask)).hex()
        buckets = [[_fold(p for p, h in zip(prior, hashes) if h == v) for v in range(1 << b)] for hashes in table]
        tags = range(1 << b)
        assert imp <= max(_fold(mass[v] * mask[t ^ v] for v in tags) for mass in buckets for t in tags)
