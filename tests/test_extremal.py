"""Extremal distributions: spikes, low-information families, mixtures,
and conditional-deviation witnesses.

The conditional-deviation optimum is cross-checked against a linear
programming oracle (Charnes-Cooper reduction of the fractional
objective, scipy HiGHS) in `_oracles.lp_max_conditional_deviation`.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracles
from keysec import (
    EventSpec,
    InfeasibleError,
    KeyDistribution,
    ValidationError,
    check_event_bound,
    check_mixture_decomposition,
    construct_low_info_high_guess,
    construct_spike,
    entropy_stats,
    max_conditional_deviation,
    statistical_distance,
)
from keysec.numerics import check_int


# ---------------------------------------------------------------- events


def test_event_spec_parsing():
    ev = EventSpec.from_text("5, 0,1")
    assert ev.sorted_members() == [0, 1, 5]
    assert 5 in ev and 2 not in ev
    assert len(ev) == 3
    assert EventSpec((0,)).issubset(ev)
    with pytest.raises(ValidationError):
        EventSpec.from_text("")
    with pytest.raises(ValidationError):
        EventSpec.from_text("1,x")
    with pytest.raises(ValidationError):
        EventSpec((-1,))
    with pytest.raises(ValidationError, match="^event must contain at least one key value$"):
        EventSpec(())
    with pytest.raises(ValidationError):
        EventSpec((9,)).validate_for(3)  # 9 outside a 3-bit key space


# ---------------------------------------------------------------- spikes


def test_spike_documented_witness():
    res = construct_spike(2, F(1, 4))
    assert res.distribution.probs == (F(1, 2), F(1, 6), F(1, 6), F(1, 6))
    assert res.p1 == F(1, 2)
    assert res.distance == F(1, 4)


def test_spike_exactness_small_grid():
    for n in (1, 2, 3, 5):
        size = 1 << n
        for k in range(1, 11):
            eps = F(k, 11) * F(size - 1, size)
            res = construct_spike(n, eps)
            u = KeyDistribution.uniform(n, mode="rational")
            assert statistical_distance(res.distribution, u) == eps
            assert res.p1 == F(1, size) + eps
            assert res.p1 == max(res.distribution.probs)


def test_spike_peak_placement():
    res = construct_spike(2, F(1, 8), at=3)
    assert res.distribution.probs[3] == F(1, 4) + F(1, 8)
    assert max(res.distribution.probs) == res.distribution.probs[3]


def test_spike_infeasible_and_degenerate():
    with pytest.raises(InfeasibleError):
        construct_spike(2, F(7, 8))  # above (N-1)/N
    with pytest.raises(ValidationError):
        construct_spike(2, F(-1, 8))
    zero = construct_spike(3, F(0))
    assert zero.distribution == KeyDistribution.uniform(3, mode="rational")
    # boundary: all mass on the peak
    res = construct_spike(2, F(3, 4))
    assert res.p1 == 1 and res.distance == F(3, 4)


def test_spike_float_backend():
    res = construct_spike(4, 0.05)
    assert res.distance == pytest.approx(0.05, abs=1e-15)
    assert res.p1 == pytest.approx(1 / 16 + 0.05, abs=1e-15)
    u = KeyDistribution.uniform(4)
    assert statistical_distance(res.distribution, u) == pytest.approx(0.05, abs=1e-12)


# ------------------------------------------------------------- low info


def test_low_info_family_frozen():
    fam = construct_low_info_high_guess(8, 0.5)
    # exact-entropy oracle value (mpmath, 60 digits): 0.16800358632780680...
    assert fam.p1 == pytest.approx(2.0**-4, abs=1e-15)
    assert fam.info_bits == pytest.approx(0.16800358632780732, abs=1e-12)
    assert fam.info_bound_bits == pytest.approx(0.5, abs=1e-15)
    assert fam.info_bits <= fam.info_bound_bits
    stats = entropy_stats(fam.distribution)
    assert stats.p1 == pytest.approx(fam.p1, abs=1e-15)
    assert 8 - stats.shannon_bits == pytest.approx(fam.info_bits, abs=1e-12)


@pytest.mark.parametrize("n", [4, 8, 10, 12])
@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
def test_low_info_family_bound(n, lam):
    if lam * n < 1:
        with pytest.raises(InfeasibleError):
            construct_low_info_high_guess(n, lam)
        return
    fam = construct_low_info_high_guess(n, lam)
    assert fam.p1 == pytest.approx(2.0 ** (-lam * n), abs=1e-15)
    assert fam.info_bits <= n * 2.0 ** (-lam * n) + 1e-9
    # distance from uniform stays small too: the family is near-uniform in tv
    u = KeyDistribution.uniform(n)
    assert statistical_distance(fam.distribution, u) <= fam.p1


def test_low_info_rejects_bad_lambda():
    with pytest.raises(ValidationError):
        construct_low_info_high_guess(8, 0.0)
    with pytest.raises(ValidationError):
        construct_low_info_high_guess(8, 1.5)
    with pytest.raises(InfeasibleError, match=r"need lam \* n >= 1"):
        construct_low_info_high_guess(2, 0.25)  # a spike of 2^-0.5, past 1/2


# ------------------------------------------------------------- mixtures


def test_mixture_documented_witness():
    p = KeyDistribution(2, [0.4, 0.2, 0.2, 0.2])
    res = check_mixture_decomposition(p, 0.2)
    assert res is not None
    assert res.uniform_weight == pytest.approx(0.8, abs=1e-12)
    assert [float(x) for x in res.residual.probs] == pytest.approx([1, 0, 0, 0], abs=1e-12)


def test_mixture_exact_reconstruction():
    p = KeyDistribution(2, [F(2, 5), F(1, 5), F(1, 5), F(1, 5)])
    res = check_mixture_decomposition(p, F(1, 5))
    assert res is not None
    lam = F(1, 5)
    for i in range(4):
        assert (1 - lam) * F(1, 4) + lam * res.residual.probs[i] == p.probs[i]


def test_mixture_biconditional_exhaustive_small():
    # all distributions with denominator 8 on a 1-bit key, lambda on a grid
    for a in range(9):
        p = KeyDistribution(1, [F(a, 8), F(8 - a, 8)])
        for lnum in range(9):
            lam = F(lnum, 8)
            feasible = all(
                (1 - lam) * F(1, 2) <= pi <= lam + (1 - lam) * F(1, 2) for pi in p.probs
            )
            res = check_mixture_decomposition(p, lam)
            assert (res is not None) == feasible, (a, lam)
            if res is not None:
                for i in range(2):
                    assert (1 - lam) * F(1, 2) + lam * res.residual.probs[i] == p.probs[i]


def test_mixture_edge_lambdas():
    u = KeyDistribution.uniform(2, mode="rational")
    assert check_mixture_decomposition(u, F(0)) is not None
    spiky = construct_spike(2, F(1, 4)).distribution
    assert check_mixture_decomposition(spiky, F(0)) is None
    # lambda = 1 always decomposes with residual = P itself
    res = check_mixture_decomposition(spiky, F(1))
    assert res is not None and res.residual == spiky
    with pytest.raises(ValidationError):
        check_mixture_decomposition(u, F(3, 2))


def test_mixture_threshold_lambda_equals_distance_scale():
    # spike at distance eps decomposes iff lam >= eps * N/(N-1)
    eps = F(1, 8)
    p = construct_spike(2, eps).distribution
    threshold = eps * F(4, 3)
    assert check_mixture_decomposition(p, threshold) is not None
    assert check_mixture_decomposition(p, threshold - F(1, 1000)) is None


# ------------------------------------------------- conditional deviation


def test_conditional_deviation_documented_witness():
    res = max_conditional_deviation(2, 0.1, EventSpec((0, 1)), EventSpec((0,)))
    assert res.deviation == pytest.approx(0.2, abs=1e-15)
    assert [float(x) for x in res.distribution.probs] == pytest.approx(
        [0.35, 0.15, 0.25, 0.25], abs=1e-15
    )


def test_conditional_deviation_exact_mode():
    res = max_conditional_deviation(2, F(1, 10), EventSpec((0, 1)), EventSpec((0,)))
    assert res.deviation == F(1, 5)
    assert res.distribution.probs == (F(7, 20), F(3, 20), F(1, 4), F(1, 4))


@pytest.mark.parametrize(
    "n,eps,event,sub",
    [
        (2, F(3, 10), (0, 1, 2), (0, 1)),
        (3, F(3, 20), (0, 3, 5), (3,)),
        (3, F(3, 5), (1, 2), (2,)),
        (3, F(1, 2), (0, 1, 2, 3, 4, 5, 6), (6,)),
    ],
)
def test_conditional_deviation_matches_lp_oracle(n, eps, event, sub):
    res = max_conditional_deviation(n, eps, EventSpec(event), EventSpec(sub))
    lp = oracles.lp_max_conditional_deviation(n, float(eps), event, sub)
    assert float(res.deviation) == pytest.approx(lp, abs=1e-9)
    # the witness is a genuine distribution within budget
    u = KeyDistribution.uniform(n, mode="rational")
    assert statistical_distance(res.distribution, u) <= eps
    # and it actually achieves the claimed deviation
    pa = res.distribution.prob_of(event)
    pb = res.distribution.prob_of(sub)
    base = F(len(sub), len(event))
    assert abs(pb / pa - base) == res.deviation


def test_conditional_deviation_budget_cap():
    for eps in (F(1, 100), F(1, 10), F(1, 3)):
        res = max_conditional_deviation(3, eps, EventSpec((0, 1)), EventSpec((0,)))
        assert res.deviation <= eps / F(2, 8)  # eps / U(A)


def test_conditional_deviation_validation():
    with pytest.raises(ValidationError):
        max_conditional_deviation(2, F(1, 10), EventSpec((0,)), EventSpec((0, 1)))
    with pytest.raises(ValidationError):
        max_conditional_deviation(2, F(1, 10), EventSpec((0, 9)), EventSpec((0,)))
    # B = A means no deviation is possible in the up direction and none down
    res = max_conditional_deviation(2, F(1, 10), EventSpec((0, 1)), EventSpec((0, 1)))
    assert res.deviation == 0


@pytest.mark.parametrize("eps, event, sub, lowers", [
    (F(1, 10), (0, 1), (0,), False),  # B is no larger than A \ B: raise
    (F(1, 2), (0, 1, 2), (0, 1), True),  # B the larger part and eps > U(A \ B) = 1/4: lower
    (F(1, 4), (0, 1, 2), (0, 1), False),  # eps = U(A \ B): both directions move 1/4, and the tie raises
])
@pytest.mark.parametrize("kind", [F, float])
def test_conditional_deviation_builds_one_witness(monkeypatch, eps, event, sub, lowers, kind):
    import keysec.extremal

    calls, transport = [], keysec.extremal._transport
    monkeypatch.setattr(keysec.extremal, "_transport", lambda *args: calls.append(args) or transport(*args))
    res = max_conditional_deviation(2, kind(eps), EventSpec(event), EventSpec(sub))
    assert len(calls) == 1
    donors = sub if lowers else sorted(set(event) - set(sub))
    assert list(calls[0][1]) == list(donors)
    assert res.deviation == kind(min(eps, F(len(donors), 4)) / F(len(event), 4))


# ------------------------------------------------------------ event bound


def test_event_bound_frozen():
    p = KeyDistribution(2, [F(1, 2), F(1, 8), F(1, 8), F(1, 4)])
    q = KeyDistribution.uniform(2, mode="rational")
    rep = check_event_bound(p, q, EventSpec((0,)))
    assert rep.gap == F(1, 4) and rep.distance == F(1, 4) and rep.holds
    rep2 = check_event_bound(p, q, EventSpec((1, 2)))
    assert rep2.gap == F(1, 4) and rep2.holds


def test_a_float_event_bound_allows_the_totals_the_container_accepts():
    # both laws pass validation, their totals 4e-10 off 1 each; the whole space's gap is
    # 8e-10 against a distance of 4e-10, the half-difference of the totals over it
    p = KeyDistribution(1, [0.5000000004, 0.5])
    q = KeyDistribution(1, [0.5, 0.4999999996])
    rep = check_event_bound(p, q, EventSpec((0, 1)))
    assert rep.gap == pytest.approx(8e-10) and rep.distance == pytest.approx(4e-10)
    assert rep.holds


def test_a_mixed_mode_event_bound_keeps_the_float_slack():
    # an exact law beside a float one computes in float, slack included: the gap over the
    # whole space is 4e-10 against a distance of 2e-10
    p = KeyDistribution(1, [F(1, 2), F(1, 2)])
    q = KeyDistribution(1, [0.5, 0.4999999996])
    rep = check_event_bound(p, q, EventSpec((0, 1)))
    assert type(rep.distance) is float and rep.distance == pytest.approx(2e-10)
    assert rep.gap == pytest.approx(4e-10) and rep.gap > rep.distance and rep.holds


@given(st.lists(st.integers(0, 50), min_size=8, max_size=8), st.integers(1, 254))
def test_event_bound_holds_always(raw, mask):
    total = sum(raw) or 1
    probs = [F(x, total) for x in raw]
    probs[0] += 1 - sum(probs)
    if probs[0] < 0:
        return
    p = KeyDistribution(3, probs)
    q = KeyDistribution.uniform(3, mode="rational")
    members = tuple(i for i in range(8) if (mask >> i) & 1)
    rep = check_event_bound(p, q, EventSpec(members))
    assert rep.holds and rep.gap <= rep.distance


def _per_member(members):
    """The reference reading of an event: each member through `check_int`, then the empty-event refusal."""
    values = frozenset(check_int(m, "event member", lo=0) for m in members)
    if not values:
        raise ValidationError("event must contain at least one key value")
    return values


@pytest.mark.parametrize("members", [
    (0,), (5, 0, 1), [3, 3, 3], {7, 2}, range(1, 9), (2**80, 0), [0] * 5,
    (True,), (1, False), (np.int64(3),), (2, np.uint8(4)), (np.int64(-1), 2),
    (-1,), (4, -2, 5), (0.0,), (1, 2.5), ("1",), (None,), (F(1),), (), [],
])
def test_event_members_read_as_the_per_member_check_reads_them(members):
    # a generator is read once, as `from_text` passes it
    for given_as in (members, (m for m in members)):
        try:
            expected = _per_member(members)
        except ValidationError as refusal:
            with pytest.raises(ValidationError) as got:
                EventSpec(given_as)
            assert str(got.value) == str(refusal)
        else:
            event = EventSpec(given_as)
            assert event.members == expected and set(map(type, event.members)) == {int}


def test_an_unreadable_event_is_echoed_once():
    text = "z" * 1000
    with pytest.raises(ValidationError) as refusal:
        EventSpec.from_text(text)
    assert str(refusal.value) == f"event member must be an integer, got '{'z' * 499}...(1002 characters)"
    with pytest.raises(ValidationError, match=r"^event member must be an integer, got 'x'$"):
        EventSpec.from_text("1,x")
    with pytest.raises(ValidationError, match=r"^event member must be a non-negative integer, got -1$"):
        EventSpec.from_text("2,-1")
