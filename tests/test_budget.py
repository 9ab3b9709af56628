"""Log-domain security budgets and average-to-individual conversions."""

import math
from fractions import Fraction as F

import mpmath
import pytest

import _oracles as oracles
from keysec import (
    DEFAULT_ONE_SHOT_LOG10,
    LogBudget,
    MARKOV_EXPONENTS,
    ValidationError,
    accumulated_failure,
    as_markov_exponent,
    guarantee_gap,
    individual_level,
    markov_tail_bound,
    near_uniform_bits,
    parse_security_level,
    required_d_for_near_uniform,
)


def test_exponent_parsing():
    assert as_markov_exponent("1/3") == F(1, 3)
    assert as_markov_exponent("1/2") == F(1, 2)
    assert as_markov_exponent("1") == 1
    assert as_markov_exponent(1.0) == 1
    assert as_markov_exponent(0.5) == F(1, 2)
    assert tuple(MARKOV_EXPONENTS) == (F(1), F(1, 2), F(1, 3))
    with pytest.raises(ValidationError) as err:
        as_markov_exponent("1/4")
    assert "1/4" in str(err.value)  # the quartic-root shortcut is specifically disallowed
    with pytest.raises(ValidationError):
        as_markov_exponent(0)
    with pytest.raises(ValidationError):
        as_markov_exponent("0.3")


def test_markov_tail_bound():
    assert markov_tail_bound(F(1, 1000), F(1, 10)) == F(1, 100)
    assert markov_tail_bound(0.5, 0.25) == 1.0  # capped at certainty
    assert isinstance(markov_tail_bound(F(1, 8), F(1, 2)), F)
    assert isinstance(markov_tail_bound(0.125, 0.5), float)
    with pytest.raises(ValidationError):
        markov_tail_bound(0.1, 0)
    with pytest.raises(ValidationError):
        markov_tail_bound(-0.1, 0.5)


def test_individual_level():
    assert individual_level(LogBudget(-20.0, as_markov_exponent("1/3"))) == pytest.approx(
        -20 / 3, abs=1e-14
    )
    assert individual_level(LogBudget(F(-20), as_markov_exponent("1/3"))) == F(-20, 3)
    assert individual_level(LogBudget(-9.0, as_markov_exponent("1"))) == -9.0
    with pytest.raises(ValidationError):
        LogBudget(0.5, F(1))  # a distance level cannot exceed 1


def test_accumulated_failure_frozen():
    res = accumulated_failure(-20.0, 100.0, 86400.0)
    assert res.rounds == 8640000.0
    assert res.log10_total == pytest.approx(-13.063486257521106, abs=1e-12)
    # capped: enough rounds make failure certain, never more than certain
    sat = accumulated_failure(-3.0, 1e6, 1e6)
    assert sat.log10_total == 0.0
    with pytest.raises(ValidationError):
        accumulated_failure(-20.0, -1.0, 10.0)


def test_accumulated_failure_additive_in_log_domain():
    a = accumulated_failure(-20.0, 100.0, 3600.0)
    b = accumulated_failure(-20.0, 100.0, 7200.0)
    assert b.rounds == 2 * a.rounds
    assert b.log10_total == pytest.approx(a.log10_total + math.log10(2), abs=1e-12)


def test_near_uniform_bits_frozen():
    assert near_uniform_bits(-20.0, "1/3") == 22
    assert near_uniform_bits(-15.0, "1") == 49
    assert near_uniform_bits(-9.0, "1/3") == 9
    assert near_uniform_bits(F(-20), "1/3") == 22
    with pytest.raises(ValidationError):
        near_uniform_bits(0.0, "1")


def test_near_uniform_bits_integer_boundaries():
    # -log10(2^-n) lands exactly on n*log10(2); the floor must not lose a bit
    for n in (10, 49, 64, 333):
        log10_d = -n * math.log10(2)
        assert near_uniform_bits(log10_d, "1") == n


def test_required_d_frozen():
    assert required_d_for_near_uniform(1000) == pytest.approx(-301.0299956639812, abs=1e-10)
    assert required_d_for_near_uniform(1) == pytest.approx(-math.log10(2), abs=1e-15)
    assert required_d_for_near_uniform(100) == pytest.approx(-30.102999566398, abs=1e-10)
    with pytest.raises(ValidationError):
        required_d_for_near_uniform(0)


def test_required_and_bits_round_trip():
    for n in (8, 22, 128, 1000):
        assert near_uniform_bits(required_d_for_near_uniform(n), "1") == n


def test_guarantee_gap():
    assert guarantee_gap(F(-9), F(-15), as_markov_exponent("1/3")) == 36
    assert isinstance(guarantee_gap(F(-9), F(-15), F(1, 3)), F)
    assert guarantee_gap(-9.0, -15.0, as_markov_exponent("1")) == pytest.approx(6.0)
    assert guarantee_gap(-45.0, -15.0, as_markov_exponent("1/3")) == pytest.approx(0.0)
    with pytest.raises(ValidationError):
        guarantee_gap(9.0, -15.0, F(1))


def test_gap_consistent_with_individual_level():
    # applying the conversion to the required average hits the target exactly
    target = F(-15)
    exponent = as_markov_exponent("1/3")
    required = target / exponent
    assert individual_level(LogBudget(required, exponent)) == target
    assert guarantee_gap(required, target, exponent) == 0


def test_parse_security_level():
    assert parse_security_level("1e-20") == pytest.approx(-20.0, abs=1e-12)
    assert parse_security_level("0.001") == pytest.approx(-3.0, abs=1e-12)
    assert parse_security_level("log10:-301.03") == -301.03
    assert parse_security_level("1") == 0.0
    with pytest.raises(ValidationError):
        parse_security_level("0")
    with pytest.raises(ValidationError):
        parse_security_level("1.5")
    with pytest.raises(ValidationError):
        parse_security_level("log10:3")
    with pytest.raises(ValidationError):
        parse_security_level("junk")


def test_parse_security_level_modes_and_non_finite_values():
    assert parse_security_level("log10:-9", "rational") == F(-9)
    assert parse_security_level("log10:-1/3") == -1 / 3
    assert parse_security_level("0.001", "rational") == F(-3)
    for text in ("log10:-inf", "log10:nan", "log10:inf", "nan", "-inf", "snan"):
        for mode in ("float", "rational"):
            with pytest.raises(ValidationError):
                parse_security_level(text, mode)


def test_headline_numbers_stay_in_log_domain():
    # a 1000-bit near-uniform claim needs ~10^-301; that level must be
    # representable and usable without ever leaving log space
    level = required_d_for_near_uniform(1000)
    assert level < -300
    assert near_uniform_bits(level, "1") == 1000
    # far past double-precision underflow, the log form still works fine
    deep = required_d_for_near_uniform(1200)
    assert 10.0**deep == 0.0
    assert near_uniform_bits(deep, "1") == 1200
    assert DEFAULT_ONE_SHOT_LOG10 == -15.0


# ---------------------------------------------------------------- oracles


def _around(value: float) -> tuple:
    """``value`` and the floats one ulp below and above it."""
    return math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)


@pytest.mark.parametrize("exponent", ["1", "1/2", "1/3"])
def test_near_uniform_bits_matches_the_oracle_at_and_next_to_integer_boundaries(exponent):
    e = F(exponent)
    for n in (1, 2, 10, 49, 64, 128, 333, 1000):
        # log10 d at which n bits are bought exactly, one ulp either side, and 2e-9 bits
        # either side of the 1e-9 slack
        boundary = float(-n / oracles.exact_mp(e) * mpmath.log10(2))
        for log10_d in _around(boundary):
            assert near_uniform_bits(log10_d, exponent) == oracles.near_uniform_bits_oracle(log10_d, e) == n
        for shift, bits in ((-2e-9, n - 1), (2e-9, n)):
            log10_d = float(-(n + shift) / oracles.exact_mp(e) * mpmath.log10(2))
            assert near_uniform_bits(log10_d, exponent) == oracles.near_uniform_bits_oracle(log10_d, e) == bits
        exact = F(boundary)
        assert near_uniform_bits(exact, exponent) == oracles.near_uniform_bits_oracle(exact, e) == n


def test_required_d_is_within_one_ulp_of_the_oracle():
    for n in (1, 2, 3, 10, 49, 64, 100, 128, 333, 1000, 1200, 4096):
        got, ref = required_d_for_near_uniform(n), oracles.required_log10_d_oracle(n)
        assert abs(oracles.exact_mp(got) - ref) <= math.ulp(got)
        assert oracles.near_uniform_bits_oracle(got, 1) == near_uniform_bits(got, "1") == n


def test_accumulated_failure_matches_the_oracle_at_and_next_to_the_cap():
    cases = [(level, 1e3, 1e3) for level in _around(-6.0)]  # a total of 0: exactly at the cap, and either side
    cases += [(level, 100.0, 86400.0) for level in _around(-20.0)] + [(-3.0, 1e6, 1e6), (-1e-300, 0.5, 3.0)]
    for level, rate, seconds in cases:
        got = accumulated_failure(level, rate, seconds)
        rounds, total = oracles.accumulated_failure_oracle(level, rate, seconds)
        assert got.rounds == float(rounds)  # one IEEE product, correctly rounded
        assert abs(oracles.exact_mp(got.log10_total) - total) <= 2 * math.ulp(max(abs(level), 1.0))
        assert (got.log10_total < 0) == (total < 0)  # capped at 0 exactly when the oracle is


@pytest.mark.parametrize("exponent", ["1", "1/2", "1/3"])
def test_guarantee_gap_matches_the_oracle_at_and_next_to_zero(exponent):
    e = as_markov_exponent(exponent)
    for target in (-1, -15, -20, -301):
        required = F(target) / e  # the gap is 0 here
        for current in (required - F(1, 10**30), required, required + F(1, 10**30)):
            assert guarantee_gap(current, F(target), e) == oracles.guarantee_gap_oracle(current, target, e)
        for current in _around(float(required)):
            got, ref = guarantee_gap(current, float(target), e), oracles.guarantee_gap_oracle(current, target, e)
            assert abs(F(got) - ref) <= F(math.ulp(float(required)))
