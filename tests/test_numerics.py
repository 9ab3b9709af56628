from fractions import Fraction

import pytest

from keysec import KeyDistribution
from keysec.numerics import (
    ValidationError,
    format_number,
    infer_mode,
    parse_number,
    resolve_mode,
)


def test_parse_number_rational_forms():
    assert parse_number("3/10", "rational") == Fraction(3, 10)
    assert parse_number("0.3", "rational") == Fraction(3, 10)
    assert parse_number("2", "rational") == 2
    assert parse_number(" -1/4 ", "rational") == Fraction(-1, 4)


def test_parse_number_float_accepts_fraction_notation():
    assert parse_number("1/4", "float") == 0.25
    assert parse_number("1e-3", "float") == 1e-3


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "0x10"])
def test_parse_number_rejects_garbage(bad):
    with pytest.raises(ValidationError):
        parse_number(bad, "rational")
    with pytest.raises(ValidationError):
        parse_number(bad, "float")


def test_infer_mode():
    assert infer_mode([Fraction(1, 2), 1]) == "rational"
    assert infer_mode([0.5, 0.5]) == "float"
    with pytest.raises(ValidationError):
        infer_mode([0.5, Fraction(1, 2)])
    with pytest.raises(ValidationError):
        infer_mode(["0.5"])
    # bools are not numbers here
    with pytest.raises(ValidationError):
        infer_mode([True, False])
    # an unsupported entry is named even when the others mix modes; any iterable is read
    with pytest.raises(ValidationError, match="unsupported numeric entry 'x'"):
        infer_mode([0.5, Fraction(1, 2), "x"])
    assert infer_mode(iter([Fraction(1, 3), 2])) == "rational"
    assert infer_mode([]) == "float"


def test_resolve_mode_env(monkeypatch):
    monkeypatch.delenv("KEYSEC_NUMERIC_MODE", raising=False)
    assert resolve_mode(None) == "float"
    monkeypatch.setenv("KEYSEC_NUMERIC_MODE", "rational")
    assert resolve_mode(None) == "rational"
    assert resolve_mode("float") == "float"  # explicit argument wins
    monkeypatch.setenv("KEYSEC_NUMERIC_MODE", "bogus")
    with pytest.raises(ValidationError):
        resolve_mode(None)


def test_format_number():
    assert format_number(Fraction(1, 3)) == "1/3"
    assert format_number(2) == "2/1"
    assert format_number(0.25) == "0.25"


def test_exact_sum_stays_exact():
    # probability vectors are totalled inside the law containers
    third = Fraction(1, 3)
    total = KeyDistribution(2, [third, third, third, 0]).prob_of(range(4))
    assert total == 1
    assert isinstance(total, Fraction)
    # float path is compensated: ten 0.1 add up to 0.9999999999999999 left to right
    assert sum([0.1] * 10) != 1.0
    assert KeyDistribution(4, [0.1] * 10 + [0.0] * 6).prob_of(range(16)) == 1.0


def test_check_probability_vector():
    # the checks run when a law is built; a 1-bit key takes 2-entry vectors
    assert KeyDistribution(1, [Fraction(1, 2), Fraction(1, 2)]).mode == "rational"
    assert KeyDistribution(1, [0.5, 0.5 + 1e-12]).mode == "float"
    with pytest.raises(ValidationError):
        KeyDistribution(1, [])
    with pytest.raises(ValidationError):
        KeyDistribution(1, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValidationError):
        KeyDistribution(1, [0.7, 0.7])
    with pytest.raises(ValidationError):
        KeyDistribution(1, [Fraction(-1, 4), Fraction(5, 4)])
