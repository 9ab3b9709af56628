"""Shared numeric plumbing: exact-rational vs float arithmetic.

Every quantity in this package lives in one of two worlds.  Exact mode
carries `fractions.Fraction` end to end, so statements like "the distance
equals the constructed offset" hold with no tolerance at all.  Float mode
uses double precision and accepts a 1e-9 slack when validating that
probabilities sum to one.

A value container (distribution, probe model, ...) infers its mode from
the types of its entries: all entries `Fraction`/`int` means rational,
anything else means float.  Mixing modes inside one container is rejected
rather than silently coerced.  A scalar argument is read by `check_scalar`
and keeps its own mode, so each formula is written once and computes in
whichever mode its scalars arrive in.
"""

from __future__ import annotations

import math
import numbers
import os
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

__all__ = [
    "ValidationError",
    "InfeasibleError",
    "ResourceLimitError",
    "infer_mode",
    "parse_number",
    "resolve_mode",
]

Number = Union[int, float, Fraction]

#: slack used when validating float-mode probability data
VALIDATION_TOL = 1e-9

#: environment variable consulted by the CLI when --mode is not given
MODE_ENV_VAR = "KEYSEC_NUMERIC_MODE"

MODES = ("rational", "float")


class ValidationError(ValueError):
    """Malformed or out-of-domain input."""


class InfeasibleError(ValidationError):
    """Request is well-formed but mathematically unsatisfiable."""


class ResourceLimitError(RuntimeError):
    """Exact/enumerative computation would exceed the supported size cap."""


class Cap(NamedTuple):
    """One size cap: its limit in ``unit`` and the error a request above it raises."""

    limit: int
    error: type
    unit: str


#: every size cap of the package, by name; `check_cap` is the one place they are enforced
CAPS = {
    "key_bits": Cap(24, ResourceLimitError, "bits"),  # a dense law has 2^n entries
    "field_bits": Cap(10, ResourceLimitError, "bits"),  # MAC field GF(2^b)
    "mac_entry_bits": Cap(20, ResourceLimitError, "bits"),  # masked MAC substitution (transcript, key) table
    "data_bits": Cap(12, ResourceLimitError, "bits"),  # ECPA exact expectation over 2^n words
    "matrix_bits": Cap(16, ValidationError, "bits"),  # ECPA parity-check matrix width
    "state_dim": Cap(64, ValidationError, "dimensions"),  # density matrices
    "decimal_digits": Cap(4000, ResourceLimitError, "digits"),  # an exact decimal with an exponent
    "denominator_bits": Cap(1 << 14, ResourceLimitError, "bits"),  # the common denominator of exact entries
}


#: echoed text past this many characters is cut in a refusal
_SHOWN_CHARS = 500


def _cut(text: str) -> str:
    """``text``, or past ``_SHOWN_CHARS`` characters its leading ``_SHOWN_CHARS`` and its length."""
    return text if len(text) <= _SHOWN_CHARS else f"{text[:_SHOWN_CHARS]}...({len(text)} characters)"


def _shown(value, spell=str) -> str:
    """``spell(value)`` (`str` or `repr`) for a refusal, of bounded length: every integer in it past
    50 digits cut to its leading 50 and its digit count, read from the bit length (no int too long
    for ``str()`` is converted), and any other spelling past ``_SHOWN_CHARS`` characters cut to its
    leading ``_SHOWN_CHARS`` and its length."""
    if isinstance(value, Fraction):
        num, den = _shown(value.numerator), _shown(value.denominator)
        return f"Fraction({num}, {den})" if spell is repr else f"{num}/{den}" if value.denominator > 1 else num
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        return _cut(spell(value))
    size = abs(int(value))
    digits = int((size.bit_length() - 1) * math.log10(2)) + 1  # 2^(bits - 1) <= size < 2^bits
    digits += size >= 10**digits
    if digits <= 50:
        return str(int(value))
    return f"{'-' * (value < 0)}{size // 10 ** (digits - 50)}...({digits} digits)"


def check_cap(name: str, requested: int, what: str) -> int:
    """Refuse ``requested`` above the cap ``CAPS[name]``; return it otherwise.

    Callers pass the size they are about to enumerate or allocate, before
    allocating it.  The refusal raises the cap's error class with the
    requested amount, the limit and the cap's name.
    """
    cap = CAPS[name]
    if requested > cap.limit:
        raise cap.error(
            f"{what} needs {_shown(requested)} {cap.unit}, over the {name} cap of {cap.limit} {cap.unit}"
        )
    return requested


def resolve_mode(mode: str | None = None) -> str:
    """Pick the numeric mode: explicit argument, else environment, else float."""
    if mode is None:
        mode = os.environ.get(MODE_ENV_VAR) or "float"
    if mode not in MODES:
        raise ValidationError(f"unknown numeric mode {_shown(mode, repr)}; expected one of {MODES}")
    return mode


def _kind(t: type) -> str | None:
    if issubclass(t, float):
        return "float"
    if issubclass(t, (int, Fraction)) and not issubclass(t, bool):
        return "rational"
    return None


def infer_mode(values: Iterable[Number]) -> str:
    """Mode of a homogeneous collection, read from its set of entry types;
    mixed exact/float entries are an error."""
    values = values if isinstance(values, (list, tuple)) else list(values)
    kinds = {_kind(t) for t in set(map(type, values))}
    if None in kinds:
        bad = next(v for v in values if _kind(type(v)) is None)
        raise ValidationError(f"unsupported numeric entry {_shown(bad, repr)}")
    if len(kinds) > 1:
        raise ValidationError("entries mix exact rationals and floats; pick one backend")
    return kinds.pop() if kinds else "float"


def _fraction(text: str, what: str) -> Fraction:
    """``Fraction(text)``, its decimal exponent read first.

    A decimal with an exponent, ``<mantissa>e<exponent>``, needs at most as many
    digits in its numerator and in its denominator as the mantissa has characters
    plus the exponent's magnitude; past the ``decimal_digits`` cap it is refused
    before ``10**exponent`` is built.  Under the cap no exponent makes an entry too
    long to print: Python converts ints of up to 4,300 digits to text.
    """
    at = max(text.rfind("e"), text.rfind("E"))
    if at >= 0:
        try:
            float(text)  # every text Fraction reads with an exponent, float() reads too
            digits = at + abs(int(text[at + 1:]))
        except ValueError:  # not a decimal, or an exponent past int()'s digit limit: Fraction refuses it
            digits = 0
        check_cap("decimal_digits", digits, what)
    return Fraction(text)


def check_scalar(
    value,
    what: str,
    lo: Number | None = None,
    hi: Number | None = None,
    mode: str | None = None,
    *,
    lo_open: bool = False,
    hi_open: bool = False,
) -> Number:
    """Read one scalar argument: the reader every library entry point shares.

    Ints (numpy's too), Fractions and numeric strings (``"3/10"``,
    ``"0.3"``) come back as Fractions and floats as floats, unless
    ``mode`` names the mode to convert to.  NaN, infinities, bools and
    other types are refused with a `ValidationError` naming ``what``, and
    so is a value outside ``[lo, hi]`` (a bound is omitted when None, and
    open when its ``*_open`` flag is set).  The range is checked on the
    returned value.
    """
    if isinstance(value, str):
        shown = f"{what} {_cut(repr(value))}"
        try:
            value = _fraction(value.strip(), shown)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {shown}") from exc
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)  # numpy integers read as ints
    kind = _kind(type(value))
    if kind is None:
        raise ValidationError(f"{what} must be a number, got {_shown(value, repr)}")
    if kind == "float" and not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {_shown(value, repr)}")
    try:
        value = Fraction(value) if (mode or kind) == "rational" else float(value)
    except OverflowError as exc:
        raise ValidationError(f"{what} is outside the float range") from exc
    below = lo is not None and (value <= lo if lo_open else value < lo)
    above = hi is not None and (value >= hi if hi_open else value > hi)
    if below or above:
        if hi is None:
            bound = f"above {_shown(lo)}" if lo_open else f"at least {_shown(lo)}"
        elif lo is None:
            bound = f"below {_shown(hi)}" if hi_open else f"at most {_shown(hi)}"
        else:
            bound = f"in {'(' if lo_open else '['}{_shown(lo)}, {_shown(hi)}{')' if hi_open else ']'}"
        raise ValidationError(f"{what} must be {bound}, got {_shown(value)}")
    return value


def scalar_mode(*values: Number) -> str:
    """The mode arithmetic over checked scalars computes in: rational while
    every value is exact, float as soon as one is a float."""
    return "rational" if all(_kind(type(v)) == "rational" for v in values) else "float"


def check_int(value, what: str, lo: int | None = 1, hi: int | None = None) -> int:
    """Read a count, size or index as an int, numpy integers too; bools, other types
    and values outside ``[lo, hi)`` (no bound where None) raise a `ValidationError`."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if (lo is None or value >= lo) and (hi is None or value < hi):
            return value
        if hi is not None:
            raise ValidationError(f"{what} {_shown(value)} outside [{lo}, {hi})")
    kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}[lo]
    raise ValidationError(f"{what} must be {kind}, got {_shown(value, repr)}")


def check_key_bits(n) -> int:
    """Validate the bit length of a dense key law before anything is allocated.

    A positive integer, else `ValidationError`; above the ``key_bits`` cap
    (``2^n`` entries would not fit a desk-scale calculation), `ResourceLimitError`.
    """
    n = check_int(n, "key length")
    if n > CAPS["key_bits"].limit:  # the refusal's text is built only for a refusal
        check_cap("key_bits", n, f"a dense law over 2^{_shown(n)} keys")
    return n


def parse_int(text: str) -> int:
    """An integer as ``int(text, 0)`` reads it (``0x1f``, ``1_000``), else as ``int(text)`` does (``010``
    is 10, other decimal digits); else a plain `ValueError`, which each caller words as its refusal."""
    try:
        return int(text, 0)
    except ValueError:
        return int(text)


def parse_number(text: str, mode: str) -> Number:
    """Parse one scalar in the requested mode.

    Rational mode accepts ``"3/10"``, integers, and decimal literals
    (``"0.3"`` becomes exactly 3/10; one with an exponent past the
    ``decimal_digits`` cap raises `ResourceLimitError`).  Float mode
    accepts anything ``float()`` does, plus ``num/den`` forms (rounded to
    double), and refuses NaN, infinities and values outside the float range.
    """
    text = text.strip()
    shown = _cut(repr(text))  # built on every call, so without `_shown`'s type tests
    try:
        if mode == "rational":
            return _fraction(text, f"number {shown}")
        try:
            value = float(text)
        except ValueError:
            value = _fraction(text, f"number {shown}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {shown} as a {mode} number") from exc
    return check_scalar(value, f"number {shown}", mode="float")


def format_number(value: Number) -> str:
    """Canonical string form: ``num/den`` for rationals, ``repr`` for floats."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value}/1"
    return repr(float(value))
