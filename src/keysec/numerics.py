"""Shared numeric plumbing: exact-rational vs float arithmetic.

Every quantity in this package lives in one of two worlds.  Exact mode
carries `fractions.Fraction` end to end, so statements like "the distance
equals the constructed offset" hold with no tolerance at all.  Float mode
uses double precision, and every comparison round-off can tip allows one
named slack of `SLACKS`, read by `slack`, which is 0 on exact values.

A value container (distribution, probe model, ...) infers its mode from the
types of its entries: all entries `Fraction`/`int` means rational, anything
else means float; mixing modes in one container is refused.  A scalar argument
is read by `check_scalar` and keeps its own mode, so each formula is written once
and computes in the `scalar_mode` of its scalars and laws.  A mode a caller names
is checked by `check_mode`, and `check_scalar` puts a constant into a mode.  The
scalar formulas live here too (`binary_entropy`, `ec_leak`, `degraded_epsilon`),
as this module imports no numpy and nothing a CLI call does not already load.
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
    "DegradedLevels",
    "binary_entropy",
    "degraded_epsilon",
    "ec_leak",
    "infer_mode",
    "parse_number",
    "resolve_mode",
]

Number = Union[int, float, Fraction]

#: environment variable consulted by the CLI when --mode is not given
MODE_ENV_VAR = "KEYSEC_NUMERIC_MODE"

MODES = ("rational", "float")


class ValidationError(ValueError):
    """Malformed or out-of-domain input.  Each refusal class holds the CLI's label and exit code."""

    label, exit_code = "validation error", 2


class InfeasibleError(ValidationError):
    """Request is well-formed but mathematically unsatisfiable."""

    label = "infeasible"


class ResourceLimitError(RuntimeError):
    """Exact/enumerative computation would exceed the supported size cap."""

    label, exit_code = "resource limit", 3


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


class Slack(NamedTuple):
    """One float slack: its size and what it absorbs."""

    size: float
    reason: str


#: every float slack of the package, by name; `slack` reads one, 0 when the values compared are exact
SLACKS = {
    "total": Slack(1e-9, "a float law's or probe row's total off 1, and each bound or verdict read from its entries"),
    "rounding": Slack(1e-12, "a float against an exact constant, or ordered against a second formula of it"),
    "bits": Slack(1e-9, "a float bit count against its bound, or just below the integer it floors to"),
    "cross_formula": Slack(1e-10, "an entropy or distance against another formula's value of it"),
    "identity": Slack(1e-14, "a float against an algebraically equal float of a few operations"),
    "symmetry": Slack(1e-15, "a distance against the same distance with its arguments swapped"),
    "hermitian": Slack(1e-9, "a state's entry against its mirror entry's conjugate, absolutely"),
    "hermitian_rel": Slack(1e-5, "a state's entry against its mirror entry's conjugate, relative to that conjugate"),
    "trace": Slack(1e-6, "a state's trace off 1"),
    "eigenvalue": Slack(1e-8, "a state's least eigenvalue below 0"),
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


def check_mode(mode: str) -> str:
    """``mode`` if it is one of `MODES`, else a `ValidationError` naming it: the one mode-name check."""
    if mode not in MODES:
        raise ValidationError(f"unknown numeric mode {_shown(mode, repr)}; expected one of {MODES}")
    return mode


def resolve_mode(mode: str | None = None) -> str:
    """Pick the numeric mode: explicit argument, else environment, else float."""
    return check_mode((os.environ.get(MODE_ENV_VAR) or "float") if mode is None else mode)


#: the exact rational types, looked up before the subclass test against the `Fraction` ABC
_RATIONALS = frozenset({int, Fraction})


def _kind(t: type) -> str | None:
    if issubclass(t, float):
        return "float"
    if t in _RATIONALS or issubclass(t, (int, Fraction)) and not issubclass(t, bool):
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
    ``"0.3"``) come back as Fractions and floats as floats (``-0.0`` as
    ``+0.0``: ``x + 0.0`` is ``x`` for every other float), unless
    ``mode`` names the mode to convert to: the one cast into a mode, which
    refuses a name outside `MODES`.  NaN, infinities, bools and other types
    are refused with a `ValidationError` naming ``what``, and so is a value
    outside ``[lo, hi]`` (a bound is omitted when None, and open when its
    ``*_open`` flag is set).  The range is checked on the returned value.
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
        value = Fraction(value) if (kind if mode is None else check_mode(mode)) == "rational" else float(value) + 0.0
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


def scalar_mode(*values) -> str:
    """The mode arithmetic over checked scalars and laws computes in: rational while every
    value is exact, float as soon as one is a float; a law or a probe model counts by its ``mode``."""
    for v in values:  # a plain loop, its mode read first: the kind of a law needs no subclass check
        if (getattr(v, "mode", None) or _kind(type(v))) != "rational":
            return "float"
    return "rational"


def slack(name: str, value, *values) -> Number:
    """The slack ``SLACKS[name]`` allows a comparison over ``value`` and ``values``: 0 while every
    one is exact (`scalar_mode`), its size otherwise.  A mode name is refused: it is no value, and
    ``scalar_mode("rational")`` is float; `check_scalar(1, what, mode=...)` puts a name into a value."""
    if scalar_mode(value, *values) == "rational":  # a str is never exact: refused below
        return 0
    for v in (value, *values):
        if isinstance(v, str):
            raise TypeError(f"slack {name!r} reads the compared values, not a mode name")
    return SLACKS[name].size


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


def _read_text(path) -> str:
    """The file at ``path`` as UTF-8 text (the one file reader); a file that is not UTF-8, a path with a NUL
    or a file that cannot be read (an `OSError`) is refused with a `ValidationError` naming the path, cut."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # a ValueError too, so it is caught first
        raise ValidationError(f"{_shown(path)} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # open() refuses a path holding a NUL; repr shows the NUL as \x00
        raise ValidationError(f"cannot read {_shown(path, repr)}: {exc}") from exc
    except OSError as exc:  # the path is echoed cut, not as the OSError spells it
        raise ValidationError(f"cannot read {_shown(path)}: {exc.strerror}") from exc


def parse_int(text: str, what: str = "value") -> int:
    """An integer as ``int(text, 0)`` reads it (``0x1f``, ``1_000``), else as ``int(text)`` does (``010``
    is 10, other decimal digits); else a `ValidationError`, ``<what> must be an integer, got '<text>'``
    (the one integer refusal, its text cut by `_shown`)."""
    for base in (0, 10):  # int(text) reads base 10
        try:
            return int(text, base)
        except ValueError:
            pass
    raise ValidationError(f"{what} must be an integer, got {_shown(text, repr)}")


def parse_number(text: str, mode: str) -> Number:
    """Parse one scalar in the requested mode.

    Rational mode accepts ``"3/10"``, integers, and decimal literals
    (``"0.3"`` becomes exactly 3/10; one with an exponent past the
    ``decimal_digits`` cap raises `ResourceLimitError`).  Float mode
    accepts anything ``float()`` does, plus ``num/den`` forms (rounded to
    double), and refuses NaN, infinities and values outside the float range.
    """
    check_mode(mode)
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


def binary_entropy(q: Number) -> float:
    """Entropy ``h(q) = -q log2 q - (1-q) log2 (1-q)`` of a coin with bias q."""
    q = check_scalar(q, "binary entropy argument", lo=0, hi=1)
    qf = float(min(q, 1 - q) if isinstance(q, Fraction) else q)  # h(q) = h(1-q): an exact q near 1 keeps 1-q
    if qf == 0.0 or qf == 1.0:
        return 0.0
    return -qf * math.log2(qf) - (1.0 - qf) * math.log2(1.0 - qf)


def ec_leak(f: Number, n: int, q: Number) -> float:
    """Reconciliation disclosure ``f * n * h(q)`` in bits.

    ``f`` is the inefficiency factor, stipulated to lie in [1, 2]; ``n``
    the block length; ``q`` the error rate seen by the reconciliation.
    """
    f = check_scalar(f, "inefficiency factor", lo=1, hi=2)
    n = check_scalar(check_int(n, "block length", lo=0), "block length", mode="float")
    return check_scalar(float(f) * n * binary_entropy(q), "reconciliation disclosure")


class DegradedLevels(NamedTuple):
    hash_key_level: Number
    tag_key_level: Number


def degraded_epsilon(eps: Number, eps_h: Number, eps_t: Number, m: int) -> DegradedLevels:
    """Universality levels after substituting imperfect keys.

    A hash key within ``eps_h`` of uniform degrades the family to level
    ``eps + eps_h``; tag masks within ``eps_t`` of uniform, spent over
    ``m`` tags under one hash key, degrade it to ``eps + m * eps_t``.
    Both are clipped at 1.
    """
    eps, eps_h, eps_t = (
        check_scalar(value, name, lo=0, hi=1)
        for value, name in ((eps, "eps"), (eps_h, "eps_h"), (eps_t, "eps_t"))
    )
    m = check_scalar(check_int(m, "number of uses"), "number of uses", mode=scalar_mode(eps_t))
    try:  # a float eps plus an exact m * eps_t is rounded to a float
        levels = (eps + eps_h, eps + m * eps_t)  # each clipped at 1 in its own mode
    except OverflowError as exc:
        raise ValidationError("level is outside the float range") from exc
    return DegradedLevels(*(min(level, check_scalar(1, "level", mode=scalar_mode(level))) for level in levels))
