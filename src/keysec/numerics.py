"""Shared numeric plumbing: exact-rational vs float arithmetic.

Every quantity in this package lives in one of two worlds.  Exact mode
carries `fractions.Fraction` end to end, so statements like "the distance
equals the constructed offset" hold with no tolerance at all.  Float mode
uses double precision and accepts a 1e-9 slack when validating that
probabilities sum to one.

A value container (distribution, probe model, ...) infers its mode from
the types of its entries: all entries `Fraction`/`int` means rational,
anything else means float.  Mixing modes inside one container is rejected
rather than silently coerced.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Union

Number = Union[int, float, Fraction]

#: slack used when validating float-mode probability data
VALIDATION_TOL = 1e-9

#: largest intermediate array, in entries, that a blocked enumeration kernel
#: (MAC forgery search, ECPA guessing) allocates at once
BLOCK_ENTRIES = 1 << 14

#: environment variable consulted by the CLI when --mode is not given
MODE_ENV_VAR = "KEYSEC_NUMERIC_MODE"

MODES = ("rational", "float")


class ValidationError(ValueError):
    """Malformed or out-of-domain input."""


class InfeasibleError(ValidationError):
    """Request is well-formed but mathematically unsatisfiable."""


class ResourceLimitError(RuntimeError):
    """Exact/enumerative computation would exceed the supported size cap."""


def resolve_mode(mode: str | None = None) -> str:
    """Pick the numeric mode: explicit argument, else environment, else float."""
    if mode is None:
        mode = os.environ.get(MODE_ENV_VAR) or "float"
    if mode not in MODES:
        raise ValidationError(f"unknown numeric mode {mode!r}; expected one of {MODES}")
    return mode


def is_rational(value: Number) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


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
        raise ValidationError(f"unsupported numeric entry {bad!r}")
    if len(kinds) > 1:
        raise ValidationError("entries mix exact rationals and floats; pick one backend")
    return kinds.pop() if kinds else "float"


def parse_number(text: str, mode: str) -> Number:
    """Parse one scalar in the requested mode.

    Rational mode accepts ``"3/10"``, integers, and decimal literals
    (``"0.3"`` becomes exactly 3/10).  Float mode accepts anything
    ``float()`` does, plus ``num/den`` forms (rounded to double).
    """
    text = text.strip()
    try:
        if mode == "rational":
            return Fraction(text)
        try:
            return float(text)
        except ValueError:
            return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {text!r} as a {mode} number") from exc


def format_number(value: Number) -> str:
    """Canonical string form: ``num/den`` for rationals, ``repr`` for floats."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value}/1"
    return repr(float(value))
