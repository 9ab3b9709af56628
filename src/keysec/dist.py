"""Key distributions and the distance / entropy primitives built on them.

The objects here are the vocabulary for everything else in the package:

* :class:`KeyDistribution` — a probability vector over the ``2**n`` values
  of an ``n``-bit key, indexed by the integer whose bit ``i`` (little
  endian) is key bit ``i``.
* :class:`ClassicalProbeModel` — a prior over keys together with a
  row-stochastic conditional ``p(y | k)``: the classical picture of an
  eavesdropper probing the key through some channel.
* :class:`HermitianState` — a small density matrix, for the quantum analogue
  of statistical distance.

Scalar measures: total-variation (statistical) distance, min-/Shannon
entropy, mutual information, trace distance, and the joint-vs-product
distance ``d`` that scores how much an eavesdropper's outcomes correlate
with a non-uniform key.

Every law is stored as a :class:`Lattice`, numerators over one
denominator: integer numerators over their common denominator in rational
mode, float64 numerators over 1 in float mode.  Each measure is written
once over ``(nums, den)``; only the sum of the numerators depends on the
mode -- exact integer arithmetic (rational results are the same
Fractions) or the correctly rounded sum, the value ``math.fsum`` returns
(float results carry the bits of the scalar formulas).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .numerics import (
    Number,
    SLACKS,
    ValidationError,
    _shown,
    binary_entropy,  # re-exported: keysec.dist.binary_entropy stays the numerics function
    check_cap,
    check_int,
    check_key_bits,
    check_mode,
    check_scalar,
    format_number,
    infer_mode,
    parse_number,
    scalar_mode,
    slack,
)

__all__ = [
    "KeyDistribution",
    "Lattice",
    "ClassicalProbeModel",
    "HermitianState",
    "EntropyStats",
    "statistical_distance",
    "entropy_stats",
    "mutual_information",
    "trace_distance",
    "d_criterion",
]

_INT64_LIMIT = 1 << 63

#: a plain array's bytes with each "/" read as the separator ","
_PARTS = bytes.maketrans(b"/", b",")

#: float rows of this many entries and more are summed by `_exact_sum`, shorter ones by `math.fsum`
_LONG_ROW = 1024


class Lattice(NamedTuple):
    """A law as numerators over one denominator, the storage of both modes: integers
    (int64, or ``object`` Python ints) over a positive integer when exact, float64
    over 1 in float mode.  `KeyDistribution` accepts any sequence of ints as ``nums``."""

    nums: np.ndarray
    den: int


def _wide(nums: np.ndarray, bound: int) -> np.ndarray:
    """Integer ``nums`` as Python ints when values up to ``bound`` would overflow int64."""
    return nums.astype(object) if bound >= _INT64_LIMIT and nums.dtype == np.int64 else nums


def _xor_span(vectors) -> np.ndarray:
    """Entry x is the XOR of ``vectors[i]`` over the bits i of x, built by doubling.  The
    vectors are ints or the equal rows of an array (a list of ints gives a 1-D span)."""
    span = np.zeros((1 << len(vectors), *getattr(vectors, "shape", ())[1:]), np.intp)
    for i, vector in enumerate(vectors):  # x + 2^i adds vector i to x
        np.bitwise_xor(span[: 1 << i], vector, out=span[1 << i : 2 << i])
    return span


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float64 array of finite values: the value
    `math.fsum` returns, with no Python float per entry.

    Each value is ``m * 2**(e - 53)`` with `np.frexp`'s exponent ``e`` and an integer
    ``|m| < 2**53``, split into a high half ``|h| < 2**26`` and a low half ``|l| < 2**27``
    (``m = h * 2**27 + l``).  One `np.bincount` per half adds them up by exponent.  A bin
    stays an exact integer while its partial sums stay within ``2**53``, and runs of
    ``2**26`` entries guarantee that (``2**26 * (2**27 - 1) < 2**53``), so a longer array
    is binned run by run.  The nonzero bins are combined into one Python int, and one
    correctly rounded ``int / 2**k`` division gives the result; a zero sum is ``0.0``, as
    from `math.fsum`.  Unlike `math.fsum`, which raises `OverflowError` when a partial
    sum overflows, the kernel returns the exact sum whenever that sum is finite; no sum
    over a law comes near the float range.
    """
    low, exponents = np.frexp(values)  # |low| in [0.5, 1) until it is scaled
    high = np.trunc(low * 2.0**26)
    low *= 2.0**53
    low -= high * 2.0**27
    base = int(exponents.min())
    bins = np.subtract(exponents, base, dtype=np.intp)
    total = 0
    for at in range(0, values.size, 1 << 26):
        run = slice(at, at + (1 << 26))
        highs = np.bincount(bins[run], weights=high[run]).tolist()
        lows = np.bincount(bins[run], weights=low[run]).tolist()
        for b, (h, l) in enumerate(zip(highs, lows)):
            if h or l:
                total += ((int(h) << 27) + int(l)) << b
    scale = base - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def _total(nums: np.ndarray):
    """Sums along the last axis, exact for integers and correctly rounded for floats
    (`math.fsum` for short rows, `_exact_sum` from ``_LONG_ROW`` entries): a Python
    number for a 1-D array, an array of row sums for a 2-D one, as from `_in_order`."""
    rows = nums if nums.ndim == 2 else nums[None]
    if nums.dtype != np.float64:
        sums = rows.sum(axis=1)
    elif rows.shape[1] < _LONG_ROW:
        sums = np.array([math.fsum(row) for row in rows.tolist()])
    else:
        sums = np.array([_exact_sum(row) for row in rows])
    return sums if nums.ndim == 2 else sums.item(0)


def _in_order(values: np.ndarray):
    """Sums along the last axis, added left to right as a loop over the entries adds
    them: a Python number for a 1-D array (an exact int for integer entries), an
    array of row sums for a 2-D one, as from `_total`, the correctly rounded float total."""
    last = np.add.accumulate(values, axis=-1)[..., -1]
    return last if last.ndim else last.tolist()


def _over(total, den) -> Number:
    """A total over its denominator: a Fraction, or a Python float for a float total."""
    return float(total) / float(den) if isinstance(total, float) else Fraction(int(total), int(den))


def _law(p: "KeyDistribution", mode: str | None = None) -> Lattice:
    """``p`` in ``mode`` (default its own): its lattice, or an exact law's rounded floats over 1."""
    return p._data if mode in (None, p.mode) else Lattice(p.as_array(), 1)


def _ratios(nums: np.ndarray, den: int) -> np.ndarray:
    """Each ``num / den`` (entries in ``[0, den]``) correctly rounded to float64."""
    if nums.dtype != object and den <= 1 << 53:
        return nums / den  # both operands exact in float64: one IEEE division
    return np.array([a / den for a in nums.ravel().tolist()]).reshape(nums.shape)


def _integers(nums, what: str) -> np.ndarray:
    """Integer numerators in int64, or as Python ints beyond; other entries are refused.  An
    ``object`` array of Python ints, which its maker chose, is kept: no int64 cast is tried."""
    if isinstance(nums, np.ndarray) and nums.dtype == np.int64:
        return nums
    values = nums.ravel().tolist() if isinstance(nums, np.ndarray) else list(nums)
    if set(map(type, values)) - {int}:
        values = [check_int(a, what, lo=None) for a in values]
    elif isinstance(nums, np.ndarray) and nums.dtype == object:
        return nums.ravel()
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _scalars(nums: np.ndarray, den: int, mode: str) -> tuple:
    """Numerators as a tuple of Python floats, or of Fractions over ``den`` when exact."""
    values = nums.tolist()
    return tuple(values if mode == "float" else (Fraction(a, den) for a in values))


def _over_lcm(nums, dens) -> Lattice:
    """Integers ``nums[i] / dens[i]`` (``dens`` positive) as one Lattice over the lcm of ``dens``.  The
    lcm grows one distinct denominator at a time, charged to the ``denominator_bits`` cap at each step,
    so no numerator is scaled to an lcm past it; numerators widen through `_wide` by the largest |num|."""
    nums, dens = _integers(nums, "numerator"), _integers(dens, "denominator")
    lo, den = int(dens.min()), 1
    for d in {lo} if lo == dens.max() else set(dens.tolist()):  # one denominator: no set to build
        den = den // math.gcd(den, d) * d
        check_cap("denominator_bits", den.bit_length(), "the entries' common denominator")
    if den == lo:
        return Lattice(nums, den)
    top = max(int(nums.max()), -int(nums.min()))
    return Lattice(_wide(nums, top * (den // lo)) * (den // _wide(dens, den)), den)


def _law_bits(count: int) -> int:
    """The key length of a dense law of ``count`` entries, checked before any entry is read: a
    count that is not a power of two >= 2 is refused, and so is one past the ``key_bits`` cap."""
    n = count.bit_length() - 1
    if n < 1 or 1 << n != count:
        raise ValidationError(f"length {count} is not a power of two >= 2")
    return check_key_bits(n)


def _plain_lattice(text: str) -> Lattice | None:
    """The JSON text ``text`` when it is a plain array, ``["a/b", ...]`` with every part ASCII
    digits, ``b > 0`` and ``", "`` (what `json.dumps` writes) or ``","`` between entries, as one
    Lattice of numerators over the lcm of their denominators; None for any other text.  JSON
    whitespace (``" \t\n\r"``, not the ``"\x0c"`` that `str.strip` drops too) at either end is
    ignored, as `json.loads` ignores it: a file's closing newline keeps its text plain.

    The text is read as bytes in whole-text passes, with no JSON decode.  With its ASCII digits
    deleted it must read ``["/", "/", ..., "/"]`` (one separator throughout), with no digit inside
    a separator and none after the closing ``"]``: then every digit lies in a part.  The count of
    slashes is checked as a law's length (`_law_bits`, which may refuse) before any number is
    read.  One translate leaves ``a,b,a,b,...`` and one `np.fromstring` reads its parts as int64;
    an empty part stops that read short (numpy raises, or reads fewer numbers).  Past
    ``2**63 - 1`` `np.fromstring` saturates silently (``"99999999999999999999"`` reads as
    ``2**63 - 1``), so a part read as ``2**63 - 1`` leaves the text to the JSON reader, and so
    does a zero denominator, which `parse_number` refuses.
    """
    text = text.strip(" \t\n\r") if isinstance(text, str) else ""  # bytes are left to the JSON reader
    if not (text.startswith('["') and text.isascii()):
        return None
    data = text.encode()
    shape = data.translate(None, b"0123456789")
    count = shape.count(b"/")
    sep = b'", "' if shape[5:6] == b" " else b'","'
    plain = shape == b'["/' + (sep + b"/") * (count - 1) + b'"]'
    if not (plain and data.endswith(b'"]') and data.count(sep) == count - 1):
        return None
    _law_bits(count)
    try:
        values = np.fromstring(data.translate(_PARTS, b'[" ]'), dtype=np.int64, sep=",")
    except ValueError:  # an empty part, inside or first
        return None
    if values.size != 2 * count or values.max() >= _INT64_LIMIT - 1 or values[1::2].min() < 1:
        return None
    return _over_lcm(values[0::2], values[1::2])


def _json_array(text: str, what: str) -> list:
    """The non-empty JSON array in ``text`` (the one JSON reader), else a `ValidationError` naming ``what``."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{what} must be a non-empty JSON array")
    return raw


def _certified(rows: np.ndarray, tol: float, least: float) -> bool:
    """Whether plain sums prove that every row of ``rows`` (finite float64, least entry
    ``least``) has a correctly rounded sum within ``tol`` of 1.  False means only that
    they cannot tell; the caller then sums each row correctly rounded.

    Higham, *Accuracy and Stability of Numerical Algorithms*, §4.2: in any order of its
    N - 1 additions (NumPy's pairwise order too), the float sum ``s`` of N entries is
    within ``g A / (1 - g)`` of their true sum ``T``, with ``u = 2**-53``,
    ``g = (N - 1) u / (1 - (N - 1) u)`` and ``A`` the float sum of their magnitudes (``s``
    when no entry is negative).  For ``N < 2**51`` that is below the rounded ``A N 2**-52``
    used here.  The few operations here round by a relative ``4 u`` at most, so an
    accepted row has ``|T - 1| <= tol - 2**-52``: ``T`` lies a float spacing inside
    ``[1 - tol, 1 + tol]``, and so does its correctly rounded value.  From
    ``N 2**-52 > tol`` (about ``2**22.1`` entries) no row is certified.
    """
    sums = rows.sum(axis=1).tolist()
    mags = sums if least >= 0 else np.abs(rows).sum(axis=1).tolist()
    return max(max(sums) - 1, 1 - min(sums)) + max(mags) * (rows.shape[1] * 2.0**-52) <= tol - 2.0**-51


def _check_rows(probs, mode: str, width: int, label) -> Lattice:
    """Validated read-only rows of ``width`` probabilities, from a Lattice or a flat
    sequence: float64 numerators over 1, or integer numerators (Fractions over the
    lcm of their denominators) in lowest terms, int64 while ``max * count`` fits.
    Every entry lies in ``[0, 1]``, within the ``total`` slack for floats, and every
    row sums to the denominator: exactly, or within that slack by the correctly
    rounded sum (the value `math.fsum` returns), certified from plain sums and their
    error bound (`_certified`) where that bound decides, and computed (`_total`) where
    it does not.  ``label(k)`` names row ``k`` in a refusal.
    """
    exact = mode == "rational"
    nums, den = probs if isinstance(probs, Lattice) else (probs, 1)
    if exact:
        if not isinstance(probs, Lattice):  # Fractions over the lcm of their denominators
            nums, den = _over_lcm([p.numerator for p in probs], [p.denominator for p in probs])
        den = check_int(den, f"{label(0)} denominator")
        rows = _wide(_integers(nums, f"{label(0)} numerator"), den * width).reshape(-1, width)  # sums fit
    else:
        rows = np.array(nums, dtype=np.float64).reshape(-1, width)
        rows += 0.0  # a copy, so each -0.0 is stored as +0.0 in place
    tol = slack("total", rows.item(0))  # an int when exact, so 0; a float in float mode
    top, least, most = den + tol, rows.min(), rows.max()
    if not (least >= -tol and most <= top):  # NaN fails both comparisons
        k, i = divmod(int(np.argmin((rows >= -tol) & (rows <= top))), width)
        raise ValidationError(f"{label(k)} entry {i} is {_shown(_over(rows[k, i], den), repr)}, outside [0, 1]")
    for k, total in enumerate([] if not exact and _certified(rows, tol, least) else _total(rows).tolist()):
        if abs(total - den) > tol:
            tolerance = f" (tolerance {tol})" if tol else ""
            raise ValidationError(f"{label(k)} sums to {_shown(_over(total, den))}, not 1{tolerance}")
    return _stored(rows, den, most)


def _stored(nums: np.ndarray, den: int, most=None) -> Lattice:
    """``nums`` over ``den`` stored read-only: float64 as they are (``den`` 1), or integers (largest ``most``,
    found if not given) in lowest terms, int64 while ``most * count`` fits, else ``object``."""
    if nums.dtype != np.float64:  # over Python ints one `math.gcd` is faster than `np.gcd.reduce`
        most = nums.max() if most is None else most
        common = math.gcd(den, *nums.ravel().tolist() if nums.dtype == object else [np.gcd.reduce(nums, axis=None)])
        if common > 1:
            nums, den, most = nums // common, den // common, most // common
        nums = nums.astype(np.int64 if int(most) * nums.size < _INT64_LIMIT else object)
    nums.flags.writeable = False
    return Lattice(nums, den)


@dataclass(frozen=True, eq=False)
class KeyDistribution:
    """Probability distribution over the values of an ``n``-bit key.

    Parameters
    ----------
    n : int
        Key length in bits, at least 1.
    probs : sequence of numbers, float64 array, or Lattice
        ``2**n`` probabilities.  All `fractions.Fraction`/`int` entries
        (or a `Lattice`) select the exact backend; float entries (or a
        float64 array) select double precision.

    Notes
    -----
    Storage is one read-only `Lattice` in both modes: float64 numerators
    over 1 (`as_array`), or integer numerators over the lcm of the
    entries' reduced denominators (`lattice`), so equal laws have equal
    lattices.  Exact numerators are int64 while ``max(numerator) * 2**n``
    fits, so no sum of entries can overflow, and Python ints (``object``)
    beyond.  Public construction (`_check_rows`) refuses NaN, infinities
    and entries outside ``[0, 1]``, then checks the total: exactly, or in
    float mode by the correctly rounded sum (the value `math.fsum`
    returns) within the ``total`` slack of 1, certified by a plain sum's
    error bound where the bound decides (`_certified`) and summed
    correctly rounded where it does not (`_exact_sum` from ``_LONG_ROW``
    entries).  A Lattice passed in must hold integer numerators.  A law keysec computes is
    stored unchecked by `_built` in both modes, but two float laws the check may refuse: the
    mixture residual, for its total, and an ECPA posterior with a negative term; Tier-1 tests
    check each builder against `_check_rows`.  ``probs`` and the distance to the uniform law
    are cached on first use; indexing, hashing and `repr` read the lattice.

    Instances are immutable.  Equality compares bit length and entries
    exactly (no tolerance), so two float-mode distributions are equal only
    if built from identical values; a float and an exact law are equal
    when every entry is the same number, and then their hashes agree.
    """

    n: int
    mode: str
    _data: Lattice

    def __init__(self, n: int, probs):
        check_key_bits(n)
        mode = None
        if isinstance(probs, Lattice):
            mode = "rational"
        elif isinstance(probs, np.ndarray) and probs.dtype == np.float64 and probs.ndim == 1:
            mode = "float"
        elif not isinstance(probs, (list, tuple)):
            probs = list(probs)
        count = len(probs.nums) if isinstance(probs, Lattice) else len(probs)
        if count != 1 << n:
            raise ValidationError(f"need {1 << n} probabilities for a {n}-bit key, got {count}")
        mode = mode or infer_mode(probs)
        data = _check_rows(probs, mode, count, "distribution".format)
        vars(self).update(n=n, mode=mode, _data=Lattice(data.nums[0], data.den))

    @classmethod
    def _built(cls, n: int, nums: np.ndarray, den: int = 1) -> "KeyDistribution":
        """A law keysec computed, stored unchecked in its dtype's mode: float64 over 1, or integers over ``den``."""
        law = cls.__new__(cls)
        vars(law).update(n=n, mode="float" if nums.dtype == np.float64 else "rational", _data=_stored(nums, den))
        return law

    @classmethod
    def uniform(cls, n: int, mode: str = "float") -> "KeyDistribution":
        """The uniform distribution on ``n``-bit keys, in the given backend."""
        size, exact = 1 << check_key_bits(n), check_mode(mode) == "rational"
        return cls._built(n, np.ones(size, np.int64), size) if exact else cls._built(n, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, n: int, at: int = 0, mode: str = "float") -> "KeyDistribution":
        """All mass on the ``n``-bit key ``at``, in the given backend."""
        size = 1 << check_key_bits(n)
        at = check_int(at, "point-mass location", lo=0, hi=size)
        return _transport(n, np.delete(np.arange(size), at), [at], check_scalar(1, "mass", mode=check_mode(mode)))[0]

    @property
    def size(self) -> int:
        return 1 << self.n

    @functools.cached_property
    def probs(self) -> tuple:
        """The law as a tuple of Python floats or Fractions (built once, on first use)."""
        return _scalars(*self._data, self.mode)

    @functools.cached_property
    def _uniform_distance(self) -> Number:
        """``delta(P, U)``, `statistical_distance` against the uniform law (computed once,
        on first use): ``sum_k |N num_k - den| / (2 N den)`` over the numerators."""
        size, (nums, den) = self.size, self._data
        return _over(_total(np.abs(size * _wide(nums, 2 * size * den) - den)), 2 * size * den)

    @property
    def lattice(self) -> Lattice:
        """The exact law: read-only numerators over the common denominator."""
        if self.mode != "rational":
            raise ValidationError("a float-mode distribution has no exact lattice")
        return self._data

    def as_array(self) -> np.ndarray:
        """The law in float64: the stored read-only array in float mode, each
        exact entry correctly rounded in rational mode."""
        return self._data.nums if self.mode == "float" else _ratios(*self._data)

    def prob_of(self, members: Iterable[int]) -> Number:
        """Total mass of a set of key values (duplicates collapse)."""
        idx = sorted({check_int(k, "key value", lo=0, hi=self.size) for k in members})
        nums, den = self._data
        return _over(_total(nums[idx]), den)

    def formatted(self) -> list:
        """Entries as `format_number` strings: reduced ``num/den``, or float ``repr``."""
        nums, den = self._data
        if self.mode == "float":
            return [repr(p) for p in nums.tolist()]
        common = np.gcd(nums, den)
        return [f"{a}/{b}" for a, b in zip((nums // common).tolist(), (den // common).tolist())]

    def to_json(self) -> str:
        """Serialize as a JSON array of strings (``"num/den"`` in exact mode)."""
        return json.dumps(self.formatted())

    @classmethod
    def from_json(cls, text: str, mode: str | None = None) -> "KeyDistribution":
        """Inverse of :meth:`to_json`.

        The length is checked before any entry is read (`_law_bits`): one
        that is not a power of two >= 2 is refused, and so is one past the
        ``key_bits`` cap (`ResourceLimitError`).  ``mode`` forces the
        backend; when omitted, an array with a ``/`` in any entry is read
        exactly and any other as floats.  Entries are read as their string
        forms.  Unless ``mode`` is ``"float"``, a plain array of ``"a/b"``
        entries, as `to_json` and `json.dumps` write it or with ``","``
        between entries, is read from the JSON text itself in whole-text
        passes (`_plain_lattice`).  Any other text is decoded as JSON and,
        in rational mode, read entry by entry by `parse_number`, with its
        values and refusals; both paths put the numerators over their lcm
        through `_over_lcm`, which refuses an lcm past the
        ``denominator_bits`` cap (`ResourceLimitError`) before any numerator
        is scaled.  An array of JSON floats read as floats is taken as it
        is: the same values.
        """
        probs = _plain_lattice(text) if mode is None or mode == "rational" else None
        if probs is not None:
            return cls(len(probs.nums).bit_length() - 1, probs)
        raw = _json_array(text, "distribution")
        n = _law_bits(len(raw))
        if (mode is None or check_mode(mode) == "float") and set(map(type, raw)) == {float}:
            probs = np.array(raw)  # float(repr(x)) == x, NaN and infinities included
        else:
            try:
                text = ",".join(raw)
            except TypeError:  # entries are read as their string forms
                raw = [str(item) for item in raw]
                text = ",".join(raw)
            if mode is None:
                mode = "rational" if "/" in text else "float"
            probs = [parse_number(e, mode) for e in raw]
        return cls(n, probs)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k):  # `probs[k]`, read from the lattice without building `probs`
        nums, den = self._data
        picked = _scalars(nums[k] if isinstance(k, slice) else nums[k, None], den, self.mode)
        return picked if isinstance(k, slice) else picked[0]

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyDistribution):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.mode != other.mode:  # exact comparison of each float with each Fraction
            return self.probs == other.probs
        (a, da), (b, db) = self._data, other._data
        return da == db and bool(np.array_equal(a, b))

    def __hash__(self):  # equal laws share the place and value of their first largest entry
        at = int(np.argmax(self._data.nums))
        return hash((self.n, at, self[at]))

    def __repr__(self) -> str:
        head = ", ".join(format_number(p) for p in self[:4])
        tail = ", ..." if self.size > 4 else ""
        return f"KeyDistribution(n={self.n}, [{head}{tail}])"


def _transport(n: int, donors, receivers, budget: Number) -> tuple:
    """The uniform law on ``n``-bit keys with mass moved from ``donors`` (disjoint
    from ``receivers``) onto ``receivers``: the one builder of every witness law.

    The mass moved is ``min(budget, U(donors))``, the budget clipped at the donors'
    uniform mass, computed in ``budget``'s mode; it is taken evenly from the donors
    and spread evenly over the receivers.  Entry values are as ``1/N - moved/|donors|``
    and ``1/N + moved/|receivers|`` compute them: integer numerators over their lcm
    (widened by `_wide`) when exact, float64 otherwise, stored by `_built` in both modes.
    Returns the law and ``moved``, which is the law's distance to the uniform law.
    """
    size = 1 << n
    u = low = high = check_scalar(Fraction(1, size), "uniform mass", mode=scalar_mode(budget))
    moved = min(budget, u * len(donors))
    if moved > 0:
        low, high = u - moved / len(donors), u + moved / len(receivers)
    den, values = 1, (u, low, high)
    if isinstance(u, Fraction):
        den = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
    nums = _wide(np.zeros(size, type(values[0])), den) + values[0]  # int64 or Python ints, or float64
    nums[donors], nums[receivers] = values[1:]
    return KeyDistribution._built(n, nums, den), moved


@dataclass(frozen=True, eq=False)
class ClassicalProbeModel:
    """A key prior plus the conditional law of an eavesdropper's outcome.

    ``conditional[k][y]`` is ``p(y | K = k)``; each row must be a
    probability vector over the same outcome alphabet.  The backend must
    match the prior's.  The rows are stored as one 2-D array in the
    prior's storage -- a `Lattice` with one denominator common to every
    row -- and ``conditional`` is a tuple-of-tuples view of it built on
    first use.
    """

    prior: KeyDistribution
    outcomes: int
    _rows: Lattice

    def __init__(self, prior: KeyDistribution, conditional: Sequence[Sequence[Number]]):
        try:
            rows = [row if isinstance(row, (list, tuple)) else tuple(row) for row in conditional]
        except TypeError as exc:
            raise ValidationError(f"conditional rows must be sequences of probabilities: {exc}") from exc
        if len(rows) != prior.size:
            raise ValidationError(
                f"conditional has {len(rows)} rows, prior has {prior.size} key values"
            )
        width = len(rows[0])
        if width < 1:
            raise ValidationError("outcome alphabet must be non-empty")
        for k, row in enumerate(rows):
            if len(row) != width:
                raise ValidationError(f"conditional row {k} has {len(row)} entries, expected {width}")
        flat = list(itertools.chain.from_iterable(rows))
        if infer_mode(flat) != prior.mode:
            raise ValidationError("conditional rows do not match the prior's numeric mode")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "outcomes", width)
        object.__setattr__(self, "_rows", _check_rows(flat, prior.mode, width, "conditional row {}".format))

    @property
    def mode(self) -> str:
        return self.prior.mode

    @functools.cached_property
    def conditional(self) -> tuple:
        """Rows of Python floats or Fractions (built once, on first use)."""
        nums, den = self._rows
        return tuple(_scalars(row, den, self.mode) for row in nums)

    def joint(self, k: int, y: int) -> Number:
        return _over(self._joint.nums[k, y], self._joint.den)

    @functools.cached_property
    def _joint(self) -> Lattice:
        """``p(k) p(y | k)``: read-only numerators over ``pd * cd``, float64 over 1 in float mode (built once)."""
        (pn, pd), (cn, cd) = _law(self.prior), self._rows
        # covers d_criterion's sum of |N * joint - marginal| over the table
        bound = pd * cd * self.prior.size**2 * self.outcomes
        nums = _wide(pn, bound)[:, None] * _wide(cn, bound)
        nums.flags.writeable = False
        return Lattice(nums, pd * cd)

    @functools.cached_property
    def _outcome_totals(self) -> np.ndarray:
        """The column sums of `_joint`, one numerator per outcome (computed once, on first use)."""
        return _total(self._joint.nums.T)

    def outcome_marginal(self) -> list:
        return [_over(total, self._joint.den) for total in self._outcome_totals.tolist()]


@dataclass(frozen=True, eq=False)
class HermitianState:
    """Density matrix, its dimension capped by ``state_dim`` in `keysec.numerics.CAPS`.

    Accepts anything `numpy.asarray` can turn into a square complex matrix and validates
    hermiticity entrywise, ``|m_ij - conj(m_ji)| <= hermitian + hermitian_rel * |m_ji|`` (the
    test of `numpy.allclose`), the trace to within the ``trace`` slack of 1, and every
    eigenvalue to at least minus the ``eigenvalue`` slack, each slack read from `SLACKS`.
    States compare by identity.
    """

    matrix: np.ndarray

    def __post_init__(self):
        try:
            mat = np.asarray(self.matrix, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, entries that are not numbers
            raise ValidationError(f"state is not a matrix of numbers: {exc}") from exc
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"state must be a square matrix, got shape {mat.shape}")
        check_cap("state_dim", mat.shape[0], "state")
        if not np.isfinite(mat).all():
            raise ValidationError("state has a non-finite entry")
        if not np.allclose(mat, mat.conj().T, rtol=SLACKS["hermitian_rel"].size, atol=SLACKS["hermitian"].size):
            raise ValidationError("state is not Hermitian")
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > SLACKS["trace"].size:
            raise ValidationError(f"state trace is {trace!r}, not 1")
        least = float(np.linalg.eigvalsh(mat).min())
        if least < -SLACKS["eigenvalue"].size:
            raise ValidationError(f"state has negative eigenvalue {least!r}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_distribution(cls, dist: KeyDistribution) -> "HermitianState":
        """Diagonal (classical) state embedding a key distribution."""
        check_cap("state_dim", dist.size, "diagonal state of a key law")
        return cls(np.diag(dist.as_array()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class EntropyStats(NamedTuple):
    """Guessing and entropy summary of one distribution."""

    p1: Number
    min_entropy_bits: float
    shannon_bits: float


def statistical_distance(p: KeyDistribution, q: KeyDistribution | None = None) -> Number:
    """Total-variation distance ``(1/2) * sum_k |p_k - q_k|``.

    Parameters
    ----------
    p, q : KeyDistribution
        Must share the bit length.  If both are exact the result is an
        exact `Fraction`; otherwise a float.  Omitting ``q`` measures
        ``delta(P, U)`` against the uniform law in ``p``'s backend,
        without building it: ``sum_k |N num_k - den| / (2 N den)`` over
        its numerators, computed once per law and cached.  A float result
        is the correctly rounded sum (the value `math.fsum` returns); as
        ``N`` is a power of two, the scaling by ``N`` is exact.

    Returns
    -------
    Number
        A value in ``[0, 1]``; ``0`` iff the distributions are equal and
        ``1`` iff their supports are disjoint.
    """
    if q is None:
        return p._uniform_distance
    if p.n != q.n:
        raise ValidationError(f"bit lengths differ: {p.n} vs {q.n}")
    mode = scalar_mode(p, q)
    (a, da), (b, db) = _law(p, mode), _law(q, mode)
    den = math.lcm(da, db)
    if da != db:  # both over the common denominator, as Python ints where the sum could overflow
        a, b = _wide(a, den * p.size) * (den // da), _wide(b, den * p.size) * (den // db)
    return _over(_total(np.abs(a - b)), 2 * den)


def _shannon_bits(values: np.ndarray):
    """Shannon entropy in bits of a law, or of each row of a table: the correctly rounded sum of the
    IEEE ``p * log2(p)``, with ``log2(1)`` at entries <= 0 (0 log 0 = 0), as `_total` returns it."""
    return 0.0 - _total(values * np.log2(np.where(values > 0, values, 1.0)))  # -x would give -0.0 for a certain key


def entropy_stats(p: KeyDistribution) -> EntropyStats:
    """Best single-guess probability plus min- and Shannon entropy (bits).

    ``p1`` keeps the distribution's backend; the entropies are floats
    (``min_entropy_bits = -log2(p1)``), both ``+0.0`` for a certain key.
    """
    nums, den = _law(p)
    p1 = _over(nums.max(), den)
    return EntropyStats(
        p1=p1,
        min_entropy_bits=0.0 - math.log2(float(p1)),
        shannon_bits=_shannon_bits(p.as_array()),
    )


def mutual_information(model: ClassicalProbeModel) -> float:
    """Mutual information ``I(K; Y)`` of a probe model, in bits.

    Computed as ``H(K) - sum_y p(y) H(K | Y = y)`` over the outcomes of positive mass, their
    conditional entropies in one `_shannon_bits` call over a table; the result is clamped
    into ``[0, H(K)]`` to absorb float round-off near the endpoints.
    """
    h_prior = _shannon_bits(model.prior.as_array())
    nums, den = model._joint
    marginal = _ratios(model._outcome_totals, den)
    seen = marginal > 0.0
    h_cond = _in_order(marginal[seen] * _shannon_bits(_ratios(nums, den).T[seen] / marginal[seen, None]))
    return min(max(h_prior - h_cond, 0.0), h_prior)


def trace_distance(rho: HermitianState, sigma: HermitianState) -> float:
    """Trace distance ``(1/2) ||rho - sigma||_1`` between two states.

    For diagonal states this coincides with the statistical distance of
    the diagonals; in general it is the quantum analogue: the maximum
    bias any measurement can achieve in telling the states apart.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"state dimensions differ: {rho.dim} vs {sigma.dim}")
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(min(max(0.5 * np.abs(eigs).sum(), 0.0), 1.0))


def d_criterion(model: ClassicalProbeModel) -> Number:
    """Distance of the joint (key, outcome) law from ideal-key behaviour.

    This is the statistical distance between ``p(k, y)`` and the product
    of a *uniform* key with the true outcome marginal:

    ``d = (1/2) sum_{k,y} | p(k) p(y|k) - pbar(y) / N |``

    ``d = 0`` iff the key is uniform and independent of the outcome;
    small ``d`` certifies that no event involving both the key and the
    eavesdropper's data shifts in probability by more than ``d``.
    """
    size = model.prior.size
    nums, den = model._joint
    return _over(_total(np.abs(size * nums - model._outcome_totals).ravel()), 2 * size * den)
