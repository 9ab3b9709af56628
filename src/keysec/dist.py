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
    ValidationError,
    VALIDATION_TOL,
    _shown,
    check_cap,
    check_int,
    check_key_bits,
    check_scalar,
    format_number,
    infer_mode,
    parse_number,
    scalar_mode,
)

__all__ = [
    "KeyDistribution",
    "Lattice",
    "ClassicalProbeModel",
    "HermitianState",
    "EntropyStats",
    "statistical_distance",
    "entropy_stats",
    "binary_entropy",
    "mutual_information",
    "trace_distance",
    "d_criterion",
]

_INT64_LIMIT = 1 << 63

#: the separators of a plain array's text: its ASCII digits deleted
_SEPARATORS = str.maketrans("", "", "0123456789")

#: a plain array's text with every ASCII digit as "0"
_SHAPE = str.maketrans("123456789", "000000000")

#: 19 digits in a row: a part that `np.fromstring` may not read as int64, since past
#: ``2**63 - 1`` it saturates silently (``"99999999999999999999"`` reads as ``2**63 - 1``)
_LONG_PART = "0" * 19

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
    """Sums of numerators along the last axis, exact or correctly rounded for floats
    (`math.fsum` for short rows, `_exact_sum` from ``_LONG_ROW`` entries): one number
    for a 1-D array, a list of row sums for a 2-D one."""
    rows = nums if nums.ndim == 2 else nums[None]
    if nums.dtype != np.float64:
        sums = rows.sum(axis=1).tolist()
    elif rows.shape[1] < _LONG_ROW:
        sums = [math.fsum(row) for row in rows.tolist()]
    else:
        sums = [_exact_sum(row) for row in rows]
    return sums if nums.ndim == 2 else sums[0]


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
    """Integer numerators in int64, or as Python ints beyond; other entries are refused."""
    if isinstance(nums, np.ndarray) and nums.dtype == np.int64:
        return nums
    values = nums.ravel().tolist() if isinstance(nums, np.ndarray) else list(nums)
    if set(map(type, values)) - {int}:
        values = [check_int(a, what, lo=None) for a in values]
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


def _plain_lattice(text: str, count: int) -> Lattice | None:
    """The ``count`` comma-joined entries of ``text``, all ``"a/b"`` (``b > 0``) with
    parts of at most 18 ASCII digits, as one Lattice of numerators over the lcm of
    their denominators; None for any other text.

    The text is read in whole-text passes.  With its digits deleted it must read
    ``"/,/,...,/"``, and no part between separators may be empty or run to 19 digits
    (past ``2**63 - 1`` `np.fromstring` saturates silently); one `np.fromstring`
    reads the parts as int64.
    """
    if text.translate(_SEPARATORS) != "/," * (count - 1) + "/":
        return None
    parts = text.replace("/", ",")
    if ",," in f",{parts}," or _LONG_PART in parts.translate(_SHAPE):
        return None
    values = np.fromstring(parts, dtype=np.int64, sep=",")
    if values[1::2].min() < 1:  # a zero denominator, which parse_number refuses
        return None
    return _over_lcm(values[0::2], values[1::2])


def _check_rows(probs, mode: str, width: int, label) -> Lattice:
    """Validated read-only rows of ``width`` probabilities, from a Lattice or a flat
    sequence: float64 numerators over 1, or integer numerators (Fractions over the
    lcm of their denominators) in lowest terms, int64 while ``max * count`` fits.
    Every entry lies in ``[0, 1]``, within VALIDATION_TOL for floats, and every
    row sums to the denominator: exactly, or within VALIDATION_TOL by the correctly
    rounded sum (the value `math.fsum` returns).
    ``label(k)`` names row ``k`` in a refusal.
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
    slack = 0 if exact else VALIDATION_TOL
    top, most = den + slack, rows.max()
    if not (rows.min() >= -slack and most <= top):  # NaN fails both comparisons
        k, i = divmod(int(np.argmin((rows >= -slack) & (rows <= top))), width)
        raise ValidationError(f"{label(k)} entry {i} is {_shown(_over(rows[k, i], den), repr)}, outside [0, 1]")
    for k, total in enumerate(_total(rows)):
        if abs(total - den) > slack:
            tolerance = f" (tolerance {slack})" if slack else ""
            raise ValidationError(f"{label(k)} sums to {_shown(_over(total, den))}, not 1{tolerance}")
    if exact:
        common = math.gcd(den, int(np.gcd.reduce(rows, axis=None)))
        if common > 1:
            rows, den, most = rows // common, den // common, most // common
        rows = rows.astype(np.int64 if int(most) * rows.size < _INT64_LIMIT else object)
    rows.flags.writeable = False
    return Lattice(rows, den)


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
    beyond.  Construction (`_check_rows`) refuses NaN, infinities and
    entries outside ``[0, 1]``, then checks the total: exactly, or in
    float mode by the correctly rounded sum (the value `math.fsum`
    returns; `_exact_sum` from ``_LONG_ROW`` entries) within
    VALIDATION_TOL of 1.  A Lattice passed in must hold integer
    numerators.  ``probs``, the tuple of Python floats or Fractions that
    iteration and hashing use, and the distance to the uniform law are
    computed on first use and cached; indexing and `repr` read the lattice.

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_data", Lattice(data.nums[0], data.den))

    @classmethod
    def uniform(cls, n: int, mode: str = "float") -> "KeyDistribution":
        """The uniform distribution on ``n``-bit keys, in the given backend."""
        size = 1 << check_key_bits(n)
        return cls(n, Lattice(np.ones(size, np.int64), size) if mode == "rational" else np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, n: int, at: int = 0, mode: str = "float") -> "KeyDistribution":
        size = 1 << check_key_bits(n)
        nums = np.zeros(size, dtype=np.int64)
        nums[check_int(at, "point-mass location", lo=0, hi=size)] = 1
        return cls(n, Lattice(nums, 1) if mode == "rational" else nums.astype(np.float64))

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

        The length is checked before any entry is read: one that is not a
        power of two >= 2 is refused, and so is one past the ``key_bits``
        cap (`ResourceLimitError`).  ``mode`` forces the backend; when
        omitted, an array with a ``/`` in any entry is read exactly and any
        other as floats.  Entries are read as their string forms.  In
        rational mode, an array of ``"a/b"`` entries with parts of at most
        18 ASCII digits is read in whole-text passes (`_plain_lattice`), and
        any other entry by entry by `parse_number`, with its values and
        refusals; both paths put the numerators over their lcm through
        `_over_lcm`, which refuses an lcm past the ``denominator_bits`` cap
        (`ResourceLimitError`) before any numerator is scaled.  An array of
        JSON floats read as floats is taken as it is: the same values.
        """
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
            raise ValidationError(f"distribution is not valid JSON: {exc}") from exc
        if not isinstance(raw, list) or not raw:
            raise ValidationError("distribution JSON must be a non-empty array")
        n = len(raw).bit_length() - 1
        if 1 << n != len(raw) or n < 1:
            raise ValidationError(f"length {len(raw)} is not a power of two >= 2")
        check_key_bits(n)
        if mode != "rational" and set(map(type, raw)) == {float}:
            probs = np.array(raw)  # float(repr(x)) == x, NaN and infinities included
        else:
            try:
                text = ",".join(raw)
            except TypeError:  # entries are read as their string forms
                raw = [str(item) for item in raw]
                text = ",".join(raw)
            if mode is None:
                mode = "rational" if "/" in text else "float"
            probs = _plain_lattice(text, len(raw)) if mode == "rational" else None
            if probs is None:
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

    def __hash__(self):
        return hash((self.n, self.probs))

    def __repr__(self) -> str:
        head = ", ".join(format_number(p) for p in self[:4])
        tail = ", ..." if self.size > 4 else ""
        return f"KeyDistribution(n={self.n}, [{head}{tail}])"


def _transport(size: int, donors, receivers, moved: Number):
    """The uniform law on ``size`` values with ``moved`` mass taken evenly
    from ``donors`` and spread evenly over ``receivers``, in ``moved``'s mode.

    Entry values are as ``1/N - moved/|donors|`` and ``1/N + moved/|receivers|``
    compute them: a `Lattice` of integer numerators over their lcm (int64 while
    it fits) when exact, a float64 array otherwise.
    """
    u = low = high = check_scalar(Fraction(1, size), "uniform mass", mode=scalar_mode(moved))
    if moved > 0:
        low, high = u - moved / len(donors), u + moved / len(receivers)
    exact, den, values = isinstance(u, Fraction), 1, (u, low, high)
    if exact:
        den = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
    nums = np.full(size, values[0], dtype=object if den >= _INT64_LIMIT else None)
    nums[donors], nums[receivers] = values[1:]
    return Lattice(nums, den) if exact else nums


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
        return self.prior[k] * self.conditional[k][y]

    def joint_law(self) -> Lattice:
        """``p(k) p(y | k)`` as a read-only (key, outcome) table of numerators over
        the product of the two denominators (float64 products over 1 in float mode)."""
        (pn, pd), (cn, cd) = _law(self.prior), self._rows
        # covers d_criterion's sum of |N * joint - marginal| over the table
        bound = pd * cd * self.prior.size**2 * self.outcomes
        nums = _wide(pn, bound)[:, None] * _wide(cn, bound)
        nums.flags.writeable = False
        return Lattice(nums, pd * cd)

    #: `joint_law`, built once on first use; the measures read this one
    _joint = functools.cached_property(joint_law)

    @functools.cached_property
    def _outcome_totals(self) -> list:
        """The column sums of `joint_law`, one numerator per outcome (computed once, on first use)."""
        return _total(self._joint.nums.T)

    def outcome_marginal(self) -> list:
        den = _law(self.prior).den * self._rows.den
        return [_over(total, den) for total in self._outcome_totals]


@dataclass(frozen=True, eq=False)
class HermitianState:
    """Density matrix, its dimension capped by ``state_dim`` in `keysec.numerics.CAPS`.

    Accepts anything `numpy.asarray` can turn into a square complex
    matrix; validates hermiticity, unit trace, and positivity up to 1e-9.
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
        if not np.allclose(mat, mat.conj().T, atol=VALIDATION_TOL):
            raise ValidationError("state is not Hermitian")
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > 1e-6:
            raise ValidationError(f"state trace is {trace!r}, not 1")
        least = float(np.linalg.eigvalsh(mat).min())
        if least < -1e-8:
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
    mode = "rational" if p.mode == q.mode == "rational" else "float"
    (a, da), (b, db) = _law(p, mode), _law(q, mode)
    den = math.lcm(da, db)
    if da != db:  # both over the common denominator, as Python ints where the sum could overflow
        a, b = _wide(a, den * p.size) * (den // da), _wide(b, den * p.size) * (den // db)
    return _over(_total(np.abs(a - b)), 2 * den)


def _shannon_bits(values: np.ndarray) -> float:
    # 0 log 0 = 0 by continuity; math.log2 per entry, as np.log2 rounds some inputs differently
    support = values[values > 0]
    logs = np.fromiter(map(math.log2, support.tolist()), np.float64, support.size)
    return -_total(support * logs)  # the correctly rounded sum of the IEEE products p * log2(p)


def entropy_stats(p: KeyDistribution) -> EntropyStats:
    """Best single-guess probability plus min- and Shannon entropy (bits).

    ``p1`` keeps the distribution's backend; the entropies are floats
    (``min_entropy_bits = -log2(p1)``).
    """
    nums, den = _law(p)
    p1 = _over(nums.max(), den)
    return EntropyStats(
        p1=p1,
        min_entropy_bits=-math.log2(float(p1)),
        shannon_bits=_shannon_bits(p.as_array()),
    )


def binary_entropy(q: Number) -> float:
    """Entropy ``h(q) = -q log2 q - (1-q) log2 (1-q)`` of a coin with bias q."""
    qf = float(check_scalar(q, "binary entropy argument", lo=0, hi=1))
    if qf == 0.0 or qf == 1.0:
        return 0.0
    return -qf * math.log2(qf) - (1.0 - qf) * math.log2(1.0 - qf)


def mutual_information(model: ClassicalProbeModel) -> float:
    """Mutual information ``I(K; Y)`` of a probe model, in bits.

    Computed as ``H(K) - sum_y p(y) H(K | Y = y)``; the result is clamped
    into ``[0, H(K)]`` to absorb float round-off near the endpoints.
    """
    h_prior = _shannon_bits(model.prior.as_array())
    joint = _ratios(*model._joint)
    h_cond = 0.0
    for y, py in enumerate(float(v) for v in model.outcome_marginal()):
        if py <= 0.0:
            continue
        h_cond += py * _shannon_bits(joint[:, y] / py)
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
    marginal = np.array(model._outcome_totals, dtype=nums.dtype)
    return _over(_total(np.abs(size * nums - marginal).ravel()), 2 * size * den)
