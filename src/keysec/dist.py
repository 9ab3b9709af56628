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

Laws are stored as arrays: float64 in float mode, and in rational mode a
:class:`Lattice` of integer numerators over one common denominator.  The
measures work on those arrays with elementwise IEEE operations and
``math.fsum`` (float results carry the bits of the scalar formulas) or with
exact integer arithmetic (rational results are the same Fractions).
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .numerics import (
    Number,
    ValidationError,
    VALIDATION_TOL,
    format_number,
    infer_mode,
    parse_number,
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

#: largest Hilbert-space dimension accepted for density matrices
MAX_STATE_DIM = 64

#: exact entries may exceed 1 by the float-mode slack before they are refused
_ABOVE_ONE = Fraction(1 + VALIDATION_TOL)

_INT64_LIMIT = 1 << 63


class Lattice(NamedTuple):
    """An exact law: integer numerators over one common denominator.

    ``nums`` is an int64 or ``object`` (Python int) array; any sequence of
    ints is accepted when a Lattice is passed to `KeyDistribution`.
    """

    nums: np.ndarray
    den: int


def _wide(nums: np.ndarray, bound: int) -> np.ndarray:
    """``nums`` as Python ints when values up to ``bound`` would overflow int64."""
    return nums.astype(object) if bound >= _INT64_LIMIT and nums.dtype != object else nums


def _ratios(nums: np.ndarray, den: int) -> np.ndarray:
    """Each ``num / den`` (entries in ``[0, den]``) correctly rounded to float64."""
    if nums.dtype != object and den <= 1 << 53:
        return nums / den  # both operands exact in float64: one IEEE division
    return np.array([a / den for a in nums.ravel().tolist()]).reshape(nums.shape)


def _kinds_mode(values: Sequence) -> str | None:
    """Mode of a homogeneous collection, from its set of entry types; None
    when the entries mix modes or include an unsupported type."""
    kinds = set(map(type, values))
    if all(issubclass(t, float) for t in kinds):
        return "float"
    if all(issubclass(t, (int, Fraction)) and not issubclass(t, bool) for t in kinds):
        return "rational"
    return None


def _float_rows(entries, width: int, label) -> np.ndarray:
    """Validated read-only float64 rows of ``width`` probabilities, from a
    flat sequence of floats or a float64 array.

    Every entry within ``[0, 1]`` up to VALIDATION_TOL (NaN fails both
    comparisons, so it is refused with the infinities), then every row's
    `math.fsum` within VALIDATION_TOL of 1.  ``label(k)`` names row ``k``.
    """
    arr = np.array(entries, dtype=np.float64).reshape(-1, width)
    ok = (arr >= -VALIDATION_TOL) & (arr <= 1 + VALIDATION_TOL)
    if not ok.all():
        k, i = divmod(int(np.argmin(ok)), width)
        raise ValidationError(f"{label(k)} entry {i} is {arr[k, i].item()!r}, outside [0, 1]")
    for k in range(len(arr)):
        row = entries[k * width : (k + 1) * width] if isinstance(entries, (list, tuple)) else arr[k].tolist()
        total = math.fsum(row)
        if abs(total - 1.0) > VALIDATION_TOL:
            raise ValidationError(f"{label(k)} sums to {total!r}, not 1 (tolerance {VALIDATION_TOL})")
    arr.flags.writeable = False
    return arr


def _lattice_rows(nums: list, den: int, width: int, label) -> Lattice:
    """Validated rows of integer numerators over ``den``, reduced to lowest terms.

    Every entry in ``[0, 1]`` and every row summing exactly to ``den``.
    The result is int64 while ``max * count`` fits, Python ints beyond.
    """
    if not isinstance(den, int) or den < 1:
        raise ValidationError(f"{label(0)} denominator must be a positive integer, got {den!r}")
    top = den * _ABOVE_ONE.numerator // _ABOVE_ONE.denominator
    if min(nums) < 0 or max(nums) > top:
        j = next(j for j, a in enumerate(nums) if a < 0 or a > top)
        k, i = divmod(j, width)
        raise ValidationError(f"{label(k)} entry {i} is {Fraction(nums[j], den)!r}, outside [0, 1]")
    for k in range(len(nums) // width):
        total = sum(nums[k * width : (k + 1) * width])
        if total != den:
            raise ValidationError(f"{label(k)} sums to {Fraction(total, den)}, not 1")
    common = math.gcd(den, *nums)
    if common > 1:
        nums, den = [a // common for a in nums], den // common
    dtype = np.int64 if max(nums) * len(nums) < _INT64_LIMIT else object
    arr = np.array(nums, dtype=dtype).reshape(-1, width)
    arr.flags.writeable = False
    return Lattice(arr, den)


def _exact_rows(entries: Sequence[Number], width: int, label) -> Lattice:
    """Fraction/int rows as a validated lattice over the lcm of their denominators."""
    dens = [p.denominator for p in entries]
    den = math.lcm(*dens)
    return _lattice_rows([p.numerator * (den // d) for p, d in zip(entries, dens)], den, width, label)


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
    Storage is one array per mode.  Float mode keeps a read-only float64
    array (`as_array`).  Rational mode keeps a `Lattice` (`lattice`):
    integer numerators over the lcm of the entries' reduced denominators,
    so equal laws have equal lattices.  The numerators are int64 while
    ``max(numerator) * 2**n`` fits in int64, so no sum of entries can
    overflow, and an ``object`` array of Python ints beyond (numerators
    of ``2**53`` and up at ``n = 10``, ``2**62`` and up at any n).

    Construction validates in one vectorised pass: every entry finite and
    in ``[0, 1]`` (NaN and infinities are refused), then the total: exact
    in rational mode, `math.fsum` within VALIDATION_TOL of 1 in float
    mode.  ``probs``, the tuple of Python floats or Fractions that
    indexing and iteration use, is built on first use and cached.

    Instances are immutable.  Equality compares bit length and entries
    exactly (no tolerance), so two float-mode distributions are equal only
    if built from identical values; a float and an exact law are equal
    when every entry is the same number, and then their hashes agree.
    """

    __slots__ = ("n", "mode", "_data", "_probs")

    def __init__(self, n: int, probs):
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"key length must be a positive integer, got {n!r}")
        mode = None
        if isinstance(probs, np.ndarray) and probs.dtype == np.float64 and probs.ndim == 1:
            mode = "float"
        elif not isinstance(probs, (Lattice, list, tuple)):
            probs = list(probs)
        count = len(probs.nums) if isinstance(probs, Lattice) else len(probs)
        if count != 1 << n:
            raise ValidationError(f"need {1 << n} probabilities for a {n}-bit key, got {count}")
        label = "distribution".format
        if isinstance(probs, Lattice):
            mode = "rational"
            nums = probs.nums.tolist() if isinstance(probs.nums, np.ndarray) else list(probs.nums)
            data = _lattice_rows(nums, probs.den, count, label)
        else:
            mode = mode or _kinds_mode(probs) or infer_mode(probs)  # infer_mode raises the precise error
            data = (_exact_rows if mode == "rational" else _float_rows)(probs, count, label)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_data", Lattice(data.nums[0], data.den) if mode == "rational" else data[0])
        object.__setattr__(self, "_probs", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("KeyDistribution is immutable")

    @classmethod
    def uniform(cls, n: int, mode: str = "float") -> "KeyDistribution":
        """The uniform distribution on ``n``-bit keys, in the given backend."""
        size = 1 << n
        if mode == "rational":
            return cls(n, Lattice([1] * size, size))
        return cls(n, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, n: int, at: int = 0, mode: str = "float") -> "KeyDistribution":
        size = 1 << n
        if not 0 <= at < size:
            raise ValidationError(f"point-mass location {at} outside [0, {size})")
        nums = [0] * size
        nums[at] = 1
        return cls(n, Lattice(nums, 1) if mode == "rational" else np.array(nums, dtype=np.float64))

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def probs(self) -> tuple:
        """The law as a tuple of Python floats or Fractions (built once, on first use)."""
        if self._probs is None:
            if self.mode == "float":
                probs = tuple(self._data.tolist())
            else:
                nums, den = self._data
                probs = tuple(Fraction(a, den) for a in nums.tolist())
            object.__setattr__(self, "_probs", probs)
        return self._probs

    @property
    def lattice(self) -> Lattice:
        """The exact law: read-only numerators over the common denominator."""
        if self.mode != "rational":
            raise ValidationError("a float-mode distribution has no exact lattice")
        return self._data

    def as_array(self) -> np.ndarray:
        """The law in float64: the stored read-only array in float mode, each
        exact entry correctly rounded in rational mode."""
        if self.mode == "float":
            return self._data
        return _ratios(*self._data)

    def prob_of(self, members: Iterable[int]) -> Number:
        """Total mass of a set of key values (duplicates collapse)."""
        idx = sorted(set(members))
        for k in idx:
            if not 0 <= k < self.size:
                raise ValidationError(f"key value {k} outside [0, {self.size})")
        if self.mode == "rational":
            nums, den = self._data
            return Fraction(int(nums[idx].sum()), den)
        return math.fsum(self._data[idx].tolist())

    def formatted(self) -> list:
        """Entries as `format_number` strings: reduced ``num/den``, or float ``repr``."""
        if self.mode == "float":
            return [repr(p) for p in self._data.tolist()]
        nums, den = self._data
        common = np.gcd(nums, den)
        return [f"{a}/{b}" for a, b in zip((nums // common).tolist(), (den // common).tolist())]

    def to_json(self) -> str:
        """Serialize as a JSON array of strings (``"num/den"`` in exact mode)."""
        return json.dumps(self.formatted())

    @classmethod
    def from_json(cls, text: str, mode: str | None = None) -> "KeyDistribution":
        """Inverse of :meth:`to_json`.

        ``mode`` forces the backend; when omitted, entries containing a
        ``/`` are read exactly and everything else as floats.  Every entry
        is read as its string form by `parse_number`; an array of JSON
        floats read as floats is taken as it is, which gives the same values.
        """
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"distribution is not valid JSON: {exc}") from exc
        if not isinstance(raw, list) or not raw:
            raise ValidationError("distribution JSON must be a non-empty array")
        if mode != "rational" and _kinds_mode(raw) == "float":
            probs = raw  # float(repr(x)) == x, NaN and infinities included
        else:
            entries = [str(item) for item in raw]
            if mode is None:
                mode = "rational" if any("/" in e for e in entries) else "float"
            probs = [parse_number(e, mode) for e in entries]
        n = len(probs).bit_length() - 1
        if 1 << n != len(probs) or n < 1:
            raise ValidationError(f"length {len(probs)} is not a power of two >= 2")
        return cls(n, probs)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> Number:
        return self.probs[k]

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyDistribution):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.mode != other.mode:
            return self.probs == other.probs
        if self.mode == "float":
            return bool(np.array_equal(self._data, other._data))
        return self._data.den == other._data.den and bool(np.array_equal(self._data.nums, other._data.nums))

    def __hash__(self):
        return hash((self.n, self.probs))

    def __repr__(self) -> str:
        head = ", ".join(format_number(p) for p in self.probs[:4])
        tail = ", ..." if self.size > 4 else ""
        return f"KeyDistribution(n={self.n}, [{head}{tail}])"


def _transport(size: int, donors, receivers, moved: Number):
    """The uniform law on ``size`` values with ``moved`` mass taken evenly
    from ``donors`` and spread evenly over ``receivers``.

    Returns a `Lattice` when ``moved`` is a Fraction and a float64 array
    otherwise, entry values as ``1/N - moved/|donors|`` and
    ``1/N + moved/|receivers|`` compute them.
    """
    if not isinstance(moved, Fraction):
        u = 1.0 / size
        law = np.full(size, u)
        if moved > 0:
            law[donors] = u - moved / len(donors)
            law[receivers] = u + moved / len(receivers)
        return law
    u = low = high = Fraction(1, size)
    if moved > 0:
        low, high = u - moved / len(donors), u + moved / len(receivers)
    den = math.lcm(size, low.denominator, high.denominator)
    nums = np.full(size, den // size, dtype=object)
    nums[donors] = low.numerator * (den // low.denominator)
    nums[receivers] = high.numerator * (den // high.denominator)
    return Lattice(nums, den)


class ClassicalProbeModel:
    """A key prior plus the conditional law of an eavesdropper's outcome.

    ``conditional[k][y]`` is ``p(y | K = k)``; each row must be a
    probability vector over the same outcome alphabet.  The backend must
    match the prior's.  The rows are stored as one 2-D array in the
    prior's storage -- float64, or a `Lattice` with one denominator
    common to every row -- and ``conditional`` is a tuple-of-tuples view
    of it built on first use.
    """

    __slots__ = ("prior", "outcomes", "_rows", "_conditional")

    def __init__(self, prior: KeyDistribution, conditional: Sequence[Sequence[Number]]):
        rows = [row if isinstance(row, (list, tuple)) else tuple(row) for row in conditional]
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
        if (_kinds_mode(flat) or infer_mode(flat)) != prior.mode:
            raise ValidationError("conditional rows do not match the prior's numeric mode")
        validated = _exact_rows if prior.mode == "rational" else _float_rows
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "outcomes", width)
        object.__setattr__(self, "_rows", validated(flat, width, "conditional row {}".format))
        object.__setattr__(self, "_conditional", None)

    def __setattr__(self, name, value):
        raise AttributeError("ClassicalProbeModel is immutable")

    @property
    def mode(self) -> str:
        return self.prior.mode

    @property
    def conditional(self) -> tuple:
        """Rows of Python floats or Fractions (built once, on first use)."""
        if self._conditional is None:
            if self.mode == "float":
                view = tuple(map(tuple, self._rows.tolist()))
            else:
                nums, den = self._rows
                view = tuple(tuple(Fraction(a, den) for a in row) for row in nums.tolist())
            object.__setattr__(self, "_conditional", view)
        return self._conditional

    def joint(self, k: int, y: int) -> Number:
        return self.prior[k] * self.conditional[k][y]

    def joint_law(self):
        """``p(k) p(y | k)`` as a (key, outcome) table: float64 products, or a
        `Lattice` over the product of the two denominators."""
        if self.mode == "float":
            return self.prior.as_array()[:, None] * self._rows
        (pn, pd), (cn, cd) = self.prior.lattice, self._rows
        # covers d_criterion's sum of |N * joint - marginal| over the table
        bound = pd * cd * self.prior.size**2 * self.outcomes
        return Lattice(_wide(pn, bound)[:, None] * _wide(cn, bound), pd * cd)

    def outcome_marginal(self) -> list:
        joint = self.joint_law()
        if self.mode == "float":
            return [math.fsum(col) for col in joint.T.tolist()]
        nums, den = joint
        return [Fraction(int(total), den) for total in nums.sum(axis=0)]


class HermitianState:
    """Density matrix on a Hilbert space of dimension at most 64.

    Accepts anything `numpy.asarray` can turn into a square complex
    matrix; validates hermiticity, unit trace, and positivity up to 1e-9.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"state must be a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim < 1 or dim > MAX_STATE_DIM:
            raise ValidationError(f"state dimension {dim} outside [1, {MAX_STATE_DIM}]")
        if not np.allclose(mat, mat.conj().T, atol=VALIDATION_TOL):
            raise ValidationError("state is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-6:
            raise ValidationError(f"state trace is {np.trace(mat).real!r}, not 1")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -1e-8:
            raise ValidationError(f"state has negative eigenvalue {eigs.min()!r}")
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianState is immutable")

    @classmethod
    def from_distribution(cls, dist: KeyDistribution) -> "HermitianState":
        """Diagonal (classical) state embedding a key distribution."""
        if dist.size > MAX_STATE_DIM:
            raise ValidationError(
                f"distribution over {dist.size} values exceeds state cap {MAX_STATE_DIM}"
            )
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
        without building it: ``sum_k |N num_k - den| / (2 N den)``
        exactly, ``fsum |p_k - 1/N| / 2`` in floats.

    Returns
    -------
    Number
        A value in ``[0, 1]``; ``0`` iff the distributions are equal and
        ``1`` iff their supports are disjoint.
    """
    if q is None:
        size = p.size
        if p.mode == "rational":
            nums, den = p.lattice
            return Fraction(int(np.abs(size * _wide(nums, 2 * size * den) - den).sum()), 2 * size * den)
        return 0.5 * math.fsum(np.abs(p.as_array() - 1.0 / size).tolist())
    if p.n != q.n:
        raise ValidationError(f"bit lengths differ: {p.n} vs {q.n}")
    if p.mode == "rational" and q.mode == "rational":
        (a, da), (b, db) = p.lattice, q.lattice
        den = math.lcm(da, db)
        diff = _wide(a, den * p.size) * (den // da) - _wide(b, den * p.size) * (den // db)
        return Fraction(int(np.abs(diff).sum()), 2 * den)
    return 0.5 * math.fsum(np.abs(p.as_array() - q.as_array()).tolist())


def _shannon_bits(values: np.ndarray) -> float:
    # 0 log 0 = 0 by continuity; math.log2 per entry, as np.log2 rounds some inputs differently
    return -math.fsum([p * math.log2(p) for p in values[values > 0].tolist()])


def entropy_stats(p: KeyDistribution) -> EntropyStats:
    """Best single-guess probability plus min- and Shannon entropy (bits).

    ``p1`` keeps the distribution's backend; the entropies are floats
    (``min_entropy_bits = -log2(p1)``).
    """
    if p.mode == "rational":
        nums, den = p.lattice
        p1 = Fraction(int(nums.max()), den)
    else:
        p1 = float(p.as_array().max())
    return EntropyStats(
        p1=p1,
        min_entropy_bits=-math.log2(float(p1)),
        shannon_bits=_shannon_bits(p.as_array()),
    )


def binary_entropy(q: Number) -> float:
    """Entropy ``h(q) = -q log2 q - (1-q) log2 (1-q)`` of a coin with bias q."""
    qf = float(q)
    if not 0.0 <= qf <= 1.0:
        raise ValidationError(f"binary entropy argument {q!r} outside [0, 1]")
    if qf == 0.0 or qf == 1.0:
        return 0.0
    return -qf * math.log2(qf) - (1.0 - qf) * math.log2(1.0 - qf)


def mutual_information(model: ClassicalProbeModel) -> float:
    """Mutual information ``I(K; Y)`` of a probe model, in bits.

    Computed as ``H(K) - sum_y p(y) H(K | Y = y)``; the result is clamped
    into ``[0, H(K)]`` to absorb float round-off near the endpoints.
    """
    h_prior = _shannon_bits(model.prior.as_array())
    joint = model.joint_law()
    if model.mode == "rational":
        joint = _ratios(*joint)
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
    joint = model.joint_law()
    if model.mode == "rational":
        nums, den = joint
        return Fraction(int(np.abs(size * nums - nums.sum(axis=0)).sum()), 2 * size * den)
    marginal = np.array(model.outcome_marginal())
    return 0.5 * math.fsum(np.abs(joint - marginal / size).ravel().tolist())
