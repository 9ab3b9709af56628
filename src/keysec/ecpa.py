"""Error-correction side effects on key secrecy.

``ec_leak`` is the ad hoc accounting formula ``f * n * h(Q)`` for the
information disclosed during reconciliation.  The rest of the module
measures a subtler effect at desk scale: when the data word is a random
codeword of one of several linear codes, announced error-correction
structure helps the eavesdropper clean up her *own* noisy observation.
Everything is exact expectation over the observation channel -- no
sampling -- so the information ordering

    p1_code_known_avg >= p1_mixture >= p1_no_code

is checkable without Monte Carlo slack.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .dist import KeyDistribution, Lattice, binary_entropy
from .numerics import (
    BLOCK_ENTRIES,
    InfeasibleError,
    Number,
    ResourceLimitError,
    ValidationError,
    check_probability_vector,
    infer_mode,
    is_rational,
)

__all__ = [
    "ParityCheckMatrix",
    "CodeEnsemble",
    "EveChannel",
    "LeakageComparison",
    "ec_leak",
    "mixture_posterior",
    "leakage_comparison",
    "load_parity_check",
    "random_parity_check",
    "MAX_DATA_BITS",
]

#: exact-expectation cap: posteriors and comparisons enumerate 2^n_data words
MAX_DATA_BITS = 12
_MAX_MATRIX_BITS = 16


def _row_rank(rows: Sequence[int]) -> int:
    pivots: dict = {}
    rank = 0
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length() - 1
            if lead in pivots:
                cur ^= pivots[lead]
            else:
                pivots[lead] = cur
                rank += 1
                break
    return rank


class ParityCheckMatrix:
    """Binary linear code given by parity checks; data bit j is integer bit j."""

    __slots__ = ("n_data", "rows", "_codewords")

    def __init__(self, n_data: int, rows: Sequence[int]):
        if not isinstance(n_data, int) or not 1 <= n_data <= _MAX_MATRIX_BITS:
            raise ValidationError(f"data length must be in [1, {_MAX_MATRIX_BITS}], got {n_data!r}")
        rows = tuple(int(r) for r in rows)
        if not rows:
            raise ValidationError("parity-check matrix needs at least one row")
        if len(rows) > n_data:
            raise ValidationError(f"{len(rows)} checks cannot be independent over {n_data} bits")
        for r in rows:
            if not 0 <= r < (1 << n_data):
                raise ValidationError(f"row {r:#x} does not fit {n_data} data bits")
        if _row_rank(rows) != len(rows):
            raise ValidationError("parity-check rows are linearly dependent (need full row rank)")
        object.__setattr__(self, "n_data", n_data)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_codewords", None)

    def __setattr__(self, name, value):
        raise AttributeError("ParityCheckMatrix is immutable")

    @property
    def n_checks(self) -> int:
        return len(self.rows)

    @classmethod
    def from_text(cls, text: str) -> "ParityCheckMatrix":
        """Parse one row per line of '0'/'1' characters (column j = data bit j)."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValidationError("empty parity-check text")
        width = len(lines[0])
        rows = []
        for ln in lines:
            if len(ln) != width:
                raise ValidationError(f"ragged parity-check rows: {len(ln)} vs {width} columns")
            if set(ln) - {"0", "1"}:
                raise ValidationError(f"parity-check rows must be 0/1 characters, got {ln!r}")
            rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
        return cls(width, rows)

    def to_text(self) -> str:
        return "\n".join(
            "".join("1" if (row >> j) & 1 else "0" for j in range(self.n_data))
            for row in self.rows
        )

    def codewords(self) -> tuple:
        """All words with every check satisfied, in increasing order."""
        if self._codewords is None:
            words = tuple(
                x
                for x in range(1 << self.n_data)
                if all((row & x).bit_count() % 2 == 0 for row in self.rows)
            )
            object.__setattr__(self, "_codewords", words)
        return self._codewords

    def __eq__(self, other):
        if not isinstance(other, ParityCheckMatrix):
            return NotImplemented
        return self.n_data == other.n_data and self.rows == other.rows

    def __hash__(self):
        return hash((self.n_data, self.rows))

    def __repr__(self):
        return f"ParityCheckMatrix(n_data={self.n_data}, rows={len(self.rows)})"


def load_parity_check(path) -> ParityCheckMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return ParityCheckMatrix.from_text(fh.read())


def random_parity_check(n_data: int, n_checks: int, rng: random.Random) -> ParityCheckMatrix:
    """Random full-row-rank parity-check matrix (resamples until independent)."""
    if not 1 <= n_checks <= n_data:
        raise ValidationError(f"check count {n_checks} must be in [1, {n_data}]")
    for _ in range(1000):
        rows = [rng.randrange(1, 1 << n_data) for _ in range(n_checks)]
        if _row_rank(rows) == n_checks:
            return ParityCheckMatrix(n_data, rows)
    raise RuntimeError("could not draw an independent parity-check matrix")


@dataclass(frozen=True)
class CodeEnsemble:
    """Weighted family of candidate codes; the data word is a uniform codeword
    of the i-th code with probability ``weights[i]``."""

    codes: tuple
    weights: tuple

    def __init__(self, codes, weights):
        codes = tuple(codes)
        weights = tuple(weights)
        if not codes:
            raise ValidationError("ensemble needs at least one code")
        if len(codes) != len(weights):
            raise ValidationError(f"{len(codes)} codes but {len(weights)} weights")
        for c in codes:
            if not isinstance(c, ParityCheckMatrix):
                raise ValidationError("ensemble entries must be ParityCheckMatrix values")
        n = codes[0].n_data
        if any(c.n_data != n for c in codes):
            raise ValidationError("all codes in an ensemble must share the data length")
        mode = infer_mode(weights)
        if mode == "rational":
            weights = tuple(Fraction(w) for w in weights)
        check_probability_vector(weights, mode, what="ensemble weights")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_data(self) -> int:
        return self.codes[0].n_data

    @property
    def mode(self) -> str:
        return "rational" if is_rational(self.weights[0]) else "float"


@dataclass(frozen=True)
class EveChannel:
    """Symmetric bit-flip rate of the eavesdropper's view of the data."""

    crossover: Number

    def __post_init__(self):
        q = self.crossover
        if q < 0 or q > Fraction(1, 2):
            raise ValidationError(f"crossover must lie in [0, 1/2], got {q!r}")


class LeakageComparison(NamedTuple):
    p1_no_code: float
    p1_code_known_avg: float
    p1_mixture: float


def ec_leak(f: Number, n: int, q: Number) -> float:
    """Reconciliation disclosure ``f * n * h(q)`` in bits.

    ``f`` is the inefficiency factor, stipulated to lie in [1, 2]; ``n``
    the block length; ``q`` the error rate seen by the reconciliation.
    """
    if f < 1 or f > 2:
        raise ValidationError(f"inefficiency factor must lie in [1, 2], got {f!r}")
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"block length must be a non-negative integer, got {n!r}")
    return float(f) * n * binary_entropy(q)


def _check_data_cap(n: int) -> None:
    if n > MAX_DATA_BITS:
        raise ResourceLimitError(
            f"exact expectation over {n}-bit words exceeds the {MAX_DATA_BITS}-bit cap"
        )


def _as_word(observation, n: int) -> int:
    if isinstance(observation, str):
        bits = observation.strip()
        if set(bits) - {"0", "1"}:
            raise ValidationError(f"observation must be 0/1 characters, got {observation!r}")
        bits = [1 if ch == "1" else 0 for ch in bits]
    else:
        bits = [int(b) for b in observation]
        if any(b not in (0, 1) for b in bits):
            raise ValidationError("observation bits must be 0 or 1")
    if len(bits) != n:
        raise ValidationError(f"observation has {len(bits)} bits, data words have {n}")
    return sum(1 << j for j, b in enumerate(bits) if b)


def mixture_posterior(
    ensemble: CodeEnsemble,
    observation,
    channel: EveChannel,
    syndromes_hidden: bool = True,
    code_index: int = 0,
) -> KeyDistribution:
    """Eve's posterior over data words after seeing the noisy observation.

    With ``syndromes_hidden`` (the padded-syndrome situation) Eve knows
    the ensemble weights but not which code was used, so her prior is the
    weight-mixture of per-code uniform-codeword priors and Bayes does the
    rest -- per-code posteriors enter automatically with posterior code
    weights.  With ``syndromes_hidden=False`` the code at ``code_index``
    is public and the prior is that code alone.

    Exact when both the weights and the crossover are rationals.
    """
    n = ensemble.n_data
    _check_data_cap(n)
    y = _as_word(observation, n)
    exact = ensemble.mode == "rational" and is_rational(channel.crossover)
    q = Fraction(channel.crossover) if exact else float(channel.crossover)
    size = 1 << n
    if syndromes_hidden:
        chosen = zip(ensemble.codes, ensemble.weights)
    else:
        if not 0 <= code_index < len(ensemble.codes):
            raise ValidationError(f"code index {code_index} outside the {len(ensemble.codes)}-code ensemble")
        chosen = [(ensemble.codes[code_index], Fraction(1))]
    shares = [(list(code.codewords()), weight / len(code.codewords())) for code, weight in chosen]
    flips = np.bitwise_count(np.arange(size) ^ y)
    if exact:
        # integer numerators: prior over the lcm of the shares, likelihood a^c (b - a)^(n - c) over b^n
        den = math.lcm(*(share.denominator for _, share in shares))
        prior = np.zeros(size, dtype=object)
        for words, share in shares:
            prior[words] += share.numerator * (den // share.denominator)
        a, b = q.numerator, q.denominator
        post = prior * np.array([a**c * (b - a) ** (n - c) for c in range(n + 1)], dtype=object)[flips]
        total = post.sum()
    else:
        prior = np.zeros(size)
        for words, share in shares:
            prior[words] += float(share)
        post = prior * np.array([q**c for c in range(n + 1)])[flips]
        post = post * np.array([(1 - q) ** (n - c) for c in range(n + 1)])[flips]
        total = sum(post.tolist(), 0.0)  # left to right, as the scalar formula
    if total == 0:
        raise InfeasibleError("observation has zero likelihood under every code in the ensemble")
    return KeyDistribution(n, Lattice(post, total) if exact else post / total)


def _map_success(prior: np.ndarray, like_by_weight: np.ndarray, n: int) -> float:
    """Success of the best guess of x from y: sum_y max_x prior(x) L(x XOR y).

    Off the prior's support the product is 0 and the max is never
    negative, so each y maximizes over the support alone, in blocks of y
    rows; the per-y maxima are then summed in y order.
    """
    size = 1 << n
    support = np.flatnonzero(prior)
    mass = prior[support]
    like = like_by_weight[np.bitwise_count(np.arange(size))]  # L by x XOR y
    best = np.empty(size)
    rows = max(1, BLOCK_ENTRIES // len(support))
    for start in range(0, size, rows):
        ys = np.arange(start, min(start + rows, size))
        best[ys] = (mass * like[ys[:, None] ^ support]).max(axis=1)
    return float(np.add.accumulate(best)[-1])


def leakage_comparison(ensemble: CodeEnsemble, channel: EveChannel) -> LeakageComparison:
    """Eve's exact guessing success with and without the code structure.

    Three figures, all averages over the code choice, the codeword, and
    the channel noise: guessing with the code index known, guessing under
    the hidden-index mixture, and guessing with no code information at
    all (the structure-blind rule "trust the observation", which is the
    flat-prior optimum and succeeds with probability ``(1-q)^n``).

    Convexity of the max gives ``known >= mixture``; picking ``x = y``
    inside the mixture maximization gives ``mixture >= no_code``.  The
    single-code case makes known and mixture coincide exactly.
    """
    n = ensemble.n_data
    _check_data_cap(n)
    q = float(channel.crossover)
    size = 1 << n
    ws = np.arange(n + 1, dtype=float)
    like_by_weight = np.power(q, ws) * np.power(1.0 - q, n - ws)
    priors = []
    for code in ensemble.codes:
        vec = np.zeros(size)
        words = code.codewords()
        vec[list(words)] = 1.0 / len(words)
        priors.append(vec)
    weights = [float(w) for w in ensemble.weights]
    known = sum(w * _map_success(vec, like_by_weight, n) for w, vec in zip(weights, priors))
    mixture_prior = sum((w * vec for w, vec in zip(weights, priors)), np.zeros(size))
    mixture = _map_success(mixture_prior, like_by_weight, n)
    no_code = (1.0 - q) ** n
    return LeakageComparison(
        p1_no_code=no_code, p1_code_known_avg=float(known), p1_mixture=float(mixture)
    )
