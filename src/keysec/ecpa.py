"""Error-correction side effects on key secrecy.

``ec_leak`` is the ad hoc accounting formula ``f * n * h(Q)`` for the
information disclosed during reconciliation.  The rest of the module
measures a subtler effect at desk scale: when the data word is a random
codeword of one of several linear codes, announced error-correction
structure helps the eavesdropper clean up her *own* noisy observation.
Everything is exact expectation over the observation channel -- no
sampling -- so the information ordering

    p1_code_known_avg >= p1_mixture >= p1_no_code

is checkable without Monte Carlo slack.  MAP guessing success, with a
known code or the mixture, grows Hamming balls around each observation.
Posteriors and comparisons enumerate all ``2^n_data`` words, so they are
capped by the ``data_bits`` entry of `keysec.numerics.CAPS`, and
parity-check matrices by its ``matrix_bits`` entry.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .dist import KeyDistribution, Lattice, _check_rows, _wide, binary_entropy
from .numerics import (
    InfeasibleError,
    Number,
    ValidationError,
    _shown,
    check_cap,
    check_int,
    check_scalar,
    infer_mode,
    scalar_mode,
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
]


def _read_bits(text: str, what: str) -> int:
    """A string of 0/1 characters as the int whose bit j is character j, in linear time."""
    if set(text) - {"0", "1"}:
        raise ValidationError(f"{what} must be 0/1 characters, got {_shown(text, repr)}")
    return int(text[::-1] or "0", 2)


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


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Binary linear code given by parity checks; data bit j is integer bit j."""

    n_data: int
    rows: tuple

    def __post_init__(self):
        n_data = check_int(self.n_data, "data length")
        check_cap("matrix_bits", n_data, "parity-check matrix width")
        rows = tuple(check_int(r, "parity-check row", lo=0, hi=1 << n_data) for r in self.rows)
        if not rows:
            raise ValidationError("parity-check matrix needs at least one row")
        if len(rows) > n_data:
            raise ValidationError(f"{len(rows)} checks cannot be independent over {n_data} bits")
        if _row_rank(rows) != len(rows):
            raise ValidationError("parity-check rows are linearly dependent (need full row rank)")
        object.__setattr__(self, "n_data", n_data)
        object.__setattr__(self, "rows", rows)

    @property
    def n_checks(self) -> int:
        return len(self.rows)

    @classmethod
    def from_text(cls, text: str) -> "ParityCheckMatrix":
        """Parse one row per line, ``;`` or ``,`` of '0'/'1' characters (column j = data bit j)."""
        lines = [ln.strip() for ln in text.replace(";", "\n").replace(",", "\n").splitlines() if ln.strip()]
        if not lines:
            raise ValidationError("empty parity-check text")
        width = len(lines[0])
        rows = []
        for ln in lines:
            if len(ln) != width:
                raise ValidationError(f"ragged parity-check rows: {len(ln)} vs {width} columns")
            rows.append(_read_bits(ln, "parity-check rows"))
        return cls(width, rows)

    def to_text(self) -> str:
        return "\n".join(format(row, f"0{self.n_data}b")[::-1] for row in self.rows)

    @functools.cached_property
    def _words(self) -> np.ndarray:
        """The codewords in increasing order, a read-only int array (built once, on first use)."""
        words = np.arange(1 << self.n_data)
        for row in self.rows:
            words = words[np.bitwise_count(words & row) % 2 == 0]
        words.flags.writeable = False
        return words

    def codewords(self) -> tuple:
        """All words with every check satisfied, in increasing order."""
        return tuple(self._words.tolist())


def load_parity_check(path) -> ParityCheckMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return ParityCheckMatrix.from_text(fh.read())


def random_parity_check(n_data: int, n_checks: int, rng: random.Random) -> ParityCheckMatrix:
    """Random full-row-rank parity-check matrix (resamples until independent)."""
    n_data = check_cap("matrix_bits", check_int(n_data, "random data length"), "parity-check matrix width")
    n_checks = check_int(n_checks, "check count", hi=n_data + 1)
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
        _check_rows(weights, mode, len(weights), "ensemble weights".format)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_data(self) -> int:
        return self.codes[0].n_data


@dataclass(frozen=True)
class EveChannel:
    """Symmetric bit-flip rate of the eavesdropper's view of the data."""

    crossover: Number

    def __post_init__(self):
        crossover = check_scalar(self.crossover, "crossover", lo=0, hi=Fraction(1, 2))
        object.__setattr__(self, "crossover", crossover)


class LeakageComparison(NamedTuple):
    p1_no_code: float
    p1_code_known_avg: float
    p1_mixture: float


def ec_leak(f: Number, n: int, q: Number) -> float:
    """Reconciliation disclosure ``f * n * h(q)`` in bits.

    ``f`` is the inefficiency factor, stipulated to lie in [1, 2]; ``n``
    the block length; ``q`` the error rate seen by the reconciliation.
    """
    f = check_scalar(f, "inefficiency factor", lo=1, hi=2)
    n = check_scalar(check_int(n, "block length", lo=0), "block length", mode="float")
    return float(f) * n * binary_entropy(q)


def _as_word(observation, n: int) -> int:
    if isinstance(observation, str):
        bits = observation.strip()
    else:
        bits = "".join(str(check_int(b, "observation bit", lo=0, hi=2)) for b in observation)
    word = _read_bits(bits, "observation")
    if len(bits) != n:
        raise ValidationError(f"observation has {len(bits)} bits, data words have {n}")
    return word


def _code_prior(chosen, n: int, exact: bool) -> Lattice:
    """Prior of a uniform codeword of a code drawn by weight from ``(code, weight)``
    pairs: integer numerators over the lcm of the shares ``weight / |C|`` when
    exact, float64 over 1 otherwise; a word's shares add in the pairs' order."""
    # the rows have full rank, so |C| = 2^(n - checks) and a float share scales exactly
    shares = [(code._words, weight / (1 << (n - code.n_checks))) for code, weight in chosen]
    den = math.lcm(*(share.denominator for _, share in shares)) if exact else 1
    prior = _wide(np.zeros(1 << n, np.int64), den) if exact else np.zeros(1 << n)  # no entry passes den
    for words, share in shares:
        prior[words] += share.numerator * (den // share.denominator) if exact else float(share)
    return Lattice(prior, den)


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
    check_cap("data_bits", n, f"exact expectation over 2^{n} data words")
    y = _as_word(observation, n)
    mode = scalar_mode(*ensemble.weights, channel.crossover)
    q = check_scalar(channel.crossover, "crossover", mode=mode)
    exact = mode == "rational"
    chosen = zip(ensemble.codes, ensemble.weights)
    if not syndromes_hidden:
        code_index = check_int(code_index, "code index", lo=None)
        if not 0 <= code_index < len(ensemble.codes):
            raise ValidationError(f"code index {_shown(code_index)} outside the {len(ensemble.codes)}-code ensemble")
        chosen = [(ensemble.codes[code_index], Fraction(1))]
    prior, den = _code_prior(chosen, n, exact)
    # likelihood up^c down^(n - c) of c flips: a^c (b - a)^(n - c) over b^n when exact
    up, down = (q.numerator, q.denominator - q.numerator) if exact else (q, 1 - q)
    prior = _wide(prior, den * (up + down) ** n)  # the posterior's numerators and total fit
    flips = np.bitwise_count(np.arange(1 << n) ^ y)
    post = prior * np.array([up**c for c in range(n + 1)], dtype=prior.dtype)[flips]
    post = post * np.array([down ** (n - c) for c in range(n + 1)], dtype=prior.dtype)[flips]
    total = np.add.accumulate(post)[-1]  # left to right, as the scalar formula
    if total == 0:
        raise InfeasibleError("observation has zero likelihood under every code in the ensemble")
    return KeyDistribution(n, Lattice(post, total) if exact else post / total)


def _map_success(prior: np.ndarray, like_by_weight: np.ndarray, n: int) -> float:
    """Success of the best guess of x from y: sum_y max_x prior(x) L(x XOR y).

    L falls as the flip count grows (q <= 1/2), so the best x within w flips
    of y is the heaviest word in the radius-w Hamming ball around y.  The
    ball grows one flip per radius, scored at L(w), until it stops growing;
    float products are monotone, so the bits are those of the max over all
    x.  The per-y maxima are summed in y order.
    """
    ball, best = prior, prior * like_by_weight[0]
    for w in range(1, n + 1):
        grown = ball.copy()
        for j in range(n):  # ball[y ^ 2^j] is the pair axis of this view reversed
            pairs = grown.reshape(-1, 2, 1 << j)
            np.maximum(pairs, ball.reshape(-1, 2, 1 << j)[:, ::-1], out=pairs)
        if np.array_equal(grown, ball):
            break  # every later radius scores this ball at a smaller L
        ball = grown
        best = np.maximum(best, ball * like_by_weight[w])
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
    check_cap("data_bits", n, f"exact expectation over 2^{n} data words")
    q = float(channel.crossover)
    ws = np.arange(n + 1, dtype=float)
    like_by_weight = np.power(q, ws) * np.power(1.0 - q, n - ws)
    weights = [float(w) for w in ensemble.weights]
    known = sum(
        w * _map_success(_code_prior([(code, Fraction(1))], n, False).nums, like_by_weight, n)
        for w, code in zip(weights, ensemble.codes)
    )
    mixture = _map_success(_code_prior(zip(ensemble.codes, weights), n, False).nums, like_by_weight, n)
    no_code = (1.0 - q) ** n
    return LeakageComparison(
        p1_no_code=no_code, p1_code_known_avg=float(known), p1_mixture=float(mixture)
    )
