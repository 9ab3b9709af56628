"""Error-correction side effects on key secrecy.

``ec_leak`` is the ad hoc accounting formula ``f * n * h(Q)`` for the
information disclosed during reconciliation.  It is scalar, so it lives
in `keysec.numerics`, which loads no numpy, and is bound here too.  The
rest of the module measures a subtler effect at desk scale: when the
data word is a random codeword of one of several linear codes, announced
error-correction structure helps the eavesdropper clean up her *own*
noisy observation.
Everything is exact expectation over the observation channel -- no
sampling -- so the information ordering

    p1_code_known_avg >= p1_mixture >= p1_no_code

is checkable without Monte Carlo slack.  The code prior and the MAP
Hamming balls, with a known code or the mixture, live on the ``2^rank``
syndromes of the stacked parity rows.  The syndrome map, each code's
syndromes and its codewords are XOR spans (`keysec.dist._xor_span`) of
the parity columns or a `_null_space`.  Mapping words to syndromes, the
posterior and the MAP total visit all ``2^n_data`` words, so they are
capped by the ``data_bits`` entry of `keysec.numerics.CAPS`, and
parity-check matrices by its ``matrix_bits`` entry.  Float totals add left
to right, as the scalar formulas do (`keysec.dist._in_order`).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dist import KeyDistribution, Lattice, _check_rows, _in_order, _wide, _xor_span
from .numerics import (
    InfeasibleError,
    Number,
    ValidationError,
    _read_text,
    _shown,
    check_cap,
    check_int,
    check_scalar,
    ec_leak,  # re-exported: keysec.ecpa.ec_leak stays the numerics function
    infer_mode,
    scalar_mode,
)

__all__ = [
    "ParityCheckMatrix",
    "CodeEnsemble",
    "EveChannel",
    "LeakageComparison",
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


def _basis(rows) -> list:
    """A reduced echelon basis of the GF(2) span of ``rows``, sorted by leading bit:
    no basis row has a bit set at another row's leading bit."""
    basis: list = []
    for row in rows:
        for b in basis:
            if row ^ b < row:  # row has b's leading bit
                row ^= b
        if row:  # a new leading bit, cleared from the other rows
            basis = [b ^ row if b ^ row < b else b for b in basis] + [row]
    return sorted(basis)


def _null_space(rows, width: int) -> list:
    """A basis of the vectors below ``2^width`` that share an even count of bits with
    every row: one per bit f that leads no row of the reduced `_basis`, f with the
    leading bits of the reduced rows that hold f."""
    leads = {b.bit_length() - 1: b for b in _basis(rows)}
    return [1 << f | sum(1 << lead for lead, b in leads.items() if b >> f & 1) for f in range(width) if f not in leads]


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
        if len(_basis(rows)) != len(rows):
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
        words = np.sort(_xor_span(_null_space(self.rows, self.n_data)))
        words.flags.writeable = False
        return words

    def codewords(self) -> tuple:
        """All words with every check satisfied, in increasing order."""
        return tuple(self._words.tolist())


def load_parity_check(path) -> ParityCheckMatrix:
    """`ParityCheckMatrix.from_text` of the file at ``path``, read by `keysec.numerics._read_text`."""
    return ParityCheckMatrix.from_text(_read_text(path))


def random_parity_check(n_data: int, n_checks: int, rng: random.Random) -> ParityCheckMatrix:
    """Random full-row-rank parity-check matrix (resamples until independent)."""
    n_data = check_cap("matrix_bits", check_int(n_data, "random data length"), "parity-check matrix width")
    n_checks = check_int(n_checks, "check count", hi=n_data + 1)
    for _ in range(1000):
        rows = [rng.randrange(1, 1 << n_data) for _ in range(n_checks)]
        if len(_basis(rows)) == n_checks:
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
            weights = tuple(check_scalar(w, "ensemble weight", mode=mode) for w in weights)
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


def _as_word(observation, n: int) -> int:
    if isinstance(observation, str):
        bits = observation.strip()
    else:
        bits = "".join(str(check_int(b, "observation bit", lo=0, hi=2)) for b in observation)
    word = _read_bits(bits, "observation")
    if len(bits) != n:
        raise ValidationError(f"observation has {len(bits)} bits, data words have {n}")
    return word


def _code_prior(chosen, n: int, exact: bool) -> tuple:
    """Prior of a uniform codeword of a code drawn by weight from ``(code, weight)``
    pairs on the syndromes of the stacked parity rows, with the map from words to
    syndromes: integer numerators over the lcm of the shares ``weight / |C|`` when
    exact, float64 over 1 otherwise, a syndrome's shares added in the pairs' order.

    Bit j of x's syndrome is the parity of x and row j of the `_basis` of the rows.
    Only basis row j has a bit at its leading bit, pivot j, so a code's row is the
    sum of the basis rows at whose pivots it has a bit, and x meets it when x's
    syndrome and those coordinates share an even count of bits.  So x lies in a
    code when its syndrome is in the `_null_space` of the code's coordinates, whose
    `_xor_span` lists the code's syndromes, and word x's prior is
    ``prior[syndrome[x]]``, its shares added in the same order.
    """
    chosen = list(chosen)
    basis = _basis(row for code, _ in chosen for row in code.rows)
    columns = [0] * n  # column i holds bit i of every basis row
    for j, b in enumerate(basis):
        for i in range(b.bit_length()):
            columns[i] |= (b >> i & 1) << j
    syndrome = _xor_span(columns)
    pivots = sum(1 << (b.bit_length() - 1) for b in basis)  # column of pivot j is 2^j
    # the rows have full rank, so |C| = 2^(n - checks) and a float share scales exactly
    shares = [(code.rows, weight / (1 << (n - code.n_checks))) for code, weight in chosen]
    den = math.lcm(*(share.denominator for _, share in shares)) if exact else 1
    size = 1 << len(basis)
    prior = _wide(np.zeros(size, np.int64), den) if exact else np.zeros(size)  # no entry passes den
    for rows, share in shares:
        null = _null_space(syndrome[np.array(rows) & pivots].tolist(), len(basis))  # rows in coordinates
        prior[_xor_span(null)] += share.numerator * (den // share.denominator) if exact else float(share)
    return Lattice(prior, den), syndrome


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
    (prior, den), syndrome = _code_prior(chosen, n, exact)
    # likelihood up^c down^(n - c) of c flips: a^c (b - a)^(n - c) over b^n when exact
    up, down = (q.numerator, q.denominator - q.numerator) if exact else (q, 1 - q)
    prior = _wide(prior[syndrome], den * (up + down) ** n)  # the posterior's numerators and total fit
    flips = np.bitwise_count(np.arange(1 << n) ^ y)
    post = prior * np.array([up**c for c in range(n + 1)], dtype=prior.dtype)[flips]
    post = post * np.array([down ** (n - c) for c in range(n + 1)], dtype=prior.dtype)[flips]
    total = _in_order(post)  # left to right, as the scalar formula
    if total == 0:
        raise InfeasibleError("observation has zero likelihood under every code in the ensemble")
    if not exact:  # a term < 0, from a float weight within slack below 0, is left to the public check
        post, total = post / total, 1
    return KeyDistribution._built(n, post, total) if exact or post.min() >= 0 else KeyDistribution(n, post)


def _map_success(chosen, like_by_weight: np.ndarray, n: int) -> float:
    """Success of the best guess of x from y: sum_y max_x prior(x) L(x XOR y),
    for the `_code_prior` of the ``(code, weight)`` pairs ``chosen``.

    L falls as the flip count grows (q <= 1/2), so the best x within w flips
    of y is the heaviest word in the radius-w Hamming ball around y.  The
    ball grows one flip per radius, scored at L(w), until it stops growing;
    float products are monotone, so the bits are those of the max over all
    x.  The per-y maxima are summed in y order.

    The balls grow on the 2^r syndromes of `_code_prior`, not on words, and
    no bit changes.  The prior is a function of the syndrome, with each
    syndrome's shares added in the order a word's are, so
    ``prior[syndrome[x]]`` is word x's float.  Flipping bit i adds column i,
    ``syndrome[2^i]``, to the syndrome, so the syndrome map sends the radius-w
    ball around y onto the radius-w ball around y's syndrome; one gather over
    the distinct columns and 0 grows every ball by one flip, and a max picks
    one exact product, so every ball maximum, stopping radius and product is
    the same float.  The 0 keeps each centre in its ball, so ball w is the whole
    radius-w ball; without it ball w holds the words at distance w, w - 2, ...,
    which gives the same result (the nearer words scored earlier at a larger L)
    by a longer argument.  ``best[syndrome]`` gives each y its maximum, added in
    y order as on the words.
    """
    (ball, _), syndrome = _code_prior(chosen, n, False)
    best = ball * like_by_weight[0]
    columns = {0, *syndrome[1 << np.arange(n)].tolist()}  # flipping bit i adds syndrome[2^i]
    neighbours = np.array(list(columns))[:, None] ^ np.arange(len(ball))  # row c: s XOR c for each s
    for w in range(1, n + 1):
        grown = ball[neighbours].max(axis=0)
        if np.array_equal(grown, ball):
            break  # every later radius scores this ball at a smaller L
        ball = grown
        best = np.maximum(best, ball * like_by_weight[w])
    return _in_order(best[syndrome])


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
    known = _in_order(np.array([w * _map_success([(code, Fraction(1))], like_by_weight, n)
                                for w, code in zip(weights, ensemble.codes)]))
    mixture = _map_success(zip(ensemble.codes, weights), like_by_weight, n)
    return LeakageComparison(p1_no_code=(1.0 - q) ** n, p1_code_known_avg=known, p1_mixture=mixture)
