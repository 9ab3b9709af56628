"""Reference computations that do not call the code under test.

Each function recomputes a keysec quantity by a different route: integer
numerators over one common denominator instead of `Fraction` loops, a
GF(2^b) table built here from schoolbook multiplication, and a
nearest-codeword distance transform instead of a per-observation scan.
The workloads compare every output against these, outside the timed
calls.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

def _has_factor(poly: int, div: int) -> bool:
    while poly.bit_length() >= div.bit_length():
        poly ^= div << (poly.bit_length() - div.bit_length())
    return poly == 0


def field_polynomials(b: int) -> list:
    """Every irreducible GF(2) polynomial of degree b, as a bit pattern: the fields of width b."""
    return [p for p in range(1 << b, 2 << b)
            if not any(_has_factor(p, d) for d in range(2, 1 << (b // 2 + 1)))]


_POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def popcount(values: np.ndarray) -> np.ndarray:
    out = np.zeros(values.shape, dtype=np.int64)
    v = values.astype(np.int64)
    while np.any(v):
        out += _POP8[v & 0xFF]
        v = v >> 8
    return out


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# ---------------------------------------------------------------- distributions


def distance_to_uniform(nums: np.ndarray, den: int) -> Fraction:
    """delta(P, U) for P = nums/den, as sum |N num - den| / (2 N den)."""
    size = len(nums)
    return Fraction(int(np.abs(size * nums.astype(np.int64) - den).sum()), 2 * size * den)


def split_groups(size: int, n1: int, subset_bits) -> np.ndarray:
    """Group id k1 + (K2* value << n1) of every key value."""
    ks = np.arange(size, dtype=np.int64)
    k2 = ks >> n1
    sub = np.zeros(size, dtype=np.int64)
    for j, pos in enumerate(subset_bits):
        sub |= ((k2 >> pos) & 1) << j
    return (ks & ((1 << n1) - 1)) + (sub << n1)


def split_best_mass(weights: np.ndarray, n1: int, subset_bits) -> np.ndarray:
    """sum over k1 of max_v P(K2* = v, K1 = k1), elementwise in the weight dtype."""
    gid = split_groups(len(weights), n1, subset_bits)
    groups = np.zeros((1 << len(subset_bits)) << n1, dtype=weights.dtype)
    np.add.at(groups, gid, weights)
    return groups.reshape(1 << len(subset_bits), 1 << n1).max(axis=0).sum()


def mixture_weight(nums: np.ndarray, den: int) -> Fraction:
    """Least lam with (1-lam)/N <= p_k <= lam + (1-lam)/N for every k."""
    size = len(nums)
    lo = Fraction(den - size * int(nums.min()), den)
    hi = Fraction(size * int(nums.max()) - den, den * (size - 1))
    return max(Fraction(0), lo, hi)


# ---------------------------------------------------------------- MAC


def _gf_table(b: int, mod: int) -> np.ndarray:
    size = 1 << b
    table = np.zeros((size, size), dtype=np.int64)
    for x in range(size):
        for y in range(size):
            prod = 0
            for i in range(b):
                if (y >> i) & 1:
                    prod ^= x << i
            for i in range(2 * b - 2, b - 1, -1):
                if (prod >> i) & 1:
                    prod ^= mod << (i - b)
            table[x, y] = prod
    return table


def hash_table(b: int, blocks: int, mod: int) -> np.ndarray:
    """H[m, alpha] = sum_j c_j(m) alpha^(j+1) over GF(2^b) = GF(2)[x]/mod, every message m."""
    mul = _gf_table(b, mod)
    size = 1 << b
    msgs = np.arange(1 << (b * blocks), dtype=np.int64)
    alphas = np.arange(size, dtype=np.int64)
    power = alphas.copy()
    out = np.zeros((len(msgs), size), dtype=np.int64)
    for j in range(blocks):
        coeff = (msgs >> (j * b)) & (size - 1)
        out ^= mul[coeff[:, None], power[None, :]]
        power = mul[power, alphas]
    return out


def collision(b: int, blocks: int, mod: int):
    """First (difference, key, key) in search order with equal hashes."""
    table = hash_table(b, blocks, mod)
    for d in range(1, len(table)):
        seen = {}
        for alpha, hv in enumerate(table[d].tolist()):
            if hv in seen:
                return d, seen[hv], alpha, hv
            seen[hv] = alpha
    return None


def _best_forgery(table: np.ndarray, posts: np.ndarray) -> np.ndarray:
    """Per row of `posts`: max over d != 0, dt of the mass with H[d, alpha] = dt."""
    size = table.shape[1]
    onehot = (table[1:, :, None] == np.arange(size)).astype(np.int64)
    mass = posts @ onehot.transpose(1, 0, 2).reshape(size, -1)
    return mass.max(axis=1)


def mac_success(b, blocks, mod, prior, mask, attack, uses=1, tag_averaged=False) -> Fraction:
    """Optimal forgery probability; `prior`/`mask` are (int numerators, denominator)."""
    size = 1 << b
    if mask is None and attack == "impersonation":
        return Fraction(1, size)
    table = hash_table(b, blocks, mod)
    p_num, p_den = np.asarray(prior[0], dtype=np.int64), prior[1]
    if mask is None:
        return Fraction(int(_best_forgery(table, p_num[None, :])[0]), p_den)
    m_num, m_den = np.asarray(mask[0], dtype=np.int64), mask[1]
    tags = np.arange(size, dtype=np.int64)
    if attack == "impersonation":
        hits = (p_num[None, None, :] * m_num[tags[None, :, None] ^ table[:, None, :]]).sum(axis=2)
        return Fraction(int(hits.max()), p_den * m_den)
    if uses == 1:
        posts = p_num[None, None, :] * m_num[tags[None, :, None] ^ table[:, None, :]]
        posts = posts.reshape(-1, size)
        per_message = size
    else:
        grids = np.stack(np.meshgrid(*([tags] * uses), indexing="ij"), -1).reshape(-1, uses)
        posts = np.repeat(p_num[None, :], len(grids), axis=0)
        for i in range(uses):
            posts = posts * m_num[grids[:, i][:, None] ^ table[i + 1][None, :]]
        per_message = len(grids)
    den = p_den * m_den**uses
    weights = posts.sum(axis=1)
    hits = _best_forgery(table, posts)
    if tag_averaged:
        return Fraction(int(hits.reshape(-1, per_message).sum(axis=1).max()), den)
    return max(Fraction(int(h), int(w)) for h, w in zip(hits, weights) if w > 0)


# ---------------------------------------------------------------- ECPA


def codewords(n: int, rows) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(len(xs), dtype=bool)
    for row in rows:
        ok &= popcount(xs & row) % 2 == 0
    return xs[ok]


def nearest_distance(n: int, members: np.ndarray) -> np.ndarray:
    """Hamming distance from every word to the nearest member (a BFS sweep)."""
    xs = np.arange(1 << n, dtype=np.int64)
    dist = np.full(len(xs), n + 1, dtype=np.int64)
    dist[members] = 0
    while True:
        before = dist.copy()
        for j in range(n):
            dist = np.minimum(dist, dist[xs ^ (1 << j)] + 1)
        if np.array_equal(before, dist):
            return dist


def leakage(n: int, codes, weights, q: float):
    """(no_code, code_known_avg, mixture) MAP guessing successes.

    The likelihood q^w (1-q)^(n-w) falls with the distance w when
    q < 1/2, so the best guess within a set of equally likely words is
    the nearest one; the mixture prior is constant on each set of words
    sharing one code-membership pattern.
    """
    like = np.array([q**w * (1 - q) ** (n - w) for w in range(n + 1)])
    words = [codewords(n, rows) for rows in codes]
    known = sum(w / len(c) * like[nearest_distance(n, c)].sum() for w, c in zip(weights, words))
    member = np.zeros(1 << n, dtype=np.int64)
    for i, c in enumerate(words):
        member[c] |= 1 << i
    best = np.zeros(1 << n)
    for pattern in range(1, 1 << len(codes)):
        cls = np.flatnonzero(member == pattern)
        if len(cls):
            value = sum(weights[i] / len(words[i]) for i in range(len(codes)) if pattern >> i & 1)
            best = np.maximum(best, value * like[nearest_distance(n, cls)])
    return (1 - q) ** n, float(known), float(best.sum())


def posterior(n: int, codes, weights, q: Fraction, observation: int, known_index=None) -> list:
    """Exact Bayes posterior over data words, with integer likelihoods."""
    chosen = [(codes[known_index], Fraction(1))] if known_index is not None else list(zip(codes, weights))
    prior = [Fraction(0)] * (1 << n)
    for rows, w in chosen:
        words = codewords(n, rows).tolist()
        for x in words:
            prior[x] += w / len(words)
    a, c = q.numerator, q.denominator
    like = [a**w * (c - a) ** (n - w) for w in range(n + 1)]
    flips = popcount(np.arange(1 << n, dtype=np.int64) ^ observation).tolist()
    scaled = [p * like[f] for p, f in zip(prior, flips)]
    total = sum(scaled, Fraction(0))
    return [s / total for s in scaled]
