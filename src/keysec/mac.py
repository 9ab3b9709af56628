"""Information-theoretic authentication under imperfect keys.

The concrete family is polynomial evaluation over ``GF(2^b)``: a message
of ``m_blk`` field-element blocks ``c_0..c_{m_blk-1}`` is hashed with key
``alpha`` to ``sum_j c_j * alpha^(j+1)``, and the tag is the hash XOR a
(possibly imperfect) one-time mask.  With a uniform hash key the family
is almost-strongly-universal with ``eps = m_blk / 2^b``; this module
measures what survives when the keys are *not* uniform, by exhaustively
enumerating the optimal forgery against the attacker's posterior.

Two attack games are scored.  Impersonation: forge a tag with no observed
traffic.  Substitution: observe valid (message, tag) pairs, then forge on
a different message.  Because the hash is GF-linear in the message, a
substitution forgery ``(M XOR D, t XOR dt)`` succeeds exactly when
``h_alpha(D) = dt`` -- the mask cancels -- so the search space is the
(message difference, tag difference) grid.

The search runs over the table ``H[d, alpha] = h_alpha(d)``.  Linearity
gives it cheaply: ``b * m_blk`` basis rows cost ``b * m_blk * 2^b`` field
multiplies, and every other row is an XOR of two earlier ones.  Scoring
a key posterior then buckets its mass by ``H[d, alpha]`` for every
difference ``d`` -- ``2^(b * m_blk) * 2^b`` array additions -- and all
transcript posteriors of a game are stacked and scored in one pass.
``HashFamilySpec.hash_value`` stays as the scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .dist import KeyDistribution, statistical_distance
from .numerics import (
    BLOCK_ENTRIES,
    InfeasibleError,
    Number,
    ResourceLimitError,
    ValidationError,
    is_rational,
)

__all__ = [
    "HashFamilySpec",
    "MacKeyModel",
    "DegradedLevels",
    "ForgeryWitness",
    "DEFAULT_MODULI",
    "asu_epsilon",
    "attack_success",
    "degraded_epsilon",
    "forgeable_key_distribution",
]

#: irreducible moduli (bit patterns, x^b term included) for GF(2^b), b = 1..10
DEFAULT_MODULI = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
}

MAX_FIELD_BITS = 10
_MAX_MESSAGE_SPACE = 1 << 16
_WORK_CAP = 1 << 22
_MAX_TAG_TUPLES = 1 << 12


def _gf_mul(a: int, b: int, modulus: int, width: int) -> int:
    """Carry-less multiply in GF(2^width) reduced by the given modulus."""
    acc = 0
    top = 1 << width
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return acc


def _poly_mod(a: int, m: int) -> int:
    shift = a.bit_length() - m.bit_length()
    while shift >= 0:
        a ^= m << shift
        shift = a.bit_length() - m.bit_length()
    return a


def _is_irreducible(poly: int) -> bool:
    degree = poly.bit_length() - 1
    if degree < 1:
        return False
    # trial division by every polynomial of degree 1 .. degree/2
    for div in range(2, 1 << (degree // 2 + 1)):
        if _poly_mod(poly, div) == 0:
            return False
    return True


@dataclass(frozen=True)
class HashFamilySpec:
    """Polynomial-evaluation hash over ``GF(2^field_bits)``.

    ``modulus`` is the field's irreducible polynomial as a bit pattern
    (degree ``field_bits``, x^field_bits term included); 0 selects the
    built-in default.  Tags and key values are ``field_bits`` wide;
    messages are ``message_blocks`` field elements packed little-endian
    into one integer.
    """

    field_bits: int
    message_blocks: int
    modulus: int = 0

    def __post_init__(self):
        if not isinstance(self.field_bits, int) or self.field_bits < 1:
            raise ValidationError(f"field width must be a positive integer, got {self.field_bits!r}")
        if self.field_bits > MAX_FIELD_BITS:
            raise ResourceLimitError(
                f"field width {self.field_bits} exceeds the exhaustive-enumeration cap {MAX_FIELD_BITS}"
            )
        if not isinstance(self.message_blocks, int) or self.message_blocks < 1:
            raise ValidationError(f"need at least one message block, got {self.message_blocks!r}")
        mod = self.modulus
        if mod == 0:
            mod = DEFAULT_MODULI[self.field_bits]
            object.__setattr__(self, "modulus", mod)
        if mod.bit_length() - 1 != self.field_bits:
            raise ValidationError(
                f"modulus {mod:#x} has degree {mod.bit_length() - 1}, field needs {self.field_bits}"
            )
        if not _is_irreducible(mod):
            raise ValidationError(f"modulus {mod:#x} is reducible; the quotient is not a field")

    @property
    def tag_space(self) -> int:
        return 1 << self.field_bits

    @property
    def message_space(self) -> int:
        return 1 << (self.field_bits * self.message_blocks)

    def _check_message(self, message: int) -> None:
        # by bit length: message_space itself is a huge integer for many blocks
        bits = self.field_bits * self.message_blocks
        if message < 0 or int(message).bit_length() > bits:
            raise ValidationError(
                f"message {message} outside [0, 2^{bits}) for {self.message_blocks} blocks"
            )

    def blocks(self, message: int) -> tuple:
        self._check_message(message)
        mask = self.tag_space - 1
        return tuple((message >> (j * self.field_bits)) & mask for j in range(self.message_blocks))

    def hash_value(self, alpha: int, message: int) -> int:
        """Evaluate ``sum_j c_j alpha^(j+1)`` by Horner's rule.

        The trailing multiply gives every term at least one power of the
        key, keeping the map GF-linear in the message with no constant
        part: ``h(M) XOR h(M') = h(M XOR M')``.
        """
        if not 0 <= alpha < self.tag_space:
            raise ValidationError(f"key value {alpha} outside [0, {self.tag_space})")
        self._check_message(message)
        b = self.field_bits
        acc = 0
        # zero blocks above the message's top block would leave acc at 0
        for j in reversed(range(-(-int(message).bit_length() // b))):
            acc = _gf_mul(acc, alpha, self.modulus, b) ^ ((message >> (j * b)) & (self.tag_space - 1))
        return _gf_mul(acc, alpha, self.modulus, b)


@dataclass(frozen=True)
class MacKeyModel:
    """Key material for the authentication game.

    ``hash_key_dist`` is the law of the evaluation point.  ``tag_key_dist``
    is the law of each tag mask; None means an ideal uniform one-time pad,
    refreshed per tag.  ``uses`` is how many (message, tag) pairs Eve
    observes under one hash key before forging (substitution only).
    """

    hash_key_dist: KeyDistribution
    tag_key_dist: Optional[KeyDistribution] = None
    uses: int = 1

    def __post_init__(self):
        if not isinstance(self.hash_key_dist, KeyDistribution):
            raise ValidationError("hash key model requires a KeyDistribution")
        if self.tag_key_dist is not None and not isinstance(self.tag_key_dist, KeyDistribution):
            raise ValidationError("tag key model must be a KeyDistribution or None")
        if not isinstance(self.uses, int) or self.uses < 1:
            raise ValidationError(f"uses must be a positive integer, got {self.uses!r}")


class DegradedLevels(NamedTuple):
    hash_key_level: Number
    tag_key_level: Number


class ForgeryWitness(NamedTuple):
    distribution: KeyDistribution
    message_delta: int
    tag_delta: int
    distance: Number


def asu_epsilon(spec: HashFamilySpec) -> Fraction:
    """The family's strong-universality level ``m_blk / 2^b``.

    For any two distinct messages and any tag pair, a uniform hash key
    collides with probability at most this (the hash difference is a
    nonzero polynomial in the key with at most ``m_blk`` roots).  Never
    below the tag-space floor ``2^-b``; vacuous if it exceeds 1.
    """
    eps = Fraction(spec.message_blocks, spec.tag_space)
    if eps < Fraction(1, spec.tag_space):
        raise RuntimeError("internal check failed: eps fell below the tag-space floor")
    return eps


def _key_dist_for(spec: HashFamilySpec, dist: KeyDistribution, what: str) -> None:
    if dist.n != spec.field_bits:
        raise ValidationError(
            f"{what} covers {dist.n}-bit values, family keys are {spec.field_bits}-bit"
        )


def _basis_rows(spec: HashFamilySpec, bits: int) -> np.ndarray:
    """``H[2^k, alpha]`` for ``k < bits``: bit ``k`` of a message is the
    coefficient ``x^(k mod b)`` of block ``k // b``, hashed to
    ``x^(k mod b) * alpha^(k // b + 1)``."""
    b, mod = spec.field_bits, spec.modulus
    rows = [[0] * spec.tag_space for _ in range(bits)]
    for alpha in range(spec.tag_space):
        power = alpha
        for k in range(bits):
            if k and k % b == 0:
                power = _gf_mul(power, alpha, mod, b)
            rows[k][alpha] = _gf_mul(power, 1 << (k % b), mod, b)
    return np.array(rows, dtype=np.intp).reshape(bits, spec.tag_space)


def _hash_blocks(basis: np.ndarray, stop: int, rows: int):
    """Yield ``(start, H[start:start + rows])`` over messages ``[0, stop)``,
    where ``H[d, alpha] = h_alpha(d)`` and ``rows`` is a power of two;
    ``basis`` holds at least the first ``(stop - 1).bit_length()`` basis
    rows.

    The hash is GF-linear in the message, so ``H[r | 2^k] = H[r] XOR
    H[2^k]`` for ``r < 2^k``: a table of the first ``rows`` messages is
    filled by doubling from the basis rows, and every later block is that
    table XOR ``H[start]`` (``start`` is a multiple of ``rows``, so its
    bits are disjoint from the table's).
    """
    bits = (stop - 1).bit_length()
    size = basis.shape[1]
    low = min(rows.bit_length() - 1, bits)
    table = np.zeros((1 << low, size), dtype=np.intp)
    for k in range(low):
        np.bitwise_xor(table[: 1 << k], basis[k], out=table[1 << k : 2 << k])
    for start in range(0, stop, len(table)):
        high = np.zeros(size, dtype=np.intp)
        for k in range(low, bits):
            if start >> k & 1:
                high ^= basis[k]
        yield start, table[: stop - start] ^ high


def _hash_table(basis: np.ndarray, stop: int) -> np.ndarray:
    """``H[d, alpha]`` for every message ``d < stop``, in one array."""
    return next(_hash_blocks(basis, stop, 1 << (stop - 1).bit_length()))[1]


def _block_rows(width: int) -> int:
    """Rows of ``width`` entries per block: a power of two, at least 1,
    keeping a block within ``BLOCK_ENTRIES``."""
    return 1 << max(0, (BLOCK_ENTRIES // width).bit_length() - 1)


def _bucket_mass(basis: np.ndarray, posts: np.ndarray, stop: int):
    """Yield ``(start, acc)`` block by block over messages ``d < stop``, with
    ``acc[p, r, dt]`` the mass of ``posts[p]`` on keys hashing
    ``start + r`` to ``dt``.

    One unbuffered ``np.add.at`` per block adds every key into its bucket
    in flat (p, r, alpha) order, so each bucket sums its keys in index
    order and float sums are those of a plain loop over the keys.
    """
    count, size = posts.shape
    for start, block in _hash_blocks(basis, stop, _block_rows(count * size)):
        acc = np.zeros((count, len(block), size), dtype=posts.dtype)
        cells = np.arange(count * len(block)).reshape(count, -1, 1) * size + block
        weights = np.broadcast_to(posts[:, None, :], acc.shape)
        np.add.at(acc.reshape(-1), cells.reshape(-1), weights.reshape(-1))
        yield start, acc


def _best_forgery(basis: np.ndarray, posts: np.ndarray) -> np.ndarray:
    """Per posterior row: the best (message difference, tag difference) mass.

    Exhausts all nonzero differences of the ``len(basis)``-bit message
    space; the values are unnormalized (they scale with the row's total).
    """
    best = None
    for start, acc in _bucket_mass(basis, posts, 1 << len(basis)):
        if start == 0:
            acc[:, 0] = 0  # d = 0 is no forgery; every mass is >= 0
        top = acc.reshape(len(posts), -1).max(axis=1)
        best = top if best is None else np.maximum(best, top)
    return best


def _ratio(num, den) -> Number:
    """A mass over its normalizer: Fraction for exact numerators, float otherwise."""
    if isinstance(num, np.floating):
        return float(num) / float(den)
    return Fraction(int(num), int(den))


def _numerators(dist: KeyDistribution, exact: bool) -> tuple:
    """The law as (numerators, denominator): its lattice when exact, floats
    over 1 otherwise."""
    return dist.lattice if exact else (dist.as_array(), 1)


def _check_work(work: int, what: str, cap: int = _WORK_CAP, cap_name: str = "work cap") -> None:
    if work > cap:
        raise ResourceLimitError(f"{what} needs {work} steps, over the {cap_name} of {cap}")


def attack_success(
    spec: HashFamilySpec,
    keys: MacKeyModel,
    attack: str,
    *,
    tag_averaged: bool = False,
) -> Number:
    """Exact optimal forgery probability for one attack game.

    ``attack`` is ``"impersonation"`` or ``"substitution"``.  The default
    scores the worst case over the observable transcript (message choice
    and tag values); ``tag_averaged=True`` instead averages over the tag
    randomness, which is the quantity the degradation law
    ``eps + eps_h`` speaks about.

    With the ideal mask (``tag_key_dist=None``) observed tags carry no
    information about the hash key -- the posterior equals the prior --
    so impersonation hits any fixed tag with probability exactly ``2^-b``
    and substitution reduces to the exhaustive difference search.  Passing
    an explicit ``KeyDistribution`` (even a uniform one) forces the full
    transcript enumeration, which is capped for size.

    Multi-use substitution (``uses >= 2``) scores a canonical transcript
    of distinct messages ``1..uses``; the single-use game maximizes over
    the observed message.

    Every game runs over the hash table ``H[d, alpha]``, generated by
    GF-linearity from ``b * m_blk`` basis rows computed once per call.
    Substitution stacks the key posteriors of all transcripts and buckets
    each by
    ``H[d, alpha]`` for every nonzero difference ``d``: about
    ``posteriors * 2^(b * m_blk) * 2^b`` additions, done as array work in
    blocks of at most ``BLOCK_ENTRIES`` entries.  Masked impersonation
    buckets the prior per message, then takes every tag's hit mass with
    one XOR-gather of the mask.  Exact laws become integer numerators
    over one common denominator, in int64 while the game's total
    numerator stays below 2^62 and as Python integers beyond; float laws
    are summed in the order a loop over the keys would use.  Every cap is
    checked before anything is allocated; a refusal states the work
    requested and the cap.
    """
    if attack not in ("impersonation", "substitution"):
        raise ValidationError(f"unknown attack {attack!r}; expected impersonation or substitution")
    _key_dist_for(spec, keys.hash_key_dist, "hash key distribution")
    if keys.tag_key_dist is not None:
        _key_dist_for(spec, keys.tag_key_dist, "tag key distribution")
    size = spec.tag_space
    bits = spec.field_bits * spec.message_blocks
    if bits > _MAX_MESSAGE_SPACE.bit_length() - 1:  # before 2^bits is ever built
        raise ResourceLimitError(
            f"message space of 2^{bits} messages exceeds the enumeration cap of "
            f"{_MAX_MESSAGE_SPACE} = 2^{_MAX_MESSAGE_SPACE.bit_length() - 1}"
        )
    msgs = spec.message_space
    exact = keys.hash_key_dist.mode == "rational" and (
        keys.tag_key_dist is None or keys.tag_key_dist.mode == "rational"
    )

    masked = keys.tag_key_dist is not None
    if not masked:
        if attack == "impersonation":
            # ideal pad: posterior == prior for every transcript
            if exact:
                return Fraction(1, size)  # every exact law sums to 1
            return sum(keys.hash_key_dist.as_array().tolist(), 0.0) * (1.0 / size)
        masks = 0  # mask factors in the game's joint law: one per tag
        _check_work(msgs * size, f"difference search of {msgs - 1} x {size}")
    elif attack == "impersonation":
        masks = 1
        _check_work(msgs * size * size, f"impersonation enumeration of {msgs} x {size} x {size}")
    elif keys.uses == 1:
        masks = 1
        _check_work(
            (msgs * size) ** 2,
            f"substitution transcript enumeration of ({msgs} x {size})^2",
        )
    else:
        masks = uses = keys.uses
        if uses >= msgs:
            raise ValidationError(
                f"{uses} distinct observed messages do not fit a {msgs}-message space"
            )
        tuples = size**uses
        what = f"multi-use enumeration of {size}^{uses} tag tuples"
        _check_work(tuples, what, _MAX_TAG_TUPLES, "tag-tuple cap")
        _check_work(tuples * msgs * size, f"{what} x {msgs} x {size}")

    prior, den = _numerators(keys.hash_key_dist, exact)
    mask, mask_den = _numerators(keys.tag_key_dist, exact) if masked else ([], 1)
    den *= mask_den**masks  # the total numerator of the game's joint law
    dtype = np.float64 if not exact else np.int64 if den < 1 << 62 else object
    prior = np.array(prior, dtype=dtype)
    basis = _basis_rows(spec, bits)
    if not masked:
        return _ratio(_best_forgery(basis, prior[None, :])[0], den)
    mask = np.array(mask, dtype=dtype)
    tags = np.arange(size)

    if attack == "impersonation":
        gathered = mask[np.bitwise_xor.outer(tags, tags)]  # [hv, t] = mask[t ^ hv]
        tops = []
        for _, acc in _bucket_mass(basis, prior[None, :], msgs):
            hashed = acc[0]  # [m, hv]: key mass hashing m to hv
            hit = np.zeros_like(hashed)
            for hv in range(size):
                hit += hashed[:, hv, None] * gathered[hv]
            tops.append(hit.max())
        return _ratio(max(tops), den)

    if keys.uses == 1:
        # posts[m, t, alpha] = P(alpha, tag t on message m)
        table = _hash_table(basis, msgs)
        posts = prior * mask[tags[:, None] ^ table[:, None, :]]
        groups = msgs
    else:
        # posts[t_1, ..., t_uses, alpha] for observed messages 1..uses
        posts = prior
        for row in _hash_table(basis, uses + 1)[1:]:
            posts = posts[..., None, :] * mask[tags[:, None] ^ row]
        groups = 1
    posts = posts.reshape(-1, size)
    hits = _best_forgery(basis, posts)
    if tag_averaged:
        # per observed-message choice, its hits summed over the tags in order
        totals = np.add.accumulate(hits.reshape(groups, -1), axis=1)[:, -1]
        return _ratio(totals.max(), den)
    # worst case: each transcript's conditional success hit / P(transcript)
    weights = np.add.accumulate(posts, axis=1)[:, -1]
    return max(_ratio(hit, weight) for hit, weight in zip(hits, weights) if weight > 0)


def degraded_epsilon(eps: Number, eps_h: Number, eps_t: Number, m: int) -> DegradedLevels:
    """Universality levels after substituting imperfect keys.

    A hash key within ``eps_h`` of uniform degrades the family to level
    ``eps + eps_h``; tag masks within ``eps_t`` of uniform, spent over
    ``m`` tags under one hash key, degrade it to ``eps + m * eps_t``.
    Both are clipped at 1.
    """
    for name, value in (("eps", eps), ("eps_h", eps_h), ("eps_t", eps_t)):
        if value < 0 or value > 1:
            raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"number of uses must be a positive integer, got {m!r}")

    def _clip(x: Number) -> Number:
        if x >= 1:
            return Fraction(1) if is_rational(x) else 1.0
        return x

    return DegradedLevels(hash_key_level=_clip(eps + eps_h), tag_key_level=_clip(eps + m * eps_t))


def forgeable_key_distribution(spec: HashFamilySpec) -> ForgeryWitness:
    """Two-point hash-key law under which substitution always succeeds.

    Searches message differences in increasing order for two key values
    hashing a difference ``D`` to the same value ``dt``; splitting the
    key mass over that pair makes the forgery ``(M XOR D, t XOR dt)``
    valid with certainty, while the key stays at distance
    ``(2^b - 2) / 2^b < 1`` from uniform.  This is the sharp end of the
    uniformity assumption: the averaged guarantee survives imperfect
    keys, the worst case does not.
    """
    if spec.message_blocks < 2:
        raise InfeasibleError(
            "single-block evaluation is injective in the key for every nonzero "
            "message difference; a colliding key pair needs at least 2 blocks"
        )
    size = spec.tag_space
    # d = 2^b + 1 hashes to alpha + alpha^2, which vanishes at alpha = 0 and
    # 1, so the first colliding difference lies below 2^(b + 1)
    stop = 2 * size
    basis = _basis_rows(spec, (stop - 1).bit_length())
    for start, block in _hash_blocks(basis, stop, _block_rows(size)):
        ordered = np.sort(block, axis=1)
        colliding = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        colliding = colliding[colliding + start > 0]
        if not colliding.size:
            continue
        d = start + int(colliding[0])
        seen: dict = {}
        for alpha, hv in enumerate(block[d - start].tolist()):
            if hv in seen:
                # the witness claims certainty: confirm it by scalar Horner
                if spec.hash_value(seen[hv], d) != hv or spec.hash_value(alpha, d) != hv:
                    raise RuntimeError("internal check failed: hash table and Horner disagree")
                probs = [Fraction(0)] * size
                probs[seen[hv]] = Fraction(1, 2)
                probs[alpha] = Fraction(1, 2)
                dist = KeyDistribution(spec.field_bits, probs)
                uniform = KeyDistribution.uniform(spec.field_bits, mode="rational")
                return ForgeryWitness(
                    distribution=dist,
                    message_delta=d,
                    tag_delta=hv,
                    distance=statistical_distance(dist, uniform),
                )
            seen[hv] = alpha
    raise InfeasibleError("no colliding key pair exists for this family")
