"""Information-theoretic authentication under imperfect keys.

The concrete family is polynomial evaluation over ``GF(2^b)``: a message
of ``m_blk`` field-element blocks ``c_0..c_{m_blk-1}`` is hashed with key
``alpha`` to ``sum_j c_j * alpha^(j+1)``, and the tag is the hash XOR a
(possibly imperfect) one-time mask.  With a uniform hash key the family
is almost-strongly-universal with ``eps = m_blk / 2^b``; this module
measures what survives when the keys are *not* uniform, exactly, against
the attacker's posterior.

Two attack games are scored.  Impersonation: forge a tag with no observed
traffic.  The hash has no constant term, so the zero message's tag is the
mask itself, and no (message, tag) pair carries more mass than the
likeliest mask value: the best impersonation wins with the mask's ``p1``
(``2^-b`` under the ideal pad), with nothing enumerated.

Substitution: observe valid (message, tag) pairs, then forge on a
different message.  Because the hash is GF-linear in the message, a
substitution forgery ``(M XOR D, t XOR dt)`` succeeds exactly when
``h_alpha(D) = dt`` -- the mask cancels -- that is, on the roots of the
nonzero polynomial ``sum_j D_j alpha^(j+1) + dt`` of degree at most
``m_blk``.  Every set of at most ``m_blk`` keys is such a root set, so
the best forgery wins with the mass of the posterior's
``min(m_blk, 2^b)`` most likely keys: no message difference is searched.

Masked substitution still enumerates its transcripts, over the rows
``H[d, alpha] = h_alpha(d)`` of the messages it hashes.  By linearity each
is an XOR of basis rows, one per message bit (``b * m_blk`` for one use,
``uses.bit_length()`` for more) at ``2^b`` field multiplies each.
``HashFamilySpec.hash_value`` stays as the scalar reference.  The
forgeable key law is closed form, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .dist import KeyDistribution, _law, _over, _wide, statistical_distance
from .numerics import (
    InfeasibleError,
    Number,
    ValidationError,
    _shown,
    check_cap,
    check_int,
    check_scalar,
    scalar_mode,
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
        bits = check_cap("field_bits", check_int(self.field_bits, "field width"), "field width")
        object.__setattr__(self, "field_bits", bits)
        object.__setattr__(self, "message_blocks", check_int(self.message_blocks, "message block count"))
        mod = check_int(self.modulus, "modulus", lo=0) or DEFAULT_MODULI[bits]  # a negative one never reduces
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

    def _check_message(self, message: int) -> int:
        # by bit length: message_space itself is a huge integer for many blocks
        message = check_int(message, "message", lo=0)
        bits = self.field_bits * self.message_blocks
        if message.bit_length() > bits:
            raise ValidationError(
                f"message {_shown(message)} outside [0, 2^{bits}) for {self.message_blocks} blocks"
            )
        return message

    def blocks(self, message: int) -> tuple:
        message = self._check_message(message)
        mask = self.tag_space - 1
        return tuple((message >> (j * self.field_bits)) & mask for j in range(self.message_blocks))

    def hash_value(self, alpha: int, message: int) -> int:
        """Evaluate ``sum_j c_j alpha^(j+1)`` by Horner's rule.

        The trailing multiply gives every term at least one power of the
        key, keeping the map GF-linear in the message with no constant
        part: ``h(M) XOR h(M') = h(M XOR M')``.
        """
        alpha = check_int(alpha, "key value", lo=0, hi=self.tag_space)
        message = self._check_message(message)
        b = self.field_bits
        acc = 0
        # zero blocks above the message's top block would leave acc at 0
        for j in reversed(range(-(-message.bit_length() // b))):
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
        object.__setattr__(self, "uses", check_int(self.uses, "uses"))


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
    return Fraction(spec.message_blocks, spec.tag_space)


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


def _hash_table(basis: np.ndarray, stop: int) -> np.ndarray:
    """``H[d, alpha] = h_alpha(d)`` for every message ``d < stop``; ``basis``
    holds at least the first ``(stop - 1).bit_length()`` basis rows.

    The hash is GF-linear in the message, so ``H[r | 2^k] = H[r] XOR
    H[2^k]`` for ``r < 2^k``: the table is filled by doubling from the
    basis rows.
    """
    bits = (stop - 1).bit_length()
    table = np.zeros((1 << bits, basis.shape[1]), dtype=np.intp)
    for k in range(bits):
        np.bitwise_xor(table[: 1 << k], basis[k], out=table[1 << k : 2 << k])
    return table[:stop]


def _top_mass(posts: np.ndarray, roots: int) -> np.ndarray:
    """Per posterior row: the mass of its ``roots`` largest entries.

    This is the best substitution forgery's mass when ``roots`` is
    ``min(m_blk, 2^b)``: the keys on which a forgery wins are the roots of
    a nonzero polynomial of degree at most ``m_blk``, and every such set
    of keys ``S`` is the root set of ``prod_{s in S} (alpha + s)``.  A
    stable sort breaks ties toward the lower key, and the chosen entries
    are summed in key order; the values are unnormalized (they scale with
    the row's total).
    """
    order = np.sort(np.argsort(-posts, axis=1, kind="stable")[:, :roots], axis=1)
    return np.add.accumulate(np.take_along_axis(posts, order, axis=1), axis=1)[:, -1]


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
    randomness, which is the quantity the degradation laws of
    `degraded_epsilon` speak about.

    Impersonation is the prior's total times the top mask entry over the
    game's denominator, the mass of the zero message's likeliest tag: the
    mask's ``p1`` for exact laws, ``2^-b`` under the ideal pad
    (``tag_key_dist=None``, a mask of numerator 1 over ``2^b``).  With the
    ideal pad observed tags carry no information about the hash key, so
    substitution wins with the prior mass of the ``min(m_blk, 2^b)`` most
    likely keys, with no message table.  An explicit ``KeyDistribution``
    (even a uniform one) plays the masked game.

    Masked substitution observes the tags of one message, maximized over
    the message, or of the distinct messages ``1..uses`` (``uses >= 2``).
    It hashes them by GF-linearity from one basis row per message bit
    (``b * m_blk`` for a single use, ``uses.bit_length()`` for more),
    stacks the key posteriors of all transcripts and scores each by its
    top-``min(m_blk, 2^b)`` key mass (`_top_mass`).  Exact laws become
    integer numerators over one common denominator, widened by `_wide` to
    Python integers once twice the game's total numerator reaches 2^63.
    Float laws are summed in the order a loop over the keys would use: a
    float forgery mass is the key-order sum of the lowest-index top
    entries, which can sit 1 ulp below another tied choice of keys.  More
    uses than messages is a `ValidationError`; then the (transcript, key)
    table's bit count, ``b * m_blk + 2b`` for one use and ``b * (uses + 1)``
    for more, meets the ``mac_entry_bits`` cap before anything is built.
    """
    if attack not in ("impersonation", "substitution"):
        raise ValidationError(f"unknown attack {_shown(attack, repr)}; expected impersonation or substitution")
    _key_dist_for(spec, keys.hash_key_dist, "hash key distribution")
    if keys.tag_key_dist is not None:
        _key_dist_for(spec, keys.tag_key_dist, "tag key distribution")
    size = spec.tag_space
    masked = keys.tag_key_dist is not None
    laws = (keys.hash_key_dist, keys.tag_key_dist) if masked else (keys.hash_key_dist,)
    mode = "rational" if all(law.mode == "rational" for law in laws) else "float"

    prior, den = _law(keys.hash_key_dist, mode)
    # the ideal pad is a uniform mask: numerator 1 over 2^b
    mask, mask_den = _law(keys.tag_key_dist, mode) if masked else (np.ones(1, np.int64), size)
    if attack == "impersonation":  # the zero message hashes to 0 under every key: its tag is the mask
        return _over(sum(prior.tolist()) * max(mask.tolist()), den * mask_den)
    b, uses = spec.field_bits, keys.uses
    if masked:  # the ideal pad builds nothing of size 2^(b * m_blk)
        bits = b * spec.message_blocks
        if uses.bit_length() > bits:  # uses >= 2^bits, by bit length: 2^bits is huge for many blocks
            raise ValidationError(f"{_shown(uses)} distinct observed messages do not fit a 2^{bits}-message space")
        # the (transcript, key) table: 2^bits messages or 2^(b * uses) tag tuples, by 2^b tags and 2^b keys
        check_cap("mac_entry_bits", bits + 2 * b if uses == 1 else b * (uses + 1), "masked substitution table")
    den *= mask_den ** (uses if masked else 0)  # the total numerator of the game's joint law
    prior, mask = _wide(prior, 2 * den), _wide(mask, 2 * den)
    roots = min(spec.message_blocks, size)
    if not masked:
        return _over(_top_mass(prior[None, :], roots)[0], den)
    # sent[g, i]: the hash row of message i of transcript group g, one group per message for a single use
    stop = spec.message_space if uses == 1 else uses + 1
    table = _hash_table(_basis_rows(spec, (stop - 1).bit_length()), stop)
    sent = table[:, None] if uses == 1 else table[None, 1:]
    groups, tags, posts = len(sent), np.arange(size), prior[None, None]
    for i in range(sent.shape[1]):  # posts[g, (t_1, ..., t_i), alpha] = P(alpha, tags t_1..t_i on group g)
        posts = (posts[:, :, None] * mask[tags[:, None] ^ sent[:, i, None]][:, None]).reshape(groups, -1, size)
    posts = posts.reshape(-1, size)
    hits = _top_mass(posts, roots)
    if tag_averaged:
        # per observed-message choice, its hits summed over the tags in order
        totals = np.add.accumulate(hits.reshape(groups, -1), axis=1)[:, -1]
        return _over(totals.max(), den)
    # worst case: the transcript of highest conditional success hit / P(transcript), then one division
    weights = np.add.accumulate(posts, axis=1)[:, -1]
    seen = weights > 0
    hits, weights = hits[seen], weights[seen]
    if mode == "float":
        best = int(np.argmax(hits / weights))
        return _over(hits[best], weights[best])
    top = (0, 1)
    for hit, weight in zip(hits.tolist(), weights.tolist()):  # hit / weight > top, by integer cross-products
        if hit * top[1] > top[0] * weight:
            top = (hit, weight)
    return _over(*top)


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


def forgeable_key_distribution(spec: HashFamilySpec) -> ForgeryWitness:
    """Two-point hash-key law under which substitution always succeeds.

    The difference ``D = 2^b + 1`` (blocks 1, 1) hashes to ``alpha + alpha^2``,
    which vanishes at keys 0 and 1; every smaller nonzero difference hashes
    to ``c * alpha`` or ``alpha^2``, injective in the key, so ``D`` is the
    lowest colliding difference.  Splitting the key mass over keys 0 and 1
    makes the forgery ``(M XOR D, t)`` valid with certainty, while the key
    stays at distance ``(2^b - 2) / 2^b < 1`` from uniform.  This is the
    sharp end of the uniformity assumption: the averaged guarantee survives
    imperfect keys, the worst case does not.
    """
    if spec.message_blocks < 2:
        raise InfeasibleError(
            "single-block evaluation is injective in the key for every nonzero "
            "message difference; a colliding key pair needs at least 2 blocks"
        )
    size = spec.tag_space
    # the witness claims certainty: confirm it by scalar Horner
    if spec.hash_value(0, size + 1) != 0 or spec.hash_value(1, size + 1) != 0:
        raise RuntimeError("internal check failed: alpha + alpha^2 does not vanish at 0 and 1")
    dist = KeyDistribution(spec.field_bits, [Fraction(1, 2)] * 2 + [Fraction(0)] * (size - 2))
    return ForgeryWitness(dist, message_delta=size + 1, tag_delta=0, distance=statistical_distance(dist))
