"""Independent reference implementations used to freeze expected values.

Everything here is written from the defining formulas, deliberately not
sharing code paths with the package: scipy linear programming for the
conditional-deviation optimum, mpmath for high-precision entropies,
list-of-coefficients polynomial arithmetic for the finite field, and
plain Fraction sums everywhere else.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.optimize import linprog

mpmath.mp.dps = 60


# ---------------------------------------------------------------- basics


def tv_distance(p, q):
    """Total-variation distance from first principles."""
    return sum(abs(a - b) for a, b in zip(p, q)) / 2


def shannon_bits_mp(probs) -> mpmath.mpf:
    """Shannon entropy in bits at 60 significant digits."""
    total = mpmath.mpf(0)
    for p in probs:
        x = mpmath.mpf(p.numerator) / p.denominator if isinstance(p, Fraction) else mpmath.mpf(p)
        if x > 0:
            total -= x * mpmath.log(x, 2)
    return total


def binary_entropy_mp(q) -> mpmath.mpf:
    return shannon_bits_mp([q, 1 - q]) if 0 < q < 1 else mpmath.mpf(0)


# ------------------------------------------- conditional deviation (LP)


def lp_extreme_conditional(n: int, eps: float, event, sub_event, direction: str) -> float:
    """Extreme of P(B|A) over {P : distribution, tv(P, U) <= eps} via LP.

    Linear-fractional objective P(B)/P(A); Charnes-Cooper substitution
    y = t P with the normalization y(A) = 1 makes it linear:

        extremize  sum_{i in B} y_i
        subject to y >= 0, t >= 0, sum_i y_i = t, sum_i |y_i - t/N| <= 2 eps t

    Absolute values are handled with slack variables s_i >= |y_i - t/N|.
    """
    size = 1 << n
    u = 1.0 / size
    # variable vector: [y_0..y_{N-1}, t, s_0..s_{N-1}]
    n_var = 2 * size + 1
    c = np.zeros(n_var)
    for i in sub_event:
        c[i] = -1.0 if direction == "max" else 1.0

    a_eq = np.zeros((2, n_var))
    for i in event:
        a_eq[0, i] = 1.0  # y(A) = 1
    a_eq[1, :size] = 1.0  # sum y = t
    a_eq[1, size] = -1.0
    b_eq = np.array([1.0, 0.0])

    rows = []
    rhs = []
    for i in range(size):
        row = np.zeros(n_var)  # y_i - t u - s_i <= 0
        row[i] = 1.0
        row[size] = -u
        row[size + 1 + i] = -1.0
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(n_var)  # -y_i + t u - s_i <= 0
        row[i] = -1.0
        row[size] = u
        row[size + 1 + i] = -1.0
        rows.append(row)
        rhs.append(0.0)
    row = np.zeros(n_var)  # sum s - 2 eps t <= 0
    row[size + 1:] = 1.0
    row[size] = -2.0 * eps
    rows.append(row)
    rhs.append(0.0)

    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n_var,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    value = -res.fun if direction == "max" else res.fun
    return float(value)


def lp_max_conditional_deviation(n: int, eps: float, event, sub_event) -> float:
    """max |P(B|A) - U(B|A)| subject to tv(P, U) <= eps, via two LPs."""
    base = len(sub_event) / len(event)
    hi = lp_extreme_conditional(n, eps, event, sub_event, "max")
    lo = lp_extreme_conditional(n, eps, event, sub_event, "min")
    return max(hi - base, base - lo)


# ------------------------------------------------------- GF(2^b) by hand


def poly_mul_mod(a_bits, b_bits, mod_bits):
    """Multiply two GF(2) polynomials (LSB-first bit lists) modulo a third."""
    prod = [0] * (len(a_bits) + len(b_bits))
    for i, abit in enumerate(a_bits):
        if not abit:
            continue
        for j, bbit in enumerate(b_bits):
            prod[i + j] ^= abit & bbit
    deg_m = max(i for i, bit in enumerate(mod_bits) if bit)
    for i in range(len(prod) - 1, deg_m - 1, -1):
        if prod[i]:
            for j, mbit in enumerate(mod_bits):
                prod[i - deg_m + j] ^= mbit
    return prod[:deg_m]


def int_bits(x: int, width: int):
    return [(x >> i) & 1 for i in range(width)]


def bits_int(bits) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


@functools.lru_cache(maxsize=None)  # pure, over at most 2^(2b) operand pairs
def gf_mul_oracle(x: int, y: int, b: int, modulus: int) -> int:
    mod_bits = int_bits(modulus, b + 1)
    return bits_int(poly_mul_mod(int_bits(x, b), int_bits(y, b), mod_bits))


def hash_oracle(key: int, message: int, b: int, blocks: int, modulus: int) -> int:
    """sum_j c_j alpha^(j+1) computed term by term, no Horner."""
    acc = 0
    power = key
    for j in range(blocks):
        coeff = (message >> (j * b)) & ((1 << b) - 1)
        acc ^= gf_mul_oracle(coeff, power, b, modulus)
        power = gf_mul_oracle(power, key, b, modulus)
    return acc


def substitution_success_oracle(b: int, blocks: int, modulus: int, key_probs) -> Fraction:
    """Best substitution forgery for the ideal-pad scheme, by brute force.

    With a fresh uniform pad the transcript is useless; success of the
    pair (message difference D != 0, tag difference dt) is the key mass
    where hash(key, D) == dt.  Exhausts every pair.
    """
    size = 1 << b
    best = Fraction(0)
    for delta_m in range(1, 1 << (b * blocks)):
        buckets = {}
        for key in range(size):
            h = hash_oracle(key, delta_m, b, blocks, modulus)
            buckets[h] = buckets.get(h, Fraction(0)) + Fraction(key_probs[key])
        best = max(best, max(buckets.values()))
    return best


# ---------------------------------------------------- ECC Bayes by hand


def enumerate_codewords(rows, n_data):
    """All x in {0,1}^n_data with every parity row satisfied."""
    out = []
    for x in range(1 << n_data):
        if all(bin(x & row).count("1") % 2 == 0 for row in rows):
            out.append(x)
    return out


def posterior_oracle(code_rows_list, weights, observed: int, n_data: int, q: Fraction):
    """Exact posterior over data words given the noisy observation.

    Data word drawn by: pick code i with prob weights[i], pick one of its
    codewords uniformly; each bit then flips independently with
    probability q before Eve sees it.
    """
    prior = [Fraction(0)] * (1 << n_data)
    for rows, w in zip(code_rows_list, weights):
        words = enumerate_codewords(rows, n_data)
        for x in words:
            prior[x] += Fraction(w) / len(words)
    post = []
    q = Fraction(q)
    for x in range(1 << n_data):
        flips = bin(x ^ observed).count("1")
        post.append(prior[x] * q**flips * (1 - q) ** (n_data - flips))
    total = sum(post)
    if total == 0:
        raise ZeroDivisionError("observation impossible under the model")
    return [p / total for p in post]


def map_success_oracle(code_rows_list, weights, n_data: int, q: Fraction, known: bool):
    """Exact MAP guessing success, averaging over codes and noise.

    known=True: Eve learns the code index, guesses argmax of that code's
    posterior.  known=False: she only has the mixture prior.
    """
    q = Fraction(q)

    def success_for_prior(prior):
        total = Fraction(0)
        for y in range(1 << n_data):
            best = Fraction(0)
            for x in range(1 << n_data):
                if prior[x] == 0:
                    continue
                flips = bin(x ^ y).count("1")
                like = prior[x] * q**flips * (1 - q) ** (n_data - flips)
                if like > best:
                    best = like
            total += best
        return total

    priors = []
    for rows in code_rows_list:
        words = enumerate_codewords(rows, n_data)
        vec = [Fraction(0)] * (1 << n_data)
        for x in words:
            vec[x] = Fraction(1, len(words))
        priors.append(vec)

    if known:
        return sum(Fraction(w) * success_for_prior(p) for w, p in zip(weights, priors))
    mixture = [
        sum(Fraction(w) * p[x] for w, p in zip(weights, priors))
        for x in range(1 << n_data)
    ]
    return success_for_prior(mixture)


# ------------------------------------------------------------- KPA by hand


def avg_guess_oracle(probs, n1: int, n2: int, subset):
    """sum over k1 of max_v P(K2* = v, K1 = k1), from the joint law."""
    groups = {}
    for key, p in enumerate(probs):
        k1 = key & ((1 << n1) - 1)
        k2 = key >> n1
        v = 0
        for out_pos, bit_pos in enumerate(subset):
            v |= ((k2 >> bit_pos) & 1) << out_pos
        groups[(k1, v)] = groups.get((k1, v), 0) + p
    total = 0
    for k1 in range(1 << n1):
        total += max(groups.get((k1, v), 0) for v in range(1 << len(subset)))
    return total


# ------------------------------------------- tuple-of-scalars reference law
#
# Every measure below is evaluated on the plain tuple of a law's entries
# (Fractions or floats) with scalar Python arithmetic, as the formulas
# read.  Where the package's float result comes out of a numpy reduction
# (a pairwise sum, a BLAS dot product), the reference performs that same
# reduction on the values it computed itself.


def is_exact(probs) -> bool:
    return all(isinstance(p, Fraction) for p in probs)


def ref_uniform(n: int, exact: bool) -> tuple:
    size = 1 << n
    return (Fraction(1, size),) * size if exact else (1.0 / size,) * size


def ref_distance(p, q):
    if is_exact(p) and is_exact(q):
        return sum((abs(a - b) for a, b in zip(p, q)), Fraction(0)) / 2
    return 0.5 * math.fsum(abs(float(a) - float(b)) for a, b in zip(p, q))


def ref_shannon(probs) -> float:
    return -math.fsum(float(p) * math.log2(float(p)) for p in probs if p > 0)


def ref_entropy_stats(probs) -> tuple:
    """(p1, min-entropy, Shannon entropy)."""
    p1 = max(probs)
    return p1, -math.log2(float(p1)), ref_shannon(probs)


def ref_avg_guess(probs, n1: int, n2: int, subset) -> tuple:
    """(average best guess of K2* given K1, its bound 2^-s + delta, verdict)."""
    exact = is_exact(probs)
    groups = {}
    for key, p in enumerate(probs):
        k1, k2 = key & ((1 << n1) - 1), key >> n1
        v = sum(((k2 >> pos) & 1) << j for j, pos in enumerate(subset))
        groups[(k1, v)] = groups.get((k1, v), 0) + p
    best = [max(groups[(k1, v)] for v in range(1 << len(subset))) for k1 in range(1 << n1)]
    delta = ref_distance(probs, ref_uniform(n1 + n2, exact))
    if exact:
        avg = sum(best, Fraction(0))
        bound = Fraction(1, 1 << len(subset)) + delta
        return avg, bound, avg <= bound
    avg = float(np.sum(np.array(best)))  # numpy's pairwise order
    bound = 1.0 / (1 << len(subset)) + delta
    return avg, bound, avg <= bound + 1e-9


def ref_bit_agreement(probs, n: int):
    guess = max(range(len(probs)), key=lambda k: (probs[k], -k))
    agree = [n - bin(k ^ guess).count("1") for k in range(len(probs))]
    if is_exact(probs):
        return sum((p * a for p, a in zip(probs, agree)), Fraction(0)) / n
    return float(np.dot(np.array([float(p) for p in probs]), np.array(agree) / n))  # BLAS order


def ref_mixture(probs, n: int, lam):
    """(uniform weight, residual entries), or None when no decomposition exists."""
    size = 1 << n
    if is_exact(probs):
        lam = Fraction(lam)
        lo = (1 - lam) / size
        if any(p < lo or p > lam + lo for p in probs):
            return None
        if lam == 0:
            return 1 - lam, ref_uniform(n, True)
        return 1 - lam, tuple((p - lo) / lam for p in probs)
    lam = min(max(float(lam), 0.0), 1.0)
    lo = (1.0 - lam) / size
    if any(p < lo - 1e-12 or p > lam + lo + 1e-12 for p in probs):
        return None
    if lam == 0.0:
        return 1.0 - lam, ref_uniform(n, False)
    raw = [max(float(p) - lo, 0.0) / lam for p in probs]
    total = sum(raw)
    return 1.0 - lam, tuple(r / total for r in raw)


def ref_probe(prior, rows) -> tuple:
    """(mutual information I(K; Y), d criterion) of a prior and conditional rows."""
    exact = is_exact(prior)
    size, width = len(prior), len(rows[0])
    joint = [[prior[k] * rows[k][y] for y in range(width)] for k in range(size)]
    if exact:
        marginal = [sum((joint[k][y] for k in range(size)), Fraction(0)) for y in range(width)]
    else:
        marginal = [math.fsum(joint[k][y] for k in range(size)) for y in range(width)]
    h_prior = ref_shannon(prior)
    h_cond = 0.0
    for y in range(width):
        py = float(marginal[y])
        if py > 0.0:
            h_cond += py * ref_shannon([float(joint[k][y]) / py for k in range(size)])
    info = min(max(h_prior - h_cond, 0.0), h_prior)
    if exact:
        d = sum(
            (abs(joint[k][y] - marginal[y] / size) for k in range(size) for y in range(width)),
            Fraction(0),
        ) / 2
    else:
        d = 0.5 * math.fsum(
            abs(float(joint[k][y]) - float(marginal[y]) / size)
            for k in range(size)
            for y in range(width)
        )
    return info, d


def gauss_cdf_mp(x, mean, sigma):
    z = (mpmath.mpf(x) - mpmath.mpf(mean)) / (mpmath.mpf(sigma) * mpmath.sqrt(2))
    return (1 + mpmath.erf(z)) / 2


def all_event_pairs(n: int):
    """Every (A, B) with B a proper nonempty subset of A, |A| >= 1."""
    size = 1 << n
    for r in range(1, size + 1):
        for event in itertools.combinations(range(size), r):
            for rb in range(1, r):
                for sub in itertools.combinations(event, rb):
                    yield event, sub
