"""Self-check suite: one executable invariant per claim the library makes.

Run via ``keysec verify-all`` (or directly).  Each check is fast,
deterministic under the given seed, and touches a different module, so a
green suite is a cheap end-to-end smoke test of the whole package.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import budget as _budget
from . import cvqkd as _cvqkd
from . import ecpa as _ecpa
from . import mac as _mac
from .dist import (
    ClassicalProbeModel,
    HermitianState,
    KeyDistribution,
    d_criterion,
    entropy_stats,
    mutual_information,
    statistical_distance,
    trace_distance,
)
from .extremal import (
    EventSpec,
    check_event_bound,
    check_mixture_decomposition,
    construct_low_info_high_guess,
    construct_spike,
    max_conditional_deviation,
)
from .kpa import KeySplit, average_conditional_guess, conditional_breach_witness, eve_bit_agreement
from .numerics import SLACKS, ValidationError, binary_entropy, check_int, degraded_epsilon, ec_leak, slack

__all__ = ["InvariantResult", "run_invariant_suite"]


class InvariantResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_float_dist(rng: random.Random, n: int) -> KeyDistribution:
    raw = [rng.random() + 1e-12 for _ in range(1 << n)]
    total = math.fsum(raw)
    return KeyDistribution(n, [x / total for x in raw])


def _random_rational_dist(rng: random.Random, n: int) -> KeyDistribution:
    raw = [rng.randrange(61) for _ in range(1 << n)]  # weights 0..60
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return KeyDistribution(n, [Fraction(v, total) for v in raw])


def _check_delta_metric(rng: random.Random, n_max: int) -> tuple:
    n = min(3, n_max)
    for _ in range(30):
        p, q, r = (_random_float_dist(rng, n) for _ in range(3))
        dpq = statistical_distance(p, q)
        if dpq < 0 or abs(dpq - statistical_distance(q, p)) > slack("symmetry", dpq):
            return False, "symmetry/nonnegativity failed"
        if statistical_distance(p, p) != 0:
            return False, "identity of indiscernibles failed"
        if dpq > statistical_distance(p, r) + statistical_distance(r, q) + slack("rounding", dpq):
            return False, "triangle inequality failed"
    return True, "metric axioms on 30 random triples"


def _check_event_bound(rng: random.Random, n_max: int) -> tuple:
    for _ in range(40):
        p = _random_rational_dist(rng, 3)
        q = _random_rational_dist(rng, 3)
        for bits in range(1, 1 << 3):
            event = EventSpec(k for k in range(8) if (bits >> k) & 1)
            if not check_event_bound(p, q, event).holds:
                return False, f"event {sorted(event.members)} exceeded the distance"
    n = min(10, n_max)
    for _ in range(20):
        p = _random_float_dist(rng, n)
        q = _random_float_dist(rng, n)
        members = [k for k in range(1 << n) if rng.random() < 0.3] or [0]
        if not check_event_bound(p, q, EventSpec(members)).holds:
            return False, "random large event exceeded the distance"
    return True, f"exhaustive events at n=3, random events at n={n}"


def _check_trace_matches_delta(rng: random.Random, n_max: int) -> tuple:
    for n in (1, 2, 5):
        p = _random_float_dist(rng, n)
        q = _random_float_dist(rng, n)
        td = trace_distance(HermitianState.from_distribution(p), HermitianState.from_distribution(q))
        if abs(td - float(statistical_distance(p, q))) > slack("cross_formula", td):
            return False, f"diagonal states disagreed at n={n}"
    return True, f"diagonal trace distance equals statistical distance ({SLACKS['cross_formula'].size:g})"


def _check_mutual_information(rng: random.Random, n_max: int) -> tuple:
    for _ in range(15):
        n = rng.choice((1, 2))
        prior = _random_float_dist(rng, n)
        outcomes = rng.choice((2, 3))
        cond = []
        for _k in range(1 << n):
            row = [rng.random() + 1e-9 for _ in range(outcomes)]
            total = math.fsum(row)
            cond.append([x / total for x in row])
        model = ClassicalProbeModel(prior, cond)
        mi = mutual_information(model)
        h_k = entropy_stats(prior).shannon_bits
        marginal = [float(v) for v in model.outcome_marginal()]
        h_y = -math.fsum(v * math.log2(v) for v in marginal if v > 0)
        joint = [
            float(model.joint(k, y))
            for k in range(1 << n)
            for y in range(outcomes)
        ]
        h_ky = -math.fsum(v * math.log2(v) for v in joint if v > 0)
        if abs(mi - (h_k + h_y - h_ky)) > slack("cross_formula", mi):
            return False, "entropy-sum cross-formula disagreed"
        if not 0 <= mi <= h_k + slack("rounding", mi):
            return False, "mutual information escaped [0, H(K)]"
        if d_criterion(model) < 0:
            return False, "joint-vs-product distance went negative"
    return True, f"two formulas agree on 15 random probe models ({SLACKS['cross_formula'].size:g})"


def _check_binary_entropy(rng: random.Random, n_max: int) -> tuple:
    if binary_entropy(0) != 0 or binary_entropy(1) != 0 or binary_entropy(0.5) != 1:
        return False, "endpoint values wrong"
    for i in range(1, 50):
        q = i / 100
        if abs(binary_entropy(q) - binary_entropy(1 - q)) > slack("identity", q):
            return False, f"asymmetric at q={q}"
        mid = binary_entropy(0.5 * q + 0.5 * (q + 0.02))
        if mid + slack("rounding", mid) < 0.5 * (binary_entropy(q) + binary_entropy(q + 0.02)):
            return False, f"concavity violated near q={q}"
    return True, "symmetry and concavity on a 49-point grid"


def _check_spike_exact(rng: random.Random, n_max: int) -> tuple:
    for n in range(1, min(8, n_max) + 1):
        size = 1 << n
        for eps in (Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(size - 1, size)):
            res = construct_spike(n, eps)
            u = KeyDistribution.uniform(n, mode="rational")
            if statistical_distance(res.distribution, u) != eps:
                return False, f"distance not exact at n={n}, eps={eps}"
            if entropy_stats(res.distribution).p1 != Fraction(1, size) + eps:
                return False, f"peak not exact at n={n}, eps={eps}"
    return True, "distance and peak exact on a rational grid up to n=8"


def _check_mixture_biconditional(rng: random.Random, n_max: int) -> tuple:
    for _ in range(200):
        n = rng.choice((1, 2, 3, 4))
        p = _random_rational_dist(rng, n)
        lam = Fraction(rng.randrange(0, 11), 10)
        size = 1 << n
        lo = (1 - lam) / size
        hi = lam + lo
        feasible = all(lo <= pk <= hi for pk in p.probs)
        result = check_mixture_decomposition(p, lam)
        if feasible != (result is not None):
            return False, f"existence disagreed with the componentwise bounds at lam={lam}"
        if result is not None:
            rebuilt = [
                (1 - lam) * Fraction(1, size) + lam * r for r in result.residual.probs
            ]
            if tuple(rebuilt) != p.probs:
                return False, "reconstruction was not exact"
    return True, "existence iff componentwise bounds, 200 rational cases"


def _check_conditional_deviation(rng: random.Random, n_max: int) -> tuple:
    witness = max_conditional_deviation(2, Fraction(1, 10), EventSpec({0, 1}), EventSpec({0}))
    if witness.deviation != Fraction(1, 5):
        return False, f"documented witness gave {witness.deviation}, wanted 1/5"
    for _ in range(40):
        n = rng.choice((2, 3))
        size = 1 << n
        a_members = set(rng.sample(range(size), rng.randrange(1, size)))
        b_members = set(rng.sample(sorted(a_members), rng.randrange(1, len(a_members) + 1)))
        eps = Fraction(rng.randrange(0, 8), 16)
        res = max_conditional_deviation(n, eps, EventSpec(a_members), EventSpec(b_members))
        u = KeyDistribution.uniform(n, mode="rational")
        if statistical_distance(res.distribution, u) > eps:
            return False, "construction overspent the distance budget"
        if res.deviation > eps / Fraction(len(a_members), size):
            return False, "deviation exceeded eps / U(A)"
    return True, "witness exact; budget and cap respected on 40 random cases"


def _check_low_info_monotone(rng: random.Random, n_max: int) -> tuple:
    n = 8
    lams = [0.25, 0.4, 0.5, 0.75, 1.0]
    fams = [construct_low_info_high_guess(n, lam) for lam in lams]
    infos = [f.info_bits for f in fams]
    if any(b > a + slack("rounding", a) for a, b in zip(infos, infos[1:])):
        return False, "information not decreasing in the decay rate"
    if any(f.info_bits > f.info_bound_bits + slack("bits", f.info_bits) for f in fams):
        return False, "information exceeded its stated bound"
    return True, "information decreasing and within bound on a 5-point grid"


def _check_kpa_average(rng: random.Random, n_max: int) -> tuple:
    for n in (2, 3, 4, 5):
        u = KeyDistribution.uniform(n, mode="rational")
        for n1 in range(1, n):
            split = KeySplit(n1, n - n1)
            res = average_conditional_guess(u, split)
            if res.avg_p1 != Fraction(1, 1 << split.subset_size):
                return False, f"uniform case inexact at {n1}|{n - n1}"
    n = max(2, min(10, n_max))  # a 2-bit key is the smallest that splits
    for _ in range(25):
        p = _random_float_dist(rng, n)
        n1 = rng.randrange(1, n)
        bits = tuple(sorted(rng.sample(range(n - n1), rng.randrange(1, n - n1 + 1))))
        res = average_conditional_guess(p, KeySplit(n1, n - n1, bits))
        if not res.holds:
            return False, f"bound failed at split {n1}|{n - n1} subset {bits}"
    chain = [tuple(range(j)) for j in range(1, n)]
    p = _random_float_dist(rng, n)
    vals = [
        average_conditional_guess(p, KeySplit(1, n - 1, bits)).avg_p1 for bits in chain
    ]
    if any(b > a + slack("rounding", a) for a, b in zip(vals, vals[1:])):
        return False, "average guess increased as the target grew"
    return True, f"uniform exact; bound and monotonicity at n={n}"


def _check_kpa_breach(rng: random.Random, n_max: int) -> tuple:
    split = KeySplit(2, 2)
    for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        res = conditional_breach_witness(4, eps, split)
        u = KeyDistribution.uniform(4, mode="rational")
        if statistical_distance(res.distribution, u) > eps:
            return False, f"breach construction overspent at eps={eps}"
        if res.worst_conditional_p < Fraction(1, 4):
            return False, "conditional guess fell below the uniform baseline"
    if conditional_breach_witness(4, Fraction(1, 4), split).worst_conditional_p != 1:
        return False, "saturating budget did not pin the slice"
    if eve_bit_agreement(KeyDistribution.point_mass(3, at=5, mode="rational")) != 1:
        return False, "point mass should give full bit agreement"
    return True, "budget respected; slice pinned at eps=1/4; point mass agrees fully"


def _check_mac_uniform(rng: random.Random, n_max: int) -> tuple:
    for m_blk in (1, 2):
        spec = _mac.HashFamilySpec(field_bits=3, message_blocks=m_blk)
        eps = _mac.asu_epsilon(spec)
        keys = _mac.MacKeyModel(KeyDistribution.uniform(3, mode="rational"))
        for attack in ("impersonation", "substitution"):
            if _mac.attack_success(spec, keys, attack) > eps:
                return False, f"uniform-key {attack} exceeded eps at m_blk={m_blk}"
        if m_blk == 1:
            explicit = _mac.MacKeyModel(keys.hash_key_dist, KeyDistribution.uniform(3, mode="rational"))
            ideal = _mac.attack_success(spec, keys, "substitution")
            if ideal != _mac.attack_success(spec, explicit, "substitution"):
                return False, "ideal-pad shortcut disagreed with full enumeration (substitution)"
            # impersonation is closed form: a biased mask against every (message, tag) pair by scalar Horner
            weights = [rng.randint(1, 9) for _ in range(16)]
            prior, mask = ([Fraction(w, sum(part)) for w in part] for part in (weights[:8], weights[8:]))
            best = 0
            for message in range(spec.message_space):
                hashes = [spec.hash_value(alpha, message) for alpha in range(8)]
                best = max(best, *(sum(p * mask[t ^ h] for p, h in zip(prior, hashes)) for t in range(8)))
            biased = _mac.MacKeyModel(KeyDistribution(3, prior), KeyDistribution(3, mask))
            if _mac.attack_success(spec, biased, "impersonation") != best:
                return False, "masked impersonation disagreed with a scalar enumeration"
    spec2 = _mac.HashFamilySpec(field_bits=3, message_blocks=2)
    witness = _mac.forgeable_key_distribution(spec2)
    forged = _mac.attack_success(spec2, _mac.MacKeyModel(witness.distribution), "substitution")
    if forged != 1:
        return False, f"witness key reached only {forged}"
    base = degraded_epsilon(Fraction(1, 8), Fraction(1, 100), Fraction(1, 100), 2)
    worse = degraded_epsilon(Fraction(1, 8), Fraction(2, 100), Fraction(1, 100), 3)
    if worse.hash_key_level < base.hash_key_level or worse.tag_key_level < base.tag_key_level:
        return False, "degradation not monotone"
    return True, "uniform keys within eps; forgery witness certain; degradation monotone"


def _check_ecpa_ordering(rng: random.Random, n_max: int) -> tuple:
    n = 6
    for _ in range(3):
        codes = [
            _ecpa.random_parity_check(n, rng.randrange(1, 4), rng) for _ in range(2)
        ]
        ensemble = _ecpa.CodeEnsemble(codes, (0.5, 0.5))
        cmp = _ecpa.leakage_comparison(ensemble, _ecpa.EveChannel(0.08))
        tol = slack("rounding", *cmp)
        if not cmp.p1_code_known_avg + tol >= cmp.p1_mixture >= cmp.p1_no_code - tol:
            return False, f"ordering violated: {cmp}"
    single = _ecpa.CodeEnsemble([_ecpa.random_parity_check(n, 2, rng)], (1.0,))
    cmp = _ecpa.leakage_comparison(single, _ecpa.EveChannel(0.1))
    if cmp.p1_code_known_avg != cmp.p1_mixture:
        return False, "single-code mixture did not coincide with the known-code value"
    leaks = [ec_leak(1.2, 100, q / 20) for q in range(11)]
    if any(b < a for a, b in zip(leaks, leaks[1:])):
        return False, "disclosure formula not monotone in the error rate"
    return True, "ordering on random ensembles; single-code coincidence exact"


def _check_budget(rng: random.Random, n_max: int) -> tuple:
    for exp in ("1", "1/2", "1/3"):
        gap = _budget.guarantee_gap(-9, -15, exp)
        required = Fraction(-15) / _budget.as_markov_exponent(exp)
        level = _budget.individual_level(_budget.LogBudget(required, exp))
        if level != Fraction(-15):
            return False, f"round trip failed for exponent {exp}"
        if gap != Fraction(-9) - required:
            return False, "gap arithmetic inconsistent"
    a = _budget.accumulated_failure(-14, 100, 3600)
    b = _budget.accumulated_failure(-14, 100, 7200)
    if abs((b.log10_total - a.log10_total) - math.log10(2)) > slack("rounding", b.log10_total):
        return False, "doubling the duration did not add log10(2)"
    for n in (1, 7, 49, 100):
        if _budget.near_uniform_bits(-n * math.log10(2.0), 1) != n:
            return False, f"2^-{n} level did not invert to {n} bits"
    if _budget.markov_tail_bound(Fraction(3), Fraction(2)) != 1:
        return False, "tail bound exceeded 1"
    try:
        _budget.as_markov_exponent("1/4")
        return False, "quarter-root exponent was accepted"
    except ValidationError:
        pass
    return True, "round trips, additivity, bit inversion, exponent policing"


def _check_cvqkd(rng: random.Random, n_max: int) -> tuple:
    for _ in range(50):
        a, b = rng.random() * 0.99, rng.random() * 0.99
        p = _cvqkd.CvParams(s=1.5, t=0.9, a=a, b=b)
        rel = _cvqkd.output_uncertainty(p).relative
        if abs(rel - (1 - (1 - a) * (1 - b))) > slack("identity", rel):
            return False, "product identity failed"
    low = _cvqkd.detectability_verdict(_cvqkd.CvParams(1.0, 0.4, 0.01, 0.01))
    high = _cvqkd.detectability_verdict(_cvqkd.CvParams(1.5, 1.0, 0.3, 0.3))
    clean = _cvqkd.detectability_verdict(_cvqkd.CvParams(1.5, 1.0, 0.01, 0.01))
    if (low.verdict, high.verdict, clean.verdict) != (
        _cvqkd.VERDICT_LOSS,
        _cvqkd.VERDICT_MASKED,
        _cvqkd.VERDICT_DETECTABLE,
    ):
        return False, "verdict cases misclassified"
    p = _cvqkd.CvParams(2.0, 0.9, 0.05, 0.05)
    grid = [0.5 + 0.05 * i for i in range(40)]
    pts = _cvqkd.false_alarm_tradeoff(p, grid, 0.4)
    fas = [pt.false_alarm_probability for pt in pts]
    misses = [pt.miss_probability for pt in pts]
    if any(b > a + slack("rounding", a) for a, b in zip(fas, fas[1:])):
        return False, "false alarms increased along an ascending grid"
    if any(b + slack("rounding", b) < a for a, b in zip(misses, misses[1:])):
        return False, "misses decreased along an ascending grid"
    if not all(0 <= v <= 1 for v in fas + misses):
        return False, "error probabilities escaped [0, 1]"
    return True, "identity, verdicts, and threshold monotonicity"


_CHECKS: list = [
    ("delta_is_a_metric", _check_delta_metric),
    ("event_probability_within_distance", _check_event_bound),
    ("trace_distance_matches_diagonal_delta", _check_trace_matches_delta),
    ("mutual_information_cross_formula", _check_mutual_information),
    ("binary_entropy_shape", _check_binary_entropy),
    ("spike_distance_and_peak_exact", _check_spike_exact),
    ("mixture_decomposition_biconditional", _check_mixture_biconditional),
    ("conditional_deviation_budget_and_cap", _check_conditional_deviation),
    ("low_info_family_monotone", _check_low_info_monotone),
    ("split_key_average_bound", _check_kpa_average),
    ("split_key_breach_budget", _check_kpa_breach),
    ("mac_uniform_key_guarantees", _check_mac_uniform),
    ("code_ensemble_information_ordering", _check_ecpa_ordering),
    ("budget_log_domain_arithmetic", _check_budget),
    ("cv_uncertainty_and_verdicts", _check_cvqkd),
]


def run_invariant_suite(n_max: int = 10, seed: int = 42) -> list:
    """Run every invariant check; returns one result per check."""
    n_max = check_int(n_max, "n_max")
    results = []
    for name, fn in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            passed, detail = fn(rng, n_max)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(InvariantResult(name=name, passed=passed, detail=detail))
    return results
