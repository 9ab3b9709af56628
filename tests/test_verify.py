import re
from fractions import Fraction as F

import pytest

import keysec.budget
import keysec.cvqkd
import keysec.ecpa
import keysec.mac
from keysec import run_invariant_suite, verify
from keysec.cvqkd import Uncertainty
from keysec.ecpa import LeakageComparison
from keysec.extremal import EventBoundReport


@pytest.mark.parametrize("n_max", [1, 2, 8])
def test_suite_passes_and_covers_every_module(n_max):
    results = run_invariant_suite(n_max=n_max, seed=42)
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    # at least one invariant per module family
    for prefix in ("delta", "spike", "mixture", "conditional", "split_key",
                   "mac", "code", "budget", "cv"):
        assert any(prefix in n for n in names), prefix


def test_suite_is_deterministic():
    a = run_invariant_suite(n_max=6, seed=7)
    b = run_invariant_suite(n_max=6, seed=7)
    assert a == b
    c = run_invariant_suite(n_max=6, seed=8)
    assert [r.name for r in c] == [r.name for r in a]


#: check name -> (module, a function the check calls from it, a wrong stand-in built from the
#: real one, a pattern of the detail the check must report); a name `keysec.verify` imports
#: with `from` is patched there, a name it reads as `_mac.attack_success` in its own module
BREAKS = {
    "delta_is_a_metric": (verify, "statistical_distance", lambda real: lambda p, q=None: -1.0,
                          "symmetry/nonnegativity failed"),
    "event_probability_within_distance": (verify, "check_event_bound",
                                          lambda real: lambda p, q, event: EventBoundReport(1, 0, False),
                                          r"event \[0\] exceeded the distance"),
    "trace_distance_matches_diagonal_delta": (verify, "trace_distance", lambda real: lambda a, b: 2.0,
                                              "diagonal states disagreed at n=1"),
    "mutual_information_cross_formula": (verify, "mutual_information", lambda real: lambda model: -1.0,
                                         "entropy-sum cross-formula disagreed"),
    "binary_entropy_shape": (verify, "binary_entropy", lambda real: lambda q: 0.5, "endpoint values wrong"),
    "spike_distance_and_peak_exact": (verify, "construct_spike", lambda real: lambda n, eps: real(n, 0),
                                      "distance not exact at n=1, eps=1/7"),
    "mixture_decomposition_biconditional": (verify, "check_mixture_decomposition", lambda real: lambda p, lam: None,
                                            r"existence disagreed with the componentwise bounds at lam=\S+"),
    "conditional_deviation_budget_and_cap": (verify, "max_conditional_deviation",
                                             lambda real: lambda n, eps, a, b: real(n, 0, a, b),
                                             "documented witness gave 0, wanted 1/5"),
    "low_info_family_monotone": (verify, "construct_low_info_high_guess",
                                 lambda real: lambda n, lam: real(n, lam)._replace(info_bits=lam),
                                 "information not decreasing in the decay rate"),
    "split_key_average_bound": (verify, "average_conditional_guess",
                                lambda real: lambda p, split: real(p, split)._replace(avg_p1=F(1)),
                                r"uniform case inexact at 1\|1"),
    "split_key_breach_budget": (verify, "conditional_breach_witness",
                                lambda real: lambda n, eps, split: real(n, F(1, 2), split),
                                "breach construction overspent at eps=0"),
    "mac_uniform_key_guarantees": (keysec.mac, "attack_success", lambda real: lambda *args, **kwargs: F(1),
                                   "uniform-key impersonation exceeded eps at m_blk=1"),
    "code_ensemble_information_ordering": (
        keysec.ecpa, "leakage_comparison", lambda real: lambda ensemble, channel: LeakageComparison(0.5, 0.1, 0.3),
        r"ordering violated: LeakageComparison\(p1_no_code=0.5, p1_code_known_avg=0.1, p1_mixture=0.3\)"),
    "budget_log_domain_arithmetic": (keysec.budget, "guarantee_gap", lambda real: lambda *args: F(0),
                                     "gap arithmetic inconsistent"),
    "cv_uncertainty_and_verdicts": (keysec.cvqkd, "output_uncertainty", lambda real: lambda p: Uncertainty(2.0, 2.0),
                                    "product identity failed"),
}


def test_every_check_has_a_break():
    assert sorted(BREAKS) == sorted(name for name, _ in verify._CHECKS)


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_a_check_fails_on_the_fault_it_names(name, monkeypatch):
    module, attr, wrong, detail = BREAKS[name]
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    monkeypatch.setattr(verify, "_CHECKS", [entry for entry in verify._CHECKS if entry[0] == name])
    [result] = run_invariant_suite(n_max=10, seed=42)
    assert result.name == name and not result.passed
    assert re.fullmatch(detail, result.detail), result.detail


def test_the_budget_check_does_not_read_a_crash_as_a_refusal(monkeypatch):
    """Only a `ValidationError` is the refusal of the quarter-root exponent; a reader that
    crashes on ``"1/4"`` fails the check."""
    real = keysec.budget.as_markov_exponent

    def crashes_on_a_quarter(value):
        if value == "1/4":
            raise TypeError("a broken exponent reader")
        return real(value)

    monkeypatch.setattr(keysec.budget, "as_markov_exponent", crashes_on_a_quarter)
    budget_only = [entry for entry in verify._CHECKS if entry[0] == "budget_log_domain_arithmetic"]
    monkeypatch.setattr(verify, "_CHECKS", budget_only)
    [result] = run_invariant_suite(n_max=10, seed=42)
    assert not result.passed and result.detail == "raised TypeError: a broken exponent reader"
