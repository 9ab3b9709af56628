"""Output-uncertainty propagation and detectability verdicts.

Tradeoff probabilities are frozen from an mpmath Gaussian-CDF oracle at
60 digits.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracles
from keysec import (
    CvParams,
    ValidationError,
    detectability_verdict,
    false_alarm_tradeoff,
    output_uncertainty,
)

VERDICT_LOSS = "undetectable_loss_limit"
VERDICT_MASKED = "masked_by_uncertainty"
VERDICT_OK = "potentially_detectable"


def test_params_validation():
    CvParams(s=1.0, t=0.5, a=0.0, b=0.99)
    with pytest.raises(ValidationError):
        CvParams(s=0.0, t=0.5, a=0.1, b=0.1)
    with pytest.raises(ValidationError):
        CvParams(s=1.0, t=1.5, a=0.1, b=0.1)
    with pytest.raises(ValidationError):
        CvParams(s=1.0, t=0.5, a=1.0, b=0.1)
    with pytest.raises(ValidationError):
        CvParams(s=1.0, t=0.5, a=0.1, b=-0.1)


def test_uncertainty_documented_case():
    u = output_uncertainty(CvParams(s=1.0, t=1.0, a=0.01, b=0.01))
    assert u.relative == pytest.approx(0.0199, abs=1e-12)
    assert u.absolute == pytest.approx(0.0199, abs=1e-12)
    scaled = output_uncertainty(CvParams(s=2.0, t=0.5, a=0.01, b=0.01))
    assert scaled.relative == pytest.approx(0.0199, abs=1e-12)
    assert scaled.absolute == pytest.approx(0.0199, abs=1e-12)


def test_uncertainty_edge_cases():
    assert output_uncertainty(CvParams(s=1, t=1, a=0.0, b=0.3)).relative == pytest.approx(0.3)
    assert output_uncertainty(CvParams(s=1, t=1, a=0.0, b=0.0)).relative == 0.0


@given(st.floats(0, 0.999), st.floats(0, 0.999))
def test_uncertainty_identity_and_symmetry(a, b):
    pa = output_uncertainty(CvParams(s=1.0, t=1.0, a=a, b=b))
    pb = output_uncertainty(CvParams(s=1.0, t=1.0, a=b, b=a))
    assert pa.relative == pytest.approx(pb.relative, abs=1e-12)
    assert pa.relative == pytest.approx(1 - (1 - a) * (1 - b), abs=1e-12)
    assert 0 <= pa.relative <= 1


def test_verdicts_documented_cases():
    loss = detectability_verdict(CvParams(s=0.8, t=0.5, a=0.01, b=0.01))  # ST = 0.4
    assert loss.verdict == VERDICT_LOSS and loss.loss_limited and not loss.masked
    masked = detectability_verdict(CvParams(s=1.5, t=1.0, a=0.2, b=0.0))  # blur = 0.3
    assert masked.verdict == VERDICT_MASKED and masked.masked and not masked.loss_limited
    ok = detectability_verdict(CvParams(s=1.5, t=1.0, a=0.01, b=0.01))
    assert ok.verdict == VERDICT_OK and not ok.masked and not ok.loss_limited


def test_verdict_precedence_when_both_hold():
    # ST = 0.4 < 0.5 and blur = 0.99 * 0.4 = 0.396 > 0.25: loss wins, both flagged
    rep = detectability_verdict(CvParams(s=0.8, t=0.5, a=0.9, b=0.9))
    assert rep.verdict == VERDICT_LOSS
    assert rep.loss_limited and rep.masked


def test_verdict_threshold_knobs():
    p = CvParams(s=0.8, t=0.5, a=0.01, b=0.01)
    assert detectability_verdict(p, loss_threshold=0.3).verdict == VERDICT_OK
    q = CvParams(s=1.5, t=1.0, a=0.2, b=0.0)
    assert detectability_verdict(q, masking_threshold=0.35).verdict == VERDICT_OK
    with pytest.raises(ValidationError):
        detectability_verdict(p, loss_threshold=0.0)
    with pytest.raises(ValidationError):
        detectability_verdict(p, masking_threshold=1.0)


def test_verdict_monotone_in_loss():
    base = CvParams(s=1.5, t=1.0, a=0.01, b=0.01)
    assert detectability_verdict(base).verdict == VERDICT_OK
    for t in (0.5, 0.3, 0.1):
        rep = detectability_verdict(CvParams(s=0.9, t=t, a=0.01, b=0.01))
        assert rep.verdict == VERDICT_LOSS


def test_tradeoff_frozen():
    p = CvParams(s=1.0, t=1.0, a=0.1, b=0.1)  # width 0.19
    pts = false_alarm_tradeoff(p, [0.9, 1.0, 1.1, 1.2], 0.2)
    assert [pt.threshold for pt in pts] == [0.9, 1.0, 1.1, 1.2]
    assert pts[0].false_alarm_probability == pytest.approx(0.700665592871117, abs=1e-12)
    assert pts[0].miss_probability == pytest.approx(0.057174064871100, abs=1e-12)
    assert pts[1].false_alarm_probability == pytest.approx(0.5, abs=1e-12)
    assert pts[3].miss_probability == pytest.approx(0.5, abs=1e-12)
    assert pts[3].false_alarm_probability == pytest.approx(0.146254939091943, abs=1e-12)


def test_tradeoff_far_tail_does_not_underflow():
    # 10 sd above the mean, 1 - cdf would round to 0; the tail is ~7.6e-24
    p = CvParams(s=1.0, t=1.0, a=0.1, b=0.1)
    mean, sd = p.s * p.t, output_uncertainty(p).absolute
    thr = mean + 10 * sd
    (pt,) = false_alarm_tradeoff(p, [thr], 0.2)
    expected = 1 - oracles.gauss_cdf_mp(thr, mean, sd)
    assert pt.false_alarm_probability > 0
    assert pt.false_alarm_probability == pytest.approx(float(expected), rel=1e-12, abs=0)


@pytest.mark.parametrize("p, shift, thr", [
    # 10 sd below the attacked mean, 1 + erf would round to 0; the tail is ~7.6e-24
    (CvParams(s=1.0, t=1.0, a=0.1, b=0.1), 0.2, 1.2 - 10 * 0.19),
    (CvParams(s=1.5, t=0.9, a=0.05, b=0.1), 0.1, 0.5),  # 4.9 sd below it: 1 + erf was off by 2.1e-11
], ids=["10-sd-below", "golden-argv"])
def test_tradeoff_lower_tail_does_not_cancel(p, shift, thr):
    mean, sd = p.s * p.t, output_uncertainty(p).absolute
    (pt,) = false_alarm_tradeoff(p, [thr], shift)
    expected = oracles.gauss_cdf_mp(thr, mean + shift, sd)
    assert pt.miss_probability > 0
    assert pt.miss_probability == pytest.approx(float(expected), rel=1e-12, abs=0)  # approx adds abs=1e-12 else


def test_tradeoff_zero_width_is_a_step():
    p = CvParams(s=1.0, t=1.0, a=0.0, b=0.0)
    pts = false_alarm_tradeoff(p, [0.9, 1.0, 1.05, 1.1, 1.3], 0.2)
    assert [pt.false_alarm_probability for pt in pts] == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert [pt.miss_probability for pt in pts] == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_tradeoff_monotone_and_bounded():
    p = CvParams(s=1.2, t=0.9, a=0.15, b=0.05)
    grid = [0.5 + 0.05 * i for i in range(20)]
    pts = false_alarm_tradeoff(p, grid, 0.3)
    fas = [pt.false_alarm_probability for pt in pts]
    misses = [pt.miss_probability for pt in pts]
    assert all(0 <= v <= 1 for v in fas + misses)
    assert all(a >= b - 1e-12 for a, b in zip(fas, fas[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(misses, misses[1:]))


def test_tradeoff_wide_noise_has_no_good_threshold():
    # width far above the shift: no threshold gets both errors under 1/4
    p = CvParams(s=1.0, t=1.0, a=0.4, b=0.4)  # width 0.64 vs shift 0.1
    grid = [0.5 + i * 0.02 for i in range(60)]
    pts = false_alarm_tradeoff(p, grid, 0.1)
    assert all(
        max(pt.false_alarm_probability, pt.miss_probability) > 0.25 for pt in pts
    )


def test_tradeoff_validation():
    p = CvParams(s=1.0, t=1.0, a=0.1, b=0.1)
    with pytest.raises(ValidationError):
        false_alarm_tradeoff(p, [], 0.2)
    with pytest.raises(ValidationError):
        false_alarm_tradeoff(p, [1.0], 0.0)
