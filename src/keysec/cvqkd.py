"""Continuous-variable QKD monitoring arithmetic.

Signal-level bookkeeping for an intercept-resend check: the users watch
the output level ``S*T`` of a source of ``S`` photons through
transmittance ``T``, with fractional uncertainties ``a`` (source) and
``b`` (transmittance).  Combined they blur the expected level by the
relative factor ``a + b - a*b = 1 - (1-a)(1-b)``, and that blur is what
an attacker's disturbance has to clear before anyone can see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .numerics import Number, ValidationError, check_scalar

__all__ = [
    "CvParams",
    "Uncertainty",
    "DetectabilityReport",
    "TradeoffPoint",
    "VERDICT_LOSS",
    "VERDICT_MASKED",
    "VERDICT_DETECTABLE",
    "output_uncertainty",
    "detectability_verdict",
    "false_alarm_tradeoff",
]

VERDICT_LOSS = "undetectable_loss_limit"
VERDICT_MASKED = "masked_by_uncertainty"
VERDICT_DETECTABLE = "potentially_detectable"


@dataclass(frozen=True)
class CvParams:
    """Source photon number ``s``, transmittance ``t``, and their fractional
    uncertainties ``a`` and ``b``."""

    s: float
    t: float
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "s", check_scalar(self.s, "photon number", lo=0, lo_open=True))
        object.__setattr__(self, "t", check_scalar(self.t, "transmittance", lo=0, hi=1, lo_open=True))
        for name in ("a", "b"):
            what = f"fractional uncertainty {name}"
            object.__setattr__(self, name, check_scalar(getattr(self, name), what, lo=0, hi=1, hi_open=True))


class Uncertainty(NamedTuple):
    relative: float
    absolute: float


class DetectabilityReport(NamedTuple):
    verdict: str
    loss_limited: bool
    masked: bool


class TradeoffPoint(NamedTuple):
    threshold: float
    false_alarm_probability: float
    miss_probability: float


def output_uncertainty(p: CvParams) -> Uncertainty:
    """Combined output blur: relative ``a + b - ab``, absolute ``(a+b-ab)*S*T``."""
    relative = p.a + p.b - p.a * p.b
    return Uncertainty(relative=relative, absolute=relative * p.s * p.t)


def detectability_verdict(
    p: CvParams, loss_threshold: float = 0.5, masking_threshold: float = 0.25
) -> DetectabilityReport:
    """Which impossibility, if any, blocks spotting an intercept-resend attack.

    Two independent conditions: output level ``S*T`` below the loss
    threshold (too little signal survives for the disturbance check to
    bind), and absolute uncertainty above the masking threshold (the
    legitimate blur swallows the attack signature).  Both flags are
    reported; when both hold the loss limit names the verdict.
    """
    loss_threshold, masking_threshold = (
        check_scalar(v, name, lo=0, hi=1, lo_open=True, hi_open=True)
        for v, name in ((loss_threshold, "loss_threshold"), (masking_threshold, "masking_threshold"))
    )
    level = p.s * p.t
    loss_limited = level < loss_threshold
    masked = output_uncertainty(p).absolute > masking_threshold
    if loss_limited:
        verdict = VERDICT_LOSS
    elif masked:
        verdict = VERDICT_MASKED
    else:
        verdict = VERDICT_DETECTABLE
    return DetectabilityReport(verdict=verdict, loss_limited=loss_limited, masked=masked)


def false_alarm_tradeoff(
    p: CvParams, threshold_grid: Sequence[Number], signature_shift: Number
) -> list:
    """Alarm-threshold sweep under a declared Gaussian fluctuation model.

    Modeling choice, not derived physics: the observed output level is
    Gaussian around ``S*T`` with standard deviation equal to the absolute
    uncertainty ``(a+b-ab)*S*T``, and the attack shifts the mean up by
    ``signature_shift`` (the signature magnitude is an input, not a
    prediction).  The alarm fires when the level exceeds the threshold,
    so along an ascending grid the false-alarm probability can only fall
    and the miss probability only rise.  Each is a Gaussian tail read as
    ``0.5 * erfc`` of its own side, so neither cancels to 0 far out.  Zero
    uncertainty degenerates to step functions.
    """
    thresholds = [check_scalar(t, "threshold", mode="float") for t in threshold_grid]
    if not thresholds:
        raise ValidationError("threshold grid must be non-empty")
    shift = check_scalar(signature_shift, "attack signature shift", lo=0, mode="float", lo_open=True)
    mean = p.s * p.t
    sd = output_uncertainty(p).absolute
    out = []
    for thr in thresholds:
        if sd == 0.0:
            fa = 1.0 if thr < mean else 0.0
            miss = 1.0 if thr >= mean + shift else 0.0
        else:
            # each tail by erfc of its own side: 1 - cdf (or 1 + erf) cancels to 0 about 9 sd out
            fa = 0.5 * math.erfc((thr - mean) / (sd * math.sqrt(2.0)))
            miss = 0.5 * math.erfc((mean + shift - thr) / (sd * math.sqrt(2.0)))
        out.append(TradeoffPoint(threshold=thr, false_alarm_probability=fa, miss_probability=miss))
    return out
