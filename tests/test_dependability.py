"""Outage threshold fixed point and renewal-based mission reliability."""

import math

import numpy as np
import pytest

from fasdep.dependability import (
    FblLink,
    decision_threshold_rho,
    fbl_threshold_eta,
    fbl_threshold_trace,
    mission_reliability,
    mttff,
)

import oracles

# Pinned by tests/oracles.py (50-digit mpmath fixed point, same stopping rule).
ETA_BASE_POINT = 0.10600523963376675   # R=0.1, n=1000, eps=1e-2, tol=1e-4
RHO_BASE_POINT = 0.10295884596952647   # sqrt(eta / 10)

BASE_LINK = FblLink(blocklength=1000, error_target=1e-2, rate=0.1, avg_snr=10.0)


# ---------------------------------------------------------------------------
# Threshold fixed point
# ---------------------------------------------------------------------------

def test_threshold_pinned_against_extended_precision():
    assert fbl_threshold_eta(BASE_LINK) == pytest.approx(ETA_BASE_POINT, rel=1e-6)


def test_threshold_converges_quickly():
    trace = fbl_threshold_trace(BASE_LINK)
    assert len(trace) < 100
    assert abs(trace[-1] - trace[-2]) < BASE_LINK.eta_tol


def test_trace_descends_from_unit_radical_start():
    """First iterate overshoots (radical = 1); the rest decrease monotonically."""
    trace = fbl_threshold_trace(BASE_LINK)
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_half_error_target_collapses_to_shannon_gap():
    """eps = 1/2 zeroes the dispersion penalty: eta = 2^R - 1 exactly."""
    for rate in (0.1, 1.0, 2.0):
        link = FblLink(blocklength=500, error_target=0.5, rate=rate, avg_snr=5.0)
        assert fbl_threshold_eta(link) == 2.0**rate - 1.0


def test_threshold_monotone_in_rate_and_error():
    """eta grows with the rate demanded and shrinks as errors are tolerated."""
    etas_r = [fbl_threshold_eta(
        FblLink(blocklength=1000, error_target=1e-2, rate=r, avg_snr=10.0))
        for r in np.linspace(0.05, 2.0, 12)]
    assert all(b > a for a, b in zip(etas_r, etas_r[1:]))
    etas_e = [fbl_threshold_eta(
        FblLink(blocklength=1000, error_target=e, rate=0.1, avg_snr=10.0))
        for e in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.4)]
    assert all(b < a for a, b in zip(etas_e, etas_e[1:]))


def test_threshold_matches_oracle_across_grid():
    for rate in (0.05, 0.5, 1.5):
        for eps in (1e-4, 1e-2, 0.2):
            link = FblLink(blocklength=800, error_target=eps, rate=rate,
                           avg_snr=10.0)
            want = oracles.fbl_eta_mp(rate, 800, eps, link.eta_tol)
            assert fbl_threshold_eta(link) == pytest.approx(want, rel=1e-6)


def test_link_validation():
    with pytest.raises(ValueError):
        FblLink(blocklength=0, error_target=1e-2, rate=0.1, avg_snr=10.0)
    with pytest.raises(ValueError):
        FblLink(blocklength=1000, error_target=0.0, rate=0.1, avg_snr=10.0)
    with pytest.raises(ValueError):
        FblLink(blocklength=1000, error_target=1.0, rate=0.1, avg_snr=10.0)
    with pytest.raises(ValueError):
        FblLink(blocklength=1000, error_target=1e-2, rate=0.0, avg_snr=10.0)
    with pytest.raises(ValueError):
        FblLink(blocklength=1000, error_target=1e-2, rate=0.1, avg_snr=0.0)
    with pytest.raises(ValueError):
        FblLink(blocklength=1000, error_target=1e-2, rate=0.1, avg_snr=10.0,
                eta_tol=0.0)


# ---------------------------------------------------------------------------
# Decision threshold
# ---------------------------------------------------------------------------

def test_rho_pinned_value():
    assert decision_threshold_rho(ETA_BASE_POINT, 10.0) == pytest.approx(
        RHO_BASE_POINT, rel=1e-12)


def test_rho_snr_scaling():
    # quadrupling the SNR halves the required envelope
    assert decision_threshold_rho(0.5, 4.0) == pytest.approx(
        0.5 * decision_threshold_rho(0.5, 1.0), rel=1e-13)


def test_state_input_validation():
    with pytest.raises(ValueError):
        decision_threshold_rho(-0.1, 1.0)
    with pytest.raises(ValueError):
        decision_threshold_rho(0.1, 0.0)


# ---------------------------------------------------------------------------
# Renewal process summaries
# ---------------------------------------------------------------------------

def test_mttff_inverts_rate():
    assert mttff(4.0) == 0.25
    assert mttff(0.0) == math.inf
    assert mttff(math.inf) == 0.0
    with pytest.raises(ValueError):
        mttff(-1.0)


def test_reliability_endpoints():
    assert mission_reliability(0.0, 3.0) == 1.0
    assert mission_reliability(5.0, math.inf) == 1.0
    assert mission_reliability(1e9, 1.0) == pytest.approx(0.0, abs=1e-300)


def test_reliability_memoryless():
    """Surviving T1 then T2 equals surviving T1 + T2."""
    mt = 7.3
    for t1, t2 in ((0.5, 1.5), (2.0, 2.0), (0.1, 9.0)):
        joint = mission_reliability(t1 + t2, mt)
        split = mission_reliability(t1, mt) * mission_reliability(t2, mt)
        assert joint == pytest.approx(split, rel=1e-14)


def test_reliability_validation():
    with pytest.raises(ValueError):
        mission_reliability(-1.0, 2.0)
    with pytest.raises(ValueError):
        mission_reliability(1.0, -0.5)
    # MTTFF 0 is a link that is already down: any mission of positive length fails
    assert mission_reliability(1.0, 0.0) == 0.0
    assert mission_reliability(1e-9, 0.0) == 0.0
    assert mission_reliability(0.0, 0.0) == 1.0
