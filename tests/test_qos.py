"""Effective capacity/bandwidth chain and the drained-power model."""

import math
import warnings

import numpy as np
import pytest

from fasdep.channel import FasChannel
from fasdep.dependability import FblLink
from fasdep.pipeline import MissionSystem
from fasdep.qos import (
    QosProfile,
    effective_bandwidth,
    max_arrival_rate,
    mission_effective_capacity,
    total_power,
)

import oracles

# Pinned by tests/oracles.py.
MEC_BASE_POINT = 0.099989482963496664  # theta=1e-3, n=1000, R=0.1, w=0.9999
RMAX_BASE_POINT = 0.079996800255977817  # theta=1e-3, S=0.5, mec=0.08
POWER_BASE_POINT = 0.909               # phi=5, load=0.04/0.1, default profile

PROFILE = QosProfile()


# ---------------------------------------------------------------------------
# Mission effective capacity
# ---------------------------------------------------------------------------

def test_mec_pinned_against_extended_precision():
    assert mission_effective_capacity(1e-3, 1000, 0.1, 0.9999) == pytest.approx(
        MEC_BASE_POINT, rel=1e-13)


def test_mec_exact_endpoints():
    assert mission_effective_capacity(1e-3, 1000, 0.1, 1.0) == 0.1
    assert mission_effective_capacity(1e-3, 1000, 0.1, 0.0) == 0.0


def test_mec_never_exceeds_rate():
    rng = np.random.default_rng(15)
    for _ in range(200):
        theta = float(rng.uniform(1e-4, 1.0))
        rate = float(rng.uniform(0.01, 2.0))
        w = float(rng.uniform(0.0, 1.0))
        mec = mission_effective_capacity(theta, 1000, rate, w)
        assert 0.0 <= mec <= rate


def test_mec_monotone_in_reliability():
    vals = [mission_effective_capacity(1e-3, 1000, 0.1, w)
            for w in np.linspace(0.0, 1.0, 50)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_mec_decreasing_in_qos_exponent():
    vals = [mission_effective_capacity(t, 1000, 0.1, 0.99)
            for t in np.geomspace(1e-4, 1.0, 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_mec_matches_oracle_grid():
    for theta in (1e-4, 1e-2):
        for w in (0.3, 0.95):
            got = mission_effective_capacity(theta, 500, 0.2, w)
            want = oracles.mec_mp(theta, 500, 0.2, w)
            assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Effective bandwidth and its inversion
# ---------------------------------------------------------------------------

def test_eb_zero_arrivals_need_no_bandwidth():
    assert effective_bandwidth(0.1, 0.0, 0.5) == 0.0


def test_eb_steady_source_is_transparent():
    # S = 1 has no OFF state: EB equals the arrival rate
    assert effective_bandwidth(0.2, 0.7, 1.0) == pytest.approx(0.7, rel=1e-13)


def test_rmax_pinned_against_bisection():
    assert max_arrival_rate(1e-3, 0.5, 0.08) == pytest.approx(
        RMAX_BASE_POINT, rel=1e-12)
    assert max_arrival_rate(1e-3, 0.5, 0.08) == pytest.approx(
        oracles.rmax_bisect_mp(1e-3, 0.5, 0.08), rel=1e-10)


def test_rmax_round_trip_is_exact():
    """EB of the inverted rate returns the capacity it was solved for."""
    for theta in (1e-4, 1e-3, 1e-2):
        for s in (0.25, 0.5, 1.0):
            for mec in (0.01, 0.05, 0.09):
                r = max_arrival_rate(theta, s, mec)
                back = effective_bandwidth(theta, r / s, s)
                assert back == pytest.approx(mec, abs=1e-14)


def test_rmax_modes_coincide_only_for_steady_source():
    assert max_arrival_rate(0.01, 1.0, 0.5, mode="paper") == \
        max_arrival_rate(0.01, 1.0, 0.5, mode="derived")
    # the printed form overstates the admissible rate whenever S < 1
    for s in (0.25, 0.5, 0.9):
        paper = max_arrival_rate(0.01, s, 0.5, mode="paper")
        derived = max_arrival_rate(0.01, s, 0.5, mode="derived")
        assert paper > derived


def test_rmax_unknown_mode_rejected():
    with pytest.raises(ValueError):
        max_arrival_rate(0.01, 0.5, 0.1, mode="thirdway")


def test_rmax_zero_capacity_admits_nothing():
    assert max_arrival_rate(0.01, 0.5, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Power model and efficiency
# ---------------------------------------------------------------------------

def test_total_power_pinned_value():
    assert total_power(5.0, PROFILE, 0.04, 0.1) == pytest.approx(
        POWER_BASE_POINT, rel=1e-13)
    assert total_power(5.0, PROFILE, 0.04, 0.1) == pytest.approx(
        oracles.total_power_direct(5.0, 0.2, 0.03, 0.2, 0.5, 0.4), rel=1e-13)


def test_total_power_affine_increasing_in_snr():
    snrs = (1.0, 2.0, 4.0, 8.0)
    ps = [total_power(s, PROFILE, 0.05, 0.1) for s in snrs]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    # affine: second differences on a geometric grid double the first
    assert ps[2] - ps[1] == pytest.approx(2 * (ps[1] - ps[0]), rel=1e-10)


def test_total_power_full_load_has_no_idle_share():
    p = total_power(5.0, PROFILE, 0.1, 0.1)
    want = 0.2 * 5.0 + PROFILE.circuit_power
    assert p == pytest.approx(want, rel=1e-13)


def test_total_power_load_validation():
    with pytest.raises(ValueError):
        total_power(5.0, PROFILE, 0.2, 0.1)
    with pytest.raises(ValueError):
        total_power(5.0, PROFILE, -0.01, 0.1)


def test_total_power_warns_outside_power_regime():
    # idle drain above the active drain is a misconfiguration worth a warning
    with pytest.warns(RuntimeWarning):
        total_power(0.05, PROFILE, 0.05, 0.1)


def test_profile_validation():
    with pytest.raises(ValueError):
        QosProfile(qos_exponent=0.0)
    with pytest.raises(ValueError):
        QosProfile(burstiness=0.0)
    with pytest.raises(ValueError):
        QosProfile(burstiness=1.2)
    with pytest.raises(ValueError):
        QosProfile(drain_eff=0.0)
    with pytest.raises(ValueError):
        QosProfile(circuit_power=-0.1)
    for field in ("circuit_power", "idle_power"):
        with pytest.raises(ValueError):
            QosProfile(**{field: math.nan})


def test_meee_increases_with_reliability():
    """At one SNR, shorter missions raise R_M and with it the efficiency."""
    link = FblLink(blocklength=1000, error_target=1e-2, rate=0.1, avg_snr=10.0)
    system = MissionSystem(FasChannel(2, 0.5, 2.0), 10.0, link)
    points = [system.evaluate(1.0, PROFILE, dt) for dt in (20.0, 5.0, 1.0, 0.1)]
    rels = [pt.reliability for pt in points]
    vals = [pt.meee for pt in points]
    assert 0.0 < rels[0] and rels[-1] < 1.0
    assert all(b > a for a, b in zip(rels, rels[1:]))
    assert all(b > a for a, b in zip(vals, vals[1:]))
