"""Wiring of the SNR -> reliability -> efficiency chain."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fasdep import qos
from fasdep.channel import FasChannel
from fasdep.dependability import (
    FblLink,
    decision_threshold_rho,
    fbl_threshold_eta,
    mission_reliability,
    mttff,
)
from fasdep.levelcross import CrossingContext, failure_repair_rates
from fasdep.optimize import DinkelbachConfig
from fasdep.pipeline import MissionPoint, MissionSystem, optimize_meee
from fasdep.qos import QosProfile


def _system(n=2, w=0.5, m=2.0, mode="rho"):
    chan = FasChannel(n_ports=n, aperture=w, nakagami_m=m)
    link = FblLink(blocklength=1000, error_target=1e-2, rate=0.1, avg_snr=10.0)
    return MissionSystem(chan, doppler_hz=10.0, link=link, threshold_mode=mode)


PROFILE = QosProfile()


def test_evaluate_composes_module_functions():
    """Every MissionPoint field must match the hand-run chain."""
    sys_ = _system()
    pt = sys_.evaluate(2.0, PROFILE, mission_duration=5.0)

    eta = fbl_threshold_eta(sys_.link)
    rho = decision_threshold_rho(eta, 2.0)
    rates = failure_repair_rates(
        CrossingContext(sys_.channel, 10.0, rho))
    ttff = mttff(rates.failure_rate)
    r_m = mission_reliability(5.0, ttff)
    mec = qos.mission_effective_capacity(1e-3, 1000, 0.1, r_m)
    rmax = qos.max_arrival_rate(1e-3, 0.5, mec)
    power = qos.total_power(2.0, PROFILE, rmax, 0.1)

    assert pt.eta == pytest.approx(eta, rel=1e-13)
    assert pt.rho == pytest.approx(rho, rel=1e-13)
    assert pt.failure_rate == pytest.approx(rates.failure_rate, rel=1e-13)
    assert pt.repair_rate == pytest.approx(rates.repair_rate, rel=1e-13)
    assert pt.mean_ttff == pytest.approx(ttff, rel=1e-13)
    assert pt.reliability == pytest.approx(r_m, rel=1e-13)
    assert pt.mec == pytest.approx(mec, rel=1e-13)
    assert pt.max_arrival == pytest.approx(rmax, rel=1e-13)
    assert pt.power == pytest.approx(power, rel=1e-13)
    assert pt.meee == pytest.approx(mec / power, rel=1e-13)


def test_meee_shortcut_equals_evaluate():
    """optimize_meee's ratio (evaluate's mEC over its power) is evaluate's
    mEEE at the optimum, bit for bit."""
    sys_ = _system()
    cfg = DinkelbachConfig(lb=0.05, ub=100.0, inner_tol=1e-7, outer_tol=1e-9)
    res = optimize_meee(sys_, PROFILE, 5.0, min_reliability=0.0, cfg=cfg)
    assert res.value_star == sys_.evaluate(res.phi_star, PROFILE, 5.0).meee


def test_rate_cache_reuses_quadrature():
    sys_ = _system()
    first = sys_.rates(2.5)
    assert sys_.rates(2.5) is first  # memoized per SNR


def test_threshold_modes():
    sys_rho = _system(mode="rho")
    sys_fix = _system(mode="sqrt_eta")
    eta = sys_rho.eta
    assert sys_rho.threshold(4.0) == pytest.approx(math.sqrt(eta / 4.0))
    assert sys_fix.threshold(4.0) == pytest.approx(math.sqrt(eta))
    assert sys_fix.threshold(9.0) == sys_fix.threshold(4.0)
    with pytest.raises(ValueError):
        _system(mode="fixed")


def test_reliability_improves_with_snr():
    """Higher operating SNR lowers rho, stretching the time between fades."""
    sys_ = _system()
    rels = [sys_.reliability(10.0 ** (db / 10.0), 5.0) for db in (0, 5, 10, 15)]
    assert all(b > a for a, b in zip(rels, rels[1:]))
    assert all(0.0 <= r <= 1.0 for r in rels)


def test_reliability_decays_with_mission_length():
    sys_ = _system()
    rels = [sys_.reliability(2.0, dt) for dt in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(rels, rels[1:]))


def test_more_ports_longer_mttff():
    """Port diversity stretches the mean time to first failure."""
    ttffs = [_system(n=n, w=0.5).evaluate(2.0, PROFILE, 5.0).mean_ttff
             for n in (1, 2, 3)]
    assert all(b > a for a, b in zip(ttffs, ttffs[1:]))


def test_optimize_meee_interior_peak():
    """The efficiency ratio has an interior best SNR; the trace certifies it."""
    sys_ = _system()
    cfg = DinkelbachConfig(lb=0.05, ub=100.0, inner_tol=1e-7, outer_tol=1e-9)
    res = optimize_meee(sys_, PROFILE, mission_duration=5.0,
                        min_reliability=0.0, cfg=cfg)
    assert res.feasible and res.converged
    assert cfg.lb < res.phi_star < cfg.ub
    # local optimality against nearby evaluations
    for bump in (0.9, 1.1):
        assert (sys_.evaluate(res.phi_star * bump, PROFILE, 5.0).meee
                <= res.value_star * (1 + 1e-6))
    assert all(b >= a for a, b in zip(res.kappa_trace, res.kappa_trace[1:]))


def test_optimize_meee_respects_reliability_floor():
    sys_ = _system()
    cfg = DinkelbachConfig(lb=0.05, ub=100.0, inner_tol=1e-7, outer_tol=1e-9)
    omega = 0.9999
    res = optimize_meee(sys_, PROFILE, mission_duration=5.0,
                        min_reliability=omega, cfg=cfg)
    assert res.feasible
    assert sys_.reliability(res.phi_star, 5.0) >= omega - 1e-12
    # the floor binds: unconstrained optimum sits below it
    free = optimize_meee(sys_, PROFILE, mission_duration=5.0,
                         min_reliability=0.0, cfg=cfg)
    assert sys_.reliability(free.phi_star, 5.0) < omega
    assert res.value_star <= free.value_star + 1e-12


def test_optimize_meee_infeasible_floor():
    sys_ = _system()
    cfg = DinkelbachConfig(lb=0.05, ub=0.2, inner_tol=1e-7, outer_tol=1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = optimize_meee(sys_, PROFILE, mission_duration=50.0,
                            min_reliability=1.0 - 1e-12, cfg=cfg)
    # the feasibility probes see only R_M, never the power model, whose
    # idle-power warning every Phi in this range would otherwise raise
    assert caught == []
    assert not res.feasible
    assert math.isnan(res.phi_star)


def test_optimize_meee_warns_once_at_reported_point():
    """One port, frozen threshold, loose floor: the solve lands at the lower
    bound Phi = 0.01, where drain 0.002 is below idle 0.03.  The search
    probes many Phi in that regime, but only the reported point warns."""
    chan = FasChannel(n_ports=1, aperture=0.3, nakagami_m=2.0)
    link = FblLink(blocklength=1000, error_target=1e-2, rate=0.1, avg_snr=10.0)
    sys_ = MissionSystem(chan, doppler_hz=10.0, link=link,
                         threshold_mode="sqrt_eta")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = optimize_meee(sys_, PROFILE, mission_duration=0.01,
                            min_reliability=0.1)
    assert res.feasible
    assert res.phi_star == pytest.approx(0.01, rel=1e-4)
    power = [w for w in caught if issubclass(w.category, RuntimeWarning)
             and "idle power" in str(w.message)]
    assert len(power) == 1 and len(caught) == 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 4, 8]),
       spacing=st.floats(0.01, 0.5),
       m=st.sampled_from([0.5, 1.0, 2.0, 3.5, 5.0]),
       delta_t=st.floats(0.1, 50.0),
       phi1_db=st.floats(-20.0, 40.0),
       step_db=st.floats(0.05, 20.0))
def test_reliability_non_decreasing_in_snr(n, spacing, m, delta_t, phi1_db,
                                           step_db):
    """R_M = exp(-DeltaT Upsilon(rho)) with rho = sqrt(eta/Phi) must not
    fall as Phi rises; the optimizer's feasibility rule relies on it.
    The 1e-12 slack absorbs quadrature noise on values near 1."""
    sys_ = _system(n=n, w=spacing * max(n - 1, 1), m=m)
    phi1 = 10.0 ** (phi1_db / 10.0)
    phi2 = 10.0 ** ((phi1_db + step_db) / 10.0)
    assert sys_.reliability(phi1, delta_t) <= \
        sys_.reliability(phi2, delta_t) + 1e-12


def test_failure_rate_smooth_where_survival_leaves_cdf_resolution():
    """log Upsilon is smooth in the SNR at the CLI defaults (N=4, W=0.3,
    m=2).  Near -19.9 dB, 1 - CDF drops below 1e-7, under the CDF
    quadrature's resolution; switching to the single-port tail bound there
    steps log Upsilon by 1.34."""
    sys_ = _system(n=4, w=0.3, m=2.0)
    log_ups = np.log([sys_.rates(10.0 ** (db / 10.0)).failure_rate
                      for db in np.linspace(-20.5, -19.5, 15)])
    assert np.abs(np.diff(log_ups, 2)).max() < 1e-3


def test_paper_rmax_mode_through_pipeline():
    """The alternative arrival-rate form must flow through evaluate().

    At the default mild QoS exponent it overshoots the link rate and the
    power model rejects it loudly; at theta = 10 it is admissible and
    still sits above the derived form.
    """
    sys_ = _system()
    with pytest.raises(ValueError, match="arrival rate"):
        sys_.evaluate(20.0, PROFILE, 1.0, rmax_mode="paper")
    tight = QosProfile(qos_exponent=10.0)
    pt = sys_.evaluate(20.0, tight, 1.0, rmax_mode="paper")
    derived = sys_.evaluate(20.0, tight, 1.0)
    assert pt.max_arrival > derived.max_arrival
    assert pt.power > 0.0 and pt.meee > 0.0


def test_mission_point_is_frozen():
    sys_ = _system()
    pt = sys_.evaluate(2.0, PROFILE, 5.0)
    with pytest.raises(AttributeError):
        pt.meee = 0.0
