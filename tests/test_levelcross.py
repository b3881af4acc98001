"""Crossing rates and fade durations for the selected-envelope process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fasdep import levelcross, specfun
from fasdep.channel import (FasChannel, marginal_cdf, max_cdf,
                            max_cdf_and_survival)
from fasdep.levelcross import (
    CrossingContext,
    afd,
    anfd,
    failure_repair_rates,
    lcr,
    lcr_iid,
    lcr_two_port_series,
    normalized_lcr,
)

import oracles

# first positive root of J0 over 2 pi: a pair at this spacing decorrelates
W_J0_ROOT = 2.404825557695773 / (2.0 * math.pi)


def _ctx(n=2, w=0.3, m=1.0, power=1.0, fd=10.0, x=1.0, mu=None):
    if mu is None:
        chan = FasChannel(n_ports=n, aperture=w, nakagami_m=m, power=power)
    else:
        chan = FasChannel.with_correlation(n, mu, nakagami_m=m, power=power)
    return CrossingContext(channel=chan, doppler_hz=fd, threshold=x)


# ---------------------------------------------------------------------------
# Doppler scaling and the single-port law
# ---------------------------------------------------------------------------

def test_lcr_linear_in_doppler():
    base = lcr(_ctx(fd=1.0))
    for fd in (10.0, 100.0):
        assert lcr(_ctx(fd=fd)) == pytest.approx(fd * base, rel=1e-12)


def test_normalized_lcr_doppler_free():
    vals = [normalized_lcr(_ctx(n=3, m=2.0, fd=fd)) for fd in (1.0, 10.0, 100.0)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_rayleigh_single_port_closed_form():
    """N = 1, m = 1: LCR = sqrt(2 pi) f_D rho exp(-rho^2)."""
    for x in (0.3, 1.0, 1.7):
        got = lcr(_ctx(n=1, m=1.0, fd=10.0, x=x))
        assert got == pytest.approx(
            math.sqrt(2.0 * math.pi) * 10.0 * x * math.exp(-x * x), rel=1e-12)


def test_rayleigh_peak_nlcr_value():
    # the classic sqrt(2 pi)/e peak at rho = 1
    got = normalized_lcr(_ctx(n=1, m=1.0, x=1.0))
    assert got == pytest.approx(math.sqrt(2.0 * math.pi) / math.e, rel=1e-12)


def test_zero_threshold_never_crosses():
    assert lcr(_ctx(x=0.0)) == 0.0
    assert lcr_iid(_ctx(n=3, x=0.0)) == 0.0
    assert afd(_ctx(x=0.0)) == 0.0
    # a one-port m = 1/2 envelope touches 0 at a finite rate, but never
    # fades below it: ANFD is inf, as 1/Upsilon with Upsilon = 0
    touching = _ctx(n=1, m=0.5, x=0.0)
    assert lcr(touching) > 0.0
    assert anfd(touching) == math.inf
    assert failure_repair_rates(touching).failure_rate == 0.0


# ---------------------------------------------------------------------------
# Correlation limits
# ---------------------------------------------------------------------------

def test_uncorrelated_matches_iid_closed_form():
    """Explicit mu = 0 sends the quadrature route to the iid expression."""
    for n in (2, 3):
        for m in (1.0, 2.0):
            for x in (0.5, 1.0):
                ctx = _ctx(n=n, m=m, x=x, mu=(0.0,) * (n - 1))
                assert lcr(ctx) == pytest.approx(lcr_iid(ctx), rel=1e-8)


def test_aperture_at_bessel_root_decorrelates_pair():
    """W at the first J0 root gives mu_2 ~ 1e-16, so iid within 1e-4."""
    ctx = _ctx(n=2, w=W_J0_ROOT, m=2.0, x=0.8)
    assert abs(ctx.channel.mu[0]) < 1e-12
    assert lcr(ctx) == pytest.approx(lcr_iid(ctx), rel=1e-4)


def test_small_mu_three_port_near_iid():
    ctx = _ctx(n=3, m=1.0, x=1.0, mu=(1e-7, 1e-7))
    assert lcr(ctx) == pytest.approx(lcr_iid(ctx), rel=1e-4)


def test_full_correlation_is_single_port():
    """Identical ports cross like one port; the generic route refuses them
    and points at the single-port channel instead."""
    ctx = _ctx(n=4, w=0.0, m=2.0, x=0.9)
    with pytest.raises(ValueError, match="n_ports=1"):
        lcr(ctx)


def test_near_full_correlation_approaches_single_port():
    ctx = _ctx(n=2, m=1.0, x=0.8, mu=(1.0 - 1e-5,))
    single = lcr(_ctx(n=1, m=1.0, x=0.8))
    assert lcr(ctx) == pytest.approx(single, rel=5e-2)


# ---------------------------------------------------------------------------
# Scale invariance
# ---------------------------------------------------------------------------

def test_threshold_power_scaling_leaves_lcr_unchanged():
    """(x, sigma^2) -> (c x, c^2 sigma^2) is a pure relabeling."""
    base = lcr(_ctx(n=3, w=0.4, m=2.5, power=1.0, x=0.7))
    for c in (0.5, 2.0, 7.0):
        scaled = lcr(_ctx(n=3, w=0.4, m=2.5, power=c * c, x=c * 0.7))
        assert scaled == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# Two-port series route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,mu,x", [
    (1.0, 0.5, 1.0),
    (2.0, 0.9, 0.5),
    (4.0, 0.1, 2.0),
])
def test_series_agrees_with_quadrature(m, mu, x):
    ctx = _ctx(n=2, m=m, x=x, mu=(mu,))
    series = lcr_two_port_series(ctx)
    assert series == pytest.approx(lcr(ctx), rel=1e-6)
    assert max_cdf(ctx.channel, x) / series == pytest.approx(afd(ctx), rel=1e-6)


def test_series_tiny_mu_is_iid():
    ctx = _ctx(n=2, m=1.0, x=1.0, mu=(1e-3,))
    assert lcr_two_port_series(ctx) == pytest.approx(lcr_iid(ctx), rel=1e-3)


def test_series_unimodal_in_threshold():
    """LCR rises to a single hump and falls back toward the tail."""
    chan = FasChannel.with_correlation(2, (0.5,), nakagami_m=1.0)
    xs = np.linspace(0.05, 3.0, 40)
    vals = [lcr_two_port_series(
        CrossingContext(channel=chan, doppler_hz=10.0, threshold=float(x)))
        for x in xs]
    diffs = np.diff(vals)
    sign_changes = int(np.count_nonzero(np.diff(np.sign(diffs)) != 0))
    assert sign_changes == 1
    assert max(vals) > vals[0] and max(vals) > vals[-1]


def test_series_requires_two_nondegenerate_ports():
    chan3 = FasChannel(n_ports=3, aperture=0.3, nakagami_m=1.0)
    with pytest.raises(ValueError):
        lcr_two_port_series(CrossingContext(chan3, 10.0, 1.0))
    pair = FasChannel.with_correlation(2, (1.0,), nakagami_m=1.0)
    with pytest.raises(ValueError, match="n_ports=1"):
        lcr_two_port_series(CrossingContext(pair, 10.0, 1.0))


# ---------------------------------------------------------------------------
# Duration identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,w,m,x", [
    (2, 0.5, 1.0, 0.5),
    (3, 0.3, 2.0, 1.0),
    (4, 0.4, 1.5, 0.8),
])
def test_afd_lcr_product_is_cdf(n, w, m, x):
    ctx = _ctx(n=n, w=w, m=m, x=x)
    assert afd(ctx) * lcr(ctx) == pytest.approx(
        max_cdf(ctx.channel, x), rel=1e-12)


@pytest.mark.parametrize("n,w,m,x", [
    (2, 0.5, 1.0, 0.5),
    (3, 0.3, 2.0, 1.0),
    (4, 0.4, 1.5, 0.8),
])
def test_cycle_time_partition(n, w, m, x):
    """AFD + ANFD must account for the full mean recurrence time 1/LCR."""
    ctx = _ctx(n=n, w=w, m=m, x=x)
    assert afd(ctx) + anfd(ctx) == pytest.approx(1.0 / lcr(ctx), rel=1e-12)


def test_anfd_computes_crossing_rate_once(monkeypatch):
    calls = []

    def counted(ctx):
        calls.append(ctx)
        return lcr(ctx)

    ctx = _ctx(n=3, w=0.3, m=2.0, x=1.0)
    want = (1.0 - max_cdf(ctx.channel, 1.0)) / lcr(ctx)
    monkeypatch.setattr(levelcross, "lcr", counted)
    assert anfd(ctx) == want
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 4])
def test_crossing_integral_builds_only_the_other_ports_rows(monkeypatch, n):
    """Port i's boundary term needs the conditional CDFs of the N - 2 ports
    other than the reference and i: at N = 2 no Marcum row at all, at
    N = 4 two rows per integrand call."""
    integrand_calls, kernel_calls = [], []
    kernel = specfun._one_minus_marcum_q_fixed_b
    gk = levelcross.adaptive_gk

    def counted_kernel(*args):
        kernel_calls.append(args)
        return kernel(*args)

    def counted_gk(f, *args, **kwargs):
        def counted_f(x1):
            integrand_calls.append(x1)
            return f(x1)
        return gk(counted_f, *args, **kwargs)

    monkeypatch.setattr(specfun, "_one_minus_marcum_q_fixed_b", counted_kernel)
    monkeypatch.setattr(levelcross, "adaptive_gk", counted_gk)
    chan = FasChannel(n, 0.03, 5.0)
    assert levelcross._port_crossing_integral(chan, 2, 1.0) > 0.0
    assert integrand_calls
    assert len(kernel_calls) == (n - 2) * len(integrand_calls)


@pytest.mark.parametrize("x", [3.0, 3.3, 4.0])
def test_anfd_is_inverse_failure_rate(x):
    """One route to ANFD: the afd command's column and 1/Upsilon agree,
    also where 1 - CDF is far below the CDF's quadrature tolerance."""
    ctx = _ctx(n=4, w=0.3, m=2.0, x=x)
    assert anfd(ctx) == pytest.approx(
        1.0 / failure_repair_rates(ctx).failure_rate, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n,w,m,x", [
    (2, 0.5, 1.0, 0.5),
    (3, 0.3, 2.0, 1.0),
    (4, 0.4, 1.5, 0.8),
])
def test_rate_pair_occupancy_identity(n, w, m, x):
    """beta/(Upsilon + beta) is the stationary up-state probability."""
    ctx = _ctx(n=n, w=w, m=m, x=x)
    rp = failure_repair_rates(ctx)
    up_frac = rp.repair_rate / (rp.failure_rate + rp.repair_rate)
    assert up_frac == pytest.approx(1.0 - max_cdf(ctx.channel, x), abs=1e-10)


def test_rate_pair_zero_threshold():
    rp = failure_repair_rates(_ctx(x=0.0))
    assert rp.failure_rate == 0.0
    assert rp.repair_rate == math.inf


def test_rate_pair_when_crossing_rate_underflows():
    """lcr = 0 away from x_th = 0 means the envelope sits on one side.

    Far above the envelope scale the link is down almost surely (CDF = 1)
    and never repairs; far below it, with many ports, it never fails.
    """
    high = _ctx(n=4, w=0.3, m=2.0, x=57.9)
    assert lcr(high) == 0.0
    assert max_cdf(high.channel, 57.9) == pytest.approx(1.0, abs=1e-10)
    rp = failure_repair_rates(high)
    assert (rp.failure_rate, rp.repair_rate) == (math.inf, 0.0)

    low = _ctx(n=32, w=3.1, m=2.0, x=1e-3)
    assert lcr(low) == 0.0
    rp = failure_repair_rates(low)
    assert (rp.failure_rate, rp.repair_rate) == (0.0, math.inf)


def test_fade_durations_above_envelope_scale():
    """lcr underflows far above the envelope scale: the link stays down,
    so AFD is inf and ANFD is 0, matching Upsilon = inf, beta = 0."""
    ctx = CrossingContext(FasChannel(4, 0.3, 2.0), 10.0, 40.0)
    assert lcr(ctx) == 0.0
    assert afd(ctx) == math.inf
    assert anfd(ctx) == 0.0


def test_fade_durations_below_envelope_scale():
    """lcr underflows far below the scale with many ports: the link never
    fades, so AFD is 0 and ANFD is inf, matching Upsilon = 0."""
    ctx = _ctx(n=32, w=3.1, m=2.0, x=1e-3)
    assert lcr(ctx) == 0.0
    assert afd(ctx) == 0.0
    assert anfd(ctx) == math.inf


def test_rate_pair_deep_tail_stays_finite():
    """Beyond CDF quadrature resolution the failure rate must not blow up.

    1 - max_cdf falls below the CDF's absolute tolerance near x ~ 3.2
    here; the survival is integrated to a relative tolerance there, and
    Upsilon has to stay finite and keep growing.
    """
    rates = [failure_repair_rates(_ctx(n=2, w=0.5, m=2.0, x=x)).failure_rate
             for x in (2.5, 3.0, 3.5, 4.0, 6.0)]
    assert all(0.0 < r < math.inf for r in rates)
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_failure_rate_grows_with_threshold():
    rates = [failure_repair_rates(_ctx(n=3, w=0.3, m=2.0, x=x)).failure_rate
             for x in (0.3, 0.6, 0.9, 1.2)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_context_validation():
    chan = FasChannel(n_ports=2, aperture=0.3, nakagami_m=1.0)
    with pytest.raises(ValueError):
        CrossingContext(channel=chan, doppler_hz=0.0, threshold=1.0)
    with pytest.raises(ValueError):
        CrossingContext(channel=chan, doppler_hz=10.0, threshold=-1.0)


# ---------------------------------------------------------------------------
# The crossing rate is the best-port density: lcr = C f_max
# ---------------------------------------------------------------------------

def _density(chan, x, rate_of=lcr):
    """lcr / C with C = (1/2) sqrt(2 pi / m) sigma f_D: every port's
    envelope derivative has the same scale, so this is f_max(x)."""
    rate = rate_of(CrossingContext(chan, 1.0, x))
    return rate / (0.5 * math.sqrt(2.0 * math.pi / chan.nakagami_m * chan.power))


# (aperture, m) of the figure presets: fig3, fig2, fig5/fig6, fig7
_FIG_LAYOUTS = ((0.5, 1.0), (0.3, 2.0), (0.03, 5.0), (0.03, 4.0))


@pytest.mark.parametrize("w,m,n,x", [
    (w, m, n, x) for w, m in _FIG_LAYOUTS for n in (1, 2, 3, 4, 8)
    for x in (0.1, 0.8, 1.5, 2.5, 3.0)])
def test_lcr_is_the_best_port_density(w, m, n, x):
    """lcr / C against scipy's f_max (oracles.max_pdf), 1e-9 relative:
    the per-port integrals' rel_tol, under relative-only control, so the
    deep tails of the near-degenerate W = 0.03 layouts (f_max down to
    1e-13) hold it too."""
    chan = FasChannel(n_ports=n, aperture=w, nakagami_m=m)
    want = oracles.max_pdf(chan.mu, m, chan.power, x)
    assert _density(chan, x) == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.5, 5.0])
def test_lcr_iid_is_the_density_of_the_largest_iid_envelope(n, m):
    """lcr_iid / C against scipy's f_max at mu = 0, 1e-12 relative: the
    single-port F carries the incomplete gamma's 1e-12 truncation target
    N - 1 times over in F^(N-1) (realized at most 7.6e-13, at N = 8)."""
    chan = FasChannel.with_correlation(n, (0.0,) * (n - 1), nakagami_m=m)
    for x in (0.1, 0.5, 1.0, 1.5, 2.5):
        want = oracles.max_pdf(chan.mu, m, chan.power, x)
        assert _density(chan, x, lcr_iid) == pytest.approx(
            want, rel=1e-12, abs=0.0), x


@pytest.mark.parametrize("w,m", _FIG_LAYOUTS)
@pytest.mark.parametrize("n", [3, 4, 8])
def test_best_port_density_by_richardson(w, m, n):
    """Second route: a Richardson derivative of scipy's joint CDF, 1e-8
    relative (its O(h^4) truncation reaches 4e-10 here)."""
    chan = FasChannel(n_ports=n, aperture=w, nakagami_m=m)
    for x in (0.3, 1.5):
        want = oracles.max_pdf_richardson(chan.mu, m, chan.power, x)
        assert _density(chan, x) == pytest.approx(want, rel=1e-8, abs=0.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(2, 8),
       spacing=st.floats(0.01, 0.5),
       m=st.sampled_from([0.5, 1.0, 2.0, 3.5, 5.0]),
       x=st.floats(0.1, 3.0))
def test_lcr_is_the_derivative_of_max_cdf(n, spacing, m, x):
    """lcr / C against a 4th-order central difference of max_cdf, and
    F^N <= max_cdf <= F for the single-port F (the ports are associated).

    The tolerance adds the requested ones: lcr's rel_tol 1e-9, and
    max_cdf's 1e-8 relative on its smaller side plus 1e-10 absolute on the
    CDF side, with half an ulp of 1 for a CDF formed as 1 - survival; the
    stencil's weights (1 + 8 + 8 + 1) / 12h amplify the last.  The step
    h = 1e-3 x keeps the h^4 truncation below those.  Realized errors stay
    within 0.36 of the bound.  The single-port F carries the incomplete
    gamma's 1e-12 relative tolerance and the same rounding, N times over
    in F^N.
    """
    chan = FasChannel(n_ports=n, aperture=spacing * (n - 1), nakagami_m=m)
    h = 1e-3 * x
    sides = [max_cdf_and_survival(chan, x + k * h) for k in (-2, -1, 1, 2)]
    cdf = [c for c, _ in sides]
    diff = (cdf[0] - 8.0 * cdf[1] + 8.0 * cdf[2] - cdf[3]) / (12.0 * h)
    cdf_tol = max(1e-8 * min(c, s) + (1e-10 if c <= 0.5 else 0.0)
                  for c, s in sides) + 2.0 ** -53
    density = _density(chan, x)
    tol = 1e-9 * density + 1.5 * cdf_tol / h
    assert abs(density - diff) <= tol

    single = marginal_cdf(chan, x)
    slack = cdf_tol + n * (1e-12 * single + 2.0 ** -53)
    assert single ** n - slack <= max_cdf(chan, x) <= single + slack


# ---------------------------------------------------------------------------
# Dense apertures (|mu| -> 1)
# ---------------------------------------------------------------------------

def test_dense_apertures_approach_the_single_port_limit():
    """N = 4, m = 2, x = 0.5 as the aperture shrinks from 1e-2 to 1e-4.

    1 - mu^2 falls as W^2, so the conditional CDFs' Marcum arguments grow
    to y, z ~ 2e7 at W = 1e-4, where a Poisson window would span about
    7e4 terms per node.  Every rate pair completes, the CDF of the best port
    rises toward the single-port F = P(2, 0.5) = 0.0902 as the ports merge,
    and it matches the ncx2 oracle within the CDF quadrature's 1e-10."""
    single = specfun.reg_lower_inc_gamma(2.0, 0.5)
    cdfs = []
    for w in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
        chan = FasChannel(n_ports=4, aperture=w, nakagami_m=2.0)
        cdf = max_cdf(chan, 0.5)
        assert cdf == pytest.approx(1.0 - oracles.survival_ncx2(chan, 0.5),
                                    abs=1e-10)
        rates = failure_repair_rates(CrossingContext(chan, 10.0, 0.5))
        assert rates.failure_rate > 0.0 and rates.repair_rate > 0.0
        cdfs.append(cdf)
    assert all(a < b for a, b in zip(cdfs, cdfs[1:]))
    assert cdfs[-1] < single
    assert single - cdfs[-1] < 2e-3
