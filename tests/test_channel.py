"""Port-selection channel model: correlation profile, joint and max laws."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fasdep import channel, specfun
from fasdep.channel import (
    FasChannel,
    bivariate_cdf_series,
    joint_cdf,
    marginal_cdf,
    marginal_pdf,
    max_cdf,
    max_cdf_and_survival,
    spatial_correlation,
)

import oracles

# Pinned by tests/oracles.py.
MU2_TWO_PORT_W03 = 0.2905642140891242  # J0(0.6 pi): port pair at W = 0.3


# ---------------------------------------------------------------------------
# Construction and correlation profile
# ---------------------------------------------------------------------------

def test_correlation_profile_reproducible():
    """Stored mu must equal the generator function entry by entry."""
    chan = FasChannel(n_ports=5, aperture=0.4, nakagami_m=1.0)
    want = tuple(spatial_correlation(k, 5, 0.4) for k in range(2, 6))
    assert chan.mu == want


def test_correlation_is_bessel_of_port_offset():
    # second port of a pair at W = 0.3: J0(2 pi * 0.3) = J0(0.6 pi)
    assert spatial_correlation(2, 2, 0.3) == pytest.approx(
        MU2_TWO_PORT_W03, rel=1e-12)
    assert spatial_correlation(2, 2, 0.3) == pytest.approx(
        oracles.j0_maclaurin(2 * math.pi * 0.3), rel=1e-12)


def test_zero_aperture_means_full_correlation():
    chan = FasChannel(n_ports=4, aperture=0.0, nakagami_m=2.0)
    assert chan.mu == (1.0, 1.0, 1.0)
    assert chan.degenerate_ports()


def test_correlations_bounded_by_one():
    for n in (2, 3, 5, 9):
        for w in (0.0, 0.1, 0.5, 1.0, 3.0):
            chan = FasChannel(n_ports=n, aperture=w, nakagami_m=1.0)
            assert all(abs(v) <= 1.0 for v in chan.mu)


def test_single_port_has_no_correlations():
    chan = FasChannel(n_ports=1, aperture=0.5, nakagami_m=1.0)
    assert chan.mu == ()
    assert not chan.degenerate_ports()


def test_construction_validation():
    with pytest.raises(ValueError):
        FasChannel(n_ports=0, aperture=0.1, nakagami_m=1.0)
    with pytest.raises(ValueError):
        FasChannel(n_ports=2, aperture=-0.1, nakagami_m=1.0)
    with pytest.raises(ValueError):
        FasChannel(n_ports=2, aperture=0.1, nakagami_m=0.4)
    with pytest.raises(ValueError):
        FasChannel(n_ports=2, aperture=0.1, nakagami_m=1.0, power=0.0)
    with pytest.raises(ValueError):
        FasChannel.with_correlation(3, (0.5,), nakagami_m=1.0)
    with pytest.raises(ValueError):
        FasChannel.with_correlation(2, (1.2,), nakagami_m=1.0)


def test_port_index_validation():
    with pytest.raises(ValueError):
        spatial_correlation(1, 4, 0.3)
    with pytest.raises(ValueError):
        spatial_correlation(5, 4, 0.3)
    with pytest.raises(ValueError):
        spatial_correlation(2, 1, 0.3)


# ---------------------------------------------------------------------------
# Marginal law
# ---------------------------------------------------------------------------

def test_marginal_cdf_is_regularized_gamma():
    chan = FasChannel(n_ports=3, aperture=0.5, nakagami_m=2.5, power=1.7)
    for x in (0.2, 0.8, 1.5, 3.0):
        want = specfun.reg_lower_inc_gamma(2.5, 2.5 * x * x / 1.7)
        assert marginal_cdf(chan, x) == pytest.approx(want, rel=1e-13)


def test_marginal_cdf_endpoints():
    chan = FasChannel(n_ports=2, aperture=0.3, nakagami_m=1.0)
    assert marginal_cdf(chan, 0.0) == 0.0
    assert marginal_cdf(chan, 40.0) == pytest.approx(1.0, abs=1e-12)


def test_rayleigh_marginal_closed_form():
    """m = 1 collapses to the Rayleigh law 1 - exp(-x^2/sigma^2)."""
    chan = FasChannel(n_ports=2, aperture=0.3, nakagami_m=1.0, power=2.0)
    for x in (0.3, 1.0, 2.2):
        assert marginal_cdf(chan, x) == pytest.approx(
            -math.expm1(-x * x / 2.0), rel=1e-13)
        assert marginal_pdf(chan, x) == pytest.approx(
            x * math.exp(-x * x / 2.0), rel=1e-13)


def test_marginal_pdf_integrates_to_cdf():
    from fasdep.quadrature import adaptive_gk
    chan = FasChannel(n_ports=2, aperture=0.3, nakagami_m=3.0, power=0.9)
    f = lambda xs: np.array([marginal_pdf(chan, float(v)) for v in xs])
    got = adaptive_gk(f, 0.0, 1.2, abs_tol=1e-12).value
    assert got == pytest.approx(marginal_cdf(chan, 1.2), rel=1e-10)


def test_marginal_mean_square_is_power():
    from fasdep.quadrature import adaptive_gk
    chan = FasChannel(n_ports=2, aperture=0.3, nakagami_m=1.5, power=1.3)
    f = lambda xs: np.array([v * v * marginal_pdf(chan, float(v)) for v in xs])
    got = adaptive_gk(f, 0.0, 12.0, abs_tol=1e-12).value
    assert got == pytest.approx(1.3, rel=1e-9)


# ---------------------------------------------------------------------------
# Joint CDF
# ---------------------------------------------------------------------------

def test_joint_cdf_single_port_is_marginal():
    chan = FasChannel(n_ports=1, aperture=0.2, nakagami_m=1.0)
    assert joint_cdf(chan, (0.9,)) == pytest.approx(
        marginal_cdf(chan, 0.9), rel=1e-12)


def test_joint_cdf_nondecreasing_per_component():
    chan = FasChannel(n_ports=3, aperture=0.3, nakagami_m=2.0)
    base = (0.6, 0.9, 0.7)
    p0 = joint_cdf(chan, base)
    for i in range(3):
        up = list(base)
        up[i] += 0.4
        assert joint_cdf(chan, tuple(up)) >= p0 - 1e-12


def test_joint_cdf_zero_corner():
    chan = FasChannel(n_ports=2, aperture=0.4, nakagami_m=1.0)
    assert joint_cdf(chan, (0.0, 1.0)) == 0.0
    assert joint_cdf(chan, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_joint_cdf_saturates_to_marginal():
    """Pushing all but one limit to infinity leaves that port's marginal."""
    chan = FasChannel(n_ports=2, aperture=0.35, nakagami_m=2.0)
    assert joint_cdf(chan, (0.8, 50.0)) == pytest.approx(
        marginal_cdf(chan, 0.8), rel=1e-9)


def test_joint_cdf_against_monte_carlo():
    """Correlated Rayleigh pair, P(X1 <= 1, X2 <= 1) from 1e7 draws.

    Gaussian components per port with variance 1/2 (unit power); port 2
    mixes in the port-1 components with weight mu.
    """
    mu = 0.3
    chan = FasChannel.with_correlation(2, (mu,), nakagami_m=1.0)
    want = joint_cdf(chan, (1.0, 1.0))
    rng = np.random.default_rng(2024)
    s = math.sqrt(0.5)
    c = math.sqrt(1.0 - mu * mu)
    hits = 0
    n = 10_000_000
    chunk = 1_000_000
    for _ in range(n // chunk):
        g1 = rng.normal(0.0, s, size=(chunk, 2))
        g2 = mu * g1 + c * rng.normal(0.0, s, size=(chunk, 2))
        x1 = np.hypot(g1[:, 0], g1[:, 1])
        x2 = np.hypot(g2[:, 0], g2[:, 1])
        hits += int(np.count_nonzero((x1 <= 1.0) & (x2 <= 1.0)))
    p_hat = hits / n
    se = math.sqrt(want * (1.0 - want) / n)
    assert abs(p_hat - want) < 3.0 * se


# ---------------------------------------------------------------------------
# Best-port CDF
# ---------------------------------------------------------------------------

def test_max_cdf_single_port():
    chan = FasChannel(n_ports=1, aperture=0.3, nakagami_m=1.0)
    assert max_cdf(chan, 0.7) == pytest.approx(
        marginal_cdf(chan, 0.7), rel=1e-12)


def test_max_cdf_equals_joint_at_common_threshold():
    chan = FasChannel(n_ports=3, aperture=0.4, nakagami_m=1.5)
    assert max_cdf(chan, 0.9) == pytest.approx(
        joint_cdf(chan, (0.9, 0.9, 0.9)), rel=1e-10)


def test_max_cdf_decreases_with_ports():
    """More ports can only improve the best envelope."""
    prev = None
    for n in (1, 2, 3, 4, 5):
        chan = FasChannel(n_ports=n, aperture=0.5, nakagami_m=1.0)
        p = max_cdf(chan, 0.8)
        if prev is not None:
            assert p <= prev + 1e-10
        prev = p


def test_max_cdf_uncorrelated_is_product():
    chan = FasChannel.with_correlation(3, (0.0, 0.0), nakagami_m=2.0)
    single = marginal_cdf(chan, 0.75)
    assert max_cdf(chan, 0.75) == pytest.approx(single**3, rel=1e-8)


def test_max_cdf_near_full_correlation_collapses():
    """mu -> 1 pushes the best-port law onto the single marginal.

    The approach is O(sqrt(1 - mu^2)), so mu = 1 - 1e-4 still carries a
    few-e-4 residual of diversity; assert absolute closeness on the CDF.
    """
    chan = FasChannel.with_correlation(2, (1.0 - 1e-4,), nakagami_m=2.0)
    got = max_cdf(chan, 0.25)
    want = marginal_cdf(chan, 0.25)
    assert got == pytest.approx(want, abs=1e-3)


def test_max_cdf_monotone_in_threshold():
    chan = FasChannel(n_ports=4, aperture=0.3, nakagami_m=2.0)
    xs = np.linspace(0.05, 2.5, 30)
    vals = [max_cdf(chan, float(x)) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


# (channel, thresholds) where y = m mu^2 x^2 / (s2 (1 - mu^2)) exceeds 300
# at the upper limit: wide Poisson windows in the Marcum kernel
_LARGE_Y_CASES = [
    (FasChannel(n_ports=2, aperture=0.03, nakagami_m=5.0), (1.2, 2.0, 3.0)),
    (FasChannel(n_ports=4, aperture=0.03, nakagami_m=5.0), (0.5, 1.0)),
    (FasChannel.with_correlation(2, (1.0 - 1e-4,), nakagami_m=2.0), (0.25,)),
]
_LARGE_Y_POINTS = [
    pytest.param(chan, x, id=f"n{chan.n_ports}-m{chan.nakagami_m:g}-x{x:g}")
    for chan, xs in _LARGE_Y_CASES for x in xs]


def _large_y(chan, x):
    m = chan.nakagami_m
    return max(m * mu * mu * x * x / (chan.power * (1.0 - mu * mu))
               for mu in chan.mu)


@pytest.mark.parametrize("chan,x", _LARGE_Y_POINTS)
def test_max_cdf_large_y_against_chndtr(chan, x):
    assert _large_y(chan, x) > 300.0
    want = oracles.joint_cdf_chndtr(chan.mu, chan.nakagami_m, chan.power,
                                    (x,) * chan.n_ports)
    assert abs(max_cdf(chan, x) - want) <= 1e-9 + 1e-6 * want


@pytest.mark.parametrize("chan,x", _LARGE_Y_POINTS)
def test_joint_cdf_large_y_against_chndtr(chan, x):
    upper = tuple(x * f for f in (1.0, 0.8, 1.1, 0.9)[:chan.n_ports])
    assert _large_y(chan, upper[0]) > 300.0
    want = oracles.joint_cdf_chndtr(chan.mu, chan.nakagami_m, chan.power,
                                    upper)
    assert abs(joint_cdf(chan, upper) - want) <= 1e-9 + 1e-6 * want


def test_max_cdf_rejects_degenerate_and_negative():
    with pytest.raises(ValueError):
        max_cdf(FasChannel(n_ports=2, aperture=0.0, nakagami_m=1.0), 0.5)
    with pytest.raises(ValueError):
        max_cdf(FasChannel(n_ports=2, aperture=0.3, nakagami_m=1.0), -0.5)


# ---------------------------------------------------------------------------
# Upper tail of the best-port envelope
# ---------------------------------------------------------------------------

_TAIL_LAYOUTS = [
    FasChannel(n_ports=2, aperture=0.5, nakagami_m=2.0),
    FasChannel(n_ports=4, aperture=0.3, nakagami_m=2.0),
    FasChannel(n_ports=8, aperture=0.7, nakagami_m=2.0),
    FasChannel(n_ports=2, aperture=0.03, nakagami_m=5.0),
    FasChannel(n_ports=4, aperture=0.03, nakagami_m=5.0),
]


@pytest.mark.parametrize("chan", _TAIL_LAYOUTS,
                         ids=lambda c: f"n{c.n_ports}-w{c.aperture:g}-m{c.nakagami_m:g}")
@pytest.mark.parametrize("x", [1.5, 3.0, 4.5, 6.0])
def test_survival_against_ncx2(chan, x):
    """1 - CDF to 1e-9 relative, down to ~1e-70 at x = 6, m = 5."""
    want = oracles.survival_ncx2(chan, x)
    assert want > 0.0
    cdf, survival = max_cdf_and_survival(chan, x)
    assert survival == pytest.approx(want, rel=1e-9, abs=0.0)
    assert cdf == pytest.approx(1.0 - want, rel=1e-9)


def test_max_cdf_non_decreasing_far_above_envelope_scale():
    """Above the median the CDF is 1 - survival, so quadrature noise on a
    value near 1 cannot make it fall as the threshold rises."""
    chan = FasChannel(n_ports=4, aperture=0.3, nakagami_m=2.0)
    vals = [max_cdf(chan, float(x)) for x in np.linspace(1.0, 60.0, 60)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


def test_survival_above_the_median_comes_from_the_complement_integral(monkeypatch):
    """At N=4, W=0.3, m=2, x=3 the CDF is above 1/2, so the survival is
    integrated directly (about 1e-6, deep in the tail) and the CDF is 1
    minus it.  The union bound N Q(m, m x^2/s2) < 1/2 shows this before
    any integral, so the CDF is never integrated: one complement call."""
    chan = FasChannel(n_ports=4, aperture=0.3, nakagami_m=2.0)
    calls = []
    quad = channel._cdf_quad

    def counted(*args, **kwargs):
        calls.append(kwargs.get("complement", False))
        return quad(*args, **kwargs)

    monkeypatch.setattr(channel, "_cdf_quad", counted)
    cdf, survival = max_cdf_and_survival(chan, 3.0)
    monkeypatch.undo()
    assert calls == [True]
    assert survival == channel._cdf_quad(chan, 3.0, (3.0,) * 3,
                                         complement=True)
    assert cdf == 1.0 - survival


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 8]),
       spacing=st.floats(0.01, 0.5),
       m=st.sampled_from([0.5, 1.0, 2.0, 3.5, 5.0]),
       x=st.floats(0.05, 6.0))
def test_survival_between_single_port_and_union_bound(n, spacing, m, x):
    """P(R_1 > x) <= P(max_k R_k > x) <= N P(R_1 > x), and the pair sums to 1."""
    chan = FasChannel(n_ports=n, aperture=spacing * (n - 1), nakagami_m=m)
    cdf, survival = max_cdf_and_survival(chan, x)
    single = specfun.reg_upper_inc_gamma(m, m * x * x)
    assert single <= survival <= n * single * (1.0 + 1e-9)
    assert abs(cdf + survival - 1.0) <= 1e-15


def test_dense_port_kernel_memory_stays_bounded():
    """Sorted Marcum chunks end where y leaves a few Poisson widths of the
    chunk start, so 32 ports on 0.01 wavelengths need no wide weight matrix
    (one uncapped 128-row chunk of them spans ~43 MB)."""
    chan = FasChannel(n_ports=32, aperture=0.01, nakagami_m=1.0)
    tracemalloc.start()
    try:
        max_cdf(chan, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# Two-port series
# ---------------------------------------------------------------------------

def test_bivariate_series_matches_quadrature_route():
    for m in (1.0, 2.0, 4.0):
        for mu in (0.1, 0.5, 0.9):
            chan = FasChannel.with_correlation(2, (mu,), nakagami_m=m)
            for x in (0.5, 1.0, 2.0):
                assert bivariate_cdf_series(chan, x, x) == pytest.approx(
                    max_cdf(chan, x), rel=1e-8)


def test_bivariate_series_asymmetric_limits():
    chan = FasChannel.with_correlation(2, (0.6,), nakagami_m=1.5)
    assert bivariate_cdf_series(chan, 0.7, 1.3) == pytest.approx(
        joint_cdf(chan, (0.7, 1.3)), rel=1e-8)


def test_bivariate_series_input_checks():
    chan3 = FasChannel(n_ports=3, aperture=0.3, nakagami_m=1.0)
    with pytest.raises(ValueError):
        bivariate_cdf_series(chan3, 0.5, 0.5)
    chan = FasChannel.with_correlation(2, (1.0,), nakagami_m=1.0)
    with pytest.raises(ValueError):
        bivariate_cdf_series(chan, 0.5, 0.5)
