"""Special-function layer: pinned values, identities, and failure modes."""

import math
import tracemalloc

import numpy as np
import pytest

from fasdep import specfun
from fasdep.channel import FasChannel
from fasdep.levelcross import CrossingContext, failure_repair_rates
from fasdep.errors import SeriesTruncationError

import oracles

# Pinned by tests/oracles.py (independent series/quadrature/bisection
# implementations); regenerate with `python tests/oracles.py`.
J0_FIRST_ROOT = 2.404825557695773
J0_AT_1_8849556 = 0.29056420952681644
LOWER_GAMMA_2_5_AT_3_7 = 1.073375320725313
MARCUM_Q2_1_5_0_8 = 0.9848889654722289
QFUNC_INV_1E2 = 2.3263478740408416


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

def test_j0_at_zero():
    assert specfun.bessel_j0(0.0) == 1.0


def test_j0_first_root():
    assert abs(specfun.bessel_j0(J0_FIRST_ROOT)) < 1e-12


def test_j0_pinned_value():
    assert specfun.bessel_j0(1.8849556) == pytest.approx(J0_AT_1_8849556, rel=1e-12)


def test_j0_is_even():
    for x in (0.3, 1.7, 5.2, 14.9):
        assert specfun.bessel_j0(-x) == specfun.bessel_j0(x)


def test_j0_matches_integral_representation():
    """Both evaluation branches against (1/pi) int cos(x sin t) dt."""
    rng = np.random.default_rng(101)
    for x in rng.uniform(0.0, 40.0, size=25):
        assert specfun.bessel_j0(float(x)) == pytest.approx(
            oracles.j0_quadrature(float(x)), abs=5e-12)


def test_j0_matches_scipy_to_rounding():
    """Absolute error within 5e-14 of scipy on [0, 3000], sampled densely
    below x = 40."""
    from scipy import special

    xs = np.concatenate([np.linspace(0.0, 40.0, 8001),
                         np.linspace(40.0, 3000.0, 12001)])
    got = np.array([specfun.bessel_j0(float(x)) for x in xs])
    assert np.max(np.abs(got - special.j0(xs))) < 5e-14


# ---------------------------------------------------------------------------
# Modified Bessel I (the shipped array kernel)
# ---------------------------------------------------------------------------

def _log_bessel_i(order, x):
    """log I_order(x) = scaled + order log(x/2), from the array kernel."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return specfun._log_bessel_i_scaled_vec(order, x) + order * np.log(0.5 * x)


def test_bessel_i_at_zero_argument():
    """I_nu(x) (x/2)^-nu -> 1/Gamma(nu+1) at x = 0, so I_0(0) = 1."""
    for order in (0.0, 1.0, 2.5):
        got = specfun._log_bessel_i_scaled_vec(order, np.array([0.0]))[0]
        assert got == pytest.approx(-math.lgamma(order + 1.0), abs=1e-15)
    assert specfun._log_bessel_i_scaled_vec(0.0, np.array([0.0]))[0] == 0.0


@pytest.mark.parametrize("x", [0.1, 0.9, 3.0, 17.0, 80.0])
def test_bessel_i_half_order_closed_form(x):
    """I_{1/2}(x) = sinh(x) sqrt(2/(pi x)); x = 80 takes the asymptotic branch."""
    want = math.sinh(x) * math.sqrt(2.0 / (math.pi * x))
    assert math.exp(_log_bessel_i(0.5, x)[0]) == pytest.approx(want, rel=1e-12)


def test_log_bessel_i_consistent_with_linear_scale():
    """Both branches against scipy's exponentially scaled I_nu, in one call."""
    from scipy import special

    for order in (0.0, 1.0, 3.5):
        x = np.array([0.5, 4.0, 25.0, 150.0, 400.0])
        want = np.log(special.ive(order, x)) + x
        np.testing.assert_allclose(_log_bessel_i(order, x), want, rtol=1e-12)


def test_log_bessel_i_far_past_overflow():
    # I_0(2000) overflows float64; the log form must not
    lv = _log_bessel_i(0.0, 2000.0)[0]
    assert lv == pytest.approx(2000.0 - 0.5 * math.log(2 * math.pi * 2000.0), rel=1e-6)


# ---------------------------------------------------------------------------
# Incomplete gamma family
# ---------------------------------------------------------------------------

def test_lower_gamma_exponential_identity():
    """P(1, x) is the exponential CDF."""
    for x in (0.1, 1.0, 2.5, 9.0):
        assert specfun.reg_lower_inc_gamma(1.0, x) == pytest.approx(
            -math.expm1(-x), rel=1e-13)


def test_lower_gamma_at_zero():
    assert specfun.reg_lower_inc_gamma(2.5, 0.0) == 0.0
    assert specfun.reg_lower_inc_gamma(0.7, 0.0) == 0.0


def test_lower_gamma_pinned_value():
    """gamma(2.5, 3.7) = P(2.5, 3.7) Gamma(2.5)."""
    assert specfun.reg_lower_inc_gamma(2.5, 3.7) * math.gamma(2.5) == \
        pytest.approx(LOWER_GAMMA_2_5_AT_3_7, rel=1e-12)


def test_regularized_pair_complementary():
    rng = np.random.default_rng(78)
    for _ in range(200):
        s = float(rng.uniform(0.2, 30.0))
        x = float(rng.uniform(0.0, 60.0))
        p = specfun.reg_lower_inc_gamma(s, x)
        q = specfun.reg_upper_inc_gamma(s, x)
        assert 0.0 <= p <= 1.0
        assert p + q == pytest.approx(1.0, abs=1e-12)


def test_gamma_args_validated():
    with pytest.raises(ValueError):
        specfun.reg_lower_inc_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.reg_upper_inc_gamma(1.0, -1.0)


def test_gamma_series_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(specfun, "_GAMMA_MAX_TERMS", 2)
    with pytest.raises(SeriesTruncationError):
        specfun.reg_lower_inc_gamma(2.0, 1.0)


# ---------------------------------------------------------------------------
# Marcum Q, through the shipped kernel for 1 - Q_nu(a, b)
# ---------------------------------------------------------------------------

def _marcum_cdf(order, a, b):
    """1 - Q_order(a, b) from _one_minus_marcum_q_fixed_b (a may be an array)."""
    y = 0.5 * np.square(np.atleast_1d(np.asarray(a, dtype=float)))
    return specfun._one_minus_marcum_q_fixed_b(order, y, 0.5 * b * b)


def test_marcum_tail_from_zero_threshold():
    """Q_nu(a, 0) = 1, so the kernel returns exactly 0 at b = 0."""
    assert _marcum_cdf(1.0, [0.7, 3.0], 0.0).tolist() == [0.0, 0.0]
    assert _marcum_cdf(3.5, 0.0, 0.0)[0] == 0.0


def test_marcum_zero_noncentrality_is_gamma_tail():
    """Q_1(0, b) = e^(-b^2/2); Q_nu(0, b) = Q(nu, b^2/2)."""
    assert 1.0 - _marcum_cdf(1.0, 0.0, 2.0)[0] == pytest.approx(
        math.exp(-2.0), abs=1e-14)
    assert 1.0 - _marcum_cdf(2.0, 0.0, 1.3)[0] == pytest.approx(
        specfun.reg_upper_inc_gamma(2.0, 0.845), abs=1e-14)


def test_marcum_pinned_value():
    assert 1.0 - _marcum_cdf(2.0, 1.5, 0.8)[0] == pytest.approx(
        MARCUM_Q2_1_5_0_8, abs=1e-12)


def test_marcum_stays_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(300):
        order = float(rng.uniform(0.5, 8.0))
        a = rng.uniform(0.0, 15.0, size=8)
        b = float(rng.uniform(0.0, 15.0))
        cdf = _marcum_cdf(order, a, b)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))


def test_marcum_monotone_in_each_argument():
    """Q increasing in a and order, decreasing in b; 1 - Q the reverse."""
    rng = np.random.default_rng(6)
    for _ in range(150):
        order = float(rng.uniform(0.5, 6.0))
        a = float(rng.uniform(0.1, 8.0))
        b = float(rng.uniform(0.1, 8.0))
        cdf = _marcum_cdf(order, [a, a + 0.5], b)
        assert cdf[1] <= cdf[0] + 1e-12
        assert _marcum_cdf(order, a, b + 0.5)[0] >= cdf[0] - 1e-12
        assert _marcum_cdf(order + 0.5, a, b)[0] <= cdf[0] + 1e-12


def test_marcum_against_defining_integral():
    for order, a, b in ((1.0, 1.2, 2.1), (2.5, 0.4, 1.0), (4.0, 3.0, 5.5),
                        (2.0, 30.0, 29.0)):
        assert 1.0 - _marcum_cdf(order, a, b)[0] == pytest.approx(
            oracles.marcum_q_ncx2(order, a, b), abs=1e-11)


@pytest.mark.parametrize("order,b,a", [
    (2.0, 30.0, (0.0, 1.0, 3.0, 10.0, 20.0, 28.0, 35.0)),
    (0.5, 28.0, (0.2, 1.0, 5.0, 15.0)),
    (5.0, 40.0, (6.0, 20.0, 38.0)),
    (1.0, 20.5, (0.1, 2.0, 8.0)),
])
def test_marcum_complement_deep_tail_against_ncx2(order, b, a):
    """complement=True returns Q itself, to relative accuracy far below the
    1e-16 where 1 - (1 - Q) rounds to 0 (here down to 5e-250).  Rows with
    y < z need the window centred above y, near sqrt(y z)."""
    a = np.asarray(a)
    want = np.array([oracles.marcum_q_ncx2(order, v, b) for v in a])
    assert (want > 0.0).all()
    got = specfun._one_minus_marcum_q_fixed_b(order, 0.5 * a * a, 0.5 * b * b,
                                              complement=True)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def test_marcum_complement_edges():
    """Q_nu(a, 0) = 1 and Q_nu(0, b) = Q(nu, b^2/2) on the complement side."""
    tail = specfun._one_minus_marcum_q_fixed_b
    assert tail(2.0, np.array([0.0, 3.0]), 0.0, complement=True).tolist() == [1.0, 1.0]
    assert tail(2.0, np.array([0.0]), 200.0, complement=True)[0] == \
        specfun.reg_upper_inc_gamma(2.0, 200.0)


@pytest.mark.parametrize("order,z,ys", [
    (5.0, 67.4, (100.0, 215.0, 272.0, 308.0)),
    (5.0, 67.4, (30.0, 100.0, 215.0, 272.0, 308.0)),
    (0.5, 0.5, (0.1, 20.0, 60.0, 150.0)),
    (1.0, 20.0, (5.0, 40.0, 120.0, 300.0)),
])
def test_marcum_nodes_above_the_threshold_against_mp_mixture(order, z, ys):
    """Nodes with y > z, where 1 - Q is the small side (here down to
    2e-74): both sides to 1e-12 relative against a 30-digit Poisson
    mixture, in one batch and one node at a time, alone and batched with
    a node below z.  A P table formed by subtraction from
    P(order + k_lo, z) would floor near 1e-14."""
    tail = specfun._one_minus_marcum_q_fixed_b
    y = np.array(ys)
    want = np.array([[float(v) for v in oracles.marcum_pq_mixture_mp(order, v, z)]
                     for v in ys])
    batch = np.array([tail(order, y, z), tail(order, y, z, complement=True)]).T
    single = np.array([_marcum_pq(order, v, z) for v in ys])
    for got in (batch, single):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Marcum Q: the large-xi branch
# ---------------------------------------------------------------------------

LARGE_XI_ORDERS = (0.5, 1.0, 2.0, 4.0, 5.0, 7.5)


def _marcum_pq(order, y, z):
    """(1 - Q, Q) from the kernel at one node y."""
    tail = specfun._one_minus_marcum_q_fixed_b
    y = np.array([float(y)])
    return tail(order, y, z)[0], tail(order, y, z, complement=True)[0]


def _assert_pq_match(order, y, z, want):
    got = _marcum_pq(order, y, z)
    for side, g, w in zip(("1 - Q", "Q"), got, want):
        assert abs(g - float(w)) <= 1e-13 * float(w), (order, y, z, side, g, w)


def _deep(y, gap):
    # z with sqrt z - sqrt y = gap: the small side is near e^-(gap^2)
    return (math.sqrt(y) + gap) ** 2


@pytest.mark.parametrize("order", LARGE_XI_ORDERS)
def test_marcum_large_xi_against_mp_mixture(order):
    """Both sides to 1e-13 relative from the crossover to y, z ~ 1e4,
    against a 30-digit Poisson mixture; the smallest values lie between
    1e-300 and 1e-290, where 1 - (1 - Q) has long rounded to 0."""
    lo = specfun._LARGE_XI_MIN
    points = [(lo, lo), (lo, 3.0 * lo), (1.04 * lo, 1.28 * lo),
              (3000.0, 2500.0), (4000.0, _deep(4000.0, 26.0)),
              (8000.0, _deep(8000.0, -26.0))]
    smallest = 1.0
    for y, z in points:
        want = oracles.marcum_pq_mixture_mp(order, y, z)
        smallest = min(smallest, float(min(want)))
        _assert_pq_match(order, y, z, want)
    assert 1e-300 < smallest < 1e-290


@pytest.mark.parametrize("order,y,z", [
    (0.5, 1e9, 1e9), (1.0, 1e9, _deep(1e9, -20.0)), (2.0, 1e6, _deep(1e6, 3.0)),
    (4.0, 1e8, _deep(1e8, -1.0)), (5.0, 1e9, _deep(1e9, 9.5)),
    (7.5, 2e7, _deep(2e7, 25.0)), (7.5, 1e9, 1e9 - 4e4),
])
def test_marcum_large_xi_far_out_against_mp_integral(order, y, z):
    """Up to y, z = 1e9, where the Poisson window would span 5e5 terms
    per node, against the defining integral in mpmath; values down to
    4e-274."""
    _assert_pq_match(order, y, z, oracles.marcum_pq_integral_mp(order, y, z))


def test_marcum_oracles_agree():
    """The integral oracle reproduces the mixture oracle, deep tails too."""
    for order, y, z in ((5.0, 600.0, 700.0), (2.0, 8000.0, _deep(8000.0, -20.0)),
                        (7.5, 4000.0, _deep(4000.0, 22.0))):
        mix = oracles.marcum_pq_mixture_mp(order, y, z)
        quad = oracles.marcum_pq_integral_mp(order, y, z)
        for a, b in zip(mix, quad):
            assert abs(a - b) <= 1e-25 * abs(a)


@pytest.mark.parametrize("order", LARGE_XI_ORDERS)
def test_marcum_large_xi_continuous_at_crossover(order):
    """Nodes one ulp either side of the crossover take different paths
    (mixture below, expansion at and above) and agree on both sides; so
    do thresholds z one ulp either side of it.  The jump is the mixture's
    own error: relative 1e-12 near 1/2, and an absolute floor of a few
    1e-13 on the 1 - Q side where y > z.  At y = 600, z = 500, where 1 - Q
    is about 1e-3, the mixture sits 4e-11 to 3e-10 off the mpmath oracle
    (orders 0.5 to 7.5) and the expansion 1e-15 off."""
    tail = specfun._one_minus_marcum_q_fixed_b
    lo = specfun._LARGE_XI_MIN
    below = np.nextafter(lo, 0.0)
    for complement in (False, True):
        for z in (lo, 1.3 * lo, 3.0 * lo):
            pair = tail(order, np.array([below, lo]), z, complement)
            np.testing.assert_allclose(pair[0], pair[1], rtol=1e-12, atol=5e-13)
        y = np.array([lo, 1.2 * lo])
        np.testing.assert_allclose(tail(order, y, below, complement),
                                   tail(order, y, lo, complement),
                                   rtol=1e-12, atol=5e-13)


def test_marcum_large_xi_range_and_monotone():
    """Random nodes on the branch, z from the crossover to 1e9, y within a
    factor 2 of z, orders 0.5 to 20: both sides stay in [0, 1], sum to 1,
    and move the right way in y, z and the order."""
    tail = specfun._one_minus_marcum_q_fixed_b
    rng = np.random.default_rng(11)
    for _ in range(300):
        order = float(rng.uniform(0.5, 20.0))
        lo = max(specfun._LARGE_XI_MIN, order * order)
        z = float(lo * 10.0 ** rng.uniform(0.3, math.log10(1e9 / lo)))
        y = np.sort(z * 10.0 ** rng.uniform(-0.3, 0.3, size=8))
        cdf, q = tail(order, y, z), tail(order, y, z, complement=True)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0) & (q >= 0.0) & (q <= 1.0))
        assert np.all(np.abs(cdf + q - 1.0) <= 5e-16)
        assert np.all(np.diff(cdf) <= 0.0) and np.all(np.diff(q) >= 0.0)
        assert np.all(tail(order, y, 1.001 * z) >= cdf)
        assert np.all(tail(order + 0.5, y, z) <= cdf)


def test_marcum_large_arguments_never_reach_the_mixture(monkeypatch):
    """y = z = 1e8 would need a 1.6e5-term Poisson window; the expansion
    answers with the mixture switched off."""
    def refuse(*args):
        raise AssertionError("Poisson mixture called")

    monkeypatch.setattr(specfun, "_poisson_mix_chunk", refuse)
    y = np.array([1e8, 1e8 + 1e4, 2e8])
    for order in (0.5, 5.0):
        cdf = specfun._one_minus_marcum_q_fixed_b(order, y, 1e8)
        q = specfun._one_minus_marcum_q_fixed_b(order, y, 1e8, complement=True)
        np.testing.assert_allclose(cdf + q, 1.0, rtol=0.0, atol=1e-15)
        assert 0.4 < cdf[0] <= 0.5 and cdf[2] == 0.0
        assert np.all(np.diff(cdf) < 0.0)


def test_marcum_small_threshold_skips_the_expansion(monkeypatch):
    """The branch needs z at the crossover and order^2 below z: a smaller
    z, or an order too large for the truncated series, keeps every node on
    the mixture however large y is."""
    def refuse(*args):
        raise AssertionError("large-xi expansion called")

    monkeypatch.setattr(specfun, "_marcum_large_xi", refuse)
    lo = specfun._LARGE_XI_MIN
    y = np.array([0.5 * lo, 2.0 * lo, 4.0 * lo])
    specfun._one_minus_marcum_q_fixed_b(2.0, y, np.nextafter(lo, 0.0))
    big_order = math.sqrt(1.5 * lo)
    specfun._one_minus_marcum_q_fixed_b(big_order, y, 1.2 * lo)


@pytest.mark.parametrize("order", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("z", [0.7, 24.3, 450.0])
@pytest.mark.parametrize("complement", [False, True])
def test_marcum_table_memo_leaves_results_unchanged(order, z, complement):
    """A memo hit returns exactly what a cold build returns, whatever was
    evaluated before: other nodes, other thresholds, the other side."""
    kernel = specfun._one_minus_marcum_q_fixed_b
    memo = specfun._mixture_tables
    y = z * np.array([0.01, 0.2, 0.6, 0.95, 1.5, 3.0])
    memo.cache_clear()
    cold = kernel(order, y, z, complement)

    memo.cache_clear()
    kernel(order, 0.5 * y + 0.3, z, complement)
    kernel(order, y, 1.1 * z, complement)
    kernel(order, y, z, not complement)
    kernel(order, y, z, complement)
    hits = memo.cache_info().hits
    warm = kernel(order, y, z, complement)
    assert memo.cache_info().hits > hits
    assert np.array_equal(warm, cold)


def test_marcum_memo_tables_are_read_only():
    tab, lg_k = specfun._mixture_tables(2.0, 24.3, 0, 80, False, False)
    with pytest.raises(ValueError):
        tab[0] = 0.5
    with pytest.raises(ValueError):
        lg_k[0] = 0.5


def test_marcum_memo_stays_small_over_a_threshold_sweep():
    """The memo holds at most 64 windows, and after a 16-threshold sweep of
    rate pairs at N = 4, W = 0.03, m = 5 what it keeps alive is about 1 MB."""
    chan = FasChannel(4, 0.03, 5.0)
    specfun._mixture_tables.cache_clear()
    tracemalloc.start()
    try:
        for x in np.linspace(0.1, 2.5, 16):
            failure_repair_rates(CrossingContext(chan, 10.0, float(x)))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current <= 3e6
    assert specfun._mixture_tables.cache_info().currsize <= 64


# ---------------------------------------------------------------------------
# Gaussian tail and inverse
# ---------------------------------------------------------------------------

def test_qfunc_median():
    assert oracles.qfunc(0.0) == 0.5


def test_qfunc_symmetry():
    for x in (0.3, 1.0, 2.7):
        assert oracles.qfunc(-x) == pytest.approx(1.0 - oracles.qfunc(x), abs=1e-15)


def test_qfunc_inv_median_is_exact_zero():
    assert specfun.qfunc_inv(0.5) == 0.0


def test_qfunc_inv_pinned_value():
    assert specfun.qfunc_inv(1e-2) == pytest.approx(QFUNC_INV_1E2, rel=1e-12)


def test_qfunc_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(400):
        p = float(rng.uniform(1e-9, 1.0 - 1e-9))
        assert oracles.qfunc(specfun.qfunc_inv(p)) == pytest.approx(p, abs=1e-10)


def test_qfunc_inv_matches_extended_precision_root():
    """2e-15 relative against a 50-digit root, from 1e-300 up to 1 - 2^-53
    and at the smallest subnormal."""
    ps = [float(p) for p in np.geomspace(1e-300, 0.49, 60)]
    ps += [0.5 - 1e-12, 0.5 + 1e-12, 0.51, 0.9, 1.0 - 1e-6, 1.0 - 1e-12,
           1.0 - 2.0 ** -53, 5e-324]
    for p in ps:
        want = oracles.qfunc_inv_mp(p)
        assert specfun.qfunc_inv(p) == pytest.approx(float(want), rel=2e-15, abs=0.0), p


def test_qfunc_inv_domain():
    for p in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            specfun.qfunc_inv(p)
