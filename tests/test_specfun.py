"""Special-function layer: pinned values, identities, and failure modes."""

import math

import numpy as np
import pytest

from fasdep import specfun
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


# ---------------------------------------------------------------------------
# Gaussian tail and inverse
# ---------------------------------------------------------------------------

def test_qfunc_median():
    assert specfun.qfunc(0.0) == 0.5


def test_qfunc_symmetry():
    for x in (0.3, 1.0, 2.7):
        assert specfun.qfunc(-x) == pytest.approx(1.0 - specfun.qfunc(x), abs=1e-15)


def test_qfunc_inv_median_is_exact_zero():
    assert specfun.qfunc_inv(0.5) == 0.0


def test_qfunc_inv_pinned_value():
    assert specfun.qfunc_inv(1e-2) == pytest.approx(QFUNC_INV_1E2, rel=1e-12)


def test_qfunc_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(400):
        p = float(rng.uniform(1e-9, 1.0 - 1e-9))
        assert specfun.qfunc(specfun.qfunc_inv(p)) == pytest.approx(p, abs=1e-10)


def test_qfunc_inv_domain():
    for p in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            specfun.qfunc_inv(p)
