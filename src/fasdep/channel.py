"""N-port fluid antenna channel model over correlated Nakagami-m fading.

The port layout is a uniform linear aperture of ``aperture`` wavelengths;
port k's envelope is correlated with the reference port through
J0(2 pi (k-1) W / (N-1)).  Joint statistics follow the product-of-bivariate
construction: the reference envelope carries the marginal Nakagami law and
every other port is conditionally independent given it, so each joint CDF
integrates the reference density against the conditional port CDFs
F_k(x1) = 1 - Q_m(c_k x1, d_k X_k), evaluated directly by the Marcum
kernel in specfun.

All densities depend on the correlations only through mu_k^2, so negative
J0 values (wide apertures) need no special treatment; formulas written
with mu^(m-1) in them are evaluated through the even-in-mu scaled Bessel
form to keep non-integer m and mu <= 0 on one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from . import specfun
from .errors import SeriesTruncationError
from .quadrature import adaptive_gk

__all__ = [
    "FasChannel",
    "spatial_correlation",
    "joint_cdf",
    "max_cdf",
    "max_cdf_and_survival",
    "bivariate_cdf_series",
    "marginal_pdf",
    "marginal_cdf",
]

# Quadrature budget for every CDF-type integral in this module.
_CDF_ABS_TOL = 1e-10
_CDF_REL_TOL = 1e-8
_CDF_MAX_SUBDIV = 2000
# The two-port gamma series (here and in levelcross) stop at a term below
# this share of the running sum, and give up after this many terms.
_SERIES_REL_TOL = 1e-14
_SERIES_MAX_TERMS = 500


def spatial_correlation(k: int, n_ports: int, aperture: float) -> float:
    """Correlation mu_k = J0(2 pi (k-1) W / (N-1)) of port k with port 1.

    Defined for k = 2..N on an N >= 2 port aperture of W wavelengths.
    """
    if n_ports < 2:
        raise ValueError(f"need at least two ports, got N={n_ports}")
    if not 2 <= k <= n_ports:
        raise ValueError(f"port index must lie in 2..{n_ports}, got {k}")
    if not aperture >= 0.0:
        raise ValueError(f"aperture must be nonnegative, got {aperture}")
    return specfun.bessel_j0(2.0 * math.pi * (k - 1) * aperture / (n_ports - 1))


@dataclass(frozen=True)
class FasChannel:
    """Immutable N-port channel configuration.

    mu is derived from the aperture on construction; pass it explicitly
    (see with_correlation) to study hypothetical correlation profiles, in
    which case the aperture is recorded as NaN.

    Attributes:
        n_ports: number of switchable ports, N >= 1.
        aperture: linear span in wavelengths, W >= 0.
        nakagami_m: fading figure m >= 0.5.
        power: mean square envelope sigma^2 > 0.
        mu: correlations (mu_2, ..., mu_N) against the reference port.
    """

    n_ports: int
    aperture: float
    nakagami_m: float
    power: float = 1.0
    mu: Tuple[float, ...] = field(default=None)

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError(f"n_ports must be >= 1, got {self.n_ports}")
        if self.nakagami_m < 0.5:
            raise ValueError(f"nakagami_m must be >= 0.5, got {self.nakagami_m}")
        if not self.power > 0.0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.mu is None:
            if not self.aperture >= 0.0:
                raise ValueError(f"aperture must be nonnegative, got {self.aperture}")
            derived = tuple(
                spatial_correlation(k, self.n_ports, self.aperture)
                for k in range(2, self.n_ports + 1))
            object.__setattr__(self, "mu", derived)
        else:
            object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
            if len(self.mu) != max(self.n_ports - 1, 0):
                raise ValueError(
                    f"mu must have {self.n_ports - 1} entries, got {len(self.mu)}")
            if any(abs(v) > 1.0 for v in self.mu):
                raise ValueError("correlations must satisfy |mu_k| <= 1")

    @classmethod
    def with_correlation(cls, n_ports: int, mu: Sequence[float], nakagami_m: float,
                         power: float = 1.0) -> "FasChannel":
        """Channel with an explicitly forced correlation vector."""
        return cls(n_ports=n_ports, aperture=math.nan, nakagami_m=nakagami_m,
                   power=power, mu=tuple(mu))

    def degenerate_ports(self) -> bool:
        """True when any |mu_k| = 1 (identical ports; joint laws singular)."""
        return any(abs(v) == 1.0 for v in self.mu)


# ---------------------------------------------------------------------------
# Marginal Nakagami law
# ---------------------------------------------------------------------------

def marginal_pdf(chan: FasChannel, x: float) -> float:
    """Single-port envelope density 2 m^m x^(2m-1) e^(-m x^2/s2) / (Gamma(m) s2^m)."""
    if x < 0.0:
        return 0.0
    m = chan.nakagami_m
    if x == 0.0:
        # x^(2m-1) limit: zero unless the exponent hits 0 at m = 1/2
        if m > 0.5:
            return 0.0
        return 2.0 * math.sqrt(m / chan.power) / math.gamma(m)
    return math.exp(_log_marginal_pdf(m, chan.power, x))


def _log_marginal_pdf(m: float, sigma2: float, x: float) -> float:
    return (math.log(2.0) + m * math.log(m) + (2.0 * m - 1.0) * math.log(x)
            - m * x * x / sigma2 - math.lgamma(m) - m * math.log(sigma2))


def _log_marginal_pdf_vec(m: float, sigma2: float, x: np.ndarray) -> np.ndarray:
    # callers guarantee x > 0
    return (math.log(2.0) + m * math.log(m) + (2.0 * m - 1.0) * np.log(x)
            - m * x * x / sigma2 - math.lgamma(m) - m * math.log(sigma2))


def marginal_cdf(chan: FasChannel, x: float) -> float:
    """Single-port envelope CDF, the regularized lower gamma P(m, m x^2/s2)."""
    if x <= 0.0:
        return 0.0
    m = chan.nakagami_m
    return specfun.reg_lower_inc_gamma(m, m * x * x / chan.power)


# ---------------------------------------------------------------------------
# Conditional port CDFs shared with the crossing-rate integrals
# ---------------------------------------------------------------------------

def _conditional_cdfs(chan: FasChannel, uppers: Sequence[float],
                      x1: np.ndarray, complement: bool = False) -> np.ndarray:
    """Rows F_k(x1) = 1 - Q_m(c_k x1, d_k X_k) for ports k = 2..N.

    F_k is the conditional probability that port k sits below X_k =
    uppers[k-2] given the reference envelope x1, with
    c_k^2 = 2 m mu_k^2 / (s2 (1 - mu_k^2)) and d_k^2 = 2 m / (s2 (1 - mu_k^2)).
    With complement=True the rows are the Marcum tails 1 - F_k instead.
    Returns an (N-1, len(x1)) array; callers reject |mu_k| = 1.
    """
    m = chan.nakagami_m
    s2 = chan.power
    x1_sq = np.square(np.asarray(x1, dtype=float))
    rows = np.empty((len(chan.mu), x1_sq.size))
    for row, mu_k, upper in zip(rows, chan.mu, uppers):
        one_minus = 1.0 - mu_k * mu_k
        y_scale = m * mu_k * mu_k / (s2 * one_minus)
        z = m * upper * upper / (s2 * one_minus)
        row[:] = specfun._one_minus_marcum_q_fixed_b(m, y_scale * x1_sq, z,
                                                     complement)
    return rows


# ---------------------------------------------------------------------------
# Joint statistics
# ---------------------------------------------------------------------------

def _cdf_quad(chan: FasChannel, x1_hi: float, uppers: Sequence[float],
              complement: bool = False) -> float:
    """Common quadrature core: integral of marginal(x1) * prod_k F_k(x1).

    complement=True returns 1 minus it as Q(m, m x1_hi^2/s2) plus the
    integral of marginal(x1) * (1 - prod_k F_k(x1)), formed from the Marcum
    tails and run to a relative tolerance only, so that it stays accurate
    far below the CDF's absolute tolerance.
    """
    m = chan.nakagami_m
    s2 = chan.power

    def integrand(x1: np.ndarray) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        safe = np.maximum(x1, 1e-300)
        lead = np.exp(_log_marginal_pdf_vec(m, s2, safe))
        lead[x1 <= 0.0] = marginal_pdf(chan, 0.0)
        if complement:
            tails = _conditional_cdfs(chan, uppers, x1, complement=True)
            return lead * -np.expm1(np.log1p(-tails).sum(axis=0))
        return lead * _conditional_cdfs(chan, uppers, x1).prod(axis=0)

    # seed the mesh around the marginal mode so a single wide segment
    # cannot straddle a sharp peak unnoticed
    peak = math.sqrt(s2 * max(2.0 * m - 1.0, 0.1) / (2.0 * m))
    seeds = [f * peak for f in (0.5, 1.0, 1.5, 2.5)] + [0.5 * x1_hi]
    res = adaptive_gk(integrand, 0.0, x1_hi,
                      abs_tol=0.0 if complement else _CDF_ABS_TOL,
                      rel_tol=_CDF_REL_TOL, max_subdiv=_CDF_MAX_SUBDIV,
                      points=seeds)
    value = max(res.value, 0.0)
    if complement:
        value += specfun.reg_upper_inc_gamma(m, m * x1_hi * x1_hi / s2)
    return min(value, 1.0)


def joint_cdf(chan: FasChannel, upper: Sequence[float]) -> float:
    """P(alpha_1 < X_1, ..., alpha_N < X_N) by adaptive quadrature."""
    ups = [float(v) for v in upper]
    if len(ups) != chan.n_ports:
        raise ValueError(f"expected {chan.n_ports} components, got {len(ups)}")
    if any(v < 0.0 for v in ups):
        raise ValueError("upper limits must be nonnegative")
    if chan.n_ports == 1:
        return marginal_cdf(chan, ups[0])
    if chan.degenerate_ports():
        raise ValueError("joint CDF singular at |mu_k| = 1 (identical ports)")
    if any(v == 0.0 for v in ups):
        return 0.0
    return _cdf_quad(chan, ups[0], ups[1:])


def max_cdf_and_survival(chan: FasChannel, x_th: float) -> Tuple[float, float]:
    """CDF of the selected (best-port) envelope at x_th, and 1 minus it.

    The smaller side is computed and the other taken as 1 minus it; above
    the median that is the survival, accurate deep into the tail.  Where
    the union bound N Q(m, m x_th^2/s2) on the survival is below 1/2, the
    CDF is not integrated at all.
    """
    if x_th < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {x_th}")
    if x_th == 0.0:
        return 0.0, 1.0
    m = chan.nakagami_m
    z = m * x_th * x_th / chan.power
    if chan.n_ports == 1:
        return specfun.reg_lower_inc_gamma(m, z), specfun.reg_upper_inc_gamma(m, z)
    if chan.degenerate_ports():
        raise ValueError("joint CDF singular at |mu_k| = 1 (identical ports)")
    x_th = float(x_th)
    uppers = (x_th,) * len(chan.mu)
    if chan.n_ports * specfun.reg_upper_inc_gamma(m, z) >= 0.5:
        cdf = _cdf_quad(chan, x_th, uppers)
        if cdf <= 0.5:
            return cdf, 1.0 - cdf
    survival = _cdf_quad(chan, x_th, uppers, complement=True)
    return 1.0 - survival, survival


def max_cdf(chan: FasChannel, x_th: float) -> float:
    """CDF of the selected (best-port) envelope, evaluated at x_th."""
    return max_cdf_and_survival(chan, x_th)[0]


def bivariate_cdf_series(chan: FasChannel, x1: float, x2: float) -> float:
    """Two-port joint CDF by its gamma-product series.

    Series form: (1-mu^2)^m / Gamma(m) * sum_k mu^(2k)
    gamma(m+k, Z1) gamma(m+k, Z2) / (k! Gamma(m+k)) with
    Z_i = m x_i^2 / (s2 (1-mu^2)).  Terms accumulate in log space; the sum
    stops once the last term falls below _SERIES_REL_TOL of the total.
    """
    if chan.n_ports != 2:
        raise ValueError(f"two-port channel required, got N={chan.n_ports}")
    if x1 < 0.0 or x2 < 0.0:
        raise ValueError("upper limits must be nonnegative")
    if x1 == 0.0 or x2 == 0.0:
        return 0.0
    mu = chan.mu[0]
    if abs(mu) >= 1.0:
        raise ValueError("series requires |mu_2| < 1")
    m = chan.nakagami_m
    s2 = chan.power
    if mu == 0.0:
        return marginal_cdf(chan, x1) * marginal_cdf(chan, x2)

    om = 1.0 - mu * mu
    z1 = m * x1 * x1 / (s2 * om)
    z2 = m * x2 * x2 / (s2 * om)
    lmu2 = 2.0 * math.log(abs(mu))
    # log of mu^(2k) Gamma(m+k) P(m+k,Z1) P(m+k,Z2) / k!
    total = -math.inf
    prev = -math.inf
    for k in range(_SERIES_MAX_TERMS):
        p1 = specfun.reg_lower_inc_gamma(m + k, z1)
        p2 = specfun.reg_lower_inc_gamma(m + k, z2)
        if p1 <= 0.0 or p2 <= 0.0:
            break  # deeper terms only shrink further
        lt = (k * lmu2 + math.lgamma(m + k) - math.lgamma(k + 1.0)
              + math.log(p1) + math.log(p2))
        total = _logaddexp(total, lt)
        if lt < total + math.log(_SERIES_REL_TOL) and lt < prev:
            break
        prev = lt
    else:
        raise SeriesTruncationError(
            f"bivariate CDF series needed more than {_SERIES_MAX_TERMS} "
            f"terms (mu={mu}, x=({x1}, {x2}))")
    value = math.exp(m * math.log(om) - math.lgamma(m) + total)
    return min(max(value, 0.0), 1.0)


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))
