"""Level-crossing statistics of the selected-port envelope.

Every port's envelope derivative is Gaussian with variance
pi^2 (sigma^2/m) f_D^2, independent of the envelopes, so every crossing
rate is one scale times a density: lcr = C f_max(x) with
C = (1/2) sqrt(2 pi sigma^2 / m) f_D and f_max the density of the selected
envelope at the threshold.  For a single port f_max is the Nakagami
density; for independent ports it is N F^(N-1) f.  In general the
selected envelope falls below the threshold when every port is below it,
so f_max collects one boundary term per port: the term for port i
integrates the bivariate density of (reference, port i) pinned at the
threshold against the conditional CDFs of the remaining ports.

The two-port gamma series doubles as a cross-check of the quadrature
path.  Identical ports (|mu_k| = 1) cross like one port; the general
routes reject them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channel import (_SERIES_MAX_TERMS, _SERIES_REL_TOL, FasChannel,
                      _conditional_cdfs, _logaddexp, marginal_cdf,
                      marginal_pdf, max_cdf_and_survival)
from .errors import QuadratureError, SeriesTruncationError
from .quadrature import adaptive_gk

__all__ = [
    "CrossingContext",
    "RatePair",
    "lcr",
    "normalized_lcr",
    "lcr_iid",
    "lcr_two_port_series",
    "afd",
    "anfd",
    "failure_repair_rates",
]


@dataclass(frozen=True)
class CrossingContext:
    """Channel plus the dynamics inputs of a crossing-rate query.

    doppler_hz is the maximum Doppler shift f_D > 0; threshold is the
    envelope level x_th >= 0 the crossings are counted against.
    """

    channel: FasChannel
    doppler_hz: float
    threshold: float

    def __post_init__(self):
        if not self.doppler_hz > 0.0:
            raise ValueError(f"doppler_hz must be positive, got {self.doppler_hz}")
        if not self.threshold >= 0.0:
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")


@dataclass(frozen=True)
class RatePair:
    """Failure rate Upsilon = 1/ANFD and repair rate beta = 1/AFD, in 1/s."""

    failure_rate: float
    repair_rate: float


def _crossing_scale(ctx: CrossingContext) -> float:
    # every port's envelope derivative has variance pi^2 (sigma^2/m) f_D^2
    m, s2 = ctx.channel.nakagami_m, ctx.channel.power
    return 0.5 * math.sqrt(2.0 * math.pi * s2 / m) * ctx.doppler_hz


def lcr(ctx: CrossingContext) -> float:
    """Down-crossing rate of the selected envelope through the threshold."""
    chan = ctx.channel
    x = ctx.threshold
    if chan.n_ports == 1:
        return _crossing_scale(ctx) * marginal_pdf(chan, x)
    if chan.degenerate_ports():
        raise ValueError(
            "|mu_k| = 1 makes the ports identical; they cross like a single "
            "port, so evaluate the n_ports=1 channel instead")
    if x == 0.0:
        return 0.0

    # f_max(x): the reference port's boundary term, then every other port's
    density = marginal_pdf(chan, x) * float(_conditional_cdfs(
        chan, (float(x),) * len(chan.mu), np.array([x])).prod(axis=0)[0])
    for port in range(2, chan.n_ports + 1):
        density += _port_crossing_integral(chan, port, x)
    return _crossing_scale(ctx) * density


def normalized_lcr(ctx: CrossingContext) -> float:
    """LCR divided by the Doppler frequency (dimensionless)."""
    return lcr(ctx) / ctx.doppler_hz


def _port_crossing_integral(chan: FasChannel, port: int, x: float) -> float:
    """Integral over the reference envelope for the boundary term of `port`."""
    m = chan.nakagami_m
    s2 = chan.power
    mu = chan.mu[port - 2]
    om = 1.0 - mu * mu
    denom = s2 * om
    w_scale = 2.0 * m * abs(mu) * x / denom
    const = (math.log(4.0) + 2.0 * m * math.log(m) + (2.0 * m - 1.0) * math.log(x)
             - math.lgamma(m) - 2.0 * m * math.log(s2) - m * math.log(om)
             - m * x * x / denom)
    # the other ports' conditional CDFs: this port's row is never built
    rest = FasChannel.with_correlation(
        chan.n_ports - 1, chan.mu[:port - 2] + chan.mu[port - 1:], m, s2)
    uppers = (float(x),) * len(rest.mu)

    def integrand(x1: np.ndarray) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        safe = np.maximum(x1, 1e-300)
        lg = (const + (2.0 * m - 1.0) * np.log(safe)
              + specfun._log_bessel_i_scaled_vec(m - 1.0, w_scale * x1)
              - m * x1 * x1 / denom)
        vals = np.exp(lg)
        vals[x1 <= 0.0] = 0.0 if m > 0.5 else math.exp(const)
        return vals * _conditional_cdfs(rest, uppers, x1).prod(axis=0)

    # the kernel rides a ridge near mu*x and, for |mu| near 1, piles up
    # against the right endpoint on a width set by the residual spread
    width = math.sqrt(denom / (2.0 * m))
    seeds = [abs(mu) * x, 0.5 * x, x - width, x - 5.0 * width]
    try:
        res = adaptive_gk(integrand, 0.0, x, abs_tol=0.0, rel_tol=1e-9,
                          max_subdiv=2000, points=seeds)
    except QuadratureError as exc:
        raise QuadratureError(
            f"crossing-rate term for port {port} did not converge: {exc}",
            exc.estimate, exc.error) from exc
    return max(res.value, 0.0)


def lcr_iid(ctx: CrossingContext) -> float:
    """Crossing rate when all N ports fade independently (mu_k = 0), from
    the density N F^(N-1) f of the largest of N i.i.d. envelopes."""
    chan = ctx.channel
    x = ctx.threshold
    n = chan.n_ports
    return (_crossing_scale(ctx) * n * marginal_cdf(chan, x) ** (n - 1)
            * marginal_pdf(chan, x))


def lcr_two_port_series(ctx: CrossingContext) -> float:
    """Two-port crossing rate by its single-sum gamma series.

    The sum runs over even powers of the correlation; each term carries the
    regularized lower gamma P(m+k, Z) with Z = m x^2/(s2 (1-mu^2)), so the
    Gamma(m+k) factors cancel and the accumulation stays in log space.
    Stops once the latest term drops below _SERIES_REL_TOL of the sum.
    """
    chan = ctx.channel
    if chan.n_ports != 2:
        raise ValueError(f"two-port channel required, got N={chan.n_ports}")
    mu = chan.mu[0]
    if abs(mu) >= 1.0:
        raise ValueError("series requires |mu_2| < 1; identical ports cross "
                         "like a single port (n_ports=1)")
    x = ctx.threshold
    if x == 0.0:
        return 0.0
    m = chan.nakagami_m
    s2 = chan.power
    if mu == 0.0:
        return lcr_iid(ctx)

    om = 1.0 - mu * mu
    z = m * x * x / (s2 * om)
    kappa = m / (s2 * om)
    lmu2 = 2.0 * math.log(abs(mu))
    lx = math.log(x)
    lkap = math.log(kappa)

    total = -math.inf
    prev = math.inf
    for k in range(_SERIES_MAX_TERMS):
        p = specfun.reg_lower_inc_gamma(m + k, z)
        if p <= 0.0:
            break
        lt = (k * lmu2 + (2.0 * k + m - 1.0) * lx + (k - 1.0) * lkap
              - math.lgamma(k + 1.0) + math.log(p))
        total = _logaddexp(total, lt)
        if lt < total + math.log(_SERIES_REL_TOL) and lt < prev:
            break
        prev = lt
    else:
        raise SeriesTruncationError(
            f"two-port crossing series needed more than {_SERIES_MAX_TERMS} "
            f"terms (mu={mu}, x_th={x})", partial=total)

    lead = (0.5 * math.log(2.0 * math.pi) + math.log(2.0)
            + (m + 0.5) * math.log(m) + m * lx - z
            - math.lgamma(m) - (m + 0.5) * math.log(s2) - math.log(om))
    return ctx.doppler_hz * math.exp(lead + total)


def _fade_durations(ctx: CrossingContext) -> tuple[float, float, float, float]:
    """(AFD, ANFD, CDF, LCR) of the selected envelope at the threshold.

    AFD = CDF/LCR and ANFD = (1 - CDF)/LCR, with CDF and 1 - CDF from
    max_cdf_and_survival.  Where no crossing is counted, at x_th = 0 or
    where the crossing rate underflows to 0, the envelope stays on one
    side: above the median of the selected envelope the link stays down
    (AFD inf, ANFD 0), below it it never fades (AFD 0, ANFD inf).
    """
    cdf, survival = max_cdf_and_survival(ctx.channel, ctx.threshold)
    rate = lcr(ctx)
    if rate > 0.0 and ctx.threshold > 0.0:
        return cdf / rate, survival / rate, cdf, rate
    return ((math.inf, 0.0) if cdf > 0.5 else (0.0, math.inf)) + (cdf, rate)


def afd(ctx: CrossingContext) -> float:
    """Average fade duration: time below threshold per down-crossing, seconds."""
    return _fade_durations(ctx)[0]


def anfd(ctx: CrossingContext) -> float:
    """Average non-fade duration (1 - CDF)/LCR, seconds (0 where AFD is inf)."""
    return _fade_durations(ctx)[1]


def failure_repair_rates(ctx: CrossingContext) -> RatePair:
    """Outage birth/death rates: Upsilon = 1/ANFD and beta = 1/AFD.

    Where no crossing is counted (see _fade_durations), a link that never
    fades has Upsilon = 0 and beta = inf, and one that stays down has
    Upsilon = inf and beta = 0.
    """
    fade, non_fade, _, _ = _fade_durations(ctx)
    return RatePair(
        failure_rate=1.0 / non_fade if non_fade > 0.0 else math.inf,
        repair_rate=1.0 / fade if fade > 0.0 else math.inf)
