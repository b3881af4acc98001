"""Special functions backing the fading, crossing-rate and QoS layers.

Runtime dependencies stop at numpy and the stdlib on purpose; everything
here is pinned against high-precision oracles in the test suite.  The
inventory is exactly what the model needs:

* ``bessel_j0``         port correlation profile, from its integral form
* ``reg_lower_inc_gamma``/``reg_upper_inc_gamma``  Nakagami CDF and tail
* ``qfunc_inv``         finite-blocklength rate penalty (stdlib quantile)

and two private array kernels the quadrature integrands call:
``_log_bessel_i_scaled_vec`` (conditional envelope densities) and
``_one_minus_marcum_q_fixed_b`` (conditional envelope CDFs 1 - Marcum Q, or Q).
The Marcum kernel sums a Poisson mixture of gamma tables, whose cost grows
as sqrt(y); where both Marcum arguments y and z reach the crossover
``_LARGE_XI_MIN`` = 500 (and order^2) it switches to the Gil-Segura-Temme
large-xi erfc expansion, whose cost does not depend on y.  The mixture's
tables are memoized per exact window (order, z, k range, side) in a
64-entry ``lru_cache``: every row and integral at one threshold shares one
build, and a hit returns exactly what a cold build would.

Math references in comments use standard handbook numbering (DLMF ch. 10,
Numerical Recipes ch. 6).
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np

from .errors import SeriesTruncationError

__all__ = [
    "bessel_j0",
    "reg_lower_inc_gamma",
    "reg_upper_inc_gamma",
    "qfunc_inv",
]

# incomplete-gamma series and continued fraction: target relative
# truncation error, and the term budget before SeriesTruncationError
_GAMMA_REL_TOL = 1e-12
_GAMMA_MAX_TERMS = 500

# Marcum kernel: y and z at or above this (and above order^2) take the
# large-xi expansion, truncated after _LARGE_XI_TERMS terms
_LARGE_XI_MIN = 500.0
_LARGE_XI_TERMS = 12
_erfc = np.frompyfunc(math.erfc, 1, 1)


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Midpoint rule on J0(x) = (1/pi) int_0^pi cos(x sin t) dt (DLMF 10.9.1).
    The integrand is smooth and pi-periodic, so the rule converges
    geometrically once n = floor(x/2 + 4 x^(1/3)) + 20 nodes resolve its
    oscillations: within 2e-14 absolute out to x = 3000.
    """
    ax = abs(float(x))
    n = int(0.5 * ax + 4.0 * ax ** (1.0 / 3.0)) + 20
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    return float(np.cos(ax * np.sin(theta)).mean())


# ---------------------------------------------------------------------------
# Modified Bessel I
# ---------------------------------------------------------------------------

def _log_bessel_i_scaled_vec(order: float, x: np.ndarray) -> np.ndarray:
    """log of I_order(x) * (x/2)^(-order) elementwise, order > -1, ~1e-15.

    The scaled function equals sum_j (x^2/4)^j / (j! Gamma(order+j+1)) and
    stays finite at x = 0; the removable prefactor is exactly what
    degenerates when the density formulas divide I_(m-1) by a vanishing
    correlation power, so callers restore log I = result + order log(x/2)
    themselves.  Power series below 30 (1 + order), the DLMF 10.40.1
    asymptotic expansion above.  Accepts any sign of x (the scaled function
    is even), which is how the density formulas absorb negative
    correlation values.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x < 30.0 * (1.0 + order)
    if small.any():
        xs = x[small]
        q = 0.25 * xs * xs
        term = np.ones_like(q)
        total = np.ones_like(q)
        jpeak = math.sqrt(float(q.max())) if q.size else 0.0
        jmax = int(jpeak) + int(10.0 * math.sqrt(jpeak + 4.0)) + 20
        offset = 0.0
        for j in range(1, jmax + 1):
            term *= q / (j * (order + j))
            total += term
            if j % 32 == 0 and float(total.max()) > 1e280:
                sc = float(total.max())
                total /= sc
                term /= sc
                offset += math.log(sc)
        out[small] = np.log(total) + offset - math.lgamma(order + 1.0)
    big = ~small
    if big.any():
        xb = x[big]
        fournu2 = 4.0 * order * order
        t = np.ones_like(xb)
        total = np.ones_like(xb)
        for k in range(1, 21):
            t *= ((2 * k - 1) ** 2 - fournu2) / (8.0 * k * xb)
            total += t
        out[big] = (xb - 0.5 * np.log(2.0 * math.pi * xb)
                    - order * np.log(0.5 * xb) + np.log(total))
    return out


# ---------------------------------------------------------------------------
# Incomplete gamma
# ---------------------------------------------------------------------------

def _gamma_p_series(s: float, x: float) -> float:
    # NR 6.2 gser: P(s, x) for x < s + 1
    ap = s
    total = 1.0 / s
    delt = total
    for _ in range(_GAMMA_MAX_TERMS):
        ap += 1.0
        delt *= x / ap
        total += delt
        if abs(delt) < abs(total) * _GAMMA_REL_TOL:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise SeriesTruncationError(
        f"P({s}, {x}) series exceeded {_GAMMA_MAX_TERMS} terms", partial=total)


def _gamma_q_cf(s: float, x: float) -> float:
    # NR 6.2 gcf, modified Lentz: Q(s, x) for x >= s + 1
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_TERMS + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < _GAMMA_REL_TOL:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise SeriesTruncationError(
        f"Q({s}, {x}) continued fraction exceeded {_GAMMA_MAX_TERMS} terms",
        partial=h)


def _check_gamma_args(s: float, x: float) -> None:
    if s <= 0.0:
        raise ValueError(f"shape s must be positive, got {s}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")


def reg_lower_inc_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s)."""
    _check_gamma_args(s, x)
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_p_series(s, x)
    return 1.0 - _gamma_q_cf(s, x)


def reg_upper_inc_gamma(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x)."""
    _check_gamma_args(s, x)
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_cf(s, x)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def _one_minus_marcum_q_fixed_b(order: float, y: np.ndarray, z: float,
                                complement: bool = False) -> np.ndarray:
    """Vectorized 1 - Q_order(sqrt(2 y), sqrt(2 z)) for array y, scalar z.

    This is the shape every distribution and crossing-rate integrand needs:
    the first Marcum argument sweeps the quadrature nodes while the second
    stays pinned at the threshold.  Evaluated as the Poisson smearing of a
    regularized lower gamma table,

        1 - Q = sum_k pois(k; y) P(order + k, z),

    over a window wide enough that the discarded Poisson mass is ~1e-14.
    complement=True mixes the upper table Q(order + k, z) and returns Q
    itself, accurate where 1 - (1 - Q) rounds to 0.  The terms peak near
    k = sqrt(y z), not y, on the small side: Q when y < z, so that window
    centres on max(y, sqrt(y z)), and 1 - Q when y > z, so that one
    centres on min(y, sqrt(y z)).  Rows run in sorted chunks of at most
    128 whose centres span a few Poisson widths, so the window and the
    weight matrix track the local range; a 1 - Q chunk below z stops at
    z, since its table is formed by subtraction.

    Nodes with y and z both at or above max(_LARGE_XI_MIN, order^2) take
    the large-xi expansion instead (_marcum_large_xi), whose cost does not
    grow with y; the scalar z is tested first, so calls below the
    crossover do no extra array work.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    out = np.empty_like(y)
    if z <= 0.0:
        out.fill(1.0 if complement else 0.0)
        return out
    zero = y <= 0.0
    if zero.any():
        gamma = reg_upper_inc_gamma if complement else reg_lower_inc_gamma
        out[zero] = gamma(order, z)
    mix = ~zero
    crossover = max(_LARGE_XI_MIN, order * order)
    if z >= crossover:
        large = y >= crossover
        if large.any():
            out[large] = _marcum_large_xi(order, y[large], z, complement)
            mix &= ~large
    idx = np.nonzero(mix)[0]
    order_of = idx[np.argsort(y[idx])]
    centre = y[order_of]
    if complement:
        centre = np.maximum(centre, np.sqrt(centre * z))
    elif centre.size and centre[-1] > z:
        centre = np.minimum(centre, np.sqrt(centre * z))
    lo = 0
    while lo < centre.size:
        span_end = centre[lo] + 32.0 * math.sqrt(centre[lo]) + 100.0
        if not complement and centre[lo] <= z:
            span_end = min(span_end, z)
        hi = min(lo + 128, int(np.searchsorted(centre, span_end, side="right")))
        rows = order_of[lo:hi]
        out[rows] = _poisson_mix_chunk(order, y[rows], z, float(centre[lo]),
                                       float(centre[hi - 1]), complement)
        lo = hi
    return out


def _marcum_large_xi(order: float, y: np.ndarray, z: float,
                     complement: bool) -> np.ndarray:
    """1 - Q_order (or Q) by the large-xi expansion, cost independent of y.

    Gil, Segura and Temme (ACM TOMS 40(3), 2014, sec. 3), after Temme
    (1993): with xi = 2 sqrt(y z), sigma = (sqrt z - sqrt y)^2 / xi and
    rho = sqrt(z / y),

        S = sum_n (-1)^n rho^order / (2 sqrt(2 pi))
                [A_n(order - 1) - A_n(order) / rho] sigma^(n - 1/2)
                Gamma(1/2 - n, sigma xi),
        A_0 = 1,  A_n(nu) = A_(n-1)(nu) (4 nu^2 - (2n - 1)^2) / (8n),

    gives Q = S, 1 - Q = 1 - S for z >= y and 1 - Q = -S, Q = 1 + S for
    z < y.  With t = sigma xi = (sqrt z - sqrt y)^2, each Gamma term is
    carried scaled, g_n = Gamma(1/2 - n, t) e^t t^(n - 1/2), so the sum is
    e^-t rho^order sqrt(xi) / (2 sqrt(2 pi)) sum_n c_n g_n with
    c_n = (-1)^n [A_n(order - 1) - A_n(order) / rho] xi^-n.  Below t = 30
    the g_n run forward from erfc, g_n = (1 - t g_(n-1)) / (n - 1/2), and
    the n = 0 term is written out as sign(z - y) rho^(order - 1/2)
    erfc(|sqrt z - sqrt y|) / 2, its sigma -> 0 limit included; above 30
    forward recurrence loses digits, so a continued fraction gives the top
    g_n and the recurrence runs backward.  t and e^-t are formed in long
    double: at t near 700 a 1-ulp error in t alone would cost 1e-13.
    """
    yl = y.astype(np.longdouble)
    d_l = (z - yl) / (np.sqrt(np.longdouble(z)) + np.sqrt(yl))
    t_l = d_l * d_l
    d = d_l.astype(float)
    t = t_l.astype(float)
    sqrt_z = math.sqrt(z)
    xi = 2.0 * sqrt_z * np.sqrt(y)
    inv_rho = np.sqrt(y / z)
    scale = np.exp(0.5 * order * np.log(z / yl) - t_l).astype(float)
    scale *= np.sqrt(xi) / (2.0 * math.sqrt(2.0 * math.pi))

    a = []  # (A_n(order - 1), A_n(order)) for n = 1..N
    a_lo = a_hi = 1.0
    for n in range(1, _LARGE_XI_TERMS + 1):
        a_lo *= (4.0 * (order - 1.0) ** 2 - (2 * n - 1) ** 2) / (8.0 * n)
        a_hi *= (4.0 * order * order - (2 * n - 1) ** 2) / (8.0 * n)
        a.append((a_lo, a_hi))
    terms = np.empty((_LARGE_XI_TERMS + 1, y.size))
    near = t < 30.0
    if near.any():
        terms[:, near] = _xi_terms_forward(d[near], t[near], sqrt_z)
    if not near.all():
        terms[:, ~near] = _xi_terms_backward(d[~near], t[~near], sqrt_z)
    xi_pow = np.repeat((-1.0 / xi)[None, :], _LARGE_XI_TERMS, axis=0)
    lo, hi = np.array(a).T @ (terms[1:] * xi_pow.cumprod(axis=0))
    total = terms[0] + lo - hi * inv_rho
    tail = scale * total
    upper = d >= 0.0
    if complement:
        return np.where(upper, tail, 1.0 + tail)
    return np.where(upper, 1.0 - tail, -tail)


def _xi_terms_forward(d: np.ndarray, t: np.ndarray, sqrt_z: float) -> np.ndarray:
    # rows: the n = 0 term c_0 g_0 = sign(d) sqrt(pi) erfcx(|d|) / sqrt z,
    # then g_1..g_N by g_n = (1 - t g_(n-1)) / (n - 1/2); for t < 30
    a = np.abs(d)
    erfcx = _erfc(a).astype(float) * np.exp(t)
    rows = [math.sqrt(math.pi) / sqrt_z * np.copysign(erfcx, d)]
    t_g = math.sqrt(math.pi) * a * erfcx  # t g_0, finite at t = 0
    for n in range(1, _LARGE_XI_TERMS + 1):
        g = (1.0 - t_g) / (n - 0.5)
        rows.append(g)
        t_g = t * g
    return np.array(rows)


def _xi_terms_backward(d: np.ndarray, t: np.ndarray, sqrt_z: float) -> np.ndarray:
    # same rows for t >= 30: g_N from the Legendre continued fraction of
    # Gamma(s, t) e^t t^-s, evaluated bottom up, then
    # g_(n-1) = (1 - (n - 1/2) g_n) / t
    s = 0.5 - _LARGE_XI_TERMS
    depth = 12  # levels that reach rounding error for t >= 30
    frac = t + (2 * depth + 1) - s
    for i in range(depth - 1, -1, -1):
        frac = t + (2 * i + 1) - s - (i + 1) * (i + 1 - s) / frac
    rows = [1.0 / frac]
    for n in range(_LARGE_XI_TERMS, 0, -1):
        rows.append((1.0 - (n - 0.5) * rows[-1]) / t)
    rows[-1] *= d / sqrt_z
    return np.array(rows[::-1])


def _poisson_mix_chunk(order: float, yp: np.ndarray, z: float, c_lo: float,
                       c_hi: float, complement: bool) -> np.ndarray:
    spread = 8.0 * math.sqrt(c_hi) + 25.0
    k_lo = max(0, int(math.floor(c_lo - spread)))
    k_hi = int(math.ceil(c_hi + spread))
    tab, lg_k = _mixture_tables(order, z, k_lo, k_hi, complement,
                                c_lo > z and not complement)
    w = np.multiply.outer(np.log(yp), np.arange(k_lo, k_hi + 1))
    w -= yp[:, None]
    w -= lg_k
    np.exp(w, out=w)
    return np.clip(w @ tab, 0.0, 1.0)


@functools.lru_cache(maxsize=64)
def _mixture_tables(order: float, z: float, k_lo: int, k_hi: int,
                    complement: bool, above: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (gamma table, log k!) on k = k_lo..k_hi, pure in its key."""
    n = k_hi - k_lo + 1

    # P(order + k, z) for k = k_lo..k_hi by the downward identity
    # P(s+1, z) = P(s, z) - z^s e^-z / Gamma(s+1), or Q(order + k, z) by
    # the upward Q(s+1, z) = Q(s, z) + z^s e^-z / Gamma(s+1).  For nodes
    # above z, where P is small and subtraction would floor near 1e-16, P
    # sums the same steps down from P(order + k_hi, z).  lgamma prefix
    # sums run in extended precision; plain float64 cumsum error would be
    # visible at window lengths in the thousands.
    s0 = order + k_lo
    j = np.arange(n - 1)
    lgam = math.lgamma(s0 + 1.0) + np.concatenate(
        ([0.0], np.cumsum(np.log(np.arange(1, n - 1, dtype=np.longdouble) + s0))))
    step = np.exp(((s0 + j) * math.log(z) - z - lgam).astype(float))
    if above:
        rise = np.cumsum(step[::-1])[::-1]
        tab = reg_lower_inc_gamma(s0 + n - 1, z) + np.append(rise, 0.0)
    else:
        dec = np.concatenate(([0.0], np.cumsum(step)))
        tab = (reg_upper_inc_gamma(s0, z) + dec if complement
               else reg_lower_inc_gamma(s0, z) - dec)
    np.clip(tab, 0.0, 1.0, out=tab)

    lg_k = math.lgamma(k_lo + 1.0) + np.concatenate(
        ([0.0], np.cumsum(np.log(np.arange(k_lo + 1, k_hi + 1, dtype=np.longdouble))))).astype(float)
    tab.flags.writeable = lg_k.flags.writeable = False
    return tab, lg_k


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

def qfunc_inv(p: float) -> float:
    """Inverse of the Gaussian tail Q(x) = P(N(0,1) > x); exactly 0 at 0.5."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    return -statistics.NormalDist().inv_cdf(p)
