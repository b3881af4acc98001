"""Independent reference implementations used to pin expected test values.

Nothing in here imports the package under test.  Each function recomputes
a quantity from its defining integral, series, fixed point or a direct
count using scipy, mpmath or plain numpy, so the frozen constants scattered
through the test modules can be regenerated by running this file directly:

    python tests/oracles.py
"""

import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, special, stats


# ---------------------------------------------------------------------------
# Bessel J0 and the incomplete gamma family
# ---------------------------------------------------------------------------

def j0_maclaurin(x: float) -> float:
    """Ascending series sum_k (-1)^k (x^2/4)^k / (k!)^2, fine for |x| < 12."""
    term = 1.0
    total = 1.0
    q = 0.25 * x * x
    for k in range(1, 60):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def j0_first_root() -> float:
    """First positive zero of J0 by bisection on the Maclaurin series."""
    lo, hi = 2.0, 3.0
    flo = j0_maclaurin(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = j0_maclaurin(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def j0_quadrature(x: float) -> float:
    """Integral representation (1/pi) int_0^pi cos(x sin t) dt."""
    # oscillatory for large x; quad warns about roundoff near its own floor
    # even though the estimate is good to ~1e-13, so silence that one warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda t: math.cos(x * math.sin(t)),
                                0.0, math.pi, epsabs=1e-14, epsrel=1e-13,
                                limit=400)
    return val / math.pi


def lower_gamma_quad(s: float, x: float) -> float:
    """gamma(s, x) = int_0^x t^(s-1) e^(-t) dt by adaptive quadrature."""
    val, _ = integrate.quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x,
                            epsabs=1e-14, epsrel=1e-13)
    return val


# ---------------------------------------------------------------------------
# Marcum Q and the Gaussian Q inverse
# ---------------------------------------------------------------------------

def marcum_q_defining_integral(order: float, a: float, b: float) -> float:
    """Q_order(a, b) from its defining integral with scipy's Bessel I.

    Uses the exponentially scaled ive so the e^(ax) growth cancels inside
    the integrand instead of overflowing.
    """
    def integrand(x):
        return (x * (x / a) ** (order - 1.0)
                * math.exp(-0.5 * (x - a) ** 2)
                * special.ive(order - 1.0, a * x))
    val, _ = integrate.quad(integrand, b, b + 60.0,
                            epsabs=1e-13, epsrel=1e-12)
    return val


def marcum_q_ncx2(order: float, a: float, b: float) -> float:
    """Same tail via the noncentral chi-square survival function."""
    return float(stats.ncx2.sf(b * b, 2.0 * order, a * a))


def marcum_pq_mixture_mp(order: float, y: float, z: float,
                         dps: int = 30) -> tuple:
    """(1 - Q, Q) for Q = Q_order(sqrt(2 y), sqrt(2 z)), Poisson mixture in mpmath.

    1 - Q = sum_k pois(k; y) P(order + k, z) and Q = sum_k pois(k; y)
    Q(order + k, z).  The side that is small (Q when z >= y, 1 - Q when
    z < y) is summed directly, so values far below 1e-16 keep their
    relative accuracy; the other side is 1 minus it.  Every term is
    positive and each gamma table runs in its additive direction (Q(s, z)
    upward from one mpmath gammainc, P(s, z) downward), so nothing cancels.
    The window covers 15 Poisson widths around y, z and sqrt(y z), where
    the terms peak, and costs about 30 sqrt(max(y, z)) + |y - z| terms.
    """
    with mpmath.workdps(dps):
        m, yy, zz = mpmath.mpf(order), mpmath.mpf(y), mpmath.mpf(z)
        top = max(y, z)
        k_lo = max(0, int(min(y, z) - 15.0 * math.sqrt(top) - 50.0))
        k_hi = int(top + 15.0 * math.sqrt(top) + 50.0)
        upper = z >= y
        k = k_lo if upper else k_hi
        s = m + k
        weight = mpmath.exp(-yy + k * mpmath.log(yy) - mpmath.loggamma(k + 1))
        if upper:
            table = mpmath.gammainc(s, zz, mpmath.inf, regularized=True)
        else:
            table = mpmath.gammainc(s, 0, zz, regularized=True)
        # z^s e^-z / Gamma(s + 1) steps Q(s, z) up; z^(s-1) e^-z / Gamma(s)
        # steps P(s, z) down
        step = mpmath.exp((s if upper else s - 1) * mpmath.log(zz) - zz
                          - mpmath.loggamma(s + 1 if upper else s))
        small = mpmath.mpf(0)
        for _ in range(k_hi - k_lo + 1):
            small += weight * table
            table += step
            if upper:
                s += 1
                step *= zz / s
                k += 1
                weight *= yy / k
            else:
                s -= 1
                step *= s / zz
                weight *= k / yy
                k -= 1
        return (1 - small, small) if upper else (small, 1 - small)


def marcum_pq_integral_mp(order: float, y: float, z: float,
                          dps: int = 30) -> tuple:
    """(1 - Q, Q) as marcum_pq_mixture_mp, from the defining integral.

    1 - Q = int_0^z (t / y)^((order - 1) / 2) e^(-t - y)
    I_(order - 1)(2 sqrt(y t)) dt, and Q the same integral over [z, inf).
    In u = sqrt t the integrand carries e^-(u - sqrt y)^2, so the small
    side lies within s = sqrt(d^2 + 100) - d of sqrt z, d = |sqrt z -
    sqrt y|, to e^-100; mpmath.quad takes it on unit pieces, divided by
    its value at sqrt z because quad's tolerance is absolute.  The cost
    does not grow with y, so this reaches arguments where the mixture
    would need 10^5 terms and more.
    """
    with mpmath.workdps(dps):
        m, yy = mpmath.mpf(order), mpmath.mpf(y)

        def integrand(u):
            t = u * u
            return (2 * u * (t / yy) ** ((m - 1) / 2) * mpmath.exp(-t - yy)
                    * mpmath.besseli(m - 1, 2 * mpmath.sqrt(yy * t)))

        root = mpmath.sqrt(mpmath.mpf(z))
        upper = z >= y
        d = abs(math.sqrt(z) - math.sqrt(y))
        pieces = math.ceil(math.sqrt(d * d + 100.0) - d)
        ends = [root + j if upper else max(root - j, 0) for j in range(pieces + 1)]
        peak = integrand(root)
        small = peak * mpmath.quad(lambda u: integrand(u) / peak, sorted(set(ends)))
        return (1 - small, small) if upper else (small, 1 - small)


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x), from erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def qfunc_inv_bisect(p: float) -> float:
    """Solve 0.5 erfc(x / sqrt 2) = p by bisection on [-40, 40]."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def qfunc_inv_mp(p: float, dps: int = 50) -> mpmath.mpf:
    """Root of Q(x) = p at dps digits, Q(x) = erfc(x / sqrt 2) / 2.

    Newton's method runs on log Q(x) = log p, so p down to the smallest
    subnormal keeps its relative accuracy; p above 1/2 solves for 1 - p,
    which is exact in mpmath for any float p, and flips the sign.
    """
    with mpmath.workdps(dps):
        pp = mpmath.mpf(p)
        sign = 1
        if pp > 0.5:
            pp, sign = 1 - pp, -1
        target = mpmath.log(pp)
        root = mpmath.findroot(
            lambda x: mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2) - target,
            mpmath.sqrt(-2 * target) if pp < 0.4 else mpmath.mpf(0.1))
        return sign * root


# ---------------------------------------------------------------------------
# Joint CDF of the port envelopes
# ---------------------------------------------------------------------------

def joint_cdf_chndtr(mu, m: float, power: float, uppers) -> float:
    """P(R_1 < X_1, ..., R_N < X_N) from noncentral chi^2 conditionals.

    Given the reference envelope x1, port k is m complex Gaussians with
    mean mu_k times the reference and per-dimension variance
    (1 - mu_k^2) Omega / 2m, so 2m R_k^2 / ((1 - mu_k^2) Omega) is
    noncentral chi^2 with 2m degrees of freedom and noncentrality
    2m mu_k^2 x1^2 / ((1 - mu_k^2) Omega).  The product of scipy's chndtr
    conditionals is integrated against scipy's Nakagami density of the
    reference; no Marcum-Q or Poisson-mixture code is involved.
    """
    mu2 = np.square(np.asarray(mu, dtype=float))
    scale = 2.0 * m / ((1.0 - mu2) * power)
    x_ref = float(uppers[0])
    others = np.asarray(uppers[1:], dtype=float)

    def integrand(x1: float) -> float:
        cond = special.chndtr(scale * others * others, 2.0 * m,
                              scale * mu2 * x1 * x1)
        return (stats.nakagami.pdf(x1, m, scale=math.sqrt(power))
                * float(np.prod(cond)))

    # port k's conditional drops from 1 to 0 near x1 = X_k / |mu_k|
    steps = [x / math.sqrt(v) for x, v in zip(others, mu2)
             if v > 0.0 and x / math.sqrt(v) < x_ref]
    val, _ = integrate.quad(integrand, 0.0, x_ref, epsabs=0.0, epsrel=1e-11,
                            limit=400, points=steps or None)
    return val


def max_pdf(mu, m: float, power: float, x: float) -> float:
    """Density of the best-port envelope max_k R_k at x, from scipy alone.

    d/dx of joint_cdf_chndtr at equal uppers x: the reference density at x
    times the product of the conditional CDF rows (the upper end of the
    integral moves), plus the integral over [0, x] of the reference
    density times the leave-one-out sum
        sum_k ncx2.pdf row k * prod_(j != k) chndtr row j,
    where each row's pdf carries the Jacobian 2 scale_k x of its chi^2
    argument scale_k x^2.  The quadrature breaks at the ridges |mu_k| x
    and one conditional spread below x, where the rows turn over.
    """
    mu2 = np.square(np.asarray(mu, dtype=float))
    scale = 2.0 * m / ((1.0 - mu2) * power)
    leave_out = ~np.eye(mu2.size, dtype=bool)

    def rows(x1: float):
        noncentral = scale * mu2 * x1 * x1
        cdf = special.chndtr(scale * x * x, 2.0 * m, noncentral)
        pdf = stats.ncx2.pdf(scale * x * x, 2.0 * m, noncentral) * (2.0 * scale * x)
        return cdf, pdf

    def ref_pdf(x1: float) -> float:
        return stats.nakagami.pdf(x1, m, scale=math.sqrt(power))

    def integrand(x1: float) -> float:
        cdf, pdf = rows(x1)
        loo = np.prod(np.where(leave_out, cdf, 1.0), axis=1)
        return ref_pdf(x1) * float(pdf @ loo)

    spread = np.sqrt((1.0 - mu2) * power / (2.0 * m))
    ridges = np.concatenate((np.sqrt(mu2) * x, x - spread))
    breaks = sorted({float(p) for p in ridges if 0.0 < p < x})
    val, _ = integrate.quad(integrand, 0.0, x, epsabs=0.0, epsrel=1e-12,
                            limit=400, points=breaks or None)
    return ref_pdf(x) * float(np.prod(rows(x)[0])) + val


def max_pdf_richardson(mu, m: float, power: float, x: float) -> float:
    """The same density as a Richardson-extrapolated central difference of
    joint_cdf_chndtr at equal uppers, with step h = 1e-3 x.

    (4 D(h/2) - D(h)) / 3 with D(h) = (F(x + h) - F(x - h)) / 2h cancels the
    h^2 term, leaving O(h^4): 3e-8 relative at h = 1e-2 x and 4e-10 at
    1e-3 x on the figure layouts, where the CDF's 1e-11 quadrature
    tolerance still costs less than that.
    """
    n_ports = len(mu) + 1

    def cdf(t: float) -> float:
        return joint_cdf_chndtr(mu, m, power, (t,) * n_ports)

    def central(h: float) -> float:
        return (cdf(x + h) - cdf(x - h)) / (2.0 * h)

    h = 1e-3 * x
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def survival_ncx2(chan, x: float) -> float:
    """P(max_k R_k > x) of the best-port envelope from scipy alone.

    1 - P(all R_k < x) = P(R_1 > x) + int_0^x f_1(x1) (1 - prod_k F_k) dx1,
    with the Nakagami tail from scipy's gammaincc and each port's
    conditional tail 1 - F_k from scipy's ncx2.sf (the noncentral chi^2
    law of joint_cdf_chndtr), combined as -expm1(sum_k log1p(-tail_k)) so
    that products of tails far below 1e-16 keep their relative accuracy.
    """
    m, power = float(chan.nakagami_m), float(chan.power)
    mu2 = np.square(np.asarray(chan.mu, dtype=float))
    scale = 2.0 * m / ((1.0 - mu2) * power)

    def integrand(x1: float) -> float:
        tails = stats.ncx2.sf(scale * x * x, 2.0 * m, scale * mu2 * x1 * x1)
        return (stats.nakagami.pdf(x1, m, scale=math.sqrt(power))
                * -math.expm1(float(np.sum(np.log1p(-tails)))))

    head = float(special.gammaincc(m, m * x * x / power))
    val, _ = integrate.quad(integrand, 0.0, x, epsabs=0.0, epsrel=1e-12,
                            limit=400)
    return head + val


# ---------------------------------------------------------------------------
# Rice-formula crossing rate by importance sampling
# ---------------------------------------------------------------------------

_MIN_ESS = 10.0  # Kish effective draws per term below which SEs mean nothing


def nlcr_rice_is(chan, threshold: float, draws: int,
                 seed: int) -> tuple[float, float]:
    """Normalized best-port crossing rate and its standard error.

    Rice's formula for the maximum of N envelopes gives
        LCR / f_D = sqrt(pi Omega / 2m) sum_i f_R(r) P(R_j < r, j != i | R_i = r),
    since every envelope derivative is independent of all envelopes at the
    same instant and has variance pi^2 (Omega/m) f_D^2 under the Jakes
    spectrum.  Each port is a 2m-vector of Gaussians with per-dimension
    variance Omega/2m; port k mixes the reference vector as
    mu_k v_1 + sqrt(1 - mu_k^2) w_k, so given v_1 it is Gaussian with mean
    mu_k v_1 and per-dimension variance (1 - mu_k^2) Omega/2m, and the same
    law holds for v_1 given v_k.

    The conditional probability of term i is estimated with port i pinned
    at r e_1 (the joint law is invariant under a common rotation).  The
    reference vector (when i is not the reference) and every other port's
    vector are drawn uniformly in the radius-r ball and weighted by their
    conditional Gaussian density times the ball volume.  As r -> 0 those
    densities flatten over the ball, so the relative error stays bounded
    instead of growing like a direct crossing count's.

    Reads only `nakagami_m` (2m must be an integer), `power` and `mu` from
    the channel; no Marcum Q, incomplete gamma or quadrature is involved.
    Returns (estimate, standard error); the N terms use independent draws.

    Nearly identical ports (|mu| -> 1) shrink the conditional Gaussians far
    below the ball, so a handful of draws carry all the weight and both the
    estimate and its SE are meaningless.  Each term's Kish effective sample
    size (sum w)^2 / sum w^2 must therefore reach _MIN_ESS, or ValueError
    is raised.
    """
    m = float(chan.nakagami_m)
    dim = int(round(2.0 * m))
    if dim != 2.0 * m or dim < 1:
        raise ValueError(f"2m must be a positive integer, got m={m}")
    omega = float(chan.power)
    r = float(threshold)
    if not r > 0.0:
        raise ValueError(f"threshold must be positive, got {r}")
    draws = int(draws)
    if draws < 2:
        raise ValueError(f"need at least 2 draws for an error estimate, got {draws}")
    var = omega / dim
    mus = (1.0,) + tuple(float(v) for v in chan.mu)  # mus[k]: port k vs port 0
    rng = np.random.default_rng(seed)
    log_ball = m * math.log(math.pi) + dim * math.log(r) - math.lgamma(m + 1.0)

    def in_ball():
        g = rng.standard_normal((draws, dim))
        radius = r * rng.random(draws) ** (1.0 / dim)
        return g * (radius / np.linalg.norm(g, axis=1))[:, None]

    def log_weight(x, mean, mu):
        v = (1.0 - mu * mu) * var
        dist2 = np.sum((x - mean) ** 2, axis=1)
        return log_ball - 0.5 * dim * math.log(2.0 * math.pi * v) - dist2 / (2.0 * v)

    pinned = np.zeros(dim)
    pinned[0] = r
    total = 0.0
    total_var = 0.0
    for i in range(chan.n_ports):
        if i == 0:
            ref = pinned
            logw = np.zeros(draws)
        else:
            ref = in_ball()
            logw = log_weight(ref, mus[i] * pinned, mus[i])
        for j in range(1, chan.n_ports):
            if j != i:
                logw += log_weight(in_ball(), mus[j] * ref, mus[j])
        top = logw.max()
        ess = 0.0
        if top > -math.inf:
            rel = np.exp(logw - top)
            ess = rel.sum() ** 2 / np.sum(rel * rel)
        if ess < _MIN_ESS:
            raise ValueError(
                f"term of port {i + 1} has {ess:.3g} effective draws of {draws} "
                f"(floor {_MIN_ESS:g}) at threshold {r}: the ball proposal "
                "cannot resolve this point")
        w = np.exp(logw)
        total += w.mean()
        total_var += w.var(ddof=1) / draws

    log_pdf = (math.log(2.0) + m * math.log(m) + (2.0 * m - 1.0) * math.log(r)
               - m * r * r / omega - math.lgamma(m) - m * math.log(omega))
    scale = math.sqrt(math.pi * omega / (2.0 * m)) * math.exp(log_pdf)
    return scale * total, scale * math.sqrt(total_var)


# ---------------------------------------------------------------------------
# Sum-of-sinusoids envelopes, direct double-precision cosine sum
# ---------------------------------------------------------------------------

def sos_envelopes_f64(omega, phase, amp: float, mu, n_ports: int, m: int,
                      dt: float, start: int, count: int) -> np.ndarray:
    """Port envelopes for samples [start, start+count), shape (N, count).

    Takes the raw oscillator draw (omega and phase per process, shape
    (2mN, K)) and evaluates every process as amp sum_k cos(omega_k t +
    phi_k) at t = (start + s) dt in double, one cosine per sample and
    oscillator.  Branch b uses processes 2Nb + (0, 1) for the reference
    pair and 2Nb + 2(k-1) + (0, 1) for port k's innovation, mixed as
    sqrt(1 - mu^2) innovation + mu reference; the envelope is the root of
    the in-phase and quadrature power summed over the m branches.
    """
    t = (start + np.arange(count, dtype=np.float64)) * dt

    def process(idx):
        return amp * np.cos(np.multiply.outer(t, omega[idx]) + phase[idx]).sum(axis=1)

    e2 = np.zeros((n_ports, count))
    for b in range(m):
        lead = 2 * n_ports * b
        ref = (process(lead), process(lead + 1))
        e2[0] += ref[0] ** 2 + ref[1] ** 2
        for k in range(1, n_ports):
            mix = float(mu[k - 1])
            root = math.sqrt(max(1.0 - mix * mix, 0.0))
            for part in (0, 1):
                h = root * process(lead + 2 * k + part) + mix * ref[part]
                e2[k] += h * h
    return np.sqrt(e2)


# ---------------------------------------------------------------------------
# Mission reliability counted on a simulated trace
# ---------------------------------------------------------------------------

def empirical_mission_reliability(trace, rho: float,
                                  mission_duration: float) -> float:
    """Fraction of disjoint missions with no sample below rho.

    Reads `best` (the selected envelope) and `dt` from the trace.  Windows
    start only at operational samples (envelope >= rho), matching the
    from-an-up-state convention of the analytic model; below-threshold
    stretches between windows are skipped sample by sample.  Raises
    ValueError for a mission outside [0, trace length] and when no window
    can start; warns below 100 windows.
    """
    best = trace.best
    total = best.size
    if not 0.0 <= mission_duration <= total * trace.dt:
        raise ValueError(
            f"mission duration must lie in [0, trace length], got {mission_duration}")
    window = max(int(round(mission_duration / trace.dt)), 1)
    ok = best >= rho
    successes = 0
    windows = 0
    t = 0
    while t + window <= total:
        if ok[t]:
            windows += 1
            if bool(ok[t:t + window].all()):
                successes += 1
            t += window
        else:
            ahead = np.argmax(ok[t:])
            if not ok[t + ahead]:
                break  # never operational again
            t += int(ahead)
    if windows == 0:
        raise ValueError("no operational window start found")
    if windows < 100:
        warnings.warn(
            f"only {windows} mission windows observed; estimate is "
            "low-confidence", RuntimeWarning)
    return successes / windows


# ---------------------------------------------------------------------------
# Finite-blocklength threshold fixed point, extended precision
# ---------------------------------------------------------------------------

def fbl_eta_mp(rate: float, blocklength: int, error_target: float,
               eta_tol: float, dps: int = 50) -> mpmath.mpf:
    """Threshold iteration re-run in mpmath with the same stopping rule."""
    with mpmath.workdps(dps):
        n = mpmath.mpf(blocklength)
        r = mpmath.mpf(rate)
        qinv = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(error_target))
        penalty = qinv * mpmath.log(mpmath.e, 2) / mpmath.sqrt(n)
        radical = mpmath.mpf(1)
        prev = None
        for _ in range(10000):
            eta = 2 ** (r + radical * penalty) - 1
            if prev is not None and abs(eta - prev) < eta_tol:
                return eta
            prev = eta
            radical = mpmath.sqrt(1 - 1 / (1 + eta) ** 2)
        raise RuntimeError("fixed point did not settle")


# ---------------------------------------------------------------------------
# QoS layer oracles
# ---------------------------------------------------------------------------

def mec_mp(theta: float, blocklength: int, rate: float,
           reliability: float, dps: int = 50) -> mpmath.mpf:
    """Mission effective capacity at extended precision."""
    with mpmath.workdps(dps):
        th = mpmath.mpf(theta)
        n = mpmath.mpf(blocklength)
        served = 1 - mpmath.e ** (-th * n * mpmath.mpf(rate))
        return -mpmath.log(1 - mpmath.mpf(reliability) * served) / (n * th)


def rmax_bisect_mp(theta: float, burstiness: float, mec: float,
                   dps: int = 50) -> mpmath.mpf:
    """Solve effective_bandwidth(theta, r/S, S) = mec for r by bisection."""
    with mpmath.workdps(dps):
        th = mpmath.mpf(theta)
        s = mpmath.mpf(burstiness)
        target = mpmath.mpf(mec)

        def bandwidth(r):
            return mpmath.log(1 - s + s * mpmath.e ** (r / s * th)) / th

        lo, hi = mpmath.mpf(0), mpmath.mpf(10) * (target + 1)
        for _ in range(300):
            mid = (lo + hi) / 2
            if bandwidth(mid) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def total_power_direct(avg_snr: float, drain_eff: float, idle_power: float,
                       circuit_power: float, burstiness: float,
                       load: float) -> float:
    """Refined power model evaluated term by term."""
    peak = drain_eff * avg_snr
    return peak - (peak - idle_power) * (1.0 - burstiness) * (1.0 - load) \
        + circuit_power


if __name__ == "__main__":
    print("j0 first root              ", repr(j0_first_root()))
    print("j0(1.8849556)              ", repr(j0_quadrature(1.8849556)))
    print("j0(0.6 pi)                 ", repr(j0_quadrature(0.6 * math.pi)))
    print("lower gamma(2.5, 3.7)      ", repr(lower_gamma_quad(2.5, 3.7)))
    print("marcum Q_2(1.5, 0.8) quad  ", repr(marcum_q_defining_integral(2.0, 1.5, 0.8)))
    print("marcum Q_2(1.5, 0.8) ncx2  ", repr(marcum_q_ncx2(2.0, 1.5, 0.8)))
    print("marcum Q_1(0, 2) exact     ", repr(math.exp(-2.0)))
    print("qfunc_inv(1e-2)            ", repr(qfunc_inv_bisect(1e-2)))
    eta = fbl_eta_mp(0.1, 1000, 1e-2, 1e-4)
    print("fbl eta (R=0.1 point)      ", mpmath.nstr(eta, 17))
    print("rho = sqrt(eta/10)         ", mpmath.nstr(mpmath.sqrt(eta / 10), 17))
    print("mec (0.9999 point)         ", mpmath.nstr(mec_mp(1e-3, 1000, 0.1, 0.9999), 17))
    print("rmax (S=0.5, mec=0.08)     ", mpmath.nstr(rmax_bisect_mp(1e-3, 0.5, 0.08), 17))
    print("total power (phi=5 point)  ", repr(total_power_direct(5.0, 0.2, 0.03, 0.2, 0.5, 0.4)))
