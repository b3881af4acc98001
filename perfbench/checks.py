"""Correctness checks, run after the timed window.

Each check compares what fasdep returned during the run with a computation
made apart from the program (closed forms, scipy's special functions and
quadrature, the Rice-formula importance sampler ``nlcr_rice_is`` of
``tests/oracles.py``) or with a property the method must have.  None
compares with stored output.  Every check yields (name, passed, detail).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, special, stats

from fasdep.channel import FasChannel
from fasdep.dependability import FblLink
from fasdep.levelcross import CrossingContext, normalized_lcr
from fasdep.optimize import DinkelbachConfig
from fasdep.pipeline import MissionSystem
from fasdep.qos import QosProfile

from workloads import DOPPLER_HZ

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import nlcr_rice_is  # noqa: E402

_POISSON_P_MIN = 1e-6
_NEIGHBOUR_STEP = 1e-3   # relative offset of the neighbours of phi*
_GRID_POINTS = 96


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _chain_error(point, link: FblLink, profile: QosProfile) -> float:
    """Largest relative gap of mEC, r_max, power and mEEE to their formulas."""
    theta, burst = profile.qos_exponent, profile.burstiness
    n, rate = link.blocklength, link.rate
    mec = -math.log1p(-point.reliability * -math.expm1(-theta * n * rate)) / (n * theta)

    # r_max is the mean rate S r of the ON-OFF peak rate r whose effective
    # bandwidth ln(1 + S (e^(theta r) - 1)) / theta equals the mEC; that
    # bandwidth lies between S r and r, so the root lies in [mec, mec/S]
    def excess(r: float) -> float:
        return math.log1p(burst * math.expm1(theta * r)) / theta - mec

    peak = optimize.brentq(excess, 0.5 * mec, 2.0 * mec / burst,
                           xtol=1e-14 * mec, rtol=1e-15) if mec > 0.0 else 0.0
    rmax = burst * peak
    drain = profile.drain_eff * point.avg_snr
    power = (drain - (drain - profile.idle_power) * (1.0 - burst)
             * (1.0 - rmax / rate) + profile.circuit_power)
    return max(_rel(point.mec, mec), _rel(point.max_arrival, rmax),
               _rel(point.power, power), _rel(point.meee, mec / power))


def _max_cdf_scipy(chan: FasChannel, x: float) -> float:
    """Best-port CDF: Nakagami marginal times noncentral chi^2 conditionals.

    Given the reference envelope x1, port k is m complex Gaussians with
    mean mu_k times the reference and per-dimension variance
    (1 - mu_k^2) Omega / 2m, so 2m R_k^2 / ((1 - mu_k^2) Omega) is
    noncentral chi^2 with 2m degrees of freedom and noncentrality
    2m mu_k^2 x1^2 / ((1 - mu_k^2) Omega).
    """
    m, omega = chan.nakagami_m, chan.power
    mu2 = np.square(chan.mu)
    scale = 2.0 * m / ((1.0 - mu2) * omega)

    def integrand(x1: float) -> float:
        cond = special.chndtr(scale * x * x, 2.0 * m, scale * mu2 * x1 * x1)
        return stats.nakagami.pdf(x1, m, scale=math.sqrt(omega)) * np.prod(cond)

    val, _ = integrate.quad(integrand, 0.0, x, epsabs=0.0, epsrel=1e-11,
                            limit=400)
    return val


def mission_sweep(wl, records, seed):
    link, profile = wl.link, wl.profile
    m, dt = wl.nakagami_m, wl.delta_t

    # N=1: closed-form Nakagami LCR and scipy's regularized gammas
    worst = 0.0
    for _, op, p in records:
        if wl.ports[op.layout] != 1:
            continue
        x = p.rho
        lcr = (DOPPLER_HZ * math.sqrt(2.0 * math.pi) * m ** (m - 0.5)
               / math.gamma(m) * x ** (2.0 * m - 1.0) * math.exp(-m * x * x))
        ups = lcr / special.gammaincc(m, m * x * x)
        beta = lcr / special.gammainc(m, m * x * x)
        worst = max(worst, _rel(p.failure_rate, ups), _rel(p.repair_rate, beta),
                    _rel(p.reliability, math.exp(-dt * ups)),
                    _rel(p.rho, math.sqrt(p.eta / p.avg_snr)))
    yield "n1-closed-form", worst < 1e-9, f"max rel err {worst:.2e}"

    # N>=2 points of the first two rounds: CDF by scipy, LCR by the Rice
    # importance sampler.  Both are read back from the point's rates:
    # Upsilon = LCR/(1-F) and beta = LCR/F.
    subset = [(op, p) for r, op, p in records
              if r < 2 and wl.ports[op.layout] >= 2]
    worst_cdf, z_max, z_sum, used = 0.0, 0.0, 0.0, 0
    for i, (op, p) in enumerate(subset):
        chan = wl.layouts[op.layout]
        ups, beta = p.failure_rate, p.repair_rate
        cdf = ups / (ups + beta)
        ref = _max_cdf_scipy(chan, p.rho)
        worst_cdf = max(worst_cdf, abs(cdf - ref) / (1e-9 + 1e-6 * ref))
        est, se = nlcr_rice_is(chan, p.rho, 10_000, seed * 1000 + i)
        if 0.0 < se <= 0.01 * est:
            z = (ups * beta / (ups + beta) / DOPPLER_HZ - est) / se
            z_max, z_sum, used = max(z_max, abs(z)), z_sum + z, used + 1
    yield ("max-cdf-vs-scipy", worst_cdf <= 1.0,
           f"worst gap {worst_cdf:.2f} of 1e-9 + 1e-6 F, {len(subset)} points")
    z_pool = z_sum / math.sqrt(used) if used else math.inf
    yield ("nlcr-vs-rice-is", used >= len(subset) // 2 and z_max < 5.0
           and abs(z_pool) < 4.0,
           f"{used}/{len(subset)} points with SE <= 1%, max |z| {z_max:.2f}, "
           f"pooled z {z_pool:.2f}")

    worst = max(_chain_error(p, link, profile) for _, _, p in records)
    yield "chain-formulas", worst < 1e-9, f"max rel err {worst:.2e}"

    drops = 0
    for layout in range(len(wl.layouts)):
        pts = sorted((p.avg_snr, p.reliability) for _, op, p in records
                     if op.layout == layout)
        drops += sum(b[1] < a[1] - 1e-12 for a, b in zip(pts, pts[1:]))
    yield "reliability-monotone-in-snr", drops == 0, f"{drops} decreases"


def _parse_csv(text: str):
    header, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, map(float, line.split(",")))))
    return header, columns[0], rows


def _solve_problems(text: str):
    """(system, profile, delta_t, omega, row) for each solve of one sweep."""
    h, var, rows = _parse_csv(text)
    chan = FasChannel(int(h["channel.n_ports"]), float(h["channel.aperture"]),
                      float(h["channel.m"]), float(h["channel.power"]))
    link = FblLink(int(h["link.blocklength"]), float(h["link.error_target"]),
                   float(h["link.rate"]), 1.0, float(h["link.eta_tol"]))
    system = MissionSystem(chan, float(h["run.doppler"]), link)
    for row in rows:
        profile = QosProfile(
            qos_exponent=row[var] if var == "theta" else float(h["qos.theta"]),
            burstiness=float(h["qos.burstiness"]),
            drain_eff=float(h["qos.drain_eff"]),
            circuit_power=float(h["qos.circuit_power"]),
            idle_power=float(h["qos.idle_power"]))
        delta_t = row[var] if var == "delta_t" else float(h["run.delta_t"])
        omega = row[var] if var == "omega" else float(h["run.omega"])
        yield system, profile, delta_t, omega, row


def optimize_figures(wl, records, seed):
    solves = [s for _, _, text in records for s in _solve_problems(text)]
    bad_floor, bad_value, better, active, wrong_side = 0, 0, 0, 0, 0
    for system, profile, delta_t, omega, row in solves:
        phi = row["phi_star"]
        if not row["feasible"] or not phi > 0.0:
            bad_floor += 1
            continue
        star = system.evaluate(phi, profile, delta_t)
        bad_floor += star.reliability < omega
        bad_value += _rel(row["meee_star"], star.meee) > 1e-9
        for factor in (1.0 - _NEIGHBOUR_STEP, 1.0 + _NEIGHBOUR_STEP):
            near = system.evaluate(phi * factor, profile, delta_t)
            if near.reliability >= omega:
                better += near.meee > star.meee * (1.0 + 1e-12)
            else:
                active += 1
                wrong_side += factor > 1.0
    n = len(solves)
    yield ("solves-feasible", bad_floor == 0,
           f"{n - bad_floor}/{n} feasible with R_M(phi*) >= omega")
    yield "meee-star-consistent", bad_value == 0, f"{bad_value} mismatches"
    yield ("no-better-neighbour", better == 0 and wrong_side == 0,
           f"{better} better feasible neighbours at phi*(1 +- {_NEIGHBOUR_STEP}), "
           f"{active} constraint-active, {wrong_side} infeasible above phi*")

    # geometric grid search over the feasible set on two seeded solves
    cfg = DinkelbachConfig()
    grid = np.geomspace(cfg.lb, cfg.ub, _GRID_POINTS)
    pool = [s for s in solves if s[0].channel.n_ports >= 2]
    picks = np.random.default_rng(seed).choice(len(pool), 2, replace=False)
    beaten = 0
    for k in picks:
        system, profile, delta_t, omega, row = pool[k]
        points = [system.evaluate(float(g), profile, delta_t) for g in grid]
        best = max((p.meee for p in points if p.reliability >= omega),
                   default=-math.inf)
        beaten += best > row["meee_star"] * (1.0 + 1e-9)
    yield ("phi-star-beats-grid", beaten == 0,
           f"{beaten}/{len(picks)} solves beaten by a {_GRID_POINTS}-point grid")


def _poisson_p(count: int, lam: float) -> float:
    """Exact two-sided Poisson p-value (doubled smaller tail)."""
    if lam <= 0.0:
        return 1.0 if count == 0 else 0.0
    tail = min(stats.poisson.cdf(count, lam), stats.poisson.sf(count - 1, lam))
    return min(1.0, 2.0 * tail)


def mc_scan(wl, records, seed):
    xs = np.array(wl.thresholds)
    dt = 1.0 / (wl.rate_factor * DOPPLER_HZ)
    worst_p, worst_at, tests = 1.0, "", 0
    pooled_count, pooled_lam = 0, 0.0
    cdf_z = corr_z = 0.0
    for layout, chan in enumerate(wl.layouts):
        if chan.n_ports == 1 and chan.nakagami_m == 1.0:
            rate = math.sqrt(2.0 * math.pi) * xs * np.exp(-xs * xs)
        else:
            rate = np.array([normalized_lcr(CrossingContext(chan, DOPPLER_HZ, x))
                             for x in xs])
        for kind in ("scan", "trace"):
            data = [d for _, op, d in records
                    if op.layout == layout and op.kind == kind]
            if not data:
                continue
            counts = sum(d[0] for d in data)
            lam = rate * DOPPLER_HZ * sum((d[2] - 1) * dt for d in data)
            pooled_count += int(counts.sum())
            pooled_lam += float(lam.sum())
            for i, x in enumerate(xs):
                p = _poisson_p(int(counts[i]), lam[i])
                tests += 1
                if p < worst_p:
                    worst_p, worst_at = p, f"{kind} layout {layout} x={x:.3f}"
            if chan.n_ports == 1 and chan.nakagami_m == 1.0:
                cdf_z = max(cdf_z, _z_max([d[1] for d in data], 1.0 - np.exp(-xs * xs)))
            if kind == "trace":
                corr_z = max(corr_z, _z_max([d[3] for d in data], np.square(chan.mu)))
    yield ("crossings-poisson", worst_p >= _POISSON_P_MIN,
           f"{tests} tests, smallest p {worst_p:.2e} ({worst_at})")
    # a wrong Doppler or a biased reference moves every rate the same way
    p = _poisson_p(pooled_count, pooled_lam)
    yield ("crossings-pooled-poisson", p >= _POISSON_P_MIN,
           f"{pooled_count} crossings against {pooled_lam:.1f} expected "
           f"({pooled_count / pooled_lam - 1:+.2%}), p {p:.2e}")
    yield "n1-cdf-closed-form", cdf_z < 5.0, f"max |z| {cdf_z:.2f}"
    yield "power-correlation-mu2", corr_z < 5.0, f"max |z| {corr_z:.2f}"


def _z_max(samples, expected) -> float:
    """Largest |mean - expected| / SE over columns of per-operation estimates."""
    arr = np.array(samples, dtype=float)
    se = arr.std(axis=0, ddof=1) / math.sqrt(len(arr))
    return float(np.max(np.abs(arr.mean(axis=0) - expected) / se))


CHECKS = {"mission-sweep": mission_sweep,
          "optimize-figures": optimize_figures,
          "mc-scan": mc_scan}
