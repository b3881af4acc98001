"""Release acceptance gate.

Every check here states its tolerance and runtime budget inline.  The
Monte Carlo block is a deterministic replay (fixed seeds, fixed sample
budgets); realized deviations are quoted in the docstrings.  Every
crossing-rate point is held to 5% against an importance-sampled Rice-
formula estimate (`oracles.nlcr_rice_is`), which shares no Marcum-Q or
quadrature code with the analytic path.  The direct sample scan is held
to the same 5% where its budget resolves the point; at deeper thresholds,
where a run sees only a handful of crossings, its count must instead be
Poisson-consistent with theory.

Run with `pytest -m acceptance` (or plain pytest; nothing here is
skipped by default).
"""

import math
import time

import numpy as np
import pytest
from scipy import special, stats

import oracles
from fasdep import qos, specfun
from fasdep.channel import FasChannel, max_cdf
from fasdep.dependability import (
    FblLink,
    fbl_threshold_eta,
    fbl_threshold_trace,
)
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
from fasdep.mcsim import SimConfig, scan_crossings
from fasdep.optimize import DinkelbachConfig, dinkelbach_maximize
from fasdep.pipeline import MissionSystem, optimize_meee
from fasdep.qos import QosProfile

pytestmark = pytest.mark.acceptance


# ---------------------------------------------------------------------------
# Crossing-rate theory: corollary, series forms, duration identities
# ---------------------------------------------------------------------------

_IID_GRID = [(m, n, x)
             for m in (1.0, 2.0, 5.0)
             for n in (2, 3, 4)
             for x in (0.25, 0.5, 1.0, 1.5, 2.0)]

_TWO_PORT_GRID = [(m, mu, x)
                  for m in (1.0, 2.0, 4.0)
                  for mu in (0.1, 0.5, 0.9)
                  for x in (0.5, 1.0, 2.0)]


def _iid_contexts():
    for m, n, x in _IID_GRID:
        chan = FasChannel.with_correlation(n, (1e-7,) * (n - 1), m)
        yield CrossingContext(chan, 10.0, x)


def _two_port_contexts():
    for m, mu, x in _TWO_PORT_GRID:
        chan = FasChannel.with_correlation(2, (mu,), m)
        yield CrossingContext(chan, 10.0, x)


def test_general_lcr_collapses_to_iid_form():
    """Forcing every correlation to 1e-7 must reproduce the product form.

    45-point grid, 1e-3 relative, under a minute (measured ~0.03 s with
    worst error ~1.4e-13).
    """
    t0 = time.perf_counter()
    for ctx in _iid_contexts():
        want = lcr_iid(ctx)
        assert lcr(ctx) == pytest.approx(want, rel=1e-3)
    assert time.perf_counter() - t0 < 60.0


def test_two_port_series_matches_quadrature():
    """Closed series vs adaptive quadrature for both rate and duration.

    27-point grid, 1e-6 relative, under a minute (measured ~0.04 s with
    worst error ~9e-14 on both).
    """
    t0 = time.perf_counter()
    for ctx in _two_port_contexts():
        series = lcr_two_port_series(ctx)
        assert series == pytest.approx(lcr(ctx), rel=1e-6)
        fade = max_cdf(ctx.channel, ctx.threshold) / series
        assert fade == pytest.approx(afd(ctx), rel=1e-6)
    assert time.perf_counter() - t0 < 60.0


def test_duration_identities_across_grids():
    """afd*lcr, anfd+afd and the rate-pair split against the joint CDF."""
    import itertools
    for ctx in itertools.chain(_iid_contexts(), _two_port_contexts()):
        rate = lcr(ctx)
        cdf = max_cdf(ctx.channel, ctx.threshold)
        assert afd(ctx) * rate == pytest.approx(cdf, rel=1e-13)
        assert anfd(ctx) + afd(ctx) == pytest.approx(1.0 / rate, rel=1e-13)
        pair = failure_repair_rates(ctx)
        split = pair.repair_rate / (pair.failure_rate + pair.repair_rate)
        assert split == pytest.approx(1.0 - cdf, abs=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo corroboration of the crossing-rate theory
# ---------------------------------------------------------------------------

_SNR_DB = (0.0, 10.0, 20.0, 30.0)
_MC_SAMPLES = 4e7
# tag -> (ports, aperture, sample-rate factor, seed).  The single-port run
# samples at 1024 f_D: at the 30 dB threshold its fades last ~0.013/f_D,
# so the coarser 128 f_D grid undercounts crossings by ~9%.
_MC_SETUPS = {
    "n1": (1, 0.0, 1024.0, 0),
    "n2w05": (2, 0.5, 512.0, 1),
    "n4w03": (4, 0.3, 512.0, 2),
}
_IS_DRAWS = 200_000  # importance-sampling draws per threshold


def _mc_thresholds():
    eta = fbl_threshold_eta(FblLink(1000, 1e-2, 1.0, 1.0))
    return [math.sqrt(eta / 10.0 ** (db / 10.0)) for db in _SNR_DB]


@pytest.fixture(scope="module")
def nlcr_runs():
    """One streamed crossing scan per port layout, all thresholds at once."""
    ths = _mc_thresholds()
    runs = {}
    for tag, (n, w, factor, seed) in _MC_SETUPS.items():
        chan = FasChannel(n, w, 1.0)
        rate = factor * 10.0
        cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=rate,
                        duration=_MC_SAMPLES / rate, seed=seed)
        t0 = time.perf_counter()
        scan = scan_crossings(cfg, ths)
        elapsed = time.perf_counter() - t0
        sims = [scan.nlcr(i, 10.0) for i in range(len(ths))]
        anas = [normalized_lcr(CrossingContext(chan, 10.0, th)) for th in ths]
        runs[tag] = (sims, anas, [int(c) for c in scan.crossings],
                     factor, elapsed)
    return runs


@pytest.fixture(scope="module")
def nlcr_is():
    """Importance-sampled Rice estimates (value, std error) per layout."""
    ths = _mc_thresholds()
    return {tag: [oracles.nlcr_rice_is(FasChannel(n, w, 1.0), th,
                                       _IS_DRAWS, seed) for th in ths]
            for tag, (n, w, _, seed) in _MC_SETUPS.items()}


def _poisson_two_sided_p(k, lam):
    """Exact two-sided p-value of observing k events from Poisson(lam)."""
    tail = min(stats.poisson.cdf(k, lam), stats.poisson.sf(k - 1, lam))
    return min(1.0, 2.0 * float(tail))


@pytest.mark.parametrize(
    "tag,idx",
    [(t, i) for t in _MC_SETUPS for i in range(len(_SNR_DB))],
    ids=[f"{t}-{int(db)}dB" for t in _MC_SETUPS for db in _SNR_DB])
def test_empirical_nlcr_agrees_with_theory(nlcr_runs, nlcr_is, tag, idx):
    """Per-point 5% agreement between estimated and analytic NLCR.

    Every point: the importance-sampled Rice estimate (2e5 draws, the
    layout's seed) lies within 5% of theory and carries at most 1%
    relative SE.  Realized deviation (relative SE):
      n1     exact closed form at all four levels (SE 0)
      n2w05  -0.020% (0.071%), -0.003% (0.008%), -0.000% (0.001%),
             -0.000% (0.0001%)
      n4w03  -0.243% (0.318%), -0.052% (0.052%), -0.006% (0.006%),
             -0.001% (0.0006%)

    Direct scan at 4e7 samples each.  A point the scan can resolve --
    1600 expected crossings (2.5% one-sigma), i.e. 1600 * factor / NLCR
    samples, fit in the budget -- is held to the same 5%.  Realized:
      n1     (seed 0): +0.50%, -0.34%, -0.84%, -3.67%
      n2w05  (seed 1): +0.20%, -1.22%
      n4w03  (seed 2): -0.01%, -1.38%
    Deeper points need 1.3e8 to 1.7e14 samples, so a 5% bar on their scan
    would measure sampling noise; their counts must instead pass an exact
    two-sided Poisson test against the analytic mean at p >= 1e-3.
    Realized (crossings vs expected, p):
      n2w05  20 dB: 531 vs 511.7 (0.41);  30 dB: 22 vs 16.46 (0.22)
      n4w03  20 dB: 2 vs 1.117 (0.61);    30 dB: 0 vs 3.9e-4 (1.0)
    """
    sims, anas, crossings, factor, _ = nlcr_runs[tag]
    ana = anas[idx]
    est, se = nlcr_is[tag][idx]
    is_dev = (est - ana) / ana
    where = f"{tag} at {_SNR_DB[idx]:g} dB"
    scan = (f"direct scan {sims[idx]:.4e} from {crossings[idx]} crossings "
            f"in {_MC_SAMPLES:.0e} samples")
    assert se <= 0.01 * est, (
        f"{where}: importance-sampled Rice NLCR {est:.4e} has SE {se:.2e} "
        f"({se / est:.2%}), above the 1% needed to decide the point")
    assert abs(is_dev) <= 0.05, (
        f"{where}: importance-sampled Rice NLCR {est:.4e} (SE {se:.2e}) vs "
        f"analytic {ana:.4e} ({is_dev:+.2%}); {scan}")

    # samples needed for 1600 crossings, a 2.5% one-sigma estimate
    needed = 1600.0 * factor / ana
    if needed <= _MC_SAMPLES:
        dev = (sims[idx] - ana) / ana
        assert abs(dev) <= 0.05, (
            f"{where}: {scan} (one-sigma "
            f"{1.0 / math.sqrt(max(crossings[idx], 1)):.1%}) vs analytic "
            f"{ana:.4e} ({dev:+.2%}); importance-sampled Rice NLCR "
            f"{est:.4e} (SE {se:.2e})")
    else:
        lam = ana * _MC_SAMPLES / factor
        p = _poisson_two_sided_p(crossings[idx], lam)
        assert p >= 1e-3, (
            f"{where}: {scan} where theory expects {lam:.3g} "
            f"(Poisson p = {p:.2e}); importance-sampled Rice NLCR "
            f"{est:.4e} (SE {se:.2e}) vs analytic {ana:.4e}")


@pytest.mark.parametrize("m", (1.0, 2.0))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_rice_is_oracle_matches_iid_closed_form(n, m):
    """The rare-event oracle reproduces the product form within 4 SE.

    Correlations forced to 1e-7 at the four acceptance thresholds.
    Measured |z| <= 1.6 over the 24 points.
    """
    chan = FasChannel.with_correlation(n, (1e-7,) * (n - 1), m)
    for th in _mc_thresholds():
        want = lcr_iid(CrossingContext(chan, 10.0, th)) / 10.0
        est, se = oracles.nlcr_rice_is(chan, th, _IS_DRAWS, n)
        assert abs(est - want) <= 4.0 * se, (n, m, th, est, want, se)


@pytest.mark.parametrize("threshold", (0.8, 0.3))
def test_rice_is_oracle_refuses_nearly_identical_ports(threshold):
    """mu up to 0.999 puts all the weight on a few draws in the ball.

    Without the effective-sample-size floor the oracle returned 8.7e-262
    (SE 0) at x = 0.8 and 5.0e-28 (SE 79%) at x = 0.3, against
    normalized_lcr 0.73 and 7.5e-4.  Measured: 1.0 and 1.8 effective
    draws of 2e5.
    """
    chan = FasChannel(4, 0.03, 5.0)
    with pytest.raises(ValueError, match="effective draws"):
        oracles.nlcr_rice_is(chan, threshold, _IS_DRAWS, 0)


@pytest.mark.parametrize("tag", ["n2w05", "n4w03"])
def test_rice_is_relative_error_bounded(nlcr_is, tag):
    """Relative SE does not grow as the threshold deepens (0 -> 30 dB).

    This is what lets the oracle decide points a direct scan cannot:
    measured relative SE falls about tenfold per 10 dB on both layouts.
    """
    rel = [se / est for est, se in nlcr_is[tag]]
    assert all(b <= a for a, b in zip(rel, rel[1:])), rel


@pytest.mark.parametrize("tag", list(_MC_SETUPS))
def test_empirical_nlcr_decreasing_in_snr(nlcr_runs, tag):
    """Raising the operating SNR must lower the observed crossing rate."""
    sims = nlcr_runs[tag][0]
    assert all(b < a for a, b in zip(sims, sims[1:]))


def test_mc_runtime_budget(nlcr_runs):
    """All three scans together stay far inside ten minutes (~7 s)."""
    assert sum(run[4] for run in nlcr_runs.values()) < 600.0


# ---------------------------------------------------------------------------
# Short-packet decision threshold
# ---------------------------------------------------------------------------

def test_fbl_threshold_gate():
    """Half-probability target collapses the dispersion penalty exactly;
    the reference configuration settles fast and matches a 50-digit rerun.
    """
    for rate in (0.05, 0.1, 1.0):
        link = FblLink(1000, 0.5, rate, 10.0)
        assert fbl_threshold_eta(link) == 2.0 ** rate - 1.0

    link = FblLink(1000, 1e-2, 0.1, 10.0)
    trace = fbl_threshold_trace(link)
    assert len(trace) < 100
    assert abs(trace[-1] - trace[-2]) < 1e-4

    want = float(oracles.fbl_eta_mp(0.1, 1000, 1e-2, 1e-4))
    assert fbl_threshold_eta(link) == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# Mission capacity and arrival-rate inversion
# ---------------------------------------------------------------------------

def test_mission_capacity_endpoints_and_monotonicity():
    theta, n, rate = 1e-3, 1000, 0.1
    assert qos.mission_effective_capacity(theta, n, rate, 1.0) == rate
    assert qos.mission_effective_capacity(theta, n, rate, 0.0) == 0.0
    grid = np.linspace(0.0, 1.0, 100)
    vals = [qos.mission_effective_capacity(theta, n, rate, r) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_arrival_rate_inverts_effective_bandwidth():
    """Round trip through the arrival cap, 1e-12, default mode, 27 combos."""
    for theta in (1e-4, 1e-3, 1e-2):
        for s in (0.25, 0.5, 1.0):
            for mec in (0.01, 0.05, 0.09):
                r = qos.max_arrival_rate(theta, s, mec)
                back = qos.effective_bandwidth(theta, r / s, s)
                assert back == pytest.approx(mec, abs=1e-12)


# ---------------------------------------------------------------------------
# Ratio optimizer
# ---------------------------------------------------------------------------

def test_optimizer_closed_form_benchmark():
    """ln(1+x)/(1+x) peaks at e-1; the solver must land within 1e-6."""
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              DinkelbachConfig(lb=0.0, ub=10.0,
                                               inner_tol=1e-9,
                                               outer_tol=1e-12))
    assert res.converged
    assert abs(res.phi_star - (math.e - 1.0)) < 1e-6
    assert res.value_star == pytest.approx(1.0 / math.e, rel=1e-9)


def test_optimizer_matches_grid_search():
    """Full efficiency objective vs a 1e4-point log-grid sweep.

    Two-port layout with the narrow-aperture high-m configuration
    (W=0.03, m=5, theta=1e-3, omega=0.9999, 5 s mission).  Budget two
    minutes; measured ~15 s, relative gap ~1.3e-5.
    """
    t0 = time.perf_counter()
    link = FblLink(blocklength=1000, error_target=1e-2, rate=0.1,
                   avg_snr=1.0)
    system = MissionSystem(FasChannel(2, 0.03, 5.0), 10.0, link)
    profile = QosProfile(qos_exponent=1e-3)
    omega, mission = 0.9999, 5.0

    best = -math.inf
    for phi in np.geomspace(1e-2, 1e4, 10_000):
        if system.reliability(phi, mission) < omega:
            continue
        best = max(best, system.evaluate(phi, profile, mission).meee)

    res = optimize_meee(system, profile, mission, omega)
    assert res.feasible and res.converged
    assert abs(res.value_star - best) / best < 1e-3
    assert all(b >= a for a, b in zip(res.kappa_trace, res.kappa_trace[1:]))
    assert system.reliability(res.phi_star, mission) >= omega - 1e-12
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# Figure presets: trend families from the emitted CSVs
# ---------------------------------------------------------------------------

def _read_csv(text):
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    body = [l for l in lines if not l.startswith("#")]
    cols = body[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in body[1:]])
    return cols, data


@pytest.fixture(scope="module")
def figure_csvs(golden_run):
    """The presets' CSVs, from the session's golden runs (one run each)."""
    out = {}
    total = 0.0
    for preset in ("fig2", "fig4", "fig6", "fig7"):
        code, text, seconds = golden_run(preset)
        total += seconds
        assert code == 0, f"{preset} exited {code}"
        out[preset] = _read_csv(text)
    out["elapsed"] = total
    return out


def _unimodal(values):
    signs = np.sign(np.diff(values))
    return bool(signs[0] > 0 and signs[-1] < 0
                and np.all(np.diff(signs) <= 0))


def test_figure_efficiency_is_unimodal_in_snr(figure_csvs):
    """Efficiency rises then falls with SNR; more ports raise the peak."""
    cols, data = figure_csvs["fig2"]
    assert cols == ["phi_db", "meee_n1", "meee_n2", "meee_n4"]
    peaks = []
    for j in (1, 2, 3):
        assert _unimodal(data[:, j]), cols[j]
        peaks.append(data[:, j].max())
    assert peaks[0] < peaks[1] < peaks[2]


def test_figure_reliability_trends(figure_csvs):
    """Reliability falls with mission length, rises with ports/aperture."""
    cols, data = figure_csvs["fig4"]
    assert cols == ["delta_t", "rm_n2w025", "rm_n2w05", "rm_n4w025",
                    "rm_n4w05"]
    for j in (1, 2, 3, 4):
        assert np.all(np.diff(data[:, j]) < 0.0), cols[j]
    assert np.all(data[:, 3] > data[:, 1])  # ports at fixed aperture
    assert np.all(data[:, 4] > data[:, 2])
    assert np.all(data[:, 2] > data[:, 1])  # aperture at fixed ports
    assert np.all(data[:, 4] > data[:, 3])


def test_figure_efficiency_falls_with_qos_exponent(figure_csvs):
    cols, data = figure_csvs["fig6"]
    for tag in ("meee_n1", "meee_n2", "meee_n4"):
        v = data[:, cols.index(tag)]
        assert np.all(np.diff(v) < 0.0), tag


def test_figure_efficiency_falls_with_reliability_floor(figure_csvs):
    """Tighter mission-reliability floors cost efficiency, at every N."""
    cols, data = figure_csvs["fig7"]
    n1 = data[:, cols.index("meee_n1")]
    n2 = data[:, cols.index("meee_n2")]
    n4 = data[:, cols.index("meee_n4")]
    for v in (n1, n2, n4):
        assert np.all(np.diff(v) < 0.0)
    assert np.all(n4 > n2) and np.all(n2 > n1)
    assert not np.isnan(data).any()


def test_figure_runtime_budget(figure_csvs):
    """All four presets together under ten minutes (measured ~7 s)."""
    assert figure_csvs["elapsed"] < 600.0


# ---------------------------------------------------------------------------
# Special-function property suite (randomized, fixed seed)
# ---------------------------------------------------------------------------

def test_gamma_complement_identity_randomized():
    """Both regularized tails against scipy's gammainc/gammaincc; 1e3 draws.

    Each tail is computed as 1 minus the other branch, so P + Q = 1 holds
    by construction; an independent implementation is what checks them.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    for _ in range(1000):
        s = rng.uniform(0.1, 25.0)
        y = rng.uniform(0.0, 60.0)
        assert specfun.reg_lower_inc_gamma(s, y) == pytest.approx(
            special.gammainc(s, y), rel=1e-12, abs=1e-15)
        assert specfun.reg_upper_inc_gamma(s, y) == pytest.approx(
            special.gammaincc(s, y), rel=1e-12, abs=1e-15)
    assert time.perf_counter() - t0 < 30.0


def _marcum_cdf(nu, a, b):
    """1 - Q_nu(a, b) from the shipped kernel, one a per entry."""
    y = 0.5 * np.square(np.asarray(a, dtype=float))
    return specfun._one_minus_marcum_q_fixed_b(nu, y, 0.5 * b * b)


def test_marcum_bounds_and_monotonicity_randomized():
    """1 - Q in [0,1]: Q increasing in a and order, decreasing in b; 1e3 draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    for _ in range(1000):
        nu = rng.uniform(0.5, 6.0)
        a = rng.uniform(0.0, 5.0)
        b = rng.uniform(1e-6, 6.0)
        cdf = _marcum_cdf(nu, [a, a + 0.3], b)
        assert 0.0 <= cdf[0] <= 1.0
        assert cdf[1] <= cdf[0] + 1e-12
        assert _marcum_cdf(nu, [a], b + 0.3)[0] >= cdf[0] - 1e-12
        assert _marcum_cdf(nu + 0.5, [a], b)[0] <= cdf[0] + 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_marcum_zero_signal_closed_form():
    """Q_1(0, b) is the Rayleigh tail; 1e3 random thresholds.

    The kernel returns 1 - Q, so the complement is held to 1e-12 absolute
    (worst realized 7.7e-14, where P(1, b^2/2) takes the series branch).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    for _ in range(1000):
        b = rng.uniform(0.0, 10.0)
        want = -math.expm1(-b * b / 2.0)
        assert _marcum_cdf(1.0, [0.0], b)[0] == pytest.approx(want, abs=1e-12)
    assert time.perf_counter() - t0 < 30.0


def test_qfunc_inverse_round_trip_randomized():
    """Tail probabilities survive the inverse map; 1e3 log-spaced draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    for _ in range(1000):
        p = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        if rng.uniform() < 0.5:
            p = 1.0 - p
        back = oracles.qfunc(specfun.qfunc_inv(p))
        assert back == pytest.approx(p, rel=1e-12)
    assert time.perf_counter() - t0 < 30.0
