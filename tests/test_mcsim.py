"""Sum-of-sinusoids fading generator against the analytical laws.

Statistical assertions run on fixed seeds, so every tolerance below was
checked against the realized deviation with margin before freezing; the
tests are deterministic replays, not flaky samplers.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from fasdep import mcsim
from fasdep.channel import FasChannel, marginal_cdf, max_cdf
from fasdep.dependability import (
    FblLink,
    decision_threshold_rho,
    fbl_threshold_eta,
    mttff,
)
from fasdep.errors import NoCrossingError
from fasdep.levelcross import CrossingContext, anfd, failure_repair_rates
from fasdep.mcsim import (
    SimConfig,
    empirical_afd,
    empirical_cdf,
    empirical_lcr,
    export_trace,
    generate_fading,
    scan_crossings,
)

RAYLEIGH_PEAK_NLCR = math.sqrt(2.0 * math.pi) / math.e


def _million_sample_cfg(chan, seed=0, doppler=10.0, factor=32.0):
    rate = factor * doppler
    return SimConfig(chan=chan, doppler=doppler, sample_rate=rate,
                     duration=1e6 / rate, seed=seed)


def _grid_ks(best, cdf_fn, n_grid=512):
    """Sup-distance between the ECDF and cdf_fn on a quantile grid.

    The deviation field varies on the 1/sqrt(n) scale, so 512 probe points
    recover the true supremum to ~3e-5 (checked against the exact KS for
    the closed-form Rayleigh marginal).
    """
    s = np.sort(best.astype(np.float64))
    grid = np.quantile(s, np.linspace(0.001, 0.999, n_grid))
    ana = np.array([cdf_fn(float(g)) for g in grid])
    emp = np.searchsorted(s, grid, side="right") / s.size
    return float(np.max(np.abs(ana - emp)))


# ---------------------------------------------------------------------------
# Configuration and determinism
# ---------------------------------------------------------------------------

def test_config_validation():
    chan = FasChannel(n_ports=2, aperture=0.3, nakagami_m=1.0)
    with pytest.raises(ValueError):
        SimConfig(chan=chan, doppler=0.0, sample_rate=320.0, duration=1.0)
    with pytest.raises(ValueError):
        SimConfig(chan=chan, doppler=10.0, sample_rate=100.0, duration=1.0)
    with pytest.raises(ValueError):
        SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=0.0)
    with pytest.raises(ValueError):
        SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=1.0,
                  n_oscillators=8)
    with pytest.raises(ValueError):
        SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=1.0,
                  n_trials=0)
    half = FasChannel(n_ports=2, aperture=0.3, nakagami_m=1.5)
    with pytest.raises(ValueError):
        SimConfig(chan=half, doppler=10.0, sample_rate=320.0, duration=1.0)


def test_identical_configs_give_identical_traces():
    chan = FasChannel(n_ports=3, aperture=0.4, nakagami_m=2.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=5.0,
                    seed=42)
    a = generate_fading(cfg)
    b = generate_fading(cfg)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.best, b.best)


def test_seed_and_trial_decorrelate():
    chan = FasChannel(n_ports=2, aperture=0.4, nakagami_m=1.0)
    base = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=5.0,
                     seed=42, n_trials=2)
    other_seed = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0,
                           duration=5.0, seed=43, n_trials=2)
    assert not np.array_equal(generate_fading(base, trial=0).best,
                              generate_fading(base, trial=1).best)
    assert not np.array_equal(generate_fading(base).best,
                              generate_fading(other_seed).best)
    with pytest.raises(ValueError):
        generate_fading(base, trial=2)


def test_trace_geometry():
    chan = FasChannel(n_ports=3, aperture=0.4, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=5.0)
    tr = generate_fading(cfg)
    assert tr.samples.shape == (3, cfg.n_samples)
    assert tr.best.shape == (cfg.n_samples,)
    assert tr.dt == pytest.approx(1.0 / 320.0)
    assert np.array_equal(tr.best, tr.samples.max(axis=0))
    assert (tr.samples >= 0.0).all()


def test_zero_aperture_ports_identical():
    chan = FasChannel(n_ports=4, aperture=0.0, nakagami_m=2.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=5.0)
    tr = generate_fading(cfg)
    for k in range(1, 4):
        assert np.array_equal(tr.samples[0], tr.samples[k])


# ---------------------------------------------------------------------------
# Synthesis kernel
# ---------------------------------------------------------------------------

def _oscillators(n_ports, m, seed=5):
    chan = FasChannel(n_ports=n_ports, aperture=0.3 * (n_ports > 1),
                      nakagami_m=m)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=640.0,
                    duration=10.0, seed=seed)
    return mcsim._Oscillators(cfg, 0)


@pytest.mark.parametrize("start", [0, 2 ** 31 - 3000])
@pytest.mark.parametrize("n_ports,m", [(1, 1.0), (4, 2.0)])
def test_envelopes_match_double_precision_cosine_sum(n_ports, m, start):
    """The float32 table-and-matmul kernel against a direct float64 sum.

    A block deep into the trace checks that the sub-block phases are
    reduced in double.  Measured max |difference| at or below 2.2e-6.
    """
    osc = _oscillators(n_ports, int(m))
    count = 5000
    got = osc.envelopes(start, count)
    want = oracles.sos_envelopes_f64(osc.omega, osc.phase, osc.amp, osc.mu,
                                     osc.n_ports, osc.m, osc.dt, start, count)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-4


def test_envelopes_block_split_invariant():
    """Cutting a stretch anywhere, off the sub-block grid, changes nothing
    beyond float32 rounding."""
    osc = _oscillators(4, 2)
    start, a, b = 12345, 1000, 3001
    assert a % mcsim._SUB and b % mcsim._SUB
    whole = osc.envelopes(start, a + b)
    parts = np.concatenate([osc.envelopes(start, a),
                            osc.envelopes(start + a, b)], axis=1)
    assert np.max(np.abs(whole - parts)) <= 1e-5


def test_block_synthesis_memory_cap():
    """One full block at N=4, m=2 allocates at most 1.5 MiB.

    Measured 1.31 MiB: the double sub-block phases (256 KiB), their float32
    coefficients (256 KiB), the matmul output (512 KiB) and the
    envelope buffers.  The per-sample cosine path it replaced needed
    2.4 MiB.
    """
    osc = _oscillators(4, 2)
    osc.envelopes(0, mcsim._BLOCK)
    tracemalloc.start()
    try:
        osc.envelopes(7 * mcsim._BLOCK, mcsim._BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# Streamed scan vs materialized trace
# ---------------------------------------------------------------------------

def test_scan_matches_trace_statistics():
    """The block-streamed counters must agree with whole-array counting.

    The trace spans several 8192-sample blocks, so this exercises the
    crossing carry at every block seam.
    """
    chan = FasChannel(n_ports=2, aperture=0.5, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=640.0, duration=60.0,
                    seed=9)
    tr = generate_fading(cfg)
    scan = scan_crossings(cfg, (0.5, 1.0, 1.5))
    for i, th in enumerate(scan.thresholds):
        assert scan.lcr(i) == pytest.approx(empirical_lcr(tr, th), rel=1e-12)
        assert scan.cdf(i) == pytest.approx(empirical_cdf(tr, th), rel=1e-12)
        assert scan.afd(i) == pytest.approx(empirical_afd(tr, th), rel=1e-12)
        assert scan.nlcr(i, 10.0) == pytest.approx(scan.lcr(i) / 10.0)


def test_scan_requires_thresholds():
    chan = FasChannel(n_ports=2, aperture=0.5, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=5.0)
    with pytest.raises(ValueError):
        scan_crossings(cfg, ())


def test_threshold_below_support_never_crossed():
    chan = FasChannel(n_ports=2, aperture=0.5, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=10.0)
    scan = scan_crossings(cfg, (1e-12,))
    assert scan.crossings[0] == 0
    assert scan.cdf(0) == 0.0
    with pytest.raises(NoCrossingError):
        scan.afd(0)


def test_empirical_estimators_validate_input():
    chan = FasChannel(n_ports=1, aperture=0.0, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=5.0)
    tr = generate_fading(cfg)
    short = type(tr)(samples=tr.samples[:, :1], best=tr.best[:1], dt=tr.dt)
    with pytest.raises(ValueError):
        empirical_lcr(short, 1.0)
    with pytest.raises(NoCrossingError):
        empirical_afd(tr, 1e-12)


# ---------------------------------------------------------------------------
# Distributional fidelity (1e6-sample budgets, fixed seeds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1.0, 2.0])
def test_marginal_ks_distance(m):
    """Single-port envelope law; realized KS ~ 0.0022 against the 0.005 bar."""
    chan = FasChannel(n_ports=1, aperture=0.0, nakagami_m=m)
    tr = generate_fading(_million_sample_cfg(chan))
    assert _grid_ks(tr.best, lambda v: marginal_cdf(chan, v)) < 0.005


@pytest.mark.parametrize("n_ports,m", [(2, 1.0), (2, 2.0), (4, 1.0), (4, 2.0)])
def test_max_cdf_ks_distance(n_ports, m):
    """Selected-envelope law; realized KS 0.0015-0.0029 vs the 0.005 bar."""
    chan = FasChannel(n_ports=n_ports, aperture=0.3, nakagami_m=m)
    tr = generate_fading(_million_sample_cfg(chan))
    assert _grid_ks(tr.best, lambda v: max_cdf(chan, v)) < 0.005


def test_power_correlation_matches_mu_squared():
    """Port-pair power correlation converges to mu_2^2 (realized gap 0.004)."""
    chan = FasChannel(n_ports=2, aperture=0.5, nakagami_m=1.0)
    tr = generate_fading(_million_sample_cfg(chan))
    p1 = tr.samples[0].astype(np.float64) ** 2
    p2 = tr.samples[1].astype(np.float64) ** 2
    got = float(np.corrcoef(p1, p2)[0, 1])
    assert got == pytest.approx(chan.mu[0] ** 2, abs=0.01)


def test_rayleigh_peak_nlcr():
    """Empirical NLCR at the Rayleigh peak, realized +0.27% vs the 3% bar."""
    chan = FasChannel(n_ports=1, aperture=0.0, nakagami_m=1.0)
    tr = generate_fading(_million_sample_cfg(chan, factor=64.0))
    got = empirical_lcr(tr, 1.0) / 10.0
    assert got == pytest.approx(RAYLEIGH_PEAK_NLCR, rel=0.03)


@pytest.mark.parametrize("doppler,seed", [(5.0, 5), (50.0, 50)])
def test_doppler_scaling_fidelity(doppler, seed):
    """NLCR stays on the closed form across a 10x Doppler spread.

    Realized deviations -0.52% and +0.23% against the 3% bar.
    """
    chan = FasChannel(n_ports=1, aperture=0.0, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=doppler, sample_rate=64.0 * doppler,
                    duration=1e6 / (64.0 * doppler), seed=seed)
    tr = generate_fading(cfg)
    assert empirical_lcr(tr, 1.0) / doppler == pytest.approx(
        RAYLEIGH_PEAK_NLCR, rel=0.03)


def test_empirical_duration_identity():
    """afd * lcr reproduces the empirical CDF (discrete-time identity)."""
    chan = FasChannel(n_ports=2, aperture=0.5, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=640.0,
                    duration=1562.5, seed=3)
    tr = generate_fading(cfg)
    prod = empirical_afd(tr, 0.8) * empirical_lcr(tr, 0.8)
    assert prod == pytest.approx(empirical_cdf(tr, 0.8), rel=0.02)


def test_non_fade_duration_against_theory():
    """Mean up-interval vs the analytic ANFD (realized +2.7% vs 5%)."""
    chan = FasChannel(n_ports=4, aperture=0.3, nakagami_m=2.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=2560.0,
                    duration=2000.0, seed=11)
    tr = generate_fading(cfg)
    down = np.count_nonzero((tr.best[:-1] >= 0.7) & (tr.best[1:] < 0.7))
    emp = np.count_nonzero(tr.best >= 0.7) * tr.dt / down
    want = anfd(CrossingContext(chan, 10.0, 0.7))
    assert emp == pytest.approx(want, rel=0.05)


def test_failure_repair_rates_against_theory():
    """Upsilon and beta from one long trace (realized -3.4% / +0.6% vs 5%)."""
    chan = FasChannel(n_ports=2, aperture=0.5, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=5120.0,
                    duration=800.0, seed=7)
    tr = generate_fading(cfg)
    want = failure_repair_rates(CrossingContext(chan, 10.0, 0.5))
    down = np.count_nonzero((tr.best[:-1] >= 0.5) & (tr.best[1:] < 0.5))
    below = int(np.count_nonzero(tr.best < 0.5))
    emp_beta = down / (below * tr.dt)
    emp_upsilon = down / ((tr.best.size - below) * tr.dt)
    assert emp_upsilon == pytest.approx(want.failure_rate, rel=0.05)
    assert emp_beta == pytest.approx(want.repair_rate, rel=0.05)


# ---------------------------------------------------------------------------
# Mission reliability estimator (tests/oracles.py)
# ---------------------------------------------------------------------------

def _small_trace(seed=0):
    chan = FasChannel(n_ports=2, aperture=0.5, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=60.0,
                    seed=seed)
    return generate_fading(cfg)


def test_reliability_vanishing_mission_always_succeeds():
    tr = _small_trace()
    assert oracles.empirical_mission_reliability(tr, 0.5, 0.0) == 1.0


def test_reliability_zero_threshold_always_succeeds():
    tr = _small_trace()
    assert oracles.empirical_mission_reliability(tr, 0.0, 0.25) == 1.0


def test_reliability_window_validation():
    tr = _small_trace()
    with pytest.raises(ValueError):
        oracles.empirical_mission_reliability(tr, 0.5, -1.0)
    with pytest.raises(ValueError):
        oracles.empirical_mission_reliability(tr, 0.5, 1e9)


def test_reliability_no_operational_start():
    """The oracle imports nothing from fasdep, so this is a ValueError."""
    tr = _small_trace()
    with pytest.raises(ValueError, match="no operational window"):
        oracles.empirical_mission_reliability(tr, 1e9, 1.0)


def test_reliability_few_windows_warns():
    tr = _small_trace()
    with pytest.warns(RuntimeWarning, match="low-confidence"):
        oracles.empirical_mission_reliability(tr, 0.5, 50.0)


@pytest.mark.slow
def test_mission_chain_against_theory():
    """First-passage and mission-survival estimates vs the renewal model.

    Operating point: the base link threshold at -5 dB average SNR over a
    4-port channel, where failures are frequent enough to count (MTTFF
    1.94 s).  Realized deviations at this seed: MTTFF +6.3% (crossing-count
    noise at ~1900 observed fades), reliability +1.6/+2.5/+4.6% on the
    0.5/1/2 s missions, all against 10% bars.  41e6 samples, about 7 s.
    """
    chan = FasChannel(n_ports=4, aperture=0.3, nakagami_m=2.0)
    snr = 10.0 ** -0.5
    eta = fbl_threshold_eta(
        FblLink(blocklength=1000, error_target=1e-2, rate=0.1, avg_snr=snr))
    rho = decision_threshold_rho(eta, snr)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=10240.0,
                    duration=4000.0, seed=3)
    tr = generate_fading(cfg)

    rates = failure_repair_rates(CrossingContext(chan, 10.0, rho))
    want_mttff = mttff(rates.failure_rate)
    down = np.count_nonzero((tr.best[:-1] >= rho) & (tr.best[1:] < rho))
    emp_mttff = np.count_nonzero(tr.best >= rho) * tr.dt / down
    assert emp_mttff == pytest.approx(want_mttff, rel=0.10)

    for delta_t in (0.5, 1.0, 2.0):
        want = math.exp(-delta_t / want_mttff)
        got = oracles.empirical_mission_reliability(tr, rho, delta_t)
        assert got == pytest.approx(want, rel=0.10)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_export_trace_round_trip(tmp_path):
    chan = FasChannel(n_ports=2, aperture=0.4, nakagami_m=1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=320.0, duration=1.0)
    tr = generate_fading(cfg)
    path = tmp_path / "trace.dat"
    export_trace(tr, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "# time port1 port2 best"
    data = np.loadtxt(path)
    assert data.shape == (tr.best.size, 4)
    assert np.allclose(data[:, 1:3], tr.samples.T, rtol=1e-8)
    assert np.allclose(data[:, 3], tr.best, rtol=1e-8)
    assert data[1, 0] == pytest.approx(tr.dt, rel=1e-9)
