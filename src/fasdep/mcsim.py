"""Monte Carlo engine for correlated Nakagami-m port envelopes.

Each of the m branches is a complex Gaussian built from two independent
sum-of-sinusoids processes with a Jakes Doppler spectrum; port k mixes its
own innovation pair with the shared reference pair through
sqrt(1-mu_k^2) innovation + mu_k reference, which reproduces both the
marginal Nakagami law (E[alpha^2] = sigma^2) and the pairwise power
correlation mu_k^2.  Arrival angles are stratified (one per sector, jittered)
so the per-realization derivative variance pi^2 (sigma^2/m) f_D^2 holds
tightly even at 64 oscillators; fully random angles leave a few-percent
bias in crossing rates at that count.

Synthesis never evaluates a cosine per sample.  Each trial precomputes,
per process, a float32 lag table amp [cos(omega s dt); -sin(omega s dt)]
over the _SUB lags of a sub-block (computed in double, one process at a
time).  A block's samples are then one batched float32 matmul of that table
with the coefficients [cos theta_j; sin theta_j] of each sub-block start,
theta_j = omega t_j + phi reduced mod 2 pi in double.  The envelopes agree
with a double-precision cosine sum to a few 1e-6 at any depth into the
trace (measured up to sample 2^31).

Long runs should use scan_crossings, which streams blocks and never holds
the full trace; generate_fading materializes an N x T matrix and is meant
for traces up to a few million samples.

Restriction: integer m only (branch construction); half-integer m stays
analytic-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .channel import FasChannel
from .errors import NoCrossingError

__all__ = [
    "SimConfig",
    "FadingTrace",
    "CrossingScan",
    "generate_fading",
    "scan_crossings",
    "empirical_lcr",
    "empirical_afd",
    "empirical_cdf",
    "export_trace",
]

# One block is one matmul over _BLOCK/_SUB sub-blocks; at N=4, m=2 its
# working buffers peak near 1.3 MiB, and the lag table holds
# 2mN * 2K * _SUB float32 (2 MiB at N=4, m=2, 64 oscillators).
_BLOCK = 1 << 13           # samples per streamed block
_SUB = 256                 # lag-table length: samples per sub-block
_MIN_RATE_FACTOR = 32.0    # f_s >= 32 f_D or crossings get skipped


@dataclass(frozen=True)
class SimConfig:
    """Generator configuration; identical configs give identical traces."""

    chan: FasChannel
    doppler: float
    sample_rate: float
    duration: float
    n_oscillators: int = 64
    seed: int = 0
    n_trials: int = 1

    def __post_init__(self):
        if not self.doppler > 0.0:
            raise ValueError(f"doppler must be positive, got {self.doppler}")
        if self.sample_rate < _MIN_RATE_FACTOR * self.doppler:
            raise ValueError(
                f"sample_rate {self.sample_rate} below the "
                f"{_MIN_RATE_FACTOR} f_D crossing-resolution floor")
        if not self.duration > 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.n_oscillators < 16:
            raise ValueError(
                f"n_oscillators must be >= 16, got {self.n_oscillators}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        m = self.chan.nakagami_m
        if not (float(m).is_integer() and m >= 1):
            raise ValueError(
                f"simulation requires integer nakagami_m >= 1, got {m}")

    @property
    def n_samples(self) -> int:
        return max(int(round(self.duration * self.sample_rate)), 2)

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate


@dataclass(frozen=True, eq=False)
class FadingTrace:
    """Materialized envelopes: per-port matrix, selected series, sample step."""

    samples: np.ndarray   # shape (N, T)
    best: np.ndarray      # shape (T,)
    dt: float


class _Oscillators:
    """Frozen draw of all sinusoid parameters for one trial."""

    def __init__(self, cfg: SimConfig, trial: int):
        if not 0 <= trial < cfg.n_trials:
            raise ValueError(f"trial must lie in 0..{cfg.n_trials - 1}, got {trial}")
        child = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trials)[trial]
        rng = np.random.default_rng(child)
        m = int(cfg.chan.nakagami_m)
        n = cfg.chan.n_ports
        k = cfg.n_oscillators
        n_proc = 2 * m * n
        jitter = rng.uniform(0.0, 2.0 * math.pi, size=(n_proc, k))
        base = 2.0 * math.pi * np.arange(k) - math.pi
        angles = (base[None, :] + jitter) / k
        self.omega = 2.0 * math.pi * cfg.doppler * np.cos(angles)
        self.phase = rng.uniform(0.0, 2.0 * math.pi, size=(n_proc, k))
        self.amp = math.sqrt(2.0 / k) * math.sqrt(cfg.chan.power / (2.0 * m))
        self.m = m
        self.n_ports = n
        self.mu = cfg.chan.mu
        self.dt = cfg.dt
        # Lag table, per process: amp [cos(omega s dt); -sin(omega s dt)]
        # for s = 0.._SUB-1, shape (2K, _SUB).  Computed in double one
        # process at a time, so no (2mN, K, _SUB) double array is alive.
        lag = np.arange(_SUB) * self.dt
        self._table = np.empty((n_proc, 2 * k, _SUB), dtype=np.float32)
        for p in range(n_proc):
            arg = np.multiply.outer(self.omega[p], lag)
            self._table[p, :k] = self.amp * np.cos(arg)
            self._table[p, k:] = -self.amp * np.sin(arg)

    def envelopes(self, start: int, count: int) -> np.ndarray:
        """Per-port envelopes for samples [start, start+count), shape (N, count).

        The samples are cut into sub-blocks of _SUB.  With t_j the start
        of sub-block j and theta_j = omega t_j + phi,
        cos(omega (t_j + s dt) + phi)
            = cos(omega s dt) cos(theta_j) - sin(omega s dt) sin(theta_j),
        so every process's samples come from one batched float32 matmul of
        the coefficients [cos theta_j, sin theta_j] with the lag table.
        theta_j is reduced mod 2 pi, and its cosine and sine taken, in
        double before the cast, so the float32 error does not grow with
        how far into the trace the block sits.
        """
        n, m = self.n_ports, self.m
        k = self.omega.shape[1]
        n_sub = -(-count // _SUB)
        t0 = (start + _SUB * np.arange(n_sub)) * self.dt
        theta = self.omega[:, None, :] * t0[None, :, None]    # (P, n_sub, K)
        theta += self.phase[:, None, :]
        np.mod(theta, 2.0 * math.pi, out=theta)
        coef = np.empty(theta.shape[:2] + (2 * k,), dtype=np.float32)
        np.cos(theta, out=coef[:, :, :k], casting="same_kind")
        np.sin(theta, out=coef[:, :, k:], casting="same_kind")
        gauss = np.matmul(coef, self._table).reshape(len(coef), -1)[:, :count]
        e2 = np.zeros((n, count), dtype=np.float32)
        for b in range(m):
            lead = 2 * self.n_ports * b
            ref_x = gauss[lead]
            ref_y = gauss[lead + 1]
            e2[0] += ref_x * ref_x + ref_y * ref_y
            for port in range(2, n + 1):
                mu = np.float32(self.mu[port - 2])
                root = np.float32(math.sqrt(max(1.0 - float(mu) ** 2, 0.0)))
                hx = root * gauss[lead + 2 * (port - 1)] + mu * ref_x
                hy = root * gauss[lead + 2 * (port - 1) + 1] + mu * ref_y
                e2[port - 1] += hx * hx + hy * hy
        return np.sqrt(e2)


def generate_fading(cfg: SimConfig, trial: int = 0) -> FadingTrace:
    """Materialize one trial's trace; memory is 4 N T bytes plus a block."""
    osc = _Oscillators(cfg, trial)
    t_total = cfg.n_samples
    samples = np.empty((cfg.chan.n_ports, t_total), dtype=np.float32)
    for start in range(0, t_total, _BLOCK):
        stop = min(start + _BLOCK, t_total)
        samples[:, start:stop] = osc.envelopes(start, stop - start)
    return FadingTrace(samples=samples, best=samples.max(axis=0), dt=cfg.dt)


@dataclass(frozen=True, eq=False)
class CrossingScan:
    """Streamed crossing statistics of the selected envelope."""

    thresholds: Tuple[float, ...]
    crossings: np.ndarray   # down-crossings per threshold
    below: np.ndarray       # samples strictly below per threshold
    n_samples: int
    dt: float

    def lcr(self, i: int) -> float:
        return self.crossings[i] / ((self.n_samples - 1) * self.dt)

    def nlcr(self, i: int, doppler: float) -> float:
        return self.lcr(i) / doppler

    def cdf(self, i: int) -> float:
        return self.below[i] / self.n_samples

    def afd(self, i: int) -> float:
        if self.crossings[i] == 0:
            raise NoCrossingError(
                f"no crossings of threshold {self.thresholds[i]}")
        return self.below[i] * self.dt / self.crossings[i]


def scan_crossings(cfg: SimConfig, thresholds: Sequence[float],
                   trial: int = 0) -> CrossingScan:
    """Count crossings and below-threshold samples without storing the trace."""
    ths = tuple(float(v) for v in thresholds)
    if not ths:
        raise ValueError("need at least one threshold")
    osc = _Oscillators(cfg, trial)
    t_total = cfg.n_samples
    crossings = np.zeros(len(ths), dtype=np.int64)
    below = np.zeros(len(ths), dtype=np.int64)
    carry = None
    for start in range(0, t_total, _BLOCK):
        stop = min(start + _BLOCK, t_total)
        best = osc.envelopes(start, stop - start).max(axis=0)
        for i, th in enumerate(ths):
            down, under = _count(best, th)
            seam = carry is not None and carry >= th > best[0]
            crossings[i] += down + seam
            below[i] += under
        carry = best[-1]
    return CrossingScan(thresholds=ths, crossings=crossings, below=below,
                        n_samples=t_total, dt=cfg.dt)


# ---------------------------------------------------------------------------
# Trace statistics
# ---------------------------------------------------------------------------

def _count(best: np.ndarray, x_th: float) -> Tuple[int, int]:
    """(down-crossings, samples strictly below) of x_th along best."""
    under = best < x_th
    return (int(np.count_nonzero(~under[:-1] & under[1:])),
            int(np.count_nonzero(under)))


def empirical_lcr(trace: FadingTrace, x_th: float) -> float:
    """Observed down-crossing rate of the selected envelope, crossings/s."""
    best = trace.best
    if best.size < 2:
        raise ValueError("trace too short for crossing statistics")
    return _count(best, x_th)[0] / ((best.size - 1) * trace.dt)


def empirical_cdf(trace: FadingTrace, x_th: float) -> float:
    """Fraction of selected-envelope samples below the threshold."""
    return _count(trace.best, x_th)[1] / trace.best.size


def empirical_afd(trace: FadingTrace, x_th: float) -> float:
    """Observed mean fade duration in seconds: time below per down-crossing."""
    down, below = _count(trace.best, x_th)
    if down == 0:
        raise NoCrossingError(f"no crossings of threshold {x_th}")
    return below * trace.dt / down


def export_trace(trace: FadingTrace, path: str) -> None:
    """Dump a trace as delimited text: time, each port, selected envelope."""
    t_col = np.arange(trace.best.size) * trace.dt
    table = np.column_stack([t_col, trace.samples.T, trace.best])
    ports = " ".join(f"port{i + 1}" for i in range(trace.samples.shape[0]))
    np.savetxt(path, table, fmt="%.9e",
               header=f"time {ports} best", comments="# ")
