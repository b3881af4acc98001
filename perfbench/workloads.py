"""The three workloads: seeded inputs, one call into fasdep, and its digest.

A workload is a sequence of rounds.  Round r is drawn from
``numpy.random.default_rng([seed, r])``, so the same seed gives the same
inputs however long the run lasts, and every round holds the same mix of
operations.  ``execute`` is the only timed code; ``digest`` keeps the few
numbers the checks need and runs outside the timed window.  Each workload
also fixes ``min_rounds`` (at least 100 operations in a timed run) and
``trace_rounds`` (the fixed amount of work of a traced run, so that its
counts repeat exactly).
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Tuple

import numpy as np

from fasdep import cli, mcsim
from fasdep.channel import FasChannel
from fasdep.dependability import FblLink, fbl_threshold_eta
from fasdep.pipeline import MissionSystem
from fasdep.qos import QosProfile

DOPPLER_HZ = 10.0


@dataclass(frozen=True)
class Op:
    """One call into fasdep; n_ops is how many operations it performs."""

    kind: str
    layout: int
    args: Tuple[Any, ...]
    n_ops: int = 1


class MissionSweep:
    """MissionSystem.evaluate on a fresh system, one point per port count.

    The ports keep a spacing of 0.1 wavelength (W = 0.1 (N-1), the paper's
    N=4, W=0.3 layout), so the correlation with the reference port is the
    same at every N and only the port count drives the cost.  N=4 appears
    twice in a round: seven points put the median inside the N=4 class
    instead of on the gap between two classes, and the 90th percentile
    inside the N=32 class.
    """

    name = "mission-sweep"
    ports = (1, 2, 4, 4, 8, 16, 32)
    nakagami_m = 2.0
    delta_t = 5.0
    snr_db = (-5.0, 30.0)
    min_rounds = 17
    trace_rounds = 300

    def __init__(self, seed: int):
        self.seed = seed
        self.layouts = tuple(FasChannel(n, 0.1 * (n - 1), self.nakagami_m)
                             for n in self.ports)
        self.link = FblLink(blocklength=1000, error_target=1e-2, rate=0.1,
                            avg_snr=1.0)
        self.profile = QosProfile()

    def round(self, r: int):
        dbs = np.random.default_rng([self.seed, r]).uniform(
            *self.snr_db, len(self.layouts))
        return [Op("evaluate", i, (float(db),)) for i, db in enumerate(dbs)]

    def execute(self, op: Op):
        phi = 10.0 ** (op.args[0] / 10.0)
        t0 = perf_counter()
        system = MissionSystem(self.layouts[op.layout], DOPPLER_HZ, self.link)
        point = system.evaluate(phi, self.profile, self.delta_t)
        return [perf_counter() - t0], point

    def digest(self, op: Op, point):
        return point


# (figure, nakagami m, sweep variable, start range, stop range, scale)
_FIGURE_SWEEPS = (
    ("fig5", 5.0, "delta_t", (1.0, 2.0), (19.0, 20.0), "linear"),
    ("fig6", 5.0, "theta", (0.05, 0.06), (0.9, 1.0), "log"),
    ("fig7", 4.0, "omega", (0.9, 0.91), (0.99998, 0.99999), "linear"),
)


class OptimizeFigures:
    """The fig5-fig7 mEEE solves, as `fasdep optimize` sweeps via cli.main.

    One call is one CLI invocation: a sweep of `points` solves on one
    geometry, so the per-geometry MissionSystem memo is shared across the
    sweep exactly as a user's invocation shares it.
    """

    name = "optimize-figures"
    ports = (1, 2, 4)
    aperture = 0.03
    points = 4
    # Latencies cluster by figure, N and position in the sweep (the first
    # solve of a sweep is cold), so the quantiles shift when the number of
    # rounds changes; five rounds take longer than 20 s today, so every
    # such run does the same five.
    min_rounds = 5
    trace_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self._latencies = []
        inner = cli.optimize_meee

        def timed_solve(*args, **kwargs):
            t0 = perf_counter()
            out = inner(*args, **kwargs)
            self._latencies.append(perf_counter() - t0)
            return out

        # the only hook in an untraced run: it times each solve of a sweep
        cli.optimize_meee = timed_solve

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for fig, m, var, lo, hi, scale in _FIGURE_SWEEPS:
            for n in self.ports:
                start, stop = rng.uniform(*lo), rng.uniform(*hi)
                argv = ["optimize",
                        "--set", f"channel.n_ports={n}",
                        "--set", f"channel.aperture={self.aperture}",
                        "--set", f"channel.m={m}",
                        "--sweep", f"{var}:{start!r}:{stop!r}:{self.points}:{scale}"]
                ops.append(Op(fig, n, tuple(argv), self.points))
        return ops

    def execute(self, op: Op):
        self._latencies = []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.args))
        if code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE):
            raise RuntimeError(f"fasdep {' '.join(op.args)} exited {code}")
        return self._latencies, out.getvalue()

    def digest(self, op: Op, csv_text: str):
        return csv_text


# fig3 layouts (ports, aperture, m); materialized traces use layouts 2 and 4
_MC_LAYOUTS = ((1, 0.0, 1), (1, 0.0, 2), (2, 0.5, 1), (2, 0.5, 2),
               (4, 0.3, 1), (4, 0.3, 2))
_MC_TRACED = (2, 4)


class McScan:
    """Fixed-size sum-of-sinusoids runs on the fig3 layouts.

    Each round streams one multi-threshold scan per layout and
    materializes two traces with their empirical statistics.  Sampling at
    512 f_D keeps the finite-step crossing undercount within a few percent
    at the deepest thresholds; at 128 f_D it reaches 8-16 % at N=4.
    """

    name = "mc-scan"
    rate_factor = 512.0
    scan_samples = 1 << 16
    trace_samples = 1 << 17
    min_rounds = 13
    trace_rounds = 60

    def __init__(self, seed: int):
        self.seed = seed
        self.layouts = tuple(FasChannel(n, w, float(m)) for n, w, m in _MC_LAYOUTS)
        # fig3 decision levels: rho = sqrt(eta / Phi) at 0, 10, 20, 30 dB
        eta = fbl_threshold_eta(FblLink(blocklength=1000, error_target=1e-2,
                                        rate=1.0, avg_snr=1.0))
        self.thresholds = tuple(math.sqrt(eta / 10.0 ** (db / 10.0))
                                for db in (0.0, 10.0, 20.0, 30.0))

    def config(self, layout: int, samples: int, seed: int) -> mcsim.SimConfig:
        rate = self.rate_factor * DOPPLER_HZ
        return mcsim.SimConfig(chan=self.layouts[layout], doppler=DOPPLER_HZ,
                               sample_rate=rate, duration=samples / rate,
                               seed=seed)

    def round(self, r: int):
        seeds = np.random.default_rng([self.seed, r]).integers(
            0, 2 ** 63, len(self.layouts) + len(_MC_TRACED))
        n = len(self.layouts)
        ops = [Op("scan", i, (int(s),)) for i, s in enumerate(seeds[:n])]
        ops += [Op("trace", layout, (int(s),))
                for layout, s in zip(_MC_TRACED, seeds[n:])]
        return ops

    def execute(self, op: Op):
        t0 = perf_counter()
        if op.kind == "scan":
            cfg = self.config(op.layout, self.scan_samples, op.args[0])
            out = mcsim.scan_crossings(cfg, self.thresholds)
        else:
            cfg = self.config(op.layout, self.trace_samples, op.args[0])
            trace = mcsim.generate_fading(cfg)
            lcrs = [mcsim.empirical_lcr(trace, x) for x in self.thresholds]
            cdfs = [mcsim.empirical_cdf(trace, x) for x in self.thresholds]
            mcsim.empirical_afd(trace, self.thresholds[0])
            out = (trace, lcrs, cdfs)
        return [perf_counter() - t0], out

    def digest(self, op: Op, out):
        """(crossings, CDF estimates, samples, port power correlations)."""
        if op.kind == "scan":
            return out.crossings.copy(), out.below / out.n_samples, out.n_samples, None
        trace, lcrs, cdfs = out
        ref = trace.samples[0].astype(float) ** 2
        corr = [np.corrcoef(ref, port.astype(float) ** 2)[0, 1]
                for port in trace.samples[1:]]
        span = (trace.best.size - 1) * trace.dt
        crossings = np.array([round(v * span) for v in lcrs])
        return crossings, np.array(cdfs), trace.best.size, corr


WORKLOADS = {w.name: w for w in (MissionSweep, OptimizeFigures, McScan)}
