"""Per-layer tracing installed from outside the library.

Every wrapper here replaces a module or class attribute at run time, at
the place where one fasdep module looks up a name that another module
defines (``from .quadrature import adaptive_gk`` binds the name in the
caller's namespace, so the caller's binding is the one patched).  Nothing
under ``src/`` changes.

Each wrapped call is a span.  Spans nest on one stack; a span's self time
is its duration minus the time of the spans it contains, and self time is
summed per layer (the fasdep module whose code the span runs).  Callbacks
that cross a boundary the other way, such as a quadrature integrand or the
optimizer's objective, are wrapped as spans of the layer that defines them,
so that the calling layer's self time excludes them.  Code that runs inside
a span without crossing a wrapped boundary counts as the span's own.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("quadrature", "specfun", "channel", "levelcross", "pipeline",
          "optimize", "dependability", "mcsim", "cli")
PORT_COUNTS = (1, 2, 4, 8, 16, 32)


class Tracer:
    """Span stack plus per-span and per-layer accumulators."""

    def __init__(self):
        self._stack = []
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []

    def timed(self, name, layer, fn, after=None):
        """Wrap fn as a span `name` of `layer`; after(args, out, dt) counts."""
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.seconds[name] += dt
                self.self_s[layer] += dt - frame[0]
            if after is not None:
                after(args, out, dt)
            return out

        return span

    def patch(self, owner, attr, name, layer, after=None, callbacks=False):
        """Replace owner.attr by a span; a missing attribute is reported.

        With callbacks=True every callable argument is itself wrapped as a
        span of the layer that defines it.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            print(f"perfbench: cannot trace {self.missing[-1]}: not found",
                  file=sys.stderr)
            return
        if callbacks:
            inner = fn

            @functools.wraps(inner)
            def fn(*args, **kwargs):
                return inner(*[self.callback(a) for a in args],
                             **{k: self.callback(v) for k, v in kwargs.items()})

        setattr(owner, attr, self.timed(name, layer, fn, after))

    def callback(self, fn):
        """Span for a callable handed across a boundary, in its own layer."""
        if not callable(fn) or isinstance(fn, type):
            return fn
        layer = getattr(fn, "__module__", "") or ""
        layer = layer.rpartition(".")[2]
        return self.timed(f"{layer}.callback", layer, fn)

    def install(self):
        """Wrap every cross-module entry point the workloads reach."""
        from fasdep import (channel, cli, dependability, levelcross, mcsim,
                            optimize, pipeline, specfun)

        counts = self.counts

        def quad_done(args, out, dt):
            counts["quadrature.nodes"] += out.n_evals
            counts["quadrature.segments"] += out.n_segments

        for mod in (channel, levelcross):
            caller = mod.__name__.rpartition(".")[2]
            self.patch(mod, "adaptive_gk", f"quadrature.from_{caller}",
                       "quadrature", quad_done, callbacks=True)

        def marcum_done(args, out, dt):
            counts["specfun.marcum.points"] += len(args[1])

        self.patch(specfun, "_one_minus_marcum_q_fixed_b", "specfun.marcum",
                   "specfun", marcum_done)
        self.patch(specfun, "_log_bessel_i_scaled_vec", "specfun.bessel",
                   "specfun")

        self.patch(levelcross, "max_cdf", "channel.max_cdf", "channel")
        self.patch(levelcross, "_threshold_factors", "channel.factors",
                   "channel")
        self.patch(getattr(channel, "_Factor", None), "_fit_cheb",
                   "channel.cheb_fit", "channel")

        def frr_done(args, out, dt):
            n = args[0].channel.n_ports
            counts[f"levelcross.frr.n{n}"] += 1
            self.seconds[f"levelcross.frr.n{n}"] += dt
            open_spans = [frame[1] for frame in self._stack]
            if open_spans and open_spans[-1] == "pipeline.rates":
                counts["pipeline.rates.misses"] += 1
            if "optimize.dinkelbach" in open_spans:
                counts["optimize.snr_evals"] += 1

        self.patch(pipeline, "failure_repair_rates", "levelcross.frr",
                   "levelcross", frr_done)
        self.patch(pipeline.MissionSystem, "rates", "pipeline.rates",
                   "pipeline")
        self.patch(pipeline.MissionSystem, "evaluate", "pipeline.evaluate",
                   "pipeline")
        self.patch(dependability, "fbl_threshold_eta", "dependability.eta",
                   "dependability")

        def solve_done(args, out, dt):
            counts["optimize.outer_iters"] += len(out.kappa_trace) - 1

        self.patch(pipeline, "dinkelbach_maximize", "optimize.dinkelbach",
                   "optimize", solve_done, callbacks=True)
        self.patch(optimize, "golden_section_max", "optimize.golden",
                   "optimize")
        self.patch(cli, "optimize_meee", "pipeline.optimize_meee",
                   "pipeline")
        self.patch(cli, "main", "cli.main", "cli")

        def scan_done(args, out, dt):
            chan = args[0].chan
            counts["mcsim.scan.samples"] += out.n_samples
            counts["mcsim.scan.process_samples"] += (
                out.n_samples * 2 * int(chan.nakagami_m) * chan.n_ports)

        self.patch(mcsim, "scan_crossings", "mcsim.scan", "mcsim", scan_done)
        self.patch(mcsim, "generate_fading", "mcsim.generate", "mcsim")
        for stat in ("empirical_lcr", "empirical_cdf", "empirical_afd"):
            self.patch(mcsim, stat, "mcsim.stats", "mcsim")

    def metrics(self):
        """Per-layer figures; a ratio whose base is 0 reads 0."""

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c, s, n = self.counts, self.seconds, self.calls
        quad_calls = n["quadrature.from_channel"] + n["quadrature.from_levelcross"]
        frr = n["levelcross.frr"]
        rates = n["pipeline.rates"]
        solves = n["optimize.dinkelbach"]
        scan_samples = c["mcsim.scan.samples"]
        out = {
            "quadrature.calls": (quad_calls, "count"),
            "quadrature.nodes": (c["quadrature.nodes"], "count"),
            "quadrature.segments": (c["quadrature.segments"], "count"),
            "specfun.marcum.calls": (n["specfun.marcum"], "count"),
            "specfun.marcum.points": (c["specfun.marcum.points"], "count"),
            "specfun.marcum.s": (s["specfun.marcum"], "s"),
            "specfun.bessel.calls": (n["specfun.bessel"], "count"),
            "specfun.bessel.s": (s["specfun.bessel"], "s"),
            "channel.max_cdf.calls": (n["channel.max_cdf"], "count"),
            "channel.max_cdf.s": (s["channel.max_cdf"], "s"),
            "channel.cheb_fits": (n["channel.cheb_fit"], "count"),
            "channel.cheb_fit.s": (s["channel.cheb_fit"], "s"),
            "levelcross.frr.calls": (frr, "count"),
            "levelcross.frr.s": (s["levelcross.frr"], "s"),
            "levelcross.frr.ms_per_call": (ratio(s["levelcross.frr"], frr, 1e3), "ms"),
            "levelcross.port_integrals": (n["quadrature.from_levelcross"], "count"),
        }
        for ports in PORT_COUNTS:
            key = f"levelcross.frr.n{ports}"
            out[f"levelcross.frr.ms_per_call.n{ports}"] = (
                ratio(s[key], c[key], 1e3), "ms")
        out.update({
            "pipeline.rates.calls": (rates, "count"),
            "pipeline.rates.hits": (rates - c["pipeline.rates.misses"], "count"),
            "pipeline.rates.hit_ratio": (
                ratio(rates - c["pipeline.rates.misses"], rates), "ratio"),
            "pipeline.chain_us_per_point": (
                ratio(self.self_s["pipeline"], rates, 1e6), "us"),
            "optimize.solves": (solves, "count"),
            "optimize.snr_evals_per_solve": (
                ratio(c["optimize.snr_evals"], solves), "count"),
            "optimize.outer_iters_per_solve": (
                ratio(c["optimize.outer_iters"], solves), "count"),
            "optimize.golden_calls": (n["optimize.golden"], "count"),
            "dependability.eta.s": (s["dependability.eta"], "s"),
            "mcsim.scan.samples": (scan_samples, "count"),
            "mcsim.scan.s": (s["mcsim.scan"], "s"),
            "mcsim.samples_per_s": (ratio(scan_samples, s["mcsim.scan"]), "1/s"),
            "mcsim.process_samples_per_s": (
                ratio(c["mcsim.scan.process_samples"], s["mcsim.scan"]), "1/s"),
            "mcsim.generate.s": (s["mcsim.generate"], "s"),
            "mcsim.stats.s": (s["mcsim.stats"], "s"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out
