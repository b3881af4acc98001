"""Experiment runner: sweeps, figure presets, validation, CSV emission.

Every subcommand evaluates a one-variable sweep over the composed model
and writes CSV with a `# key = value` header block recording the full
parameter set, so any output file is reproducible from its own header.
Analytic commands are deterministic; `simulate` adds a seed.

Exit codes: 0 success, 1 bad invocation or parameter domain error,
2 numerical failure inside a computation, 3 infeasible optimization,
4 a validation check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import qos
from .channel import FasChannel, bivariate_cdf_series, joint_cdf, max_cdf
from .dependability import FblLink, fbl_threshold_eta, fbl_threshold_trace
from .errors import FasdepError
from .levelcross import CrossingContext, _fade_durations, afd, anfd, lcr, \
    lcr_iid, lcr_two_port_series, normalized_lcr
from .mcsim import SimConfig, export_trace, generate_fading, scan_crossings
from .optimize import DinkelbachConfig, dinkelbach_maximize
from .pipeline import MissionSystem, optimize_meee
from .qos import QosProfile

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_NUMERIC = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK_FAILED = 4


class SpecError(Exception):
    """Invalid invocation, config, or parameter domain (exit code 1)."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class RunParams:
    """Flat bag of every tunable; defaults are the reference configuration."""

    n_ports: int = 4
    aperture: float = 0.3
    nakagami_m: float = 2.0
    power: float = 1.0
    rate: float = 0.1
    blocklength: int = 1000
    error_target: float = 1e-2
    eta_tol: float = 1e-4
    qos_exponent: float = 1e-3
    burstiness: float = 0.5
    drain_eff: float = 0.2
    circuit_power: float = 0.2
    idle_power: float = 0.03
    doppler: float = 10.0
    delta_t: float = 5.0
    omega: float = 0.9999
    phi_db: float = 15.0
    threshold: Optional[float] = None
    sample_rate_factor: float = 128.0
    samples: float = 1e6
    n_oscillators: int = 64


# dotted config key -> (attribute, parser)
_KEYMAP: Dict[str, Tuple[str, type]] = {
    "channel.n_ports": ("n_ports", int),
    "channel.aperture": ("aperture", float),
    "channel.m": ("nakagami_m", float),
    "channel.power": ("power", float),
    "link.rate": ("rate", float),
    "link.blocklength": ("blocklength", int),
    "link.error_target": ("error_target", float),
    "link.eta_tol": ("eta_tol", float),
    "qos.theta": ("qos_exponent", float),
    "qos.burstiness": ("burstiness", float),
    "qos.drain_eff": ("drain_eff", float),
    "qos.circuit_power": ("circuit_power", float),
    "qos.idle_power": ("idle_power", float),
    "run.doppler": ("doppler", float),
    "run.delta_t": ("delta_t", float),
    "run.omega": ("omega", float),
    "run.phi_db": ("phi_db", float),
    "run.threshold": ("threshold", float),
    "sim.sample_rate_factor": ("sample_rate_factor", float),
    "sim.samples": ("samples", float),
    "sim.oscillators": ("n_oscillators", int),
}


def _assign(params: RunParams, text: str, where: str) -> None:
    """Apply one `key = value` assignment, from a config line or --set."""
    if "=" not in text:
        raise SpecError(f"{where}: expected 'key = value'")
    key, val = (s.strip() for s in text.split("=", 1))
    if key not in _KEYMAP:
        raise SpecError(f"{where}: unknown key {key!r}")
    attr, cast = _KEYMAP[key]
    try:
        setattr(params, attr, cast(val))
    except ValueError as exc:
        raise SpecError(f"{where}: bad value for {key}: {val!r}") from exc


def _load_config(params: RunParams, path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            _assign(params, line, f"{path}:{lineno}")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# sweep variable -> the RunParams attribute it sets (phi is kept in dB)
_SWEEP_ATTRS = {"phi": "phi_db", "threshold": "threshold",
                "delta_t": "delta_t", "theta": "qos_exponent",
                "omega": "omega", "aperture": "aperture", "doppler": "doppler"}


@dataclass(frozen=True)
class Sweep:
    var: str
    start: float
    stop: float
    points: int
    scale: str   # linear | db | log

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        if self.scale == "log":
            if self.start <= 0 or self.stop <= 0:
                raise SpecError("log sweeps need positive endpoints")
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def _parse_sweep(text: str) -> Sweep:
    parts = text.split(":")
    if len(parts) == 4:
        parts.append("linear")
    if len(parts) != 5:
        raise SpecError(
            f"sweep must be var:start:stop:points[:scale], got {text!r}")
    var, start, stop, points, scale = parts
    if var not in _SWEEP_ATTRS:
        raise SpecError(f"unknown sweep variable {var!r}; "
                        f"choose from {', '.join(_SWEEP_ATTRS)}")
    if scale not in ("linear", "db", "log"):
        raise SpecError(f"unknown sweep scale {scale!r}")
    if scale == "db" and var != "phi":
        raise SpecError("dB scale applies to phi sweeps only")
    try:
        sw = Sweep(var, float(start), float(stop), int(points), scale)
    except ValueError as exc:
        raise SpecError(f"bad sweep spec {text!r}: {exc}") from exc
    if sw.points < 1:
        raise SpecError("sweep needs at least one point")
    if var == "phi" and scale == "linear" and min(sw.start, sw.stop) <= 0:
        raise SpecError("linear phi sweeps need positive endpoints; "
                        "give the SNR in dB with a :db scale")
    return sw


# command -> (default sweep, the sweep variables that reach its computation);
# optimize solves once unless swept, simulate only sweeps what one trace
# serves, figure and validate take no sweep
_COMMANDS: Dict[str, Tuple[Optional[Sweep], Tuple[str, ...]]] = {
    "lcr": (Sweep("threshold", 0.1, 2.5, 25, "linear"),
            ("threshold", "phi", "aperture", "doppler")),
    "afd": (Sweep("threshold", 0.1, 2.5, 25, "linear"),
            ("threshold", "phi", "aperture", "doppler")),
    "reliability": (Sweep("delta_t", 1.0, 20.0, 20, "linear"),
                    ("phi", "delta_t", "aperture", "doppler")),
    "mec": (Sweep("phi", -5.0, 30.0, 36, "db"),
            ("phi", "delta_t", "theta", "aperture", "doppler")),
    "meee": (Sweep("phi", -5.0, 30.0, 36, "db"),
             ("phi", "delta_t", "theta", "aperture", "doppler")),
    "optimize": (None, ("delta_t", "theta", "omega", "aperture", "doppler")),
    "simulate": (Sweep("threshold", 0.3, 1.5, 5, "linear"),
                 ("phi", "threshold")),
    "figure": (None, ()),
    "validate": (None, ()),
}


# ---------------------------------------------------------------------------
# Experiment assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    command: str
    params: RunParams
    sweep: Optional[Sweep]
    out: Optional[str]
    seed: int
    threshold_mode: str      # rho | sqrt_eta
    rmax_mode: str           # derived | paper
    preset: Optional[str] = None
    dump_trace: Optional[str] = None


@dataclass
class ResultSet:
    header: List[Tuple[str, object]]
    columns: List[str]
    rows: List[List[object]]
    all_feasible: bool = True


def _fmt_value(v: object) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def render_csv(result: ResultSet) -> str:
    # header params use the shortest round-trip form, data rows full %.17g
    lines = [f"# {k} = {v}" for k, v in result.header]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _channel_of(p: RunParams) -> FasChannel:
    try:
        return FasChannel(n_ports=p.n_ports, aperture=p.aperture,
                          nakagami_m=p.nakagami_m, power=p.power)
    except ValueError as exc:
        raise SpecError(f"bad channel parameters: {exc}") from exc


def _profile_of(p: RunParams) -> QosProfile:
    try:
        return QosProfile(qos_exponent=p.qos_exponent, burstiness=p.burstiness,
                          drain_eff=p.drain_eff, circuit_power=p.circuit_power,
                          idle_power=p.idle_power)
    except ValueError as exc:
        raise SpecError(f"bad QoS parameters: {exc}") from exc


def _param_header(spec: ExperimentSpec) -> List[Tuple[str, object]]:
    head: List[Tuple[str, object]] = [("command", spec.command)]
    if spec.preset:
        head.append(("preset", spec.preset))
    if spec.sweep is not None:
        sw = spec.sweep
        head.append(("sweep", f"{sw.var}:{sw.start}:{sw.stop}:{sw.points}:{sw.scale}"))
    for key, (attr, _) in _KEYMAP.items():
        val = getattr(spec.params, attr)
        if val is not None:
            head.append((key, val))
    head.append(("threshold_mode", spec.threshold_mode))
    head.append(("rmax_mode", spec.rmax_mode))
    if spec.command in ("simulate", "figure"):
        head.append(("seed", spec.seed))
    return head


def _sweep_params(spec: ExperimentSpec):
    """Yield (sweep value, params, phi_linear) per grid point; an unswept
    run yields its one point with no sweep value."""
    sweep = spec.sweep
    if sweep is None:
        yield None, spec.params, 10.0 ** (spec.params.phi_db / 10.0)
        return
    linear_phi = sweep.var == "phi" and sweep.scale != "db"
    for v in sweep.grid():
        v = float(v)
        x = v
        if sweep.var == "phi":
            x = 10.0 * math.log10(10.0 ** (v / 10.0) if sweep.scale == "db"
                                  else v)
        p = dataclasses.replace(spec.params, **{_SWEEP_ATTRS[sweep.var]: x})
        # a linear or log phi grid holds phi itself, not a trip through dB
        yield v, p, v if linear_phi else 10.0 ** (p.phi_db / 10.0)


def _table(spec: ExperimentSpec, columns: List[str], rows: List[list],
           all_feasible: bool = True) -> ResultSet:
    """The run's CSV, each row led by its sweep value.

    An unswept run has no sweep value to print, and where the first result
    column already is the sweep variable (a threshold sweep, or a linear
    or log phi sweep of mec and meee) the sweep value would repeat it:
    both drop it.
    """
    sw = spec.sweep
    # only phi takes a dB scale
    label = None if sw is None else "phi_db" if sw.scale == "db" else sw.var
    if label in (None, columns[0]):
        rows = [r[1:] for r in rows]
    else:
        columns = [label] + columns
    return ResultSet(_param_header(spec), columns, rows, all_feasible)


def _fresh_system(spec: ExperimentSpec, p: RunParams, phi: float,
                  cache: Dict[tuple, MissionSystem]) -> MissionSystem:
    """The one place a MissionSystem is built: one per channel geometry, so
    Phi sweeps share its caches."""
    key = (p.n_ports, p.aperture, p.nakagami_m, p.power, p.doppler,
           p.rate, p.blocklength, p.error_target, p.eta_tol)
    if key not in cache:
        chan = _channel_of(p)
        try:
            link = FblLink(blocklength=p.blocklength,
                           error_target=p.error_target, rate=p.rate,
                           avg_snr=phi, eta_tol=p.eta_tol)
        except ValueError as exc:
            raise SpecError(f"bad link parameters: {exc}") from exc
        cache[key] = MissionSystem(chan, p.doppler, link,
                                   threshold_mode=spec.threshold_mode)
    return cache[key]


def _threshold(spec: ExperimentSpec, p: RunParams, phi: float,
               cache: Dict[tuple, MissionSystem]) -> float:
    """The set or swept threshold, else the link's decision level at phi."""
    if p.threshold is not None:
        return p.threshold
    return _fresh_system(spec, p, phi, cache).threshold(phi)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _run_crossing(spec: ExperimentSpec) -> ResultSet:
    cache: Dict[tuple, MissionSystem] = {}
    rows = []
    for v, p, phi in _sweep_params(spec):
        th = _threshold(spec, p, phi, cache)
        ctx = CrossingContext(_channel_of(p), p.doppler, th)
        if spec.command == "lcr":
            rate = lcr(ctx)
            rows.append([v, th, rate, rate / p.doppler])
        else:
            rows.append([v, th, *_fade_durations(ctx)])
    columns = (["threshold", "lcr", "nlcr"] if spec.command == "lcr"
               else ["threshold", "afd", "anfd", "cdf", "lcr"])
    return _table(spec, columns, rows)


# (CSV column, MissionPoint field) per mission command
_MISSION_COLUMNS = {
    "reliability": (("threshold", "rho"), ("upsilon", "failure_rate"),
                    ("mttff", "mean_ttff"), ("r_m", "reliability")),
    "mec": (("phi", "avg_snr"), ("eta", "eta"), ("rho", "rho"),
            ("r_m", "reliability"), ("mec", "mec")),
    "meee": (("phi", "avg_snr"), ("rho", "rho"), ("r_m", "reliability"),
             ("mec", "mec"), ("rmax", "max_arrival"), ("p_t", "power"),
             ("meee", "meee")),
}


def _run_mission(spec: ExperimentSpec) -> ResultSet:
    fields = _MISSION_COLUMNS[spec.command]
    cache: Dict[tuple, MissionSystem] = {}
    rows = []
    for v, p, phi in _sweep_params(spec):
        system = _fresh_system(spec, p, phi, cache)
        profile = _profile_of(p)
        with warnings.catch_warnings():
            if spec.command != "meee":
                # these commands print no power, so its regime warning is noise
                warnings.filterwarnings("ignore", "idle power", RuntimeWarning)
            point = system.evaluate(phi, profile, p.delta_t,
                                    rmax_mode=spec.rmax_mode)
        rows.append([v] + [getattr(point, f) for _, f in fields])
    return _table(spec, [c for c, _ in fields], rows)


def _run_optimize(spec: ExperimentSpec) -> ResultSet:
    cache: Dict[tuple, MissionSystem] = {}
    rows = []
    all_feasible = True
    for v, p, phi in _sweep_params(spec):
        res = optimize_meee(_fresh_system(spec, p, phi, cache),
                            _profile_of(p), p.delta_t, p.omega,
                            rmax_mode=spec.rmax_mode)
        all_feasible &= res.feasible
        star_db = (10.0 * math.log10(res.phi_star)
                   if res.feasible and res.phi_star > 0 else math.nan)
        rows.append([v, res.phi_star, star_db, res.value_star,
                     len(res.kappa_trace) - 1, res.feasible, res.converged])
    columns = ["phi_star", "phi_star_db", "meee_star", "outer_iters",
               "feasible", "converged"]
    return _table(spec, columns, rows, all_feasible)


def _run_simulate(spec: ExperimentSpec) -> ResultSet:
    points = list(_sweep_params(spec))
    cache: Dict[tuple, MissionSystem] = {}
    thresholds = [_threshold(spec, p, phi, cache) for _, p, phi in points]

    p0 = points[0][1]
    chan = _channel_of(p0)
    sample_rate = p0.sample_rate_factor * p0.doppler
    cfg = SimConfig(chan=chan, doppler=p0.doppler, sample_rate=sample_rate,
                    duration=float(p0.samples) / sample_rate,
                    n_oscillators=p0.n_oscillators, seed=spec.seed)
    scan = scan_crossings(cfg, thresholds)
    if spec.dump_trace:
        small = dataclasses.replace(cfg, duration=min(cfg.duration,
                                                      4096 / sample_rate))
        export_trace(generate_fading(small), spec.dump_trace)

    rows = []
    for i, ((v, p, _), th) in enumerate(zip(points, thresholds)):
        ctx = CrossingContext(chan, p.doppler, th)
        rows.append([v, th, lcr(ctx) / p.doppler, scan.nlcr(i, p.doppler),
                     max_cdf(chan, th), scan.cdf(i), int(scan.crossings[i])])
    columns = ["threshold", "nlcr_analytic", "nlcr_sim", "cdf_analytic",
               "cdf_sim", "crossings"]
    return _table(spec, columns, rows)


# ---------------------------------------------------------------------------
# Figure presets: each fixes its geometry on top of the run's parameters and
# builds its systems through _fresh_system, so both mode flags reach it
# ---------------------------------------------------------------------------

def _figure_fig2(spec: ExperimentSpec) -> ResultSet:
    p = spec.params
    grid = np.linspace(-5.0, 30.0, 36)
    profile = _profile_of(p)
    cache: Dict[tuple, MissionSystem] = {}
    columns = ["phi_db"]
    series = []
    for n in (1, 2, 4):
        geometry = dataclasses.replace(p, n_ports=n, aperture=0.3,
                                       nakagami_m=2.0)
        system = _fresh_system(spec, geometry, 1.0, cache)
        series.append([system.evaluate(10.0 ** (db / 10.0), profile, p.delta_t,
                                       rmax_mode=spec.rmax_mode).meee
                       for db in grid])
        columns.append(f"meee_n{n}")
    rows = [[grid[i]] + [s[i] for s in series] for i in range(grid.size)]
    head = _param_header(spec) + [("figure.aperture", 0.3), ("figure.m", 2.0)]
    return ResultSet(head, columns, rows)


def _figure_fig3(spec: ExperimentSpec) -> ResultSet:
    p = spec.params
    grid = np.linspace(0.0, 30.0, 7)
    layouts = [("n1", 1, 0.0), ("n2w05", 2, 0.5), ("n4w03", 4, 0.3)]
    cache: Dict[tuple, MissionSystem] = {}
    columns = ["phi_db"]
    data = []
    sample_rate = p.sample_rate_factor * p.doppler
    for idx, (tag, n, w) in enumerate(layouts):
        geometry = dataclasses.replace(p, n_ports=n, aperture=w,
                                       nakagami_m=1.0, rate=1.0)
        system = _fresh_system(spec, geometry, 1.0, cache)
        chan = system.channel
        ths = [system.threshold(10.0 ** (db / 10.0)) for db in grid]
        analytic = [normalized_lcr(CrossingContext(chan, p.doppler, th))
                    for th in ths]
        cfg = SimConfig(chan=chan, doppler=p.doppler, sample_rate=sample_rate,
                        duration=float(p.samples) / sample_rate,
                        n_oscillators=p.n_oscillators, seed=spec.seed,
                        n_trials=len(layouts))
        scan = scan_crossings(cfg, ths, trial=idx)
        sim = [scan.nlcr(i, p.doppler) for i in range(len(ths))]
        data.extend([analytic, sim])
        columns.extend([f"nlcr_{tag}", f"nlcr_sim_{tag}"])
    rows = [[grid[i]] + [col[i] for col in data] for i in range(grid.size)]
    head = _param_header(spec) + [("figure.m", 1.0), ("figure.rate", 1.0)]
    return ResultSet(head, columns, rows)


def _figure_fig4(spec: ExperimentSpec) -> ResultSet:
    p = spec.params
    grid = np.linspace(1.0, 20.0, 20)
    # pinned at 0 dB: the N=2 curves then decay visibly over 1..20 s while
    # the N=4 ones stay high; larger SNR flattens everything against 1
    phi = 1.0
    cache: Dict[tuple, MissionSystem] = {}
    columns = ["delta_t"]
    series = []
    for n, w in [(n, w) for n in (2, 4) for w in (0.25, 0.5)]:
        geometry = dataclasses.replace(p, n_ports=n, aperture=w,
                                       nakagami_m=2.0)
        system = _fresh_system(spec, geometry, phi, cache)
        series.append([system.reliability(phi, dt) for dt in grid])
        columns.append(f"rm_n{n}w{str(w).replace('.', '')}")
    rows = [[grid[i]] + [s[i] for s in series] for i in range(grid.size)]
    head = _param_header(spec) + [("figure.m", 2.0), ("figure.phi_db", 0.0)]
    return ResultSet(head, columns, rows)


def _optimized_sweep(spec: ExperimentSpec, var: str, grid: Sequence[float],
                     m: float, aperture: float) -> ResultSet:
    """Optimized mEEE at N = 1, 2, 4 as the sweep variable `var` moves."""
    columns = [var]
    cache: Dict[tuple, MissionSystem] = {}
    series = []
    all_feasible = True
    for n in (1, 2, 4):
        base = dataclasses.replace(spec.params, n_ports=n, aperture=aperture,
                                   nakagami_m=m)
        system = _fresh_system(spec, base, 1.0, cache)
        stars, vals = [], []
        for v in grid:
            p = dataclasses.replace(base, **{_SWEEP_ATTRS[var]: float(v)})
            res = optimize_meee(system, _profile_of(p), p.delta_t, p.omega,
                                rmax_mode=spec.rmax_mode)
            all_feasible &= res.feasible
            stars.append(10.0 * math.log10(res.phi_star)
                         if res.feasible else math.nan)
            vals.append(res.value_star)
        series.extend([stars, vals])
        columns.extend([f"phi_star_db_n{n}", f"meee_n{n}"])
    rows = [[float(grid[i])] + [s[i] for s in series]
            for i in range(len(grid))]
    head = _param_header(spec) + [("figure.m", m), ("figure.aperture", aperture)]
    return ResultSet(head, columns, rows, all_feasible=all_feasible)


def _figure_fig5(spec: ExperimentSpec) -> ResultSet:
    return _optimized_sweep(spec, "delta_t", np.linspace(1.0, 20.0, 20),
                            m=5.0, aperture=0.03)


def _figure_fig6(spec: ExperimentSpec) -> ResultSet:
    # sweep starts where the buffer constraint is active: below theta ~0.026
    # the reliability-clamped capacity is flat while the load-proportional
    # power still falls, so efficiency creeps up by ~3e-4 before turning over
    return _optimized_sweep(spec, "theta", np.geomspace(0.05, 1.0, 13),
                            m=5.0, aperture=0.03)


def _figure_fig7(spec: ExperimentSpec) -> ResultSet:
    return _optimized_sweep(spec, "omega", (0.9, 0.99, 0.999, 0.9999, 0.99999),
                            m=4.0, aperture=0.03)


def _run_figure(spec: ExperimentSpec) -> ResultSet:
    runners = {"fig2": _figure_fig2, "fig3": _figure_fig3,
               "fig4": _figure_fig4, "fig5": _figure_fig5,
               "fig6": _figure_fig6, "fig7": _figure_fig7}
    if not spec.preset:
        raise SpecError("figure requires --preset fig2..fig7")
    if spec.preset not in runners:
        raise SpecError(f"unknown figure preset {spec.preset!r}")
    return runners[spec.preset](spec)


# ---------------------------------------------------------------------------
# Validation presets
# ---------------------------------------------------------------------------

def _validate_checks(preset: str, seed: int):
    """Yield (name, passed, detail) tuples for the chosen preset."""
    # corollary consistency at near-zero correlation
    worst = 0.0
    for m in (1.0, 2.0):
        for n in (2, 4):
            chan = FasChannel.with_correlation(n, (1e-7,) * (n - 1), m)
            for x in (0.5, 1.0, 2.0):
                ctx = CrossingContext(chan, 10.0, x)
                a, b = lcr(ctx), lcr_iid(ctx)
                worst = max(worst, abs(a - b) / b)
    yield ("theorem-vs-iid-corollary", worst < 1e-3, f"max rel err {worst:.2e}")

    # two-port series vs quadrature, plus the construction identities
    worst = 0.0
    worst_id = 0.0
    for m in (1.0, 2.5):
        for mu in (0.3, 0.8):
            chan = FasChannel.with_correlation(2, (mu,), m)
            for x in (0.5, 1.5):
                ctx = CrossingContext(chan, 10.0, x)
                a, b = lcr(ctx), lcr_two_port_series(ctx)
                worst = max(worst, abs(a - b) / b)
                cdf = max_cdf(chan, x)
                worst_id = max(worst_id, abs(afd(ctx) * a - cdf),
                               abs(anfd(ctx) + afd(ctx) - 1.0 / a))
    yield ("two-port-series-vs-quadrature", worst < 1e-6,
           f"max rel err {worst:.2e}")
    yield ("afd-anfd-identities", worst_id < 1e-12, f"max abs err {worst_id:.2e}")

    # bivariate CDF series vs quadrature
    chan = FasChannel.with_correlation(2, (0.6,), 2.0)
    a = bivariate_cdf_series(chan, 0.8, 1.2)
    b = joint_cdf(chan, (0.8, 1.2))
    err = abs(a - b)
    yield ("bivariate-series-vs-quadrature", err < 1e-8, f"abs err {err:.2e}")

    # effective bandwidth inversion
    worst = 0.0
    for theta in (1e-4, 1e-2):
        for s in (0.25, 1.0):
            for mec in (0.01, 0.09):
                r = qos.max_arrival_rate(theta, s, mec)
                back = qos.effective_bandwidth(theta, r / s, s)
                worst = max(worst, abs(back - mec))
    yield ("arrival-rate-inversion", worst < 1e-12, f"max abs err {worst:.2e}")

    # FBL threshold fixed point
    link = FblLink(1000, 0.5, 0.1, 10.0)
    exact = abs(fbl_threshold_eta(link) - (2 ** 0.1 - 1.0))
    trace = fbl_threshold_trace(FblLink(1000, 1e-2, 0.1, 10.0))
    yield ("fbl-threshold", exact == 0.0 and len(trace) < 100,
           f"eps=0.5 err {exact:.1e}, {len(trace)} iterations")

    # Dinkelbach benchmark
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              DinkelbachConfig(lb=0.0, ub=10.0))
    err = abs(res.phi_star - (math.e - 1.0))
    yield ("dinkelbach-benchmark", err < 1e-6, f"|x*-(e-1)| = {err:.2e}")

    # Monte Carlo spot checks
    n_samples = 1e7 if preset == "full" else 2e5
    tol = 0.05 if preset == "full" else 0.08
    chan = FasChannel(1, 0.0, 1.0)
    rate = 320.0
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=rate,
                    duration=n_samples / rate, seed=seed)
    scan = scan_crossings(cfg, [1.0])
    target = math.sqrt(2.0 * math.pi) * math.exp(-1.0)
    err = abs(scan.nlcr(0, 10.0) - target) / target
    yield ("mc-single-port-nlcr", err < tol, f"rel err {err:.2%}")

    corr_n = int(1e6 if preset == "full" else 2e5)
    corr_tol = 0.01 if preset == "full" else 0.02
    chan = FasChannel(2, 0.5, 1.0)
    cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=rate,
                    duration=corr_n / rate, seed=seed + 1)
    trace = generate_fading(cfg)
    p1, p2 = trace.samples[0] ** 2, trace.samples[1] ** 2
    rho_hat = float(np.corrcoef(p1, p2)[0, 1])
    mu2 = chan.mu[0] ** 2
    err = abs(rho_hat - mu2)
    yield ("mc-power-correlation", err < corr_tol,
           f"|corr - mu^2| = {err:.4f}")

    if preset == "full":
        # Monte Carlo corroboration at the figure-3 operating points.
        # Sampling at 512 f_D keeps the finite-dt crossing undercount near
        # 1%; at the spec floor of 32 f_D the 10 dB thresholds lose a
        # quarter of their fades between samples.
        link = FblLink(1000, 1e-2, 1.0, 1.0)
        eta = fbl_threshold_eta(link)
        mc_rate = 5120.0
        worst = 0.0
        for idx, chan in enumerate((FasChannel(2, 0.5, 1.0),
                                    FasChannel(4, 0.3, 1.0))):
            ths = [math.sqrt(eta / 10.0 ** (db / 10.0)) for db in (0, 10)]
            cfg = SimConfig(chan=chan, doppler=10.0, sample_rate=mc_rate,
                            duration=4e7 / mc_rate, seed=seed + 2, n_trials=2)
            scan = scan_crossings(cfg, ths, trial=idx)
            for i, th in enumerate(ths):
                ref = normalized_lcr(CrossingContext(chan, 10.0, th))
                worst = max(worst, abs(scan.nlcr(i, 10.0) - ref) / ref)
        yield ("mc-nlcr-fig3-points", worst < 0.05, f"max rel err {worst:.2%}")


def _run_validate(spec: ExperimentSpec) -> Tuple[str, bool]:
    """The self-check report and whether every check passed."""
    preset = spec.preset if spec.preset is not None else "quick"
    if preset not in ("quick", "full"):
        raise SpecError(f"unknown validate preset {preset!r}; "
                        "choose quick or full")
    lines = [f"validation preset: {preset}"]
    n_pass = n_total = 0
    for name, passed, detail in _validate_checks(preset, spec.seed):
        n_total += 1
        n_pass += passed
        lines.append(f"{'PASS' if passed else 'FAIL':4s}  {name:36s}  {detail}")
    lines.append(f"overall: {n_pass}/{n_total} passed")
    return "\n".join(lines) + "\n", n_pass == n_total


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(spec: ExperimentSpec) -> ResultSet:
    """Evaluate an experiment; grid points are emitted in sweep order."""
    runners = {"lcr": _run_crossing, "afd": _run_crossing,
               "reliability": _run_mission, "mec": _run_mission,
               "meee": _run_mission, "optimize": _run_optimize,
               "simulate": _run_simulate, "figure": _run_figure}
    return runners[spec.command](spec)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise SpecError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fasdep",
                     description="Fluid-antenna dependability experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--config", help="key = value parameter file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument("--threshold-mode", choices=("rho", "sqrt-eta"),
                       default="rho")
        p.add_argument("--rmax-mode", choices=("derived", "paper"),
                       default="derived")
        p.add_argument("--preset", help="figure (fig2..fig7) or validation "
                                        "(quick|full) preset")
        p.add_argument("--sweep", help="var:start:stop:points[:scale]")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if name == "simulate":
            p.add_argument("--dump-trace", metavar="PATH",
                           help="also write a short text trace")
    return parser


def _build_spec(args) -> ExperimentSpec:
    params = RunParams()
    if args.config:
        _load_config(params, args.config)
    for item in args.set:
        _assign(params, item, f"--set {item!r}")

    sweep, allowed = _COMMANDS[args.command]
    if args.sweep:
        if not allowed:
            raise SpecError(f"{args.command} does not accept --sweep")
        sweep = _parse_sweep(args.sweep)
        if sweep.var not in allowed:
            raise SpecError(
                f"{args.command} ignores {sweep.var!r}; sweepable variables "
                f"are {', '.join(sorted(allowed))}")

    if args.preset and args.command not in ("figure", "validate"):
        raise SpecError(f"--preset applies to figure/validate, "
                        f"not {args.command}")
    if args.seed < 0:
        raise SpecError("seed must be a nonnegative integer")

    return ExperimentSpec(
        command=args.command, params=params, sweep=sweep, out=args.out,
        seed=args.seed,
        threshold_mode=args.threshold_mode.replace("-", "_"),
        rmax_mode=args.rmax_mode, preset=args.preset,
        dump_trace=getattr(args, "dump_trace", None))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        spec = _build_spec(args)
        if spec.command == "validate":
            report, passed = _run_validate(spec)
            _emit(report, spec.out)
            return EXIT_OK if passed else EXIT_CHECK_FAILED
        result = run(spec)
        _emit(render_csv(result), spec.out)
        return EXIT_OK if result.all_feasible else EXIT_INFEASIBLE
    except SpecError as exc:
        print(f"fasdep: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (FasdepError, OverflowError) as exc:
        print(f"fasdep: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as exc:
        print(f"fasdep: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
