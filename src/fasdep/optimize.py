"""Ratio maximization: Dinkelbach outer loop, golden-section inner search.

The inner search contracts the bracket by the literal factor 0.618 per
iteration and stops on relative width 2(ub-lb)/(ub+lb).  The outer loop
maximizes F(x, kappa) = f1(x) - kappa f2(x), updates kappa to the ratio at
the inner maximizer, and stops once |F| drops below the residual tolerance;
the kappa iterates are non-decreasing by construction.

A reliability-style constraint g(x) >= level must be non-decreasing in x,
as mission reliability is in the operating SNR, so the search interval is
clipped to an upper interval: g is probed on a coarse grid and the lower end
found by a Brent-Dekker root-find of g - level between the last infeasible
and the first feasible probe.  A grid on which g drops back below the level
after a feasible probe raises.

The ratio must be unimodal on the feasible interval, so a ratio that does
not rise one inner-tolerance step above the lower end peaks there: that
solve returns the lower end without running the outer loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

__all__ = [
    "DinkelbachConfig",
    "OptResult",
    "golden_section_max",
    "dinkelbach_maximize",
]

_GOLDEN = 0.618          # contraction ratio, kept literal
_MAX_INNER_ITERS = 400
_BOUNDARY_TOL = 1e-12    # bracket width of the feasibility boundary search


@dataclass(frozen=True)
class DinkelbachConfig:
    """Search bounds and tolerances of the outer/inner loops.

    Bounds are linear SNR values; lb = 0 is accepted (the closed-form
    benchmark uses it) although operating points are normally positive.
    """

    lb: float = 1e-2
    ub: float = 1e4
    inner_tol: float = 1e-6
    outer_tol: float = 1e-8
    max_outer_iters: int = 50

    def __post_init__(self):
        if not 0.0 <= self.lb < self.ub:
            raise ValueError(f"need 0 <= lb < ub, got [{self.lb}, {self.ub}]")
        if not (self.inner_tol > 0.0 and self.outer_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_outer_iters < 1:
            raise ValueError(
                f"max_outer_iters must be >= 1, got {self.max_outer_iters}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a ratio maximization.

    kappa_trace starts at the 0 initialization and appends one value per
    outer update; it is non-decreasing.  feasible is False when the
    constraint excludes the whole interval (phi_star is NaN then);
    converged is False only on outer-iteration exhaustion.
    """

    phi_star: float
    value_star: float
    kappa_trace: Tuple[float, ...]
    feasible: bool
    converged: bool = True


def golden_section_max(f: Callable[[float], float], lb: float, ub: float,
                       inner_tol: float) -> Tuple[float, float]:
    """Golden-section maximizer of a unimodal f on [lb, ub].

    Returns the midpoint of the final bracket and f there.  Ties between
    the two probes move the lower bound (the else branch), which also
    fixes the behavior on constant objectives.
    """
    if not lb < ub:
        raise ValueError(f"need lb < ub, got [{lb}, {ub}]")
    if not inner_tol > 0.0:
        raise ValueError(f"inner_tol must be positive, got {inner_tol}")

    def checked(x: float) -> float:
        v = f(x)
        if not math.isfinite(v):
            raise ValueError(f"objective returned non-finite value {v} at x={x}")
        return v

    for _ in range(_MAX_INNER_ITERS):
        width = ub - lb
        denom = ub + lb
        if denom > 0.0 and 2.0 * width / denom < inner_tol:
            break
        if width <= 1e-15 * max(abs(lb), abs(ub), 1.0):
            break  # bracket at floating-point resolution
        step = _GOLDEN * width
        x1 = ub - step
        x2 = lb + step
        if checked(x1) > checked(x2):
            ub = x2
        else:
            lb = x1
    x = 0.5 * (lb + ub)
    return x, checked(x)


def _brent_boundary(h: Callable[[float], float], bad: float, h_bad: float,
                    good: float, h_good: float, tol: float) -> float:
    """Brent-Dekker root-find of h between h(bad) < 0 <= h(good).

    Secant and inverse quadratic steps, safeguarded by bisection, shrink
    the bracket [cur, blk] until it is narrower than about tol; its end
    where h >= 0 is returned, so the result is always on the feasible side.
    """
    x_pre, f_pre, x_cur, f_cur = bad, h_bad, good, h_good
    x_blk, f_blk = bad, h_bad
    s_pre = s_cur = good - bad
    # both callers' tol lies above the float spacing of x, so the
    # bracket can always shrink to it: no relative term is needed
    delta = 0.5 * tol
    for _ in range(100):
        if abs(f_blk) < abs(f_cur):  # keep the better end in x_cur
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            break
        s_try = math.inf
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            elif f_blk != f_pre:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre))
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = h(x_cur)
        if (f_pre >= 0.0) != (f_cur >= 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
    return x_cur if f_cur >= 0.0 else x_blk


def _feasible_lower_end(g: Callable[[float], float], level: float,
                        lb: float, ub: float) -> Optional[float]:
    """Lower end of {g >= level} in [lb, ub] for non-decreasing g.

    g is probed on a coarse grid and the boundary found by a Brent root-find
    of g - level between the first feasible probe and its infeasible
    neighbour: in log x to about 1e-12 when lb > 0 (a geometric grid), in x
    to about 1e-12 (ub - lb) on the linear grid lb = 0.  The returned point
    satisfies g >= level.  Returns None when no probe is feasible.
    """
    n_probe = 17
    if lb > 0.0:
        probes = [lb * (ub / lb) ** (i / (n_probe - 1)) for i in range(n_probe)]
        to_x, to_t, tol = math.exp, math.log, _BOUNDARY_TOL
    else:
        probes = [lb + (ub - lb) * i / (n_probe - 1) for i in range(n_probe)]
        to_x = to_t = float
        tol = _BOUNDARY_TOL * (ub - lb)
    values = [g(x) for x in probes]

    first = next((i for i, v in enumerate(values) if v >= level), None)
    if first is None:
        return None
    for j in range(first + 1, n_probe):
        if not values[j] >= level:
            raise ValueError(
                f"constraint is not non-decreasing: g >= {level} at "
                f"x={probes[first]} but not at x={probes[j]}")
    if first == 0:
        return lb
    good = to_t(probes[first])
    t = _brent_boundary(lambda t: g(to_x(t)) - level,
                        to_t(probes[first - 1]), values[first - 1] - level,
                        good, values[first] - level, tol)
    # exp(log(x)) need not round back to the probe g was checked at
    return probes[first] if t == good else to_x(t)


def dinkelbach_maximize(f1: Callable[[float], float],
                        f2: Callable[[float], float],
                        cfg: Optional[DinkelbachConfig] = None,
                        constraint: Optional[Callable[[float], float]] = None,
                        level: float = 0.0) -> OptResult:
    """Maximize f1(x)/f2(x) on [cfg.lb, cfg.ub] subject to g(x) >= level.

    Two contracts: f2 stays positive on the interval and g is
    non-decreasing, and the ratio f1/f2 is unimodal on the feasible
    interval [lb, ub].  Once lb is known, the ratio one step
    delta = lb inner_tol above it (inner_tol (ub - lb) when lb = 0) is
    compared with the ratio at lb; if it does not rise, lb is the maximizer
    and is returned with kappa_trace (0, value).  Otherwise kappa starts at
    0; each outer iteration solves the parametric problem by golden section
    and checks the residual |f1 - kappa f2| at the inner maximizer before
    updating.
    """
    cfg = cfg if cfg is not None else DinkelbachConfig()
    lb, ub = cfg.lb, cfg.ub
    if constraint is not None:
        lb = _feasible_lower_end(constraint, level, lb, ub)
        if lb is None:
            return OptResult(phi_star=math.nan, value_star=math.nan,
                             kappa_trace=(0.0,), feasible=False)

    def ratio(x: float) -> float:
        den = f2(x)
        if not den > 0.0:
            raise ValueError(f"denominator nonpositive ({den}) at x={x}")
        return f1(x) / den

    value = ratio(lb)
    step = lb * cfg.inner_tol if lb > 0.0 else cfg.inner_tol * (ub - lb)
    if ratio(min(lb + step, ub)) <= value:
        return OptResult(phi_star=lb, value_star=value,
                         kappa_trace=(0.0, value), feasible=True)

    kappas = [0.0]
    converged = False
    for _ in range(cfg.max_outer_iters):
        kappa = kappas[-1]
        x_star, f_star = golden_section_max(
            lambda x, _k=kappa: f1(x) - _k * f2(x), lb, ub, cfg.inner_tol)
        if abs(f_star) <= cfg.outer_tol:
            converged = True
            break
        kappas.append(max(kappa, ratio(x_star)))

    value = f1(x_star) / f2(x_star)
    return OptResult(phi_star=x_star, value_star=value,
                     kappa_trace=tuple(kappas), feasible=True,
                     converged=converged)
