"""Ratio maximization: Dinkelbach outer loop, golden-section inner search.

The inner search contracts the bracket by the literal factor 0.618 per
iteration and stops on relative width 2(ub-lb)/(ub+lb).  The outer loop
maximizes F(x, kappa) = f1(x) - kappa f2(x), updates kappa to the ratio at
the inner maximizer, and stops once |F| drops below the residual tolerance;
the kappa iterates are non-decreasing by construction.

A reliability-style constraint g(x) >= level must be non-decreasing in x,
as mission reliability is in the operating SNR, so the search interval is
clipped to an upper interval: g is probed on a coarse grid and the lower end
bisected between the last infeasible and the first feasible probe.  A grid
on which g drops back below the level after a feasible probe raises.
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


def _feasible_lower_end(g: Callable[[float], float], level: float,
                        lb: float, ub: float) -> Optional[float]:
    """Lower end of {g >= level} in [lb, ub] for non-decreasing g.

    g is probed on a coarse grid (geometric when lb > 0) and the boundary
    bisected between the first feasible probe and its infeasible neighbour.
    Returns None when no probe is feasible.
    """
    n_probe = 17
    if lb > 0.0:
        probes = [lb * (ub / lb) ** (i / (n_probe - 1)) for i in range(n_probe)]
        mid = lambda a, b: math.sqrt(a * b)
    else:
        probes = [lb + (ub - lb) * i / (n_probe - 1) for i in range(n_probe)]
        mid = lambda a, b: 0.5 * (a + b)
    feas = [g(x) >= level for x in probes]

    first = next((i for i in range(n_probe) if feas[i]), None)
    if first is None:
        return None
    for j in range(first + 1, n_probe):
        if not feas[j]:
            raise ValueError(
                f"constraint is not non-decreasing: g >= {level} at "
                f"x={probes[first]} but not at x={probes[j]}")
    if first == 0:
        return lb
    bad, good = probes[first - 1], probes[first]
    for _ in range(48):
        m = mid(bad, good)
        if g(m) >= level:
            good = m
        else:
            bad = m
    return good


def dinkelbach_maximize(f1: Callable[[float], float],
                        f2: Callable[[float], float],
                        cfg: Optional[DinkelbachConfig] = None,
                        constraint: Optional[Callable[[float], float]] = None,
                        level: float = 0.0) -> OptResult:
    """Maximize f1(x)/f2(x) on [cfg.lb, cfg.ub] subject to g(x) >= level.

    f2 must stay positive on the interval and g must be non-decreasing.
    kappa starts at 0; each outer iteration solves the parametric problem
    by golden section and checks the residual |f1 - kappa f2| at the inner
    maximizer before updating.
    """
    cfg = cfg if cfg is not None else DinkelbachConfig()
    lb, ub = cfg.lb, cfg.ub
    if constraint is not None:
        lb = _feasible_lower_end(constraint, level, lb, ub)
        if lb is None:
            return OptResult(phi_star=math.nan, value_star=math.nan,
                             kappa_trace=(0.0,), feasible=False)

    kappas = [0.0]
    converged = False
    for _ in range(cfg.max_outer_iters):
        kappa = kappas[-1]
        x_star, f_star = golden_section_max(
            lambda x, _k=kappa: f1(x) - _k * f2(x), lb, ub, cfg.inner_tol)
        if abs(f_star) <= cfg.outer_tol:
            converged = True
            break
        den = f2(x_star)
        if not den > 0.0:
            raise ValueError(f"denominator nonpositive ({den}) at x={x_star}")
        kappas.append(max(kappa, f1(x_star) / den))

    value = f1(x_star) / f2(x_star)
    return OptResult(phi_star=x_star, value_star=value,
                     kappa_trace=tuple(kappas), feasible=True,
                     converged=converged)
