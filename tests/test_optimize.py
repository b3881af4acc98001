"""Golden-section and Dinkelbach loops on closed-form problems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fasdep.optimize import (
    DinkelbachConfig,
    OptResult,
    _feasible_lower_end,
    dinkelbach_maximize,
    golden_section_max,
)


# ---------------------------------------------------------------------------
# Golden-section inner loop
# ---------------------------------------------------------------------------

def test_golden_finds_parabola_peak():
    x, fx = golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, 1e-8)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-10)


def test_golden_boundary_maximum():
    x, fx = golden_section_max(lambda x: x, 0.0, 3.0, 1e-9)
    assert x == pytest.approx(3.0, rel=1e-8)


def test_golden_constant_objective_terminates():
    x, fx = golden_section_max(lambda x: 1.0, 1.0, 2.0, 1e-9)
    assert 1.0 <= x <= 2.0
    assert fx == 1.0


def test_golden_contraction_rate_is_literal_618():
    """Eval growth per decade of tolerance pins the 0.618 bracket ratio.

    Each iteration costs two probes and shrinks the bracket by 0.618, so a
    10x tighter stop needs ln(10)/ln(1/0.618) ~ 4.8 more iterations.
    """
    def count(tol):
        n = 0
        def f(x):
            nonlocal n
            n += 1
            return -(x - 0.5) ** 2
        golden_section_max(f, 0.0, 1.0, tol)
        return n

    grows = [count(10.0 ** -(k + 1)) - count(10.0 ** -k) for k in (3, 4, 5)]
    for g in grows:
        assert 2 * 4 <= g <= 2 * 6  # two evals per iteration


def test_golden_validation():
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, 1.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        golden_section_max(lambda x: math.nan, 0.0, 1.0, 1e-6)


# ---------------------------------------------------------------------------
# Dinkelbach outer loop
# ---------------------------------------------------------------------------

def _benchmark_cfg():
    return DinkelbachConfig(lb=0.0, ub=10.0, inner_tol=1e-9, outer_tol=1e-12)


def test_dinkelbach_closed_form_benchmark():
    """max ln(1+x)/(1+x) sits at x = e - 1 with value 1/e."""
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=_benchmark_cfg())
    assert res.feasible and res.converged
    assert res.phi_star == pytest.approx(math.e - 1.0, abs=1e-6)
    assert res.value_star == pytest.approx(1.0 / math.e, rel=1e-9)


def test_kappa_trace_monotone_and_terminal():
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=_benchmark_cfg())
    trace = res.kappa_trace
    assert trace[0] == 0.0
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(res.value_star, abs=1e-9)


def test_dinkelbach_residual_settles():
    """At the reported optimum |f1 - kappa f2| is inside the outer tolerance."""
    cfg = _benchmark_cfg()
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=cfg)
    resid = math.log1p(res.phi_star) - res.kappa_trace[-1] * (1.0 + res.phi_star)
    assert abs(resid) <= 1e-6  # within inner-search resolution of the bound


def test_dinkelbach_linear_ratio():
    # f1/f2 = (2x+1)/(x+2) is increasing: optimum at the upper bound
    res = dinkelbach_maximize(lambda x: 2.0 * x + 1.0, lambda x: x + 2.0,
                              cfg=DinkelbachConfig(lb=0.0, ub=5.0,
                                                   inner_tol=1e-9,
                                                   outer_tol=1e-10))
    assert res.phi_star == pytest.approx(5.0, abs=1e-5)
    assert res.value_star == pytest.approx(11.0 / 7.0, rel=1e-6)


def test_constraint_pins_boundary_solution():
    """Active constraint g(x) = x >= 3 moves the peak to the boundary."""
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=_benchmark_cfg(),
                              constraint=lambda x: x, level=3.0)
    assert res.feasible
    assert res.phi_star == pytest.approx(3.0, abs=1e-5)
    assert res.phi_star >= 3.0 - 1e-12
    assert res.value_star == pytest.approx(math.log(4.0) / 4.0, rel=1e-5)


def test_boundary_rule_returns_lower_end_after_one_extra_point():
    """The ratio falls at the feasible lower end x = 3 (its peak is e - 1),
    so the solve returns that end exactly, with the one-step trace, after
    evaluating the ratio at one point the boundary search did not visit."""
    probed, f1_at, f2_at = [], [], []

    def g(x):
        probed.append(x)
        return x

    def f1(x):
        f1_at.append(x)
        return math.log1p(x)

    def f2(x):
        f2_at.append(x)
        return 1.0 + x

    res = dinkelbach_maximize(f1, f2, cfg=_benchmark_cfg(), constraint=g,
                              level=3.0)
    lower = _feasible_lower_end(lambda x: x, 3.0, 0.0, 10.0)
    assert res.feasible and res.converged
    assert res.phi_star == lower == 3.0
    assert res.value_star == math.log1p(lower) / (1.0 + lower)
    assert res.kappa_trace == (0.0, res.value_star)
    assert f1_at == f2_at and len(f1_at) == 2
    assert set(f1_at) - set(probed) == {lower + lower * 1e-9}


def test_boundary_rule_steps_off_a_zero_lower_end():
    """A slack constraint leaves lb = 0 on the linear grid.  The rule's step
    is inner_tol (ub - lb) there, not the zero-width lb (1 + inner_tol), so
    the rising ratio at 0 is seen and the interior peak e - 1 is found."""
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=_benchmark_cfg(),
                              constraint=lambda x: x, level=-1.0)
    assert len(res.kappa_trace) > 2
    assert res.phi_star == pytest.approx(math.e - 1.0, abs=1e-6)
    assert res.value_star == pytest.approx(1.0 / math.e, rel=1e-9)


def test_constraint_inactive_when_slack():
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=_benchmark_cfg(),
                              constraint=lambda x: x, level=0.5)
    assert res.phi_star == pytest.approx(math.e - 1.0, abs=1e-6)


def test_infeasible_interval_reported_not_raised():
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=DinkelbachConfig(lb=0.0, ub=1.0,
                                                   inner_tol=1e-9,
                                                   outer_tol=1e-10),
                              constraint=lambda x: x, level=2.0)
    assert not res.feasible
    assert math.isnan(res.phi_star)
    assert math.isnan(res.value_star)
    assert res.kappa_trace == (0.0,)


def test_decreasing_constraint_is_refused():
    """g(x) = -x >= -3 holds on [0, 3]: feasible first, infeasible after.

    The probe grid 0, 0.625, ..., 10 is feasible at 0 and first fails at
    3.125; the error names both instead of solving on the lower interval.
    """
    with pytest.raises(ValueError, match=r"x=0\.0 but not at x=3\.125"):
        dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                            cfg=_benchmark_cfg(),
                            constraint=lambda x: -x, level=-3.0)


def test_non_interval_constraint_is_refused():
    """sin(x) >= 0.5 holds on two disjoint pieces of [0, 10].

    The first feasible probe is 0.625 and the next infeasible one 3.125.
    """
    with pytest.raises(ValueError, match=r"x=0\.625 but not at x=3\.125"):
        dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                            cfg=_benchmark_cfg(),
                            constraint=math.sin, level=0.5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(log_boundary=st.floats(-2.0, 4.0), b=st.floats(0.5, 6.0),
       log_depth=st.floats(-4.0, math.log10(300.0 * math.log(10.0))),
       below=st.floats(0.01, 4.0), above=st.floats(0.01, 4.0),
       plateau=st.one_of(st.none(), st.floats(0.01, 1.0)))
def test_feasible_lower_end_finds_doubly_exponential_boundary(
        log_boundary, b, log_depth, below, above, plateau):
    """g(x) = exp(-a x^-b) has the shape of R_M in Phi and the closed-form
    boundary x* = (a / -ln level)^(1/b) of {g >= level}; levels run from
    1e-300 to 0.9999, so g underflows to 0 below the boundary and
    g - level is as small as 1e-300 near it.  When plateau is set, g is
    exactly 0 below x* 10^-(plateau below) as well.  The search returns a
    feasible point within 1e-11 of x*, with 17 probes and at most 40
    root-find evaluations."""
    x_star = 10.0 ** log_boundary
    depth = 10.0 ** log_depth  # -ln level
    level = math.exp(-depth)
    a = x_star ** b * depth
    lb = x_star / 10.0 ** below
    floor = lb if plateau is None else x_star / 10.0 ** (plateau * below)
    calls = 0

    def g(x):
        nonlocal calls
        calls += 1
        return math.exp(-a * x ** -b) if x >= floor else 0.0

    x = _feasible_lower_end(g, level, lb, x_star * 10.0 ** above)
    assert g(x) >= level
    assert x == pytest.approx(x_star, rel=1e-11)
    assert calls <= 17 + 40


def test_nonpositive_denominator_is_loud():
    with pytest.raises(ValueError, match="denominator"):
        dinkelbach_maximize(lambda x: 1.0, lambda x: -1.0,
                            cfg=DinkelbachConfig(lb=0.0, ub=1.0,
                                                 inner_tol=1e-6,
                                                 outer_tol=1e-8))


def test_config_validation():
    with pytest.raises(ValueError):
        DinkelbachConfig(lb=2.0, ub=1.0)
    with pytest.raises(ValueError):
        DinkelbachConfig(lb=-1.0, ub=1.0)
    with pytest.raises(ValueError):
        DinkelbachConfig(inner_tol=0.0)
    with pytest.raises(ValueError):
        DinkelbachConfig(max_outer_iters=0)


def test_exhaustion_flags_converged_false():
    cfg = DinkelbachConfig(lb=0.0, ub=10.0, inner_tol=1e-9, outer_tol=1e-16,
                           max_outer_iters=2)
    res = dinkelbach_maximize(lambda x: math.log1p(x), lambda x: 1.0 + x,
                              cfg=cfg)
    assert not res.converged
    assert res.feasible  # last iterate still reported
    assert len(res.kappa_trace) == 3  # initial kappa plus one per iteration
