"""Golden outputs: the default analytic commands, the quick self-check and
every figure preset reproduce the files in tests/golden/ and their exit
codes.

Header lines, column names and row counts must match exactly.  Values
may move by 1e-13 relative: the Marcum kernel's weight-table product is
a BLAS call, whose summation order can change the last bits.
"""

import difflib
import json
import math
import re

import pytest

from golden import regen

RTOL = 1e-13

# fig3's Monte Carlo columns must match exactly.  The seed fixes every
# sample, and a crossing count only moves if a sample lies within rounding
# of a threshold, so a same-seed rerun prints the same count.  A 99.9 %
# Poisson interval would allow +-3.4 % at the largest count here (about
# 9,100 crossings) and more than the count itself at the smallest (5): it
# would pass a biased synthesis.  Checking the statistics against theory
# is the job of test_mcsim and test_acceptance.
EXACT_PREFIX = "nlcr_sim_"

# validate prints residuals of the form 1.23e-14; below 1e-12 their digits
# are rounding noise, and each line's verdict already holds them to their bar
_RESIDUAL = re.compile(r"\d\.\d+e[-+]\d+")

REGEN_HINT = ("If the change is intended, rerun "
              "`python tests/golden/regen.py` and list the rewritten files "
              "and the largest change in CHANGES.md.")


def _split(text):
    """(the header lines through the column line, rows of strings)"""
    lines = text.splitlines()
    n = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    return lines[:n + 1], [line.split(",") for line in lines[n + 1:]]


def _rel_change(got, want):
    if got == want:
        return 0.0
    a, b = float(got), float(want)
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _mask_residuals(text):
    return _RESIDUAL.sub(
        lambda m: "<1e-12" if float(m.group()) < 1e-12 else m.group(), text)


def _diff(got, want):
    return "\n".join(difflib.unified_diff(
        want, got, "golden", "this checkout", lineterm=""))


@pytest.mark.parametrize("name", list(regen.RUNS))
def test_output_matches_golden(golden_run, name):
    code, got, _ = golden_run(name)
    want = regen.golden_path(name).read_text()
    codes = json.loads(regen.EXIT_CODES.read_text())
    assert code == codes[name], f"{name} exited {code}, golden {codes[name]}"

    if name.startswith("validate"):
        got, want = _mask_residuals(got), _mask_residuals(want)
        if got != want:
            pytest.fail(f"{name} report moved:\n"
                        f"{_diff(got.splitlines(), want.splitlines())}\n"
                        f"{REGEN_HINT}")
        return

    head_got, rows_got = _split(got)
    head_want, rows_want = _split(want)
    if head_got != head_want:
        pytest.fail(f"{name} header moved:\n{_diff(head_got, head_want)}\n"
                    f"{REGEN_HINT}")
    assert len(rows_got) == len(rows_want), f"{name}: row count moved"

    columns = head_want[-1].split(",")
    worst = {col: max(_rel_change(g[j], w[j])
                      for g, w in zip(rows_got, rows_want))
             for j, col in enumerate(columns)}
    bound = {col: 0.0 if col.startswith(EXACT_PREFIX) else RTOL
             for col in columns}
    if any(worst[col] > bound[col] for col in columns):
        changes = "\n".join(f"  {col}: {worst[col]:.3g} (bound {bound[col]:g})"
                            for col in columns)
        pytest.fail(f"{name} values moved; largest relative change per "
                    f"column:\n{changes}\n{REGEN_HINT}")
