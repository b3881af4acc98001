"""The benchmark's per-layer tracer still finds the names it wraps.

perfbench/tracer.py patches fasdep attributes by name and only warns when
one is missing, which silently zeroes the metrics built on it.  Pinning
the missing set here makes a rename in src/ fail loudly instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# hooks whose targets no longer exist: the Chebyshev factor cache and fit
# (gone with the surrogate) and levelcross's max_cdf (levelcross now reads
# max_cdf_and_survival)
STALE_HOOKS = {
    "fasdep.levelcross._threshold_factors",
    "None._fit_cheb",
    "fasdep.levelcross.max_cdf",
}


def test_tracer_hooks_resolve():
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps(tracer.missing))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True)
    assert set(json.loads(out.stdout)) == STALE_HOOKS


def test_benchmark_finds_the_marcum_table_memo():
    """perfbench/run.py clears every lru_cache it finds in fasdep's modules
    before each operation, so each one starts cold.  The Marcum table memo
    must be among them: a memo the rule cannot find (a plain dict, say)
    would carry warm tables from one operation into the next."""
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}]\n"
        "import run\n"
        "run._import_fasdep()\n"
        "print(json.dumps([f'{c.__module__}.{c.__qualname__}'\n"
        "                  for c in run._fasdep_caches()]))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True)
    assert "fasdep.specfun._mixture_tables" in json.loads(out.stdout)
