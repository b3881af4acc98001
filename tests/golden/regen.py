"""Rewrite every golden CLI output in this directory from the current checkout.

    python tests/golden/regen.py

Each run in RUNS writes its output to `<name>.csv` (`<name>.txt` for the
validation report), and `exit_codes.json` records every run's exit code.
`tests/test_golden.py` reruns the same commands and compares them with
these files.  Regenerating changes test data: a change that reruns this
script lists the files it rewrote and the largest change in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"

# run name -> fasdep argv: the six analytic commands at their defaults, the
# quick self-check and every figure preset
RUNS: Dict[str, Tuple[str, ...]] = {
    "lcr": ("lcr",),
    "afd": ("afd",),
    "reliability": ("reliability",),
    "mec": ("mec",),
    "meee": ("meee",),
    "optimize": ("optimize",),
    "validate-quick": ("validate", "--preset", "quick"),
    **{f"fig{k}": ("figure", "--preset", f"fig{k}") for k in range(2, 8)},
}


def golden_path(name: str) -> Path:
    suffix = ".txt" if RUNS[name][0] == "validate" else ".csv"
    return GOLDEN_DIR / f"{name}{suffix}"


def run(name: str, out: Path) -> int:
    """Run one golden command with its output written to `out`."""
    from fasdep.cli import main
    return main([*RUNS[name], "--out", str(out)])


def regenerate() -> None:
    codes = {name: run(name, golden_path(name)) for name in RUNS}
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "src"))
    regenerate()
