"""Command-line interface: parsing, CSV contract, exit codes."""

import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fasdep
from fasdep import cli
from fasdep.cli import main
from fasdep.errors import NoCrossingError, QuadratureError, \
    SeriesTruncationError

CHEAP = ("--set", "channel.n_ports=2", "--set", "channel.aperture=0.5")


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _parse(out):
    """Split CSV text into (header dict, column names, rows of strings)."""
    header = {}
    lines = out.splitlines()
    i = 0
    while lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition(" = ")
        header[key] = val
        i += 1
    columns = lines[i].split(",")
    rows = [l.split(",") for l in lines[i + 1:] if l]
    return header, columns, rows


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------

def test_lcr_sweep_csv_shape(capsys):
    """Self-describing header, no duplicated threshold column."""
    code, out, err = _run(capsys, "lcr", "--sweep", "threshold:0.5:1.5:3",
                          *CHEAP)
    assert code == 0 and err == ""
    header, columns, rows = _parse(out)
    assert header["command"] == "lcr"
    assert header["sweep"] == "threshold:0.5:1.5:3:linear"
    assert header["channel.n_ports"] == "2"
    assert header["threshold_mode"] == "rho"
    assert header["rmax_mode"] == "derived"
    assert "run.threshold" not in header  # unset optionals stay out
    assert columns == ["threshold", "lcr", "nlcr"]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5]


def test_analytic_runs_are_byte_stable(capsys):
    argv = ("afd", "--sweep", "threshold:0.6:1.2:4") + CHEAP
    code, first, _ = _run(capsys, *argv)
    assert code == 0
    code, second, _ = _run(capsys, *argv)
    assert code == 0
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    argv = ("lcr", "--sweep", "threshold:1:1:1") + CHEAP
    code, piped, _ = _run(capsys, *argv)
    assert code == 0
    code, out, _ = _run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert out == ""  # redirected, nothing on stdout
    assert target.read_text() == piped


def test_db_sweep_reports_linear_phi(capsys):
    code, out, _ = _run(capsys, "mec", "--sweep", "phi:0:10:2:db", *CHEAP)
    assert code == 0
    _, columns, rows = _parse(out)
    assert columns[0] == "phi_db"
    phis = [float(r[columns.index("phi")]) for r in rows]
    assert phis == pytest.approx([1.0, 10.0], rel=1e-12)


# ---------------------------------------------------------------------------
# Invocation errors (exit 1)
# ---------------------------------------------------------------------------

def test_unknown_command_rejected(capsys):
    code, _, err = _run(capsys, "bogus")
    assert code == 1 and "fasdep:" in err


def test_sweep_variable_must_reach_command(capsys):
    code, _, err = _run(capsys, "lcr", "--sweep", "omega:0.9:0.99:3")
    assert code == 1
    assert "omega" in err and "threshold" in err  # names the usable set


@pytest.mark.parametrize("text", [
    "threshold:0.5:1.5",            # too few fields
    "volume:0:1:5",                 # unknown variable
    "phi:0:10:5:octave",            # unknown scale
    "threshold:0.5:1.5:5:db",       # dB reserved for phi
    "phi:0:10:0:db",                # empty grid
    "theta:0:1:5:log",              # log needs positive endpoints
])
def test_sweep_spec_errors(capsys, text):
    cmd = "mec" if text.startswith(("phi", "theta")) else "lcr"
    code, _, err = _run(capsys, cmd, "--sweep", text)
    assert code == 1 and err.startswith("fasdep:")


def test_linear_phi_sweep_prints_its_grid_once(capsys):
    """A linear phi grid reaches mec as is: one phi column, 7 stays 7."""
    code, out, _ = _run(capsys, "mec", "--sweep", "phi:1:10:4",
                        "--set", "channel.n_ports=2")
    assert code == 0
    _, columns, rows = _parse(out)
    assert columns == ["phi", "eta", "rho", "r_m", "mec"]
    assert [r[0] for r in rows] == ["1", "4", "7", "10"]


def test_linear_phi_sweep_needs_positive_endpoints(capsys):
    """A linear SNR of 0 has no dB value; the refusal points to :db."""
    code, _, err = _run(capsys, "mec", "--sweep", "phi:0:10:3")
    assert code == 1
    assert "phi" in err and ":db" in err


# endpoints at which each variable moves the results on CHEAP settings; the
# optimizer's reliability constraint binds at both ends of each optimize sweep
_SWEEP_ENDS = {
    "phi": "phi:0:10:2:db",
    "threshold": "threshold:0.5:1.5:2",
    "delta_t": "delta_t:1:10:2",
    "theta": "theta:0.05:1:2",
    "omega": "omega:0.9:0.9999:2",
    "aperture": "aperture:0.2:0.5:2",
    "doppler": "doppler:5:50:2",
}


@pytest.mark.parametrize("command,var", [
    (c, v) for c, (_, listed) in cli._COMMANDS.items() for v in listed])
def test_listed_sweep_variable_moves_a_result(capsys, command, var):
    """Every variable the command table lists reaches the computation."""
    code, out, err = _run(capsys, command, "--sweep", _SWEEP_ENDS[var],
                          *CHEAP, "--set", "sim.samples=2e5")
    assert code == 0, err
    _, columns, rows = _parse(out)
    # the sweep column and the linear phi echo of a dB sweep are not results
    results = [j for j, c in enumerate(columns) if c not in (columns[0], "phi")]
    assert len(rows) == 2 and results
    assert any(rows[0][j] != rows[1][j] for j in results)


@pytest.mark.parametrize("command,var", [
    (c, v) for c, (_, listed) in cli._COMMANDS.items()
    for v in cli._SWEEP_ATTRS if v not in listed])
def test_unlisted_sweep_variable_exits_1(capsys, command, var):
    code, out, err = _run(capsys, command, "--sweep", _SWEEP_ENDS[var],
                          *CHEAP)
    assert code == 1 and out == "" and err.startswith("fasdep:")


def test_preset_rules(capsys):
    assert _run(capsys, "figure")[0] == 1               # preset required
    assert _run(capsys, "figure", "--preset", "fig9")[0] == 1
    assert _run(capsys, "lcr", "--preset", "fig2")[0] == 1
    assert _run(capsys, "figure", "--preset", "fig4",
                "--sweep", "phi:0:1:2")[0] == 1
    assert _run(capsys, "validate", "--preset", "everything")[0] == 1
    assert _run(capsys, "validate", "--preset", "")[0] == 1


def test_seed_must_be_nonnegative(capsys):
    code, _, err = _run(capsys, "lcr", "--seed", "-1",
                        "--sweep", "threshold:1:1:1", *CHEAP)
    assert code == 1 and "seed" in err


# ---------------------------------------------------------------------------
# Config file and --set
# ---------------------------------------------------------------------------

def test_config_file_applies_and_set_wins(capsys, tmp_path):
    """--set overrides the file; both land in the output header."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference two-port geometry\n"
        "channel.n_ports = 2\n"
        "channel.aperture = 0.5   # half-wavelength span\n"
        "run.doppler = 25\n")
    code, out, _ = _run(capsys, "lcr", "--config", str(cfg),
                        "--sweep", "threshold:1:1:1",
                        "--set", "channel.aperture=0.4")
    assert code == 0
    header, _, _ = _parse(out)
    assert header["channel.n_ports"] == "2"
    assert header["channel.aperture"] == "0.4"
    assert header["run.doppler"] == "25.0"


def test_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("channel.n_ports = 2\nchannel.span = 0.5\n")
    code, _, err = _run(capsys, "lcr", "--config", str(bad))
    assert code == 1
    assert "bad.cfg:2" in err and "channel.span" in err

    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("channel.n_ports 2\n")
    assert _run(capsys, "lcr", "--config", str(noeq))[0] == 1

    code, _, err = _run(capsys, "lcr", "--config", str(tmp_path / "gone.cfg"))
    assert code == 1 and "gone.cfg" in err


@pytest.mark.parametrize("item", [
    "channel.n_ports",          # missing value
    "channel.span=0.5",         # unknown key
    "channel.n_ports=two",      # uncastable
])
def test_set_errors(capsys, item):
    code, _, err = _run(capsys, "lcr", "--set", item,
                        "--sweep", "threshold:1:1:1")
    assert code == 1 and err.startswith("fasdep:")


def test_domain_errors_exit_1(capsys):
    code, _, err = _run(capsys, "lcr", "--set", "channel.n_ports=0",
                        "--sweep", "threshold:1:1:1")
    assert code == 1 and "channel" in err


@pytest.mark.parametrize("exc", [
    QuadratureError("budget exhausted", 1.0, 0.5),
    SeriesTruncationError("budget exhausted"),
    NoCrossingError("budget exhausted"),
    OverflowError("budget exhausted"),
], ids=lambda e: type(e).__name__)
def test_numerical_failures_exit_2(capsys, monkeypatch, exc):
    def fail(spec):
        raise exc

    monkeypatch.setattr(cli, "_run_crossing", fail)
    code, out, err = _run(capsys, "lcr")
    assert code == 2 and out == ""
    assert err == "fasdep: numerical failure: budget exhausted\n"


# ---------------------------------------------------------------------------
# Mode flags
# ---------------------------------------------------------------------------

def test_threshold_mode_fixed_vs_tracking(capsys):
    """sqrt-eta pins the decision level; rho lets it fall with SNR."""
    argv = ("lcr", "--sweep", "phi:0:20:3:db") + CHEAP
    _, out, _ = _run(capsys, *argv)
    _, columns, rows = _parse(out)
    tracking = [float(r[columns.index("threshold")]) for r in rows]
    assert tracking[0] > tracking[1] > tracking[2]

    _, out, _ = _run(capsys, *argv, "--threshold-mode", "sqrt-eta")
    header, columns, rows = _parse(out)
    assert header["threshold_mode"] == "sqrt_eta"
    fixed = [float(r[columns.index("threshold")]) for r in rows]
    assert fixed[0] == fixed[1] == fixed[2] == pytest.approx(tracking[0])


def test_rmax_mode_paper(capsys):
    """Overshooting arrival cap is a domain error; tight QoS admits it."""
    argv = ("meee", "--rmax-mode", "paper", "--sweep", "phi:10:10:1:db")
    code, _, err = _run(capsys, *argv, *CHEAP)
    assert code == 1 and "arrival rate" in err

    code, out, _ = _run(capsys, *argv, *CHEAP, "--set", "qos.theta=10")
    assert code == 0
    header, columns, rows = _parse(out)
    assert header["rmax_mode"] == "paper"
    assert float(rows[0][columns.index("rmax")]) > 0.0


def test_afd_far_above_envelope_scale(capsys):
    """The crossing rate underflows to 0 at thresholds 20-60; the sweep
    must report a link that stays down, not die dividing by it."""
    code, out, _ = _run(capsys, "afd", "--sweep", "threshold:20:60:3")
    assert code == 0
    _, columns, rows = _parse(out)
    assert [r[columns.index("lcr")] for r in rows] == ["0"] * 3
    assert all(float(r[columns.index("afd")]) == math.inf for r in rows)
    assert all(float(r[columns.index("anfd")]) == 0.0 for r in rows)


# ---------------------------------------------------------------------------
# Mission commands
# ---------------------------------------------------------------------------

def test_reliability_far_below_envelope_scale(capsys):
    """At -45 and -40 dB the crossing rate underflows to 0 (threshold 58
    and 33 envelope units); the link is down, not fault-free."""
    code, out, _ = _run(capsys, "reliability", "--sweep", "phi:-45:-20:6:db")
    assert code == 0
    _, columns, rows = _parse(out)
    upsilon = [float(r[columns.index("upsilon")]) for r in rows]
    r_m = [float(r[columns.index("r_m")]) for r in rows]
    assert all(u > 0.0 for u in upsilon)
    assert upsilon[0] == math.inf and r_m[0] == 0.0
    assert all(b >= a for a, b in zip(r_m, r_m[1:]))


@pytest.mark.parametrize("command,warns", [
    ("reliability", False), ("mec", False), ("meee", True)])
def test_power_warning_only_where_power_is_printed(capsys, command, warns):
    """Below Phi = 0.15 the power model warns about idle drain; only the
    command that prints power passes that on."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = _run(capsys, command, "--sweep", "phi:-20:-10:3:db",
                          *CHEAP)
    assert code == 0
    power = [w for w in caught if issubclass(w.category, RuntimeWarning)
             and "idle power" in str(w.message)]
    assert len(power) == (3 if warns else 0)


# ---------------------------------------------------------------------------
# Optimize
# ---------------------------------------------------------------------------

def test_optimize_single_solve_shape(capsys):
    code, out, _ = _run(capsys, "optimize", *CHEAP)
    assert code == 0
    _, columns, rows = _parse(out)
    assert columns == ["phi_star", "phi_star_db", "meee_star",
                       "outer_iters", "feasible", "converged"]
    (row,) = rows
    phi_star = float(row[0])
    assert float(row[1]) == pytest.approx(10.0 * math.log10(phi_star))
    assert row[4] == "1" and row[5] == "1"
    assert int(row[3]) >= 1


def test_optimize_infeasible_exit_3(capsys):
    code, out, _ = _run(capsys, "optimize", *CHEAP,
                        "--set", "run.omega=0.999999999999",
                        "--set", "run.delta_t=1000")
    assert code == 3
    _, columns, rows = _parse(out)
    (row,) = rows
    assert math.isnan(float(row[columns.index("phi_star")]))
    assert row[columns.index("feasible")] == "0"


# ---------------------------------------------------------------------------
# Simulate
# ---------------------------------------------------------------------------

def test_simulate_seeded_and_reproducible(capsys):
    argv = ("simulate", "--set", "sim.samples=2e5", "--seed", "9") + CHEAP
    code, first, _ = _run(capsys, *argv)
    assert code == 0
    header, columns, rows = _parse(first)
    assert header["seed"] == "9"
    assert {"nlcr_analytic", "nlcr_sim", "crossings"} <= set(columns)
    assert len(rows) == 5  # default threshold grid

    code, second, _ = _run(capsys, *argv)
    assert first == second

    code, other, _ = _run(capsys, "simulate", "--set", "sim.samples=2e5",
                          "--seed", "10", *CHEAP)
    assert code == 0 and other != first


def test_simulate_dump_trace(capsys, tmp_path):
    path = tmp_path / "trace.txt"
    code, _, _ = _run(capsys, "simulate", "--set", "sim.samples=2e5",
                      "--dump-trace", str(path), *CHEAP)
    assert code == 0
    with open(path) as fh:
        assert fh.readline() == "# time port1 port2 best\n"
    data = np.loadtxt(path)
    assert data.shape == (4096, 4)  # dump is capped, not the full run
    assert np.all(data[:, 1:] >= 0.0)


def test_simulate_rejects_foreign_sweep(capsys):
    code, _, err = _run(capsys, "simulate", "--sweep", "delta_t:1:2:2")
    assert code == 1 and "simulate" in err


# ---------------------------------------------------------------------------
# Figure and validate presets
# ---------------------------------------------------------------------------

def test_figure_fig4_trends(capsys):
    """Mission reliability falls with duration, rises with ports/aperture."""
    code, out, _ = _run(capsys, "figure", "--preset", "fig4")
    assert code == 0
    header, columns, rows = _parse(out)
    assert header["preset"] == "fig4"
    assert columns == ["delta_t", "rm_n2w025", "rm_n2w05", "rm_n4w025",
                       "rm_n4w05"]
    assert len(rows) == 20
    grid = np.array([[float(v) for v in r] for r in rows])
    for j in range(1, 5):
        assert np.all(np.diff(grid[:, j]) < 0.0)
    assert np.all(grid[:, 3] > grid[:, 1])  # more ports help
    assert np.all(grid[:, 2] > grid[:, 1])  # wider aperture helps


def test_figure_presets_honour_threshold_mode(capsys):
    """fig2's N=2 curve in sqrt-eta mode is `meee` at the same point."""
    mode = ("--threshold-mode", "sqrt-eta")
    code, out, _ = _run(capsys, "figure", "--preset", "fig2", *mode)
    assert code == 0
    _, columns, rows = _parse(out)
    (fig,) = [r for r in rows if float(r[0]) == 10.0]
    code, out, _ = _run(capsys, "meee", "--sweep", "phi:10:10:1:db",
                        "--set", "channel.n_ports=2", *mode)
    assert code == 0
    _, meee_columns, (row,) = _parse(out)
    assert fig[columns.index("meee_n2")] == row[meee_columns.index("meee")]


def test_validate_quick_reports_all_pass(capsys):
    code, out, _ = _run(capsys, "validate", "--preset", "quick")
    assert code == 0
    lines = out.splitlines()
    checks = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(checks) == 9
    assert all(l.startswith("PASS") for l in checks)
    assert lines[-1] == "overall: 9/9 passed"


def test_validate_is_default_preset(capsys):
    code, out, _ = _run(capsys, "validate")
    assert code == 0
    assert out.splitlines()[0] == "validation preset: quick"


def test_validate_failing_check_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_validate_checks", lambda preset, seed: iter(
        [("always-fails", False, "forced failure")]))
    code, out, _ = _run(capsys, "validate")
    assert code == cli.EXIT_CHECK_FAILED != 0
    assert out.splitlines()[-1] == "overall: 0/1 passed"


# ---------------------------------------------------------------------------
# Installed entry point
# ---------------------------------------------------------------------------

def test_console_entry_point():
    """The declared console-script target works as the installed command.

    Replays what the wrapper generated at install time does -- import the
    target and exit with its return value -- in a fresh interpreter, with
    the directory this suite imported `fasdep` from on PYTHONPATH, so the
    check needs no install.
    """
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fasdep"]
    module, _, attr = target.partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    root = str(Path(fasdep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, "lcr", "--sweep", "threshold:1:1:1",
         *CHEAP],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# command = lcr")


@pytest.mark.skipif(shutil.which("fasdep") is None,
                    reason="fasdep console script not installed on PATH")
def test_installed_console_script():
    proc = subprocess.run(
        ["fasdep", "lcr", "--sweep", "threshold:1:1:1", *CHEAP],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# command = lcr")
