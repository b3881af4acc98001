"""fasdep benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mission-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fasdep is imported from ``src/``.
An untraced run (--trace 0) measures set-up time, then calls fasdep in
whole rounds of the workload until --seconds of operation time have
passed, checks the outputs and prints the end-to-end metrics.  A traced run
(--trace 1) installs the per-layer wrappers of tracer.py, performs the
workload's fixed number of rounds, checks the outputs and prints the
per-layer metrics.  The last line of standard output is the JSON result;
the raw run (per-operation latencies, check details, span totals) is
written to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the benchmark is a single-threaded baseline, and
# the setting must be in the environment before numpy is first imported.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("mission-sweep", "optimize-figures", "mc-scan")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import fasdep, build the inputs and exit")
    return parser.parse_args(argv)


def _import_fasdep():
    if not (SRC / "fasdep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fasdep sources at {SRC}; "
                 "run from the root of a fasdep checkout")
    sys.path.insert(0, str(SRC))
    import fasdep

    if Path(fasdep.__file__).resolve().parent != SRC / "fasdep":
        sys.exit(f"perfbench: imported fasdep from {fasdep.__file__}, "
                 f"not from {SRC}")


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that import and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, wait() polls at up to 50 ms intervals and
        # the measured time snaps to the next poll
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _fasdep_caches():
    """Every lru_cache of fasdep's modules, cleared before each call."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("fasdep.") and mod is not None:
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _measure(wl, seconds, rounds):
    """Run whole rounds; stop after `rounds`, or once `seconds` have passed.

    Digests are taken out of the busy time, so only fasdep's calls count.
    """
    caches = _fasdep_caches()
    latencies, records, round_rates = [], [], []
    attempted = failed = 0
    busy = 0.0
    r = 0
    while rounds is None or r < rounds:
        if rounds is None and r >= wl.min_rounds and busy >= seconds:
            break
        done, t_round = 0, 0.0
        for op in wl.round(r):
            for cache in caches:
                cache.cache_clear()
            attempted += op.n_ops
            t0 = perf_counter()
            try:
                lats, result = wl.execute(op)
            except Exception:  # an operation that fails is counted, not fatal
                traceback.print_exc()
                failed += op.n_ops
                continue
            finally:
                t_round += perf_counter() - t0
            records.append((r, op, wl.digest(op, result)))
            latencies.extend(lats)
            done += len(lats)
            del result
        busy += t_round
        round_rates.append(done / t_round)
        r += 1
    return dict(latencies=latencies, records=records, attempted=attempted,
                failed=failed, busy=busy, rounds=r, round_rates=round_rates)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_fasdep()
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed).round(0)
        return 0

    setup_s = None if args.trace else _setup_seconds(args)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed)
    run = _measure(wl, args.seconds, wl.trace_rounds if args.trace else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer_metrics = tracer.metrics() if tracer is not None else None

    from checks import CHECKS

    checks = []
    try:
        for name, ok, detail in CHECKS[args.workload](wl, run["records"],
                                                      args.seed):
            checks.append((name, bool(ok), detail))
    except Exception as exc:  # a check that cannot run counts as failed
        traceback.print_exc()
        checks.append(("checks-completed", False, repr(exc)))
    correct = all(ok for _, ok, _ in checks)
    lat = run["latencies"]
    done = len(lat)
    if tracer is not None:
        metrics = layer_metrics
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(run["round_rates"]), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[-1], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"BLAS/OpenMP threads {THREADS}")
    print(f"{run['rounds']} rounds, {done} operations in {run['busy']:.3f} s "
          f"of operation time, {run['failed']} failed")
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:30s} {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")

    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    raw = dict(result, workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, threads=THREADS,
               rounds=run["rounds"], busy_s=run["busy"],
               round_ops_per_s=run["round_rates"], latencies_s=lat,
               checks=[{"name": n, "passed": ok, "detail": d}
                       for n, ok, d in checks])
    if tracer is not None:
        raw.update(span_calls=dict(tracer.calls),
                   span_seconds=dict(tracer.seconds),
                   layer_self_s=dict(tracer.self_s),
                   counts=dict(tracer.counts), untraced=tracer.missing,
                   ops_per_s_traced=statistics.median(run["round_rates"]))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(raw, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
