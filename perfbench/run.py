"""Benchmark of the infofresh command line: end-to-end and per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-q --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the checkout it sits in, runs the
workload's commands in one process and one thread, checks every output,
and prints one JSON result as its last line: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
The line before it records the environment and the figures the result
has no room for.  ``--quick`` makes one pass and one set-up probe, for
the benchmark's own tests.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SERIAL_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKERS_ENV = "INFOFRESH_WORKERS"
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
PROBLEMS_SHOWN = 5
# The speed of a shared machine drifts by tens of percent over seconds.
# Every timed interval is divided by the mean of a fixed calibration loop
# timed just before and just after it, then multiplied by this nominal
# duration of the loop, so times read as seconds at one reference speed.
CALIBRATION_S = 0.035

# Import, config parse and object build, timed in a fresh interpreter.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import infofresh.cli
from infofresh.config import ExperimentConfig
for path in sys.argv[2:]:
    cfg = ExperimentConfig.from_file(path)
    if cfg.service is not None:
        cfg.build_service()
    if cfg.source_kind is not None or cfg.penalty_kind != "negated-mi":
        cfg.build_penalty()
    if cfg.sweep_variable is not None:
        cfg.validate_sweep()
print(repr(time.perf_counter() - start))
"""


def _pin_serial():
    for var in SERIAL_ENV:
        os.environ[var] = "1"
    os.environ.pop(WORKERS_ENV, None)


def _import_package():
    """Import infofresh from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "infofresh" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no infofresh package under {src}")
    sys.path.insert(0, str(src))
    import infofresh
    from infofresh import analytic, cli, config, service, simulator, solver, sources

    if Path(infofresh.__file__).resolve().parent != (src / "infofresh").resolve():
        raise SystemExit(f"perfbench: imported infofresh from {infofresh.__file__}, not {src}")
    return {"analytic": analytic, "cli": cli, "config": config, "service": service,
            "simulator": simulator, "solver": solver, "sources": sources}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        WORKERS_ENV: os.environ.get(WORKERS_ENV),
        **{var: os.environ.get(var) for var in SERIAL_ENV},
    }


def _metric_curve(delta):
    t = 0.9 ** delta
    return ((1.0 - t) * math.log1p(-t) + (1.0 + t) * math.log1p(t)) / (2.0 * math.log(2.0))


def _calibration_loop():
    """Fixed work in the program's proportions: scalar Python metric calls,
    numpy passes over arrays, and CSV-style string formatting."""
    import numpy as np

    total = 0.0
    for n in range(1, 2000):
        total += math.fsum(0.25 * _metric_curve(n + y) for y in (1, 2, 3, 4))
    steps = np.arange(150_000, dtype=np.int64) % 7 + 1
    ends = np.cumsum(steps)
    np.bincount(ends % 4096)
    np.searchsorted(ends, steps * 1000)
    lines = [f"{n},{n % 11},{format(n / 7, '.12g')},0," for n in range(15_000)]
    return total, len("\n".join(lines))


def _loop_seconds():
    start = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - start


def _calibrated(measure):
    """Run ``measure()`` between two calibration loops.

    Returns its result and the factor that scales seconds measured in
    between to the reference speed.
    """
    before = _loop_seconds()
    result = measure()
    return result, 2.0 * CALIBRATION_S / (before + _loop_seconds())


def _setup_seconds(paths, probes):
    """Median set-up time over fresh interpreters, after one untimed probe."""
    argv = [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), *map(str, paths)]

    def probe():
        done = subprocess.run(argv, cwd=ROOT, env=os.environ, capture_output=True,
                              text=True, timeout=60, check=True)
        return float(done.stdout.split()[-1])

    probe()
    return statistics.median(seconds * factor for seconds, factor in
                             (_calibrated(probe) for _ in range(probes)))


def _tail(walls):
    """Highest percentile with TAIL_BEYOND samples beyond it, and its percentile."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _rate(passes, key):
    return statistics.median(getattr(o, key) / wall for wall, _, o in passes)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of each kind and one set-up probe")
    args = parser.parse_args(argv)

    _pin_serial()
    pkg = _import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    environment = _environment()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, OUT_DIR, args.seed, pkg["cli"])

    setup_s = None
    if not args.trace:
        setup_s = _setup_seconds(workload.config_paths(), 1 if args.quick else SETUP_PROBES)

    tracer = Tracer(pkg) if args.trace else None
    outcomes = []
    untraced, traced = [], []  # (calibrated wall, raw wall, outcome) of timed passes
    layers = []  # per-layer figures of each traced pass

    def one_pass(trace_id=None):
        gc.collect()
        active = tracer if trace_id is not None else None
        if active:
            active.install(trace_id)
        try:
            (raw, runs), factor = _calibrated(lambda: workload.run_pass(active))
        finally:
            if active:
                active.remove()
        outcome = workload.check(runs)
        outcomes.append(outcome)
        if active:
            figures = {name: value * factor if name.endswith("_s") else value
                       for name, value in active.layer_metrics(trace_id).items()}
            figures.update({"cli.rows": outcome.csv_rows, "cli.bytes": outcome.csv_bytes,
                            "analytic.max_dev": outcome.max_dev})
            layers.append(figures)
        return raw * factor, raw, outcome

    if not args.quick:
        one_pass()  # warm-up: lazy imports, allocator, page cache
    deadline = time.perf_counter() + (0.0 if args.quick else args.seconds)
    while True:
        if tracer is None or len(untraced) <= len(traced):
            untraced.append(one_pass())
        else:
            traced.append(one_pass(trace_id=len(traced)))
        if time.perf_counter() >= deadline and untraced and (tracer is None or traced):
            break

    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    known = Counter(f"{label}: {kind}" for o in outcomes for label, kind in o.known_failures.items())
    walls = [wall for wall, _, _ in untraced]
    tail, percentile = _tail(walls)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment,
        "passes": len(walls),
        "raw_wall_s": statistics.median(raw for _, raw, _ in untraced),
        "wall_tail_percentile": percentile,
        "sim_steps_per_s": _rate(untraced, "sim_steps"),
        "error_rate": (failed + sum(known.values())) / attempted,
        "known_failures": known,
        "problems": [p for o in outcomes for p in o.problems][:PROBLEMS_SHOWN],
    }

    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "wall_tail_s": _metric(tail, "s"),
            "solves_per_s": _metric(_rate(untraced, "solves"), "1/s"),
            "csv_rows_per_s": _metric(_rate(untraced, "csv_rows"), "1/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {name: _metric(statistics.median(f[name] for f in layers), _unit(name))
                   for name in layers[0]}
        overhead = statistics.median(w for w, _, _ in traced) / statistics.median(walls) - 1.0
        metrics["tracing.overhead"] = _metric(100.0 * overhead, "%")
        report["traced_passes"] = len(traced)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")

    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes":
        return "bytes"
    if name == "analytic.max_dev":
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
