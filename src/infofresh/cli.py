"""Command-line surface: curves, solving, sweeps, traces, and oracle checks.

Subcommands emit CSV (to --out or stdout) with floats fixed at 12
significant digits, so reruns are byte-identical.  Exit codes: 0 success,
1 configuration/validation error, 2 runtime or model error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence

from .analytic import (
    BudgetExceeded,
    brute_force_optimum,
    random_instances,
    zero_wait_average,
)
from .config import ConfigError, ExperimentConfig
from .simulator import (
    SequenceExhausted,
    Threshold,
    Uniform,
    ZeroWait,
    _fmt,
    age_histogram,
    average_over_seeds,
    replay,
    simulate,
)
from .solver import ThresholdUnreachable, cycle_stats, solve_beta, solve_mi
from .sources import BinarySymmetric, GaussianAR1, NegatedMI, mutual_information

ORACLE_MATCH_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    # usage errors are validation errors under the exit-code contract
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="infofresh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, solver_flags: bool = False, sim_flags: bool = False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", metavar="PATH", help="INI experiment config")
        p.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
        p.add_argument("--plot-script", action="store_true", help="also write <out>.plot.py")
        if solver_flags:
            p.add_argument("--tol", type=float, help="solver convergence guard override")
            p.add_argument("--zmax", type=int, help="wait cap override")
        if sim_flags:
            p.add_argument("--seeds", type=int, metavar="N", help="use seeds 0..N-1")
            p.add_argument("--horizon", type=int, help="simulation horizon override")
        p.set_defaults(func=func)
        return p

    add("mi-curve", cmd_mi_curve, "information-vs-age curve of a source")
    add("solve", cmd_solve, "optimal threshold and waits", solver_flags=True)
    add("sweep", cmd_sweep, "policy comparison over a source-parameter grid",
        solver_flags=True, sim_flags=True)
    add("trace", cmd_trace, "per-step event log of one simulated run", solver_flags=True)
    add("oracle-check", cmd_oracle_check, "solver vs exhaustive-enumeration check",
        solver_flags=True)
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.out:
        cfg.out_path = args.out
    if getattr(args, "tol", None) is not None:
        cfg.tol = args.tol
    if getattr(args, "zmax", None) is not None:
        cfg.z_max = args.zmax
    if getattr(args, "seeds", None) is not None:
        cfg.seeds = tuple(range(args.seeds))
    if getattr(args, "horizon", None) is not None:
        cfg.horizon = args.horizon
    cfg.check()
    if args.plot_script and not cfg.out_path:
        raise ConfigError("--plot-script needs an output path (--out or [output] path)")
    return cfg


@contextlib.contextmanager
def _open_out(cfg: ExperimentConfig):
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as f:
            yield f
    else:
        yield sys.stdout


def _maybe_plot_script(args: argparse.Namespace, cfg: ExperimentConfig, kind: str) -> None:
    if not args.plot_script:
        return
    path = cfg.out_path + ".plot.py"
    with open(path, "w", encoding="utf-8") as f:
        f.write(_PLOT_TEMPLATES[kind].format(csv=os.path.basename(cfg.out_path)))


# ----------------------------------------------------------------------
# subcommands

def cmd_mi_curve(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    model = cfg.build_source()
    with _open_out(cfg) as f:
        f.write("delta,mi_bits\n")
        # scalar on purpose: metric_table moves the 12th printed digit of some rows
        for d in range(cfg.delta_max + 1):
            f.write(f"{d},{_fmt(mutual_information(model, d))}\n")
    _maybe_plot_script(args, cfg, "mi-curve")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dist = cfg.build_service()
    penalty = cfg.build_penalty()
    if cfg.penalty_kind == "negated-mi":
        res = solve_mi(cfg.build_source(), dist, cfg.tol, cfg.z_max)
        problem = "max-info"
        achieved = -cycle_stats(penalty, dist, res.waiting).ratio
    else:
        res = solve_beta(penalty, dist, cfg.tol, cfg.z_max)
        problem = "min-penalty"
        achieved = cycle_stats(penalty, dist, res.waiting).ratio
    with _open_out(cfg) as f:
        f.write(f"problem,{problem}\n")
        f.write(f"beta,{_fmt(res.beta)}\n")
        f.write(f"h_residual,{_fmt(res.h_residual)}\n")
        f.write(f"iterations,{res.iterations}\n")
        for y in dist.support:
            f.write(f"z[{y}],{res.waiting[y]}\n")
    print(f"{problem}: beta = {_fmt(res.beta)} "
          f"(achieved average {_fmt(achieved)}, |h| = {abs(res.h_residual):.3g}, "
          f"{res.iterations} Dinkelbach steps)", file=sys.stderr)
    print("waits: " + ", ".join(f"Z({y}) = {res.waiting[y]}" for y in dist.support),
          file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    cfg.validate_sweep()
    dist = cfg.build_service()
    period = cfg.sweep_period(dist)
    do_opt = "optimal" in cfg.policies
    do_zw = "zero-wait" in cfg.policies
    do_uni = "uniform" in cfg.policies

    hists = []
    if do_uni:
        hists = [age_histogram(Uniform(period), dist, cfg.horizon, seed, cfg.delta0)
                 for seed in cfg.seeds]

    def model_at(g: float):
        if cfg.sweep_variable == "q":
            return BinarySymmetric(q=g)
        return GaussianAR1(a=g)

    rows = [f"{cfg.sweep_variable},i_opt,i_zero_wait,i_uniform_mean,i_uniform_stderr\n"]
    for g in cfg.sweep_grid:
        model = model_at(g)
        i_opt = _fmt(solve_mi(model, dist, cfg.tol, cfg.z_max).beta) if do_opt else ""
        i_zw = _fmt(-zero_wait_average(NegatedMI(model), dist)) if do_zw else ""
        i_uni, i_se = (map(_fmt, average_over_seeds(hists, model, cfg.horizon))
                       if do_uni else ("", ""))
        rows.append(f"{_fmt(g)},{i_opt},{i_zw},{i_uni},{i_se}\n")
    with _open_out(cfg) as f:
        f.writelines(rows)
    _maybe_plot_script(args, cfg, "sweep")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dist = cfg.build_service()
    if cfg.trace_policy == "threshold":
        penalty = cfg.build_penalty()
        policy = Threshold(waiting=solve_beta(penalty, dist, cfg.tol, cfg.z_max).waiting)
    elif cfg.trace_policy == "zero-wait":
        policy = ZeroWait()
    elif cfg.trace_policy == "uniform":
        policy = Uniform(period=cfg.sweep_period(dist))
    else:
        raise ConfigError(
            f"[trace] policy must be threshold, zero-wait, or uniform, got {cfg.trace_policy!r}"
        )
    metric = cfg.build_source() if cfg.source_kind else cfg.build_penalty()
    if cfg.forced_services is not None:
        trace, _ = replay(policy, metric, dist, cfg.forced_services, cfg.trace_horizon, cfg.delta0)
    elif cfg.trace_seed is not None:
        trace, _ = simulate(policy, metric, dist, cfg.trace_horizon, cfg.trace_seed, cfg.delta0)
    else:
        raise ConfigError("[trace] needs either forced_services or seed")
    with _open_out(cfg) as f:
        trace.write_csv(f)
    _maybe_plot_script(args, cfg, "trace")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    instances = random_instances(cfg.oracle_instances, cfg.oracle_seed)
    worst_dev = -1.0
    worst_line = ""
    for i, (penalty, dist) in enumerate(instances):
        res = solve_beta(penalty, dist, cfg.tol, cfg.z_max)
        oracle = brute_force_optimum(penalty, dist, cfg.oracle_z_cap)
        beta_dev = abs(res.beta - oracle.best_ratio)
        ratio_dev = abs(cycle_stats(penalty, dist, res.waiting).ratio - oracle.best_ratio)
        dev = max(beta_dev, ratio_dev)
        line = (f"instance {i:2d}: beta = {_fmt(res.beta)}, oracle = {_fmt(oracle.best_ratio)}, "
                f"|beta dev| = {beta_dev:.3g}, |ratio dev| = {ratio_dev:.3g} "
                f"({oracle.enumerated} candidates)")
        print(line)
        if dev > worst_dev:
            worst_dev, worst_line = dev, line
    ok = worst_dev <= ORACLE_MATCH_TOL
    print(f"{'PASS' if ok else 'FAIL'}: max deviation {worst_dev:.3g} over "
          f"{len(instances)} instances (tolerance {ORACLE_MATCH_TOL:g})")
    if not ok:
        print("worst: " + worst_line)
    return 0 if ok else 2


# ----------------------------------------------------------------------

_PLOT_TEMPLATES = {
    "mi-curve": '''\
"""Plot the information-vs-age curve from {csv}."""
import csv
import matplotlib.pyplot as plt

deltas, mis = [], []
with open("{csv}") as f:
    for row in csv.DictReader(f):
        deltas.append(int(row["delta"]))
        mis.append(float(row["mi_bits"]))
plt.step(deltas, mis, where="post")
plt.xlabel("age (steps)")
plt.ylabel("information (bits)")
plt.tight_layout()
plt.savefig("{csv}.png", dpi=150)
''',
    "sweep": '''\
"""Plot the policy comparison from {csv}."""
import csv
import matplotlib.pyplot as plt

rows = []
with open("{csv}") as f:
    reader = csv.reader(f)
    header = next(reader)
    rows = [[float(x) if x else None for x in row] for row in reader]
xs = [r[0] for r in rows]
for col, label in ((1, "optimal"), (2, "zero-wait"), (3, "uniform")):
    ys = [r[col] for r in rows]
    if any(v is not None for v in ys):
        plt.plot(xs, ys, marker="o", label=label)
plt.xlabel(header[0])
plt.ylabel("time-average information (bits)")
plt.legend()
plt.tight_layout()
plt.savefig("{csv}.png", dpi=150)
''',
    "trace": '''\
"""Plot the age sample path from {csv}."""
import csv
import matplotlib.pyplot as plt

ns, deltas = [], []
with open("{csv}") as f:
    for row in csv.DictReader(f):
        ns.append(int(row["n"]))
        deltas.append(int(row["delta"]))
plt.step(ns, deltas, where="post")
plt.xlabel("time step")
plt.ylabel("age (steps)")
plt.tight_layout()
plt.savefig("{csv}.png", dpi=150)
''',
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"infofresh: error: {exc}", file=sys.stderr)
        return 1
    except ThresholdUnreachable as exc:
        print(f"infofresh: error: {exc}", file=sys.stderr)
        print("hint: the optimal waits do not fit under z_max; raise z_max (--zmax or "
              "[solver] z_max) until they do", file=sys.stderr)
        return 2
    except (SequenceExhausted, BudgetExceeded, RuntimeError) as exc:
        print(f"infofresh: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
