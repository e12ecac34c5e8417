"""Command-line surface: curves, solving, sweeps, traces, and oracle checks.

Subcommands emit CSV (to --out or stdout) with floats fixed at 12
significant digits, so reruns are byte-identical.  Exit codes: 0 success,
1 configuration/validation error, 2 runtime or model error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import os
import stat
import sys
from dataclasses import fields
from typing import Sequence

from .analytic import BudgetExceeded, brute_force_optimum, random_instances
from .config import ConfigError, ExperimentConfig
from .simulator import (
    SequenceExhausted,
    Uniform,
    _fmt,
    age_histogram,
    average_over_seeds,
    trace_chunks,
    write_trace,
)
from .solver import cycle_stats, solve_beta, zero_waiting
from .sources import NegatedMI, scalar_metric

ORACLE_MATCH_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    # usage errors are validation errors under the exit-code contract
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The one command-line parser, built on the first call and returned by every later
    one.

    ``main`` may run many commands in one process, and building argparse's parser and
    its five subparsers costs about 1 ms, a third or more of a small ``solve``.  Reuse
    is safe: ``parse_args`` does not change the parser, and usage and errors go to the
    ``sys.stderr`` of the moment.  Each subcommand's ``cmd_*`` function is bound at that
    first build.  Importing this module builds nothing, so an import that runs no
    command pays nothing.  ``perfbench/workloads.py`` calls this function by this name
    with no arguments, once per command.
    """
    parser = _Parser(prog="infofresh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # (flag, the config field it sets as that field's INI key would, help)
    solver_flags = (("--zmax", "z_max", "wait cap override"),)
    sim_flags = (("--seeds", "seeds", "seed count N (0..N-1) or a list, as [sim] seeds"),
                 ("--horizon", "horizon", "simulation horizon override"))

    def add(name: str, cmd, help_: str, flags=()):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", metavar="PATH", help="INI experiment config")
        p.add_argument("--out", dest="out_path", metavar="PATH",
                       help="output path (default stdout)")
        if name in _PLOTS:
            p.add_argument("--plot-script", action="store_true", help="also write <out>.plot.py")
        for flag, dest, help_ in flags:
            p.add_argument(flag, dest=dest, help=help_)
        p.set_defaults(func=functools.partial(_run, cmd, name))

    add("mi-curve", cmd_mi_curve, "information-vs-age curve of a source")
    add("solve", cmd_solve, "optimal threshold and waits", solver_flags)
    add("sweep", cmd_sweep, "policy comparison over a source-parameter grid",
        solver_flags + sim_flags)
    add("trace", cmd_trace, "per-step event log of one simulated run", solver_flags)
    add("oracle-check", cmd_oracle_check, "solver vs exhaustive-enumeration check",
        solver_flags)
    return parser


def _run(cmd, name: str, args: argparse.Namespace) -> int:
    """Load the config, each value checked as it is set, run ``cmd`` on it, then write
    the plot script."""
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for f in fields(cfg):
        if getattr(args, f.name, None) is not None:
            cfg.set_text(f.name, getattr(args, f.name))
    plot = getattr(args, "plot_script", False)
    if plot and not cfg.out_path:
        raise ConfigError("--plot-script needs an output path (--out or [output] path)")
    if cfg.out_path:
        _check_out(cfg.out_path)
    code = cmd(cfg)
    if plot:
        with _open_out(cfg.out_path + ".plot.py") as f:
            f.write(_PLOT_TEMPLATE.format(name=name, csv=os.path.basename(cfg.out_path),
                                          **_PLOTS[name]))
    return code


def _check_out(path: str) -> None:
    """Fail before the run on an output path that can never be opened: one whose
    directory is missing or is not a directory, or one naming a directory.  Nothing is
    created; other open failures, such as permissions, come when ``_create`` opens it."""
    try:
        in_a_directory = stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise _cannot_write(path, exc.strerror) from exc
    if not in_a_directory:
        raise _cannot_write(path, os.strerror(errno.ENOTDIR))
    if os.path.isdir(path):
        raise _cannot_write(path, os.strerror(errno.EISDIR))


def _create(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _cannot_write(path, exc.strerror or exc) from exc


def _cannot_write(path: str, reason) -> ConfigError:
    return ConfigError(f"cannot write output {path}: {reason}")


@contextlib.contextmanager
def _open_out(path: str | None):
    """The file at ``path``, or stdout if None.  A failed write is a runtime error naming
    the output, except that a BrokenPipeError (stdout's reader hung up) is left to ``main``."""
    try:
        if path:
            with _create(path) as f:
                yield f
        else:
            yield sys.stdout
            sys.stdout.flush()  # a reader that hung up fails here, inside the command, not at exit
    except OSError as exc:
        if not path:  # fd 1 goes to devnull, so the flush at exit cannot fail on what it holds
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise RuntimeError(f"cannot write output {path or 'standard output'}: {exc.strerror}") from exc


def _note_cap(z_max: int, ys: Sequence[int], where: str = "") -> None:
    if ys:  # the service times whose wait the cap cut
        print(f"infofresh: note: the wait cap [solver] z_max = {z_max} binds after service time "
              f"{', '.join(map(str, ys))}{where}: results are the capped optimum", file=sys.stderr)


# ----------------------------------------------------------------------
# subcommands

def cmd_mi_curve(cfg: ExperimentConfig) -> int:
    model = cfg.build_source()
    with _open_out(cfg.out_path) as f:
        f.write("delta,mi_bits\n")
        # scalar: metric_table's numpy log1p moves the 12th printed digit of some rows
        info = scalar_metric(model)
        for d in range(cfg.delta_max + 1):
            f.write(f"{d},{_fmt(info(d))}\n")
    return 0


def cmd_solve(cfg: ExperimentConfig) -> int:
    dist = cfg.build_service()
    penalty = cfg.build_penalty()
    # the information problem is solved as the penalty problem on -I
    problem, sign = ("max-info", -1) if cfg.penalty_kind == "negated-mi" else ("min-penalty", 1)
    res = solve_beta(penalty, dist, cfg.z_max)
    beta = sign * res.beta
    with _open_out(cfg.out_path) as f:
        f.write(f"problem,{problem}\n")
        f.write(f"beta,{_fmt(beta)}\n")
        f.write(f"h_residual,{_fmt(res.h_residual)}\n")
        f.write(f"iterations,{res.iterations}\n")
        for y in dist.support:
            f.write(f"z[{y}],{res.waiting[y]}\n")
    print(f"{problem}: beta = {_fmt(beta)} (|h| = {abs(res.h_residual):.3g}, "
          f"{res.iterations} Dinkelbach steps)", file=sys.stderr)
    print("waits: " + ", ".join(f"Z({y}) = {res.waiting[y]}" for y in dist.support),
          file=sys.stderr)
    _note_cap(cfg.z_max, res.capped)
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    models = cfg.validate_sweep()
    dist = cfg.build_service()
    period = cfg.sweep_period(dist)
    hists = [age_histogram(Uniform(period), dist, cfg.horizon, seed) for seed in cfg.seeds]

    rows = [f"{cfg.sweep_variable},i_opt,i_zero_wait,i_uniform_mean,i_uniform_stderr\n"]
    cut = {}  # grid value -> the service times whose wait the cap cut there
    for g, model in zip(cfg.sweep_grid, models):
        info = NegatedMI(model)  # the information columns solve the penalty problem on -I
        res = solve_beta(info, dist, cfg.z_max)
        cut[g] = res.capped
        i_zw = -cycle_stats(info, dist, zero_waiting(dist)).ratio
        i_uni, i_se = average_over_seeds(hists, model, cfg.horizon)
        rows.append(",".join(map(_fmt, (g, -res.beta, i_zw, i_uni, i_se))) + "\n")
    with _open_out(cfg.out_path) as f:
        f.writelines(rows)
    _note_cap(cfg.z_max, sorted(set().union(*cut.values())),
              f" at {cfg.sweep_variable} = {', '.join(_fmt(g) for g in cut if cut[g])}")
    if dist.mean() >= period and period < dist.y_max:  # else no sample ever waits
        print(f"infofresh: note: the uniform queue is unstable at load E[Y] / [sweep] "
              f"uniform_period = {_fmt(dist.mean())} / {period} >= 1: its wait has no steady "
              f"state, so the uniform column depends on the horizon", file=sys.stderr)
    return 0


def cmd_trace(cfg: ExperimentConfig) -> int:
    if cfg.forced_services is None and cfg.trace_seed is None:
        raise ConfigError("[trace] needs either forced_services or seed")
    if cfg.forced_services is not None and cfg.trace_seed is not None:
        raise ConfigError("[trace] forced_services and seed exclude each other; set one")
    dist = cfg.build_service()
    if cfg.trace_policy == "threshold":
        res = solve_beta(cfg.build_penalty(), dist, cfg.z_max)
        _note_cap(cfg.z_max, res.capped)
        policy = res.waiting
    elif cfg.trace_policy == "zero-wait":
        policy = zero_waiting(dist)
    else:
        policy = Uniform(period=cfg.sweep_period(dist))
    metric = cfg.build_source() if cfg.source_kind else cfg.build_penalty()
    chunks = trace_chunks(policy, metric, dist, cfg.trace_horizon, cfg.trace_seed,
                          cfg.forced_services)
    # the first chunk checks the run, and trips any backlog guard, before any output
    chunks = itertools.chain([next(chunks)], chunks)
    with _open_out(cfg.out_path) as f:
        f.flush()  # text written before goes first: the bytes bypass the text layer
        write_trace(f.buffer, chunks)
    return 0


def cmd_oracle_check(cfg: ExperimentConfig) -> int:
    instances = random_instances(cfg.oracle_instances, cfg.oracle_seed)
    # a solve capped at z_max is checked against the waits it may choose from
    z_cap = cfg.oracle_z_cap if cfg.z_max is None else min(cfg.oracle_z_cap, cfg.z_max)
    devs, lines = [], []
    for i, (penalty, dist) in enumerate(instances):
        res = solve_beta(penalty, dist, cfg.z_max)
        oracle = brute_force_optimum(penalty, dist, z_cap)
        beta_dev = abs(res.beta - oracle.best_ratio)
        ratio_dev = abs(cycle_stats(penalty, dist, res.waiting).ratio - oracle.best_ratio)
        devs.append(max(beta_dev, ratio_dev))
        lines.append(f"instance {i:2d}: beta = {_fmt(res.beta)}, "
                     f"oracle = {_fmt(oracle.best_ratio)}, |beta dev| = {beta_dev:.3g}, "
                     f"|ratio dev| = {ratio_dev:.3g} ({oracle.enumerated} candidates)")
    worst = max(range(len(devs)), key=devs.__getitem__)
    ok = devs[worst] <= ORACLE_MATCH_TOL
    lines.append(f"{'PASS' if ok else 'FAIL'}: max deviation {devs[worst]:.3g} over "
                 f"{len(instances)} instances (tolerance {ORACLE_MATCH_TOL:g})")
    if not ok:
        lines.append("worst: " + lines[worst])
    with _open_out(cfg.out_path) as f:
        f.writelines(line + "\n" for line in lines)
    return 0 if ok else 2


# ----------------------------------------------------------------------

# subcommand -> its plot script's fields: (CSV column, legend label) series drawn against
# column 0; the pyplot call and style; the x label as an expression; the y label
_PLOTS = {
    "mi-curve": dict(series=((1, None),), call="step", style='where="post"',
                     xlabel='"age (steps)"', ylabel="information (bits)"),
    "sweep": dict(series=((1, "optimal"), (2, "zero-wait"), (3, "uniform")), call="plot",
                  style='marker="o"', xlabel="header[0]",
                  ylabel="time-average information (bits)"),
    "trace": dict(series=((1, None),), call="step", style='where="post"',
                  xlabel='"time step"', ylabel="age (steps)"),
}

_PLOT_TEMPLATE = '''\
"""Plot {csv}, written by `infofresh {name}`."""
import csv
import os
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))  # the CSV sits beside this script
series = {series}  # (CSV column, legend label), each against column 0
with open(os.path.join(here, "{csv}")) as f:
    reader = csv.reader(f)
    header = next(reader)
    columns = list(zip(*reader))
xs = [float(x) for x in columns[0]]
for col, label in series:
    plt.{call}(xs, [float(y) for y in columns[col]], {style}, label=label)
plt.xlabel({xlabel})
plt.ylabel({ylabel!r})
if any(label for _, label in series):
    plt.legend()
plt.tight_layout()
plt.savefig(os.path.join(here, "{csv}.png"), dpi=150)
'''


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on a usage error (1) and after --help (0)
        return exc.code
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"infofresh: error: {exc}", file=sys.stderr)
        return 1
    except (SequenceExhausted, BudgetExceeded, RuntimeError) as exc:
        print(f"infofresh: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader hung up, and _open_out sent fd 1 to devnull
        return 2


if __name__ == "__main__":
    sys.exit(main())
