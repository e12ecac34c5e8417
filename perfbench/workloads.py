"""The three benchmark workloads: the commands one pass runs and the checks on their output.

Each pass runs whole CLI commands, the way a user does, and each workload
checks every output of every pass.  A pass is one closed-loop request: the
next one starts only after this one and its checks finish.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

ORACLE_TOL = 1e-8
# The CLI prints floats with 12 significant digits; a value read back from
# a CSV can differ from the computed one by half a unit in the 12th digit.
FMT_REL = 5e-12
TRACE_METRIC_REL = 1e-12


@dataclass
class Outcome:
    """What one pass did and whether its outputs were right."""

    ops: int = 0
    failed: int = 0
    solves: int = 0
    csv_rows: int = 0
    csv_bytes: int = 0
    sim_steps: int = 0
    known_failures: dict = field(default_factory=dict)  # label -> exception class
    max_dev: float = 0.0
    problems: list = field(default_factory=list)

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)


@dataclass
class CommandRun:
    error: BaseException | None
    stdout: str


class Workload:
    """Base: subclasses list their commands and check what they produced."""

    name = ""

    def __init__(self, root: Path, out_dir: Path, seed: int, cli):
        self.root = root
        self.out = out_dir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.cli = cli

    def config_paths(self) -> list[Path]:
        """Configs whose parse and build make up this workload's set-up."""
        raise NotImplementedError

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, runs: dict[str, CommandRun]) -> Outcome:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        return []

    def run_pass(self, tracer=None) -> tuple[float, dict[str, CommandRun]]:
        """Run the pass's commands; returns wall seconds and each command's result."""
        for path in self.outputs():
            path.unlink(missing_ok=True)
        runs = {}
        start = time.perf_counter()
        for label, argv in self.commands():
            runs[label] = self._run_command(argv, tracer)
        return time.perf_counter() - start, runs

    def _run_command(self, argv, tracer):
        # What cli.main does, minus its translation of exceptions into exit
        # codes, so a failure keeps its class.
        def command():
            args = self.cli._build_parser().parse_args(argv)
            return args.func(args)

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    code = command()
                else:
                    code = tracer.call("cli." + argv[0], command)
            except Exception as exc:  # recorded and counted by the check
                return CommandRun(exc, stdout.getvalue())
        if code != 0:
            return CommandRun(RuntimeError(f"exit code {code}"), stdout.getvalue())
        return CommandRun(None, stdout.getvalue())

    def _read_csv(self, outcome, path):
        """The bytes of an output CSV, counted into ``outcome``."""
        data = path.read_bytes()
        outcome.csv_rows += data.count(b"\n")
        outcome.csv_bytes += len(data)
        return data


def _close(got, want, abs_tol):
    return abs(got - want) <= abs_tol + FMT_REL * abs(want)


class SweepQ(Workload):
    """``sweep`` on the checked-in policy comparison, checked against a reference
    CSV captured before any optimisation, to the solver tolerance."""

    name = "sweep-q"

    def __init__(self, *args):
        super().__init__(*args)
        self.config = self.root / "configs" / "policy_comparison.ini"
        self.csv = self.out / "sweep.csv"
        self.reference = Path(__file__).parent / "reference" / "sweep_q.csv"
        cfg = self.cli.ExperimentConfig.from_file(str(self.config))
        self.tol = cfg.tol
        self.steps = cfg.horizon * len(cfg.seeds)

    def config_paths(self):
        return [self.config]

    def outputs(self):
        return [self.csv]

    def commands(self):
        return [("sweep", ["sweep", "--config", str(self.config), "--out", str(self.csv)])]

    def check(self, runs):
        out = Outcome(ops=1)
        run = runs["sweep"]
        if run.error is not None:
            out.fail(f"sweep raised {type(run.error).__name__}: {run.error}")
            return out
        got = list(csv.reader(io.StringIO(self._read_csv(out, self.csv).decode("utf-8"))))
        want = list(csv.reader(self.reference.open(encoding="utf-8")))
        if got[:1] != want[:1] or len(got) != len(want):
            out.fail(f"sweep CSV has header {got[:1]} and {len(got)} lines, "
                     f"reference {want[:1]} and {len(want)}")
            return out
        for row_got, row_want in zip(got[1:], want[1:]):
            ok = len(row_got) == len(row_want) and row_got[0] == row_want[0]
            for g, w in zip(row_got[1:], row_want[1:]):
                ok = ok and (g == w or (g != "" and w != "" and _close(float(g), float(w), self.tol)))
            if not ok:
                out.fail(f"sweep row {row_got} differs from reference {row_want}")
                return out
        out.solves = sum(1 for row in got[1:] if row[1] != "")
        out.sim_steps = self.steps
        return out


class SolveStress(Workload):
    """``solve`` on four named stress instances, then ``oracle-check``."""

    name = "solve-stress"
    STRESS = ("gauss50", "affine500", "longwait", "capbound")
    # The cap-bound instance's optimum fits under its z_max, yet the solver
    # raises ThresholdUnreachable on it.  That known defect is recorded in
    # solver.failures; any other failure of it is counted as failed.
    KNOWN = {"capbound": "ThresholdUnreachable"}

    def __init__(self, *args):
        super().__init__(*args)
        here = Path(__file__).parent / "configs"
        self.configs = {label: here / f"stress_{label}.ini" for label in self.STRESS}
        self.oracle_config = here / "oracle.ini"
        self.problems = {}
        for label, path in self.configs.items():
            cfg = self.cli.ExperimentConfig.from_file(str(path))
            self.problems[label] = (cfg.build_penalty(), cfg.build_service(), cfg.tol,
                                    cfg.penalty_kind == "negated-mi")
        self.oracle_instances = self.cli.ExperimentConfig.from_file(
            str(self.oracle_config)).oracle_instances

    def config_paths(self):
        return [*self.configs.values(), self.oracle_config]

    def outputs(self):
        return [self.out / f"{label}.csv" for label in self.STRESS]

    def commands(self):
        cmds = [(label, ["solve", "--config", str(path), "--out", str(self.out / f"{label}.csv")])
                for label, path in self.configs.items()]
        return cmds + [("oracle", ["oracle-check", "--config", str(self.oracle_config)])]

    def check(self, runs):
        from infofresh.solver import cycle_stats

        out = Outcome()
        betas = {}
        for label in self.STRESS:
            out.ops += 1
            run = runs[label]
            if run.error is not None:
                kind = type(run.error).__name__
                if self.KNOWN.get(label) == kind:
                    out.known_failures[label] = kind
                else:
                    out.fail(f"{label}: {kind}: {run.error}")
                continue
            text = self._read_csv(out, self.out / f"{label}.csv").decode("utf-8")
            penalty, dist, tol, maximize = self.problems[label]
            try:
                rows = dict(line.split(",", 1) for line in text.splitlines())
                waits = {y: int(rows[f"z[{y}]"]) for y in dist.support}
                beta = float(rows["beta"])
            except (KeyError, ValueError) as exc:
                out.fail(f"{label}: malformed solve CSV ({exc})")
                continue
            ratio = cycle_stats(penalty, dist, waits).ratio
            if maximize:
                ratio = -ratio
            if not _close(beta, ratio, tol):
                out.fail(f"{label}: beta {beta!r} but its waits average {ratio!r}")
                continue
            betas[label] = beta
            out.solves += 1
        # The cap-bound instance shares its optimum with the long-wait one.
        if "capbound" in betas and "longwait" in betas and not _close(
                betas["capbound"], betas["longwait"], 2 * self.problems["longwait"][2]):
            out.fail(f"capbound: beta {betas['capbound']!r}, long-wait optimum {betas['longwait']!r}")
        self._check_oracle(runs["oracle"], out)
        return out

    _LINE = re.compile(r"instance +(\d+): beta = (\S+), oracle = (\S+), "
                       r"\|beta dev\| = (\S+), \|ratio dev\| = (\S+) ")

    def _check_oracle(self, run, out):
        n = self.oracle_instances
        out.ops += n
        if run.error is not None:
            for _ in range(n):
                out.fail(f"oracle-check: {type(run.error).__name__}: {run.error}")
            return
        seen = 0
        for line in run.stdout.splitlines():
            m = self._LINE.match(line)
            if m is None:
                continue
            seen += 1
            beta, oracle, beta_dev, ratio_dev = (float(x) for x in m.groups()[1:])
            dev = max(beta_dev, ratio_dev)
            out.max_dev = max(out.max_dev, dev)
            if dev > ORACLE_TOL or not _close(beta, oracle, ORACLE_TOL):
                out.fail(f"oracle-check: {line}")
            else:
                out.solves += 1
        for _ in range(n - seen):
            out.fail(f"oracle-check printed {seen} instance lines, expected {n}")


class TraceLong(Workload):
    """``trace`` of the threshold policy on a seeded service path, checked
    against an independent per-step replay of the same queue."""

    name = "trace-long"

    def __init__(self, *args):
        super().__init__(*args)
        parser = configparser.ConfigParser()
        parser.read(Path(__file__).parent / "configs" / "trace_long.ini")
        parser["trace"]["seed"] = str(self.seed)
        self.config = self.out / f"trace_long_seed{self.seed}.ini"
        with self.config.open("w", encoding="utf-8") as f:
            parser.write(f)
        self.horizon = self.cli.ExperimentConfig.from_file(str(self.config)).trace_horizon
        self.csv = self.out / "trace.csv"
        self.digest = None  # sha256 of an output that passed the full check

    def config_paths(self):
        return [self.config]

    def outputs(self):
        return [self.csv]

    def commands(self):
        return [("trace", ["trace", "--config", str(self.config), "--out", str(self.csv)])]

    def check(self, runs):
        out = Outcome(ops=1)
        run = runs["trace"]
        if run.error is not None:
            out.fail(f"trace raised {type(run.error).__name__}: {run.error}")
            return out
        digest = hashlib.sha256(self._read_csv(out, self.csv)).hexdigest()
        if digest != self.digest:
            problem = self._check_against_replay()
            if problem:
                out.fail(problem)
                return out
            self.digest = digest
        out.solves = 1
        out.sim_steps = self.horizon
        return out

    def _check_against_replay(self):
        with self.csv.open(encoding="utf-8", newline="") as f:
            header = f.readline().rstrip("\n")
            if header != "n,delta,metric,queue_len,event":
                return f"trace CSV header {header!r}"
            rows = 0
            for line, (n, delta, metric, queue, events) in zip(f, self._replay()):
                rows += 1
                fields = line.rstrip("\n").split(",")
                if (len(fields) != 5 or fields[0] != str(n) or fields[1] != str(delta)
                        or fields[3] != str(queue) or fields[4] != events):
                    return f"trace row {line!r} differs from replay {(n, delta, queue, events)}"
                got = float(fields[2])
                if abs(got - metric) > (TRACE_METRIC_REL + FMT_REL) * abs(metric):
                    return f"trace row {n}: metric {got!r}, replay {metric!r}"
            rows += sum(1 for _ in f)
        if rows != self.horizon + 1:
            return f"trace CSV has {rows} rows after its header, expected {self.horizon + 1}"
        return None

    def _replay(self):
        """Yield rows (n, age, metric, queue length, events) for n = 0..horizon.

        Service times are inverse-CDF draws on successive PCG64 uniforms of
        the trace seed.  The waits come from the exhaustive oracle, not the
        solver under test.
        """
        import numpy as np
        from infofresh.analytic import brute_force_optimum

        cfg = self.cli.ExperimentConfig.from_file(str(self.config))
        dist, q, delta0, horizon = cfg.build_service(), cfg.source_q, cfg.delta0, self.horizon
        waits = brute_force_optimum(cfg.build_penalty(), dist, cfg.oracle_z_cap).best_waiting
        rng = np.random.Generator(np.random.PCG64(cfg.trace_seed))
        ys = np.asarray(dist.support)[np.minimum(
            np.searchsorted(np.cumsum(dist.probs), rng.random(horizon // dist.y_min + 2),
                            side="right"), len(dist.support) - 1)].tolist()

        # Sample i is generated at gens[i] and starts service at once: the
        # policy waits after each delivery, so the queue stays empty.
        gens, dels = [], []
        gen = 0
        for y in ys:
            if gen > horizon:
                break
            gens.append(gen)
            dels.append(gen + y)
            gen += y + waits[y]

        def info(delta):  # 1 - h((1 - t) / 2) bits for t = (1 - 2q)^delta
            t = (1.0 - 2.0 * q) ** delta
            return ((1.0 - t) * math.log1p(-t) + (1.0 + t) * math.log1p(t)) / (2.0 * math.log(2.0))

        owner, kd, kg = -delta0, 0, 0
        for n in range(horizon + 1):
            tokens = []
            if kd < len(dels) and dels[kd] == n:
                owner = gens[kd]
                kd += 1
                tokens.append(f"deliver:{kd}")
            if kg < len(gens) and gens[kg] == n:
                kg += 1
                tokens.append(f"gen:{kg}|start:{kg}")
            delta = delta0 if n == 0 else n - owner
            yield n, delta, info(delta), 0, "|".join(tokens)


WORKLOADS = {w.name: w for w in (SweepQ, SolveStress, TraceLong)}
