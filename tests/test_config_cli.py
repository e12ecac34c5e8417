"""Configuration parsing and the CLI contract (schemas, determinism, exits)."""

import contextlib
import csv
import errno
import hashlib
import io
import os
import re
import runpy
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infofresh.cli as cli
import infofresh.simulator as simulator
from infofresh.cli import main
from infofresh.config import (
    GRID_POINTS_MAX,
    ORACLE_INSTANCES_MAX,
    SEED_COUNT_MAX,
    ConfigError,
    ExperimentConfig,
    round_half_up,
)
from infofresh.analytic import brute_force_optimum
from infofresh.simulator import Uniform, _fmt, age_histogram
from infofresh.solver import cycle_stats, solve_beta
from infofresh.sources import (
    Affine,
    BinarySymmetric,
    NegatedMI,
    scalar_metric,
)
from reference import slack
from runs import CONFIGS, GOLDEN_TRACES, cli_child, run_cli, write

SWEEP_INI = """\
[service]
dist = 1:0.5, 11:0.5

[sim]
horizon = 20000
seeds = 4

[sweep]
variable = q
grid = 0.1:0.5:0.2
uniform_period = 6
"""

SOLVE_INI = """\
[source]
kind = binary
q = 0.05

[service]
dist = 1:0.5, 5:0.5
"""

# A rare 3000-step service: the optimal wait after a 1-step service is 91.
HEAVY_INI = """\
[penalty]
kind = affine
slope = 1.0

[service]
dist = 1:0.999, 3000:0.001
"""

TRACE_INI = SOLVE_INI + """
[trace]
policy = threshold
forced_services = 1,1,5,5,1,1,5
horizon = 22
"""


class TestConfig:
    def test_grid_stepped_form(self):
        cfg = ExperimentConfig.from_ini("[sweep]\nvariable = q\ngrid = 0.02:0.50:0.02\n")
        assert len(cfg.sweep_grid) == 25
        assert cfg.sweep_grid[0] == 0.02
        assert cfg.sweep_grid[-1] == 0.5

    # the steps stop at the stop: 0.1:0.4:0.2 once swept q = 0.5, and 0.5:0.9:0.25 a = 1
    @pytest.mark.parametrize("raw, grid", [
        ("0.1:0.4:0.2", (0.1, 0.3)),
        ("0.5:0.9:0.25", (0.5, 0.75)),
        ("0:0.5:0.25", (0.0, 0.25, 0.5)),
        ("0.1:0.1:0.2", (0.1,)),
    ])
    def test_grid_stepped_form_stops_at_stop(self, raw, grid):
        assert ExperimentConfig.from_ini(f"[sweep]\ngrid = {raw}\n").sweep_grid == grid

    def test_grid_list_form(self):
        cfg = ExperimentConfig.from_ini("[sweep]\ngrid = 0.1, 0.2, 0.4\n")
        assert cfg.sweep_grid == (0.1, 0.2, 0.4)

    def test_seeds_count_and_list(self):
        assert ExperimentConfig.from_ini("[sim]\nseeds = 3\n").seeds == (0, 1, 2)
        assert ExperimentConfig.from_ini("[sim]\nseeds = 5, 9\n").seeds == (5, 9)

    def test_counts_at_their_bounds(self):
        cfg = ExperimentConfig.from_ini(f"[sim]\nseeds = {SEED_COUNT_MAX}\n\n"
                                        f"[oracle]\ninstances = {ORACLE_INSTANCES_MAX}\n")
        assert cfg.seeds == tuple(range(SEED_COUNT_MAX))
        assert cfg.oracle_instances == ORACLE_INSTANCES_MAX

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            ExperimentConfig.from_ini("[service]\ntypo = 1\n")
        # the solver stops only when its waits repeat, so it has no tolerance to set
        with pytest.raises(ConfigError, match=r"^unknown config field \[solver\] tol$"):
            ExperimentConfig.from_ini("[solver]\ntol = 1e-10\n")
        assert "tol" not in {f.name for f in fields(ExperimentConfig)}
        # the AR(1) information curve depends only on a, so there is no noise variance
        with pytest.raises(ConfigError, match=r"unknown config field \[source\] sigma2"):
            ExperimentConfig.from_ini("[source]\nkind = gaussian\na = 0.8\nsigma2 = 2.0\n")

    def test_each_key_names_one_field(self):
        spots = [f.metadata["ini"][:2] for f in fields(ExperimentConfig)]
        assert len(set(spots)) == len(spots)

    def test_empty_service_list(self):
        with pytest.raises(ConfigError, match=r"^\[service\] dist must list at least one "
                                              r"y:prob pair, got \(\)$"):
            ExperimentConfig.from_ini("[service]\ndist = ,\n")

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_grid_step_must_be_positive(self, step):
        with pytest.raises(ConfigError, match=r"^\[sweep\] grid: grid step must be positive, got "):
            ExperimentConfig.from_ini(f"[sweep]\ngrid = 0.1:0.5:{step}\n")

    # these gave Python's unpacking and int-conversion messages, which named no form
    @pytest.mark.parametrize("raw", ["0.1:0.5", "0.1:0.5:0.1:2", "nan:1:0.1", "0:inf:0.1",
                                     "0:1:nan"])
    def test_grid_range_needs_three_finite_numbers(self, raw):
        message = f"[sweep] grid: a range is start:stop:step with finite numbers, got '{raw}'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_ini(f"[sweep]\ngrid = {raw}\n")

    # the first overflowed to "cannot convert float infinity to integer"; the second built
    # its 100,001 points, and nothing stopped a range of any length
    @pytest.mark.parametrize("raw, points", [("0:1e300:1e-300", "inf"), ("0:1:0.00001", "100001")])
    def test_grid_range_point_count_is_capped(self, raw, points):
        message = (f"[sweep] grid: a range start:stop:step holds at most {GRID_POINTS_MAX} "
                   f"points, got '{raw}' with {points} points")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_ini(f"[sweep]\ngrid = {raw}\n")

    def test_grid_range_at_the_cap_and_below_its_start(self):
        cfg = ExperimentConfig.from_ini(f"[sweep]\ngrid = 1:{GRID_POINTS_MAX}:1\n")
        assert len(cfg.sweep_grid) == GRID_POINTS_MAX
        # (stop - start) / step overflows to -inf: no points, not an overflow message
        with pytest.raises(ConfigError, match=r"^\[sweep\] grid must be non-empty"):
            ExperimentConfig.from_ini("[sweep]\ngrid = 1e308:-1e308:1\n")

    def test_bad_service_pair(self):
        with pytest.raises(ConfigError, match=r"\[service\] dist"):
            ExperimentConfig.from_ini("[service]\ndist = 1;0.5\n")

    def test_build_service_validates(self):
        cfg = ExperimentConfig.from_ini("[service]\ndist = 0:1.0\n")
        with pytest.raises(ConfigError, match="integers >= 1"):
            cfg.build_service()

    def test_build_service_names_duplicate_point(self):
        cfg = ExperimentConfig.from_ini("[service]\ndist = 1:0.5, 1:0.5\n")
        with pytest.raises(ConfigError, match=r"\[service\] dist: .*1 is listed more than once"):
            cfg.build_service()

    def test_build_source_requires_kind_params(self):
        with pytest.raises(ConfigError, match="kind is required"):
            ExperimentConfig().build_source()
        with pytest.raises(ConfigError, match="q is required"):
            ExperimentConfig.from_ini("[source]\nkind = binary\n").build_source()
        with pytest.raises(ConfigError, match="kind must be"):
            ExperimentConfig.from_ini("[source]\nkind = brownian\n").build_source()

    def test_build_penalty_kinds(self):
        cfg = ExperimentConfig.from_ini(
            "[penalty]\nkind = affine\nslope = 2.0\nintercept = 1.0\n"
        )
        from infofresh.sources import Affine

        assert cfg.build_penalty() == Affine(slope=2.0, intercept=1.0)
        with pytest.raises(ConfigError, match="kind must be"):
            ExperimentConfig.from_ini("[penalty]\nkind = cubic\n").build_penalty()

    def test_validate_sweep(self):
        with pytest.raises(ConfigError, match="variable"):
            ExperimentConfig.from_ini("[sweep]\ngrid = 0.1\n").validate_sweep()
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_ini("[sweep]\nvariable = q\n").validate_sweep()
        with pytest.raises(ConfigError, match="increasing"):
            ExperimentConfig.from_ini(
                "[sweep]\nvariable = q\ngrid = 0.3, 0.2\n"
            ).validate_sweep()
        ok = "[sweep]\nvariable = q\ngrid = 0.1, 0.2\n"
        for ini, key in [
            (ok + "uniform_period = 0\n", r"\[sweep\] uniform_period must be >= 1, got 0"),
            (ok + "uniform_period = 10000001\n",
             r"\[sweep\] uniform_period must be <= 10000000, got 10000001"),
            (ok + "[sim]\nhorizon = 0\n", r"\[sim\] horizon must be >= 1, got 0"),
            (ok + "[solver]\nz_max = 0\n", r"\[solver\] z_max must be >= 1, got 0"),
        ]:
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_ini(ini).validate_sweep()
        cfg = ExperimentConfig.from_ini(ok)
        with pytest.raises(ConfigError, match=r"\[sim\] horizon must be >= 1, got -5"):
            cfg.horizon = -5  # set in code: refused as it is set, as --horizon -5 is
        # the boundary values are valid
        ExperimentConfig.from_ini(
            ok + "uniform_period = 1\n[sim]\nhorizon = 1\n[solver]\nz_max = 1\n"
        ).validate_sweep()

    def test_kind_names_checked_when_read(self):
        for section, key, value, names in [
            ("source", "kind", "brownian", "binary, gaussian, or tabulated"),
            ("penalty", "kind", "cubic", "negated-mi, affine, or table"),
            ("trace", "policy", "lazy", "threshold, zero-wait, or uniform"),
            ("sweep", "variable", "b", "q or a"),
        ]:
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig.from_ini(f"[{section}]\n{key} = {value}\n")
            assert str(exc.value) == f"[{section}] {key} must be {names}, got {value!r}"
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError, match=r"^\[trace\] policy must be .*, got 'lazy'$"):
            cfg.trace_policy = "lazy"  # set in code: refused as it is set

    def test_undecodable_config_names_its_path(self, tmp_path, capsys):
        # the UnicodeDecodeError once reached main bare, and its line named no file
        path = tmp_path / "c.ini"
        path.write_bytes(b"[source]\nkind = binary\nq = \xff\n")
        with pytest.raises(UnicodeDecodeError) as reason:
            path.read_bytes().decode("utf-8")
        assert main(["mi-curve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"infofresh: error: cannot read config {path}: {reason.value}\n"
        assert captured.out == ""

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            ExperimentConfig.from_ini("not an ini at all\n")

    def test_round_half_up(self):
        assert round_half_up(6.0) == 6
        assert round_half_up(5.5) == 6
        assert round_half_up(6.5) == 7
        assert round_half_up(6.4) == 6


class TestCli:
    def test_mi_curve_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = gaussian\na = 0.9\n\n[curve]\ndelta_max = 2\n")
        assert main(["mi-curve", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "delta,mi_bits"
        assert lines[1] == "0,inf"  # infinite information at age zero
        assert lines[2].startswith("1,")

    def test_mi_curve_iid_binary_all_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = binary\nq = 0.5\n\n[curve]\ndelta_max = 4\n")
        main(["mi-curve", "--config", cfg])
        rows = capsys.readouterr().out.splitlines()[2:]
        assert all(r.endswith(",0") for r in rows)

    def test_solve_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.ini", SOLVE_INI)
        assert main(["solve", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        fields = dict(line.split(",", 1) for line in out)
        assert fields["problem"] == "max-info"
        assert float(fields["beta"]) == pytest.approx(0.3530929888, abs=1e-8)
        assert fields["z[1]"] == "1"
        assert fields["z[5]"] == "0"
        assert abs(float(fields["h_residual"])) < 1e-9

    def test_solve_optimum_under_cap(self, tmp_path, capsys):
        cfg = write(tmp_path, "h.ini", HEAVY_INI)
        assert main(["solve", "--config", cfg, "--zmax", "300"]) == 0
        fields = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
        assert fields["problem"] == "min-penalty"
        assert float(fields["beta"]) == pytest.approx(95.4592983942, abs=1e-9)
        assert fields["z[1]"] == "91"

    def test_solve_binding_cap_notes_it_and_exits_0(self, tmp_path, capsys):
        # the optimal wait after a 1-step service, 91, does not fit under 50
        cfg = write(tmp_path, "h.ini", HEAVY_INI)
        assert main(["solve", "--config", cfg, "--zmax", "50"]) == 0
        captured = capsys.readouterr()
        fields = dict(line.split(",", 1) for line in captured.out.splitlines())
        assert float(fields["beta"]) == pytest.approx(110.993105544125, abs=1e-8)
        assert (fields["z[1]"], fields["z[3000]"]) == ("50", "0")
        assert captured.err.splitlines()[-1] == (
            "infofresh: note: the wait cap [solver] z_max = 50 binds after service time 1: "
            "results are the capped optimum")

    def test_solve_default_is_the_uncapped_optimum(self, tmp_path, capsys):
        # unset, [solver] z_max caps no wait, however long: here the optimal wait
        # after a 1-step service is 16568
        ini = HEAVY_INI.replace("1:0.999, 3000:0.001", "1:0.5, 40000:0.5")
        assert main(["solve", "--config", write(tmp_path, "c.ini", ini)]) == 0
        captured = capsys.readouterr()
        assert {"beta,36568.5424968", "z[1],16568"} <= set(captured.out.splitlines())
        assert "infofresh: note:" not in captured.err
        # beta is the root of the slack over every wait up to the tables' edge
        dist = ExperimentConfig.from_ini(ini).build_service()
        beta = solve_beta(Affine(1.0), dist).beta
        assert abs(slack(Affine(1.0), dist, beta, 2 * dist.y_max - dist.y_min)) <= 1e-9 * beta

    def test_solve_cap_past_int64_is_the_uncapped_optimum(self, tmp_path, capsys):
        ini = write(tmp_path, "c.ini", HEAVY_INI.replace("1:0.999, 3000:0.001", "1:0.5, 40000:0.5"))
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", ini, "--out", str(out)]) == 0
        uncapped = (out.read_bytes(), capsys.readouterr())
        assert main(["solve", "--config", ini, "--out", str(out),
                     "--zmax", "100000000000000000000"]) == 0
        assert (out.read_bytes(), capsys.readouterr()) == uncapped
        assert "infofresh: note:" not in uncapped[1].err

    def test_sweep_schema_and_rerun_identical(self, tmp_path):
        cfg = write(tmp_path, "sw.ini", SWEEP_INI)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sweep", "--config", cfg, "--out", out1]) == 0
        assert main(["sweep", "--config", cfg, "--out", out2]) == 0
        text = Path(out1).read_text()
        assert Path(out2).read_text() == text
        lines = text.splitlines()
        assert lines[0] == "q,i_opt,i_zero_wait,i_uniform_mean,i_uniform_stderr"
        assert len(lines) == 1 + 3  # grid 0.1, 0.3, 0.5
        for line in lines[1:]:
            q, i_opt, i_zw, i_uni, _ = line.split(",")
            assert float(i_opt) >= float(i_zw) - 1e-9

    def test_sweep_flag_overrides(self, tmp_path):
        cfg = write(tmp_path, "sw.ini", SWEEP_INI)
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--config", cfg, "--out", out, "--seeds", "2", "--horizon", "5000"]) == 0
        assert len(Path(out).read_text().splitlines()) == 4

    def test_seeds_flag_decodes_like_its_key(self, tmp_path):
        cfg = write(tmp_path, "sw.ini", SWEEP_INI)
        via_flag, via_key = tmp_path / "flag.csv", tmp_path / "key.csv"
        assert main(["sweep", "--config", cfg, "--out", str(via_flag), "--seeds", "5, 9"]) == 0
        cfg = write(tmp_path, "sw.ini", SWEEP_INI.replace("seeds = 4", "seeds = 5, 9"))
        assert main(["sweep", "--config", cfg, "--out", str(via_key)]) == 0
        assert via_flag.read_text() == via_key.read_text()

    def test_sweep_grid_stops_at_its_stop(self, tmp_path):
        ini = SWEEP_INI.replace("variable = q", "variable = a").replace(
            "grid = 0.1:0.5:0.2", "grid = 0.5:0.9:0.25")
        cfg, out = write(tmp_path, "sw.ini", ini), tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--horizon", "2000"]) == 0
        assert [row[0] for row in csv.reader(out.read_text().splitlines())] == ["a", "0.5", "0.75"]

    def test_sweep_grid_outside_variable_domain_exit_1(self, tmp_path, capsys):
        ini = SWEEP_INI.replace("grid = 0.1:0.5:0.2", "grid = 0.3, 0.7")
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", write(tmp_path, "sw.ini", ini), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("infofresh: error: [sweep] grid: flip probability must be in "
                                "[0, 0.5], got 0.7\n")
        assert captured.out == ""
        assert not out.exists()

    def test_trace_structured_replay(self, tmp_path):
        cfg = write(tmp_path, "t.ini", TRACE_INI)
        out = str(tmp_path / "trace.csv")
        assert main(["trace", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "n,delta,metric,queue_len,event"
        joined = "\n".join(lines)
        # immediate sampling after the slow deliveries, a wait after fast ones
        assert "deliver:3|gen:4|start:4" in joined
        assert "deliver:4|gen:5|start:5" in joined
        assert "deliver:1\n" in joined + "\n"

    def test_trace_honors_solver_z_max(self, tmp_path):
        # the solved wait after a 1-step service, 13944, is long; the trace
        # must use the waits solved under [solver] z_max
        ini = (
            "[penalty]\nkind = affine\nslope = 1.0\n\n"
            "[service]\ndist = 1:0.9998, 1000000:0.0002\n\n"
            "[solver]\nz_max = 100000\n\n"
            "[trace]\npolicy = threshold\nforced_services = 1, 1, 1\nhorizon = 14000\n"
        )
        cfg = write(tmp_path, "t.ini", ini)
        out = str(tmp_path / "trace.csv")
        assert main(["trace", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 1 + 14001
        assert lines[13946].endswith(",gen:2|start:2")  # delivered at 1, waited 13944

    def test_trace_exhausted_exit_2(self, tmp_path, capsys):
        bad = TRACE_INI.replace("horizon = 22", "horizon = 400")
        cfg = write(tmp_path, "t.ini", bad)
        assert main(["trace", "--config", cfg]) == 2
        assert "forced service times" in capsys.readouterr().err

    def test_trace_needs_forced_or_seed(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", SOLVE_INI + "\n[trace]\npolicy = zero-wait\n")
        assert main(["trace", "--config", cfg]) == 1

    def test_trace_needs_forced_or_seed_before_solving(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "solve_beta", lambda *args: solves.append(args))
        cfg = write(tmp_path, "t.ini", HEAVY_INI)
        out = tmp_path / "o.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 1
        assert solves == []
        assert capsys.readouterr().err == (
            "infofresh: error: [trace] needs either forced_services or seed\n")
        assert not out.exists()

    def test_trace_forced_and_seed_exclude_each_other(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", TRACE_INI + "seed = 3\n")
        out = tmp_path / "o.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "infofresh: error: [trace] forced_services and seed exclude each other; set one\n")
        assert not out.exists()

    # the seeded-uniform-queueing golden config at a shorter horizon, and a seeded threshold
    @pytest.mark.parametrize("ini", [
        "[source]\nkind = binary\nq = 0.1\n\n[service]\ndist = 1:0.5, 5:0.5\n\n"
        "[sweep]\nuniform_period = 2\n\n[trace]\npolicy = uniform\nseed = 7\nhorizon = 4000\n",
        SOLVE_INI + "\n[trace]\npolicy = threshold\nseed = 1\nhorizon = 4000\n",
    ], ids=["seeded-uniform-queueing", "seeded-threshold"])
    def test_trace_stdout_equals_out(self, tmp_path, capsysbinary, ini):
        cfg = write(tmp_path, "t.ini", ini)
        out = tmp_path / "o.csv"
        assert main(["trace", "--config", cfg]) == 0
        stdout = capsysbinary.readouterr().out
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert stdout.count(b"\n") == 4002 and stdout == out.read_bytes()

    def test_trace_seeded(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "t.ini",
            SOLVE_INI + "\n[trace]\npolicy = uniform\nseed = 3\nhorizon = 30\n",
        )
        assert main(["trace", "--config", cfg]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 32  # header + n=0..30

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", "[service]\ndist = 1:0.7, 2:0.7\n\n[source]\nkind = binary\nq = 0.2\n")
        assert main(["solve", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_solve_infinite_table_penalty_exit_1(self, tmp_path, capsys):
        ini = "[penalty]\nkind = table\nvalues = 0, 1, inf\n\n[service]\ndist = 1:0.5, 5:0.5\n"
        assert main(["solve", "--config", write(tmp_path, "inf.ini", ini)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("infofresh: error: penalty is not finite at age 2; "
                                "cycle sums require finite values\n")

    @pytest.mark.filterwarnings("error")  # refused by the check, not warned about by numpy
    def test_solve_overflowing_cycle_sum_exit_1(self, tmp_path, capsys):
        ini = "[penalty]\nkind = table\nvalues = 1e308\n\n[service]\ndist = 1:0.5, 2:0.5\n"
        assert main(["solve", "--config", write(tmp_path, "big.ini", ini)]) == 1
        assert capsys.readouterr() == ("", "infofresh: error: penalty sum over ages 1..2 "
                                           "overflows float64; cycle sums require finite values\n")

    def test_missing_config_file_exit_1(self, capsys):
        assert main(["solve", "--config", "/nonexistent/x.ini"]) == 1

    def test_oracle_check_pass(self, tmp_path, capsys):
        cfg = write(tmp_path, "oc.ini", "[oracle]\ninstances = 4\nz_cap = 40\nseed = 0\n")
        assert main(["oracle-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert sum(line.startswith("instance") for line in out.splitlines()) == 4

    def test_oracle_check_zmax_enumerates_the_capped_waits(self, capsys):
        # the solver returns the optimum over waits 0..z_max, so the oracle enumerates
        # the same waits; enumerating up to z_cap failed instance 17 by 4.75e-05
        assert main(["oracle-check", "--zmax", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("PASS: ")
        assert lines[17].startswith("instance 17: ") and lines[17].endswith("(8 candidates)")

    def test_oracle_check_tiny_cap_reports_mismatch(self, tmp_path, capsys):
        # a cap of 0 restricts the oracle to zero-wait, exposing the cap
        cfg = write(tmp_path, "oc.ini", "[oracle]\ninstances = 6\nz_cap = 0\nseed = 0\n")
        assert main(["oracle-check", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "worst" in out

    def test_oracle_check_budget_exceeded_exit_2(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "oc.ini",
            "[oracle]\ninstances = 20\nz_cap = 400\nseed = 1\n",
        )
        assert main(["oracle-check", "--config", cfg]) == 2
        assert "budget" in capsys.readouterr().err

    def test_oracle_check_no_instances_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "oc.ini", "[oracle]\ninstances = 0\n")
        assert main(["oracle-check", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "[oracle] instances must be >= 1" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_oracle_check_writes_out(self, tmp_path, capsys, via):
        out = tmp_path / "oracle.txt"
        ini = "[oracle]\ninstances = 3\n"
        flags = ["--out", str(out)] if via == "flag" else []
        if via == "config":
            ini += f"\n[output]\npath = {out}\n"
        assert main(["oracle-check", "--config", write(tmp_path, "oc.ini", ini), *flags]) == 0
        assert capsys.readouterr().out == ""
        report = out.read_text().splitlines()
        assert len(report) == 4 and report[-1].startswith("PASS: ")

    def test_oracle_check_negative_cap_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "oc.ini", "[oracle]\ninstances = 2\nz_cap = -1\n")
        assert main(["oracle-check", "--config", cfg]) == 1
        assert "z_cap must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, ini",
        [(["--seeds", "0"], SWEEP_INI), ([], SWEEP_INI.replace("seeds = 4", "seeds = -2"))],
        ids=["flag", "config"],
    )
    def test_sweep_without_seeds_exit_1(self, tmp_path, capsys, flags, ini):
        cfg = write(tmp_path, "sw.ini", ini)
        assert main(["sweep", "--config", cfg, *flags]) == 1
        captured = capsys.readouterr()
        assert "[sim] seeds must name at least one seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "ini, flags, key",
        [
            (SWEEP_INI + "\n[solver]\nz_max = -1\n", [], "[solver] z_max"),
            (SWEEP_INI.replace("horizon = 20000", "horizon = 0"), [], "[sim] horizon"),
            (SWEEP_INI, ["--horizon", "0"], "[sim] horizon"),
            (SWEEP_INI.replace("uniform_period = 6", "uniform_period = 0"), [],
             "[sweep] uniform_period"),
        ],
        ids=["z_max", "horizon", "horizon-flag", "uniform-period"],
    )
    def test_sweep_bad_config_exit_1_before_output(self, tmp_path, capsys, ini, flags, key):
        cfg = write(tmp_path, "sw.ini", ini)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), *flags]) == 1
        assert f"infofresh: error: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, ini, flags, key",
        [
            ("solve", SOLVE_INI, ["--zmax", "0"], "[solver] z_max"),
            ("trace", TRACE_INI.replace("horizon = 22", "horizon = 0"), [], "[trace] horizon"),
            ("oracle-check", "[oracle]\ninstances = 2\nz_cap = -1\n", [],
             "[oracle] z_cap must be >= 0, got -1"),
            # negative seeds once reached numpy, whose error named no key
            ("sweep", SWEEP_INI.replace("seeds = 4", "seeds = -1, 2"), [],
             "[sim] seeds must all be >= 0, got (-1, 2)"),
            ("sweep", SWEEP_INI, ["--seeds=-1,2"], "[sim] seeds must all be >= 0"),
            # a repeated seed counted one run twice, as two independent seeds
            ("sweep", SWEEP_INI.replace("seeds = 4", "seeds = 5, 9, 5"), [],
             "[sim] seeds must not repeat a seed, got (5, 9, 5)"),
            ("sweep", SWEEP_INI, ["--seeds", "3,3"], "[sim] seeds must not repeat a seed"),
            ("trace", SOLVE_INI + "\n[trace]\nseed = -3\n", [],
             "[trace] seed must be >= 0, got -3"),
            ("oracle-check", "[oracle]\ninstances = 2\nseed = -2\n", [],
             "[oracle] seed must be >= 0, got -2"),
            # an empty list once read as a forced run with no service times and exited 2
            ("trace", TRACE_INI.replace("forced_services = 1,1,5,5,1,1,5", "forced_services ="),
             [], "[trace] forced_services must list at least one service time, got ()"),
            # a count past its bound once built its whole tuple, or every instance, first
            ("sweep", SWEEP_INI.replace("seeds = 4", "seeds = 10001"), [],
             "[sim] seeds: a seed count is at most 10000, got 10001"),
            ("sweep", SWEEP_INI, ["--seeds", "1000000000000"],
             "[sim] seeds: a seed count is at most 10000, got 1000000000000"),
            ("oracle-check", "[oracle]\ninstances = 10001\n", [],
             "[oracle] instances must be <= 10000, got 10001"),
        ],
        ids=["solve-zmax-flag", "trace-horizon", "oracle-z-cap", "sim-seeds",
             "sim-seeds-flag", "sim-seeds-repeated", "sim-seeds-repeated-flag", "trace-seed",
             "oracle-seed", "trace-forced-empty", "sim-seed-count", "sim-seed-count-flag",
             "oracle-instances"],
    )
    def test_range_error_names_key_before_output(self, tmp_path, capsys, command, ini, flags,
                                                 key):
        cfg = write(tmp_path, "c.ini", ini)
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert f"infofresh: error: {key}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_runtime_error_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the uniform queue at load 1 passes a backlog guard of 10 samples
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 10)
        cfg = write(tmp_path, "sw.ini", SWEEP_INI)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "infofresh: error: queue backlog reached" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, ini", [("solve", SOLVE_INI), ("trace", TRACE_INI),
                                              ("sweep", SWEEP_INI), ("oracle-check", SOLVE_INI)],
                             ids=["solve", "trace", "sweep", "oracle-check"])
    @pytest.mark.parametrize("where, reason", [("missing-dir", "No such file or directory"),
                                               ("directory", "Is a directory"),
                                               ("under-a-file", "Not a directory")],
                             ids=["missing-dir", "directory", "under-a-file"])
    def test_unwritable_out_exit_1(self, tmp_path, capsys, monkeypatch, command, ini, where,
                                   reason):
        # an --out that cannot be opened once ended in a Python traceback; one that can
        # never be opened is reported before any solving or simulation
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")
        for name in ("solve_beta", "age_histogram", "trace_chunks", "random_instances"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = write(tmp_path, "c.ini", ini)
        out = {"missing-dir": tmp_path / "missing" / "o.csv", "directory": tmp_path,
               "under-a-file": tmp_path / "c.ini" / "o.csv"}[where]
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"infofresh: error: cannot write output {out}: {reason}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["c.ini"]

    def test_unwritable_plot_script_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        (tmp_path / "o.csv.plot.py").mkdir()
        assert main(["sweep", "--config", write(tmp_path, "sw.ini", SWEEP_INI), "--out", str(out),
                     "--seeds", "2", "--horizon", "2000", "--plot-script"]) == 1
        assert capsys.readouterr().err.endswith(
            f"infofresh: error: cannot write output {out}.plot.py: Is a directory\n")

    def test_trace_checks_its_run_before_opening_out(self, tmp_path, capsys):
        # the first chunk runs out of forced service times before the bad path is opened;
        # a name too long to open fails only at open time, past the early path check
        cfg = write(tmp_path, "t.ini", TRACE_INI.replace("horizon = 22", "horizon = 400"))
        assert main(["trace", "--config", cfg, "--out", str(tmp_path / ("o" * 300))]) == 2
        assert "forced service times" in capsys.readouterr().err

    @pytest.mark.parametrize("service, period, note", [
        ("1:0.5, 11:0.5", 6, "infofresh: note: the uniform queue is unstable at load E[Y] / "
            "[sweep] uniform_period = 6 / 6 >= 1: its wait has no steady state, so the uniform "
            "column depends on the horizon\n"),
        ("1:0.5, 11:0.5", 7, ""),
        # a period of at least y_max makes every sample find the server free
        ("3:1.0", 3, ""),
    ], ids=["load-1", "load-below-1", "deterministic-load-1"])
    def test_sweep_notes_an_unstable_uniform_queue(self, tmp_path, capsys, service, period, note):
        ini = SWEEP_INI.replace("uniform_period = 6", f"uniform_period = {period}").replace(
            "dist = 1:0.5, 11:0.5", f"dist = {service}")
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", write(tmp_path, "sw.ini", ini), "--out", str(out),
                     "--seeds", "2", "--horizon", "2000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == note
        assert captured.out == ""
        assert len(out.read_text().splitlines()) == 4

    def test_sweep_error_exit_prints_no_note(self, tmp_path, capsys, monkeypatch):
        # at load 1, as the note's case above, but the backlog guard trips
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 10)
        cfg = write(tmp_path, "sw.ini", SWEEP_INI)
        assert main(["sweep", "--config", cfg, "--seeds", "2", "--horizon", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("infofresh: error: ") and "note" not in err

    def test_sweep_notes_a_binding_cap(self, tmp_path, capsys):
        # the optimal wait after a 1-step service is above 1 for q up to 0.11
        ini = SWEEP_INI.replace("grid = 0.1:0.5:0.2", "grid = 0.01:0.19:0.02").replace(
            "uniform_period = 6", "uniform_period = 7")
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", write(tmp_path, "sw.ini", ini + "[solver]\nz_max = 1\n"),
                     "--out", str(out), "--seeds", "2", "--horizon", "2000"]) == 0
        assert capsys.readouterr().err == (
            "infofresh: note: the wait cap [solver] z_max = 1 binds after service time 1 at "
            "q = 0.01, 0.03, 0.05, 0.07, 0.09, 0.11: results are the capped optimum\n")
        dist = ExperimentConfig.from_ini(ini).build_service()
        for row in out.read_text().splitlines()[1:]:
            q, i_opt = map(float, row.split(",")[:2])
            oracle = brute_force_optimum(NegatedMI(BinarySymmetric(q=q)), dist, z_cap=1)
            assert i_opt == pytest.approx(-oracle.best_ratio, abs=1e-8), row

    def test_trace_notes_a_binding_cap(self, tmp_path, capsys):
        ini = HEAVY_INI + "\n[solver]\nz_max = 50\n\n[trace]\nforced_services = 1, 1\nhorizon = 60\n"
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", write(tmp_path, "t.ini", ini), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "infofresh: note: the wait cap [solver] z_max = 50 binds after service time 1: "
            "results are the capped optimum\n")
        assert out.read_text().splitlines()[52].endswith(",gen:2|start:2")  # delivered at 1

    def test_mi_curve_negative_delta_max_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = binary\nq = 0.2\n\n[curve]\ndelta_max = -3\n")
        assert main(["mi-curve", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "[curve] delta_max must be >= 0, got -3" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, ini, message",
        [
            ("mi-curve", "[source]\nkind = tabulated\nvalues = 1, nan, 0.5\n",
             "[source]: tabulated curve values must be non-negative"),
            ("solve", "[penalty]\nkind = table\nvalues = 0, nan\n\n[service]\ndist = 1:1\n",
             "[penalty]: penalty table values must not be NaN"),
            ("solve", "[penalty]\nkind = affine\nslope = 1\nintercept = nan\n\n"
             "[service]\ndist = 1:1\n", "[penalty]: intercept must not be NaN"),
        ],
        ids=["mi-curve-tabulated", "solve-table", "solve-affine-intercept"],
    )
    def test_nan_model_value_exit_1(self, tmp_path, capsys, command, ini, message):
        cfg = write(tmp_path, "c.ini", ini)
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert f"infofresh: error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "penalty, message",
        [
            ("slope = inf", "slope must be non-negative and finite, got inf"),
            ("slope = 1\nintercept = -inf", "intercept must be finite, got -inf"),
        ],
        ids=["slope", "intercept"],
    )
    def test_infinite_affine_exit_1_without_numpy_output(self, tmp_path, penalty, message):
        # a separate process, so that a numpy warning would reach the real stderr
        cfg = write(tmp_path, "c.ini",
                    f"[penalty]\nkind = affine\n{penalty}\n\n[service]\ndist = 1:0.5, 5:0.5\n")
        proc = run_cli("solve", "--config", cfg)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"infofresh: error: [penalty]: {message}"]

    @pytest.mark.parametrize("command", ["trace", "sweep"])
    def test_huge_uniform_period_exit_1_without_traceback(self, tmp_path, command):
        # unbounded, a 20-digit period overflowed the int64 schedule arithmetic
        # with an OverflowError that named no key
        period = "uniform_period = 10000000000000000000"
        trace = "[trace]\npolicy = uniform\nseed = 1\n"
        ini = {"trace": SOLVE_INI + f"\n[sweep]\n{period}\n\n{trace}",
               "sweep": SWEEP_INI.replace("uniform_period = 6", period)}
        out = tmp_path / "o.csv"
        proc = run_cli(command, "--config", write(tmp_path, "c.ini", ini[command]),
                       "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "infofresh: error: [sweep] uniform_period must be <= 10000000, "
            "got 10000000000000000000"]
        assert not out.exists()

    # perfbench's trace-long config at seed 1 writes about 7 MB, and the curve 0.8 MB: each
    # is more than a pipe holds, so the writer meets the closed pipe; solve's few lines wait
    # in stdout's buffer for the flush that ends the command
    @pytest.mark.parametrize("command, ini, lines", [
        ("trace", GOLDEN_TRACES["seeded-threshold-two-blocks"], 1),
        ("mi-curve", "[source]\nkind = binary\nq = 0.05\n\n[curve]\ndelta_max = 100000\n", 1),
        ("solve", SOLVE_INI, 0),
    ], ids=["trace", "mi-curve", "solve"])
    def test_closed_stdout_pipe_exits_2_quietly(self, tmp_path, command, ini, lines):
        argv, env = cli_child(command, "--config", write(tmp_path, "c.ini", ini))
        env.pop("PYTHONUNBUFFERED", None)  # stdout into a pipe is block-buffered, as for a user
        with open(tmp_path / "err.txt", "w+b") as err:
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env) as proc:
                with proc.stdout:  # the reader takes its lines and hangs up
                    for _ in range(lines):
                        assert proc.stdout.readline().endswith(b"\n")
                assert proc.wait(timeout=60) == 2
            err.seek(0)
            assert err.read() == b""  # no traceback, and no "Exception ignored" at exit

    # a failed write once ended in an OSError traceback and exit 1, the config-error code
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fill")
    @pytest.mark.parametrize("to", ["out", "stdout"])
    @pytest.mark.parametrize("command", ["solve", "trace", "mi-curve"])
    def test_failed_write_exits_2_with_one_line(self, command, to):
        flags = ["--out", "/dev/full"] if to == "out" else []
        argv, env = cli_child(command, "--config", str(CONFIGS / "threshold_trace.ini"), *flags)
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full if to == "stdout" else subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        where = "/dev/full" if to == "out" else "standard output"
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            f"infofresh: error: cannot write output {where}: {os.strerror(errno.ENOSPC)}"]
        assert proc.stdout in (None, b"")

    def test_plot_script_emitted(self, tmp_path):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = binary\nq = 0.2\n\n[curve]\ndelta_max = 5\n")
        out = str(tmp_path / "curve.csv")
        assert main(["mi-curve", "--config", cfg, "--out", out, "--plot-script"]) == 0
        script = out + ".plot.py"
        assert os.path.exists(script)
        compile(Path(script).read_text(), script, "exec")  # syntactically valid

    @pytest.mark.parametrize(
        "command, ini, x, series, xlabel, ylabel",
        [
            ("mi-curve", "[source]\nkind = binary\nq = 0.2\n\n[curve]\ndelta_max = 5\n",
             "delta", [("mi_bits", None)], "age (steps)", "information (bits)"),
            ("sweep", SWEEP_INI.replace("horizon = 20000", "horizon = 2000"), "q",
             [("i_opt", "optimal"), ("i_zero_wait", "zero-wait"),
              ("i_uniform_mean", "uniform")], "q", "time-average information (bits)"),
            ("trace", TRACE_INI, "n", [("delta", None)], "time step", "age (steps)"),
        ],
        ids=["mi-curve", "sweep", "trace"],
    )
    def test_plot_script_plots_the_csv(self, tmp_path, monkeypatch, command, ini, x, series,
                                       xlabel, ylabel):
        out = tmp_path / "out.csv"
        cfg = write(tmp_path, "c.ini", ini)
        assert main([command, "--config", cfg, "--out", str(out), "--plot-script"]) == 0
        calls = []
        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.__getattr__ = lambda name: lambda *a, **k: calls.append((name, a, k))
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)  # the script finds its CSV from any working directory
        runpy.run_path(str(out) + ".plot.py")

        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        column = lambda name: [float(row[name]) for row in rows]
        drawn = [(a, k) for name, a, k in calls if name in ("plot", "step")]
        assert len(drawn) == len(series)
        for (args, kwargs), (name, label) in zip(drawn, series):
            assert list(args[0]) == column(x)
            assert list(args[1]) == column(name)
            assert kwargs.get("label") == label
        names = [name for name, _, _ in calls]
        assert ("legend" in names) == (series[0][1] is not None)
        assert ("xlabel", (xlabel,), {}) in calls
        assert ("ylabel", (ylabel,), {}) in calls
        assert calls[-1][0] == "savefig" and calls[-1][1] == (str(out) + ".png",)

    def test_plot_script_requires_out(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = binary\nq = 0.2\n")
        assert main(["mi-curve", "--config", cfg, "--plot-script"]) == 1
        captured = capsys.readouterr()
        assert "--plot-script needs an output path" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "oracle-check"])
    def test_plot_script_without_template_is_usage_error(self, tmp_path, capsys, command):
        cfg = write(tmp_path, "s.ini", SOLVE_INI + "\n[oracle]\ninstances = 1\n")
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out), "--plot-script"]) == 1
        assert "unrecognized arguments: --plot-script" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, ini", [("solve", SOLVE_INI), ("sweep", SWEEP_INI)],
                             ids=["solve", "sweep"])
    def test_solver_tol_is_an_unknown_key(self, tmp_path, capsys, command, ini):
        out = tmp_path / "o.csv"
        cfg = write(tmp_path, "c.ini", ini + "\n[solver]\ntol = 1e-10\n")
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "infofresh: error: unknown config field [solver] tol\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, ini", [
        ("sweep", SWEEP_INI.replace("seeds = 4", "seeds = 4\ndelta0 = 1")),
        ("trace", TRACE_INI + "\n[sim]\ndelta0 = 1\n"),
    ], ids=["sweep", "trace"])
    def test_sim_delta0_is_an_unknown_key(self, tmp_path, capsys, command, ini):
        # every run opens at age 1, with a sample generated at time -1
        out = tmp_path / "o.csv"
        cfg = write(tmp_path, "c.ini", ini)
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "infofresh: error: unknown config field [sim] delta0\n")
        assert not out.exists()

    def test_sweep_policies_is_an_unknown_key(self, tmp_path, capsys):
        # every sweep solves, evaluates zero-wait and simulates uniform at each grid point
        out = tmp_path / "o.csv"
        cfg = write(tmp_path, "c.ini", SWEEP_INI + "policies = optimal\n")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "infofresh: error: unknown config field [sweep] policies\n")
        assert not out.exists()

    @pytest.mark.parametrize("ini, key", [
        ("[DEFAULT]\nbogus = 1\n", "bogus"),
        # configparser would copy the key into [service] too, and name it there
        ("[DEFAULT]\nq = 0.05\n\n" + SOLVE_INI, "q"),
    ], ids=["alone", "beside-sections"])
    def test_default_section_keys_are_unknown(self, tmp_path, capsys, ini, key):
        out = tmp_path / "o.csv"
        cfg = write(tmp_path, "c.ini", ini)
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"infofresh: error: unknown config field [DEFAULT] {key}\n")
        assert not out.exists()

    def test_a_percent_sign_is_read_as_written(self, tmp_path):
        # configparser's interpolation once raised on it, past every error handler
        out = tmp_path / "out%d.csv"
        cfg = write(tmp_path, "c.ini", SOLVE_INI + f"\n[output]\npath = {out}\n")
        assert main(["solve", "--config", cfg]) == 0
        assert out.read_text().startswith("problem,max-info\nbeta,")

    @pytest.mark.parametrize("command", ["solve", "sweep", "trace", "oracle-check"])
    def test_tol_flag_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        assert main([command, "--out", str(out), "--tol", "1e-10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("infofresh: error: unrecognized arguments: --tol 1e-10\n")
        assert not out.exists()

    def test_usage_error_exit_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        assert "infofresh: error: " in capsys.readouterr().err
        assert main(["solve", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: infofresh solve")

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_one_parser_serves_commands_in_any_order(self, tmp_path, capsys):
        # exit code, stdout, stderr and --out bytes of each command, run in one order and
        # then in the other through the one parser
        trace_ini, out = str(CONFIGS / "threshold_trace.ini"), tmp_path / "o.csv"
        commands = [["solve", "--config", trace_ini, "--out", str(out)],
                    ["mi-curve", "--config", trace_ini],
                    ["oracle-check", "--out", str(out)],
                    [], ["solve", "--help"], ["bogus"],
                    ["solve", "--config", trace_ini, "--zmax", "0"]]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, captured.out, captured.err, written

        forward = [run(argv) for argv in commands]
        backward = [run(argv) for argv in reversed(commands)]
        assert forward == backward[::-1]
        assert [r[0] for r in forward] == [0, 0, 0, 1, 0, 1, 1]
        assert forward[0][3].startswith(b"problem,max-info\n")
        assert forward[2][3].endswith(b"instances (tolerance 1e-08)\n")
        assert "infofresh: error: [solver] z_max" in forward[6][2]


class TestCliFuzz:
    """Every subcommand on drawn INI files either writes its whole output and
    exits 0, or exits 1 or 2 with one error line and no output file; a value
    out of its key's range exits 1 and names the key.  A failed oracle check
    exits 2 with its whole report written."""

    # (section, key, in-range values with their boundary, out-of-range values)
    RANGES = (
        ("solver", "z_max", ("1", "40"), ("0", "-3")),
        ("sim", "horizon", ("1", "200"), ("0", "-1")),
        ("sim", "seeds", ("1", "2, 7"), ("0", "-2", "-1, 2", "3, 3")),
        ("sweep", "grid", ("0.5", "0.1, 0.3", "0:0.5:0.25"), ("", "0.3, 0.1", "0.2, 0.2")),
        ("sweep", "uniform_period", ("1", "4"), ("0", "-1", "10000001")),
        ("trace", "horizon", ("1", "200"), ("0", "-5")),
        ("curve", "delta_max", ("0", "30"), ("-1",)),
        ("oracle", "instances", ("1", "6"), ("0", "-1", "10001", "100000000")),
        ("oracle", "z_cap", ("0", "30"), ("-1",)),
        ("oracle", "seed", ("0", "3"), ("-2",)),
        ("trace", "seed", ("1", "7"), ("-3",)),
        ("sweep", "variable", ("q", "a"), ("b", "")),
        ("penalty", "kind", ("negated-mi",), ("cubic",)),
    )
    BASE = {
        "source": {"kind": "binary", "q": "0.1"},
        "sweep": {"variable": "q"},
        "trace": {"seed": "1"},
    }

    @staticmethod
    def csv_lines(command, cfg):
        if command == "mi-curve":
            return 1 + cfg.delta_max + 1
        if command == "solve":
            return 4 + len(cfg.service)
        if command == "sweep":
            return 1 + len(cfg.sweep_grid)
        return 1 + cfg.trace_horizon + 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["mi-curve", "solve", "sweep", "trace", "oracle-check"]),
        policy=st.sampled_from(["threshold", "zero-wait", "uniform"]),
        # the optimal wait after a 1-step service is 0 on the first, above 1 on the second
        dist=st.sampled_from(["1:0.5, 3:0.5", "1:0.5, 11:0.5"]),
        data=st.data(),
    )
    def test_outcome(self, command, policy, dist, data):
        sections = {name: dict(keys) for name, keys in self.BASE.items()}
        sections["service"] = {"dist": dist}
        sections["trace"]["policy"] = policy
        bad = set(data.draw(st.lists(st.integers(0, len(self.RANGES) - 1), max_size=2)))
        for i, (section, key, good, out_of_range) in enumerate(self.RANGES):
            value = data.draw(st.sampled_from(out_of_range if i in bad else good))
            sections.setdefault(section, {})[key] = value
        ini = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                      for name, keys in sections.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = write(Path(tmp), "f.ini", ini)
            out = Path(tmp) / "o.csv"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([command, "--config", cfg_path, "--out", str(out)])
            errors = [line for line in stderr.getvalue().splitlines()
                      if line.startswith("infofresh: error:")]
            if bad:
                named = [f"infofresh: error: [{self.RANGES[i][0]}] {self.RANGES[i][1]} "
                         for i in bad]
                assert rc == 1, ini
                assert len(errors) == 1 and errors[0].startswith(tuple(named)), errors
                assert stdout.getvalue() == ""
            elif command == "oracle-check" and rc in (0, 2) and not errors:
                # a FAIL verdict exits 2 with the whole report written, ending in its verdict
                report = out.read_text().splitlines()
                instances = int(sections["oracle"]["instances"])
                assert stdout.getvalue() == ""
                if rc == 0:
                    assert len(report) == instances + 1 and report[-1].startswith("PASS: ")
                else:
                    assert len(report) == instances + 2
                    assert report[-2].startswith("FAIL: ") and report[-1].startswith("worst: ")
            elif rc == 0:
                text = out.read_text()
                assert text.endswith("\n")
                assert len(text.splitlines()) == self.csv_lines(
                    command, ExperimentConfig.from_ini(ini))
            else:
                assert rc == 2 and len(errors) == 1, (rc, stderr.getvalue())
            if errors:
                assert not out.exists()

    @pytest.mark.parametrize("section, key, raw, in_range", [
        (section, key, raw, raw in good)
        for section, key, good, out_of_range in RANGES for raw in good + out_of_range])
    def test_every_route_meets_the_same_rule(self, section, key, raw, in_range):
        # a value set in code once met its range only in sweep's second pass, so
        # oracle_instances = 10**8 and delta_max = -1 ran in every other command
        (f,) = [f for f in fields(ExperimentConfig) if f.metadata["ini"][:2] == (section, key)]
        value = f.metadata["ini"][2](raw)
        if in_range:
            cfg = ExperimentConfig()
            setattr(cfg, f.name, value)
            assert getattr(cfg, f.name) == value
            assert getattr(ExperimentConfig(**{f.name: value}), f.name) == value
            return
        with pytest.raises(ConfigError) as read:
            ExperimentConfig.from_ini(f"[{section}]\n{key} = {raw}\n")
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError) as assigned:
            setattr(cfg, f.name, value)
        assert getattr(cfg, f.name) == getattr(ExperimentConfig(), f.name)  # left as it was
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**{f.name: value})
        assert str(assigned.value) == str(built.value) == str(read.value)


class TestTablePathPrintsScalarValues:
    """The CLI tabulates metrics with ``metric_table``; what it prints must be
    what the scalar reference functions print, byte for byte."""

    TRACES = {
        "checked-in-threshold": (CONFIGS / "threshold_trace.ini").read_text(),
        "seeded-gaussian-uniform": (
            "[source]\nkind = gaussian\na = 0.8\n\n"
            "[service]\ndist = 1:0.3, 4:0.7\n\n"
            "[trace]\npolicy = uniform\nseed = 5\nhorizon = 3000\n"
        ),
        "seeded-affine-threshold": (
            "[penalty]\nkind = affine\nslope = 1.5\nintercept = 0.25\n\n"
            "[service]\ndist = 1:0.3, 4:0.7\n\n"
            "[trace]\npolicy = threshold\nseed = 5\nhorizon = 3000\n"
        ),
    }

    @pytest.mark.parametrize("name", TRACES)
    def test_trace_metric_column(self, name, tmp_path, capsys):
        path = write(tmp_path, "t.ini", self.TRACES[name])
        assert main(["trace", "--config", path]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        cfg = ExperimentConfig.from_file(path)
        scalar = scalar_metric(cfg.build_source() if cfg.source_kind else cfg.build_penalty())
        assert len(rows) == cfg.trace_horizon + 1
        for row in rows:
            _, delta, metric, _, _ = row.split(",")
            assert metric == _fmt(scalar(int(delta))), row

    def test_sweep_uniform_mean(self, tmp_path, capsys):
        path = write(tmp_path, "sw.ini", SWEEP_INI)
        assert main(["sweep", "--config", path]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        cfg = ExperimentConfig.from_file(path)
        dist = cfg.build_service()
        hists = [age_histogram(Uniform(cfg.uniform_period), dist, cfg.horizon, seed)
                 for seed in cfg.seeds]
        size = max(len(h) for h in hists)
        assert [float(row[0]) for row in rows] == list(cfg.sweep_grid)
        for q, row in zip(cfg.sweep_grid, rows):
            model = BinarySymmetric(q=q)
            table = np.array([0.0] + [scalar_metric(model)(d) for d in range(1, size)])
            vals = np.array([float(h @ table[: len(h)]) / cfg.horizon for h in hists])
            assert row[3] == _fmt(float(vals.mean())), row

    def test_sweep_one_seed(self, tmp_path, capsys):
        path = write(tmp_path, "sw.ini", SWEEP_INI)
        assert main(["sweep", "--config", path, "--seeds", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        cfg = ExperimentConfig.from_file(path)
        hist = age_histogram(Uniform(cfg.uniform_period), cfg.build_service(), cfg.horizon, 0)
        assert [float(row[0]) for row in rows] == list(cfg.sweep_grid)
        for q, row in zip(cfg.sweep_grid, rows):
            model = BinarySymmetric(q=q)
            table = np.array([0.0] + [scalar_metric(model)(d) for d in range(1, len(hist))])
            assert row[3] == _fmt(float(hist @ table) / cfg.horizon), row
            assert row[4] == "0", row


class TestTraceGoldenDigests:
    """sha256 of whole ``trace`` CSVs of ``GOLDEN_TRACES``, captured from the per-row
    csv.writer implementation that the column writer replaced; any byte that moves fails."""

    DIGESTS = {
        "checked-in-threshold": "d2c96663c58ca097c14524fc677e5fd808f0af19ad51b457697bc125e5776b72",
        "seeded-uniform-queueing":
            "0376429acb6c329f76f3ac6f79b2a07e0ecdd08afad9ad45c536405eff0213e0",
        "seeded-uniform-past-y-max":
            "b3ed9d80ea09d71f300ace42e1a0821da9390ebda34563780196ce93ef8b0ab9",
        "seeded-gaussian-zero-wait":
            "247115ebaafcde27047bf60e247e420691693dbe416507586821693f1f4d51e6",
        "seeded-threshold-two-blocks":
            "342e4899f9b32e3ad7372f89fa739b72c2e137313c1d3ece8c157dca1b566da8",
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_trace_csv_digest(self, name, tmp_path):
        out = tmp_path / "trace.csv"
        cfg = write(tmp_path, "t.ini", GOLDEN_TRACES[name])
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[name]


class TestStreamedTrace:
    """``trace`` builds its CSV a chunk of ``_CSV_CHUNK_ROWS`` steps at a time
    and writes each chunk at once.  Its bytes must be those it writes at the
    default sizes, whatever the chunk size and the schedule block size ``_CHUNK``."""

    TRACES = {
        # period 2 against a mean service of 3: the backlog reaches 72 samples,
        # and a sample is delivered up to 145 steps after its generation
        "seeded-uniform-queueing": (
            "[source]\nkind = binary\nq = 0.1\n\n"
            "[service]\ndist = 1:0.5, 5:0.5\n\n"
            "[sweep]\nuniform_period = 2\n\n"
            "[trace]\npolicy = uniform\nseed = 7\nhorizon = 400\n"
        ),
        "seeded-gaussian-zero-wait": (
            "[source]\nkind = gaussian\na = 0.9\n\n"
            "[service]\ndist = 1:0.3, 4:0.7\n\n"
            "[trace]\npolicy = zero-wait\nseed = 3\nhorizon = 200\n"
        ),
        # a first service of 40 steps outlasts the widest chunk: the ages from
        # step 0, 1 to 40 before its delivery, cross chunk boundaries
        "replay-delta0-past-a-chunk": (
            "[penalty]\nkind = affine\nslope = 1.0\n\n"
            "[service]\ndist = 1:0.4, 5:0.4, 40:0.2\n\n"
            "[trace]\npolicy = zero-wait\nhorizon = 60\n"
            "forced_services = 40, 5, 5, 1, 5, 1, 1, 5, 5, 1, 5, 5, 1, 1, 1, 5, 5, 5, 1, 1, 5, 5\n"
        ),
    }

    @pytest.mark.parametrize("name", TRACES)
    @pytest.mark.parametrize("rows", [1, 7, 16])
    @pytest.mark.parametrize("block", [1, 7])
    def test_streamed_bytes_equal_write_csv(self, tmp_path, monkeypatch, name, rows, block):
        path, out = write(tmp_path, "t.ini", self.TRACES[name]), tmp_path / "t.csv"
        assert main(["trace", "--config", path, "--out", str(out)]) == 0
        want = out.read_bytes()
        monkeypatch.setattr(simulator, "_CSV_CHUNK_ROWS", rows)
        monkeypatch.setattr(simulator, "_CHUNK", block)
        assert main(["trace", "--config", path, "--out", str(out)]) == 0
        assert out.read_bytes() == want

    @pytest.fixture
    def tripping_guard(self, tmp_path, monkeypatch):
        """A uniform run whose backlog guard trips in the first block whose
        deliveries pass the horizon: in 7-sample blocks it is generated from
        step 252, after 15 chunks of 16 rows could have been written."""
        monkeypatch.setattr(simulator, "_CHUNK", 7)
        monkeypatch.setattr(simulator, "_CSV_CHUNK_ROWS", 16)
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 10)
        return write(tmp_path, "t.ini", self.TRACES["seeded-uniform-queueing"])

    def test_backlog_guard_past_the_first_chunk_writes_nothing(self, tripping_guard, tmp_path,
                                                               capsys):
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", tripping_guard, "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["trace", "--config", tripping_guard]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("infofresh: error: queue backlog reached") == 2

    def test_backlog_guard_leaves_an_existing_out_file(self, tripping_guard, tmp_path):
        out = tmp_path / "t.csv"
        out.write_bytes(b"kept\n")
        assert main(["trace", "--config", tripping_guard, "--out", str(out)]) == 2
        assert out.read_bytes() == b"kept\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_backlog_guard_leaves_a_fifo_out(self, tripping_guard, tmp_path):
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # opening it to write cannot block
        try:
            assert main(["trace", "--config", tripping_guard, "--out", str(fifo)]) == 2
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            assert os.read(reader, 1 << 16) == b""
        finally:
            os.close(reader)

    def test_memory_flat_in_the_horizon(self, tmp_path):
        # A trace held whole costs about 50 bytes a step, so 8 times the steps
        # multiplies its peak about sixfold; streamed, the peak may not grow by half.
        peaks = []
        for horizon in (100_000, 800_000):
            path = write(tmp_path, "t.ini", SOLVE_INI + "\n[trace]\npolicy = threshold\n"
                         f"seed = 1\nhorizon = {horizon}\n")
            tracemalloc.start()
            try:
                assert main(["trace", "--config", path, "--out", str(tmp_path / "t.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestSolveSweepGoldenDigests:
    """sha256 of whole ``solve`` and ``sweep`` CSVs and ``oracle-check`` reports;
    any byte that moves fails."""

    RUNS = {
        "sweep-policy-comparison": (
            ["sweep", "--seeds", "2", "--horizon", "20000"],
            (CONFIGS / "policy_comparison.ini").read_text(),
            "12eb12de9b0057edf431aa7f2ed7628b93b0d0f0bf33349097f6cadfc545fef1",
        ),
        # the config's own 10 seeds x 1e6 steps: histograms and metric tables
        # thousands of ages long, where a table prefix must match a fresh table
        "sweep-policy-comparison-full": (
            ["sweep"],
            (CONFIGS / "policy_comparison.ini").read_text(),
            "e78a897c65599f471b93bd6da0a2aa4c8a2e90012a951e0d3b55327c9f7b7a52",
        ),
        "solve-binary": (
            ["solve"],
            SOLVE_INI,
            "eb442b688d7af9e855170739d5c1bb7010c55638f84cde2a7679d9a00955af88",
        ),
        "solve-heavy-tail-under-cap": (
            ["solve", "--zmax", "300"],
            HEAVY_INI,
            "03603115b72d7d08c046f540d579ff4a1a43e56c1f75ce2dc9bd146b883a261d",
        ),
        # reports of the meshgrid enumeration that the per-axis tables replaced
        "oracle-check-defaults": (
            ["oracle-check"],
            "",
            "7faa85b6cb087882b7ae3c9c4832f9f09ed3e9381459c7c238d4f935c54f15a3",
        ),
        "oracle-check-50-seed-1": (
            ["oracle-check"],
            "[oracle]\ninstances = 50\nseed = 1\n",
            "0a82c090678a7b50f08ce02a207265b2eeb8842cc561ea469386b0cdd98a43ec",
        ),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_csv_digest(self, name, tmp_path):
        argv, text, digest = self.RUNS[name]
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", write(tmp_path, "c.ini", text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # The benchmark's four stress instances, each pinned by its CSV digest and its whole
    # stderr.  `solve` does not re-evaluate its waits, so the test does: the independent
    # scalar route's ratio of the CSV's waits must print as the CSV's beta.
    STRESS_SOLVES = {
        "gauss50": (
            "[source]\nkind = gaussian\na = 0.99\n\n[service]\ndist = "
            + ", ".join(f"{y}:0.02" for y in range(1, 51)) + "\n",
            "ca6984f50949645bea57650567af8f0335a710fb08ceebc339fc8444f4e761c4",
            "max-info: beta = 0.50625094604 (|h| = 1.78e-15, 2 Dinkelbach steps)\n"
            "waits: " + ", ".join(f"Z({y}) = {max(13 - y, 0)}" for y in range(1, 51)) + "\n",
        ),
        "affine500": (
            "[penalty]\nkind = affine\nslope = 1.0\n\n[service]\ndist = 1:0.9, 500:0.1\n",
            "620f87f11c6838634a313df0f9f3929464040a8acabff2471b0d0234d041566c",
            "min-penalty: beta = 170.526582278 (|h| = 0, 4 Dinkelbach steps)\n"
            "waits: Z(1) = 119, Z(500) = 0\n",
        ),
        "longwait": (
            HEAVY_INI + "\n[solver]\nz_max = 100000\n",
            "9a08e790c77cf10d168a905ad7d18766f0003b5cdd1718902789f378c200d910",
            "min-penalty: beta = 95.4592983942 (|h| = 0, 7 Dinkelbach steps)\n"
            "waits: Z(1) = 91, Z(3000) = 0\n",
        ),
        "capbound": (
            HEAVY_INI + "\n[solver]\nz_max = 300\n",
            "03603115b72d7d08c046f540d579ff4a1a43e56c1f75ce2dc9bd146b883a261d",
            "min-penalty: beta = 95.4592983942 (|h| = 0, 5 Dinkelbach steps)\n"
            "waits: Z(1) = 91, Z(3000) = 0\n",
        ),
    }

    @pytest.mark.parametrize("name", STRESS_SOLVES)
    def test_stress_solve_digest_and_stderr(self, name, tmp_path, capsys):
        text, digest, err = self.STRESS_SOLVES[name]
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", write(tmp_path, "c.ini", text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr() == ("", err)
        rows = dict(line.split(",") for line in out.read_text().splitlines())
        cfg = ExperimentConfig.from_ini(text)
        dist = cfg.build_service()
        waits = {y: int(rows[f"z[{y}]"]) for y in dist.support}
        sign = -1 if rows["problem"] == "max-info" else 1
        assert _fmt(sign * cycle_stats(cfg.build_penalty(), dist, waits).ratio) == rows["beta"]

    @pytest.mark.parametrize("name", ["longwait", "gauss50"])
    def test_stress_solve_never_re_evaluates(self, name, tmp_path, monkeypatch):
        # the solve states its own beta; the scalar re-evaluation is left to the checks
        def refuse(*args):
            raise AssertionError("solve called cycle_stats")

        monkeypatch.setattr(cli, "cycle_stats", refuse)
        text, digest, _ = self.STRESS_SOLVES[name]
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", write(tmp_path, "c.ini", text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
