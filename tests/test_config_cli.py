"""Configuration parsing and the CLI contract (schemas, determinism, exits)."""

import contextlib
import hashlib
import io
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infofresh.cli import main
from infofresh.config import ConfigError, ExperimentConfig, round_half_up
from infofresh.simulator import Uniform, _fmt, age_histogram
from infofresh.sources import BinarySymmetric, mutual_information, penalty_value

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

    def test_grid_list_form(self):
        cfg = ExperimentConfig.from_ini("[sweep]\ngrid = 0.1, 0.2, 0.4\n")
        assert cfg.sweep_grid == (0.1, 0.2, 0.4)

    def test_seeds_count_and_list(self):
        assert ExperimentConfig.from_ini("[sim]\nseeds = 3\n").seeds == (0, 1, 2)
        assert ExperimentConfig.from_ini("[sim]\nseeds = 5, 9\n").seeds == (5, 9)

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            ExperimentConfig.from_ini("[service]\ntypo = 1\n")
        # the AR(1) information curve depends only on a, so there is no noise variance
        with pytest.raises(ConfigError, match=r"unknown config field \[source\] sigma2"):
            ExperimentConfig.from_ini("[source]\nkind = gaussian\na = 0.8\nsigma2 = 2.0\n")

    def test_each_key_names_one_field(self):
        spots = [f.metadata["ini"][:2] for f in fields(ExperimentConfig)]
        assert len(set(spots)) == len(spots)

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
        with pytest.raises(ConfigError, match="unknown policy"):
            ExperimentConfig.from_ini(
                "[sweep]\nvariable = q\ngrid = 0.1, 0.2\npolicies = optimal, lazy\n"
            ).validate_sweep()
        ok = "[sweep]\nvariable = q\ngrid = 0.1, 0.2\n"
        for ini, key in [
            (ok + "policies =\n", r"\[sweep\] policies must name at least one policy"),
            (ok + "uniform_period = 0\n", r"\[sweep\] uniform_period must be >= 1, got 0"),
            (ok + "[sim]\nhorizon = 0\n", r"\[sim\] horizon must be >= 1, got 0"),
            (ok + "[solver]\ntol = -1\n", r"\[solver\] tol must be positive, got -1.0"),
            (ok + "[solver]\ntol = nan\n", r"\[solver\] tol must be positive, got nan"),
            (ok + "[solver]\nz_max = 0\n", r"\[solver\] z_max must be >= 1, got 0"),
        ]:
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_ini(ini).validate_sweep()
        cfg = ExperimentConfig.from_ini(ok)
        cfg.horizon = -5  # as --horizon -5 sets it
        with pytest.raises(ConfigError, match=r"\[sim\] horizon must be >= 1, got -5"):
            cfg.validate_sweep()
        # the boundary values are valid
        ExperimentConfig.from_ini(
            ok + "uniform_period = 1\n[sim]\nhorizon = 1\n[solver]\nz_max = 1\n"
        ).validate_sweep()

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            ExperimentConfig.from_ini("not an ini at all\n")

    def test_round_half_up(self):
        assert round_half_up(6.0) == 6
        assert round_half_up(5.5) == 6
        assert round_half_up(6.5) == 7
        assert round_half_up(6.4) == 6


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_solve_binding_cap_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "h.ini", HEAVY_INI)
        assert main(["solve", "--config", cfg, "--zmax", "50"]) == 2
        err = capsys.readouterr().err
        assert "service time 1 exceeds z_max = 50" in err
        assert "hint: " in err and "--zmax" in err

    def test_sweep_schema_and_rerun_identical(self, tmp_path):
        cfg = write(tmp_path, "sw.ini", SWEEP_INI)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sweep", "--config", cfg, "--out", out1]) == 0
        assert main(["sweep", "--config", cfg, "--out", out2]) == 0
        text = open(out1).read()
        assert open(out2).read() == text
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
        assert len(open(out).read().splitlines()) == 4

    def test_trace_structured_replay(self, tmp_path):
        cfg = write(tmp_path, "t.ini", TRACE_INI)
        out = str(tmp_path / "trace.csv")
        assert main(["trace", "--config", cfg, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "n,delta,metric,queue_len,event"
        joined = "\n".join(lines)
        # immediate sampling after the slow deliveries, a wait after fast ones
        assert "deliver:3|gen:4|start:4" in joined
        assert "deliver:4|gen:5|start:5" in joined
        assert "deliver:1\n" in joined + "\n"

    def test_trace_honors_solver_z_max(self, tmp_path):
        # the solved wait after a 1-step service, 13944, exceeds the default
        # cap; the trace must use the waits solved under [solver] z_max
        ini = (
            "[penalty]\nkind = affine\nslope = 1.0\n\n"
            "[service]\ndist = 1:0.9998, 1000000:0.0002\n\n"
            "[solver]\nz_max = 100000\n\n"
            "[trace]\npolicy = threshold\nforced_services = 1, 1, 1\nhorizon = 14000\n"
        )
        cfg = write(tmp_path, "t.ini", ini)
        out = str(tmp_path / "trace.csv")
        assert main(["trace", "--config", cfg, "--out", out]) == 0
        lines = open(out).read().splitlines()
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

    def test_missing_config_file_exit_1(self, capsys):
        assert main(["solve", "--config", "/nonexistent/x.ini"]) == 1

    def test_oracle_check_pass(self, tmp_path, capsys):
        cfg = write(tmp_path, "oc.ini", "[oracle]\ninstances = 4\nz_cap = 40\nseed = 0\n")
        assert main(["oracle-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert sum(line.startswith("instance") for line in out.splitlines()) == 4

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
            (SWEEP_INI + "\n[solver]\ntol = -1\n", [], "[solver] tol"),
            (SWEEP_INI + "\n[solver]\nz_max = -1\n", [], "[solver] z_max"),
            (SWEEP_INI + "policies =\n", [], "[sweep] policies"),
            (SWEEP_INI.replace("horizon = 20000", "horizon = 0"), [], "[sim] horizon"),
            (SWEEP_INI, ["--horizon", "0"], "[sim] horizon"),
            (SWEEP_INI.replace("uniform_period = 6", "uniform_period = 0"), [],
             "[sweep] uniform_period"),
        ],
        ids=["tol", "z_max", "no-policies", "horizon", "horizon-flag", "uniform-period"],
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
            ("solve", SOLVE_INI + "\n[solver]\ntol = -1\n", [], "[solver] tol"),
            ("solve", SOLVE_INI, ["--zmax", "0"], "[solver] z_max"),
            ("trace", TRACE_INI, ["--tol", "-1"], "[solver] tol"),
            ("oracle-check", "[oracle]\ninstances = 2\n", ["--tol", "-1"], "[solver] tol"),
            ("sweep", SWEEP_INI.replace("seeds = 4", "seeds = 4\ndelta0 = 0"), [], "[sim] delta0"),
            ("trace", TRACE_INI.replace("horizon = 22", "horizon = 0"), [], "[trace] horizon"),
            ("oracle-check", "[oracle]\ninstances = 2\nz_cap = -1\n", [],
             "[oracle] z_cap must be >= 0, got -1"),
        ],
        ids=["solve-tol", "solve-zmax-flag", "trace-tol-flag", "oracle-tol-flag",
             "sweep-delta0", "trace-horizon", "oracle-z-cap"],
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

    def test_sweep_runtime_error_leaves_no_file(self, tmp_path, capsys):
        # the optimal wait after a 1-step service passes z_max = 1 at some grid point
        ini = SWEEP_INI.replace("grid = 0.1:0.5:0.2", "grid = 0.01:0.49:0.02")
        cfg = write(tmp_path, "sw.ini", ini + "\n[solver]\nz_max = 1\n")
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "exceeds z_max = 1" in capsys.readouterr().err
        assert not out.exists()

    def test_mi_curve_negative_delta_max_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = binary\nq = 0.2\n\n[curve]\ndelta_max = -3\n")
        assert main(["mi-curve", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "[curve] delta_max must be >= 0, got -3" in captured.err
        assert captured.out == ""

    def test_plot_script_emitted(self, tmp_path):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = binary\nq = 0.2\n\n[curve]\ndelta_max = 5\n")
        out = str(tmp_path / "curve.csv")
        assert main(["mi-curve", "--config", cfg, "--out", out, "--plot-script"]) == 0
        script = out + ".plot.py"
        assert os.path.exists(script)
        compile(open(script).read(), script, "exec")  # syntactically valid

    def test_plot_script_requires_out(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[source]\nkind = binary\nq = 0.2\n")
        assert main(["mi-curve", "--config", cfg, "--plot-script"]) == 1
        captured = capsys.readouterr()
        assert "--plot-script needs an output path" in captured.err
        assert captured.out == ""

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1


class TestCliFuzz:
    """Every subcommand on drawn INI files either writes its whole output and
    exits 0, or exits 1 or 2 with one error line and no output file; a value
    out of its key's range exits 1 and names the key."""

    # (section, key, in-range values with their boundary, out-of-range values)
    RANGES = (
        ("solver", "tol", ("5e-324", "1e-10"), ("0", "-1", "nan")),
        ("solver", "z_max", ("1", "40"), ("0", "-3")),
        ("sim", "horizon", ("1", "200"), ("0", "-1")),
        ("sim", "seeds", ("1", "2, 7"), ("0", "-2")),
        ("sim", "delta0", ("1", "5"), ("0", "-1")),
        ("sweep", "grid", ("0.5", "0.1, 0.3", "0:0.5:0.25"), ("", "0.3, 0.1", "0.2, 0.2")),
        ("sweep", "uniform_period", ("1", "4"), ("0", "-1")),
        ("sweep", "policies", ("optimal", "zero-wait, uniform"), ("", ",")),
        ("trace", "horizon", ("1", "200"), ("0", "-5")),
        ("curve", "delta_max", ("0", "30"), ("-1",)),
        ("oracle", "instances", ("1", "6"), ("0", "-1")),
        ("oracle", "z_cap", ("0", "30"), ("-1",)),
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
                # the report goes to stdout; a FAIL verdict exits 2
                verdict = stdout.getvalue().splitlines()[int(sections["oracle"]["instances"])]
                assert verdict.startswith("PASS" if rc == 0 else "FAIL")
            elif rc == 0:
                text = out.read_text()
                assert text.endswith("\n")
                assert len(text.splitlines()) == self.csv_lines(
                    command, ExperimentConfig.from_ini(ini))
            else:
                assert rc == 2 and len(errors) == 1, (rc, stderr.getvalue())
            if rc != 0:
                assert not out.exists()


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
        if cfg.source_kind:
            model = cfg.build_source()
            scalar = lambda d: mutual_information(model, d)
        else:
            penalty = cfg.build_penalty()
            scalar = lambda d: penalty_value(penalty, d)
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
            table = np.array([0.0] + [mutual_information(model, d) for d in range(1, size)])
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
            table = np.array([0.0] + [mutual_information(model, d) for d in range(1, len(hist))])
            assert row[3] == _fmt(float(hist @ table) / cfg.horizon), row
            assert row[4] == "0", row


class TestTraceGoldenDigests:
    """sha256 of whole ``trace`` CSVs, captured from the per-row csv.writer
    implementation that the column writer replaced; any byte that moves fails."""

    TRACES = {
        "checked-in-threshold": (
            (CONFIGS / "threshold_trace.ini").read_text(),
            "d2c96663c58ca097c14524fc677e5fd808f0af19ad51b457697bc125e5776b72",
        ),
        # period 2 against a mean service of 3: the queue grows to 6716 samples
        "seeded-uniform-queueing": (
            "[source]\nkind = binary\nq = 0.1\n\n"
            "[service]\ndist = 1:0.5, 5:0.5\n\n"
            "[sweep]\nuniform_period = 2\n\n"
            "[trace]\npolicy = uniform\nseed = 7\nhorizon = 40000\n",
            "0376429acb6c329f76f3ac6f79b2a07e0ecdd08afad9ad45c536405eff0213e0",
        ),
        "seeded-gaussian-zero-wait": (
            "[source]\nkind = gaussian\na = 0.9\n\n"
            "[service]\ndist = 1:0.3, 4:0.7\n\n"
            "[trace]\npolicy = zero-wait\nseed = 3\nhorizon = 40000\n",
            "247115ebaafcde27047bf60e247e420691693dbe416507586821693f1f4d51e6",
        ),
    }

    @pytest.mark.parametrize("name", TRACES)
    def test_trace_csv_digest(self, name, tmp_path):
        text, digest = self.TRACES[name]
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", write(tmp_path, "t.ini", text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSolveSweepGoldenDigests:
    """sha256 of whole ``solve`` and ``sweep`` CSVs; any byte that moves fails."""

    RUNS = {
        "sweep-policy-comparison": (
            ["sweep", "--seeds", "2", "--horizon", "20000"],
            (CONFIGS / "policy_comparison.ini").read_text(),
            "12eb12de9b0057edf431aa7f2ed7628b93b0d0f0bf33349097f6cadfc545fef1",
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
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_csv_digest(self, name, tmp_path):
        argv, text, digest = self.RUNS[name]
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", write(tmp_path, "c.ini", text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
