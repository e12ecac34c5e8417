"""The command line at full size, in a child process: each test runs
``python -m infofresh.cli`` at a horizon, grid or instance count past what the
in-process tests use, and bounds its exit code, its seconds or its own memory peak."""

import os
import py_compile
import subprocess
import sys

import pytest

from infofresh.service import SERVICE_TIME_MAX
from runs import CONFIGS, GOLDEN_TRACES, cli_child, run_cli, write

COMPARISON = (CONFIGS / "policy_comparison.ini").read_text()
# solve on binary q = 0.01 with a 1-step and a y-step service, equally likely
TWO_POINT = "[source]\nkind = binary\nq = 0.01\n\n[service]\ndist = 1:0.5, {y}:0.5\n"


# Runs the command it is given and prints that child's exit code and peak resident set
# in KB.  On Linux a process's peak starts at the peak of the process it was started
# from, so the command is started from this small one, not from the test process.
_PEAK = """\
import os, subprocess, sys
with subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL) as proc:
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def peak_rss_mb(argv, env=None):
    """Run ``argv`` to its end; its exit code and its own peak resident set in MB.

    ``os.wait4`` reports the one child it reaps, whereas
    ``getrusage(RUSAGE_CHILDREN)`` reports the largest peak of every child reaped
    so far, so any earlier test's child could set the reading."""
    done = subprocess.run([sys.executable, "-c", _PEAK, *argv], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    code, kb = map(int, done.stdout.split())
    return code, kb / 1024


def test_peak_rss_is_the_one_childs_own():
    code, big = peak_rss_mb([sys.executable, "-c", "b = b'x' * (200 << 20)"])
    assert code == 0 and big >= 200, big
    held = b"x" * (200 << 20)  # nor does this process's own peak count
    code, bare = peak_rss_mb([sys.executable, "-c", "pass"])
    del held
    assert code == 0 and bare < 100, bare


# each of these would run for minutes, or not end, if it did the work it names
@pytest.mark.parametrize("command, ini, flags, out, code, error", [
    # the output directory is checked before the 1e9-step sweep starts
    ("sweep", COMPARISON, ["--horizon", "1000000000"], "missing/o.csv", 1,
     "cannot write output {out}: No such file or directory"),
    # a uniform queue at load 2 stops at the block where its backlog passes the guard,
    # not after folding 1e8 steps
    ("sweep", "[service]\ndist = 1:0.5, 3:0.5\n\n[sim]\nhorizon = 100000000\nseeds = 1\n\n"
     "[sweep]\nvariable = q\ngrid = 0.1\nuniform_period = 1\n", [], "o.csv",
     2, "queue backlog reached "),
    # the point count of a range is computed, not counted out
    ("sweep", "[service]\ndist = 1:0.5, 11:0.5\n\n[sim]\nhorizon = 2000\nseeds = 2\n\n"
     "[sweep]\nvariable = q\ngrid = 0:1e300:1e-300\n", [], "o.csv", 1,
     "[sweep] grid: a range start:stop:step holds at most 100000 points, "
     "got '0:1e300:1e-300' with inf points"),
    # a 1e13-step service is refused before any table is sized by it
    ("solve", TWO_POINT.format(y=10**13), [], "o.csv", 1,
     "[service] dist: service times must be <= 1000000, got 10000000000000"),
    # the seed count is checked before its tuple is built, the instance count before
    # the first instance is
    ("sweep", COMPARISON, ["--seeds", "1000000000000"], "o.csv", 1,
     "[sim] seeds: a seed count is at most 10000, got 1000000000000"),
    ("oracle-check", "[oracle]\ninstances = 100000000\n", [], "o.txt", 1,
     "[oracle] instances must be <= 10000, got 100000000"),
], ids=["sweep-1e9-steps-missing-out-dir", "sweep-1e8-steps-load-2", "grid-1e300-points",
        "solve-service-1e13", "seeds-1e12", "oracle-1e8-instances"])
def test_sweep_fails_within_10_s(tmp_path, command, ini, flags, out, code, error):
    out = tmp_path / out
    proc = run_cli(command, "--config", write(tmp_path, "c.ini", ini), *flags, "--out", str(out),
                   timeout=10)
    assert proc.returncode == code
    [line] = proc.stderr.splitlines()
    assert line.startswith("infofresh: error: " + error.format(out=out)), line
    assert not out.exists()


def test_oracle_check_200_instances_passes(tmp_path):
    out = tmp_path / "oracle.txt"
    config = write(tmp_path, "c.ini", "[oracle]\ninstances = 200\nseed = 1\n")
    assert run_cli("oracle-check", "--config", config, "--out", str(out)).returncode == 0
    report = out.read_text().splitlines()
    assert len(report) == 201 and report[-1].startswith("PASS: ")


def test_sweep_plot_script_compiles(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--config", write(tmp_path, "c.ini", COMPARISON), "--seeds", "2",
                   "--horizon", "20000", "--out", str(out), "--plot-script")
    assert proc.returncode == 0
    py_compile.compile(f"{out}.plot.py", cfile=str(tmp_path / "plot.pyc"), doraise=True)


# the writer hands large chunks to stdout and to an --out file alike
@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_trace_stdout_equals_out(tmp_path, name):
    config, out = write(tmp_path, "t.ini", GOLDEN_TRACES[name]), tmp_path / "o.csv"
    piped = run_cli("trace", "--config", config, text=False)
    assert piped.returncode == 0
    assert run_cli("trace", "--config", config, "--out", str(out)).returncode == 0
    assert piped.stdout == out.read_bytes()


def test_trace_past_y_max_never_queues(tmp_path):
    out = tmp_path / "o.csv"
    config = write(tmp_path, "t.ini", GOLDEN_TRACES["seeded-uniform-past-y-max"])
    assert run_cli("trace", "--config", config, "--out", str(out)).returncode == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 40_001
    assert [row.split(",")[3] for row in rows[1:]] == ["0"] * 40_001


# memory flat in the horizon (2e7 steps, 100 times perfbench's trace-long) and in the
# uniform period (past the horizon, so one sample), and bounded at the largest service
# time (121 MB read through this launcher); the output is not what is measured.  The
# forced trace's ages pass 1,048,704, where the writer's table of each age's row prefix
# doubles to 2,097,408 columns (161 MB); copying that table at each chunk peaks at 245 MB
@pytest.mark.parametrize("command, ini, flags, bound_mb", [
    ("sweep", COMPARISON, ["--seeds", "1", "--horizon", "20000000"], 100),
    ("trace", GOLDEN_TRACES["seeded-threshold-two-blocks"].replace(
        "horizon = 200000", "horizon = 20000000"), [], 100),
    ("sweep", "[service]\ndist = 1:0.5, 11:0.5\n\n[sim]\nhorizon = 20000\nseeds = 2\n\n"
              "[sweep]\nvariable = q\ngrid = 0.1, 0.3\nuniform_period = 10000000\n", [], 60),
    ("solve", TWO_POINT.format(y=SERVICE_TIME_MAX), [], 250),
    ("trace", TWO_POINT.format(y=SERVICE_TIME_MAX) + "\n[trace]\nforced_services = "
              f"{SERVICE_TIME_MAX}, {SERVICE_TIME_MAX}\nhorizon = 1050000\n", [], 200),
], ids=["sweep-horizon-2e7", "trace-horizon-2e7", "sweep-period-1e7", "solve-service-time-max",
        "trace-ages-past-1048704"])
def test_memory_peak(tmp_path, command, ini, flags, bound_mb):
    code, peak = peak_rss_mb(*cli_child(command, "--config", write(tmp_path, "c.ini", ini), *flags,
                                        "--out", os.devnull))
    assert code == 0
    assert peak < bound_mb, f"peaked at {peak:.1f} MB, over {bound_mb} MB"
