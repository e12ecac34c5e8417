"""Whole-run arrays drained from ``trace_chunks``, arrays cut back into
``write_trace``'s chunks, the golden trace configs, and the command line run in a
child process."""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import infofresh
import infofresh.simulator as simulator

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Whole trace CSVs that the tests pin by digest, and run through stdout and --out alike
GOLDEN_TRACES = {
    "checked-in-threshold": (CONFIGS / "threshold_trace.ini").read_text(),
    # period 2 against a mean service of 3: the queue grows to 6716 samples
    "seeded-uniform-queueing": (
        "[source]\nkind = binary\nq = 0.1\n\n"
        "[service]\ndist = 1:0.5, 5:0.5\n\n"
        "[sweep]\nuniform_period = 2\n\n"
        "[trace]\npolicy = uniform\nseed = 7\nhorizon = 40000\n"
    ),
    # period 5 = y_max: no sample waits, so the queue column is the prefixes' 0
    "seeded-uniform-past-y-max": (
        "[source]\nkind = binary\nq = 0.1\n\n"
        "[service]\ndist = 1:0.5, 5:0.5\n\n"
        "[sweep]\nuniform_period = 5\n\n"
        "[trace]\npolicy = uniform\nseed = 7\nhorizon = 40000\n"
    ),
    "seeded-gaussian-zero-wait": (
        "[source]\nkind = gaussian\na = 0.9\n\n"
        "[service]\ndist = 1:0.3, 4:0.7\n\n"
        "[trace]\npolicy = zero-wait\nseed = 3\nhorizon = 40000\n"
    ),
    # perfbench's trace-long config at seed 1: waits {1: 1, 5: 0} and 57,135
    # samples, so the seeded threshold schedule spans two default blocks
    "seeded-threshold-two-blocks": (
        "[source]\nkind = binary\nq = 0.05\n\n"
        "[service]\ndist = 1:0.5, 5:0.5\n\n"
        "[trace]\npolicy = threshold\nseed = 1\nhorizon = 200000\n"
    ),
}


def queue_lengths(s, start, horizon):
    """The FIFO queue length at steps 1..horizon: the samples generated by
    step n less those whose service has started by n."""
    steps = np.arange(1, horizon + 1)
    return np.searchsorted(s, steps, side="right") - np.searchsorted(start, steps, side="right")


def run(policy, metric, dist, horizon, seed=None, forced=None):
    """One run's ``delta``, ``metric`` and ``queue_len`` at steps 1..horizon,
    the age ``delta0`` and ``metric0`` at step 0, the times ``s``, ``start`` and
    ``d`` of the samples generated by the horizon, and the ``chunks`` they came from."""
    chunks = list(simulator.trace_chunks(policy, metric, dist, horizon, seed, forced))
    parts = []
    for lo, delta, values, _, s, start, d in chunks:
        a, b = np.searchsorted(s, (lo, lo + len(delta)))
        parts.append((delta, values, s[a:b], start[a:b], d[a:b]))
    delta, values, s, start, d = map(np.concatenate, zip(*parts))
    return types.SimpleNamespace(horizon=horizon, delta0=int(delta[0]), metric0=float(values[0]),
                                 delta=delta[1:], metric=values[1:],
                                 queue_len=queue_lengths(s, start, horizon),
                                 s=s, start=start, d=d, chunks=chunks)


def as_chunks(trace, rows=None):
    """A run's arrays, set by hand, as ``write_trace``'s chunks of ``rows`` steps,
    by default ``_CSV_CHUNK_ROWS``."""
    rows = rows or simulator._CSV_CHUNK_ROWS
    steps = [np.concatenate(([x0], x)) for x0, x in ((trace.delta0, trace.delta),
                                                     (trace.metric0, trace.metric))]
    return [(lo, *(x[lo:lo + rows] for x in steps), 0, trace.s, trace.start, trace.d)
            for lo in range(0, trace.horizon + 1, rows)]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def cli_child(*args):
    """The argv and environment that run the command line in a child process."""
    src = str(Path(infofresh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return [sys.executable, "-m", "infofresh.cli", *args], env


def run_cli(*args, text=True, timeout=60):
    """Run the command line in a child process, so that its real stdout and stderr are
    captured; a child still running after ``timeout`` seconds fails the test."""
    argv, env = cli_child(*args)
    return subprocess.run(argv, capture_output=True, text=text, env=env, timeout=timeout)
