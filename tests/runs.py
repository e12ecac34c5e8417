"""Whole-run arrays drained from ``trace_chunks``, and arrays cut back into
``write_trace``'s chunks."""

import types

import numpy as np

import infofresh.simulator as simulator


def run(policy, metric, dist, horizon, seed=None, forced=None, delta0=1):
    """One run's ``delta``, ``metric`` and ``queue_len`` at steps 1..horizon,
    ``delta0`` and ``metric0`` at step 0, the times ``s``, ``start`` and ``d`` of
    the samples generated by the horizon, and the ``chunks`` they came from."""
    chunks = list(simulator.trace_chunks(policy, metric, dist, horizon, delta0, seed, forced))
    parts = []
    for lo, delta, values, queue, _, s, start, d in chunks:
        a, b = np.searchsorted(s, (lo, lo + len(delta)))
        parts.append((delta, values, queue, s[a:b], start[a:b], d[a:b]))
    delta, values, queue, s, start, d = map(np.concatenate, zip(*parts))
    return types.SimpleNamespace(horizon=horizon, delta0=int(delta[0]), metric0=float(values[0]),
                                 delta=delta[1:], metric=values[1:], queue_len=queue[1:],
                                 s=s, start=start, d=d, chunks=chunks)


def as_chunks(trace):
    """A run's arrays, set by hand, as ``write_trace``'s chunks of ``_CSV_CHUNK_ROWS`` steps."""
    rows = simulator._CSV_CHUNK_ROWS
    steps = [np.concatenate(([x0], x)) for x0, x in ((trace.delta0, trace.delta),
                                                     (trace.metric0, trace.metric),
                                                     (0, trace.queue_len))]
    return [(lo, *(x[lo:lo + rows] for x in steps), 0, trace.s, trace.start, trace.d)
            for lo in range(0, trace.horizon + 1, rows)]
