"""Discrete-time FIFO single-server queue simulation of sampling policies.

Samples are generated by a policy, queue FIFO at a single server, and are
delivered after their service time.  The age at step n is the time since
the generation of the freshest delivered sample; a metric (an information
curve or an age penalty) is scored at the age every step.

The engine is vectorized over samples rather than stepped per tick: each
sample's generation, service-start, and delivery times are computed as
arrays, and per-step quantities are recovered from the delivery intervals.
This is exact, bit-reproducible given the seed (PCG64), and fast enough
for million-step horizons.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Mapping, Optional, Sequence, Union

import numpy as np

from .service import ServiceTimeDist
from .sources import AgePenalty, MarkovSourceModel, metric_table

QUEUE_GUARD = 1_000_000

_EVENT_TOKEN = {"generated": "gen", "service_start": "start", "delivered": "deliver"}
_EVENT_ORDER = {"delivered": 0, "generated": 1, "service_start": 2}


class SequenceExhausted(Exception):
    """A replay ran out of forced service times before the horizon."""


@dataclass(frozen=True)
class Uniform:
    """Generate at fixed multiples of ``period`` even while the server is
    busy; overflow samples wait in the FIFO queue."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")


@dataclass(frozen=True)
class ZeroWait:
    """Generate each sample the instant the previous one is delivered."""


@dataclass(frozen=True)
class Threshold:
    """Wait ``waiting[y]`` steps after delivering a sample whose service
    time was y, then generate.  The waits are the solved threshold rule
    (``SolverResult.waiting``), so they honor the cap they were solved with."""

    waiting: Mapping[int, int]


PolicySpec = Union[Uniform, ZeroWait, Threshold]


@dataclass(eq=False)
class SimulationTrace:
    """Per-step record for n = 1..horizon plus the full event log.

    ``delta[n-1]`` is the age at step n, ``metric[n-1]`` the metric at that
    age, and ``queue_len[n-1]`` the number of samples waiting (excluding the
    one in service).  Events are (kind, sample index, time) triples, kind in
    {generated, service_start, delivered}, sample indices 1-based, including
    events at time 0.
    """

    horizon: int
    delta0: int
    metric0: float
    delta: np.ndarray
    metric: np.ndarray
    queue_len: np.ndarray
    events: list[tuple[str, int, int]]

    def write_csv(self, f: IO[str]) -> None:
        """Emit rows ``n,delta,metric,queue_len,event`` for n = 0..horizon.

        The n = 0 row carries the initial age and the time-0 events (the
        first sample is always generated at time 0).
        """
        by_time: dict[int, list[str]] = {}
        for kind, i, t in self.events:
            by_time.setdefault(t, []).append(f"{_EVENT_TOKEN[kind]}:{i}")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["n", "delta", "metric", "queue_len", "event"])
        w.writerow([0, self.delta0, _fmt(self.metric0), 0, "|".join(by_time.get(0, []))])
        for n in range(1, self.horizon + 1):
            w.writerow(
                [
                    n,
                    int(self.delta[n - 1]),
                    _fmt(float(self.metric[n - 1])),
                    int(self.queue_len[n - 1]),
                    "|".join(by_time.get(n, [])),
                ]
            )


@dataclass(frozen=True)
class RunSummary:
    """Aggregates of one run; the time average is over steps 1..horizon."""

    time_average: float
    samples_generated: int
    samples_delivered: int
    mean_queue_wait: float
    seed: Optional[int]


def _fmt(x: float) -> str:
    return format(x + 0.0, ".12g")  # +0.0 folds -0.0 into 0


def _waits_table(policy: PolicySpec, dist: ServiceTimeDist) -> np.ndarray:
    if isinstance(policy, ZeroWait):
        return np.zeros(len(dist.support), dtype=np.int64)
    if isinstance(policy, Threshold):
        missing = [y for y in dist.support if y not in policy.waiting]
        if missing:
            raise ValueError(f"threshold waits are missing support point {missing[0]}")
        return np.array([policy.waiting[y] for y in dist.support], dtype=np.int64)
    raise TypeError(f"no waits table for policy {policy!r}")


def _validate_forced(forced: Sequence[int], dist: ServiceTimeDist) -> np.ndarray:
    arr = np.asarray(list(forced), dtype=np.int64)
    if arr.size and not np.isin(arr, dist.support).all():
        bad = arr[~np.isin(arr, dist.support)][0]
        raise ValueError(f"forced service time {bad} is not in the support {dist.support}")
    return arr


def _pi1_schedule(dist, zarr, horizon, rng=None, forced=None):
    """Sample-at-idle policies: S[i+1] = D[i] + Z(Y[i]), no queueing."""
    if forced is None:
        y_all = dist.sample_many(rng, horizon // dist.y_min + 2)
    else:
        y_all = _validate_forced(forced, dist)
    sup = np.asarray(dist.support, dtype=np.int64)
    idx = np.searchsorted(sup, y_all)
    z_all = zarr[idx] if y_all.size else np.zeros(0, dtype=np.int64)
    gen_all = np.concatenate(([0], np.cumsum(y_all + z_all)))
    m = int(np.searchsorted(gen_all, horizon, side="right"))
    if m > len(y_all):
        raise SequenceExhausted(
            f"sample {m} is generated at time {int(gen_all[m - 1])} <= horizon {horizon} "
            f"but only {len(y_all)} forced service times were given"
        )
    s = gen_all[:m]
    y = y_all[:m]
    return s, s.copy(), s + y, y


def _uniform_schedule(dist, period, horizon, rng=None, forced=None):
    """Periodic generation; service starts when the server frees up (FIFO)."""
    m = horizon // period + 1
    if forced is None:
        y = dist.sample_many(rng, m)
    else:
        y = _validate_forced(forced, dist)
        if len(y) < m:
            raise SequenceExhausted(
                f"{m} samples are generated by the horizon but only {len(y)} forced "
                f"service times were given"
            )
        y = y[:m]
    s = np.arange(m, dtype=np.int64) * period
    cum_y = np.cumsum(y)
    d = cum_y + np.maximum.accumulate(s - (cum_y - y))
    start = d - y
    backlog = np.arange(1, m + 1) - np.searchsorted(start, s, side="right")
    peak = int(backlog.max(initial=0))
    if peak > QUEUE_GUARD:
        raise RuntimeError(
            f"queue backlog reached {peak} samples (guard {QUEUE_GUARD}); "
            f"the uniform period {period} is too short for this service distribution"
        )
    return s, start, d, y


def _schedule(policy, dist, horizon, rng=None, forced=None):
    if isinstance(policy, Uniform):
        return _uniform_schedule(dist, policy.period, horizon, rng=rng, forced=forced)
    zarr = _waits_table(policy, dist)
    return _pi1_schedule(dist, zarr, horizon, rng=rng, forced=forced)


def _delivery_segments(s, d, horizon, delta0):
    """Split steps 1..horizon into constant-owner segments.

    Returns (owner generation times, segment lengths); the pre-delivery
    segment has owner -delta0 so that age = n - owner holds throughout.
    """
    k = int(np.searchsorted(d, horizon, side="right"))
    sd, dd = s[:k], d[:k]
    if k == 0:
        return np.array([-delta0], dtype=np.int64), np.array([horizon], dtype=np.int64), 0
    nxt = np.concatenate((dd[1:], [horizon + 1]))
    seg_owner = np.concatenate(([-delta0], sd))
    seg_len = np.concatenate(([dd[0] - 1], np.minimum(nxt, horizon + 1) - dd))
    return seg_owner, seg_len, k


def _hist_from_segments(seg_owner, seg_len, horizon):
    """Histogram of ages over steps 1..horizon (index = age)."""
    starts = np.cumsum(np.concatenate(([1], seg_len[:-1])))  # first step of each segment
    lo = starts - seg_owner
    hi = lo + seg_len
    keep = seg_len > 0
    lo, hi = lo[keep], hi[keep]
    size = int(hi.max()) + 1 if len(hi) else 1
    diff = np.bincount(lo, minlength=size) - np.bincount(hi, minlength=size)
    return np.cumsum(diff)[:-1] if size > 1 else np.zeros(0, dtype=np.int64)


def _average_from_hist(hist, metric, horizon):
    table = metric_table(metric, len(hist))
    table[0] = 0.0  # age 0 never occurs; zeroing it keeps 0 * inf out of the sum
    return float(hist @ table) / horizon


def _build_trace(s, start, d, horizon, delta0, metric):
    seg_owner, seg_len, _ = _delivery_segments(s, d, horizon, delta0)
    delta = np.arange(1, horizon + 1, dtype=np.int64) - np.repeat(seg_owner, seg_len)
    table = metric_table(metric, max(int(delta.max()), delta0) + 1)
    started = start[start <= horizon]
    qdiff = np.bincount(s, minlength=horizon + 1)[: horizon + 1] - np.bincount(
        started, minlength=horizon + 1
    )[: horizon + 1]
    queue_len = np.cumsum(qdiff)[1:]
    events = []
    for i in range(len(s)):
        events.append(("generated", i + 1, int(s[i])))
        if start[i] <= horizon:
            events.append(("service_start", i + 1, int(start[i])))
        if d[i] <= horizon:
            events.append(("delivered", i + 1, int(d[i])))
    events.sort(key=lambda e: (e[2], _EVENT_ORDER[e[0]], e[1]))
    return SimulationTrace(
        horizon=horizon,
        delta0=delta0,
        metric0=float(table[delta0]),
        delta=delta,
        metric=table[delta],
        queue_len=queue_len,
        events=events,
    )


def _summarize(s, start, d, horizon, delta0, metric, seed):
    seg_owner, seg_len, k = _delivery_segments(s, d, horizon, delta0)
    hist = _hist_from_segments(seg_owner, seg_len, horizon)
    avg = _average_from_hist(hist, metric, horizon)
    mean_wait = float(np.mean(start[:k] - s[:k])) if k else 0.0
    return RunSummary(
        time_average=avg,
        samples_generated=len(s),
        samples_delivered=k,
        mean_queue_wait=mean_wait,
        seed=seed,
    )


def simulate(
    policy: PolicySpec,
    metric: "MarkovSourceModel | AgePenalty",
    dist: ServiceTimeDist,
    horizon: int,
    seed: int,
    delta0: int = 1,
    summary_only: bool = False,
) -> tuple[Optional[SimulationTrace], RunSummary]:
    """Run one seeded simulation.

    The first sample is generated at time 0; each sample draws its service
    time at generation.  The age before the first delivery is delta0 + n.
    Fully deterministic given the seed.  With ``summary_only`` the per-step
    trace is not materialized.
    """
    _check_run_args(horizon, delta0)
    rng = np.random.Generator(np.random.PCG64(seed))
    s, start, d, _ = _schedule(policy, dist, horizon, rng=rng)
    summary = _summarize(s, start, d, horizon, delta0, metric, seed)
    trace = None if summary_only else _build_trace(s, start, d, horizon, delta0, metric)
    return trace, summary


def replay(
    policy: PolicySpec,
    metric: "MarkovSourceModel | AgePenalty",
    dist: ServiceTimeDist,
    forced_services: Sequence[int],
    horizon: int,
    delta0: int = 1,
) -> tuple[SimulationTrace, RunSummary]:
    """Like ``simulate`` but service times come from ``forced_services``.

    Raises SequenceExhausted if more samples are generated by the horizon
    than forced service times were provided.
    """
    _check_run_args(horizon, delta0)
    s, start, d, _ = _schedule(policy, dist, horizon, forced=forced_services)
    summary = _summarize(s, start, d, horizon, delta0, metric, None)
    trace = _build_trace(s, start, d, horizon, delta0, metric)
    return trace, summary


def estimate_time_average(
    policy: PolicySpec,
    metric: "MarkovSourceModel | AgePenalty",
    dist: ServiceTimeDist,
    horizon: int,
    seeds: Sequence[int],
    delta0: int = 1,
) -> tuple[float, float]:
    """Across-seed mean and standard error of the per-run time average."""
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for a standard error")
    values = np.array(
        [
            simulate(policy, metric, dist, horizon, seed, delta0, summary_only=True)[1].time_average
            for seed in seeds
        ]
    )
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


def age_histogram(
    policy: PolicySpec,
    dist: ServiceTimeDist,
    horizon: int,
    seed: int,
    delta0: int = 1,
) -> np.ndarray:
    """Counts of each age over steps 1..horizon for one seeded run.

    The time average of any metric is ``hist @ metric(arange) / horizon``,
    exactly as ``simulate`` computes it; sweeps over metric parameters can
    reuse one histogram per seed since the age process does not depend on
    the metric.
    """
    _check_run_args(horizon, delta0)
    rng = np.random.Generator(np.random.PCG64(seed))
    s, _, d, _ = _schedule(policy, dist, horizon, rng=rng)
    seg_owner, seg_len, _ = _delivery_segments(s, d, horizon, delta0)
    return _hist_from_segments(seg_owner, seg_len, horizon)


def _check_run_args(horizon: int, delta0: int) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
