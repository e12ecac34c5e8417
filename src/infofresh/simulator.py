"""Discrete-time FIFO single-server queue simulation of sampling policies.

Samples are generated by a policy, queue FIFO at a single server, and are
delivered after their service time.  The age at step n is the time since
the generation of the freshest delivered sample; a metric (an information
curve or an age penalty) is scored at the age every step.

The engine is vectorized over samples rather than stepped per tick: each
sample's generation, service-start, and delivery times are computed as
arrays, and per-step quantities (age, metric, queue length, events) are
recovered from the delivery intervals as arrays too, down to the trace
CSV, whose bytes are laid out a chunk of rows at a time with no Python
string per row.  This is exact, bit-reproducible given the seed (PCG64),
and fast enough for million-step horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, Optional, Sequence, Union

import numpy as np

from .service import ServiceTimeDist
from .sources import AgePenalty, MarkovSourceModel, metric_table

QUEUE_GUARD = 1_000_000

# Event kinds in the order they happen within one step, and their CSV tokens.
_EVENT_KINDS = ("delivered", "generated", "service_start")
_EVENT_TOKENS = ("deliver:", "gen:", "start:")
_CSV_CHUNK_ROWS = 1 << 15  # rows formatted per write; bounds the memory of write_csv
_COMMA = np.array([ord(",")], dtype=np.uint8)


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
    """Per-step record for n = 1..horizon plus the sample schedule.

    ``delta[n-1]`` is the age at step n, ``metric[n-1]`` the metric at that
    age, and ``queue_len[n-1]`` the number of samples waiting (excluding the
    one in service); ``delta0`` and ``metric0`` belong to step 0.  Sample i
    (1-based) is generated at ``s[i-1]``, enters service at ``start[i-1]``
    and is delivered at ``d[i-1]``; the last two may lie past the horizon.

    ``events`` is derived from the schedule on each access: (kind, sample
    index, time) triples up to the horizon, kind in {generated,
    service_start, delivered}, ordered by time and within a step as
    delivered, generated, service_start.
    """

    horizon: int
    delta0: int
    metric0: float
    delta: np.ndarray
    metric: np.ndarray
    queue_len: np.ndarray
    s: np.ndarray
    start: np.ndarray
    d: np.ndarray

    def _event_steps(self, lo: int, hi: int) -> np.ndarray:
        """Sample index (0 for none) of each event kind at steps lo..hi-1.

        Rows follow ``_EVENT_KINDS``.  One row per kind suffices: service
        times are >= 1, so generation, start and delivery times each
        strictly increase with the sample index.
        """
        steps = np.zeros((len(_EVENT_KINDS), hi - lo), dtype=np.int64)
        for row, times in zip(steps, (self.d, self.s, self.start)):
            a, b = np.searchsorted(times, (lo, hi)).tolist()
            row[times[a:b] - lo] = np.arange(a + 1, b + 1)
        return steps

    @property
    def events(self) -> list[tuple[str, int, int]]:
        steps = self._event_steps(0, self.horizon + 1)
        t, kind = np.nonzero(steps.T)  # time-major, so kinds keep their in-step order
        return [
            (_EVENT_KINDS[k], i, n)
            for n, k, i in zip(t.tolist(), kind.tolist(), steps[kind, t].tolist())
        ]

    def _age_prefixes(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``delta,metric,`` bytes of each distinct age as NUL-padded
        rows of a ``uint8`` table, and the table row of each step 0..horizon.

        Ages key a table of horizon + 1 slots.  Only steps before the first
        delivery can be older than the horizon, and their ages are distinct,
        so each such step keys a slot of its own past the table: nothing is
        sized by delta0.
        """
        rows = self.horizon + 1
        ages = np.concatenate(([self.delta0], self.delta))
        key = np.where(ages < rows, ages, rows + np.arange(rows))
        used = np.zeros(2 * rows, dtype=bool)
        used[key] = True
        step = np.zeros(2 * rows, dtype=np.int64)
        step[key] = np.arange(rows)
        step = step[used]  # a step with each key; the metric is a function of the age
        values = np.where(step > 0, self.metric[step - 1], self.metric0)
        table = np.array([f"{a},{_fmt(v)},".encode("ascii")
                          for a, v in zip(ages[step].tolist(), values.tolist())])
        return table.view(np.uint8).reshape(len(step), -1), (np.cumsum(used) - 1)[key]

    def write_csv(self, f: IO[str]) -> None:
        """Emit rows ``n,delta,metric,queue_len,event`` for n = 0..horizon.

        The n = 0 row carries the initial age and the time-0 events (the
        first sample is always generated at time 0).

        Each chunk of ``_CSV_CHUNK_ROWS`` rows is built as one ``uint8``
        grid: a row per CSV line and a fixed-width slot per field, each
        slot filled for the whole chunk at once.  ``n`` and ``queue_len``
        are right-aligned digits; ``delta,metric,`` is gathered from a
        table holding each distinct age's prefix, formatted once; each
        event kind has a ``|`` where an earlier token of the same step is
        present, then its token and sample index.  Bytes that a row does
        not use stay NUL.  No CSV byte is NUL, so dropping every NUL byte
        removes the padding and nothing else; the chunk is written as that
        one compacted string.
        """
        prefix, which = self._age_prefixes()
        queue = np.concatenate(([0], self.queue_len))
        tokens = [np.frombuffer(f"|{t}".encode("ascii"), dtype=np.uint8) for t in _EVENT_TOKENS]
        f.write("n,delta,metric,queue_len,event\n")
        for lo in range(0, self.horizon + 1, _CSV_CHUNK_ROWS):
            hi = min(lo + _CSV_CHUNK_ROWS, self.horizon + 1)
            q, idx = queue[lo:hi], self._event_steps(lo, hi)
            fields = [_digits(np.arange(lo, hi), _width(hi - 1)), _COMMA,
                      prefix[which[lo:hi]], _digits(q, _width(q.max())), _COMMA]
            widths = [_width(i.max()) for i in idx]
            grid = np.zeros((hi - lo, sum(x.shape[-1] for x in fields)
                             + sum(map(len, tokens)) + sum(widths) + 1), dtype=np.uint8)
            c = 0
            for x in fields:
                grid[:, c:c + x.shape[-1]] = x
                c += x.shape[-1]
            earlier = np.zeros(hi - lo, dtype=bool)
            for token, i, w in zip(tokens, idx, widths):
                at = i != 0
                np.copyto(grid[:, c:c + len(token)], token, where=at[:, None])
                grid[:, c] *= earlier  # the "|" only follows an earlier token
                c += len(token)
                grid[at, c:c + w] = _digits(i[at], w)
                c += w
                earlier |= at
            grid[:, c] = ord("\n")
            f.write(grid[grid != 0].tobytes().decode("ascii"))


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


def _width(value) -> int:
    """Digits in the decimal form of a non-negative integer."""
    return len(str(int(value)))


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of non-negative integers, right-aligned in ``width`` bytes.

    Leading bytes a value does not use are NUL; 0 prints as "0".  The loop
    runs over the ``width`` digit columns, each a whole-array divmod.
    """
    out = np.zeros((len(values), width), dtype=np.uint8)
    v = values.astype(np.int64)
    for col in range(width - 1, -1, -1):
        live = v > 0
        v, r = np.divmod(v, 10)
        np.copyto(out[:, col], r + 48, where=live, casting="unsafe")
    out[:, -1] |= 48  # a value of 0 still prints its last digit
    return out


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
    sup = np.asarray(dist.support, dtype=np.int64)
    cycle = sup + zarr  # steps from a generation to the next, by support index
    if forced is None:
        # Draw 1% and 16 more than the rest of the horizon takes on average, but no
        # more than it can take, until a generation passes the horizon.  PCG64 draws
        # in chunks replay the stream of one large draw, so chunking moves no sample.
        mean, least = float(np.dot(dist.probs, cycle)), int(cycle.min())
        chunks, t = [], 0
        while t <= horizon:
            n = min(int((horizon - t) / mean * 1.01) + 16, (horizon - t) // least + 1)
            chunks.append(dist._sample_indices(rng, n))
            t += int(cycle[chunks[-1]].sum())
        idx = np.concatenate(chunks)
    else:
        idx = np.searchsorted(sup, _validate_forced(forced, dist))
    gen_all = np.concatenate(([0], np.cumsum(cycle[idx])))
    m = int(np.searchsorted(gen_all, horizon, side="right"))
    if m > len(idx):
        raise SequenceExhausted(
            f"sample {m} is generated at time {int(gen_all[m - 1])} <= horizon {horizon} "
            f"but only {len(idx)} forced service times were given"
        )
    s = gen_all[:m]
    return s, s.copy(), s + sup[idx[:m]]


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
    # sample i is generated at i * period, after the samples with ceil(start / period) <= i
    # entered service, so the backlog then is the sum over j <= i of (1 - those started at j)
    backlog = 1 - np.bincount(np.minimum(-(-start // period), m), minlength=m + 1)[:m]
    peak = int(np.cumsum(backlog, out=backlog).max(initial=0))
    if peak > QUEUE_GUARD:
        raise RuntimeError(
            f"queue backlog reached {peak} samples (guard {QUEUE_GUARD}); "
            f"the uniform period {period} is too short for this service distribution"
        )
    return s, start, d


def _run(policy, dist, horizon, delta0, seed=None, forced=None):
    """Check the arguments, then build one run's schedule.

    Service times are drawn from PCG64(``seed``) unless ``forced`` gives them.
    Returns ``(s, start, d, k)``, k the number of samples delivered by the horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    rng = np.random.Generator(np.random.PCG64(seed)) if forced is None else None
    if isinstance(policy, Uniform):
        s, start, d = _uniform_schedule(dist, policy.period, horizon, rng=rng, forced=forced)
    else:
        zarr = _waits_table(policy, dist)
        s, start, d = _pi1_schedule(dist, zarr, horizon, rng=rng, forced=forced)
    return s, start, d, int(np.searchsorted(d, horizon, side="right"))


def _segments(run, horizon, delta0):
    """Split steps 1..horizon into constant-owner segments.

    Returns the owner generation times and each segment's first step and
    one-past-last step.  The pre-delivery segment has owner -delta0 so that
    age = n - owner holds throughout; it is empty if the first delivery is
    at step 1.  Every later segment runs from one delivery to the next.
    """
    s, _, d, k = run
    bounds = np.concatenate(([1], d[:k], [horizon + 1]))
    return np.concatenate(([-delta0], s[:k])), bounds[:-1], bounds[1:]


def _histogram(run, horizon, delta0):
    """Histogram of ages over steps 1..horizon (index = age)."""
    owner, first, end = _segments(run, horizon, delta0)
    lo, hi = first - owner, end - owner  # the ages of a segment are lo .. hi - 1
    j = int(lo[0] == hi[0])  # an empty pre-delivery segment must not set the length
    lo, hi = lo[j:], hi[j:]
    size = int(hi.max()) + 1
    return np.cumsum(np.bincount(lo, minlength=size) - np.bincount(hi, minlength=size))[:-1]


def _build_trace(run, horizon, delta0, metric):
    s, start, d, _ = run
    owner, first, end = _segments(run, horizon, delta0)
    delta = np.arange(1, horizon + 1, dtype=np.int64) - np.repeat(owner, end - first)
    table = metric_table(metric, max(int(delta.max()), delta0) + 1)
    started = start[start <= horizon]
    qdiff = np.bincount(s, minlength=horizon + 1)[: horizon + 1] - np.bincount(
        started, minlength=horizon + 1
    )[: horizon + 1]
    return SimulationTrace(
        horizon=horizon,
        delta0=delta0,
        metric0=float(table[delta0]),
        delta=delta,
        metric=table[delta],
        queue_len=np.cumsum(qdiff)[1:],
        s=s,
        start=start,
        d=d,
    )


def _summarize(run, horizon, delta0, metric, seed):
    s, start, _, k = run
    avg = average_over_seeds([_histogram(run, horizon, delta0)], metric, horizon)[0]
    mean_wait = float(np.mean(start[:k] - s[:k])) if k else 0.0
    return RunSummary(time_average=avg, samples_generated=len(s), samples_delivered=k,
                      mean_queue_wait=mean_wait, seed=seed)


def simulate(
    policy: PolicySpec,
    metric: "MarkovSourceModel | AgePenalty",
    dist: ServiceTimeDist,
    horizon: int,
    seed: int,
    delta0: int = 1,
) -> tuple[SimulationTrace, RunSummary]:
    """Run one seeded simulation; return its per-step trace and its summary.

    The first sample is generated at time 0; each sample draws its service
    time at generation.  The age before the first delivery is delta0 + n.
    Fully deterministic given the seed.  For the time average alone, score
    ``age_histogram`` with ``average_over_seeds``: it skips the trace.
    """
    run = _run(policy, dist, horizon, delta0, seed=seed)
    return (_build_trace(run, horizon, delta0, metric),
            _summarize(run, horizon, delta0, metric, seed))


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
    run = _run(policy, dist, horizon, delta0, forced=forced_services)
    return (_build_trace(run, horizon, delta0, metric),
            _summarize(run, horizon, delta0, metric, None))


def age_histogram(
    policy: PolicySpec,
    dist: ServiceTimeDist,
    horizon: int,
    seed: int,
    delta0: int = 1,
) -> np.ndarray:
    """Counts of each age over steps 1..horizon for one seeded run.

    Built from the sample schedule without the per-step trace: the ages
    between two deliveries run from d_k - s_k up to d_{k+1} - s_k - 1.
    The age process does not depend on the metric, so one histogram per
    seed serves every metric.  ``average_over_seeds`` scores it as
    ``hist @ table[:len(hist)] / horizon``, the arithmetic that gives
    ``simulate``'s ``time_average``, so the two agree bit for bit.
    """
    return _histogram(_run(policy, dist, horizon, delta0, seed=seed), horizon, delta0)


def average_over_seeds(
    hists: Sequence[np.ndarray],
    metric: "MarkovSourceModel | AgePenalty",
    horizon: int,
) -> tuple[float, float]:
    """Across-seed mean and standard error of the metric's time average.

    ``hists`` holds one ``age_histogram`` per seed; one metric table, sized
    to the longest, scores them all.  The standard error is 0 for a single
    seed.
    """
    if not hists:
        raise ValueError("need at least 1 seed for an average")
    table = metric_table(metric, max(len(h) for h in hists))
    table[0] = 0.0  # age 0 never occurs; zeroing it keeps 0 * inf out of the sum
    values = np.array([float(h @ table[: len(h)]) / horizon for h in hists])
    stderr = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(stderr)


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
    hists = [age_histogram(policy, dist, horizon, seed, delta0) for seed in seeds]
    return average_over_seeds(hists, metric, horizon)
