"""Discrete-time FIFO single-server queue simulation of sampling policies.

Samples are generated by a policy, queue FIFO at a single server, and are
delivered after their service time.  The age at step n is the time since
the generation of the freshest delivered sample; a metric (an information
curve or an age penalty) is scored at the age every step.

The engine is vectorized over samples rather than stepped per tick.  A
policy's producer yields the schedule in blocks of ``_CHUNK`` samples,
with one integer carried from a block to the next.  A uniform block holds
each sample's queue wait and sojourn (generation to delivery) and carries
the wait, by Lindley's recursion; a sample-at-idle block holds the
generation, service-start and delivery times and carries the next
generation time.  The age histogram folds the blocks one at a time, a
uniform block with one tally of its sojourns, so a sweep never holds an
array sized by the horizon; a trace derives each block's times,
concatenates them and recovers its per-step quantities (age, metric,
queue length, events) from the delivery intervals as arrays too,
down to the CSV, whose bytes are laid out a chunk of rows at a time with
no Python string per row.  This is exact and bit-reproducible given the
seed: PCG64 draws in blocks replay the stream of one large draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .service import ServiceTimeDist
from .sources import AgePenalty, MarkovSourceModel, metric_table

QUEUE_GUARD = 1_000_000

# Event kinds in the order they happen within one step, and their CSV tokens.
_EVENT_KINDS = ("delivered", "generated", "service_start")
_EVENT_TOKENS = ("deliver:", "gen:", "start:")
# Samples per schedule block.  Alternating benchmark runs of sweep-q (2-core Xeon
# VM, 2 MiB L2 per core) put 1 << 15 7% ahead of 1 << 13 and 2% ahead of 1 << 14;
# at 1 << 16 (512 KiB arrays, likely past what L2 holds of a block) the sweep is
# 45% slower.  A block's 256 KiB arrays lie past glibc's initial 128 KiB mmap
# threshold.  A process that has freed a larger array, as the benchmark has, gets
# them from the heap with no faults; a fresh `infofresh sweep` faults about twice
# as many pages as at 1 << 13 (10k vs 5k) and takes the same CPU time.
_CHUNK = 1 << 15
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
    """Sample-at-idle policies: S[i+1] = D[i] + Z(Y[i]), no queueing.

    Yields ``(s, start, d)`` blocks, carrying the next generation time from
    one to the next, until a generation passes the horizon.  A forced
    replay is one block.
    """
    sup = np.asarray(dist.support, dtype=np.int64)
    cycle = sup + zarr  # steps from a generation to the next, by support index
    mean, least = float(np.dot(dist.probs, cycle)), int(cycle.min())
    t = 0  # the next generation time
    while t <= horizon:
        if forced is None:
            # Draw 1% and 16 more than the rest of the horizon takes on average, but
            # no more than it can take, nor more than a block.  PCG64 draws in blocks
            # replay the stream of one large draw, so blocking moves no sample.
            n = min(int((horizon - t) / mean * 1.01) + 16, (horizon - t) // least + 1, _CHUNK)
            idx = dist._sample_indices(rng, n)
        else:
            idx = np.searchsorted(sup, _validate_forced(forced, dist))
        gen = np.cumsum(np.concatenate(([t], cycle[idx])))
        m = int(np.searchsorted(gen, horizon, side="right"))
        if m > len(idx):
            if forced is not None:
                raise SequenceExhausted(
                    f"sample {m} is generated at time {int(gen[m - 1])} <= horizon {horizon} "
                    f"but only {len(idx)} forced service times were given"
                )
            m = len(idx)
        s = gen[:m]
        yield s, s, s + sup[idx[:m]]
        t = int(gen[m])


class _Queued(NamedTuple):
    """A block of a uniform run: samples ``first``.. (0-based), sample i
    generated at ``i * period``, with each one's queue ``wait`` and its
    ``sojourn``, the wait plus the service time (generation to delivery)."""

    first: int
    period: int
    wait: np.ndarray
    sojourn: np.ndarray


def _times(block):
    """A block's generation, service-start and delivery times ``(s, start, d)``."""
    if isinstance(block, _Queued):
        s = np.arange(block.first, block.first + len(block.wait), dtype=np.int64) * block.period
        return s, s + block.wait, s + block.sojourn
    return block


def _uniform_schedule(dist, period, horizon, rng=None, forced=None):
    """Periodic generation; service starts when the server frees up (FIFO).

    Yields ``_Queued`` blocks of ``_CHUNK`` samples (a forced replay is one
    block).  The queue's only state from one sample to the next is the wait,
    by Lindley's recursion W' = max(0, W + y - period), so a block carries the
    wait alone.  With F the running sum of y - period before each sample and
    c the wait carried in, W = c + F - min(0, c + min F), min F over the block
    so far: one prefix sum of 0, c and the block's y - period but the last,
    and its running minimum, both exact in integers.
    """
    m = horizon // period + 1
    if forced is None:
        ys = (dist.sample_many(rng, min(_CHUNK, m - o)) for o in range(0, m, _CHUNK))
    else:
        y = _validate_forced(forced, dist)
        if len(y) < m:
            raise SequenceExhausted(
                f"{m} samples are generated by the horizon but only {len(y)} forced "
                f"service times were given"
            )
        ys = [y[:m]]
    o = wait = peak = 0
    guarded = False
    for y in ys:
        n = len(y)
        g = np.empty(n + 1, dtype=np.int64)
        g[:2] = 0, wait
        np.subtract(y[:-1], period, out=g[2:])
        np.cumsum(g, out=g)  # 0, then c + F
        low = np.minimum.accumulate(g)  # 0, then min(0, c + min F)
        w = np.subtract(g[1:], low[1:], out=g[1:])  # W = c + F - min(0, c + min F)
        a = np.add(w, y, out=low[1:])
        if not guarded:
            # Sample k (0-based) starts at k * period + W_k.  By the generation at
            # (c - 1) * period, c = k + min(ceil(W_k / period), m - k), c samples are
            # generated and at most k started, as sample k had not; the first sample
            # not yet started makes that exact, so the backlog peaks at max_k c - k.
            # No cap m - k binds in a block whose largest ceil(W / period) is at most
            # its last cap.  Once a delivery passes the horizon, every later sample
            # starts past it at c = m, so the next sample holds the peak of them all.
            top = -(-int(w.max()) // period)
            if top > m - (o + n - 1):
                top = int(np.minimum(-(-w // period), m - np.arange(o, o + n)).max())
            peak = max(peak, top)
            if (o + n - 1) * period + int(a[-1]) > horizon or o + n == m:
                peak, guarded = max(peak, m - o - n), True
                if peak > QUEUE_GUARD:
                    raise RuntimeError(
                        f"queue backlog reached {peak} samples (guard {QUEUE_GUARD}); "
                        f"the uniform period {period} is too short for this service "
                        f"distribution"
                    )
        o, wait = o + n, max(int(a[-1]) - period, 0)
        # Free the draws now: held until the next draw, they leave enough free heap
        # top, once the block is dropped, for glibc to trim and the next to fault back.
        del y
        yield _Queued(o - n, period, w, a)


def _schedule(policy, dist, horizon, delta0, seed=None, forced=None):
    """Check the arguments, then return the producer of one run's schedule blocks.

    Service times are drawn from PCG64(``seed``) unless ``forced`` gives them.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    rng = np.random.Generator(np.random.PCG64(seed)) if forced is None else None
    if isinstance(policy, Uniform):
        return _uniform_schedule(dist, policy.period, horizon, rng=rng, forced=forced)
    zarr = _waits_table(policy, dist)
    return _pi1_schedule(dist, zarr, horizon, rng=rng, forced=forced)


def _run(policy, dist, horizon, delta0, seed=None, forced=None):
    """One run's ``(s, start, d, k)``, its blocks' times concatenated (k the
    number of samples delivered by the horizon), and its age histogram."""
    blocks = list(_schedule(policy, dist, horizon, delta0, seed, forced))
    s, start, d = map(np.concatenate, zip(*map(_times, blocks)))
    run = s, start, d, int(np.searchsorted(d, horizon, side="right"))
    return run, _histogram(blocks, horizon, delta0)


def _grow(acc, n):
    """``acc`` zero-extended to at least ``n`` entries."""
    return acc if len(acc) >= n else np.concatenate((acc, np.zeros(n - len(acc), dtype=np.int64)))


def _histogram(blocks, horizon, delta0):
    """Histogram of ages over steps 1..horizon (index = age), folded from a
    run's schedule blocks up to the first with a delivery past the horizon.

    The sample generated at s_i owns ages d_i - s_i .. d_{i+1} - s_i - 1, and
    the run opens with one generated at -delta0, from step 1.  ``diff``
    counts each segment's first age less its one-past-last age (an empty
    opening segment cancels); its running sum, up to the largest
    one-past-last age, is the histogram.  A uniform block tallies its
    sojourns A_i once: d_{i+1} - s_i = A_{i+1} + period, so the one-past-last
    counts are those counts shifted by the period, but for sample 0's, which
    closes the opening segment at A_0 + delta0.
    """
    diff = np.zeros(0, dtype=np.int64)
    owner = -delta0  # generation time of the latest sample delivered
    firsts, ends = [1 + delta0], []  # single ages, counted at the end
    for block in blocks:
        if isinstance(block, _Queued):
            a, period, n = block.sojourn, block.period, len(block.sojourn)
            k = n
            if (block.first + n - 1) * period + int(a[-1]) > horizon:
                k = int(np.searchsorted(_times(block)[2], horizon, side="right"))
            if k:
                counts = np.bincount(a[:k])
                diff = _grow(diff, len(counts) + period)
                diff[: len(counts)] += counts
                diff[period: period + len(counts)] -= counts
                if block.first == 0:  # move sample 0's shifted count
                    firsts.append(int(a[0]) + period)
                    ends.append(int(a[0]) + delta0)
                owner = (block.first + k - 1) * period
        else:
            s, _, d = block
            n = len(d)
            k = int(np.searchsorted(d, horizon, side="right"))
            if k:
                lo, hi = np.bincount(d[:k] - s[:k]), np.bincount(d[1:k] - s[: k - 1])
                diff = _grow(diff, max(len(lo), len(hi)))
                diff[: len(lo)] += lo
                diff[: len(hi)] -= hi
                ends.append(int(d[0]) - owner)  # the segment open before the block
                owner = int(s[k - 1])
        if k < n:
            break
    ends.append(horizon + 1 - owner)
    diff = _grow(diff, max(firsts + ends) + 1)
    np.add.at(diff, firsts, 1)
    np.subtract.at(diff, ends, 1)
    return np.cumsum(diff[: np.flatnonzero(diff)[-1]])


def _build_trace(run, horizon, delta0, metric):
    s, start, d, k = run
    # age = n - owner: the sample generated at s[i] owns the steps from its delivery to
    # the next, and the run opens at step 1 owned by one generated at -delta0
    owner = np.concatenate(([-delta0], s[:k]))
    steps = np.diff(np.concatenate(([1], d[:k], [horizon + 1])))
    delta = np.arange(1, horizon + 1, dtype=np.int64) - np.repeat(owner, steps)
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


def _summarize(run, hist, horizon, metric, seed):
    s, start, d, k = run
    avg = average_over_seeds([hist], metric, horizon)[0]
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
    run, hist = _run(policy, dist, horizon, delta0, seed=seed)
    return (_build_trace(run, horizon, delta0, metric),
            _summarize(run, hist, horizon, metric, seed))


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
    run, hist = _run(policy, dist, horizon, delta0, forced=forced_services)
    return (_build_trace(run, horizon, delta0, metric),
            _summarize(run, hist, horizon, metric, None))


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
    The schedule's blocks are folded one at a time and dropped, a uniform
    block with one tally of its sojourns d_k - s_k (it carries the queue
    wait to the next block), and the fold stops at the first delivery past
    the horizon, so memory stays bounded by the block and the oldest age,
    not by the horizon.
    The age process does not depend on the metric, so one histogram per
    seed serves every metric.  ``average_over_seeds`` scores it as
    ``hist @ table[:len(hist)] / horizon``, the arithmetic that gives
    ``simulate``'s ``time_average``, so the two agree bit for bit.
    """
    return _histogram(_schedule(policy, dist, horizon, delta0, seed=seed), horizon, delta0)


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
