"""Discrete-time FIFO single-server queue simulation of sampling policies.

Samples are generated by a policy, queue FIFO at a single server, and are
delivered after their service time.  The age at step n is the time since
the generation of the freshest delivered sample; a metric (an information
curve or an age penalty) is scored at the age every step.

The engine is vectorized over samples rather than stepped per tick.  A
policy is ``Uniform(period)`` or a waiting function Z, which waits Z(y)
after delivering a sample served in y steps: zero-wait is Z identically 0
(``zero_waiting``), and the threshold rule is the solver's waits.  Each is
a generation gap, the steps from one generation to the next: the period,
or y + Z(y).  One producer yields the schedule in blocks of ``_CHUNK``
samples, each sample's queue wait and its sojourn (generation to delivery).
A gap of y + Z(y), or a period >= y_max, delivers each sample by the next
generation, so none waits and the sojourns are the service times.  A shorter
period takes its waits from Lindley's recursion W' = max(0, W + y - gap) and
carries the next generation time and wait to the next block.  The age histogram
folds the blocks one at a time, a constant gap with one tally of its
sojourns, so a sweep never holds an array sized by the horizon.  A trace is
built from the same blocks ``_CSV_CHUNK_ROWS`` steps at a time, from the
samples that reach into a chunk and the owner carried in, and recovers its
ages and metric values from the delivery intervals as arrays too.  The writer
counts the queue, generated less started by each step, from the same times,
and lays a chunk out in 8-byte words written as bytes to a binary stream, the
event words only where their events happen, found by a binary search of the
times.  Step numbers and sample indices count up by one, so their digits are
slices of a digit table; only the queue is divided into digits.  A chunk whose
samples start as generated never queues: its 0 ends each age's
``,delta,metric,0`` words, and each start is written with its generation,
unsearched.  ``trace`` writes each chunk as it is built, so its memory does
not grow with the horizon (a 43 MB peak at 2e7 steps); a caller that wants
whole-run arrays concatenates the chunks.
This is exact and bit-reproducible given the seed: PCG64 draws in blocks
replay the stream of one large draw.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import IO, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .service import ServiceTimeDist
from .solver import WaitingFunction
from .sources import AgePenalty, MarkovSourceModel, metric_table

QUEUE_GUARD = 1_000_000

# Samples per schedule block.  Alternating benchmark runs of sweep-q (2-core Xeon
# VM, 2 MiB L2 per core) put 1 << 15 7% ahead of 1 << 13 and 2% ahead of 1 << 14;
# at 1 << 16 (512 KiB arrays, likely past what L2 holds of a block) the sweep is
# 45% slower.  A block's 256 KiB arrays lie past glibc's initial 128 KiB mmap
# threshold.  A process that has freed a larger array, as the benchmark has, gets
# them from the heap with no faults; a fresh `infofresh sweep` faults about twice
# as many pages as at 1 << 13 (10k vs 5k) and takes the same CPU time.
_CHUNK = 1 << 15
# Steps per trace chunk, which bounds a whole trace's working set.  On trace-long
# (same VM, 6 alternating pairs each) 1 << 14 runs 8% faster but peaks 1.2 MB higher
# (50.1 vs 48.9 MB), and 1 << 12 peaks 1.5 MB lower but runs 16% slower.
_CSV_CHUNK_ROWS = 1 << 13
# Trace CSV words, little-endian: separators, event tokens, newline, a last digit 0.
_COMMA, _DELIVER, _GEN, _START, _BAR, _COLON, _NEWLINE, _ZERO = (
    np.uint64(int.from_bytes(t.encode(), "little"))
    for t in (",", "\0deliver", "\0gen", "\0start", "|", ":", "\n", "\0" * 7 + "0"))


class SequenceExhausted(Exception):
    """A run ran out of forced service times before the horizon."""


@dataclass(frozen=True)
class Uniform:
    """Generate at fixed multiples of ``period`` even while the server is
    busy; overflow samples wait in the FIFO queue."""

    period: int

    def __post_init__(self) -> None:
        if not (isinstance(self.period, (int, np.integer)) and self.period >= 1):
            raise ValueError(f"period must be an integer >= 1, got {self.period!r}")


# A policy is ``Uniform`` or a waiting function Z, a mapping from service time y
# to the wait after its delivery: zero-wait is ``solver.zero_waiting(dist)``, and
# the paper's threshold rule is ``solve_beta(...).waiting``.
PolicySpec = Union[Uniform, Mapping[int, int]]


def _fmt(x: float) -> str:
    return format(x + 0.0, ".12g")  # +0.0 folds -0.0 into 0


@functools.cache
def _digit_groups() -> np.ndarray:
    """Each 4-digit group as ASCII in bytes 0-3 of a little-endian word: entry
    x < 10**4 unpadded (leading zeros NUL, 0 all NUL), 10**4 + x zero-padded."""
    x = np.arange(10_000)[:, None]
    place = 10 ** np.arange(3, -1, -1)  # byte 0: thousands
    digit = x // place % 10 + ord("0")
    text = np.concatenate((np.where(x >= place, digit, 0), digit)).astype(np.uint8)
    groups = text.view("<u4").ravel().astype("<u8")
    groups.flags.writeable = False  # shared by every caller
    return groups


def _decimal(values: np.ndarray, out: np.ndarray) -> None:
    """Write non-negative integers below 10**(8 * len(out)) as ASCII digits,
    right-aligned in the word rows of ``out``; leading bytes and 0 are NUL.
    A word is two ``_digit_groups`` entries: min(v, v % 10**4 + 10**4) pads
    v's last group exactly when v >= 10**4."""
    groups = _digit_groups()
    q = values
    for j in range(len(out) - 1, -1, -1):  # the last word holds the lowest digits
        above = q // 10_000
        tail = groups[np.minimum(q, q - above * 10_000 + 10_000)] << 32
        if j:
            q = above // 10_000
            above = np.minimum(above, above - q * 10_000 + 10_000)
        np.bitwise_or(groups[above], tail, out=out[j])


def _counting(lo: int, count: int, out: np.ndarray) -> None:
    """Write the words ``_decimal(np.arange(lo, lo + count), out)`` writes,
    without dividing.  Values that share v // 10**4 are that quotient's
    digits, spelled once, above a slice of ``_digit_groups``: the padded
    entries 10**4 + v % 10**4 past a quotient of 0, else the unpadded ones."""
    groups, width, i = _digit_groups(), 8 * len(out) - 4, 0
    while i < count:
        hi, low = divmod(lo + i, 10_000)
        j = min(count, i + 10_000 - low)
        # hi's digits end where the low group's 4 bytes begin
        head = np.frombuffer(f"{hi or ''}".encode().rjust(width, b"\0") + bytes(4), "<u8")
        out[:-1, i:j] = head[:-1, None]
        low += 10_000 if hi else 0
        np.left_shift(groups[low:low + j - i], 32, out=out[-1, i:j])
        out[-1, i:j] |= head[-1]
        i = j


def _words(ages: np.ndarray, values: np.ndarray, tail: str) -> np.ndarray:
    """Each age's ``,delta,metric,{tail}`` in NUL-padded little-endian words, a column each."""
    text = np.array([f",{a},{_fmt(v)},{tail}".encode("ascii")
                     for a, v in zip(ages.tolist(), values.tolist())])
    return text.astype(f"S{-(-text.itemsize // 8) * 8}").view("<u8").reshape(len(text), -1).T


class _Prefixes:
    """Each age's ``_words``, ending in ``tail``, in a column, filled in (from 0)
    as chunks reach it."""

    def __init__(self, tail: str) -> None:
        self.table, self.tail = np.zeros((1, 0), dtype="<u8"), tail

    def columns(self, delta: np.ndarray, metric: np.ndarray) -> np.ndarray:
        """The table, with a column for each of a chunk's ages ``delta``."""
        table, size = self.table, self.table.shape[1]
        top = int(delta.max()) + 1
        if top > size:  # doubling, so ages that keep growing cost linear time
            table = np.pad(table, ((0, 0), (0, max(top, 2 * size) - size)))
        new = np.flatnonzero(table[0].take(delta) == 0)
        if len(new):
            fresh, at = np.unique(delta[new], return_index=True)
            words = _words(fresh, metric[new[at]], self.tail)  # metric is a function of age
            if len(words) > len(table):  # np.pad copies even when it adds nothing
                table = np.pad(table, ((0, len(words) - len(table)), (0, 0)))
            table[:len(words), fresh] = words
        self.table = table
        return table


def write_trace(f: IO[bytes], chunks) -> None:
    """Write a trace's ``trace_chunks`` as rows ``n,delta,metric,queue_len,event``
    in ASCII to the binary stream ``f``, each chunk as it comes.

    Each chunk is a grid of little-endian ``uint64`` words stored slot by
    slot, so a field fills each of its words for the chunk with one array
    write.  A field takes the whole words its widest value needs; unused
    bytes stay NUL.  A row is the newline and ``n``, ``,delta,metric,`` from
    a table of each age's prefix, ``queue_len``, and per event kind a token
    word (``,deliver`` ends ``queue_len``; ``|`` follows an earlier token)
    and ``:`` with the sample index.  ``n`` and the sample indices count up
    by one, so ``_counting`` writes them; ``_decimal`` spells ``queue_len``.
    The event slots start NUL and are written only at their kind's steps,
    found by a binary search of the kind's times: service times are >= 1,
    so generation, start and delivery times each strictly increase with the
    sample index, and a step holds at most one event of each kind.
    ``queue_len`` is the samples generated less those started by the step:
    +1 at each generation and -1 at each start in the chunk, summed from the
    chunk's samples generated and not started before ``lo``.  A chunk whose
    ``start`` is its ``s`` starts each sample as it is generated, so it
    never queues: each start is written at its generation step, after the
    gen token and with its index words, unsearched, and ``queue_len`` 0 ends
    each age's prefix, ``,delta,metric,0``, with no queue words.  No CSV
    byte is NUL, so dropping the grid's NULs, read row by row, leaves the
    text.  The grid, index and ``fired`` buffers grow to the widest chunk
    given, and the prefix table to the oldest age.
    """
    prefixes = _Prefixes(""), _Prefixes("0")  # by route: a chunk whose start is s adds the 0
    grids = np.empty(0, dtype="<u8")
    index = np.empty((3, 0), dtype="<u8")  # an int64 has at most 3 words of digits
    fired = np.empty(0, dtype=bool)  # an earlier kind fired at the step
    f.write(b"n,delta,metric,queue_len,event")
    for lo, delta, metric, first, s, start, d in chunks:
        rows, folded = len(delta), start is s
        table = prefixes[folded].columns(delta, metric)
        spans = [np.searchsorted(times, (lo, lo + rows)).tolist() for times in (d, s, start)]
        n, p = len(str(lo + rows - 1)) // 8 + 1, len(table)
        w = len(str(first + len(s))) // 8 + 1  # sample-index words, with a byte for the colon
        c = n + p  # the first event word
        if not folded:  # samples generated less those started by each step
            queue = np.zeros(rows, dtype=np.int64)
            for times, (a, b), step in zip((s, start), spans[1:], (1, -1)):
                queue[times[a:b] - lo] += step
            np.cumsum(queue, out=queue)
            queue += spans[1][0] - spans[2][0]  # those carried in from before lo
            c += -(-len(str(queue.max())) // 8)
        size = c + 3 * (1 + w)
        if len(grids) < size * rows:
            grids = np.empty(size * rows, dtype="<u8")
        if len(fired) < rows:
            index, fired = np.empty((3, rows), dtype="<u8"), np.empty(rows, dtype=bool)
        grid = grids[:size * rows].reshape(size, rows)
        _counting(lo, rows, grid[:n])
        grid[0] |= _NEWLINE
        grid[n - 1, 0] |= _ZERO  # n = 0 prints its digit
        # every age is a column of table: "clip" never clips, unbuffered
        np.take(table, delta, axis=1, out=grid[n:n + p], mode="clip")
        if not folded:
            _decimal(queue, grid[n + p:c])
            grid[c - 1] |= _ZERO
        grid[c:] = 0
        fired[:rows] = False
        # the kinds in the order they happen within one step
        for row, times, (a, b), token in zip(range(c, size, 1 + w), (d, s, start), spans,
                                             (_DELIVER, _GEN, _START)):
            if token is _START and folded:  # each sample starts as it is generated
                grid[row][at] = _START | _BAR
            else:
                at = times[a:b] - lo
                grid[row][at] = token | fired[at] * _BAR
                fired[at] = True
                digits = index[:w, :b - a]
                _counting(first + a + 1, b - a, digits)
                digits[0] |= _COLON
            for j, word in enumerate(digits, row + 1):
                grid[j][at] = word
        grid[c] |= _COMMA
        f.write(grid.T.tobytes().translate(None, b"\0"))
    f.write(b"\n")


def _support_indices(forced: Sequence[int], dist: ServiceTimeDist) -> np.ndarray:
    """Each forced service time's index in ``dist``'s support, which must hold it exactly."""
    sup, arr = np.asarray(dist.support), np.asarray(list(forced))
    idx = np.minimum(np.searchsorted(sup, arr), len(sup) - 1)
    bad = arr[sup[idx] != arr]
    if len(bad):
        raise ValueError(f"forced service time {bad[0]} is not in the support {dist.support}")
    return idx


class _Block(NamedTuple):
    """Samples generated from time ``t`` to ``last``, each ``gap`` steps before
    the next (one gap for all, or an array of each one's), with each one's
    queue ``wait``, None in a run where no sample can wait, and its
    ``sojourn``, the wait plus the service time (generation to delivery)."""

    t: int
    last: int
    gap: Union[int, np.ndarray]
    wait: Optional[np.ndarray]
    sojourn: np.ndarray


def _times(block):
    """A block's generation, service-start and delivery times ``(s, start, d)``.
    A block without waits starts each sample as it is generated: its
    ``start`` is ``s`` itself."""
    s = np.zeros(len(block.sojourn), dtype=np.int64)
    s += block.gap
    np.cumsum(s, out=s)
    s += block.t - block.gap  # t plus the gaps before each sample
    start = s if block.wait is None else s + block.wait
    return s, start, s + block.sojourn


def _schedule(policy, dist, horizon, seed=None, forced=None):
    """Check the arguments, then yield one run's schedule as ``_Block``s.

    Service times are given by ``forced``, as one block of support indices,
    or else drawn from PCG64(``seed``): as many as the rest of the horizon
    can generate, one per least gap, (horizon - t) // least + 1, but at most
    ``_CHUNK``, so every block but the last is full.  A policy is its gap by
    support index: a ``Uniform``'s period, or y + Z(y) for a mapping Z of
    waits, checked as a ``WaitingFunction``; any other is a TypeError.  A
    block carries the next generation time, until a generation passes the
    horizon; the last block may hold samples generated past it.  Only the
    first block can raise; the fold that reads the blocks decides where the
    run ends.  If every sample's gap is at least its service (y + Z(y) >= y,
    or a period >= y_max), each is delivered by the next generation: the
    blocks carry no waits and their service times as sojourns, with no scan.
    Otherwise the queue's only state from one sample to the next is the wait,
    by Lindley's recursion W' = max(0, W + y - gap), carried too.  With F the
    running sum of y - gap before each sample and c the wait carried in,
    W = c + F - min(0, c + min F), min F over the block so far: one prefix
    sum of 0, c and the block's y - gap, and its running minimum, both exact
    in integers; the last W is the next block's wait.
    """
    if not (isinstance(horizon, (int, np.integer)) and horizon >= 1):
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    if forced is not None and seed is not None:
        raise ValueError("seed and forced exclude each other: pass one")
    # a seed of None would draw OS entropy: every run must replay from its seed
    if forced is None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    sup = np.asarray(dist.support, dtype=np.int64)
    if isinstance(policy, Uniform):
        gaps = min(policy.period, horizon + 1)  # past the horizon, only time 0 generates
    elif isinstance(policy, Mapping):
        gaps = sup + WaitingFunction(policy).aligned(dist.support)
    else:
        raise TypeError(f"policy must be Uniform or a waiting function, got {policy!r}")
    least, queues = int(np.min(gaps)), bool(np.any(gaps < sup))
    if forced is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    else:
        forced = _support_indices(forced, dist)
    t = wait = 0  # the next generation time and its sample's wait
    while t <= horizon:
        n = min((horizon - t) // least + 1, _CHUNK)
        idx = dist.sample_indices(rng, n) if forced is None else forced
        y = sup[idx]
        if isinstance(gaps, np.ndarray):  # each sample's own gap, by its support index
            gap = gaps[idx]
            last, nxt = t + int(gap[:-1].sum()), t + int(gap.sum())
        else:
            gap, last, nxt = gaps, t + (len(y) - 1) * gaps, t + len(y) * gaps
        del idx  # freed before the scan, whose arrays can then reuse its pages
        n = len(y)
        if forced is not None and nxt <= horizon:
            raise SequenceExhausted(
                f"sample {n + 1} is generated at time {nxt} <= horizon {horizon} "
                f"but only {n} forced service times were given"
            )
        if not queues:
            block = _Block(t, last, gap, None, y)
        else:
            g = np.empty(n + 2, dtype=np.int64)
            g[:2] = 0, wait
            np.subtract(y, gap, out=g[2:])
            np.cumsum(g, out=g)  # 0, then c + F
            low = np.minimum.accumulate(g)  # 0, then min(0, c + min F)
            w = np.subtract(g[1:], low[1:], out=g[1:])  # W = c + F - min(0, c + min F)
            a = np.add(w[:n], y, out=low[1:-1])
            block = _Block(t, last, gap, w[:n], a)
            wait = int(w[n])
        t = nxt
        # Free the draws now: held until the next draw, they leave enough free heap
        # top, once the block is dropped, for glibc to trim and the next to fault back.
        del y
        yield block


def _grow(acc, n):
    """``acc`` zero-extended to at least ``n`` entries."""
    return acc if len(acc) >= n else np.concatenate((acc, np.zeros(n - len(acc), dtype=np.int64)))


def _histogram(blocks, horizon):
    """Histogram of ages over steps 1..horizon (index = age), folded from a
    run's schedule blocks up to the first with a delivery past the horizon.

    The sample generated at s_i owns ages d_i - s_i .. d_{i+1} - s_i - 1, and
    the run opens with one generated at -1, from step 1.  ``diff``
    counts each segment's first age less its one-past-last age (an empty
    opening segment cancels); its running sum, up to the largest
    one-past-last age, is the histogram.  In a block the first ages are the
    sojourns A_i and the one-past-last ages d_{i+1} - s_i = A_{i+1} + gap_i;
    the segment open before the block closes at its first delivery.  A
    constant gap tallies the sojourns once: its one-past-last counts are
    those counts shifted by the gap.  That counts A_0 + gap too, where no
    segment of the block ends (the one before it ends at its first
    delivery), so it is added back as a single first age.  A run that can
    queue checks its backlog peak so far against ``QUEUE_GUARD`` at each
    block, so it stops at the block where the backlog passes the guard.
    """
    diff = np.zeros(0, dtype=np.int64)
    owner = -1  # generation time of the latest sample delivered
    firsts, ends = [1 - owner], []  # single ages, counted at the end
    peak = 0  # the backlog peak so far
    for block in blocks:
        t, last, gap, w, a = block
        n = k = len(a)
        if last + int(a[-1]) > horizon:
            s, _, d = _times(block)
            k = int(np.searchsorted(d, horizon, side="right"))
        if w is not None:
            # Sample j (0-based) starts at j * period + W_j.  By the generation at
            # (c - 1) * period, c = j + min(ceil(W_j / period), m - j), c samples are
            # generated and at most j started, as sample j had not; the first sample
            # not yet started makes that exact, so the backlog peaks at max_j c - j.
            # A cap binds only for a start past the horizon, where the fold stops; after it, c = m.
            m, o = horizon // gap + 1, t // gap
            if k < n:
                caps = m - np.arange(o, o + n)
                peak = max(peak, m - o - n, int(np.minimum(-(-w // gap), caps).max()))
            else:
                peak = max(peak, -(-int(w.max()) // gap))
            if peak > QUEUE_GUARD:
                raise RuntimeError(f"queue backlog reached {peak} samples (guard {QUEUE_GUARD}); "
                                   f"the uniform period {gap} is too short for this service "
                                   f"distribution")
        if k:
            counts = np.bincount(a[:k])
            if isinstance(gap, np.ndarray):
                shut = np.bincount(a[1:k] + gap[: k - 1])
                diff = _grow(diff, max(len(counts), len(shut)))
                diff[: len(shut)] -= shut
            else:
                diff = _grow(diff, len(counts) + gap)
                diff[gap: gap + len(counts)] -= counts
                firsts.append(int(a[0]) + gap)
            diff[: len(counts)] += counts
            ends.append(t + int(a[0]) - owner)  # the segment open before the block
            owner = last if k == n else int(s[k - 1])
        if k < n:
            break
    ends.append(horizon + 1 - owner)
    diff = _grow(diff, max(firsts + ends) + 1)
    np.add.at(diff, firsts, 1)
    np.subtract.at(diff, ends, 1)
    return np.cumsum(diff[: np.flatnonzero(diff)[-1]])


def trace_chunks(policy, metric, dist, horizon, seed=None, forced=None):
    """Yield one run's trace in chunks of ``_CSV_CHUNK_ROWS`` steps from
    ``lo``, drawing ``_schedule``'s blocks as they reach them: ``(lo, delta,
    metric, first, s, start, d)``, each step's age and metric value, and the
    times of samples ``first`` + 1 on, which hold every sample with an event
    in the chunk or waiting at ``lo``.  The chunks' ``delta`` and ``metric``,
    concatenated, are the run's per-step arrays for steps 0..horizon.  In a
    run where no sample can wait every sample starts as it is generated: its
    ``start`` is ``s`` itself.  A run that can queue, seeded or forced,
    first folds its schedule once with ``_histogram``, whose backlog guard
    trips before the first chunk.

    The sample generated at s_i owns the steps from its delivery to the
    next, at age n - s_i, and one generated at -1 opens the run.  Steps
    [lo, hi) need the samples generated before hi and not delivered before
    lo, and the owner at lo - 1.  The metric table doubles when an age
    passes it; no entry depends on its length.
    """
    forced = None if forced is None else list(forced)  # a run that can queue reads it twice
    blocks = _schedule(policy, dist, horizon, seed, forced)
    s, start, d = _times(next(blocks))  # the first block checks the arguments
    queues = start is not s  # a sample of the run can wait
    if queues:
        _histogram(_schedule(policy, dist, horizon, seed, forced), horizon)
    first, owner, table = 0, -1, np.zeros(0)
    for lo in range(0, horizon + 1, _CSV_CHUNK_ROWS):
        hi = min(lo + _CSV_CHUNK_ROWS, horizon + 1)
        while not (len(s) and s[-1] >= hi):
            block = next(blocks, None)
            if block is None:
                break
            s2, start2, d2 = _times(block)
            s, d = np.concatenate((s, s2)), np.concatenate((d, d2))
            start = np.concatenate((start, start2)) if queues else s
        k = int(np.searchsorted(d, hi))  # the samples delivered in the chunk
        owners = np.concatenate(([owner], s[:k]))
        ends = np.concatenate(([lo], d[:k], [hi]))
        delta = np.arange(lo, hi) - owners.repeat(ends[1:] - ends[:-1])
        top = int(delta.max())
        if top >= len(table):
            table = metric_table(metric, max(top + 1, 2 * len(table)))
        yield lo, delta, table[delta], first, s, start, d
        owner = int(owners[-1])
        s, d, first = s[k:], d[k:], first + k
        start = start[k:] if queues else s


def age_histogram(
    policy: PolicySpec,
    dist: ServiceTimeDist,
    horizon: int,
    seed: int,
) -> np.ndarray:
    """Counts of each age over steps 1..horizon for one seeded run.

    Built from the sample schedule without the per-step trace: the ages
    between two deliveries run from d_k - s_k up to d_{k+1} - s_k - 1.
    The schedule's blocks are folded one at a time and dropped, a block of
    one gap (uniform) with one tally of its sojourns d_k - s_k, and the
    fold stops at the first delivery past the horizon, so memory stays
    bounded by the block and the oldest age, not by the horizon.
    The age process does not depend on the metric, so one histogram per
    seed serves every metric.  ``average_over_seeds`` scores it as
    ``hist @ table[:len(hist)] / horizon``.  It equals the bincount of
    the ages ``trace_chunks`` yields for steps 1..horizon, entry for entry.
    """
    return _histogram(_schedule(policy, dist, horizon, seed=seed), horizon)


def average_over_seeds(
    hists: Sequence[np.ndarray],
    metric: MarkovSourceModel | AgePenalty,
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

