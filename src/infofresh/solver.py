"""Optimal sampling threshold solver.

The sampler we optimize waits Z(y) steps after each delivery, where y is
the service time of the sample just delivered, then generates the next
sample.  The long-run time average of a non-decreasing age penalty p is a
ratio of expected cycle reward to expected cycle length, and the optimal
policy is a threshold rule: wait until the expected penalty at the next
delivery reaches a threshold beta, which equals the optimal average
itself.  Maximizing the time-average information is this problem for
p = -I (``NegatedMI``); its beta is minus the optimal information.

The penalty at the next delivery depends on y and the wait only through
t = y + Z(y), so one table g(t) = E[p(t + Y')] serves every support
point: the best waits at a level c are Z_c(y) = max(0, t*(c) - y), with
t*(c) the first t where g reaches c, clipped at z_max under a cap on each
wait.  This single-crossing rule generalizes the water-filling rule
Z = max(beta - Y, 0) that Sun et al. ("Update or Wait", IEEE Trans. IT
2017) derive for the linear age, to a capped wait.  The signed slack

    h(c) = min over waits in 0..z_max of E[cycle reward] - c * E[cycle length]

is non-increasing in c and vanishes exactly at the optimal ratio.
Dinkelbach's iteration (Management Science 1967) finds that root: from
the zero-wait ratio, set c to the ratio achieved by the best waits at c,
until the waits repeat.  The levels never rise, and the waits at a level
grow with it, so each later step lowers some wait or stops: it ends at an
exact fixed point, typically in a handful of steps.  All cycle sums are
exact accumulations over the finite (y, z, y') grid; nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .service import ServiceTimeDist
from .sources import (
    AgePenalty,
    metric_table,
    penalty_prefix_sums,
    require_penalty,
    sum_error,
)


class WaitingFunction(Mapping[int, int]):
    """Deterministic wait (in steps) after a delivery, keyed by service time."""

    __slots__ = ("_waits",)

    def __init__(self, waits: Mapping[int, int]):
        items = sorted(waits.items())
        for y, z in items:
            if not (isinstance(y, (int, np.integer)) and y >= 1):
                raise ValueError(f"service times must be integers >= 1, got {y!r}")
            if not 0 <= z < math.inf or int(z) != z:  # NaN fails the range, so int() sees finite z
                raise ValueError(f"waits must be non-negative integers, got Z({y}) = {z!r}")
        self._waits = {int(y): int(z) for y, z in items}

    def __getitem__(self, y: int) -> int:
        return self._waits[y]

    def __iter__(self) -> Iterator[int]:
        return iter(self._waits)

    def __len__(self) -> int:
        return len(self._waits)

    def __repr__(self) -> str:
        body = ", ".join(f"{y}: {z}" for y, z in self._waits.items())
        return f"WaitingFunction({{{body}}})"

    def aligned(self, support: tuple[int, ...]) -> list[int]:
        """The waits at the points of ``support``, in its order."""
        missing = [y for y in support if y not in self._waits]
        if missing:
            raise ValueError(f"waiting function is missing support point {missing[0]}")
        return [self._waits[y] for y in support]


def zero_waiting(dist: ServiceTimeDist) -> WaitingFunction:
    """The sample-immediately-on-delivery policy: Z identically 0."""
    return WaitingFunction({y: 0 for y in dist.support})


@dataclass(frozen=True)
class CycleStats:
    """Exact per-cycle expectations for a given waiting function."""

    expected_reward: float
    expected_length: float
    ratio: float


@dataclass(frozen=True)
class SolverResult:
    """Solved threshold; beta is the optimal time average, over waits 0..z_max under a cap.
    ``capped`` lists the support points whose wait the cap cut: E[p(y + z_max + Y')] < beta."""

    beta: float
    waiting: WaitingFunction
    h_residual: float
    iterations: int
    capped: tuple[int, ...]


def _tables(penalty: AgePenalty, dist: ServiceTimeDist) -> tuple[np.ndarray, ...]:
    """g(t) = E[p(t + Y')] and G(t) = E[cum(t + Y')] for 0 <= t <= 2*y_max, and cum.

    cum(k) is the sum of p(a) over 1 <= a < k, so a cycle after service y
    with wait z has expected reward G(y + z) - cum(y).
    """
    require_penalty(penalty)  # metric_table would tabulate an information curve as well
    n = 2 * dist.y_max + 1
    p = metric_table(penalty, n + dist.y_max)
    # One pass adds every age 1..len(p)-1, the last into an entry past cum, so the
    # total is finite exactly when every value and running sum is.
    total = np.zeros(len(p) + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by age
        p[1:].cumsum(out=total[2:])
    if not math.isfinite(total[-1]):
        age = int(np.isfinite(total).argmin()) - 1
        raise sum_error(age, float(p[age]))
    cum = total[:-1]
    g, G = np.zeros(n), np.zeros(n)
    for y, py in zip(dist.support, dist.probs):
        g += py * p[y : y + n]
        G += py * cum[y : y + n]
    return g, G, cum


def cycle_stats(
    penalty: AgePenalty, dist: ServiceTimeDist, waiting: Mapping[int, int]
) -> CycleStats:
    """Exact expected cycle reward, length, and their ratio.

    One cycle runs from a delivery to the next; conditional on the previous
    service y, the wait z = Z(y), and the next service y', the per-step ages
    are y, y+1, ..., y+z+y'-1 and the cycle length is z + y'.  This is the
    independent scalar evaluator: it shares no tables with the solver.
    """
    ys, ps = dist.support, dist.probs
    if not isinstance(waiting, WaitingFunction):  # one handed over is checked already
        waiting = WaitingFunction(waiting)
    zs = waiting.aligned(ys)
    top = max(y + z for y, z in zip(ys, zs)) + max(ys)  # largest exclusive age bound
    cum = penalty_prefix_sums(penalty, top)
    reward = math.fsum(
        py * py2 * (cum[y + z + y2] - cum[y])
        for y, py, z in zip(ys, ps, zs)
        for y2, py2 in zip(ys, ps)
    )
    length = dist.mean() + math.fsum(py * z for py, z in zip(ps, zs))
    return CycleStats(expected_reward=reward, expected_length=length, ratio=reward / length)


def solve_beta(
    penalty: AgePenalty,
    dist: ServiceTimeDist,
    z_max: int | None = None,
) -> SolverResult:
    """Minimize the time-average penalty over waiting policies, waits in 0..z_max if capped.

    Dinkelbach's iteration from the zero-wait ratio; ``iterations`` counts
    its steps.  It stops only when the waits repeat, at the exact fixed
    point the module docstring shows it reaches.  Uncapped, no wait passes
    2*y_max - y_min, the tables' edge, so none is cut.  A binding cap is a
    constraint, not an error: see ``capped``.
    """
    if z_max is not None:
        if not isinstance(z_max, (int, np.integer)):  # a float cap would index the tables
            raise ValueError(f"z_max must be an integer, got {z_max!r}")
        if z_max < 1:
            raise ValueError(f"z_max must be >= 1, got {z_max}")
    g, G, cum = _tables(penalty, dist)
    ys, ps = np.asarray(dist.support, dtype=np.int64), np.asarray(dist.probs)
    mean, cum_ys = dist.mean(), cum[ys]
    # no wait reaches len(g): a cap past the tables, however large, cuts none
    cap = len(g) if z_max is None else min(z_max, len(g))

    def waits(c: float) -> np.ndarray:
        # Waiting one more step after y + z adds g(y + z) - c, which only grows
        # with z, so the first z where g(y + z) >= c minimizes reward - c*length;
        # where that lies past a cap z_max, the capped wait z_max does.
        z = g.searchsorted(c) - ys
        np.maximum(z, 0, out=z)
        return np.minimum(z, cap, out=z)

    def cycle(z: np.ndarray) -> tuple[float, float]:
        return float(ps @ (G[ys + z] - cum_ys)), mean + float(ps @ z)

    z = np.zeros(len(ys), dtype=np.int64)
    reward, length = cycle(z)
    # Zero-wait cycles see no age past 2*y_max - 1, so g(2*y_max) >= c and the
    # table bounds every crossing, since the levels only decrease.  The min
    # absorbs a ratio rounded a hair above the table.
    c = min(reward / length, float(g[-1]))
    iterations = 0
    while ((z_next := waits(c)) != z).any():  # else the waits at c are z, whose cycle is at hand
        iterations += 1
        z = z_next
        reward, length = cycle(z)
        c = min(c, reward / length)
    return SolverResult(
        beta=c,
        waiting=WaitingFunction(dict(zip(dist.support, z.tolist()))),
        h_residual=reward - c * length,
        iterations=iterations,
        # a wait that ends before g reaches beta breaks the threshold rule: the cap cut it
        capped=tuple(ys[ys + z < g.searchsorted(c)].tolist()),
    )
