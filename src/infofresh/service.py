"""Finite-support distributions of the integer per-sample service times."""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

_PROB_SUM_TOL = 1e-12
# Largest support whose draws count comparisons instead of binary-searching: the
# measured crossover at 8,192 draws, one schedule block when it was set.  Median of
# three timeit runs (2-core Xeon VM, Python 3.11.7, numpy 2.4.6), count vs search:
#   points  8:  59 vs 181 us     16: 115 vs 249 us     24: 170 vs 263 us
#   points 32: 256 vs 297 us     40: 338 vs 376 us     48: 400 vs 386 us
# At 32,768 draws, one block now, counting still wins at 40 points (762 vs 1,092
# us, best of three) and the crossover lies between 64 and 72 points.  The bound stays
# at 40 all the same: no benchmark workload draws from 41 to 64 points, so none could
# show a move to pay.  The wide-support workloads of ROADMAP.md item 5 are to decide it.
_COUNTED_SUPPORT = 40
# Exact routes size their tables by y_max (the solver's reach 3 * y_max ages), linearly,
# so 10**8 would ask for about 18 GB.  Peaks at this bound, {1: .5, 10**6: .5} with binary
# q = 0.01, read from a launcher (2-core Xeon VM, Python 3.11.7, numpy 2.4.6): solve 121 MB
# in 0.3 s; sweep 128 MB (2 x 2,000 steps) to 150 MB (1e6); trace 121 MB (2,000) to 168 MB (3e6).
SERVICE_TIME_MAX = 10**6


class ServiceTimeDist:
    """Probability mass function on distinct integer service times in 1..SERVICE_TIME_MAX.

    Probabilities must sum to 1 within 1e-12 and are then renormalized
    exactly, so downstream exact sums stay consistent.  Zero service time
    is rejected: every delivery must age a sample by at least one step.

    Instances are immutable and safe to share.  Sampling uses the inverse
    CDF over the sorted support and a caller-owned numpy generator (PCG64
    throughout this package), so sequences replay exactly given a seed.
    """

    __slots__ = ("support", "probs", "_cdf")

    def __init__(self, pmf: Mapping[int, float] | Iterable[tuple[int, float]]):
        pairs = sorted(pmf.items() if isinstance(pmf, Mapping) else pmf)
        if not pairs:
            raise ValueError("service distribution needs at least one support point")
        ys = [y for y, _ in pairs]
        ps = [float(p) for _, p in pairs]
        for a, b in zip(ys, ys[1:]):
            if a == b:
                raise ValueError(f"support points must be distinct; {a} is listed more than once")
        for y in ys:
            if not (isinstance(y, (int, np.integer)) and y >= 1):
                raise ValueError(f"service times must be integers >= 1, got {y!r}")
        if ys[-1] > SERVICE_TIME_MAX:
            raise ValueError(f"service times must be <= {SERVICE_TIME_MAX}, got {ys[-1]}")
        for p in ps:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"probabilities must be in (0, 1], got {p}")
        total = math.fsum(ps)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1 within {_PROB_SUM_TOL}")
        self.support: tuple[int, ...] = tuple(int(y) for y in ys)
        self.probs: tuple[float, ...] = tuple(p / total for p in ps)
        self._cdf = np.array(self.probs).cumsum()

    def __repr__(self) -> str:
        body = ", ".join(f"{y}: {p:g}" for y, p in zip(self.support, self.probs))
        return f"ServiceTimeDist({{{body}}})"

    @property
    def y_min(self) -> int:
        return self.support[0]

    @property
    def y_max(self) -> int:
        return self.support[-1]

    def mean(self) -> float:
        """Exact expected service time."""
        return math.fsum(y * p for y, p in zip(self.support, self.probs))

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Support indices of ``n`` draws via inverse CDF on ``n`` uniforms, in draw order.

        The index of uniform u is ``min(searchsorted(cdf, u, "right"), |S| - 1)``:
        the count of ``u >= cdf[j]`` over the first |S| - 1 entries, which is
        how supports of up to ``_COUNTED_SUPPORT`` points compute it, one
        whole-array comparison per entry; larger ones binary-search.
        """
        u = rng.random(n)
        if len(self.support) > _COUNTED_SUPPORT:
            return np.minimum(np.searchsorted(self._cdf, u, side="right"), len(self.support) - 1)
        idx = np.zeros(n, dtype=np.intp)
        for c in self._cdf[:-1]:
            idx += u >= c
        return idx
