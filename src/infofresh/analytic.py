"""The exhaustive ground-truth oracle and its random instances.

For any fixed waiting function the age process regenerates at deliveries,
so the long-run time average of the penalty equals the expected cycle
reward over the expected cycle length (``solver.cycle_stats``).  That makes
small instances exactly solvable by enumeration, which is what the solver
is tested against: deterministic waits suffice for optimality, so trying
every wait vector up to a cap finds the true optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .service import ServiceTimeDist
from .solver import WaitingFunction
from .sources import (
    Affine,
    AgePenalty,
    BinarySymmetric,
    GaussianAR1,
    NegatedMI,
    penalty_prefix_sums,
)

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """The candidate space is larger than the enumeration budget allows."""


@dataclass(frozen=True)
class OracleResult:
    best_ratio: float
    best_waiting: WaitingFunction
    enumerated: int


def brute_force_optimum(
    penalty: AgePenalty,
    dist: ServiceTimeDist,
    z_cap: int,
) -> OracleResult:
    """Minimize the renewal average over all waits Z: support -> {0..z_cap}.

    Evaluates every candidate with the same exact cycle arithmetic as
    ``cycle_stats``, from the same prefix sums of the scalar penalty
    (``sources.penalty_prefix_sums``).  Each reward term
    ``P(y_j) P(y_k) (cum[y_j + z_j + y_k] - cum[y_j])`` and each length term
    ``P(y_j) z_j`` depends on one wait only, so it is tabulated over
    0..z_cap and added along axis j of a ``(z_cap+1,)*|support|`` array,
    axis 0 holding the wait for the smallest y.  Ties go to the first
    minimum in C order, which is the lexicographically smallest wait vector
    ordered by ascending y.  The peak is two float64 arrays of the
    candidate count: about 160 MB at the budget.
    """
    if z_cap < 0:
        raise ValueError(f"z_cap must be >= 0, got {z_cap}")
    ys = np.asarray(dist.support, dtype=np.int64)
    ps = np.asarray(dist.probs)
    s = len(ys)
    count = (z_cap + 1) ** s
    if count > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"(z_cap+1)^|support| = {count} exceeds the enumeration budget "
            f"{DEFAULT_ENUMERATION_BUDGET}"
        )

    top = int(ys.max()) * 2 + z_cap  # exclusive bound on summed ages
    cum = np.array(penalty_prefix_sums(penalty, top))  # an array, for the fancy indexing below

    # Axis j joins with the first term in y_j, so the terms of every
    # candidate are summed in (j, k) order from 0, as a flat loop would.
    z = np.arange(z_cap + 1)
    reward = np.zeros(())
    length = np.zeros(())
    for j in range(s):
        for k in range(s):
            term = ps[j] * ps[k] * (cum[ys[j] + z + ys[k]] - cum[ys[j]])
            if k == 0:
                reward = reward[..., None] + term
            else:
                reward += term
        length = length[..., None] + ps[j] * z
    length += dist.mean()
    ratio = np.divide(reward, length, out=reward)
    i = int(np.argmin(ratio))
    waits = np.unravel_index(i, ratio.shape)
    best = WaitingFunction({int(y): int(w) for y, w in zip(ys, waits)})
    return OracleResult(best_ratio=float(ratio.flat[i]), best_waiting=best, enumerated=count)


def random_instances(count: int, seed: int) -> list[tuple[AgePenalty, ServiceTimeDist]]:
    """Randomized small (penalty, service) instances for solver verification.

    Service supports have 1 to 3 distinct points in 1..6 with a random pmf;
    penalties cycle through negated binary information (q in [0.05, 0.45]),
    negated AR(1) information (a in [0.3, 0.95]), and affine penalties.
    Deterministic given ``seed``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    instances: list[tuple[AgePenalty, ServiceTimeDist]] = []
    for i in range(count):
        size = int(rng.integers(1, 4))
        support = sorted(rng.choice(np.arange(1, 7), size=size, replace=False).tolist())
        raw = rng.random(size) + 0.1
        probs = raw / raw.sum()
        dist = ServiceTimeDist({int(y): float(p) for y, p in zip(support, probs)})
        kind = i % 3
        if kind == 0:
            penalty: AgePenalty = NegatedMI(BinarySymmetric(q=float(rng.uniform(0.05, 0.45))))
        elif kind == 1:
            penalty = NegatedMI(GaussianAR1(a=float(rng.uniform(0.3, 0.95))))
        else:
            penalty = Affine(slope=float(rng.uniform(0.0, 2.0)), intercept=float(rng.uniform(-1.0, 1.0)))
        instances.append((penalty, dist))
    return instances
