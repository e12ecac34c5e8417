"""Reference computations that the tests check the package against.

Each one is written from its definition and shares no code with the route
it checks: ``slack`` and ``cycle_sums`` import nothing from
``infofresh.solver``, and ``reference_events`` reads only a trace's
schedule arrays.
"""

import functools
import itertools
import math

import numpy as np

from infofresh.sources import scalar_metric

# The slack's default wait cap: past every optimal wait of the instances it is called
# on without one, whose waits end by t = 2 * y_max.
Z_MAX = 10_000


@functools.lru_cache(maxsize=32)
def _prefix_sums(penalty, top):
    """cum[k] = p(1) + ... + p(k - 1) for 0 <= k < top, from scalar penalty values."""
    cum = np.zeros(top)
    cum[2:] = list(itertools.accumulate(map(scalar_metric(penalty), range(1, top - 1))))
    cum.flags.writeable = False  # shared by every call on the same penalty and length
    return cum


def cycle_sums(penalty, dist, waiting):
    """(expected cycle reward, expected length, ratio) under ``waiting``, as
    ``solver.cycle_stats`` defines them, from a per-age loop.

    Each penalty value comes from ``scalar_metric`` and is added to the
    running sum in age order, so prefix sums that make the same additions
    in the same order must equal these bit for bit.
    """
    ys, ps = dist.support, dist.probs
    zs = [waiting[y] for y in ys]
    top = max(y + z for y, z in zip(ys, zs)) + max(ys)  # largest exclusive age bound
    cum = [0.0] * (top + 1)
    acc, value = 0.0, scalar_metric(penalty)
    for n in range(1, top):
        v = value(n)
        if not math.isfinite(v):
            raise ValueError(f"penalty is not finite at age {n}; cycle sums require finite values")
        acc += v
        cum[n + 1] = acc
    reward = math.fsum(
        py * py2 * (cum[y + z + y2] - cum[y])
        for y, py, z in zip(ys, ps, zs)
        for y2, py2 in zip(ys, ps)
    )
    length = dist.mean() + math.fsum(py * z for py, z in zip(ps, zs))
    return reward, length, reward / length


def slack(penalty, dist, c, z_max=Z_MAX):
    """Dinkelbach's slack h(c) = min over waits in 0..z_max of E[reward] - c * E[length].

    A cycle after service y with wait z and next service y' earns
    cum[y + z + y'] - cum[y] over z + y' steps, so the objective is
    sum over y of P(y) * (E[reward | y, z] - c * (z + E[Y])), and each service
    time's wait is minimized on its own, by trying every z in 0..z_max.
    Nothing assumes a monotone penalty, a single crossing or a threshold.
    The prefix sums are computed once per penalty and length.
    """
    ys = np.asarray(dist.support)
    ps = np.asarray(dist.probs)
    cum = _prefix_sums(penalty, 2 * int(ys.max()) + z_max + 1)
    z = np.arange(z_max + 1)
    # reward[j, w]: the expected cycle reward after service ys[j] and wait w
    reward = cum[ys[:, None, None] + z[:, None] + ys] @ ps - cum[ys][:, None]
    best = np.min(reward - c * (z + dist.mean()), axis=1)
    return float(ps @ best)


# Within a step: the delivery that frees the sampler, then the generation, then service.
_ORDER = {"delivered": 0, "generated": 1, "service_start": 2}


def reference_events(trace):
    """(kind, sample index, time) triples up to the horizon, ordered by time
    and within a step as delivered, generated, service_start."""
    events = []
    for i in range(len(trace.s)):
        events.append(("generated", i + 1, int(trace.s[i])))
        if trace.start[i] <= trace.horizon:
            events.append(("service_start", i + 1, int(trace.start[i])))
        if trace.d[i] <= trace.horizon:
            events.append(("delivered", i + 1, int(trace.d[i])))
    events.sort(key=lambda e: (e[2], _ORDER[e[0]], e[1]))
    return events
