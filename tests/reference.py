"""Reference computations that the tests check the package against.

Each one is written from its definition and shares no code with the route
it checks: ``slack`` imports nothing from ``infofresh.solver``, and
``reference_events`` reads only a trace's schedule arrays.
"""

import functools
import itertools

import numpy as np

from infofresh.sources import penalty_value

# The solver's default wait cap, repeated here so that nothing comes from the solver.
Z_MAX = 10_000


@functools.lru_cache(maxsize=32)
def _prefix_sums(penalty, top):
    """cum[k] = p(1) + ... + p(k - 1) for 0 <= k < top, from scalar penalty values."""
    cum = np.zeros(top)
    cum[2:] = list(itertools.accumulate(penalty_value(penalty, n) for n in range(1, top - 1)))
    cum.flags.writeable = False  # shared by every call on the same penalty and length
    return cum


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
