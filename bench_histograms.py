"""Time zero-wait, threshold and uniform ``age_histogram`` in two checkouts, in alternating pairs.

    python3 bench_histograms.py BASE_CHECKOUT NEW_CHECKOUT [--pairs 10]

Each run is a fresh interpreter that imports ``infofresh`` from one
checkout's ``src/`` and builds 1e6-step age histograms on service times
{1, 3, 5}, each equally likely, for three policies: zero-wait, the
threshold waits that ``solve_beta`` gives for negated binary information at
q = 0.05 ({1: 1, 3: 0, 5: 0}), and ``Uniform(4)``, a FIFO queue at load
0.75 whose samples can wait (its period is below y_max = 5), so its run
also takes the backlog guard.  After one untimed call per policy it times
``REPEATS`` calls per policy, interleaved, on seeds 0.., and reports each
policy's median call.  A pair runs both checkouts, the base first in odd
pairs.  The script prints each policy's median and quartiles over the pairs
for both checkouts, and the number of pairs in which the new checkout was
faster.  It exits 1 if the two checkouts' histograms differ in any bit.
``--pairs`` must be at least 2, the fewest that have quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HORIZON = 1_000_000
REPEATS = 15

_RUN = """
import hashlib, json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from infofresh.service import ServiceTimeDist
from infofresh.simulator import Uniform, age_histogram
from infofresh.solver import solve_beta, zero_waiting
from infofresh.sources import BinarySymmetric, NegatedMI

horizon, repeats = int(sys.argv[2]), int(sys.argv[3])
dist = ServiceTimeDist({1: 1 / 3, 3: 1 / 3, 5: 1 / 3})
policies = {"zero-wait": zero_waiting(dist),
            "threshold": solve_beta(NegatedMI(BinarySymmetric(q=0.05)), dist).waiting,
            "uniform": Uniform(4)}
times = {name: [] for name in policies}
digest = hashlib.sha256()
for name, policy in policies.items():
    age_histogram(policy, dist, horizon, 0)
for seed in range(repeats):
    for name, policy in policies.items():
        start = time.perf_counter()
        hist = age_histogram(policy, dist, horizon, seed)
        times[name].append(time.perf_counter() - start)
        digest.update(hist.tobytes())
print(json.dumps({"ms": {name: 1e3 * statistics.median(t) for name, t in times.items()},
                  "digest": digest.hexdigest()}))
"""


def run(checkout: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", _RUN, str(checkout / "src"), str(HORIZON),
                          str(REPEATS)], check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.2f} [{q1:.2f}, {q3:.2f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2 to have quartiles, got {args.pairs}")
    pairs = []
    for k in range(args.pairs):
        order = ("base", "new") if k % 2 == 0 else ("new", "base")
        pair = {side: run(getattr(args, side)) for side in order}
        if pair["base"]["digest"] != pair["new"]["digest"]:
            print(f"pair {k + 1}: the histograms differ", file=sys.stderr)
            return 1
        pairs.append(pair)
        print(f"pair {k + 1} ({order[0]} first): " + ", ".join(
            f"{name} {pair['base']['ms'][name]:.2f} -> {pair['new']['ms'][name]:.2f} ms"
            for name in pair["base"]["ms"]))
    print(f"median [quartiles] of {args.pairs} pairs, ms per {HORIZON}-step histogram:")
    for name in pairs[0]["base"]["ms"]:
        base = [p["base"]["ms"][name] for p in pairs]
        new = [p["new"]["ms"][name] for p in pairs]
        wins = sum(n < b for b, n in zip(base, new))
        change = statistics.median(new) / statistics.median(base) - 1
        print(f"{name}: base {quartiles(base)}, new {quartiles(new)}, "
              f"median {100 * change:+.1f}%, new faster in {wins}/{args.pairs}")
    print("histograms bit-identical in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
