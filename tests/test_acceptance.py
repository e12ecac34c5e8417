"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass line on success (run with ``pytest -s`` to
see them); a failed assert is the fail line.  The policy-comparison data
(criteria 1-3) and the randomized solver instances (criteria 4-6, 8) are
computed once per session.
"""

import numpy as np
import pytest

from infofresh.analytic import brute_force_optimum, random_instances
from infofresh.service import ServiceTimeDist
from infofresh.simulator import Uniform, age_histogram, average_over_seeds
from infofresh.solver import cycle_stats, solve_beta, zero_waiting
from infofresh.sources import (
    Affine,
    BinarySymmetric,
    GaussianAR1,
    NegatedMI,
    Tabulated,
    metric_table,
    scalar_metric,
)
from reference import reference_events, slack
from runs import run

SWEEP_DIST = ServiceTimeDist({1: 0.5, 11: 0.5})
SWEEP_QS = tuple(round(0.02 * k, 12) for k in range(1, 26))
UNIFORM_PERIOD = 6
HORIZON = 1_000_000
SEEDS = tuple(range(10))
ORACLE_Z_CAP = 40


def _uniform_estimate(hists, model):
    """Across-seed mean and standard error of the time averages of ``model``
    over the seeds' age histograms, with the arithmetic ``average_over_seeds`` uses."""
    table = metric_table(model, max(len(h) for h in hists))
    table[0] = 0.0  # age 0 never occurs
    vals = np.array([float(h @ table[: len(h)]) / HORIZON for h in hists])
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


@pytest.fixture(scope="module")
def sweep_data():
    """Analytic optimal/zero-wait values and simulated uniform values per q.

    The uniform policy's age process does not depend on q, so each seed's
    age histogram is built once and scored with every q's metric table.
    """
    policy = Uniform(period=UNIFORM_PERIOD)
    hists = [age_histogram(policy, SWEEP_DIST, HORIZON, seed) for seed in SEEDS]
    i_opt, i_zw, uni = [], [], []
    for q in SWEEP_QS:
        model = BinarySymmetric(q=q)
        info = NegatedMI(model)
        i_opt.append(-solve_beta(info, SWEEP_DIST).beta)
        i_zw.append(-cycle_stats(info, SWEEP_DIST, zero_waiting(SWEEP_DIST)).ratio)
        uni.append(_uniform_estimate(hists, model))
    # the shortcut is the simulator's own arithmetic, bit for bit
    model = BinarySymmetric(q=SWEEP_QS[4])
    again = [age_histogram(policy, SWEEP_DIST, HORIZON, seed) for seed in SEEDS]
    assert uni[4] == average_over_seeds(again, model, HORIZON)
    return i_opt, i_zw, uni


@pytest.fixture(scope="module")
def solved_instances():
    """The 20 randomized instances with solver and oracle results."""
    out = []
    for penalty, dist in random_instances(20, seed=20260811):
        res = solve_beta(penalty, dist)
        oracle = brute_force_optimum(penalty, dist, z_cap=ORACLE_Z_CAP)
        out.append((penalty, dist, res, oracle))
    return out


def test_criterion_1_policy_ordering(sweep_data):
    i_opt, i_zw, uni = sweep_data
    for q, opt, zw, (u_mean, u_se) in zip(SWEEP_QS, i_opt, i_zw, uni):
        assert opt >= zw - 1e-9, f"q={q}: optimal {opt} below zero-wait {zw}"
        assert zw >= u_mean - 3 * u_se, f"q={q}: zero-wait {zw} below uniform {u_mean}±{u_se}"
    print(f"PASS criterion 1: optimal >= zero-wait >= uniform at all {len(SWEEP_QS)} q values")


def test_criterion_2_zero_freshness_endpoint(sweep_data):
    i_opt, i_zw, uni = sweep_data
    assert SWEEP_QS[-1] == 0.5
    assert abs(i_opt[-1]) <= 1e-12
    assert abs(i_zw[-1]) <= 1e-12
    u_mean, u_se = uni[-1]
    assert abs(u_mean) <= 1e-9
    assert u_se == 0.0
    print("PASS criterion 2: all three averages vanish at q = 0.5")


def test_criterion_3_monotone_decay(sweep_data):
    i_opt, i_zw, _ = sweep_data
    for k in range(len(SWEEP_QS) - 1):
        assert i_opt[k + 1] <= i_opt[k] + 1e-9, f"optimal not monotone at q={SWEEP_QS[k]}"
        assert i_zw[k + 1] <= i_zw[k] + 1e-9, f"zero-wait not monotone at q={SWEEP_QS[k]}"
    print("PASS criterion 3: optimal and zero-wait averages non-increasing in q")


def test_criterion_4_solver_vs_oracle(solved_instances):
    worst_beta = worst_ratio = 0.0
    for penalty, dist, res, oracle in solved_instances:
        beta_dev = abs(res.beta - oracle.best_ratio)
        ratio_dev = abs(cycle_stats(penalty, dist, res.waiting).ratio - oracle.best_ratio)
        worst_beta = max(worst_beta, beta_dev)
        worst_ratio = max(worst_ratio, ratio_dev)
        assert beta_dev <= 1e-8, f"beta off oracle by {beta_dev} on {penalty}, {dist}"
        assert ratio_dev <= 1e-8, f"waits miss oracle ratio by {ratio_dev} on {penalty}, {dist}"
    print(
        f"PASS criterion 4: 20 instances, max |beta - oracle| = {worst_beta:.2e}, "
        f"max ratio deviation = {worst_ratio:.2e}"
    )


def test_criterion_5_fixed_point(solved_instances):
    worst = 0.0
    for penalty, dist, res, _ in solved_instances:
        dev = abs(res.beta - cycle_stats(penalty, dist, res.waiting).ratio)
        worst = max(worst, dev)
        assert dev <= 1e-7, f"fixed point violated by {dev} on {penalty}, {dist}"
    print(f"PASS criterion 5: beta is the achieved cycle ratio, max deviation {worst:.2e}")


def test_criterion_6_sign_property(solved_instances):
    # the slack is the brute-force reference, independent of the solver
    for penalty, dist, res, _ in solved_instances:
        assert slack(penalty, dist, res.beta - 1e-4) >= -1e-7
        # above the penalty's supremum the waits sit on the cap; the slack
        # is still finite and negative there
        assert slack(penalty, dist, res.beta + 1e-4) <= 1e-7
        lo = scalar_metric(penalty)(dist.y_min)
        hi = cycle_stats(penalty, dist, zero_waiting(dist)).ratio
        grid = np.linspace(lo, hi, 11)
        vals = [slack(penalty, dist, float(c)) for c in grid]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:])), "h not non-increasing"
    print("PASS criterion 6: sign change at beta and monotone slack on all 20 instances")


def _sim_check_instances(count, seed):
    """Well-scaled instances for the simulator cross-check: averages bounded
    away from zero so the 1% relative-error bound is meaningful, and supports
    with at least two points so the across-seed standard error is positive
    (a deterministic service makes every seed identical and the 3-sigma
    form ill-posed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for i in range(count):
        size = int(rng.integers(2, 4))
        support = sorted(rng.choice(np.arange(1, 7), size=size, replace=False).tolist())
        raw = rng.random(size) + 0.2
        probs = raw / raw.sum()
        dist = ServiceTimeDist({int(y): float(p) for y, p in zip(support, probs)})
        kind = i % 3
        if kind == 0:
            penalty = NegatedMI(BinarySymmetric(q=float(rng.uniform(0.05, 0.3))))
        elif kind == 1:
            penalty = NegatedMI(GaussianAR1(a=float(rng.uniform(0.4, 0.9))))
        else:
            penalty = Affine(slope=float(rng.uniform(0.5, 2.0)), intercept=float(rng.uniform(0.0, 1.0)))
        out.append((penalty, dist))
    return out


def test_criterion_7_simulator_matches_analytic():
    worst_sigma = worst_rel = 0.0
    for penalty, dist in _sim_check_instances(10, seed=7):
        res = solve_beta(penalty, dist)
        runs = [
            (zero_waiting(dist), cycle_stats(penalty, dist, zero_waiting(dist)).ratio),
            (res.waiting, cycle_stats(penalty, dist, res.waiting).ratio),
        ]
        for policy, exact in runs:
            hists = [age_histogram(policy, dist, HORIZON, seed) for seed in SEEDS]
            mean, se = average_over_seeds(hists, penalty, HORIZON)
            err = abs(mean - exact)
            assert err <= 3 * se, f"{policy}: |{mean} - {exact}| > 3*{se} on {penalty}, {dist}"
            rel = err / abs(exact)
            assert rel <= 0.01, f"{policy}: relative error {rel} on {penalty}, {dist}"
            worst_sigma = max(worst_sigma, err / se if se else 0.0)
            worst_rel = max(worst_rel, rel)
    print(
        f"PASS criterion 7: 10 instances x 2 policies within 3 sigma "
        f"(worst {worst_sigma:.2f} sigma, worst relative error {worst_rel:.2e})"
    )


# the supports of the simulator's uniform-as-waiting-function histogram test, each
# with a penalty whose average is bounded away from zero, as criterion 7 picks them
PAST_Y_MAX_CASES = (
    (ServiceTimeDist({1: 0.5, 3: 0.5}), NegatedMI(BinarySymmetric(q=0.1))),
    (ServiceTimeDist({1: 0.5, 5: 0.5}), NegatedMI(GaussianAR1(a=0.8))),
    (ServiceTimeDist({1: 0.5, 11: 0.5}), Affine(slope=1.0, intercept=0.5)),
)


def test_uniform_past_y_max_matches_its_waiting_function():
    # at P >= y_max no sample queues, so Uniform(P) is the waiting function
    # P - y, and its exact value is that function's cycle ratio
    worst_sigma = worst_rel = 0.0
    for dist, penalty in PAST_Y_MAX_CASES:
        for period in (dist.y_max, dist.y_max + 1, dist.y_max + 5):
            hists = [age_histogram(Uniform(period), dist, HORIZON, seed) for seed in SEEDS]
            mean, se = average_over_seeds(hists, penalty, HORIZON)
            exact = cycle_stats(penalty, dist, {y: period - y for y in dist.support}).ratio
            err = abs(mean - exact)
            assert err <= 3 * se, f"P={period}: |{mean} - {exact}| > 3*{se} on {penalty}, {dist}"
            rel = err / abs(exact)
            assert rel <= 0.01, f"P={period}: relative error {rel} on {penalty}, {dist}"
            worst_sigma, worst_rel = max(worst_sigma, err / se), max(worst_rel, rel)
    print(f"PASS uniform past y_max: 3 supports x 3 periods within 3 sigma "
          f"(worst {worst_sigma:.2f} sigma, worst relative error {worst_rel:.2e})")


def test_criterion_8_structured_replay(solved_instances):
    dist = ServiceTimeDist({1: 0.5, 5: 0.5})
    # q chosen so the solved policy genuinely distinguishes the two service
    # times: it waits after a fast delivery and samples at once after a slow one
    penalty = NegatedMI(BinarySymmetric(q=0.05))
    res = solve_beta(penalty, dist)
    forced = [1, 1, 5, 5, 1, 1, 5]
    trace = run(
        res.waiting,
        BinarySymmetric(q=0.05),
        dist,
        horizon=22,
        forced=forced,
    )
    events = reference_events(trace)
    gens = {i: t for kind, i, t in events if kind == "generated"}
    delivs = {i: t for kind, i, t in events if kind == "delivered"}
    checked = 0
    for i, t in sorted(delivs.items()):
        if i + 1 not in gens:
            continue
        wait = gens[i + 1] - t
        if forced[i - 1] == 5:
            assert wait == 0, f"sample {i}: expected immediate sampling after a slow service"
        else:
            assert wait > 0, f"sample {i}: expected a positive wait after a fast service"
        checked += 1
    assert checked >= 5
    for _, _, res_i, _ in solved_instances:
        waits = [res_i.waiting[y] for y in sorted(res_i.waiting)]
        assert all(b <= a for a, b in zip(waits, waits[1:])), "waits not non-increasing in y"
    print(
        f"PASS criterion 8: replay shows zero wait after slow services and positive "
        f"wait after fast ones ({checked} deliveries); waits non-increasing on all instances"
    )


def test_criterion_9_information_curve_properties():
    rng = np.random.Generator(np.random.PCG64(99))
    for trial in range(1000):
        kind = trial % 3
        if kind == 0:
            model = BinarySymmetric(q=float(rng.uniform(0.0, 0.5)))
        elif kind == 1:
            model = GaussianAR1(a=float(rng.uniform(-0.99, 0.99)))
        else:
            steps = rng.random(int(rng.integers(1, 12)))
            vals = tuple(np.cumsum(steps)[::-1])
            model = Tabulated(values=vals)
        d = int(rng.integers(0, 201))
        r0, r1 = scalar_metric(model)(d), scalar_metric(model)(d + 1)
        assert r0 >= 0.0
        assert r1 <= r0
    print("PASS criterion 9: 1000 curve samples monotone and non-negative")
