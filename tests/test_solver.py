"""Threshold solver: waits, the Dinkelbach slack, and Dinkelbach's iteration."""

import math
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import infofresh.solver as solver
from infofresh.analytic import brute_force_optimum, random_instances
from infofresh.config import ExperimentConfig
from infofresh.service import ServiceTimeDist
from infofresh.solver import (
    ThresholdUnreachable,
    WaitingFunction,
    cycle_stats,
    solve_beta,
    zero_waiting,
)
from infofresh.sources import (
    Affine,
    BinarySymmetric,
    GaussianAR1,
    NegatedMI,
    PenaltyTable,
    Tabulated,
    scalar_penalty,
)
from reference import cycle_sums, slack

D15 = ServiceTimeDist({1: 0.5, 5: 0.5})
D4 = ServiceTimeDist({4: 1.0})
# A rare 3000-step service: the optimal wait after a 1-step service is 91.
HEAVY = ServiceTimeDist({1: 0.999, 3000: 0.001})


def _stress_problems():
    """{name: [(penalty, service)]} for each named stress instance of the benchmark."""
    configs = sorted((Path(__file__).parents[1] / "perfbench" / "configs").glob("stress_*.ini"))
    assert len(configs) == 4
    problems = {}
    for path in configs:
        cfg = ExperimentConfig.from_file(str(path))
        problems[path.stem] = [(cfg.build_penalty(), cfg.build_service())]
    return problems


CYCLE_PROBLEMS = {
    "random": random_instances(200, 5),
    **_stress_problems(),
    "tabulated": [(NegatedMI(Tabulated((2.0, 1.5, 0.5, 0.25))), D15)],
    "penalty-table": [(PenaltyTable((-1.0, 0.5, 2.0)), D15)],
}


class TestCycleStats:
    def test_deterministic_zero_wait(self):
        # ages 4..7: reward 4+5+6+7 = 22, length 4
        st = cycle_stats(Affine(1.0), D4, zero_waiting(D4))
        assert st.expected_reward == pytest.approx(22.0, abs=1e-12)
        assert st.expected_length == pytest.approx(4.0, abs=1e-12)
        assert st.ratio == pytest.approx(5.5, abs=1e-12)

    def test_solved_waiting_reproduces_beta(self):
        penalty = NegatedMI(BinarySymmetric(q=0.1))
        res = solve_beta(penalty, D15, tol=1e-10)
        assert cycle_stats(penalty, D15, res.waiting).ratio == pytest.approx(res.beta, abs=1e-8)

    def test_iid_source_gives_zero_ratio(self):
        penalty = NegatedMI(BinarySymmetric(q=0.5))
        st = cycle_stats(penalty, D15, WaitingFunction({1: 3, 5: 1}))
        assert st.ratio == 0.0

    def test_missing_support_point(self):
        with pytest.raises(ValueError):
            cycle_stats(Affine(1.0), D15, WaitingFunction({1: 0}))

    def test_infinite_penalty_in_cycle_rejected(self):
        # a table penalty with -inf at age >= 1 would poison the sums
        bad = PenaltyTable(values=(-math.inf, -math.inf, 1.0))
        with pytest.raises(ValueError, match="not finite at age 1;"):
            cycle_stats(bad, D4, zero_waiting(D4))

    def test_first_infinite_age_named(self):
        with pytest.raises(ValueError, match="not finite at age 2;"):
            cycle_stats(PenaltyTable((0.0, 1.0, math.inf)), D4, zero_waiting(D4))

    @pytest.mark.parametrize("name", CYCLE_PROBLEMS)
    def test_equals_per_age_loop(self, name):
        for penalty, dist in CYCLE_PROBLEMS[name]:
            # zero waits, the solved waits, and waits that differ per support point
            solved = solve_beta(penalty, dist).waiting
            for waits in (zero_waiting(dist), solved, {y: y % 4 for y in dist.support}):
                got = astuple(cycle_stats(penalty, dist, waits))
                assert got == cycle_sums(penalty, dist, waits), (penalty, dist, waits)


class TestWaitingFunction:
    def test_mapping_protocol(self):
        w = WaitingFunction({5: 0, 1: 2})
        assert w[1] == 2 and w[5] == 0
        assert list(w) == [1, 5]
        assert len(w) == 2
        assert dict(w) == {1: 2, 5: 0}

    def test_repr(self):
        assert repr(WaitingFunction({5: 0, 1: 2})) == "WaitingFunction({1: 2, 5: 0})"

    def test_aligned_follows_the_support(self):
        w = WaitingFunction({5: 0, 1: 2, 9: 4})
        assert w.aligned((1, 5)) == [2, 0]
        assert w.aligned((9, 1)) == [4, 2]
        with pytest.raises(ValueError, match="^waiting function is missing support point 3$"):
            w.aligned((1, 3, 4))

    def test_rejects_negative_or_fractional(self):
        with pytest.raises(ValueError):
            WaitingFunction({1: -1})
        with pytest.raises(ValueError):
            WaitingFunction({1: 0.5})

    @pytest.mark.parametrize("waits, key", [({1: 0, 1.5: 7, 5: 0}, "1.5"), ({0: 3}, "0")],
                             ids=["fraction", "zero"])
    def test_rejects_keys_that_are_not_service_times(self, waits, key):
        # a fractional key would merge into an integer one, overwriting its wait
        with pytest.raises(ValueError, match=f"^service times must be integers >= 1, got {key}$"):
            WaitingFunction(waits)

    @pytest.mark.parametrize("z", [math.inf, math.nan, -math.inf], ids=["inf", "nan", "minus-inf"])
    def test_rejects_non_finite_naming_the_wait(self, z):
        with pytest.raises(ValueError, match=r"waits must be non-negative integers, got Z\(1\) = "):
            WaitingFunction({1: z})


class TestHOfC:
    """Dinkelbach's slack h(c), from the brute-force reference ``slack``."""

    def test_nonpositive_at_zero_wait_ratio(self):
        penalty = NegatedMI(BinarySymmetric(q=0.1))
        zw = cycle_stats(penalty, D15, zero_waiting(D15)).ratio
        assert slack(penalty, D15, zw) <= 1e-12

    def test_nonnegative_at_penalty_floor(self):
        penalty = NegatedMI(BinarySymmetric(q=0.1))
        assert slack(penalty, D15, scalar_penalty(penalty)(1)) >= -1e-12

    def test_sign_tracks_oracle_beta(self):
        penalty = NegatedMI(BinarySymmetric(q=0.15))
        beta = brute_force_optimum(penalty, D15, z_cap=40).best_ratio
        for c in np.linspace(beta - 0.05, beta + 0.05, 9):
            h = slack(penalty, D15, float(c))
            if c < beta - 1e-9:
                assert h > 0.0
            elif c > beta + 1e-9:
                assert h < 0.0

    def test_above_supremum_takes_capped_waits(self):
        # negated information never reaches 0.5, so every wait sits on the
        # cap and the slack is finite and negative
        h = slack(NegatedMI(BinarySymmetric(q=0.2)), D15, 0.5, z_max=100)
        assert math.isfinite(h) and h < 0.0

    def test_nonincreasing_on_grid(self):
        for penalty, dist in random_instances(6, seed=101):
            lo = min(
                cycle_stats(penalty, dist, zero_waiting(dist)).ratio - 1.0,
                0.0,
            )
            hi = cycle_stats(penalty, dist, zero_waiting(dist)).ratio
            grid = np.linspace(lo, hi, 7)
            vals = [slack(penalty, dist, float(c)) for c in grid]
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


class TestSolveBeta:
    def test_constant_penalty(self):
        res = solve_beta(PenaltyTable(values=(3.25,)), D15, tol=1e-9)
        assert res.beta == 3.25
        assert dict(res.waiting) == {1: 0, 5: 0}
        assert res.iterations == 0
        assert abs(res.h_residual) <= 1e-12

    def test_deterministic_service_plain_age(self):
        res = solve_beta(Affine(1.0), D4, tol=1e-9)
        oracle = brute_force_optimum(Affine(1.0), D4, z_cap=40)
        assert res.beta == pytest.approx(5.5, abs=1e-8)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)

    @pytest.mark.parametrize("q", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_negated_mi_matches_oracle(self, q):
        penalty = NegatedMI(BinarySymmetric(q=q))
        res = solve_beta(penalty, D15, tol=1e-10)
        oracle = brute_force_optimum(penalty, D15, z_cap=40)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)
        assert dict(res.waiting) == dict(oracle.best_waiting)

    def test_gaussian_penalty_matches_oracle(self):
        penalty = NegatedMI(GaussianAR1(a=0.9))
        res = solve_beta(penalty, D15, tol=1e-10)
        oracle = brute_force_optimum(penalty, D15, z_cap=40)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)

    def test_table_penalty_matches_oracle(self):
        penalty = PenaltyTable(values=(-3.0, -3.0, -3.0, -1.0, 0.0, 4.0))
        res = solve_beta(penalty, D15, tol=1e-10)
        oracle = brute_force_optimum(penalty, D15, z_cap=40)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)

    def test_fixed_point(self):
        for penalty, dist in random_instances(8, seed=55):
            res = solve_beta(penalty, dist, tol=1e-10)
            assert cycle_stats(penalty, dist, res.waiting).ratio == pytest.approx(
                res.beta, abs=1e-7
            )

    def test_sign_property_around_beta(self):
        penalty = NegatedMI(BinarySymmetric(q=0.1))
        res = solve_beta(penalty, D15, tol=1e-10)
        assert slack(penalty, D15, res.beta - 1e-4) >= -1e-7
        assert slack(penalty, D15, res.beta + 1e-4) <= 1e-7

    def test_dominates_enumerated_waitings(self):
        penalty = NegatedMI(BinarySymmetric(q=0.2))
        res = solve_beta(penalty, D15, tol=1e-10)
        for z1 in range(7):
            for z5 in range(7):
                ratio = cycle_stats(penalty, D15, WaitingFunction({1: z1, 5: z5})).ratio
                assert res.beta <= ratio + 1e-8

    def test_zero_wait_ratio_rounded_above_the_table(self):
        # the ratio rounds to 0.10000000000000002, a hair above g(t) = 0.1 at
        # every t; the level is clamped to the table, so beta is exactly 0.1
        res = solve_beta(PenaltyTable((0.1,)), ServiceTimeDist({1: 0.5, 2: 0.5}))
        assert res.beta.hex() == "0x1.999999999999ap-4"
        assert res.h_residual == 0.0
        assert res.iterations == 0
        assert dict(res.waiting) == {1: 0, 2: 0}

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_beta(Affine(1.0), D4, tol=0.0)

    def test_z_max_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="^z_max must be >= 1, got 0$"):
            solve_beta(Affine(1.0), D4, z_max=0)

    @pytest.mark.parametrize("z_max", [300.0, 91.5, math.inf, math.nan])
    def test_z_max_must_be_an_integer(self, z_max):
        # a float cap must be refused before it can index the solver's tables
        with pytest.raises(ValueError, match=f"^z_max must be an integer, got {z_max!r}$"):
            solve_beta(Affine(1.0), HEAVY, z_max=z_max)


class TestSolveMI:
    """The information problem, solved as the penalty problem on -I."""

    def test_iid_source_zero_optimum(self):
        res = solve_beta(NegatedMI(BinarySymmetric(q=0.5)), D15, tol=1e-10)
        assert abs(res.beta) <= 1e-12
        assert dict(res.waiting) == {1: 0, 5: 0}

    def test_dominates_zero_wait(self):
        for q in (0.05, 0.1, 0.3):
            info = NegatedMI(BinarySymmetric(q=q))
            res = solve_beta(info, D15, tol=1e-10)
            assert -res.beta >= -cycle_stats(info, D15, zero_waiting(D15)).ratio - 1e-9

    def test_matches_oracle_maximum(self):
        info = NegatedMI(BinarySymmetric(q=0.2))
        res = solve_beta(info, D15, tol=1e-10)
        oracle = brute_force_optimum(info, D15, z_cap=40)
        assert -res.beta == pytest.approx(-oracle.best_ratio, abs=1e-8)


class TestCap:
    def test_levels_past_the_cap_are_not_fatal(self):
        # the zero-wait level's crossing lies past z_max = 300; the optimum
        # does not, so the solver must return it rather than raise
        res = solve_beta(Affine(1.0), HEAVY, z_max=300)
        assert res.beta == pytest.approx(95.4592983942, abs=1e-9)
        assert dict(res.waiting) == {1: 91, 3000: 0}
        achieved = cycle_stats(Affine(1.0), HEAVY, res.waiting).ratio
        assert achieved == pytest.approx(res.beta, abs=1e-9)

    def test_same_optimum_as_uncapped(self):
        capped = solve_beta(Affine(1.0), HEAVY, z_max=300)
        assert capped.beta == solve_beta(Affine(1.0), HEAVY, z_max=100_000).beta

    def test_binding_cap_raises_naming_the_wait(self):
        with pytest.raises(ThresholdUnreachable, match=r"service time 1 exceeds z_max = 50"):
            solve_beta(Affine(1.0), HEAVY, z_max=50)

    def test_huge_cap_costs_nothing(self, monkeypatch):
        lengths = []
        table = solver.metric_table
        monkeypatch.setattr(solver, "metric_table", lambda m, n: lengths.append(n) or table(m, n))
        penalty = NegatedMI(BinarySymmetric(q=0.1))
        start = time.perf_counter()
        default = solve_beta(penalty, D15)
        t_default = time.perf_counter() - start
        default_lengths, lengths[:] = lengths[:], []
        start = time.perf_counter()
        huge = solve_beta(penalty, D15, z_max=10**9)
        t_huge = time.perf_counter() - start
        assert huge == default
        assert lengths == default_lengths  # the tables never extend toward z_max
        assert t_huge < 10 * t_default + 0.1


def expected_next_penalty(penalty, dist, t):
    """E[p(t + Y')] by a scalar scan that shares nothing with the solver's tables."""
    value = scalar_penalty(penalty)
    return math.fsum(py * value(t + y) for y, py in zip(dist.support, dist.probs))


class TestThresholdRule:
    """The paper's per-sample rule, checked on the solved waits: after a
    delivery with service y, wait the smallest n >= 0 at which
    E[p(y + n + Y')] reaches beta."""

    NAMED = {
        "binary-q0.05": (NegatedMI(BinarySymmetric(q=0.05)), D15),
        "binary-q0.2": (NegatedMI(BinarySymmetric(q=0.2)), D15),
        "gaussian-a0.9": (NegatedMI(GaussianAR1(a=0.9)), D15),
        "affine-D4": (Affine(1.0), D4),
        "heavy-tail": (Affine(1.0), HEAVY),
    }

    @staticmethod
    def check(penalty, dist):
        res = solve_beta(penalty, dist)
        for y, z in res.waiting.items():
            scan = [expected_next_penalty(penalty, dist, y + n) for n in range(z + 1)]
            assert scan[-1] >= res.beta - 1e-12, (y, z, scan[-1], res.beta)
            assert all(e < res.beta + 1e-12 for e in scan[:-1]), (y, z, res.beta)
        waits = [res.waiting[y] for y in dist.support]
        assert all(b <= a for a, b in zip(waits, waits[1:])), waits

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_instances(self, seed):
        for penalty, dist in random_instances(40, seed):
            self.check(penalty, dist)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_instances(self, name):
        self.check(*self.NAMED[name])


# Oracle caps: a two-point support enumerates (cap+1)^2 candidates, a
# three-point one (cap+1)^3, so the larger cap is kept to the former.
Z_CAP_SMALL = 40
Z_CAP_TWO_POINT = 150


@st.composite
def solver_instances(draw):
    """Penalty and service pairs, including two-point heavy-tailed supports."""
    kind = draw(st.sampled_from(("binary", "gaussian", "affine", "table")))
    if kind == "binary":
        penalty = NegatedMI(BinarySymmetric(q=draw(st.floats(0.02, 0.5))))
    elif kind == "gaussian":
        penalty = NegatedMI(GaussianAR1(a=draw(st.floats(0.0, 0.97))))
    elif kind == "affine":
        penalty = Affine(slope=draw(st.floats(0.0, 2.0)), intercept=draw(st.floats(-1.0, 1.0)))
    else:
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8))
        penalty = PenaltyTable(values=tuple(sorted(values)))
    if draw(st.booleans()):
        rare = draw(st.floats(0.001, 0.05))
        dist = ServiceTimeDist({1: 1.0 - rare, draw(st.integers(20, 1000)): rare})
    else:
        support = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(support), max_size=len(support)))
        total = math.fsum(weights)
        dist = ServiceTimeDist({y: w / total for y, w in zip(support, weights)})
    return penalty, dist


@given(solver_instances())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_solver_matches_oracle_property(instance):
    penalty, dist = instance
    z_cap = Z_CAP_TWO_POINT if len(dist.support) <= 2 else Z_CAP_SMALL
    res = solve_beta(penalty, dist, tol=1e-10)
    assume(max(res.waiting.values()) <= z_cap)  # the oracle can see the optimum
    oracle = brute_force_optimum(penalty, dist, z_cap=z_cap)
    assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)
    achieved = cycle_stats(penalty, dist, res.waiting).ratio
    assert achieved == pytest.approx(oracle.best_ratio, abs=1e-8)


@st.composite
def wide_instances(draw):
    """Binary, Gaussian and affine penalties on supports of up to 50 points in 1..60."""
    kind = draw(st.sampled_from(("binary", "gaussian", "affine")))
    if kind == "binary":
        penalty = NegatedMI(BinarySymmetric(q=draw(st.floats(0.02, 0.5))))
    elif kind == "gaussian":
        penalty = NegatedMI(GaussianAR1(a=draw(st.floats(0.0, 0.97))))
    else:
        penalty = Affine(slope=draw(st.floats(0.0, 2.0)), intercept=draw(st.floats(-1.0, 1.0)))
    support = draw(st.lists(st.integers(1, 60), min_size=1, max_size=50, unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(support), max_size=len(support)))
    total = math.fsum(weights)
    return penalty, ServiceTimeDist({y: w / total for y, w in zip(support, weights)})


def assert_beta_is_the_root(penalty, dist, z_max):
    """The theorem: beta is the root of the slack over every wait up to z_max."""
    beta = solve_beta(penalty, dist).beta
    assert abs(slack(penalty, dist, beta, z_max)) <= 1e-9 * max(1.0, abs(beta))


@given(wide_instances())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_beta_is_the_root_of_the_slack_property(instance):
    # the optimal waits end by t = 2*y_max, so this cap lets the slack try past them
    penalty, dist = instance
    assert_beta_is_the_root(penalty, dist, 2 * dist.y_max + 5)


def test_beta_is_the_root_of_the_slack_heavy_tail():
    # the slack tries every wait up to 100000, far past the optimal 91
    assert_beta_is_the_root(Affine(1.0), HEAVY, 100_000)
