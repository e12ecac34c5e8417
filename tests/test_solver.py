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
    penalty_prefix_sums,
    scalar_metric,
)
from reference import cycle_sums, slack

D15 = ServiceTimeDist({1: 0.5, 5: 0.5})
D4 = ServiceTimeDist({4: 1.0})
D111 = ServiceTimeDist({1: 0.5, 11: 0.5})
# A rare 3000-step service: the optimal wait after a 1-step service is 91.
HEAVY = ServiceTimeDist({1: 0.999, 3000: 0.001})
# 40 equally likely service times: under Affine(1.0) the optimal waits reach 12.
D40 = ServiceTimeDist({y: 1 / 40 for y in range(1, 41)})


def _stress_configs():
    """{name: config} for each named stress instance of the benchmark."""
    configs = sorted((Path(__file__).parents[1] / "perfbench" / "configs").glob("stress_*.ini"))
    assert len(configs) == 4
    return {path.stem: ExperimentConfig.from_file(str(path)) for path in configs}


def _stress_problems():
    """{name: [(penalty, service)]} for each named stress instance of the benchmark."""
    return {name: [(cfg.build_penalty(), cfg.build_service())]
            for name, cfg in _stress_configs().items()}


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
        res = solve_beta(penalty, D15)
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


D12 = ServiceTimeDist({1: 0.5, 2: 0.5})


@pytest.mark.filterwarnings("error")  # refused by the check, not warned about by numpy
class TestSumsMustBeFinite:
    """Every exact route refuses a penalty whose running sum from age 1 is not finite,
    at the first age where it stops being finite."""

    ROUTES = {
        "solve_beta": lambda penalty: solve_beta(penalty, D12),
        "cycle_stats": lambda penalty: cycle_stats(penalty, D12, zero_waiting(D12)),
        "oracle": lambda penalty: brute_force_optimum(penalty, D12, z_cap=2),
        "prefix_sums": lambda penalty: penalty_prefix_sums(penalty, 4),
    }
    OVERFLOW = "^penalty sum over ages 1..2 overflows float64; cycle sums require finite values$"

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("values", [(1e308,), (-1e308,), (0.0, 1e308, 1e308, 1e308, math.inf)])
    def test_overflow_named_at_its_age(self, route, values):
        # the last table overflows at age 2, before its infinite value at age 4
        with pytest.raises(ValueError, match=self.OVERFLOW):
            self.ROUTES[route](PenaltyTable(values))

    @pytest.mark.parametrize("route", ROUTES)
    def test_infinite_value_named_at_its_age(self, route):
        with pytest.raises(ValueError, match="^penalty is not finite at age 2; "):
            self.ROUTES[route](PenaltyTable((0.0, 1.0, math.inf)))


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
        assert slack(penalty, D15, scalar_metric(penalty)(1)) >= -1e-12

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
        res = solve_beta(PenaltyTable(values=(3.25,)), D15)
        assert res.beta == 3.25
        assert dict(res.waiting) == {1: 0, 5: 0}
        assert res.iterations == 0
        assert abs(res.h_residual) <= 1e-12

    def test_deterministic_service_plain_age(self):
        res = solve_beta(Affine(1.0), D4)
        oracle = brute_force_optimum(Affine(1.0), D4, z_cap=40)
        assert res.beta == pytest.approx(5.5, abs=1e-8)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)

    @pytest.mark.parametrize("q", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_negated_mi_matches_oracle(self, q):
        penalty = NegatedMI(BinarySymmetric(q=q))
        res = solve_beta(penalty, D15)
        oracle = brute_force_optimum(penalty, D15, z_cap=40)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)
        assert dict(res.waiting) == dict(oracle.best_waiting)

    def test_gaussian_penalty_matches_oracle(self):
        penalty = NegatedMI(GaussianAR1(a=0.9))
        res = solve_beta(penalty, D15)
        oracle = brute_force_optimum(penalty, D15, z_cap=40)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)

    def test_table_penalty_matches_oracle(self):
        penalty = PenaltyTable(values=(-3.0, -3.0, -3.0, -1.0, 0.0, 4.0))
        res = solve_beta(penalty, D15)
        oracle = brute_force_optimum(penalty, D15, z_cap=40)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)

    def test_fixed_point(self):
        for penalty, dist in random_instances(8, seed=55):
            res = solve_beta(penalty, dist)
            assert cycle_stats(penalty, dist, res.waiting).ratio == pytest.approx(
                res.beta, abs=1e-7
            )

    def test_sign_property_around_beta(self):
        penalty = NegatedMI(BinarySymmetric(q=0.1))
        res = solve_beta(penalty, D15)
        assert slack(penalty, D15, res.beta - 1e-4) >= -1e-7
        assert slack(penalty, D15, res.beta + 1e-4) <= 1e-7

    def test_dominates_enumerated_waitings(self):
        penalty = NegatedMI(BinarySymmetric(q=0.2))
        res = solve_beta(penalty, D15)
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

    @pytest.mark.parametrize("slope", [1.0, 1e-10, 1e-12])
    def test_a_near_flat_penalty_reaches_the_optimum(self, slope):
        # the first step lowers the level by 0.66 * slope, under 1e-10 at the small
        # slopes; stopping on so small a drop leaves waits {1: 4, 11: 0}, whose ratio
        # is 0.57% above the optimum
        dist = ServiceTimeDist({1: 2 / 3, 11: 1 / 3})
        res = solve_beta(Affine(slope), dist)
        assert dict(res.waiting) == {1: 3, 11: 0}
        assert res.h_residual == 0.0
        best = brute_force_optimum(Affine(slope), dist, 40).best_ratio / slope
        assert best == pytest.approx(7.859649122807017, rel=1e-12)
        assert res.beta / slope == pytest.approx(best, rel=1e-12)

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
        res = solve_beta(NegatedMI(BinarySymmetric(q=0.5)), D15)
        assert abs(res.beta) <= 1e-12
        assert dict(res.waiting) == {1: 0, 5: 0}

    def test_dominates_zero_wait(self):
        for q in (0.05, 0.1, 0.3):
            info = NegatedMI(BinarySymmetric(q=q))
            res = solve_beta(info, D15)
            assert -res.beta >= -cycle_stats(info, D15, zero_waiting(D15)).ratio - 1e-9

    def test_matches_oracle_maximum(self):
        info = NegatedMI(BinarySymmetric(q=0.2))
        res = solve_beta(info, D15)
        oracle = brute_force_optimum(info, D15, z_cap=40)
        assert -res.beta == pytest.approx(-oracle.best_ratio, abs=1e-8)


class TestCap:
    def test_levels_past_the_cap_are_not_fatal(self):
        # the zero-wait level's crossing lies past z_max = 300; the optimum
        # does not, so the solver must return it rather than raise
        res = solve_beta(Affine(1.0), HEAVY, z_max=300)
        assert res.beta == pytest.approx(95.4592983942, abs=1e-9)
        assert dict(res.waiting) == {1: 91, 3000: 0}
        assert res.capped == ()
        achieved = cycle_stats(Affine(1.0), HEAVY, res.waiting).ratio
        assert achieved == pytest.approx(res.beta, abs=1e-9)

    def test_same_optimum_as_uncapped(self):
        capped = solve_beta(Affine(1.0), HEAVY, z_max=300)
        assert capped.beta == solve_beta(Affine(1.0), HEAVY, z_max=100_000).beta

    def test_binding_cap_returns_the_capped_optimum(self):
        # the optimal wait after a 1-step service, 91, does not fit under 50
        res = solve_beta(Affine(1.0), HEAVY, z_max=50)
        oracle = brute_force_optimum(Affine(1.0), HEAVY, z_cap=50)
        assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)
        achieved = cycle_stats(Affine(1.0), HEAVY, res.waiting).ratio
        assert achieved == pytest.approx(oracle.best_ratio, abs=1e-8)
        assert dict(res.waiting) == dict(oracle.best_waiting) == {1: 50, 3000: 0}
        assert res.capped == (1,)

    def test_cap_past_int64_is_the_uncapped_optimum(self):
        dist = ServiceTimeDist({1: 0.5, 40000: 0.5})
        res = solve_beta(Affine(1.0), dist, z_max=10**20)
        assert res == solve_beta(Affine(1.0), dist)
        assert res.beta == pytest.approx(36568.5424968, abs=1e-7)
        assert res.waiting[1] == 16568
        assert res.capped == ()

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
    value = scalar_metric(penalty)
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
    def check(penalty, dist, z_max=None):
        # where a cap cuts the rule, the wait is z_max and E[p] is still below beta there
        res = solve_beta(penalty, dist, z_max=z_max)
        for y, z in res.waiting.items():
            scan = [expected_next_penalty(penalty, dist, y + n) for n in range(z + 1)]
            if y in res.capped:
                assert z == z_max and scan[-1] < res.beta + 1e-12, (y, z, scan[-1], res.beta)
            else:
                assert scan[-1] >= res.beta - 1e-12, (y, z, scan[-1], res.beta)
            assert all(e < res.beta + 1e-12 for e in scan[:-1]), (y, z, res.beta)
        waits = [res.waiting[y] for y in dist.support]
        assert all(b <= a for a, b in zip(waits, waits[1:])), waits
        return res

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_instances(self, seed):
        for penalty, dist in random_instances(40, seed):
            self.check(penalty, dist)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_instances(self, name):
        self.check(*self.NAMED[name])

    # (penalty, service, a cap that cuts the rule, the service times it cuts)
    CAPPED = {
        "binary-q0.02": (NegatedMI(BinarySymmetric(q=0.02)), D111, 2, (1,)),
        "gaussian-a0.9": (NegatedMI(GaussianAR1(a=0.9)), D111, 1, (1,)),
        "heavy-tail": (Affine(1.0), HEAVY, 50, (1,)),
        # the wait after 8 is also 5, but it ends where E[p] reaches beta: not cut
        "affine-40-points": (Affine(1.0), D40, 5, tuple(range(1, 8))),
    }

    @pytest.mark.parametrize("name", CAPPED)
    def test_capped_instances(self, name):
        penalty, dist, z_max, capped = self.CAPPED[name]
        assert self.check(penalty, dist, z_max).capped == capped

    # The rule as the abstract states it, read at the solved wait only: after service y
    # the wait z is 0 or has g(y + z - 1) < beta, and g(y + z) >= beta, where
    # g(t) = E[p(t + Y')]; a point the cap cut waits z_max.  Comparisons are taken up to
    # TIE of the penalty's scale (its largest magnitude over the ages a cycle reads),
    # which floats cannot order: exact brute force found rounding ties up to 5.8e-18
    # of that scale.
    TIE = 1e-13
    STATED = {
        "random": [(penalty, dist, None) for penalty, dist in random_instances(200, 7)],
        **{name: [(cfg.build_penalty(), cfg.build_service(), cfg.z_max)]
           for name, cfg in _stress_configs().items()},
        "heavy-tail": [(Affine(1.0), HEAVY, None)],
        "heavy-tail-capped": [(Affine(1.0), HEAVY, 50)],
    }

    @pytest.mark.parametrize("name", STATED)
    def test_rule_as_stated(self, name):
        for penalty, dist, z_max in self.STATED[name]:
            res = solve_beta(penalty, dist, z_max=z_max)
            value = scalar_metric(penalty)
            top = 2 * max(dist.support) + max(res.waiting.values())
            tie = self.TIE * max(abs(value(a)) for a in range(1, top + 1))
            for y, z in res.waiting.items():
                if y in res.capped:
                    assert z == z_max, (y, z, z_max)
                    continue
                at = expected_next_penalty(penalty, dist, y + z)
                assert at >= res.beta - tie, (y, z, at, res.beta)
                if z:
                    before = expected_next_penalty(penalty, dist, y + z - 1)
                    assert before < res.beta + tie, (y, z, before, res.beta)


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
    res = solve_beta(penalty, dist)
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
    """The theorem: beta, solved under the cap z_max, is the root of the slack
    over every wait up to z_max."""
    res = solve_beta(penalty, dist, z_max=z_max)
    assert abs(slack(penalty, dist, res.beta, z_max)) <= 1e-9 * max(1.0, abs(res.beta))
    return res


@given(wide_instances())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_beta_is_the_root_of_the_slack_property(instance):
    # the optimal waits end by t = 2*y_max, so this cap lets the slack try past them
    penalty, dist = instance
    assert_beta_is_the_root(penalty, dist, 2 * dist.y_max + 5)


def test_beta_is_the_root_of_the_slack_heavy_tail():
    # the slack tries every wait up to 100000, far past the optimal 91
    assert_beta_is_the_root(Affine(1.0), HEAVY, 100_000)


@given(wide_instances(), st.integers(1, 8))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_capped_beta_is_the_root_of_the_capped_slack_property(instance, z_max):
    # supports of up to 50 points, whose wait vectors are too many for the oracle
    assert_beta_is_the_root(*instance, z_max)


def test_capped_beta_is_the_root_of_the_capped_slack_wide_support():
    # a cap of 5 cuts the waits after the 7 shortest of 40 service times
    assert assert_beta_is_the_root(Affine(1.0), D40, 5).capped == tuple(range(1, 8))


@given(solver_instances(), st.integers(1, 8))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_capped_optimum_matches_oracle_property(instance, z_max):
    # the oracle enumerates every wait in 0..z_max, so it finds the capped optimum
    penalty, dist = instance
    res = solve_beta(penalty, dist, z_max=z_max)
    oracle = brute_force_optimum(penalty, dist, z_cap=z_max)
    assert res.beta == pytest.approx(oracle.best_ratio, abs=1e-8)
    achieved = cycle_stats(penalty, dist, res.waiting).ratio
    assert achieved == pytest.approx(oracle.best_ratio, abs=1e-8)


@given(solver_instances())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cap_at_the_table_bound_never_binds_property(instance):
    # every level's crossing lies within the table, at t <= 2*y_max, so no wait
    # exceeds 2*y_max - y_min: that cap clips nothing
    penalty, dist = instance
    res = solve_beta(penalty, dist, z_max=2 * dist.y_max - dist.y_min)
    assert res.capped == ()
    assert res == solve_beta(penalty, dist, z_max=10**9)
    assert res == solve_beta(penalty, dist)
