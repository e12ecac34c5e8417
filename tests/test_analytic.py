"""Renewal-reward averages and the exhaustive oracle."""

import itertools
import math

import pytest

from infofresh.analytic import BudgetExceeded, brute_force_optimum, random_instances
from infofresh.service import ServiceTimeDist
from infofresh.solver import WaitingFunction, cycle_stats, solve_beta, zero_waiting
from infofresh.sources import (
    Affine,
    BinarySymmetric,
    GaussianAR1,
    NegatedMI,
    PenaltyTable,
    scalar_penalty,
)

D4 = ServiceTimeDist({4: 1.0})
D111 = ServiceTimeDist({1: 0.5, 11: 0.5})

# Frozen by high-precision exact summation over the (y, y', n) grid.
ZW_NEGMI_Q01 = -0.08054545647922222


class TestRenewalAverage:
    def test_zero_waiting_plain_age(self):
        assert cycle_stats(Affine(1.0), D4, zero_waiting(D4)).ratio == pytest.approx(5.5, abs=1e-12)

    def test_iid_source_is_zero(self):
        penalty = NegatedMI(BinarySymmetric(q=0.5))
        assert cycle_stats(penalty, D111, WaitingFunction({1: 2, 11: 0})).ratio == 0.0

    def test_golden_negated_mi(self):
        got = cycle_stats(NegatedMI(BinarySymmetric(q=0.1)), D111, zero_waiting(D111)).ratio
        assert -1.0 < got < 0.0
        assert got == pytest.approx(ZW_NEGMI_Q01, abs=1e-13)

    def test_monotone_under_dominated_penalties(self):
        # p1 <= p2 pointwise implies average1 <= average2 for the same waits
        pairs = [
            (Affine(1.0, 0.0), Affine(1.0, 0.5)),
            (NegatedMI(BinarySymmetric(q=0.1)), NegatedMI(BinarySymmetric(q=0.3))),
            (NegatedMI(GaussianAR1(a=0.9)), NegatedMI(GaussianAR1(a=0.5))),
        ]
        for p1, p2 in pairs:
            assert all(
                scalar_penalty(p1)(d) <= scalar_penalty(p2)(d) + 1e-15 for d in range(1, 60)
            )
            for waits in (WaitingFunction({1: 0, 11: 0}), WaitingFunction({1: 3, 11: 1})):
                r1, r2 = cycle_stats(p1, D111, waits).ratio, cycle_stats(p2, D111, waits).ratio
                assert r1 <= r2 + 1e-12


class TestZeroWaitAverage:
    def test_iid_source(self):
        penalty = NegatedMI(BinarySymmetric(q=0.5))
        assert cycle_stats(penalty, D111, zero_waiting(D111)).ratio == 0.0


class TestBruteForceOptimum:
    def test_infinite_penalty_rejected(self):
        with pytest.raises(ValueError, match="not finite at age 2;"):
            brute_force_optimum(PenaltyTable((0.0, 1.0, math.inf)), D4, z_cap=2)

    def test_constant_penalty_tie_break(self):
        res = brute_force_optimum(PenaltyTable(values=(2.0,)), D111, z_cap=3)
        assert res.best_ratio == pytest.approx(2.0, abs=1e-12)
        assert dict(res.best_waiting) == {1: 0, 11: 0}
        assert res.enumerated == 16

    def test_deterministic_service_matches_solver(self):
        oracle = brute_force_optimum(Affine(1.0), D4, z_cap=40)
        res = solve_beta(Affine(1.0), D4, tol=1e-10)
        assert abs(res.beta - oracle.best_ratio) <= 1e-8
        assert oracle.enumerated == 41

    def test_cap_enlargement_leaves_optimum(self):
        penalty = NegatedMI(BinarySymmetric(q=0.05))
        dist = ServiceTimeDist({1: 0.5, 5: 0.5})
        a = brute_force_optimum(penalty, dist, z_cap=40)
        b = brute_force_optimum(penalty, dist, z_cap=60)
        assert a.best_ratio == pytest.approx(b.best_ratio, abs=1e-15)
        assert dict(a.best_waiting) == dict(b.best_waiting)

    @pytest.mark.parametrize(
        "q, pmf, z_cap",
        [
            (0.2, {1: 0.5, 5: 0.5}, 6),
            (0.2, {3: 1.0}, 8),
            # optimum {1: 2, 2: 1, 4: 0, 7: 0}: any mix-up of the axes moves it
            (0.02, {1: 0.1, 2: 0.2, 4: 0.3, 7: 0.4}, 3),
        ],
        ids=["2-point", "1-point", "4-point"],
    )
    def test_best_is_minimal_over_candidates(self, q, pmf, z_cap):
        penalty = NegatedMI(BinarySymmetric(q=q))
        dist = ServiceTimeDist(pmf)
        res = brute_force_optimum(penalty, dist, z_cap=z_cap)
        assert res.enumerated == (z_cap + 1) ** len(dist.support)
        assert cycle_stats(penalty, dist, res.best_waiting).ratio == pytest.approx(
            res.best_ratio, abs=1e-12
        )
        for waits in itertools.product(range(z_cap + 1), repeat=len(dist.support)):
            ratio = cycle_stats(penalty, dist, WaitingFunction(dict(zip(dist.support, waits)))).ratio
            assert res.best_ratio <= ratio + 1e-12

    def test_best_ratio_below_zero_wait(self):
        for penalty, dist in random_instances(6, seed=77):
            res = brute_force_optimum(penalty, dist, z_cap=40)
            assert res.best_ratio <= cycle_stats(penalty, dist, zero_waiting(dist)).ratio + 1e-12

    def test_best_ratio_consistent_with_renewal_average(self):
        penalty = NegatedMI(GaussianAR1(a=0.8))
        dist = ServiceTimeDist({2: 0.3, 5: 0.7})
        res = brute_force_optimum(penalty, dist, z_cap=30)
        assert cycle_stats(penalty, dist, res.best_waiting).ratio == pytest.approx(
            res.best_ratio, abs=1e-12
        )

    def test_budget_exceeded(self):
        # 216**3 candidates pass the 10**7 budget; the check comes before any allocation
        dist = ServiceTimeDist({1: 0.4, 2: 0.3, 3: 0.3})
        with pytest.raises(BudgetExceeded):
            brute_force_optimum(Affine(1.0), dist, z_cap=215)

    def test_small_cap_misses_interior_optimum(self):
        # with the cap at 0 the oracle can only see the zero-wait policy
        penalty = NegatedMI(BinarySymmetric(q=0.05))
        dist = ServiceTimeDist({1: 0.5, 5: 0.5})
        capped = brute_force_optimum(penalty, dist, z_cap=0)
        full = brute_force_optimum(penalty, dist, z_cap=40)
        assert capped.best_ratio > full.best_ratio + 1e-8


class TestRandomInstances:
    def test_deterministic(self):
        a = random_instances(5, seed=3)
        b = random_instances(5, seed=3)
        assert [(p, d.support, d.probs) for p, d in a] == [(p, d.support, d.probs) for p, d in b]

    def test_family_shape(self):
        instances = random_instances(12, seed=9)
        assert len(instances) == 12
        kinds = set()
        for penalty, dist in instances:
            assert 1 <= len(dist.support) <= 3
            assert all(1 <= y <= 6 for y in dist.support)
            if isinstance(penalty, NegatedMI):
                kinds.add(type(penalty.model).__name__)
            else:
                kinds.add(type(penalty).__name__)
        assert kinds == {"BinarySymmetric", "GaussianAR1", "Affine"}
