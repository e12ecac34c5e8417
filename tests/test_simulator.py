"""Queue simulation: age bookkeeping, FIFO behavior, and replay goldens."""

import csv
import io
import math
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infofresh.simulator as simulator
from infofresh.service import ServiceTimeDist
from infofresh.simulator import (
    SequenceExhausted,
    Uniform,
    age_histogram,
    average_over_seeds,
    write_trace,
)
from infofresh.solver import WaitingFunction, cycle_stats, solve_beta, zero_waiting
from infofresh.sources import Affine, BinarySymmetric, NegatedMI, PenaltyTable, metric_table
from reference import reference_events
from runs import as_chunks, run

D4 = ServiceTimeDist({4: 1.0})
D13 = ServiceTimeDist({1: 0.5, 3: 0.5})
D15 = ServiceTimeDist({1: 0.5, 5: 0.5})
D111 = ServiceTimeDist({1: 0.5, 11: 0.5})
D12 = ServiceTimeDist({12: 1.0})

# Event log of the threshold-policy replay with services [1,1,5,5,1,1,5],
# produced by the first verified run and checked by hand against the
# schedule arithmetic (S[i+1] = D[i] + Z(Y[i]), D = S + Y, Z(1)=1, Z(5)=0).
STRUCTURED_REPLAY_EVENTS = [
    ("generated", 1, 0),
    ("service_start", 1, 0),
    ("delivered", 1, 1),
    ("generated", 2, 2),
    ("service_start", 2, 2),
    ("delivered", 2, 3),
    ("generated", 3, 4),
    ("service_start", 3, 4),
    ("delivered", 3, 9),
    ("generated", 4, 9),
    ("service_start", 4, 9),
    ("delivered", 4, 14),
    ("generated", 5, 14),
    ("service_start", 5, 14),
    ("delivered", 5, 15),
    ("generated", 6, 16),
    ("service_start", 6, 16),
    ("delivered", 6, 17),
    ("generated", 7, 18),
    ("service_start", 7, 18),
]

SAWTOOTH_CSV = """\
n,delta,metric,queue_len,event
0,1,1,0,gen:1|start:1
1,2,2,0,
2,3,3,0,
3,4,4,0,
4,4,4,0,deliver:1|gen:2|start:2
5,5,5,0,
6,6,6,0,
7,7,7,0,
"""


def structured_replay(horizon=22):
    penalty = NegatedMI(BinarySymmetric(q=0.05))
    policy = solve_beta(penalty, D15, tol=1e-12).waiting
    return run(policy, BinarySymmetric(q=0.05), D15, horizon, forced=[1, 1, 5, 5, 1, 1, 5])


class TestReplay:
    def test_sawtooth_ages(self):
        trace = run(zero_waiting(D4), Affine(1.0), D4, 10, forced=[4, 4, 4])
        assert trace.delta.tolist() == [2, 3, 4, 4, 5, 6, 7, 4, 5, 6]
        assert trace.queue_len.tolist() == [0] * 10

    def test_sawtooth_csv_golden(self):
        trace = run(zero_waiting(D4), Affine(1.0), D4, 7, forced=[4, 4])
        assert "".join(column_csv(trace)) == SAWTOOTH_CSV

    def test_structured_golden_events(self):
        trace = structured_replay()
        assert reference_events(trace) == STRUCTURED_REPLAY_EVENTS
        delivered = trace.d <= trace.horizon
        assert len(trace.s) == 7
        assert np.count_nonzero(delivered) == 6
        assert np.mean((trace.start - trace.s)[delivered]) == 0.0

    def test_structured_waits_by_service_time(self):
        trace = structured_replay()
        events = reference_events(trace)
        gens = {i: t for kind, i, t in events if kind == "generated"}
        delivs = {i: t for kind, i, t in events if kind == "delivered"}
        forced = [1, 1, 5, 5, 1, 1, 5]
        checked = 0
        for i, t in delivs.items():
            if i + 1 not in gens:
                continue
            wait = gens[i + 1] - t
            if forced[i - 1] == 5:
                assert wait == 0
            else:
                assert wait > 0
            checked += 1
        assert checked >= 5

    def test_empty_forced_list(self):
        with pytest.raises(SequenceExhausted):
            run(zero_waiting(D4), Affine(1.0), D4, 1, forced=[])

    def test_forced_list_too_short(self):
        with pytest.raises(SequenceExhausted):
            run(zero_waiting(D4), Affine(1.0), D4, 12, forced=[4, 4])

    def test_forced_values_must_be_in_support(self):
        with pytest.raises(ValueError):
            run(zero_waiting(D4), Affine(1.0), D4, 5, forced=[3])

    @pytest.mark.parametrize("policy", [zero_waiting(D15), Uniform(period=2)],
                             ids=["waiting", "uniform"])
    def test_fractional_forced_time_is_not_truncated(self, policy):
        with pytest.raises(ValueError, match=r"^forced service time 1\.7 is not in the support "
                                             r"\(1, 5\)$"):
            run(policy, Affine(1.0), D15, 8, forced=[1.7, 5.2, 1, 5])

    def test_seed_and_forced_exclude_each_other(self):
        with pytest.raises(ValueError, match="seed and forced"):
            run(zero_waiting(D15), Affine(1.0), D15, 4, seed=3, forced=[1, 5, 1, 5])

    def test_uniform_forced_needs_one_per_period(self):
        with pytest.raises(SequenceExhausted, match="sample 3 is generated at time 4 <= horizon "
                                                    "10 but only 2 forced service times were given"):
            run(Uniform(period=2), Affine(1.0), D4, 10, forced=[4, 4])

    def test_forced_iterator_serves_a_run_that_can_queue(self):
        # such a run reads its forced times twice: once to fold for its guard, once to trace
        args = (Uniform(period=2), Affine(1.0), D15, 40)
        services = [5, 1] * 11
        assert run(*args, forced=iter(services)).d.tolist() == run(*args, forced=services).d.tolist()


class TestAgeBookkeeping:
    def test_pre_delivery_age_uses_delta0(self):
        trace = run(zero_waiting(D4), Affine(1.0), D4, 3, forced=[4], delta0=7)
        assert trace.delta.tolist() == [8, 9, 10]
        assert np.array_equal(trace.delta, trace.delta0 + np.arange(1, 4))

    def test_age_recurrence_and_reset(self):
        trace = run(Uniform(period=3), Affine(1.0), D15, 400, seed=11)
        events = reference_events(trace)
        delivs = {t: i for kind, i, t in events if kind == "delivered"}
        gens = {i: t for kind, i, t in events if kind == "generated"}
        for n in range(1, 400):
            if n + 1 in delivs:
                i = delivs[n + 1]
                assert trace.delta[n] == (n + 1) - gens[i]
            else:
                assert trace.delta[n] == trace.delta[n - 1] + 1

    def test_age_never_below_min_service_after_first_delivery(self):
        trace = run(Uniform(period=6), Affine(1.0), D111, 5000, seed=2)
        first = min(t for kind, _, t in reference_events(trace) if kind == "delivered")
        assert int(trace.delta[first - 1 :].min()) >= D111.y_min

    def test_freshest_is_n_minus_delta(self):
        # the freshest delivered sample's generation time, read off the event log
        trace = run(Uniform(period=4), Affine(1.0), D15, 200, seed=5)
        events = reference_events(trace)
        gens = {i: t for kind, i, t in events if kind == "generated"}
        delivs = {t: i for kind, i, t in events if kind == "delivered"}
        freshest = -trace.delta0
        for n in range(1, 201):
            if n in delivs:
                freshest = gens[delivs[n]]
            assert trace.delta[n - 1] == n - freshest


class TestThresholdPolicy:
    def test_uses_solved_waits_beyond_default_cap(self):
        # Z(1) = 13944 is past the default cap of 10000; the policy must
        # carry the solved waits rather than re-derive them under another cap
        dist = ServiceTimeDist({1: 0.9998, 1_000_000: 0.0002})
        res = solve_beta(Affine(1.0), dist, z_max=100_000)
        assert res.waiting[1] == 13_944
        trace = run(res.waiting, Affine(1.0), dist, 30_000, forced=[1, 1, 1])
        gens = [t for kind, _, t in reference_events(trace) if kind == "generated"]
        assert gens == [0, 13_945, 27_890]
        assert np.count_nonzero(trace.d <= trace.horizon) == 3

    def test_waits_must_cover_support(self):
        with pytest.raises(ValueError, match="missing support point 5"):
            run({1: 0}, Affine(1.0), D15, 3, forced=[1, 5])

    def test_solved_waits_are_not_zero_wait(self):
        # the waits {1: 1, 5: 0} wait after a 1-step service, so their ages differ
        # from zero-wait's on the same draws
        waits = solve_beta(NegatedMI(BinarySymmetric(q=0.05)), D15).waiting
        hist = age_histogram(waits, D15, 60, 3)
        assert hist.tolist() == [0, 10, 10, 5, 5, 13, 8, 3, 3, 3]
        assert hist.tolist() != age_histogram(zero_waiting(D15), D15, 60, 3).tolist()
        deltas = reference_simulate(waits, D15, one_shot_services(D15, 60, 3), 60, 1)[0]
        assert hist.tolist() == np.bincount(deltas).tolist()

    @pytest.mark.parametrize("policy", ["not a policy", None], ids=["str", "none"])
    def test_rejects_what_is_not_a_policy(self, policy):
        message = re.escape(f"policy must be Uniform or a waiting function, got {policy!r}")
        with pytest.raises(TypeError, match=message):
            age_histogram(policy, D15, 60, 3)
        with pytest.raises(TypeError, match=message):
            next(simulator.trace_chunks(policy, Affine(1.0), D15, 60, 1, 3))


class TestFIFO:
    def test_pi1_policies_never_queue(self):
        waits = {1: 3, 5: 0}
        for policy in (zero_waiting(D15), waits):
            trace = run(policy, Affine(1.0), D15, 3000, seed=4)
            assert trace.queue_len.max() == 0
            assert np.mean((trace.start - trace.s)[trace.d <= trace.horizon]) == 0.0

    def test_pi1_delivery_is_generation_plus_service(self):
        trace = run(zero_waiting(D15), Affine(1.0), D15, 2000, seed=8)
        events = reference_events(trace)
        gens = {i: t for kind, i, t in events if kind == "generated"}
        starts = {i: t for kind, i, t in events if kind == "service_start"}
        assert all(starts[i] == gens[i] for i in starts)

    def test_delivery_order_is_generation_order(self):
        trace = run(Uniform(period=2), Affine(1.0), D15, 2000, seed=13)
        deliveries = [(i, t) for kind, i, t in reference_events(trace) if kind == "delivered"]
        indices = [i for i, _ in deliveries]
        times = [t for _, t in deliveries]
        assert indices == sorted(indices)
        assert times == sorted(times)

    def test_uniform_generates_on_the_period_grid(self):
        trace = run(Uniform(period=5), Affine(1.0), D15, 101, seed=1)
        gen_times = [t for kind, _, t in reference_events(trace) if kind == "generated"]
        assert gen_times == list(range(0, 101, 5))

    def test_each_sample_delivered_at_most_once(self):
        trace = run(Uniform(period=2), Affine(1.0), D15, 1000, seed=3)
        delivered = [i for kind, i, _ in reference_events(trace) if kind == "delivered"]
        assert len(delivered) == len(set(delivered))

    def test_queue_guard_aborts(self, monkeypatch):
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 5)
        with pytest.raises(RuntimeError, match="backlog"):
            run(Uniform(period=1), Affine(1.0), ServiceTimeDist({4: 1.0}), 200, seed=0)

    def test_queue_guard_trips_before_the_first_chunk(self, monkeypatch):
        # the guard is checked in the histogram fold, which trace_chunks runs once
        # before its first chunk, so a caller gets no chunk first
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 10)
        chunks = simulator.trace_chunks(Uniform(2), Affine(1.0), D15, 100_000, 1, seed=7)
        with pytest.raises(RuntimeError, match="backlog reached"):
            next(chunks)

    def test_forced_queue_guard_trips_before_the_first_chunk(self, monkeypatch):
        # a forced run that can queue takes the same fold before its first chunk
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 5)
        chunks = simulator.trace_chunks(Uniform(1), Affine(1.0), D4, 50, 1, forced=[4] * 51)
        with pytest.raises(RuntimeError, match=r"^queue backlog reached 38 samples \(guard 5\)"):
            next(chunks)

    def test_queue_guard_trips_at_the_block_that_passes_it(self, monkeypatch):
        # Uniform(1) against a 4-step service: sample j waits 3j steps, so the backlog
        # passes 10 within the first block of 64 samples, and the fold reads no more
        monkeypatch.setattr(simulator, "_CHUNK", 64)
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 10)
        read = []
        schedule = simulator._schedule

        def counted(*args, **kwargs):
            for block in schedule(*args, **kwargs):
                read.append(block)
                yield block

        monkeypatch.setattr(simulator, "_schedule", counted)
        with pytest.raises(RuntimeError, match=r"^queue backlog reached \d+ samples \(guard 10\)"):
            age_histogram(Uniform(1), D4, 10_000, 0)
        assert len(read) == 1

    def test_schedule_yields_every_block_past_the_guard(self, monkeypatch):
        # the schedule only produces; the fold that reads it decides where the run ends
        monkeypatch.setattr(simulator, "QUEUE_GUARD", 0)
        blocks = list(simulator._schedule(Uniform(1), D4, 200, 1, seed=0))
        assert sum(len(block.sojourn) for block in blocks) == 201
        with pytest.raises(RuntimeError, match=r"^queue backlog reached 150 samples \(guard 0\)"):
            age_histogram(Uniform(1), D4, 200, 0)


def trace_average(trace, metric):
    """The time average of ``metric`` over a trace's steps 1..horizon, its
    ages scored as ``average_over_seeds`` scores an age histogram."""
    return average_over_seeds([np.bincount(trace.delta)], metric, trace.horizon)[0]


class TestAverages:
    def test_zero_wait_deterministic_converges(self):
        trace = run(zero_waiting(D4), Affine(1.0), D4, 100_000, seed=0)
        assert trace_average(trace, Affine(1.0)) == pytest.approx(5.5, abs=1e-3)

    def test_iid_source_metric_identically_zero(self):
        trace = run(Uniform(period=6), BinarySymmetric(q=0.5), D111, 10_000, seed=1)
        assert trace_average(trace, BinarySymmetric(q=0.5)) == 0.0
        hists = [age_histogram(Uniform(period=6), D111, 10_000, seed) for seed in range(3)]
        mean, se = average_over_seeds(hists, BinarySymmetric(q=0.5), 10_000)
        assert mean == 0.0 and se == 0.0

    def test_zero_wait_matches_analytic_three_sigma(self):
        model = BinarySymmetric(q=0.1)
        exact = -cycle_stats(NegatedMI(model), D111, zero_waiting(D111)).ratio
        hists = [age_histogram(zero_waiting(D111), D111, 200_000, seed) for seed in range(6)]
        mean, se = average_over_seeds(hists, model, 200_000)
        assert abs(mean - exact) <= 3 * se

    def test_threshold_matches_analytic_three_sigma(self):
        penalty = NegatedMI(BinarySymmetric(q=0.1))
        res = solve_beta(penalty, D111, tol=1e-10)
        policy = res.waiting
        exact = cycle_stats(penalty, D111, res.waiting).ratio
        hists = [age_histogram(policy, D111, 200_000, seed) for seed in range(6)]
        mean, se = average_over_seeds(hists, penalty, 200_000)
        assert abs(mean - exact) <= 3 * se

    def test_histogram_matches_simulate_average(self):
        model = BinarySymmetric(q=0.1)
        hist = age_histogram(Uniform(period=6), D111, 50_000, seed=3)
        assert int(hist.sum()) == 50_000
        table = metric_table(model, len(hist))
        table[0] = 0.0
        via_hist = float(hist @ table) / 50_000
        trace = run(Uniform(period=6), model, D111, 50_000, seed=3)
        assert via_hist == trace_average(trace, model)
        assert np.array_equal(hist, np.bincount(trace.delta))

    def test_average_over_seeds_one_seed(self):
        model = BinarySymmetric(q=0.1)
        hist = age_histogram(Uniform(period=6), D111, 50_000, seed=3)
        trace = run(Uniform(period=6), model, D111, 50_000, seed=3)
        assert average_over_seeds([hist], model, 50_000) == (trace_average(trace, model), 0.0)
        with pytest.raises(ValueError, match="at least 1 seed"):
            average_over_seeds([], model, 50_000)

    def test_summary_fields(self):
        trace = run(zero_waiting(D4), Affine(1.0), D4, 100, seed=3)
        # deterministic 4-step services: a sample at 0, 4, ..., 100, delivered at 4, ..., 100
        delivered = trace.d <= trace.horizon
        assert len(trace.s) == 26
        assert np.count_nonzero(delivered) == 25
        assert np.mean((trace.start - trace.s)[delivered]) == 0.0


class TestDeterminism:
    def test_bit_identical_traces(self):
        a = run(Uniform(period=6), BinarySymmetric(q=0.2), D111, 5000, seed=9)
        b = run(Uniform(period=6), BinarySymmetric(q=0.2), D111, 5000, seed=9)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.metric, b.metric)
        assert np.array_equal(a.queue_len, b.queue_len)
        assert reference_events(a) == reference_events(b)
        assert all(np.array_equal(x, y) for x, y in ((a.s, b.s), (a.start, b.start), (a.d, b.d)))

    def test_different_seeds_differ(self):
        model = BinarySymmetric(q=0.2)
        a = run(zero_waiting(D111), model, D111, 5000, seed=1)
        b = run(zero_waiting(D111), model, D111, 5000, seed=2)
        assert trace_average(a, model) != trace_average(b, model)


class TestValidation:
    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            run(zero_waiting(D4), Affine(1.0), D4, 0, seed=0)

    def test_delta0_positive(self):
        with pytest.raises(ValueError):
            run(zero_waiting(D4), Affine(1.0), D4, 10, seed=0, delta0=0)

    @pytest.mark.parametrize("name, horizon, delta0", [("horizon", 20.5, 1), ("delta0", 20, 1.5)])
    def test_horizon_and_delta0_are_integers(self, name, horizon, delta0):
        bad = horizon if name == "horizon" else delta0
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {bad}$"):
            age_histogram(Uniform(3), D13, horizon, 1, delta0)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {bad}$"):
            run(zero_waiting(D13), Affine(1.0), D13, horizon, 1, delta0=delta0)

    def test_uniform_period_positive(self):
        with pytest.raises(ValueError):
            Uniform(period=0)

    def test_uniform_period_integer(self):
        with pytest.raises(ValueError, match="period must be an integer >= 1, got 2.5"):
            age_histogram(Uniform(2.5), D13, 50, 0)

    @pytest.mark.parametrize("waits", [{1: -1, 3: 0}, {1: -2, 3: 0}, {1: 0.5, 3: 0}],
                             ids=["minus-one", "minus-two", "fraction"])
    def test_threshold_waits_non_negative_integers(self, waits):
        with pytest.raises(ValueError, match=r"waits must be non-negative integers, got Z\(1\)"):
            age_histogram(waits, D13, 50, 0)

    def test_gaussian_metric_never_hits_age_zero(self):
        from infofresh.sources import GaussianAR1

        trace = run(zero_waiting(D15), GaussianAR1(a=0.9), D15, 5000, seed=1)
        assert np.isfinite(trace.metric).all()
        assert math.isfinite(trace_average(trace, GaussianAR1(a=0.9)))

    @pytest.mark.parametrize("seed", [None, 1.5, -1], ids=["none", "float", "negative"])
    def test_seed_is_a_non_negative_integer(self, seed):
        # None would draw OS entropy: a different histogram on every call
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got"):
            age_histogram(Uniform(3), D13, 1000, seed)
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got"):
            run(zero_waiting(D13), Affine(1.0), D13, 100, seed)

    def test_numpy_integer_seed(self):
        assert np.array_equal(age_histogram(Uniform(3), D13, 1000, np.int64(7)),
                              age_histogram(Uniform(3), D13, 1000, 7))


def reference_simulate(policy, dist, services, horizon, delta0):
    """Step-by-step event loop, deliberately naive, as an engine oracle.

    Consumes ``services`` in generation order; returns per-step ages and
    waiting-queue lengths for n = 1..horizon, the event log, and the
    delivered count.  Mirrors the documented semantics directly: at each
    tick deliveries complete first, then the policy may generate, then an
    idle server picks up the queue head.
    """
    feed = iter(services)
    queue = []  # sample indices waiting, FIFO
    svc = {}  # sample index -> service time
    gen_time = {}
    busy_until = None
    in_service = None
    next_gen = 0  # time of the next generation (Pi-1 policies)
    freshest = None
    delivered = 0
    events = []
    deltas, qlens = [], []
    i = 0
    for n in range(horizon + 1):
        if busy_until == n:
            events.append(("delivered", in_service, n))
            freshest = gen_time[in_service] if freshest is None else max(
                freshest, gen_time[in_service]
            )
            delivered += 1
            if not isinstance(policy, Uniform):
                next_gen = n + policy[svc[in_service]]
            busy_until = in_service = None
        due = (n % policy.period == 0) if isinstance(policy, Uniform) else (
            next_gen == n and (in_service is None or isinstance(policy, Uniform))
        )
        if due:
            i += 1
            try:
                y = next(feed)
            except StopIteration:
                raise SequenceExhausted(f"sample {i} needs a service time")
            svc[i], gen_time[i] = y, n
            queue.append(i)
            events.append(("generated", i, n))
        if in_service is None and queue:
            in_service = queue.pop(0)
            busy_until = n + svc[in_service]
            events.append(("service_start", in_service, n))
        if n >= 1:
            deltas.append(n - freshest if freshest is not None else delta0 + n)
            qlens.append(len(queue))
    return deltas, qlens, events, delivered


class TestAgainstReferenceEngine:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_policies_match_reference(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        dist = D15 if seed % 2 else D111
        horizon = int(rng.integers(30, 300))
        penalty = NegatedMI(BinarySymmetric(q=0.08))
        policies = [
            Uniform(period=int(rng.integers(1, 9))),
            zero_waiting(dist),
            solve_beta(penalty, dist, tol=1e-10).waiting,
        ]
        for policy in policies:
            # at most horizon + 1 samples can be generated, so never exhausted
            services = rng.choice(dist.support, size=2 * horizon + 4).tolist()
            trace = run(policy, Affine(1.0), dist, horizon, forced=services)
            deltas, qlens, events, delivered = reference_simulate(
                policy, dist, services, horizon, delta0=1
            )
            assert trace.delta.tolist() == deltas, f"{policy} ages diverge"
            assert trace.queue_len.tolist() == qlens, f"{policy} queues diverge"
            assert sorted(reference_events(trace)) == sorted(events), f"{policy} events diverge"
            assert np.count_nonzero(trace.d <= horizon) == delivered


HEAVY = ServiceTimeDist({1: 0.999, 300: 0.001})


def one_shot_services(dist, horizon, seed, count=None):
    """``count`` (by default ``horizon // y_min + 2``) inverse-CDF service times
    on PCG64(``seed``) uniforms, drawn at once: the engine draws the same
    stream in blocks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    count = horizon // dist.y_min + 2 if count is None else count
    idx = np.searchsorted(np.cumsum(dist.probs), rng.random(count), side="right")
    return np.asarray(dist.support)[np.minimum(idx, len(dist.support) - 1)].tolist()


def seeded_cases():
    """Params (policy, dist, horizon, seeds) of seeded runs checked against the reference."""
    q08 = NegatedMI(BinarySymmetric(q=0.08))
    cases = [
        ("uniform-period-1", Uniform(period=1), D15, 1500, (0, 1)),
        ("uniform-period-3", Uniform(period=3), D15, 1500, (2, 3)),
        ("uniform-above-y-max", Uniform(period=7), D15, 1500, (4,)),
        ("uniform-at-y-max", Uniform(period=5), D15, 1500, (3,)),
        # the paper config's load 1: three full default blocks and one more sample
        ("uniform-load-1", Uniform(period=6), D111, 3 * simulator._CHUNK * 6, (9,)),
        ("zero-wait", zero_waiting(D111), D111, 1500, (5, 6)),
        ("threshold", solve_beta(q08, D15, tol=1e-10).waiting, D15, 1500, (7, 8)),
        ("threshold-heavy", solve_beta(Affine(1.0), HEAVY).waiting, HEAVY, 2000, (1,)),
        # its 2,001 draws fit one block, so it runs in blocks of 512 to span several
        ("zero-wait-heavy", zero_waiting(HEAVY), HEAVY, 2000, (0, 6)),
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


def can_queue(policy, dist):
    """Whether a sample can wait: only under a uniform period shorter than y_max."""
    return isinstance(policy, Uniform) and policy.period < dist.y_max


class TestSeededHistograms:
    @pytest.mark.parametrize("policy, dist, horizon, seeds", seeded_cases())
    def test_histogram_matches_reference_bit_for_bit(self, monkeypatch, policy, dist, horizon,
                                                     seeds):
        chunks = []
        draw = ServiceTimeDist.sample_indices
        monkeypatch.setattr(ServiceTimeDist, "sample_indices",
                            lambda self, rng, n: chunks.append(n) or draw(self, rng, n))
        if dist is HEAVY and policy == zero_waiting(dist):
            monkeypatch.setattr(simulator, "_CHUNK", 512)
        for seed in seeds:
            delta0 = 1 + seed % 3
            chunks.clear()
            hist = age_histogram(policy, dist, horizon, seed, delta0)
            deltas = reference_simulate(policy, dist, one_shot_services(dist, horizon, seed),
                                        horizon, delta0)[0]
            assert hist.dtype == np.int64
            assert np.array_equal(hist, np.bincount(deltas)), (policy, seed)
            if dist is HEAVY and policy == zero_waiting(dist):
                assert len(chunks) > 1, "expected the draws to span more than one block"

    @pytest.mark.parametrize("dist", [D13, D15, D111], ids=["D13", "D15", "D111"])
    def test_uniform_at_a_period_past_y_max_is_a_waiting_function(self, dist):
        # no sample queues at P >= y_max: each generates P - y steps after the
        # last delivery, so the seeded runs agree bit for bit
        for period in (dist.y_max, dist.y_max + 1, dist.y_max + 5):
            waits = WaitingFunction({y: period - y for y in dist.support})
            for seed in range(3):
                for horizon in (1_000, 200_000):
                    assert np.array_equal(age_histogram(Uniform(period), dist, horizon, seed),
                                          age_histogram(waits, dist, horizon, seed)), (
                        period, seed, horizon)

    @pytest.mark.parametrize("chunk", [512, simulator._CHUNK])
    @pytest.mark.parametrize("seed", [0, 6])
    def test_every_block_but_the_last_is_full(self, monkeypatch, chunk, seed):
        # a rare long service time: a draw sized by the mean gap would fall short
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        blocks = simulator._schedule(zero_waiting(HEAVY), HEAVY, 2000, 1, seed)
        sizes = [len(b.sojourn) for b in blocks]
        assert sizes[:-1] == [chunk] * (len(sizes) - 1), sizes
        assert sum(sizes) <= 2001  # no more than one sample a step can generate

    @pytest.mark.parametrize("policy, dist, horizon, seeds",
                             [p for p in seeded_cases() if not can_queue(*p.values[:2])])
    def test_waiting_function_blocks_never_wait(self, monkeypatch, policy, dist, horizon, seeds):
        # a uniform period >= y_max is the waiting function P - y: no sample waits either
        # (blocks of 64 samples, so every run spans several)
        monkeypatch.setattr(simulator, "_CHUNK", 64)
        for seed in seeds:
            blocks = list(simulator._schedule(policy, dist, horizon, 1, seed))
            assert len(blocks) > 1
            for block in blocks:
                assert block.wait is None
                assert np.shape(block.gap) in {(), block.sojourn.shape}
                s, start, d = simulator._times(block)
                assert start is s
            sojourn = np.concatenate([block.sojourn for block in blocks])
            assert sojourn.tolist() == one_shot_services(dist, horizon, seed, count=len(sojourn))

    def test_period_past_the_horizon_sizes_nothing_by_it(self):
        # only the time-0 sample is generated by the horizon, whatever the period past it
        policy, horizon = Uniform(period=10**7), 100
        age_histogram(policy, D15, horizon, 0)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            hist = age_histogram(policy, D15, horizon, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peaked at {peak / 2**20:.1f} MiB"
        deltas = reference_simulate(policy, D15, one_shot_services(D15, horizon, 0), horizon,
                                    1)[0]
        assert np.array_equal(hist, np.bincount(deltas))
        trace = run(policy, Affine(1.0), D15, horizon, 0)
        assert trace.delta.tolist() == deltas

    @pytest.mark.parametrize("policy, dist, horizon, seeds", seeded_cases())
    def test_trace_matches_reference(self, policy, dist, horizon, seeds):
        horizon = min(horizon, 3000)  # the reference writer builds a row at a time
        for seed in seeds:
            trace = run(policy, BinarySymmetric(q=0.08), dist, horizon, seed)
            deltas, qlens = reference_simulate(
                policy, dist, one_shot_services(dist, horizon, seed), horizon, 1)[:2]
            assert trace.delta.tolist() == deltas, seed
            assert trace.queue_len.tolist() == qlens, seed
            assert column_csv(trace) == reference_csv(trace), seed

    @pytest.mark.parametrize("policy, dist, horizon, seeds",
                             [p for p in seeded_cases() if isinstance(p.values[0], Uniform)])
    def test_backlog_guard_peak(self, monkeypatch, policy, dist, horizon, seeds):
        def peak_at(steps, seed):
            trace = run(policy, Affine(1.0), dist, steps, seed)
            generated = np.arange(1, len(trace.s) + 1)
            peak = int((generated - np.searchsorted(trace.start, trace.s, side="right")).max())
            qlens = reference_simulate(policy, dist, one_shot_services(dist, steps, seed),
                                       steps, 1)[1]
            assert peak == max(qlens)
            return peak

        # the peak is taken block by block, so small blocks must find the same one; they
        # run at most a few thousand steps, which keeps one-sample blocks quick
        horizons = {chunk: horizon if chunk == simulator._CHUNK else min(horizon, 6000)
                    for chunk in (1, 7, simulator._CHUNK)}
        peaks = {(steps, seed): peak_at(steps, seed)
                 for steps in set(horizons.values()) for seed in seeds}
        for chunk, steps in horizons.items():
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
            for seed in seeds:
                peak = peaks[steps, seed]
                if not can_queue(policy, dist):
                    # no sample can wait, so no guard is consulted, not even one below 0
                    assert peak == 0
                    monkeypatch.setattr(simulator, "QUEUE_GUARD", -1)
                    age_histogram(policy, dist, steps, seed)
                    continue
                # the guard reports the peak it computes: it trips one below it and passes at it
                monkeypatch.setattr(simulator, "QUEUE_GUARD", peak - 1)
                with pytest.raises(RuntimeError, match=f"backlog reached {peak} samples"):
                    age_histogram(policy, dist, steps, seed)
                monkeypatch.setattr(simulator, "QUEUE_GUARD", peak)
                age_histogram(policy, dist, steps, seed)


BLOCK_SIZES = [1, 2, 3, 7, simulator._CHUNK]


@st.composite
def seeded_runs(draw):
    """A seeded run of any policy on a small random support."""
    support = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    dist = ServiceTimeDist({y: 1.0 / len(support) for y in support})
    policy = draw(st.one_of(
        st.builds(Uniform, period=st.integers(1, 8)),
        st.just(zero_waiting(dist)),
        st.fixed_dictionaries({y: st.integers(0, 6) for y in support}),
    ))
    # short horizons end before the first delivery, so only the pre-delivery segment counts
    horizon = draw(st.integers(1, 200))
    return policy, dist, horizon, draw(st.integers(0, 2**32)), draw(st.integers(1, 40))


def assert_histogram_matches_reference(policy, dist, horizon, seed, delta0, chunk):
    with mock.patch.object(simulator, "_CHUNK", chunk):
        hist = age_histogram(policy, dist, horizon, seed, delta0)
    # at most horizon + 1 samples are generated, so horizon + 2 draws never run out
    services = one_shot_services(dist, horizon, seed, count=horizon + 2)
    deltas = reference_simulate(policy, dist, services, horizon, delta0)[0]
    assert hist.dtype == np.int64
    assert np.array_equal(hist, np.bincount(deltas)), (policy, horizon, seed, delta0, chunk)


@given(seeded_runs(), st.sampled_from(BLOCK_SIZES))
@example((zero_waiting(D12), D12, 5, 0, 3), 2)  # no delivery by the horizon
@settings(max_examples=200, deadline=None, derandomize=True)
def test_histogram_across_block_boundaries_property(run, chunk):
    assert_histogram_matches_reference(*run, chunk)


def block_times(policy, horizon, delta0, seed, chunk):
    """Each schedule ``_Block``'s times ``(s, start, d)``, in blocks of ``chunk`` samples."""
    with mock.patch.object(simulator, "_CHUNK", chunk):
        return list(map(simulator._times, simulator._schedule(policy, D15, horizon, delta0, seed)))


@pytest.mark.parametrize("policy", [Uniform(period=2), zero_waiting(D15), {1: 3, 5: 0}],
                         ids=["uniform", "zero-wait", "threshold"])
@pytest.mark.parametrize("chunk", BLOCK_SIZES[1:4])
def test_histogram_horizon_on_a_blocks_last_delivery(policy, chunk):
    # the horizon is the delivery of each block's last sample in turn: that block
    # delivers all it holds, and the next block delivers nothing by the horizon
    seed, delta0 = 3, 4
    blocks = block_times(policy, 300, delta0, seed, chunk)
    ends = [int(d[-1]) for _, _, d in blocks[:-1] if len(d) == chunk]
    assert len(ends) > 3
    for horizon in ends[:4]:
        blocks = block_times(policy, horizon, delta0, seed, chunk)
        assert horizon in [int(d[-1]) for _, _, d in blocks]
        assert_histogram_matches_reference(policy, D15, horizon, seed, delta0, chunk)


# The tuple-list trace writer that the column writer replaced, kept as its
# reference: one (kind, i, t) tuple per event, sorted, then csv.writer per row.
_REFERENCE_TOKEN = {"generated": "gen", "service_start": "start", "delivered": "deliver"}


def reference_csv(trace):
    """CSV lines, line endings kept, so a mismatch reports its first line."""
    by_time = {}
    for kind, i, t in reference_events(trace):
        by_time.setdefault(t, []).append(f"{_REFERENCE_TOKEN[kind]}:{i}")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "delta", "metric", "queue_len", "event"])
    w.writerow([0, trace.delta0, simulator._fmt(trace.metric0), 0, "|".join(by_time.get(0, []))])
    for n in range(1, trace.horizon + 1):
        w.writerow(
            [
                n,
                int(trace.delta[n - 1]),
                simulator._fmt(float(trace.metric[n - 1])),
                int(trace.queue_len[n - 1]),
                "|".join(by_time.get(n, [])),
            ]
        )
    return buf.getvalue().splitlines(keepends=True)


def column_csv(trace):
    buf = io.BytesIO()
    write_trace(buf, trace.chunks)
    return buf.getvalue().decode("ascii").splitlines(keepends=True)


def random_runs(seed):
    """(policy, dist, services, horizon) for all three policies, as in
    ``TestAgainstReferenceEngine``, plus a uniform period of 2 that queues."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dist = D15 if seed % 2 else D111
    horizon = int(rng.integers(30, 300))
    penalty = NegatedMI(BinarySymmetric(q=0.08))
    policies = [
        Uniform(period=int(rng.integers(1, 9))),
        Uniform(period=2),  # shorter than either mean service time
        zero_waiting(dist),
        solve_beta(penalty, dist, tol=1e-10).waiting,
    ]
    for policy in policies:
        yield policy, dist, rng.choice(dist.support, size=2 * horizon + 4).tolist(), horizon


class TestColumnWriter:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_replays_match_reference_writer(self, seed):
        queued = 0
        for policy, dist, services, horizon in random_runs(seed):
            trace = run(policy, BinarySymmetric(q=0.08), dist, horizon, forced=services)
            assert column_csv(trace) == reference_csv(trace), policy
            queued += int(trace.queue_len.max())
        assert queued > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_events_on_and_just_past_the_horizon(self, seed):
        for policy, dist, services, horizon in random_runs(seed):
            full = run(policy, Affine(1.0), dist, horizon, forced=services)
            k = int(np.searchsorted(full.d, horizon, side="right"))
            for kind, times in (("service_start", full.start), ("delivered", full.d)):
                for j in (k // 2, k - 1):
                    t = int(times[j])
                    at = run(policy, Affine(1.0), dist, t, forced=services)
                    assert (kind, j + 1, t) in reference_events(at)
                    assert column_csv(at) == reference_csv(at), (policy, kind, t)
                    if t > 1:
                        past = run(policy, Affine(1.0), dist, t - 1, forced=services)
                        assert (kind, j + 1, t) not in reference_events(past)
                        assert column_csv(past) == reference_csv(past), (policy, kind, t - 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_start_written_at_generation_matches_copied_start(self, seed):
        # a forced uniform period >= y_max never queues either
        for policy, dist, services, horizon in random_runs(seed):
            if not can_queue(policy, dist):
                assert_start_routes_agree(simulator.trace_chunks(
                    policy, BinarySymmetric(q=0.08), dist, horizon, 1, forced=services))

    @pytest.mark.parametrize("forced", [None, [1, 5, 5, 1, 5] * 2000], ids=["seeded", "forced"])
    def test_start_routes_agree_on_a_uniform_period_at_y_max(self, forced):
        # Uniform(5) on {1, 5} takes the no-queue route, over more than one chunk
        chunks = simulator.trace_chunks(Uniform(period=5), BinarySymmetric(q=0.1), D15, 40_000, 1,
                                        seed=None if forced else 7, forced=forced)
        assert_start_routes_agree(chunks)

    @pytest.mark.parametrize("policy", [zero_waiting(D15), {1: 1, 5: 0}],
                             ids=["zero-wait", "threshold"])
    def test_a_run_that_never_queues_spells_no_queue(self, monkeypatch, policy):
        # its queue_len 0 ends each age's prefix: _decimal spells only the step numbers
        # and sample indices, which count up by one, and no queue column
        chunks = list(simulator.trace_chunks(policy, Affine(1.0), D15, 20_000, 1, seed=3))
        assert len(chunks) > 1
        decimal = simulator._decimal

        def spelled(chunks):
            arrays = []
            monkeypatch.setattr(simulator, "_decimal",
                                lambda values, out: arrays.append(values) or decimal(values, out))
            write_trace(io.BytesIO(), chunks)
            return [values for values in arrays if len(values) > 1]

        def counts_up(values):
            return np.array_equal(values, np.arange(values[0], values[0] + len(values)))

        arrays = spelled(chunks)
        assert arrays and all(map(counts_up, arrays))
        # the spy sees the queue of a chunk that carries its own start
        copied = [(*head, s, s.copy(), d) for *head, s, _, d in chunks]
        assert not all(map(counts_up, spelled(copied)))

    @pytest.mark.parametrize("copied", [0, 1], ids=["searched-first", "folded-first"])
    def test_chunks_may_switch_start_routes(self, copied):
        # each chunk takes its own route: one call may mix folded chunks (start is s)
        # with chunks that carry their own start, and writes the same bytes
        chunks = list(simulator.trace_chunks(zero_waiting(D15), Affine(1.0), D15, 20_000, 1,
                                             seed=3))
        assert len(chunks) > 2
        searched = [(*head, s, s.copy(), d) for *head, s, _, d in chunks]
        mixed = [searched[i] if i % 2 == copied else c for i, c in enumerate(chunks)]
        want, got = io.BytesIO(), io.BytesIO()
        write_trace(want, searched)
        write_trace(got, mixed)
        assert got.getvalue() == want.getvalue()

    def test_start_routes_agree_on_a_seeded_threshold_trace(self):
        # the seeded-threshold-two-blocks golden's config: perfbench's trace-long at seed 1
        penalty = NegatedMI(BinarySymmetric(q=0.05))
        policy = solve_beta(penalty, D15).waiting
        assert_start_routes_agree(simulator.trace_chunks(policy, BinarySymmetric(q=0.05), D15,
                                                         200_000, 1, seed=1))

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_chunk_boundaries(self, monkeypatch, offset):
        chunk = 16
        monkeypatch.setattr(simulator, "_CSV_CHUNK_ROWS", chunk)
        # rows = horizon + 1, so these put the last row on either side of a boundary
        for horizon in (chunk + offset, 3 * chunk + offset):
            trace = run(Uniform(period=2), BinarySymmetric(q=0.1), D15, horizon, seed=6)
            assert column_csv(trace) == reference_csv(trace), horizon

    @pytest.mark.parametrize("policy", [zero_waiting(D15), Uniform(period=2)],
                             ids=["zero-wait", "uniform"])
    def test_one_chunk_past_the_chunk_size(self, policy):
        # a caller's chunks may be longer than the trace's own: size nothing by them
        horizon = 20_000
        trace = run(policy, BinarySymmetric(q=0.1), D15, horizon, seed=1)
        assert len(trace.chunks) > 1
        one = io.BytesIO()
        write_trace(one, as_chunks(trace, rows=horizon + 1))
        assert one.getvalue().decode("ascii").splitlines(keepends=True) == column_csv(trace)

    def test_default_chunk_size(self):
        horizon = simulator._CSV_CHUNK_ROWS  # one full chunk and a one-row chunk
        trace = run(Uniform(period=2), BinarySymmetric(q=0.1), D15, horizon, seed=6)
        assert column_csv(trace) == reference_csv(trace)

    @pytest.mark.parametrize("seed", range(8))
    def test_at_most_one_event_of_each_kind_per_step(self, seed):
        for policy, dist, services, horizon in random_runs(seed):
            trace = run(policy, Affine(1.0), dist, horizon, forced=services)
            pairs = [(kind, t) for kind, _, t in reference_events(trace)]
            assert len(pairs) == len(set(pairs)), policy


def assert_start_routes_agree(chunks):
    """A run that never queues yields ``start`` as ``s`` itself, and ``write_trace``
    then writes each start from its generation and the zero queue in each age's
    prefix; with ``start`` a copy it searches the start times and spells the
    queue as for a run that queues.  Both must write the same bytes."""
    chunks = list(chunks)
    assert all(start is s for *_, s, start, _ in chunks)
    copied = [(*head, s, s.copy(), d) for *head, s, _, d in chunks]
    same, searched = io.BytesIO(), io.BytesIO()
    write_trace(same, chunks)
    write_trace(searched, copied)
    assert same.getvalue() == searched.getvalue()


class TestWriterDigitWidths:
    """``write_trace`` against ``reference_csv`` wherever a field gains a digit."""

    @pytest.mark.parametrize("horizon", [9, 10, 99, 100, 999, 1000])
    def test_step_number_widths(self, horizon):
        for policy in (zero_waiting(D15), Uniform(period=3)):
            trace = run(policy, Affine(1.0, -2.0), D15, horizon, forced=[1, 5, 5, 1] * 400)
            assert column_csv(trace) == reference_csv(trace), (policy, horizon)

    def test_queue_length_widths(self):
        # period 2 against a 4-step service: the backlog grows by one every 4 steps
        trace = run(Uniform(period=2), Affine(1.0), D4, 1000, forced=[4] * 600)
        assert {9, 10, 99, 100} <= set(trace.queue_len.tolist())
        assert column_csv(trace) == reference_csv(trace)

    def test_sample_index_widths(self):
        for policy in (zero_waiting(D4), Uniform(period=2), Uniform(period=5)):
            trace = run(policy, NegatedMI(BinarySymmetric(q=0.1)), D4, 1000, forced=[4] * 600)
            for kind in ("generated", "service_start", "delivered"):
                indices = {i for k, i, _ in reference_events(trace) if k == kind}
                assert {9, 10, 99, 100} <= indices, (policy, kind)
            assert column_csv(trace) == reference_csv(trace), policy

    def test_thirteen_digit_ages(self):
        # a run sizes its metric table by delta0, so move a delta0 = 1 trace's
        # pre-delivery ages to delta0 = 10**12 by hand; the writer must not
        # size anything by delta0
        delta0 = 10**12
        trace = run(zero_waiting(D4), Affine(1.0), D4, 100, forced=[4] * 40)
        pre = np.arange(1, trace.horizon + 1) < trace.d[0]
        delta = np.where(pre, trace.delta + delta0 - 1, trace.delta)
        big = SimpleNamespace(**vars(trace) | dict(delta0=delta0, metric0=-delta0 / 8,
                                                   delta=delta, metric=-delta / 8))
        big.chunks = as_chunks(big)
        assert len(str(int(big.delta.max()))) == 13
        assert column_csv(big) == reference_csv(big)

    def test_long_queue_lengths(self):
        # the backlog crosses 999,999 -> 1,000,000, the most trace_chunks can carry under
        # QUEUE_GUARD: a sample a step queues behind a first service of y0 steps, then
        # each is served in 1 step.  A chunk's queue is bounded by the samples it holds,
        # so the times are built by hand, and the chunk around the crossing is checked
        # against rows spelled from the construction: sample i >= 1 starts at y0 + i - 1
        y0, horizon, rows = simulator.QUEUE_GUARD + 1, simulator.QUEUE_GUARD + 100, 96
        s = np.arange(horizon + 1)
        start = np.concatenate(([0], y0 + np.arange(horizon)))
        d = start + np.concatenate(([y0], np.ones(horizon, dtype=np.int64)))
        steps = np.arange(1, horizon + 1)
        delta = np.where(steps < y0, steps + 1, y0)  # sample n - y0, delivered at n, owns n
        big = SimpleNamespace(horizon=horizon, delta0=1, metric0=-1 / 8, delta=delta,
                              metric=-delta / 8, s=s, start=start, d=d)
        k = simulator.QUEUE_GUARD // rows
        lo, *_ = chunk = as_chunks(big, rows)[k]
        assert lo < simulator.QUEUE_GUARD - 1 < lo + rows - 1 < horizon
        buf = io.BytesIO()
        write_trace(buf, [chunk])

        def row(n):
            events = [f"deliver:{n - y0 + 1}"] * (n >= y0) + [f"gen:{n + 1}"]
            events += [f"start:{n - y0 + 2}"] * (n >= y0)
            age = n + 1 if n < y0 else y0
            return f"{n},{age},{simulator._fmt(-age / 8)},{min(n, y0 - 1)},{'|'.join(events)}\n"

        lines = buf.getvalue().decode("ascii").splitlines(keepends=True)
        assert lines[1:] == [row(n) for n in range(lo, lo + rows)]
        assert {"999999", "1000000"} <= {line.split(",")[3] for line in lines[1:]}

    def test_decimal_words_match_str(self):
        # every power-of-ten boundary, which includes both sides of each 8-digit
        # word boundary (10**8, 10**16), the largest int64, and groups of zeros
        # between nonzero ones
        values = {0, 2**63 - 1, 10**8 + 1, 10**12 + 10**4, 12_345_678_901_234_567}
        values |= {10**k + e for k in range(19) for e in (-1, 0)}
        # one word of values below 10**4 alone takes the single-lookup path
        for words, top in ((1, 10**4), (1, 10**8), (2, 10**16), (3, 10**24)):
            fit = sorted(v for v in values if v < top)
            out = np.empty((words, len(fit)), dtype="<u8")
            simulator._decimal(np.array(fit, dtype=np.int64), out)
            assert_words_match_str(out, fit)

    # consecutive values (the trace's step numbers and sample indices) from 0 and from
    # mid-run, across 9,999/10,000, into a second word at 10**8 and a third at 10**16
    @pytest.mark.parametrize("words, lo, hi", [
        (1, 0, 10), (1, 0, 25_000), (1, 7_321, 7_322), (1, 9_990, 10_010),
        (1, 3_456, 41_234), (2, 10**8 - 12_345, 10**8 + 23_456),
        (3, 10**16 - 10_007, 10**16 + 10_003), (3, 2**62, 2**62 + 3)])
    def test_decimal_range_matches_str(self, words, lo, hi):
        out = np.empty((words, hi - lo), dtype="<u8")
        simulator._decimal(np.arange(lo, hi), out)
        assert_words_match_str(out, range(lo, hi))


def assert_words_match_str(out, values):
    """Each column of ``out`` is its value's digits right-aligned in NULs, 0 all NUL."""
    width = 8 * len(out)
    rows = out.T.tobytes()
    for k, v in enumerate(values):
        digits = str(v).encode() if v else b""  # 0 has no digits
        assert rows[width * k: width * (k + 1)] == digits.rjust(width, b"\0"), (v, len(out))


@st.composite
def writer_replays(draw):
    """A replay of any policy on a small random support, scored by a metric
    whose printed values include negatives and exact zeros."""
    support = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    dist = ServiceTimeDist({y: 1.0 / len(support) for y in support})
    policy = draw(st.one_of(
        st.builds(Uniform, period=st.integers(1, 8)),
        st.just(zero_waiting(dist)),
        st.fixed_dictionaries({y: st.integers(0, 6) for y in support}),
    ))
    metric = draw(st.one_of(
        st.builds(Affine, slope=st.sampled_from([0.0, 0.5, 1.0]),
                  intercept=st.sampled_from([0.0, -1.0, -3.0, -7.25])),
        st.builds(lambda q: NegatedMI(BinarySymmetric(q=q)), st.sampled_from([0.05, 0.3, 0.5])),
        st.just(PenaltyTable(values=(-3.0, -1.0, 0.0, 0.0, 2.5))),
        st.just(BinarySymmetric(q=0.5)),  # exactly 0 at every age past 0
    ))
    horizon = draw(st.integers(1, 150))
    pattern = draw(st.lists(st.sampled_from(support), min_size=1, max_size=6))
    services = (pattern * (horizon + 2))[: horizon + 2]
    delta0 = draw(st.sampled_from([1, 9, 10, 99, 100]) | st.integers(1, 5000))
    return dict(policy=policy, metric=metric, dist=dist, horizon=horizon, forced=services,
                delta0=delta0)


@given(writer_replays(), st.sampled_from([1, 7, 16, simulator._CSV_CHUNK_ROWS]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_column_writer_matches_reference_property(replay, chunk):
    with mock.patch.object(simulator, "_CSV_CHUNK_ROWS", chunk):
        trace = run(**replay)
    assert column_csv(trace) == reference_csv(trace)
