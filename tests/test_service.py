"""Service-time distributions: exact expectations and seeded sampling."""

import math

import numpy as np
import pytest

from infofresh.service import _COUNTED_SUPPORT, SERVICE_TIME_MAX, ServiceTimeDist
from infofresh.sources import BinarySymmetric, scalar_metric

# Frozen by high-precision evaluation: 0.5*r(1) + 0.5*r(11) for q = 0.1.
MIX_MI_Q01 = 0.2681667883475161


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def sample(d, r, n):
    """``n`` service times drawn from ``d`` on generator ``r``, in draw order."""
    return np.asarray(d.support)[d.sample_indices(r, n)]


class TestConstruction:
    def test_sorted_and_normalized(self):
        d = ServiceTimeDist({5: 0.5, 1: 0.5})
        assert d.support == (1, 5)
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)
        # the order the pairs are listed in does not matter
        same = ServiceTimeDist({1: 0.5, 5: 0.5})
        assert (same.support, same.probs) == (d.support, d.probs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^service distribution needs at least one"):
            ServiceTimeDist({})

    def test_rejects_zero_service(self):
        with pytest.raises(ValueError):
            ServiceTimeDist({0: 0.5, 1: 0.5})

    def test_service_times_are_bounded(self):
        # every exact table is sized by y_max; the bound is checked before any is built
        assert ServiceTimeDist({1: 0.5, 10**6: 0.5}).y_max == SERVICE_TIME_MAX == 10**6
        with pytest.raises(ValueError, match="^service times must be <= 1000000, got 1000001$"):
            ServiceTimeDist({1: 0.5, 10**6 + 1: 0.5})

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ServiceTimeDist({1.5: 1.0})

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ServiceTimeDist({1: 0.0, 2: 1.0})
        with pytest.raises(ValueError):
            ServiceTimeDist({1: 0.6, 2: 0.6})

    def test_rejects_sum_off_by_too_much(self):
        with pytest.raises(ValueError):
            ServiceTimeDist({1: 0.5, 2: 0.5001})

    def test_renormalizes_tiny_drift(self):
        d = ServiceTimeDist({1: 0.5 + 2e-13, 2: 0.5})
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)

    def test_pairs_input(self):
        d = ServiceTimeDist([(2, 0.25), (1, 0.75)])
        assert d.support == (1, 2)
        assert d.probs == (0.75, 0.25)

    def test_rejects_duplicate_points_by_value(self):
        # the duplicates must be named, not collapsed into a short sum
        with pytest.raises(ValueError, match="1 is listed more than once"):
            ServiceTimeDist([(1, 0.5), (1, 0.5)])


class TestMean:
    def test_fig_service_means(self):
        assert ServiceTimeDist({1: 0.5, 5: 0.5}).mean() == 3.0
        assert ServiceTimeDist({1: 0.5, 11: 0.5}).mean() == 6.0

    def test_point_mass(self):
        assert ServiceTimeDist({4: 1.0}).mean() == 4.0


class TestExpect:
    def test_mi_mixture(self):
        d = ServiceTimeDist({1: 0.5, 11: 0.5})
        model = BinarySymmetric(q=0.1)
        got = math.fsum(p * scalar_metric(model)(y) for y, p in zip(d.support, d.probs))
        assert got == pytest.approx(MIX_MI_Q01, abs=1e-14)


class TestSampling:
    def test_point_mass_always_same(self):
        d = ServiceTimeDist({7: 1.0})
        assert np.all(sample(d, rng(1), 100) == 7)

    def test_empirical_pmf_three_sigma(self):
        # binomial 3-sigma bound at 1e6 draws: |freq - 0.5| <= 0.0015 < 0.002
        d = ServiceTimeDist({1: 0.5, 5: 0.5})
        draws = sample(d, rng(42), 1_000_000)
        freq1 = float(np.mean(draws == 1))
        assert abs(freq1 - 0.5) <= 0.002

    def test_empirical_pmf_uneven(self):
        d = ServiceTimeDist({1: 0.1, 3: 0.6, 9: 0.3})
        draws = sample(d, rng(7), 1_000_000)
        for y, p in zip(d.support, d.probs):
            freq = float(np.mean(draws == y))
            sigma = math.sqrt(p * (1 - p) / 1_000_000)
            assert abs(freq - p) <= 3.5 * sigma

    def test_seed_replay(self):
        d = ServiceTimeDist({1: 0.25, 2: 0.25, 3: 0.5})
        a = sample(d, rng(5), 1000)
        b = sample(d, rng(5), 1000)
        assert np.array_equal(a, b)

    def test_single_draw_consistent_with_bulk(self):
        # one uniform per draw: drawing one at a time replays a bulk draw
        d = ServiceTimeDist({1: 0.3, 4: 0.7})
        r = rng(11)
        singles = [int(sample(d, r, 1)[0]) for _ in range(50)]
        assert singles == sample(d, rng(11), 50).tolist()


class _Uniforms:
    """A stand-in generator whose ``random`` returns the uniforms it was given."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


def searched_indices(dist, u):
    return np.minimum(np.searchsorted(dist._cdf, u, side="right"), len(dist.support) - 1)


class TestSampleIndices:
    """Supports of up to ``_COUNTED_SUPPORT`` points count comparisons and
    larger ones search; on the same uniforms both give the clamped
    right-side search's indices."""

    @pytest.mark.parametrize("size", [*range(1, 10), _COUNTED_SUPPORT, _COUNTED_SUPPORT + 1])
    def test_matches_search_with_ties(self, size):
        r = rng(size)
        probs = r.random(size) + 0.01
        dist = ServiceTimeDist({y: p / probs.sum() for y, p in zip(range(1, size + 1), probs)})
        cdf = dist._cdf
        # every cdf entry exactly, and its neighbours on either side
        u = np.concatenate((r.random(10_000), cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2),
                            [0.0, np.nextafter(1.0, 0)]))
        assert np.array_equal(dist.sample_indices(_Uniforms(u), len(u)),
                              searched_indices(dist, u))

    @pytest.mark.parametrize("size", [7, 10, 44])
    def test_last_cdf_entry_below_one(self, size):
        assert (size > _COUNTED_SUPPORT) == (size == 44)  # both sides of the switch
        dist = ServiceTimeDist({y: 1 / size for y in range(1, size + 1)})
        last = dist._cdf[-1]
        assert last < 1.0
        u = np.array([np.nextafter(last, 0), last, np.nextafter(last, 1), np.nextafter(1.0, 0)])
        idx = dist.sample_indices(_Uniforms(u), len(u))
        assert np.array_equal(idx, searched_indices(dist, u))
        assert idx.tolist() == [size - 1] * 4
