"""Source models, information curves, entropies, and penalties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infofresh.analytic import brute_force_optimum
from infofresh.service import ServiceTimeDist
from infofresh.solver import cycle_stats, solve_beta, zero_waiting
from infofresh.sources import (
    Affine,
    BinarySymmetric,
    GaussianAR1,
    NegatedMI,
    PenaltyTable,
    Tabulated,
    metric_table,
    penalty_prefix_sums,
    scalar_metric,
)

# Frozen by high-precision (40-digit) evaluation of the closed forms.
H_QUARTER = 0.8112781244591328
MI_BIN_Q25_D1 = 0.18872187554086714
MI_GAUSS_A5_D1 = 0.2075187496394219


def binary_entropy(x: float) -> float:
    """Binary entropy -x*log2(x) - (1-x)*log2(1-x), with 0*log2(0) = 0: the
    reference that the binary information curve is checked against."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_symmetry_exact_on_dyadics(self):
        # 1 - x is exact for multiples of 1/1024, so equality is bitwise
        for k in range(1025):
            x = k / 1024
            assert binary_entropy(x) == binary_entropy(1.0 - x)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None, derandomize=True)
    def test_symmetry_general(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-14)


class TestMutualInformation:
    def test_gaussian_infinite_at_zero_age(self):
        assert scalar_metric(GaussianAR1(a=0.9))(0) == math.inf

    def test_binary_one_at_zero_age(self):
        assert scalar_metric(BinarySymmetric(q=0.3))(0) == 1.0

    def test_binary_iid_is_zero(self):
        # q = 1/2 makes consecutive states independent
        assert scalar_metric(BinarySymmetric(q=0.5))(1) == 0.0
        assert scalar_metric(BinarySymmetric(q=0.5))(7) == 0.0

    def test_binary_closed_form(self):
        assert scalar_metric(BinarySymmetric(q=0.25))(1) == pytest.approx(
            MI_BIN_Q25_D1, abs=1e-15
        )

    def test_gaussian_closed_form(self):
        assert scalar_metric(GaussianAR1(a=0.5))(1) == pytest.approx(
            MI_GAUSS_A5_D1, abs=1e-15
        )

    def test_matches_direct_entropy_formula(self):
        # sanity against the unrearranged 1 - h((1-t)/2) expression
        for q in (0.05, 0.1, 0.3, 0.45):
            for d in (1, 2, 5, 20):
                t = (1 - 2 * q) ** d
                direct = 1.0 - binary_entropy((1 - t) / 2)
                assert scalar_metric(BinarySymmetric(q=q))(d) == pytest.approx(
                    direct, abs=1e-12
                )

    def test_tabulated_lookup_and_tail(self):
        m = Tabulated(values=(2.0, 1.0, 0.25))
        assert scalar_metric(m)(0) == 2.0
        assert scalar_metric(m)(2) == 0.25
        assert scalar_metric(m)(3) == 0.0  # extended by zero past the table

    def test_binary_vanishes_in_the_tail(self):
        for q in (0.05, 0.1, 0.25, 0.5):
            assert scalar_metric(BinarySymmetric(q=q))(500) < 1e-6

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_binary_monotone_nonnegative(self, q, d):
        m = BinarySymmetric(q=q)
        r0, r1 = scalar_metric(m)(d), scalar_metric(m)(d + 1)
        assert r0 >= 0.0
        assert r1 <= r0

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_gaussian_monotone_nonnegative(self, a, d):
        m = GaussianAR1(a=a)
        r0, r1 = scalar_metric(m)(d), scalar_metric(m)(d + 1)
        assert r0 >= 0.0
        assert r1 <= r0


class TestModelValidation:
    def test_gaussian_bounds(self):
        with pytest.raises(ValueError):
            GaussianAR1(a=1.0)

    def test_binary_bounds(self):
        with pytest.raises(ValueError):
            BinarySymmetric(q=-0.1)
        with pytest.raises(ValueError):
            BinarySymmetric(q=0.6)

    def test_tabulated_must_be_nonincreasing_nonnegative(self):
        with pytest.raises(ValueError):
            Tabulated(values=(1.0, 2.0))
        with pytest.raises(ValueError):
            Tabulated(values=(1.0, -0.5))
        with pytest.raises(ValueError):
            Tabulated(values=())

    def test_tabulated_rejects_nan(self):
        for values in ((1.0, math.nan, 0.5), (math.nan,), (1.0, math.nan)):
            with pytest.raises(ValueError):
                Tabulated(values=values)

    def test_tabulated_allows_leading_inf(self):
        # the Gaussian curve's own shape: infinite information at age 0
        assert Tabulated(values=(math.inf, 1.0, 0.0)).values[0] == math.inf


class TestPenalties:
    def test_negated_mi_binary_half(self):
        p = NegatedMI(BinarySymmetric(q=0.5))
        assert scalar_metric(p)(3) == 0.0

    def test_affine_identity_is_plain_age(self):
        assert scalar_metric(Affine(slope=1.0, intercept=0.0))(7) == 7.0

    def test_negated_mi_value(self):
        p = NegatedMI(BinarySymmetric(q=0.25))
        assert scalar_metric(p)(1) == pytest.approx(-MI_BIN_Q25_D1, abs=1e-15)

    def test_negated_gaussian_at_zero_is_minus_inf(self):
        assert scalar_metric(NegatedMI(GaussianAR1(a=0.9)))(0) == -math.inf

    def test_table_extends_by_last_value(self):
        p = PenaltyTable(values=(-1.0, 0.0, 2.0))
        assert scalar_metric(p)(1) == 0.0
        assert scalar_metric(p)(10) == 2.0

    def test_table_needs_a_value(self):
        with pytest.raises(ValueError, match="^penalty table needs at least one value$"):
            PenaltyTable(values=())

    def test_table_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            PenaltyTable(values=(1.0, 0.0))

    def test_table_rejects_nan(self):
        for values in ((math.nan,), (0.0, math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                PenaltyTable(values=values)

    def test_table_allows_leading_minus_inf(self):
        assert scalar_metric(PenaltyTable(values=(-math.inf, 0.0)))(0) == -math.inf

    def test_affine_slope_nonnegative(self):
        with pytest.raises(ValueError):
            Affine(slope=-1.0)

    def test_affine_rejects_nan(self):
        with pytest.raises(ValueError, match="slope"):
            Affine(slope=math.nan)
        with pytest.raises(ValueError, match="intercept"):
            Affine(slope=1.0, intercept=math.nan)

    def test_affine_rejects_infinity(self):
        with pytest.raises(ValueError, match="slope"):
            Affine(slope=math.inf)
        for intercept in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="intercept"):
                Affine(slope=1.0, intercept=intercept)

    @pytest.mark.parametrize(
        "penalty",
        [
            NegatedMI(BinarySymmetric(q=0.2)),
            NegatedMI(GaussianAR1(a=0.8)),
            PenaltyTable(values=(-2.0, -1.0, 3.0)),
            Affine(slope=0.5, intercept=-2.0),
        ],
    )
    def test_nondecreasing_on_grid(self, penalty):
        vals = [scalar_metric(penalty)(d) for d in range(1, 120)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# Every model and penalty kind, including the degenerate parameters.
TABLE_METRICS = [
    GaussianAR1(a=0.99),
    GaussianAR1(a=-0.5),
    GaussianAR1(a=0.0),
    BinarySymmetric(q=0.45),
    BinarySymmetric(q=0.01),
    BinarySymmetric(q=0.0),
    BinarySymmetric(q=0.5),
    Tabulated(values=(3.0, 2.0, 0.5)),
    NegatedMI(GaussianAR1(a=0.9)),
    NegatedMI(BinarySymmetric(q=0.2)),
    NegatedMI(Tabulated(values=(1.0, 0.25))),
    PenaltyTable(values=(-2.0, -1.0, 3.0)),
    Affine(slope=1.5, intercept=-2.0),
    Affine(slope=0.0),
]


class TestMetricTable:
    @pytest.mark.parametrize("metric", TABLE_METRICS, ids=repr)
    def test_matches_scalar_path(self, metric):
        # numpy's log1p may differ from math.log1p in the last bit, so the
        # comparison is to rounding rather than bitwise
        n = 3000
        table = metric_table(metric, n)
        scalar = np.array(list(map(scalar_metric(metric), range(n))))
        assert table.shape == (n,)
        finite = np.isfinite(scalar)
        assert np.array_equal(np.isfinite(table), finite)
        assert np.array_equal(table[~finite], scalar[~finite])
        np.testing.assert_allclose(table[finite], scalar[finite], rtol=1e-12, atol=1e-15)

    def test_negated_binary_monotone_through_underflow(self):
        # t = (1-2q)^delta drops below 1e-8 at age 9 and t*t underflows at age 162
        table = metric_table(NegatedMI(BinarySymmetric(q=0.45)), 2001)
        assert np.all(np.diff(table) >= 0.0)
        assert table[-1] == 0.0

    # The closed forms with base ** d taken at every age, none cut: metric_table
    # must give these bytes.
    @staticmethod
    def every_power(model, n):
        if isinstance(model, GaussianAR1):
            t = (model.a * model.a) ** np.arange(n)
            with np.errstate(divide="ignore"):
                return -0.5 * np.log1p(-t) / math.log(2.0) + 0.0
        t = (1.0 - 2.0 * model.q) ** np.arange(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = ((1.0 - t) * np.log1p(-t) + (1.0 + t) * np.log1p(t)) / (2.0 * math.log(2.0))
        return np.where(t >= 1.0, 1.0, np.where(t < 1e-8, t * t / (2.0 * math.log(2.0)), exact))

    # n = 20,000 reaches the subnormal and zero powers of every base below
    # about 0.96; 1e-9 and 1e-160 put the base a hair from 1 and at a subnormal
    @pytest.mark.parametrize("n", [0, 1, 3, 4400, 20000])
    @pytest.mark.parametrize("family, grid", [
        (BinarySymmetric, [*np.linspace(0.0, 0.5, 101), 1e-9, 0.4999999]),
        (GaussianAR1, [*np.linspace(-0.999, 0.999, 101), 0.0, 1e-160]),
    ], ids=["binary", "gaussian"])
    def test_bytes_match_every_power(self, family, grid, n):
        for x in map(float, grid):
            model = family(x)
            want = self.every_power(model, n).tobytes()
            assert metric_table(model, n).tobytes() == want, x
            assert (-metric_table(NegatedMI(model), n)).tobytes() == want, x

    def test_empty_and_invalid_lengths(self):
        assert metric_table(Affine(slope=1.0), 0).shape == (0,)
        with pytest.raises(ValueError):
            metric_table(Affine(slope=1.0), -1)
        with pytest.raises(TypeError):
            metric_table("not a metric", 3)

    def test_unknown_types_named(self):
        # each route names what it cannot evaluate, and each kind check what it needs
        with pytest.raises(TypeError, match="^metric must be a source model or an age penalty, "
                                            "got 'x'$"):
            scalar_metric("x")
        with pytest.raises(TypeError, match="^metric must be a source model or an age penalty, "
                                            "got 'x'$"):
            metric_table("x", 3)
        with pytest.raises(TypeError, match="^NegatedMI needs a source model, got 'x'$"):
            NegatedMI("x")
        with pytest.raises(TypeError, match="^expected an age penalty .*, got 'x'; "):
            penalty_prefix_sums("x", 3)


class TestKindChecks:
    def test_a_source_model_is_not_a_penalty(self):
        # every route that minimizes or sums a penalty refuses a bare source model alike,
        # the solver's tables included, although metric_table tabulates either kind
        model, dist = BinarySymmetric(q=0.1), ServiceTimeDist({1: 0.5, 11: 0.5})
        calls = [lambda: solve_beta(model, dist),
                 lambda: cycle_stats(model, dist, zero_waiting(dist)),
                 lambda: brute_force_optimum(model, dist, 2),
                 lambda: penalty_prefix_sums(model, 30)]
        messages = set()
        for call in calls:
            with pytest.raises(TypeError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {"expected an age penalty (NegatedMI, PenaltyTable or Affine), got "
                            "BinarySymmetric(q=0.1); wrap a source model in NegatedMI to "
                            "maximize its information"}

    def test_a_penalty_is_not_a_source_model(self):
        with pytest.raises(TypeError, match="^NegatedMI needs a source model, got Affine"):
            NegatedMI(Affine(1.0))
