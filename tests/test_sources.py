"""Source models, information curves, entropies, and penalties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infofresh.sources import (
    Affine,
    BinarySymmetric,
    GaussianAR1,
    NegatedMI,
    PenaltyTable,
    Tabulated,
    binary_entropy,
    metric_table,
    mutual_information,
    penalty_value,
)

# Frozen by high-precision (40-digit) evaluation of the closed forms.
H_QUARTER = 0.8112781244591328
MI_BIN_Q25_D1 = 0.18872187554086714
MI_GAUSS_A5_D1 = 0.2075187496394219


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
    def test_symmetry_general(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-14)


class TestMutualInformation:
    def test_gaussian_infinite_at_zero_age(self):
        assert mutual_information(GaussianAR1(a=0.9), 0) == math.inf

    def test_binary_one_at_zero_age(self):
        assert mutual_information(BinarySymmetric(q=0.3), 0) == 1.0

    def test_binary_iid_is_zero(self):
        # q = 1/2 makes consecutive states independent
        assert mutual_information(BinarySymmetric(q=0.5), 1) == 0.0
        assert mutual_information(BinarySymmetric(q=0.5), 7) == 0.0

    def test_binary_closed_form(self):
        assert mutual_information(BinarySymmetric(q=0.25), 1) == pytest.approx(
            MI_BIN_Q25_D1, abs=1e-15
        )

    def test_gaussian_closed_form(self):
        assert mutual_information(GaussianAR1(a=0.5), 1) == pytest.approx(
            MI_GAUSS_A5_D1, abs=1e-15
        )

    def test_matches_direct_entropy_formula(self):
        # sanity against the unrearranged 1 - h((1-t)/2) expression
        for q in (0.05, 0.1, 0.3, 0.45):
            for d in (1, 2, 5, 20):
                t = (1 - 2 * q) ** d
                direct = 1.0 - binary_entropy((1 - t) / 2)
                assert mutual_information(BinarySymmetric(q=q), d) == pytest.approx(
                    direct, abs=1e-12
                )

    def test_tabulated_lookup_and_tail(self):
        m = Tabulated(values=(2.0, 1.0, 0.25))
        assert mutual_information(m, 0) == 2.0
        assert mutual_information(m, 2) == 0.25
        assert mutual_information(m, 3) == 0.0  # extended by zero past the table

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(BinarySymmetric(q=0.1), -1)

    def test_binary_vanishes_in_the_tail(self):
        for q in (0.05, 0.1, 0.25, 0.5):
            assert mutual_information(BinarySymmetric(q=q), 500) < 1e-6

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200)
    def test_binary_monotone_nonnegative(self, q, d):
        m = BinarySymmetric(q=q)
        r0, r1 = mutual_information(m, d), mutual_information(m, d + 1)
        assert r0 >= 0.0
        assert r1 <= r0

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200)
    def test_gaussian_monotone_nonnegative(self, a, d):
        m = GaussianAR1(a=a)
        r0, r1 = mutual_information(m, d), mutual_information(m, d + 1)
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


class TestPenalties:
    def test_negated_mi_binary_half(self):
        p = NegatedMI(BinarySymmetric(q=0.5))
        assert penalty_value(p, 3) == 0.0

    def test_affine_identity_is_plain_age(self):
        assert penalty_value(Affine(slope=1.0, intercept=0.0), 7) == 7.0

    def test_negated_mi_value(self):
        p = NegatedMI(BinarySymmetric(q=0.25))
        assert penalty_value(p, 1) == pytest.approx(-MI_BIN_Q25_D1, abs=1e-15)

    def test_negated_gaussian_at_zero_is_minus_inf(self):
        assert penalty_value(NegatedMI(GaussianAR1(a=0.9)), 0) == -math.inf

    def test_table_extends_by_last_value(self):
        p = PenaltyTable(values=(-1.0, 0.0, 2.0))
        assert penalty_value(p, 1) == 0.0
        assert penalty_value(p, 10) == 2.0

    def test_table_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            PenaltyTable(values=(1.0, 0.0))

    def test_affine_slope_nonnegative(self):
        with pytest.raises(ValueError):
            Affine(slope=-1.0)

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
        vals = [penalty_value(penalty, d) for d in range(1, 120)]
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
        is_penalty = isinstance(metric, (NegatedMI, PenaltyTable, Affine))
        scalar_fn = penalty_value if is_penalty else mutual_information
        scalar = np.array([scalar_fn(metric, d) for d in range(n)])
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

    def test_empty_and_invalid_lengths(self):
        assert metric_table(Affine(slope=1.0), 0).shape == (0,)
        with pytest.raises(ValueError):
            metric_table(Affine(slope=1.0), -1)
        with pytest.raises(TypeError):
            metric_table("not a metric", 3)

