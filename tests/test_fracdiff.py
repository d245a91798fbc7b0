import numpy as np
import pytest
from numpy.testing import assert_allclose

from longmem import InvalidParameterError, apply_frac_filter, frac_diff_coeffs

from _oracles import frac_filter_by_loop


class TestCoefficients:
    def test_zero_power_is_identity(self):
        assert_allclose(frac_diff_coeffs(0.0, 4), [1, 0, 0, 0])

    def test_first_difference(self):
        assert_allclose(frac_diff_coeffs(1.0, 3), [1, -1, 0])

    def test_half_difference_hand_values(self):
        # recursion a_j = a_{j-1}(j-1-d)/j applied by hand
        assert_allclose(frac_diff_coeffs(0.5, 4), [1, -0.5, -0.125, -0.0625])

    @pytest.mark.parametrize("d", [-0.9, -0.3, 0.2, 0.49, 1.0, 1.4])
    def test_recursion_invariant(self, d):
        a = frac_diff_coeffs(d, 200)
        assert a[0] == 1.0
        j = np.arange(1, 200)
        assert_allclose(a[1:], a[:-1] * (j - 1 - d) / j, rtol=1e-15)

    @pytest.mark.parametrize("d", [0.1, 0.25, 0.5, 0.75, 0.99])
    def test_negative_decreasing_for_d_in_unit_interval(self, d):
        a = frac_diff_coeffs(d, 100)
        assert np.all(a[1:] < 0)
        mags = np.abs(a[1:])
        assert np.all(np.diff(mags) <= 0)

    def test_nonfinite_d_rejected(self):
        with pytest.raises(InvalidParameterError):
            frac_diff_coeffs(np.nan, 5)
        with pytest.raises(InvalidParameterError):
            frac_diff_coeffs(np.inf, 5)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            frac_diff_coeffs(0.3, 0)

    def test_non_integer_length_rejected(self):
        # 5.5 is refused, not truncated to 5; numpy integers are counts too.
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            frac_diff_coeffs(0.3, 5.5)
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            frac_diff_coeffs(0.3, 5.0)
        assert frac_diff_coeffs(0.3, np.int64(5)).tobytes() == frac_diff_coeffs(0.3, 5).tobytes()


class TestFilter:
    def test_d_zero_is_identity(self):
        y = np.random.default_rng(0).standard_normal(50)
        assert_allclose(apply_frac_filter(y, 0.0), y, rtol=0, atol=0)

    def test_first_difference_convention(self):
        # t = 1 keeps y(1); later points are plain first differences
        assert_allclose(apply_frac_filter([1.0, 2.0, 3.0], 1.0), [1, 1, 1])
        y = np.random.default_rng(1).standard_normal(30)
        w = apply_frac_filter(y, 1.0)
        assert_allclose(w[0], y[0])
        assert_allclose(w[1:], np.diff(y), atol=1e-14)

    def test_matches_loop_oracle(self):
        y = np.random.default_rng(2).standard_normal(64)
        for d in (-0.4, 0.3, 0.7):
            assert_allclose(apply_frac_filter(y, d), frac_filter_by_loop(y, d),
                            rtol=1e-12, atol=1e-12)

    def test_round_trip_small(self):
        y = np.random.default_rng(3).standard_normal(200)
        back = apply_frac_filter(apply_frac_filter(y, 0.4), -0.4)
        assert np.max(np.abs(back - y)) <= 1e-12

    @pytest.mark.parametrize("d", [-1.0, -0.4, 0.2, 0.49, 1.0, 1.5])
    def test_round_trip_range(self, d):
        y = np.random.default_rng(4).standard_normal(5000)
        back = apply_frac_filter(apply_frac_filter(y, d), -d)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(back - y)) <= 1e-10 * scale

    def test_linearity(self):
        rng = np.random.default_rng(5)
        y1, y2 = rng.standard_normal((2, 100))
        lhs = apply_frac_filter(2.5 * y1 - 1.25 * y2, 0.3)
        rhs = 2.5 * apply_frac_filter(y1, 0.3) - 1.25 * apply_frac_filter(y2, 0.3)
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_nonfinite_series_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_frac_filter([1.0, np.nan], 0.3)
