import numpy as np
import pytest
from numpy.testing import assert_allclose

from longmem import (
    InvalidDesignError,
    InvalidParameterError,
    bandwidth,
    fourier_frequencies,
    periodogram,
)

from _oracles import direct_periodogram


def dyadic_series(T, seed):
    """Series of dyadic rationals so mean removal is exact in floats."""
    rng = np.random.default_rng(seed)
    return rng.integers(-2 ** 22, 2 ** 22, size=T) / 2 ** 20


class TestBandwidth:
    def test_reference_values(self):
        assert bandwidth(100, 0.7) == 25
        assert bandwidth(500, 0.7) == 77

    def test_clamp_to_regression_needs(self):
        # T=8 leaves floor(7/2)=3 usable frequencies
        assert bandwidth(8, 0.7, P=0) == 3
        with pytest.raises(InvalidDesignError):
            bandwidth(8, 0.7, P=2)

    def test_upper_clamp(self):
        assert bandwidth(10, 0.99, P=0) == 4  # floor(9/2)

    def test_small_T_rejected(self):
        with pytest.raises(InvalidDesignError):
            bandwidth(7, 0.7)

    def test_exponent_domain(self):
        with pytest.raises(InvalidParameterError):
            bandwidth(100, 1.0)
        with pytest.raises(InvalidParameterError):
            bandwidth(100, 0.0)

    @pytest.mark.parametrize("T, P, name", [(64.7, 0, "T"), (64.0, 0, "T"), (64, 1.0, "P")])
    def test_non_integer_counts_rejected(self, T, P, name):
        # 64.7 is refused, not truncated to 64; numpy integers are counts too.
        with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
            bandwidth(T, 0.7, P)
        assert bandwidth(np.int64(64), 0.7, np.int32(1)) == bandwidth(64, 0.7, 1)


class TestPeriodogram:
    def test_non_integer_count_rejected(self):
        y = dyadic_series(64, 1)
        with pytest.raises(InvalidParameterError, match="N must be an integer"):
            periodogram(y, 5.7)
        assert periodogram(y, np.int64(5)).tobytes() == periodogram(y, 5).tobytes()

    def test_constant_series_vanishes(self):
        pg = periodogram(np.full(64, 3.7), 10)
        assert_allclose(pg, 0.0, atol=1e-25)

    def test_fourier_cosine_ordinate(self):
        T = 100
        t = np.arange(1, T + 1)
        lam5 = 2 * np.pi * 5 / T
        pg = periodogram(np.cos(lam5 * t), 40)
        assert_allclose(pg[4], T / (8 * np.pi), rtol=1e-8)
        others = np.delete(pg, 4)
        assert np.max(others) <= 1e-10 * pg[4]

    def test_parseval_odd_T(self):
        T = 101
        y = np.random.default_rng(0).standard_normal(T)
        pg = periodogram(y, (T - 1) // 2)
        total = np.sum(pg) * 4 * np.pi / T
        assert_allclose(total, y.var(), rtol=1e-12)

    def test_matches_direct_dft(self):
        y = np.random.default_rng(1).standard_normal(150)
        pg = periodogram(y, 60)
        assert_allclose(pg, direct_periodogram(y, 60), rtol=1e-10)

    def test_shift_invariance_exact(self):
        # dyadic data keeps y + c - mean(y + c) bit-identical to y - mean(y)
        y = dyadic_series(512, 2)
        base = periodogram(y, 100)
        for c in (0.5, -3.25, 1024.0):
            shifted = periodogram(y + c, 100)
            assert np.array_equal(base, shifted)

    def test_scale_equivariance(self):
        y = np.random.default_rng(3).standard_normal(300)
        base = periodogram(y, 100)
        scaled = periodogram(7.3 * y, 100)
        assert_allclose(scaled, 7.3 ** 2 * base, rtol=1e-12)

    def test_band_limits_enforced(self):
        y = np.random.default_rng(4).standard_normal(50)
        with pytest.raises(InvalidParameterError):
            periodogram(y, 25)  # N == T/2
        with pytest.raises(InvalidParameterError):
            periodogram(y, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected(self, bad):
        y = np.random.default_rng(4).standard_normal(50)
        y[17] = bad
        with pytest.raises(InvalidParameterError, match="one-dimensional and finite"):
            periodogram(y, 10)

    def test_one_series_in_one_ordinate_per_frequency_out(self):
        pg = periodogram(np.random.default_rng(5).standard_normal(64), 10)
        assert isinstance(pg, np.ndarray) and pg.shape == (10,)
        with pytest.raises(InvalidParameterError, match="one-dimensional"):
            periodogram(np.zeros((2, 64)), 10)

    def test_frequencies(self):
        freqs = fourier_frequencies(64, 10)
        assert_allclose(freqs, 2 * np.pi * np.arange(1, 11) / 64)
        assert freqs[-1] < np.pi
