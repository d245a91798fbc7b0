import math

import numpy as np
import pytest
import scipy.linalg as sl
from numpy.testing import assert_allclose
from scipy.stats import kstest, kurtosis

from longmem import (
    ArfimaParams,
    InvalidParameterError,
    arfima_acvf,
    mle_fit,
    mle_fit_many,
    simulate_gaussian,
)
from longmem.arfima import (
    _acvf_rows,
    _ar1_tail_length,
    _profile_loglik_point,
    _simulate_rows,
    _standardized_deviates,
)
from longmem.streams import generator_at

from _oracles import ma_truncated_acvf


class TestAcvf:
    def test_white_noise(self):
        got = arfima_acvf(ArfimaParams(d=0.0, phi=0.0), 3).values
        assert_allclose(got, [1, 0, 0, 0])

    def test_pure_ar1(self):
        got = arfima_acvf(ArfimaParams(d=0.0, phi=0.6), 3).values
        want = [0.6 ** k / 0.64 for k in range(4)]
        assert_allclose(got, want, rtol=1e-14)

    def test_pure_fractional_gamma0(self):
        got = arfima_acvf(ArfimaParams(d=0.3, phi=0.0), 0).values[0]
        want = math.gamma(0.4) / math.gamma(0.7) ** 2  # ~1.3164
        assert_allclose(got, want, rtol=1e-12)
        assert_allclose(got, 1.3164, atol=1e-4)

    def test_sigma2_scaling(self):
        a = arfima_acvf(ArfimaParams(d=0.2, phi=0.3, sigma2=1.0), 5).values
        b = arfima_acvf(ArfimaParams(d=0.2, phi=0.3, sigma2=2.5), 5).values
        assert_allclose(b, 2.5 * a, rtol=1e-14)

    def test_invalid_d_rejected(self):
        with pytest.raises(InvalidParameterError):
            ArfimaParams(d=0.6, phi=0.0)
        with pytest.raises(InvalidParameterError):
            ArfimaParams(d=-0.5, phi=0.0)

    def test_against_ma_oracle_single_cell(self):
        mine = arfima_acvf(ArfimaParams(d=0.25, phi=0.5), 20).values
        brute = ma_truncated_acvf(0.25, 0.5, 1.0, 20)
        assert np.max(np.abs(mine - brute) / np.abs(brute)) <= 1e-6

    def test_lag_zero_and_length_one_with_ar_part(self):
        params = ArfimaParams(d=0.2, phi=0.5)
        got = arfima_acvf(params, 0).values
        assert got.shape == (1,)
        assert got[0] == arfima_acvf(params, 1).values[0]
        y = simulate_gaussian(params, 1, np.random.default_rng(3))
        assert y.shape == (1,) and np.isfinite(y[0])

    def test_grid_rows_match_public_acvf(self):
        ds = [-0.3, 0.0, 0.2, 0.45]
        for phi in (-0.5, 0.0, 0.7):
            rows = _acvf_rows(ds, phi, 40, _ar1_tail_length(phi, rel=1e-15))
            for i, d in enumerate(ds):
                want = arfima_acvf(ArfimaParams(d=d, phi=phi), 39).values
                assert_allclose(rows[i], want, rtol=1e-10, atol=1e-12)


class TestSimulation:
    def test_same_seed_same_series(self):
        params = ArfimaParams(d=0.3, phi=0.6)
        a = simulate_gaussian(params, 200, np.random.default_rng(42))
        b = simulate_gaussian(params, 200, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_iid_case_is_standard_normal(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.0, phi=0.0), 100000, np.random.default_rng(5)
        )
        assert kstest(y, "norm").pvalue > 0.01

    def test_sample_acvf_matches_theory(self):
        params = ArfimaParams(d=0.3, phi=0.6)
        gam = arfima_acvf(params, 5).values
        reps = []
        for r in range(200):
            y = simulate_gaussian(params, 2000, np.random.default_rng(r))
            reps.append([np.mean(y[: 2000 - l] * y[l:]) for l in range(6)])
        reps = np.array(reps)
        z = (reps.mean(axis=0) - gam) / (reps.std(axis=0) / np.sqrt(200))
        assert np.max(np.abs(z)) <= 3.0

    def test_small_T_joint_covariance_exact(self):
        params = ArfimaParams(d=0.3, phi=0.6)
        T = 8
        sigma = sl.toeplitz(arfima_acvf(params, T - 1).values)
        draws = np.array(
            [
                simulate_gaussian(params, T, np.random.default_rng(10_000 + i))
                for i in range(40000)
            ]
        )
        s = draws.T @ draws / len(draws)
        se = np.sqrt(
            (sigma ** 2 + np.outer(np.diag(sigma), np.diag(sigma))) / len(draws)
        )
        assert np.max(np.abs(s - sigma) / se) <= 4.0

    def test_student_t_mode_heavy_tailed(self):
        params = ArfimaParams(d=0.0, phi=0.0, law="student-t", dof=5)
        y = simulate_gaussian(params, 200000, np.random.default_rng(5))
        assert abs(y.var() - 1.0) <= 0.05
        assert kurtosis(y) > 1.0  # excess kurtosis; normal would be ~0

    @pytest.mark.parametrize("law", ["gaussian", "student-t"])
    @pytest.mark.parametrize("phi", [0.0, 0.6])
    @pytest.mark.parametrize("T", [1, 2, 3, 64, 500])
    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_block_rows_equal_one_row_draws(self, rows, T, phi, law):
        params = ArfimaParams(d=0.3, phi=phi, law=law, dof=5.0)
        Z = np.array(
            [_standardized_deviates(params, T, generator_at(3, i)) for i in range(rows)]
        )
        got = _simulate_rows(params, Z)
        assert got.shape == (rows, T)
        for i in range(rows):
            want = simulate_gaussian(params, T, generator_at(3, i))
            assert np.array_equal(got[i], want)

    def test_block_rows_match_cholesky_factor(self):
        # y = L z with L the Cholesky factor of the Toeplitz covariance is the
        # innovations form of the same recursion, so the two agree exactly
        # up to rounding.
        T = 200
        for phi in (0.0, 0.6):
            params = ArfimaParams(d=0.3, phi=phi)
            L = np.linalg.cholesky(sl.toeplitz(arfima_acvf(params, T - 1).values))
            Z = np.random.default_rng(8).standard_normal((5, T))
            assert_allclose(_simulate_rows(params, Z), Z @ L.T, rtol=0, atol=1e-10)

    def test_student_t_dof_validated(self):
        with pytest.raises(InvalidParameterError):
            ArfimaParams(d=0.1, phi=0.0, law="student-t", dof=2.0)


class TestMle:
    def test_iid_profile_likelihood_identity(self):
        y = np.random.default_rng(2).standard_normal(200)
        ll, s2 = _profile_loglik_point(y, 0.0, 0.0, 10)
        s2_emp = np.mean(y ** 2)
        want = -(len(y) / 2) * (math.log(2 * math.pi * s2_emp) + 1.0)
        assert_allclose(ll, want, rtol=1e-12)
        assert_allclose(s2, s2_emp, rtol=1e-12)

    def test_optimum_at_least_grid_value(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.2, phi=0.3), 120, np.random.default_rng(3)
        )
        res = mle_fit(y)
        assert res.loglik >= res.diagnostics["grid_loglik"] - 1e-9

    def test_minimum_sample_size(self):
        with pytest.raises(InvalidParameterError):
            mle_fit(np.zeros(10))

    def test_batch_matches_single(self):
        params = ArfimaParams(d=0.2, phi=0.3)
        ys = [
            simulate_gaussian(params, 80, np.random.default_rng(50 + i))
            for i in range(3)
        ]
        singles = [mle_fit(y) for y in ys]
        batch = mle_fit_many(ys)
        for a, b in zip(singles, batch):
            assert_allclose(a.d_hat, b.d_hat, atol=1e-10)
            assert_allclose(a.loglik, b.loglik, rtol=1e-12)

    @pytest.mark.slow
    def test_bias_T500(self):
        # mean d-hat bias near -0.0240 for d=0, phi=0.3, T=500
        params = ArfimaParams(d=0.0, phi=0.3)
        ys = [
            simulate_gaussian(params, 500, np.random.default_rng(33000 + r))
            for r in range(60)
        ]
        fits = mle_fit_many(ys)
        bias = np.mean([f.d_hat for f in fits])
        assert abs(bias - (-0.0240)) <= 0.046  # 3 MC standard errors at R=60

    @pytest.mark.slow
    def test_long_path_consistency(self):
        params = ArfimaParams(d=0.0, phi=0.6)
        ys = [
            simulate_gaussian(params, 1000, np.random.default_rng(32000 + r))
            for r in range(12)
        ]
        fits = mle_fit_many(ys)
        assert abs(np.mean([f.d_hat for f in fits])) <= 0.09
        assert abs(np.mean([f.phi_hat for f in fits]) - 0.6) <= 0.09
