import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sl
from numpy.testing import assert_allclose
from scipy.stats import kstest, kurtosis

from longmem import (
    ArfimaParams,
    DegenerateInputError,
    EstimationFailedError,
    InvalidParameterError,
    LongmemError,
    arfima_acvf,
    mle_fit,
    mle_fit_many,
    simulate_gaussian,
)
from longmem import arfima
from longmem.arfima import (
    _acvf_rows,
    _ar1_tail_length,
    _grid_search_many,
    _profile_loglik_batch,
    _simulate_rows,
    _standardized_deviates,
)
from longmem.streams import generator_at

from _oracles import acvf_rows_lfilter, ma_truncated_acvf, nelder_mead_loglik


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

    @pytest.mark.parametrize("T", [1, 2, 100, 500, 2000])
    def test_scan_matches_lfilter_oracle(self, T):
        d_grid, _ = arfima._mle_grids()
        for phi in (0.0, 0.98, -0.98, -0.5, 0.3, 0.9):
            tail = arfima._tail(phi)
            got = _acvf_rows(d_grid, phi, T, tail)
            want = acvf_rows_lfilter(d_grid, phi, T, tail)
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_grid_rows_sliced_from_widest_tail(self):
        # cumprod runs in sequence, so the prefix of a longer fractional
        # row is bit-identical to the row computed at its own length.
        d_grid, phi_grid = arfima._mle_grids()
        for T in (1, 40, 100):
            need = max(T, 2) + max(arfima._tail(phi) for phi in phi_grid)
            frac = np.array([arfima._fractional_acvf(d, 1.0, need) for d in d_grid])
            for phi in (-0.98, -0.4, 0.0, 0.02, 0.6, 0.98):
                tail = arfima._tail(phi)
                own = np.array(
                    [arfima._fractional_acvf(d, 1.0, max(T, 2) + tail) for d in d_grid]
                )
                assert np.array_equal(frac[:, : own.shape[1]], own)
                assert np.array_equal(
                    _acvf_rows(d_grid, phi, T, tail, frac),
                    _acvf_rows(d_grid, phi, T, tail),
                )
        # A refinement stencil shares its rows at the widest of its three
        # phi tails, which differ near |phi| = 1.
        steps = arfima._STENCIL_STEP * np.arange(-1, 2)
        for d, phi in ((0.3, 0.3), (-0.2, 0.95), (0.1, -0.98)):
            own = [_acvf_rows(d + steps, p, 100, arfima._tail(p)) for p in phi + steps]
            got = arfima._stencil_rows(np.array([d, phi]), 100)
            assert np.array_equal(got, np.concatenate(own))


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
        got = _simulate_rows([params], Z[None])[0]
        assert got.shape == (rows, T)
        for i in range(rows):
            want = simulate_gaussian(params, T, generator_at(3, i))
            assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("law", ["gaussian", "student-t"])
    @pytest.mark.parametrize("T", [1, 2, 64, 500])
    def test_multi_cell_rows_equal_one_row_draws(self, T, law):
        # Mixed d and phi, with a white-noise cell among swept cells.
        pairs = ((0.3, 0.6), (0.0, 0.0), (-0.2, 0.0), (0.45, -0.9), (0.0, 0.5))
        cells = [ArfimaParams(d=d, phi=phi, law=law, dof=5.0) for d, phi in pairs]
        rows = 3
        Z = np.array([
            [_standardized_deviates(p, T, generator_at(4, g, r)) for r in range(rows)]
            for g, p in enumerate(cells)
        ])
        got = _simulate_rows(cells, Z)
        assert got.shape == (len(cells), rows, T)
        for g, p in enumerate(cells):
            for r in range(rows):
                want = simulate_gaussian(p, T, generator_at(4, g, r))
                assert np.array_equal(got[g, r], want)
            assert np.array_equal(_simulate_rows([p], Z[g : g + 1])[0], got[g])

    def test_all_white_noise_cells_skip_the_sweep(self, monkeypatch):
        def no_sweep(gammas):
            raise AssertionError("white noise ran the Durbin-Levinson sweep")

        monkeypatch.setattr(arfima, "_durbin_levinson", no_sweep)
        cells = [ArfimaParams(d=0.0, phi=0.0), ArfimaParams(d=0.0, phi=0.0, sigma2=4.0)]
        Z = np.random.default_rng(6).standard_normal((2, 2, 50))
        got = _simulate_rows(cells, Z)
        assert np.array_equal(got[0], Z[0]) and np.array_equal(got[1], 2.0 * Z[1])

    def test_block_rows_match_cholesky_factor(self):
        # y = L z with L the Cholesky factor of the Toeplitz covariance is the
        # innovations form of the same recursion, so the two agree exactly
        # up to rounding.
        T = 200
        for phi in (0.0, 0.6):
            params = ArfimaParams(d=0.3, phi=phi)
            L = np.linalg.cholesky(sl.toeplitz(arfima_acvf(params, T - 1).values))
            Z = np.random.default_rng(8).standard_normal((5, T))
            got = _simulate_rows([params], Z[None])[0]
            assert_allclose(got, Z @ L.T, rtol=0, atol=1e-10)

    def test_student_t_dof_validated(self):
        with pytest.raises(InvalidParameterError):
            ArfimaParams(d=0.1, phi=0.0, law="student-t", dof=2.0)


class TestMle:
    def test_iid_profile_likelihood_identity(self):
        y = np.random.default_rng(2).standard_normal(200)
        gam = _acvf_rows([0.0], 0.0, y.size, 10)
        ll, s2 = _profile_loglik_batch(y[None, :, None], gam[None])
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
        assert [_fit_fields(fit) for fit in batch] == [_fit_fields(fit) for fit in singles]

    def test_refinement_runs_in_lockstep_rounds(self, monkeypatch):
        # Fits of 3 and 5 stencils: after the grid, every refinement round is
        # one kernel call that stacks the stencils of the live series.
        T = 60
        ys = [
            simulate_gaussian(ArfimaParams(d=d, phi=phi), T, generator_at(T, r))
            for r, d, phi in ((0, 0.2, 0.3), (4, 0.4, 0.9))
        ]
        real = arfima._profile_loglik_batch
        calls = []

        def counting(Y, gammas):
            calls.append(gammas.shape[:2])
            return real(Y, gammas)

        monkeypatch.setattr(arfima, "_profile_loglik_batch", counting)
        fits = mle_fit_many(ys)
        assert [fit.diagnostics["evals"] for fit in fits] == [27, 45]
        rounds = [k for k, g in calls if g == 9]
        assert rounds == [2, 2, 2, 1, 1]
        assert calls[-len(rounds) :] == [(k, 9) for k in rounds]
        assert {k for k, g in calls[: -len(rounds)]} == {1}  # the grid
        for fit, y in zip(fits, ys):
            assert _fit_fields(fit) == _fit_fields(mle_fit(y))
        # A call holds whole stencils up to the block size.
        calls.clear()
        monkeypatch.setattr(arfima, "_BLOCK_VALUES", 9 * T)
        refits = mle_fit_many(ys)
        assert [k for k, g in calls if g == 9] == [1] * 8
        assert [_fit_fields(fit) for fit in refits] == [_fit_fields(fit) for fit in fits]

    def test_failed_refinement_raises(self, monkeypatch):
        ys = [
            simulate_gaussian(ArfimaParams(d=0.2, phi=0.3), 60, generator_at(60, r))
            for r in range(2)
        ]
        real = arfima._grid_search_many

        def raised_bar(Y):
            d0, phi0, ll0 = real(Y)
            ll0[1] += 1.0  # out of reach of a search cut short
            return d0, phi0, ll0

        monkeypatch.setattr(arfima, "_grid_search_many", raised_bar)
        monkeypatch.setattr(arfima, "_MAX_NEWTON", 1)
        with pytest.raises(EstimationFailedError, match="refinement failed"):
            mle_fit_many(ys)

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


def _fit_fields(fit):
    # Everything of a fit that does not depend on the series fitted with it.
    diag = {key: val for key, val in fit.diagnostics.items() if key != "grid_loglik"}
    return fit.d_hat, fit.phi_hat, fit.sigma2, fit.loglik, diag


def _dense_profile_loglik(y, gam):
    # Oracle: the Toeplitz covariance itself, with sigma2 profiled out.
    cov = sl.toeplitz(gam)
    _, logdet = np.linalg.slogdet(cov)
    sigma2 = y @ np.linalg.solve(cov, y) / y.size
    ll = -0.5 * y.size * (math.log(2 * math.pi * sigma2) + 1.0) - 0.5 * logdet
    return ll, sigma2


class TestLikelihoodKernels:
    POINTS = [
        (d, phi)
        for d in (-0.49, -0.2, 0.0, 0.3, 0.49)
        for phi in (-0.99, -0.5, 0.0, 0.6, 0.99)
    ]

    def test_batch_and_dense_oracle_agree(self):
        T = 60
        rng = np.random.default_rng(21)
        Y = np.column_stack(
            [
                rng.standard_normal(T),
                simulate_gaussian(ArfimaParams(d=0.3, phi=0.6), T, rng),
            ]
        )
        gammas = np.concatenate(
            [
                _acvf_rows([d], phi, T, _ar1_tail_length(phi, rel=1e-15))
                for d, phi in self.POINTS
            ]
        )
        ll_batch, s2_batch = _profile_loglik_batch(Y[None], gammas[None])
        for g in range(len(self.POINTS)):
            for r in range(Y.shape[1]):
                ll_dense, s2_dense = _dense_profile_loglik(Y[:, r], gammas[g])
                assert_allclose(ll_batch[0, g, r], ll_dense, rtol=1e-10)
                # The dense solve loses digits at (0.49, 0.99), whose
                # covariance has condition number about 7e7 at T=60.
                assert_allclose(s2_batch[0, g, r], s2_dense, rtol=1e-9)

    def test_stacked_problems_equal_each_alone(self):
        # k = 3 problems with their own series and ACVF rows, one row of the
        # last not positive definite: the stack gives each problem's values.
        T = 50
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((3, T, 2))
        gammas = np.stack(
            [
                _acvf_rows([-0.2, 0.1, 0.4], phi, T, _ar1_tail_length(phi, rel=1e-15))
                for phi in (-0.5, 0.3, 0.9)
            ]
        )
        gammas[2, 1, 1] = 1.5 * gammas[2, 1, 0]
        ll, s2 = _profile_loglik_batch(Y, gammas)
        assert ll.shape == s2.shape == (3, 3, 2)
        assert np.all(ll[2, 1] == -np.inf) and np.isfinite(np.delete(ll, 1, axis=1)).all()
        for i in range(3):
            ll_i, s2_i = _profile_loglik_batch(Y[i : i + 1], gammas[i : i + 1])
            assert np.array_equal(ll[i], ll_i[0]) and np.array_equal(s2[i], s2_i[0])

    def test_not_positive_definite_gives_minus_inf(self):
        y = np.random.default_rng(4).standard_normal(30)
        gam = np.zeros((2, 30))
        gam[:, 0] = 1.0
        gam[1, 1] = 0.8  # MA(1)-like with |rho(1)| > 1/2: not positive definite
        ll, _ = _profile_loglik_batch(y[None, :, None], gam[None])
        assert np.isfinite(ll[0, 0, 0]) and ll[0, 1, 0] == -np.inf

    def test_grid_independent_of_block_size(self, monkeypatch):
        T = 40
        Y = np.column_stack(
            [
                simulate_gaussian(ArfimaParams(d=d, phi=phi), T, generator_at(9, i))
                for i, (d, phi) in enumerate([(0.3, 0.3), (-0.2, 0.7), (0.1, -0.5)])
            ]
        )
        d_grid, phi_grid = arfima._mle_grids()
        results = []
        # One phi per call, the default blocks, the whole grid in one call.
        for block in (1, arfima._BLOCK_VALUES, d_grid.size * phi_grid.size * T):
            monkeypatch.setattr(arfima, "_BLOCK_VALUES", block)
            results.append(_grid_search_many(Y))
        d0, phi0, ll0 = results[0]
        for d1, phi1, ll1 in results[1:]:
            assert np.array_equal(d0, d1) and np.array_equal(phi0, phi1)
            assert_allclose(ll1, ll0, rtol=1e-12)

    def test_tails_sized_to_phi_match_widest_tail(self):
        ds = np.linspace(-0.48, 0.48, 9)
        wide = _ar1_tail_length(0.99, rel=1e-15)
        for phi in (-0.98, -0.6, -0.1, 0.02, 0.3, 0.8, 0.98, 0.99):
            for T in (20, 100, 500):
                own = _acvf_rows(ds, phi, T, arfima._tail(phi))
                assert_allclose(own, _acvf_rows(ds, phi, T, wide), rtol=1e-13)


class TestMleValidation:
    # Inputs that both entry points receive as one series.
    BAD_SERIES = {
        "zeros": (np.zeros(50), DegenerateInputError),
        "nan": (np.r_[np.ones(30), np.nan, np.ones(19)], InvalidParameterError),
        "inf": (np.r_[np.ones(49), np.inf], InvalidParameterError),
        "two_dim": (np.ones((50, 2)), InvalidParameterError),
        "short": (np.ones(19), InvalidParameterError),
    }

    @pytest.mark.parametrize("case", sorted(BAD_SERIES))
    def test_bad_series_rejected_alike(self, case):
        y, error = self.BAD_SERIES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as single:
                mle_fit(y)
            with pytest.raises(error) as many:
                mle_fit_many([np.ones(50) + np.arange(50), y])
        assert type(single.value) is type(many.value)
        assert isinstance(single.value, LongmemError)

    def test_unequal_lengths_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            mle_fit_many([rng.standard_normal(50), rng.standard_normal(51)])

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidParameterError):
            mle_fit_many([])


class TestMleDiagnostics:
    def test_interior_fit(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.2, phi=0.3), 120, np.random.default_rng(3)
        )
        diag = mle_fit(y).diagnostics
        assert diag["converged"] is True and diag["boundary"] is False
        assert isinstance(diag["evals"], int) and diag["evals"] > 0
        assert {"grid_d", "grid_phi", "grid_loglik"} <= set(diag)

    def test_over_differenced_noise_hits_d_bound(self):
        # Differenced white noise has d = -1, below the search box.
        y = np.diff(np.random.default_rng(6).standard_normal(201))
        res = mle_fit(y)
        assert res.d_hat == pytest.approx(arfima._D_BOUNDS[0], abs=1e-9)
        assert res.diagnostics["boundary"] is True


class TestNewtonRefinement:
    @pytest.mark.parametrize("T, n", [(100, 16), (500, 8)])
    def test_loglik_at_least_nelder_mead(self, T, n):
        cells = [(d, phi) for d in (-0.3, 0.0, 0.2, 0.4) for phi in (-0.6, 0.3, 0.8, 0.95)]
        Y = np.column_stack(
            [
                simulate_gaussian(ArfimaParams(d=d, phi=phi), T, generator_at(T, r))
                for r, (d, phi) in enumerate(cells[:n])
            ]
        )
        for y, fit in zip(Y.T, mle_fit_many(list(Y.T))):
            diag = fit.diagnostics
            assert diag["converged"] is True
            start = (diag["grid_d"], diag["grid_phi"])
            assert fit.loglik >= nelder_mead_loglik(y, *start) - 1e-9

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.diff(np.random.default_rng(6).standard_normal(201)),  # d edge
            lambda: np.cumsum(np.random.default_rng(7).standard_normal(200)),  # phi edge
            lambda: simulate_gaussian(
                ArfimaParams(d=0.3, phi=-0.995), 200, np.random.default_rng(9)
            ),
        ],
    )
    def test_edge_fits_report_boundary(self, make):
        y = make()
        fit = mle_fit(y)
        diag = fit.diagnostics
        assert diag["boundary"] is True and diag["converged"] is True
        assert fit.loglik >= nelder_mead_loglik(y, diag["grid_d"], diag["grid_phi"]) - 1e-9

    @pytest.mark.parametrize(
        "make",
        [
            lambda: simulate_gaussian(
                ArfimaParams(d=0.2, phi=0.3), 120, np.random.default_rng(3)
            ),
            lambda: simulate_gaussian(
                ArfimaParams(d=-0.3, phi=0.8), 500, generator_at(500, 6)
            ),
            lambda: np.diff(np.random.default_rng(6).standard_normal(201)),  # d edge
            lambda: np.cumsum(np.random.default_rng(7).standard_normal(200)),  # phi edge
        ],
    )
    def test_reported_fit_is_the_kernel_value_at_the_estimate(self, make):
        # The refinement's points are stencil centres of the batched kernel.
        y = make()
        fit = mle_fit(y)
        gam = _acvf_rows([fit.d_hat], fit.phi_hat, y.size, arfima._tail(fit.phi_hat))
        ll, s2 = _profile_loglik_batch(y[None, :, None], gam[None])
        assert_allclose(fit.loglik, ll[0, 0, 0], rtol=1e-12)
        assert_allclose(fit.sigma2, s2[0, 0, 0], rtol=1e-12)
        evals = fit.diagnostics["evals"]
        assert evals > 0 and evals % 9 == 0
