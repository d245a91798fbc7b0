import math
import tracemalloc
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
)
from longmem.streams import generator_at

from _oracles import (
    acvf_rows_lfilter,
    full_acvf_loglik,
    ma_truncated_acvf,
    nelder_mead_loglik,
)


class TestAcvf:
    def test_white_noise(self):
        got = arfima_acvf(ArfimaParams(d=0.0, phi=0.0), 3)
        assert_allclose(got, [1, 0, 0, 0])

    def test_pure_ar1(self):
        got = arfima_acvf(ArfimaParams(d=0.0, phi=0.6), 3)
        want = [0.6 ** k / 0.64 for k in range(4)]
        assert_allclose(got, want, rtol=1e-14)

    def test_pure_fractional_gamma0(self):
        got = arfima_acvf(ArfimaParams(d=0.3, phi=0.0), 0)[0]
        want = math.gamma(0.4) / math.gamma(0.7) ** 2  # ~1.3164
        assert_allclose(got, want, rtol=1e-12)
        assert_allclose(got, 1.3164, atol=1e-4)

    def test_sigma2_scaling(self):
        a = arfima_acvf(ArfimaParams(d=0.2, phi=0.3, sigma2=1.0), 5)
        b = arfima_acvf(ArfimaParams(d=0.2, phi=0.3, sigma2=2.5), 5)
        assert_allclose(b, 2.5 * a, rtol=1e-14)

    def test_invalid_d_rejected(self):
        with pytest.raises(InvalidParameterError):
            ArfimaParams(d=0.6, phi=0.0)
        with pytest.raises(InvalidParameterError):
            ArfimaParams(d=-0.5, phi=0.0)

    def test_against_ma_oracle_single_cell(self):
        mine = arfima_acvf(ArfimaParams(d=0.25, phi=0.5), 20)
        brute = ma_truncated_acvf(0.25, 0.5, 1.0, 20)
        assert np.max(np.abs(mine - brute) / np.abs(brute)) <= 1e-6

    def test_lag_zero_and_length_one_with_ar_part(self):
        params = ArfimaParams(d=0.2, phi=0.5)
        got = arfima_acvf(params, 0)
        assert got.shape == (1,)
        assert got[0] == arfima_acvf(params, 1)[0]
        y = simulate_gaussian(params, 1, np.random.default_rng(3))
        assert y.shape == (1,) and np.isfinite(y[0])

    def test_grid_rows_match_public_acvf(self):
        ds = [-0.3, 0.0, 0.2, 0.45]
        for phi in (-0.5, 0.0, 0.7):
            rows = _acvf_rows(ds, phi, 40, _ar1_tail_length(phi, rel=1e-15))
            for i, d in enumerate(ds):
                want = arfima_acvf(ArfimaParams(d=d, phi=phi), 39)
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
        # row is bit-identical to the row computed at its own length: the
        # likelihood builds a problem's fractional rows once, at the widest
        # of its phi tails, and sums each phi's tail from that prefix.
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
        # One scan serves a block's phi values, which differ in their tails
        # near |phi| = 1; each row matches its phi scanned alone.
        steps = arfima._STENCIL_STEP * np.arange(-1, 2)
        n = 100
        for d, phi in ((0.3, 0.3), (-0.2, 0.95), (0.1, -0.98)):
            phis = phi + steps
            lengths = [arfima._tail(p) for p in phis]
            frac = np.array(
                [arfima._fractional_acvf(x, 1.0, n + max(lengths)) for x in d + steps]
            )
            tails = np.stack(
                [arfima._ar1_sum(frac[:, n : n + m + 1], p) for p, m in zip(phis, lengths)]
            )
            g, gamma0 = arfima._cross_rows(frac[:, :n], phis[:, None, None], tails[..., None])
            for p, m, g_p, gamma0_p in zip(phis, lengths, g, gamma0):
                own = np.array([arfima._fractional_acvf(x, 1.0, n + m) for x in d + steps])
                want = arfima._cross_rows(own[:, :n], p, arfima._ar1_sum(own[:, n:], p)[:, None])
                assert_allclose(g_p, want[0], rtol=1e-14, atol=0)
                assert_allclose(gamma0_p, want[1], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("phi", [-0.98, 0.0, 0.6, 0.98])
    def test_cross_covariance_matches_ma_oracle(self, phi):
        # g(k) = cov(y(0), x(k)) with x(t) = y(t) - phi y(t-1), and the
        # seed gamma_y(0), against the truncated MA(infinity) ACVF.
        T = 40
        m = arfima._tail(phi)
        for d in (-0.3, 0.25, 0.45):
            gam = ma_truncated_acvf(d, phi, 1.0, T)
            rows = arfima._fractional_acvf(d, 1.0, T + 1 + m)[None]
            g, gamma0 = arfima._cross_rows(
                rows[:, : T + 1], phi, arfima._ar1_sum(rows[:, T + 1 :], phi)[:, None]
            )
            want = gam[1:] - phi * gam[:-1]
            assert np.max(np.abs(g[0, 1:] - want)) <= 1e-7 * np.max(np.abs(want))
            assert_allclose(gamma0[0, 0], gam[0], rtol=1e-7)


class TestSimulation:
    def test_non_integer_length_rejected_before_any_draw(self):
        # 100.7 is refused, not truncated to 100, and no deviate is drawn.
        params = ArfimaParams(d=0.3, phi=0.6)
        rng = np.random.default_rng(42)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="T must be an integer"):
            simulate_gaussian(params, 100.7, rng)
        assert rng.bit_generator.state == state
        a = simulate_gaussian(params, np.int64(100), np.random.default_rng(42))
        assert a.tobytes() == simulate_gaussian(params, 100, np.random.default_rng(42)).tobytes()

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
        gam = arfima_acvf(params, 5)
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
        sigma = sl.toeplitz(arfima_acvf(params, T - 1))
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
        params = ArfimaParams(d=0.0, phi=0.0, law="student-t")
        y = simulate_gaussian(params, 200000, np.random.default_rng(5))
        assert abs(y.var() - 1.0) <= 0.05
        assert kurtosis(y) > 1.0  # excess kurtosis; normal would be ~0

    @pytest.mark.parametrize("law", ["gaussian", "student-t"])
    @pytest.mark.parametrize("phi", [0.0, 0.6])
    @pytest.mark.parametrize("T", [1, 2, 3, 64, 500])
    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_block_rows_equal_one_row_draws(self, rows, T, phi, law):
        params = ArfimaParams(d=0.3, phi=phi, law=law)
        got = _simulate_rows([params], rows, T, lambda g, i: generator_at(3, i))[0]
        assert got.shape == (rows, T)
        for i in range(rows):
            want = simulate_gaussian(params, T, generator_at(3, i))
            assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("law", ["gaussian", "student-t"])
    @pytest.mark.parametrize("T", [1, 2, 64, 500])
    def test_multi_cell_rows_equal_one_row_draws(self, T, law):
        # Mixed d and phi, with a white-noise cell among swept cells.
        pairs = ((0.3, 0.6), (0.0, 0.0), (-0.2, 0.0), (0.45, -0.9), (0.0, 0.5))
        cells = [ArfimaParams(d=d, phi=phi, law=law) for d, phi in pairs]
        rows = 3
        made = []

        def rng_at(g, r):
            # A fresh generator per row: each row is drawn from its own.
            made.append((g, r))
            return generator_at(4, g, r)

        got = _simulate_rows(cells, rows, T, rng_at)
        assert got.shape == (len(cells), rows, T)
        assert made == [(g, r) for g in range(len(cells)) for r in range(rows)]
        for g, p in enumerate(cells):
            for r in range(rows):
                want = simulate_gaussian(p, T, generator_at(4, g, r))
                assert np.array_equal(got[g, r], want)
            alone = _simulate_rows([p], rows, T, lambda _, r: generator_at(4, g, r))
            assert np.array_equal(alone[0], got[g])

    def test_all_white_noise_cells_skip_the_sweep(self, monkeypatch):
        def no_sweep(gammas):
            raise AssertionError("white noise ran the Durbin-Levinson sweep")

        monkeypatch.setattr(arfima, "_durbin_levinson", no_sweep)
        cells = [ArfimaParams(d=0.0, phi=0.0), ArfimaParams(d=0.0, phi=0.0, sigma2=4.0)]
        got = _simulate_rows(cells, 2, 50, lambda g, i: np.random.default_rng([6, g, i]))
        Z = np.array([
            [np.random.default_rng([6, g, i]).standard_normal(50) for i in range(2)]
            for g in range(2)
        ])
        assert np.array_equal(got[0], Z[0]) and np.array_equal(got[1], 2.0 * Z[1])

    def test_block_rows_match_cholesky_factor(self):
        # y = L z with L the Cholesky factor of the Toeplitz covariance is the
        # innovations form of the same recursion, so the two agree exactly
        # up to rounding.
        T = 200
        for phi in (0.0, 0.6):
            params = ArfimaParams(d=0.3, phi=phi)
            L = np.linalg.cholesky(sl.toeplitz(arfima_acvf(params, T - 1)))
            got = _simulate_rows([params], 5, T, lambda g, i: np.random.default_rng([8, i]))[0]
            Z = np.array([np.random.default_rng([8, i]).standard_normal(T) for i in range(5)])
            assert_allclose(got, Z @ L.T, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "law, dof", [("gaussian", math.inf), ("student-t", 5.0), ("student-t:7", 7.0)]
    )
    def test_law_token_sets_dof(self, law, dof):
        assert ArfimaParams(d=0.1, phi=0.0, law=law).dof == dof

    @pytest.mark.parametrize("law", ["cauchy", "student-t7", "gaussian:3"])
    def test_bad_law_token_rejected(self, law):
        with pytest.raises(InvalidParameterError):
            ArfimaParams(d=0.1, phi=0.0, law=law)

    def test_student_t_dof_validated(self):
        for law in ("student-t:2", "student-t:inf", "student-t:nan"):
            with pytest.raises(InvalidParameterError):
                ArfimaParams(d=0.1, phi=0.0, law=law)

    def test_dof_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            ArfimaParams(d=0.1, phi=0.0, law="student-t", dof=7.0)


class TestMle:
    def test_iid_profile_likelihood_identity(self):
        y = np.random.default_rng(2).standard_normal(200)
        ll, s2 = _profile_loglik_batch(y[None, :, None], np.zeros((1, 1)), np.zeros((1, 1)))
        s2_emp = np.mean(y ** 2)
        want = -(len(y) / 2) * (math.log(2 * math.pi * s2_emp) + 1.0)
        assert_allclose(ll, want, rtol=1e-12)
        assert_allclose(s2, s2_emp, rtol=1e-12)

    def test_optimum_at_least_grid_value(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.2, phi=0.3), 120, np.random.default_rng(3)
        )
        res = mle_fit_many([y])[0]
        assert res.loglik >= res.diagnostics["grid_loglik"] - 1e-9

    def test_minimum_sample_size(self):
        with pytest.raises(InvalidParameterError):
            mle_fit_many([np.zeros(10)])

    def test_batch_matches_single(self):
        params = ArfimaParams(d=0.2, phi=0.3)
        ys = [
            simulate_gaussian(params, 80, np.random.default_rng(50 + i))
            for i in range(3)
        ]
        singles = [mle_fit_many([y])[0] for y in ys]
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

        def counting(Y, d_values, phis):
            calls.append((Y.shape[0], d_values.shape[1], phis.shape[1]))
            return real(Y, d_values, phis)

        monkeypatch.setattr(arfima, "_profile_loglik_batch", counting)
        fits = mle_fit_many(ys)
        assert [fit.diagnostics["evals"] for fit in fits] == [27, 45]
        rounds = [k for k, D, P in calls if (D, P) == (3, 3)]
        assert rounds == [2, 2, 2, 1, 1]
        assert calls == [(1, 49, 99)] + [(k, 3, 3) for k in rounds]  # the grid first
        for fit, y in zip(fits, ys):
            assert _fit_fields(fit) == _fit_fields(mle_fit_many([y])[0])
        # A block holds whole rows of (problem, d) with all their phi, up to
        # the block size: at 9 T values, one stencil per refinement block.
        real_block = arfima._factored_loglik
        blocks = []

        def block_counting(Y, head, phi, tail):
            blocks.append(phi.shape[:2])
            return real_block(Y, head, phi, tail)

        monkeypatch.setattr(arfima, "_factored_loglik", block_counting)
        monkeypatch.setattr(arfima, "_BLOCK_VALUES", 9 * T)
        refits = mle_fit_many(ys)
        assert blocks == [(1, 99)] * 49 + [(3, 3)] * 8
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
        ds = sorted({d for d, _ in self.POINTS})
        phis = sorted({phi for _, phi in self.POINTS})
        ll_batch, s2_batch = _profile_loglik_batch(Y[None], np.array([ds]), np.array([phis]))
        for d, phi in self.POINTS:
            g = phis.index(phi) * len(ds) + ds.index(d)  # phi-major
            gam = _acvf_rows([d], phi, T, _ar1_tail_length(phi, rel=1e-15))[0]
            for r in range(Y.shape[1]):
                ll_dense, s2_dense = _dense_profile_loglik(Y[:, r], gam)
                assert_allclose(ll_batch[0, g, r], ll_dense, rtol=1e-10)
                # The dense solve loses digits at (0.49, 0.99), whose
                # covariance has condition number about 7e7 at T=60.
                assert_allclose(s2_batch[0, g, r], s2_dense, rtol=1e-9)

    @pytest.mark.parametrize("T", [40, 100])
    def test_grid_and_full_acvf_oracle_agree(self, T):
        # The whole grid against the full-ACVF Durbin-Levinson likelihood,
        # with the same first maximum, phi-major, for every series.
        Y = np.column_stack(
            [
                simulate_gaussian(ArfimaParams(d=d, phi=phi), T, generator_at(T, i))
                for i, (d, phi) in enumerate([(0.3, 0.3), (-0.3, 0.9), (0.45, -0.9), (0.0, 0.0)])
            ]
        )
        d_grid, phi_grid = arfima._mle_grids()
        ll, s2 = _profile_loglik_batch(Y[None], d_grid[None], phi_grid[None])
        gammas = np.concatenate([_acvf_rows(d_grid, phi, T, arfima._tail(phi)) for phi in phi_grid])
        ll_full, s2_full = full_acvf_loglik(Y[None], gammas[None])
        assert_allclose(ll, ll_full, rtol=1e-10)
        assert np.array_equal(np.argmax(ll[0], axis=0), np.argmax(ll_full[0], axis=0))

    def test_corner_stencils_and_full_acvf_oracle_agree(self):
        # 3 x 3 stencils at the corners of the search box, stacked as k = 4
        # problems with their own series.
        T = 100
        steps = arfima._STENCIL_STEP * np.arange(-1, 2)
        corners = [(d, phi) for d in (-0.49, 0.49) for phi in (-0.99, 0.99)]
        Y = np.stack(
            [
                simulate_gaussian(ArfimaParams(d=d, phi=phi), T, generator_at(11, i))[:, None]
                for i, (d, phi) in enumerate(corners)
            ]
        )
        d_values = np.array([[d] for d, _ in corners]) + steps
        phis = np.array([[phi] for _, phi in corners]) + steps
        ll, s2 = _profile_loglik_batch(Y, d_values, phis)
        gammas = np.stack(
            [
                np.concatenate([_acvf_rows(ds, phi, T, arfima._tail(phi)) for phi in ps])
                for ds, ps in zip(d_values, phis)
            ]
        )
        ll_full, s2_full = full_acvf_loglik(Y, gammas)
        assert_allclose(ll, ll_full, rtol=1e-10)
        assert np.array_equal(np.argmax(ll, axis=1), np.argmax(ll_full, axis=1))

    def test_stacked_problems_equal_each_alone(self):
        # k = 3 problems with their own series, d and phi values, one d of
        # the last not positive definite: the stack gives each problem's values.
        T = 50
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((3, T, 2))
        d_values = np.array([[-0.2, 0.1, 0.4], [-0.2, 0.1, 0.4], [-0.2, 0.7, 0.4]])
        phis = np.array([[-0.5, 0.2], [0.3, 0.6], [0.9, -0.1]])
        ll, s2 = _profile_loglik_batch(Y, d_values, phis)
        assert ll.shape == s2.shape == (3, 6, 2)
        assert np.all(ll[2, 1::3] == -np.inf)
        assert np.isfinite(ll[:2]).all() and np.isfinite(np.delete(ll[2], [1, 4], axis=0)).all()
        for i in range(3):
            ll_i, s2_i = _profile_loglik_batch(Y[i : i + 1], d_values[i : i + 1], phis[i : i + 1])
            assert np.array_equal(ll[i], ll_i[0]) and np.array_equal(s2[i], s2_i[0])

    def test_not_positive_definite_gives_minus_inf(self, monkeypatch):
        y = np.random.default_rng(4).standard_normal(30)[None, :, None]
        # d = 0.7 has gamma_d(0) < 0, and d = 1.2 a lag-one correlation of -6.
        d_values = np.array([[0.2, 0.7, 1.2]])
        phis = np.array([[0.0, 0.5, -0.5]])
        ll, _ = _profile_loglik_batch(y, d_values, phis)
        F = ll[0, :, 0].reshape(3, 3)  # F[phi, d]
        assert np.isfinite(F[:, 0]).all() and np.all(F[:, 1:] == -np.inf)
        # A conditional variance of y(0) that is not positive, or not finite.
        real = arfima._cross_rows

        def spoiled(head, phi, tail):
            g, gamma0 = real(head, phi, tail)
            gamma0[:, 1] = 0.0
            gamma0[:, 2] = np.inf
            return g, gamma0

        monkeypatch.setattr(arfima, "_cross_rows", spoiled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll, _ = _profile_loglik_batch(y, d_values[:, :1], phis)
        assert np.isfinite(ll[0, 0, 0]) and np.all(ll[0, 1:, 0] == -np.inf)

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

    @pytest.mark.parametrize("T", [40, 100])
    def test_grid_independent_of_chunk_length(self, monkeypatch, T):
        # The sweep adds its innovations into the time sums chunk by chunk:
        # one step per chunk and a single chunk give the default's values.
        Y = np.column_stack(
            [
                simulate_gaussian(ArfimaParams(d=d, phi=phi), T, generator_at(T, i))
                for i, (d, phi) in enumerate([(0.3, 0.3), (-0.3, 0.9), (0.45, -0.9), (0.0, 0.0)])
            ]
        )
        d_grid, phi_grid = arfima._mle_grids()
        ll0, s20 = _profile_loglik_batch(Y[None], d_grid[None], phi_grid[None])
        for chunk in (1, T - 1):
            monkeypatch.setattr(arfima, "_CHUNK_STEPS", chunk)
            ll, s2 = _profile_loglik_batch(Y[None], d_grid[None], phi_grid[None])
            assert_allclose(ll, ll0, rtol=1e-12)
            assert_allclose(s2, s20, rtol=1e-12)

    def test_block_memory_within_bound(self):
        # A block holds the sweep's right-hand sides and, while they are
        # built, the cross-covariances: about two tables of _BLOCK_VALUES
        # doubles; the innovations are kept for one chunk of steps only.
        T, r = 100, 8
        Y = np.random.default_rng(5).standard_normal((1, T, r))
        d_grid, phi_grid = arfima._mle_grids()
        tracemalloc.start()
        try:
            ll, s2 = _profile_loglik_batch(Y, d_grid[None], phi_grid[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * arfima._BLOCK_VALUES + ll.nbytes + s2.nbytes

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
                mle_fit_many([y])
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
        diag = mle_fit_many([y])[0].diagnostics
        assert diag["converged"] is True and diag["boundary"] is False
        assert isinstance(diag["evals"], int) and diag["evals"] > 0
        assert {"grid_d", "grid_phi", "grid_loglik"} <= set(diag)

    def test_over_differenced_noise_hits_d_bound(self):
        # Differenced white noise has d = -1, below the search box.
        y = np.diff(np.random.default_rng(6).standard_normal(201))
        res = mle_fit_many([y])[0]
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
        fit = mle_fit_many([y])[0]
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
        fit = mle_fit_many([y])[0]
        ll, s2 = _profile_loglik_batch(
            y[None, :, None], np.array([[fit.d_hat]]), np.array([[fit.phi_hat]])
        )
        assert_allclose(fit.loglik, ll[0, 0, 0], rtol=1e-12)
        assert_allclose(fit.sigma2, s2[0, 0, 0], rtol=1e-12)
        evals = fit.diagnostics["evals"]
        assert evals > 0 and evals % 9 == 0
