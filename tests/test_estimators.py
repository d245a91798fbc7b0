import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import longmem.estimators as est_mod
from longmem import (
    ArfimaParams,
    DegenerateInputError,
    EstimatorSpec,
    InvalidParameterError,
    asymptotic_sd,
    estimate,
    lpr_estimate,
    simulate_gaussian,
    splw_estimate,
)
from longmem.estimators import _estimate_rows
from longmem.fracdiff import apply_frac_filter
from longmem.spectral import bandwidth, fourier_frequencies

from _oracles import newton_solve_two_edges, whittle_objective


def use_synthetic_ordinates(monkeypatch, T, N, coeffs):
    """Make every series' ordinates an exact function of frequency.

    coeffs = (a, b, c2, c4): log I_j = a + b*(-2 log l_j) + c2 l^2 + c4 l^4.
    """
    freqs = fourier_frequencies(T, N)
    a, b, c2, c4 = coeffs
    logI = a + b * (-2.0 * np.log(freqs)) + c2 * freqs ** 2 + c4 * freqs ** 4

    def synthetic(y, n, centered=None, dft=None):
        assert y.shape[-1] == T and n == N
        return np.tile(np.exp(logI), (len(y), 1))

    monkeypatch.setattr(est_mod, "_ordinates", synthetic)


class TestSpec:
    def test_family_validated(self):
        with pytest.raises(InvalidParameterError):
            EstimatorSpec("ols", 0)

    def test_order_validated(self):
        with pytest.raises(InvalidParameterError):
            EstimatorSpec("lpr", 4)

    def test_non_integer_order_rejected(self):
        # 1.0 and True equal 1 but are refused, as every count is; numpy
        # integers pass.
        for P in (1.0, True):
            with pytest.raises(InvalidParameterError, match="P must be an integer"):
                EstimatorSpec("lpr", P)
        assert EstimatorSpec("lpr", np.int64(1)).P == 1

    def test_exponent_validated(self):
        with pytest.raises(InvalidParameterError):
            EstimatorSpec("lpr", 0, bandwidth_exponent=1.2)


class TestAsymptoticSd:
    def test_lpr_baseline(self):
        assert_allclose(asymptotic_sd(EstimatorSpec("lpr", 0), 77),
                        0.07308005899172838, rtol=1e-12)

    def test_splw_baseline(self):
        assert_allclose(asymptotic_sd(EstimatorSpec("splw", 0), 77),
                        0.05698028822981897, rtol=1e-12)

    def test_inflation_psi1(self):
        # psi_1^2 = 2.25 so psi_1 = 1.5
        want = np.sqrt(np.pi ** 2 / 24) * 1.5 / 10.0
        assert_allclose(asymptotic_sd(EstimatorSpec("lpr", 1), 100), want)

    def test_inflation_monotone(self):
        sds = [asymptotic_sd(EstimatorSpec("splw", P), 77) for P in range(4)]
        assert np.all(np.diff(sds) > 0)


class TestLprRegression:
    @pytest.mark.parametrize("P", [0, 1, 2, 3])
    def test_exact_log_linear_signal(self, P, monkeypatch):
        use_synthetic_ordinates(monkeypatch, 500, 77, (1.3, 0.35, 0.0, 0.0))
        res = lpr_estimate(np.zeros(500), EstimatorSpec("lpr", P))
        assert abs(res.d_hat - 0.35) <= 1e-10

    def test_extra_regressor_gets_zero_weight(self, monkeypatch):
        # log-periodogram an exact degree-1 even polynomial plus log term:
        # P=1 and P=2 must agree
        use_synthetic_ordinates(monkeypatch, 500, 77, (0.4, 0.22, -0.8, 0.0))
        d1 = lpr_estimate(np.zeros(500), EstimatorSpec("lpr", 1)).d_hat
        d2 = lpr_estimate(np.zeros(500), EstimatorSpec("lpr", 2)).d_hat
        assert abs(d1 - 0.22) <= 1e-9
        assert abs(d2 - d1) <= 1e-9

    def test_white_noise_sane(self):
        spec = EstimatorSpec("lpr", 0)
        hits = 0
        for r in range(300):
            y = np.random.default_rng(300 + r).standard_normal(100)
            res = lpr_estimate(y, spec)
            hits += abs(res.d_hat) < 4 * res.asymptotic_sd
        assert hits >= 297  # >= 99% of seeds

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError):
            lpr_estimate(np.full(100, 2.0), EstimatorSpec("lpr", 0))

    def test_arfima_bias_T100(self):
        # mean LPR(0) bias near 0.1391 for d=0, phi=0.3, T=100
        spec = EstimatorSpec("lpr", 0)
        params = ArfimaParams(d=0.0, phi=0.3)
        vals = [
            lpr_estimate(
                simulate_gaussian(params, 100, np.random.default_rng(2000 + r)), spec
            ).d_hat
            for r in range(400)
        ]
        assert abs(np.mean(vals) - 0.1391) <= 0.023  # 3 MC standard errors


class TestSplwSolver:
    @pytest.mark.parametrize("P", [0, 1, 2, 3])
    def test_exact_power_law_interior(self, P, monkeypatch):
        use_synthetic_ordinates(monkeypatch, 500, 77, (1.3, 0.35, 0.0, 0.0))
        res = splw_estimate(np.zeros(500), EstimatorSpec("splw", P))
        assert abs(res.d_hat - 0.35) <= 1e-10
        assert not res.diagnostics["boundary"]

    @pytest.mark.parametrize("P", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "d, edge", [(1.8, est_mod.SEARCH_HI), (-1.4, est_mod.SEARCH_LO)]
    )
    def test_power_law_beyond_search_region_hits_edge(self, P, d, edge, monkeypatch):
        use_synthetic_ordinates(monkeypatch, 500, 77, (0.2, d, 0.0, 0.0))
        res = splw_estimate(np.zeros(500), EstimatorSpec("splw", P))
        assert res.d_hat == edge
        assert res.diagnostics["boundary"]


    @pytest.mark.parametrize("T, P", [(100, 0), (500, 1), (500, 2), (2000, 3), (128, 0)])
    def test_one_edge_test_equals_two_edge_solve(self, T, P):
        # Rows of log-ordinates -d0 * g + noise put the minimizer near d0:
        # inside the search interval, past either edge, on a flat (zero)
        # row, and on a NaN row. Testing only the edge that R'(mid) points
        # to must give the two-edge solve's d and boundary bit for bit.
        N = bandwidth(T, 0.7, P)
        g, poly, pinv_poly = est_mod._whittle_design(T, N, P)
        rng = np.random.default_rng(T + P)
        d0 = np.concatenate([rng.uniform(-0.9, 1.4, 40), rng.uniform(-4.0, -1.1, 20),
                             rng.uniform(1.6, 4.0, 20), [0.0, 0.0]])
        logI = -d0[:, None] * g + rng.uniform(0.0, 2.0, (d0.size, 1)) * \
            rng.standard_normal((d0.size, N))
        logI[-2] = 0.0
        base = est_mod._whittle_offsets(logI, poly, pinv_poly) + logI
        base[-1] = np.nan
        lo, hi = est_mod.SEARCH_LO, est_mod.SEARCH_HI
        d, boundary = est_mod._newton_solve(base, g, lo, hi)
        want_d, want_boundary = newton_solve_two_edges(base, g, lo, hi)
        assert d.tobytes() == want_d.tobytes()
        assert np.array_equal(boundary, want_boundary)
        assert (d[boundary] == lo).any() and (d[boundary] == hi).any()
        assert not boundary[-2] and (~boundary[:40]).sum() >= 30


class TestSplw:
    def test_scale_invariance(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.3, phi=0.3), 500, np.random.default_rng(12)
        )
        for P in (0, 1, 2):
            spec = EstimatorSpec("splw", P)
            base = splw_estimate(y, spec).d_hat
            assert abs(splw_estimate(1234.567 * y, spec).d_hat - base) <= 1e-9
            assert abs(splw_estimate(1e-3 * y, spec).d_hat - base) <= 1e-9

    def test_shift_invariance(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.2, phi=0.6), 500, np.random.default_rng(13)
        )
        for P in (0, 1, 2):
            spec = EstimatorSpec("splw", P)
            base = splw_estimate(y, spec).d_hat
            assert abs(splw_estimate(y + 57.25, spec).d_hat - base) <= 1e-9

    def test_refinement_never_worse_than_grid(self):
        for seed in range(6):
            y = simulate_gaussian(
                ArfimaParams(d=0.25, phi=0.6), 300, np.random.default_rng(seed)
            )
            for P in (0, 1):
                spec = EstimatorSpec("splw", P)
                res = splw_estimate(y, spec)
                grid = np.linspace(est_mod.SEARCH_LO, est_mod.SEARCH_HI, 251)
                grid_best = min(whittle_objective(d, y, res.N, P) for d in grid)
                at_estimate = whittle_objective(res.d_hat, y, res.N, P)
                assert at_estimate <= grid_best + 1e-12

    def test_boundary_flag_on_overdifferenced_data(self):
        w = np.random.default_rng(11).standard_normal(400)
        res = splw_estimate(apply_frac_filter(w, 2.2), EstimatorSpec("splw", 0))
        assert res.diagnostics["boundary"]
        assert res.d_hat == est_mod.SEARCH_LO

    def test_interior_minimum_not_flagged(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.2, phi=0.3), 500, np.random.default_rng(14)
        )
        res = splw_estimate(y, EstimatorSpec("splw", 0))
        assert not res.diagnostics["boundary"]

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError):
            splw_estimate(np.full(100, 1.0), EstimatorSpec("splw", 0))

    def test_arfima_bias_T100(self):
        # mean SPLW(0) bias near 0.1300 for d=0, phi=0.3, T=100
        spec = EstimatorSpec("splw", 0)
        params = ArfimaParams(d=0.0, phi=0.3)
        vals = [
            splw_estimate(
                simulate_gaussian(params, 100, np.random.default_rng(2000 + r)), spec
            ).d_hat
            for r in range(400)
        ]
        assert abs(np.mean(vals) - 0.1300) <= 0.020  # 3 MC standard errors


class TestMeanInvariance:
    def test_both_families_unchanged_by_level(self):
        y = simulate_gaussian(
            ArfimaParams(d=0.3, phi=0.6), 400, np.random.default_rng(15)
        )
        for family in ("lpr", "splw"):
            spec = EstimatorSpec(family, 1)
            a = estimate(y, spec).d_hat
            b = estimate(y - 123.0, spec).d_hat
            assert abs(a - b) <= 1e-9


def test_dispatch_matches_direct_calls():
    y = simulate_gaussian(ArfimaParams(d=0.1, phi=0.3), 300, np.random.default_rng(16))
    assert estimate(y, EstimatorSpec("lpr", 1)).d_hat == lpr_estimate(
        y, EstimatorSpec("lpr", 1)
    ).d_hat
    assert estimate(y, EstimatorSpec("splw", 1)).d_hat == splw_estimate(
        y, EstimatorSpec("splw", 1)
    ).d_hat


class TestOnePath:
    """Every estimate is the one-row case of the batched kernel."""

    @pytest.mark.parametrize("T", [64, 500, 2000])
    @pytest.mark.parametrize("P", [0, 1, 2, 3])
    @pytest.mark.parametrize("family", ["lpr", "splw"])
    def test_estimate_is_a_row_of_the_kernel(self, family, P, T):
        spec = EstimatorSpec(family, P)
        direct = lpr_estimate if family == "lpr" else splw_estimate
        rng = np.random.default_rng(100 * P + T)
        stack = np.stack([
            simulate_gaussian(ArfimaParams(d=d, phi=0.5), T, rng)
            for d in (0.4, 0.1, -0.2)
        ])
        y = stack[1]
        alone, ok, edge = _estimate_rows(y[None], spec)
        middle, ok3, edge3 = _estimate_rows(stack, spec)
        assert ok.all() and ok3.all()
        for res in (estimate(y, spec), direct(y, spec)):
            assert res.d_hat == alone[0] == middle[1]
            assert res.diagnostics["boundary"] == edge[0] == edge3[1]

    def test_boundary_mask(self):
        w = np.random.default_rng(11).standard_normal(400)
        stack = np.stack([apply_frac_filter(w, 2.2), w])
        _, _, edge = _estimate_rows(stack, EstimatorSpec("splw", 0))
        assert edge.tolist() == [True, False]
        _, _, edge = _estimate_rows(stack, EstimatorSpec("lpr", 0))
        assert not edge.any()

    @pytest.mark.parametrize("family", ["lpr", "splw"])
    @pytest.mark.parametrize(
        "y, error",
        [
            (np.ones((2, 100)), InvalidParameterError),
            (np.r_[np.zeros(99), np.nan], InvalidParameterError),
            (np.r_[np.zeros(99), np.inf], InvalidParameterError),
            (np.full(100, 3.0), DegenerateInputError),
        ],
        ids=["2-D", "nan", "inf", "constant"],
    )
    def test_bad_input_raises_without_warning(self, family, y, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                estimate(y, EstimatorSpec(family, 1))

    def test_family_checked(self):
        with pytest.raises(InvalidParameterError):
            lpr_estimate(np.arange(100.0), EstimatorSpec("splw", 0))
        with pytest.raises(InvalidParameterError):
            splw_estimate(np.arange(100.0), EstimatorSpec("lpr", 0))
