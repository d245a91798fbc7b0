import numpy as np
import pytest
from numpy.testing import assert_allclose

from longmem import (
    ArFit,
    ArfimaParams,
    InvalidParameterError,
    NumericalDegeneracyError,
    ResidualSet,
    SieveFit,
    ar_residuals,
    arfima_acvf,
    default_max_order,
    levinson_durbin,
)
import longmem.arsieve as arsieve
import longmem.bootstrap as bmod
from longmem.arsieve import (
    _aic_burg_fit,
    _burg_reflections,
    _durbin_levinson,
)

from _oracles import aic_order_by_refits, ar_path_lfilter, burg_fit


def ar_path(phi, T, seed):
    phi = np.asarray(phi, dtype=float)
    eps = np.random.default_rng(seed).standard_normal(T)
    return ar_path_lfilter(phi, eps, np.zeros(phi.size - 1))


def aic_fit(w, h_max):
    """The sieve's AR fit of one series: the fit of a stack of one row."""
    [fit] = _aic_burg_fit(w[None], h_max)
    return fit


def sieve_path(phi, eps, filtered, tau):
    """One bootstrap draw of a d_f = 0 sieve with unit scale: the AR path alone.

    The path runs sum_j phi[j] w(t-j) = eps(t), seeded by the h values of
    `filtered` before position `tau`.
    """
    phi = np.asarray(phi, dtype=float)
    fit = ArFit(order=phi.size - 1, phi=phi, sigma2=1.0)
    sieve = SieveFit(0.0, np.asarray(filtered, dtype=float), fit,
                     ResidualSet(raw=None, standardized=None, scale=1.0))
    eps = np.array(eps, dtype=float, ndmin=2)
    spectrum = bmod._draw_spectra([sieve])[0]
    return bmod._draw_rows(sieve, eps, np.array([tau]), spectrum, None, None)[0]


class TestLevinson:
    def test_white_noise(self):
        fits = levinson_durbin([1.0, 0.0, 0.0])
        assert_allclose(fits[1].phi, [1, 0, 0])
        assert_allclose(fits[1].sigma2, 1.0)

    def test_ar1_yule_walker_by_hand(self):
        # gamma(k) = 0.6^k: phi_1(1) = -0.6, sigma2 = 1 - 0.36
        fits = levinson_durbin([1.0, 0.6])
        assert_allclose(fits[0].phi, [1.0, -0.6])
        assert_allclose(fits[0].sigma2, 0.64)

    def test_invalid_acvf_rejected(self):
        with pytest.raises(NumericalDegeneracyError, match="order 1"):
            levinson_durbin([1.0, 1.1])

    def test_variances_non_increasing(self):
        g = [2.0, 1.0, 0.6, 0.3, 0.2]
        fits = levinson_durbin(g)
        s = [f.sigma2 for f in fits]
        assert np.all(np.diff(s) <= 1e-15)
        assert all(np.all(np.abs(f.reflection) < 1) for f in fits)

    def test_nonpositive_gamma0_rejected(self):
        with pytest.raises(NumericalDegeneracyError):
            levinson_durbin([0.0, 0.0])


    def test_fits_are_one_row_of_the_batched_sweep(self):
        good = [
            arfima_acvf(ArfimaParams(d=d, phi=phi), 12)
            for d, phi in ((0.3, 0.6), (0.0, 0.0), (-0.2, -0.8))
        ]
        bad = np.r_[1.0, 1.1, np.zeros(11)]  # not positive definite at order 1
        rows = np.array([good[0], bad, good[1], good[2]])
        fits = [levinson_durbin(g) for g in good]
        for t, k, b, v, flags in _durbin_levinson(rows):
            assert flags.tolist() == [False, t >= 1, False, False]
            for i, row in ((0, 0), (1, 2), (2, 3)):
                if t == 0:
                    assert v[row] == good[i][0]
                    continue
                fit = fits[i][t - 1]
                assert fit.phi.tobytes() == np.r_[1.0, -b[row]].tobytes()
                assert fit.sigma2 == v[row] and fit.reflection[-1] == -k[row]
            assert np.all(np.isfinite(b[1])) and np.isfinite(v[1])


class TestBurg:
    def test_alternating_series_is_boundary_degenerate(self):
        # closed-form order-1 reflection coefficient equals exactly 1
        w = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(NumericalDegeneracyError):
            burg_fit(w, 1)

    def test_ar1_long_path(self):
        w = ar_path([1.0, -0.6], 20000, seed=0)
        fit = burg_fit(w, 1)
        assert abs(fit.phi[1] - (-0.6)) < 0.02

    def test_white_noise_variance(self):
        w = np.random.default_rng(1).standard_normal(2000)
        fit = burg_fit(w, 3)
        assert abs(fit.sigma2 - w.var()) / w.var() < 0.05

    def test_agrees_with_levinson_on_long_ar2(self):
        w = ar_path([1.0, -0.5, 0.2], 50000, seed=2)
        bf = burg_fit(w, 2)
        g = [np.mean(w[: w.size - l] * w[l:]) for l in range(3)]
        lf = levinson_durbin(g)[-1]
        assert np.max(np.abs(bf.phi - lf.phi)) <= 0.01

    def test_stability_guaranteed(self):
        for seed in range(5):
            w = np.random.default_rng(seed).standard_normal(400)
            fit = burg_fit(w, 12)
            assert np.all(np.abs(fit.reflection) < 1.0)
            roots = np.roots(fit.phi)
            assert np.all(np.abs(roots) < 1.0)

    def test_sample_size_precondition(self):
        with pytest.raises(InvalidParameterError):
            _aic_burg_fit(np.arange(10.0)[None], 5)

    def test_implied_acvf_positive_definite(self):
        # forward Levinson pass on the fitted AR's own ACVF must succeed
        from scipy.signal import lfilter

        w = ar_path([1.0, -0.7, 0.3], 3000, seed=3)
        fit = burg_fit(w, 4)
        imp = lfilter([1.0], fit.phi, np.r_[1.0, np.zeros(4999)])
        acvf = [fit.sigma2 * np.dot(imp[: imp.size - l], imp[l:]) for l in range(12)]
        fits = levinson_durbin(acvf)
        assert all(np.all(np.abs(f.reflection) < 1) for f in fits)


def same_fit(a, b):
    return (a.order, a.sigma2, a.phi.tobytes(), a.reflection.tobytes()) == (
        b.order, b.sigma2, b.phi.tobytes(), b.reflection.tobytes())


class TestBurgRows:
    """A stack of rows is swept at once; each row's values are its own."""

    @staticmethod
    def rows(T=300):
        return np.array([ar_path([1.0, -0.7, 0.3], T, seed=1),
                         np.random.default_rng(2).standard_normal(T) * 1e3,
                         ar_path([1.0, 0.9], T, seed=3),
                         ar_path([1.0, -0.2, 0.0, 0.0, 0.4], T, seed=4)])

    def test_rows_equal_each_series_alone(self):
        W = self.rows()
        h = default_max_order(W.shape[1])
        ks, sig = _burg_reflections(W, h)
        fits = _aic_burg_fit(W, h)
        for w, row_ks, row_sig, fit in zip(W, ks, sig, fits):
            alone_ks, alone_sig = _burg_reflections(w[None], h)
            assert row_ks.tobytes() == alone_ks.tobytes()
            assert row_sig.tobytes() == alone_sig.tobytes()
            assert same_fit(fit, aic_fit(w, h))
        # The order of the rows does not matter either.
        assert all(same_fit(a, b) for a, b in zip(fits[::-1], _aic_burg_fit(W[::-1], h)))

    def test_failed_row_fails_alone(self):
        # An alternating row's order-1 reflection is exactly 1, and a zero
        # row's denominator vanishes; the other rows are fitted as alone.
        W = self.rows(40)
        W[1] = (-1.0) ** np.arange(40)
        W[2] = 0.0
        h = default_max_order(40)
        fits = _aic_burg_fit(W, h)
        for row, fit in zip(W, fits):
            alone = aic_fit(row, h)
            if isinstance(fit, ArFit):
                assert same_fit(fit, alone)
            else:
                assert isinstance(alone, NumericalDegeneracyError)
                assert str(alone) == str(fit)
        assert [type(fit).__name__ for fit in fits] == [
            "ArFit", "NumericalDegeneracyError", "NumericalDegeneracyError", "ArFit"]
        assert str(fits[1]) == "Burg reflection coefficient hit the unit boundary at order 1"
        assert str(fits[2]) == "degenerate input at Burg order 1"


class TestOrderSelection:
    def test_white_noise_prefers_small_orders(self):
        h_max = default_max_order(2000)
        small = sum(
            aic_fit(np.random.default_rng(100 + r).standard_normal(2000), h_max).order
            <= 3
            for r in range(40)
        )
        assert small >= 33  # observed rate ~0.92; 3 binomial se guard

    def test_strong_ar1_selects_at_least_one(self):
        for seed in range(5):
            w = ar_path([1.0, -0.9], 2000, seed=seed)
            assert aic_fit(w, 25).order >= 1

    def test_h_max_honored(self):
        w = ar_path([1.0, -0.9], 2000, seed=9)
        for h_max in (1, 2, 5):
            assert aic_fit(w, h_max).order <= h_max

    def test_single_sweep_matches_per_order_refits(self):
        w = np.random.default_rng(4).standard_normal(500)
        _, sig = _burg_reflections(w[None], 10)
        for h in range(1, 11):
            assert_allclose(burg_fit(w, h).sigma2, sig[0, h - 1], rtol=1e-12)

    @pytest.mark.parametrize("T", [40, 500, 2000])
    def test_aic_fit_from_one_sweep_equals_refit(self, monkeypatch, T):
        w = ar_path([1.0, -0.7, 0.3], T, seed=T)
        h_max = default_max_order(T)
        want = burg_fit(w, aic_order_by_refits(w, h_max))
        calls = []

        def counting(series, h):
            calls.append(h)
            return _burg_reflections(series, h)

        monkeypatch.setattr(arsieve, "_burg_reflections", counting)
        got = aic_fit(w, h_max)
        assert calls == [h_max]
        assert got.order == want.order and got.sigma2 == want.sigma2
        assert got.phi.tobytes() == want.phi.tobytes()
        assert got.reflection.tobytes() == want.reflection.tobytes()

    def test_default_cap_values(self):
        assert default_max_order(100) == 21
        assert default_max_order(500) == 38

    @pytest.mark.parametrize("T", [0, -3, 2.5, 100.0, True, np.nan])
    def test_default_cap_of_bad_T_rejected(self, T):
        with pytest.raises(InvalidParameterError):
            default_max_order(T)


class TestResiduals:
    def test_order_zero_returns_centered_scaled_series(self):
        w = np.random.default_rng(5).standard_normal(100)
        fit = ArFit(order=0, phi=[1.0], sigma2=1.0)
        res = ar_residuals(w, fit)
        assert_allclose(res.raw, w)
        assert_allclose(res.standardized, (w - w.mean()) / w.std())

    def test_circular_initial_values(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        fit = ArFit(order=1, phi=[1.0, -0.5], sigma2=1.0)
        res = ar_residuals(w, fit)
        # eps(1) uses w(0) = w(T) = 4
        assert_allclose(res.raw, [1 - 2.0, 2 - 0.5, 3 - 1.0, 4 - 1.5])

    def test_exact_recursion_recovers_noise(self):
        rng = np.random.default_rng(6)
        eps = rng.standard_normal(300)
        fit = ArFit(order=1, phi=[1.0, -0.5], sigma2=1.0)
        w = ar_path_lfilter(fit.phi, eps, np.zeros(1))
        res = ar_residuals(w, fit)
        assert_allclose(res.raw[1:], eps[1:], atol=1e-12)

    def test_standardization_moments(self):
        w = np.random.default_rng(7).standard_normal(500)
        res = ar_residuals(w, burg_fit(w, 4))
        assert abs(res.standardized.mean()) <= 1e-12
        assert abs(res.standardized.var() - 1.0) <= 1e-10


class TestSimulatePath:
    """The sieve's AR path, drawn by the bootstrap kernel with d_f = 0."""

    def test_zero_in_zero_out(self):
        path = sieve_path([1.0, -0.5], np.zeros(5), np.zeros(5), tau=1)
        assert_allclose(path, np.zeros(5))

    def test_order_zero_passthrough(self):
        eps = np.arange(4.0)
        assert_allclose(sieve_path([1.0], eps, np.ones(4), tau=0), eps)

    def test_unrolled_recursion(self):
        path = sieve_path([1.0, -0.5], np.zeros(3), [1.0, 0.0, 0.0], tau=1)
        assert_allclose(path, [0.5, 0.25, 0.125])
