import math
import os
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from longmem import (
    ArfimaParams,
    BootstrapConfig,
    EstimationFailedError,
    EstimatorSpec,
    InvalidParameterError,
    McDesign,
    NumericalDegeneracyError,
    SieveFit,
    bias_correct,
    estimate,
    hpd_interval,
    iterate_bias_correct,
    parse_estimator_token,
    prefilter_sieve,
    simulate_gaussian,
    stopping_thresholds,
)
import longmem.arsieve as arsieve_mod
import longmem.bootstrap as bmod
import longmem.estimators as est_mod
from longmem.arsieve import (
    ArFit,
    _impulse_response,
    _offset_weights,
    _presample_offsets,
    ar_residuals,
    default_max_order,
)
from longmem.fracdiff import _causal_filter, _causal_spectrum, apply_frac_filter
from longmem.harness import simulation_stream, task_stream
from longmem.streams import generator_at, substream

from _oracles import (
    aic_order_by_refits,
    ar_path_lfilter,
    burg_fit,
    draw_lfilter,
    hpd_window_exhaustive,
)


@pytest.fixture(scope="module")
def arfima_series():
    return simulate_gaussian(
        ArfimaParams(d=0.2, phi=0.3), 500, np.random.default_rng(9)
    )


def force_threads(monkeypatch, n):
    """Let every bootstrap pass run on up to n threads."""
    monkeypatch.setattr(bmod, "_pass_threads", lambda cpus: n)


def stub_estimates(monkeypatch, row_estimate):
    """Route every estimate, on the data and on the draws, through a stub.

    ``row_estimate(series)`` gives the estimate of one series, or None for
    a failed one. The stub's ordinates carry it: a failed series gets NaN
    ordinates, which fail the check, and any other series ordinates of 1
    led by its estimate, which the stub solve reads back. Rows are
    visited in order, so the data comes first and then the draws of each
    pass in draw order.
    """
    def ordinates(y, N, centered=None, dft=None):
        out = np.ones((len(y), N))
        for row, series in zip(out, y):
            value = row_estimate(series)
            row[0] = np.nan if value is None else value
        return out

    def solve(ordinates, T, spec):
        return ordinates[:, 0].copy(), np.zeros(len(ordinates), dtype=bool)

    for module in (bmod, est_mod):
        monkeypatch.setattr(module, "_ordinates", ordinates)
        monkeypatch.setattr(module, "_estimate_ordinates", solve)


def forbid_estimates(monkeypatch):
    """Fail the test as soon as any series is estimated."""
    def forbidden(*args):
        raise AssertionError("estimate made")

    for module in (bmod, est_mod):
        monkeypatch.setattr(module, "_ordinates", forbidden)


class TestSieve:
    def test_fit_equals_aic_order_refit(self, arfima_series):
        for d_f in (0.0, 0.2, 0.45):
            sieve = prefilter_sieve(arfima_series, d_f)
            w_f = apply_frac_filter(arfima_series - arfima_series.mean(), d_f)
            h = aic_order_by_refits(w_f, default_max_order(w_f.size))
            want = burg_fit(w_f, h)
            assert sieve.fit.order == want.order
            assert sieve.fit.sigma2 == want.sigma2
            assert sieve.fit.phi.tobytes() == want.phi.tobytes()
            assert sieve.fit.reflection.tobytes() == want.reflection.tobytes()

    @pytest.mark.parametrize("series, d_f, match", [
        (lambda y: np.stack([y, y]), 0.2, None),
        (lambda y: y[:0], 0.2, "at least 3 observations, got 0$"),
        (lambda y: y[:1], 0.2, "at least 3 observations, got 1$"),
        (lambda y: y[:2], 0.2, "at least 3 observations, got 2$"),
        (lambda y: np.where(np.arange(y.size) == 7, np.nan, y), 0.2, None),
        (lambda y: np.where(np.arange(y.size) == 7, np.inf, y), 0.2, None),
        (lambda y: y, np.nan, None),
        (lambda y: y, np.inf, None),
        (lambda y: y, -np.inf, None),
    ], ids=["2-D", "empty", "T=1", "T=2", "nan in y", "inf in y", "nan d_f", "inf d_f",
            "-inf d_f"])
    def test_bad_input_rejected_before_any_filter(self, arfima_series, monkeypatch,
                                                  series, d_f, match):
        def forbidden(*args):
            raise AssertionError("filter ran")

        monkeypatch.setattr(bmod, "_frac_filter_rows", forbidden)
        with pytest.raises(InvalidParameterError, match=match):
            prefilter_sieve(series(arfima_series), d_f)

    def test_three_observations_fit_one_lag(self, arfima_series):
        sieve = prefilter_sieve(arfima_series[:3], 0.2)
        assert sieve.fit.order == 1
        assert sieve.filtered.size == 3

    def test_one_burg_sweep_per_pass(self, arfima_series, monkeypatch):
        real = arsieve_mod._burg_reflections
        sweeps = []

        def counting(w, h_max):
            sweeps.append(h_max)
            return real(w, h_max)

        monkeypatch.setattr(arsieve_mod, "_burg_reflections", counting)
        trace = iterate_bias_correct(
            arfima_series, EstimatorSpec("lpr", 0),
            BootstrapConfig(B=12, rng_stream=5), max_iter=3, fixed=True,
        )
        assert len(trace.records) == 3
        assert sweeps == [default_max_order(arfima_series.size)] * 3


class TestDraws:
    def test_zero_prefilter_reduces_to_raw_sieve(self):
        # with d_f = 0 the filter steps are identities: the sieve sees the
        # demeaned data, and every draw of the pass equals the sieve path
        y = simulate_gaussian(ArfimaParams(d=0.0, phi=0.5), 400,
                              np.random.default_rng(21))
        cfg = BootstrapConfig(B=10, rng_stream=5)
        sieve = prefilter_sieve(y, 0.0)
        assert np.array_equal(sieve.filtered, y - y.mean())
        rows = pass_rows(y, 0.0, cfg, 0, sieve)
        T, h = y.size, sieve.fit.order
        eps = generator_at(5, 0, 0).standard_normal((cfg.B, T)) * sieve.residuals.scale
        tau = generator_at(5, 0, 1).integers(h, T + 1, size=cfg.B)
        init = sieve.filtered[tau[:, None] + np.arange(-h, 0)]
        phi = sieve.fit.phi
        ar_spectrum = _causal_spectrum(_impulse_response(phi, T))
        x = eps.copy()
        x[:, :h] += _presample_offsets(_offset_weights(phi), init)
        assert np.array_equal(rows, _causal_filter(x, ar_spectrum))
        want = ar_path_lfilter(phi, eps, init)
        assert np.abs(rows - want).max() <= 1e-13 * np.abs(want).max()

    def test_order_zero_parametric_variance(self):
        y = np.random.default_rng(3).standard_normal(2000)
        cfg = BootstrapConfig(B=10, rng_stream=500)
        sieve0 = order_zero_sieve(y, 0.3)
        scale2 = sieve0.residuals.scale ** 2
        w_star = apply_frac_filter(pass_rows(y, 0.3, cfg, 0, sieve0), 0.3)
        for row in w_star:
            assert abs(row.var() - scale2) / scale2 < 0.10

    @pytest.mark.parametrize("h", [0, 1, 4])
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_fused_filter_matches_lfilter_oracle(self, arfima_series, h, mode):
        y = arfima_series
        T = y.size
        cfg = BootstrapConfig(B=40, innovation_mode=mode, rng_stream=6)
        for d_f in (0.0, 0.2, 0.45):
            w_f = apply_frac_filter(y, d_f)
            fit = (ArFit(order=0, phi=[1.0], sigma2=1.0) if h == 0
                   else burg_fit(w_f, h))
            sieve = SieveFit(d_f, w_f, fit, ar_residuals(w_f, fit))
            rng = generator_at(6, 0, 0)
            if mode == "parametric":
                eps = rng.standard_normal((cfg.B, T))
            else:
                eps = sieve.residuals.standardized[rng.integers(0, T, size=(cfg.B, T))]
            tau = rng.integers(h, T + 1, size=cfg.B) if h else np.zeros(cfg.B, int)
            # _draw_rows consumes its innovations: hand it a copy.
            got = bmod._draw_rows(sieve, eps.copy(), tau, bmod._draw_spectra([sieve])[0])
            for row, e, t in zip(got, eps, tau):
                e = e * sieve.residuals.scale
                init = sieve.filtered[t - h : t]
                # One fused convolution: the AR path, then the inverse filter.
                want = draw_lfilter(fit.phi, e, init, d_f)
                assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max()


class TestBiasCorrect:
    def test_stub_estimator_identity(self, arfima_series, monkeypatch):
        stub_estimates(monkeypatch, lambda s: 0.123)
        cfg = BootstrapConfig(B=16, rng_stream=11)
        out = bias_correct(
            arfima_series, EstimatorSpec("lpr", 0), d_f=0.17, config=cfg,
        )
        assert_allclose(out.bias_hat, 0.123 - 0.17, rtol=0, atol=0)
        assert_allclose(out.d_tilde, 0.123 - out.bias_hat, rtol=0, atol=0)
        # exact bookkeeping identity
        assert out.d_tilde + out.bias_hat == out.d_hat
        assert abs(out.bias_hat - (out.draws.mean() - out.d_f)) <= 1e-12

    def test_repeatable(self, arfima_series):
        spec = EstimatorSpec("lpr", 1)
        d_hat = estimate(arfima_series, spec).d_hat
        a = bias_correct(arfima_series, spec, d_hat,
                         BootstrapConfig(B=32, rng_stream=13))
        b = bias_correct(arfima_series, spec, d_hat,
                         BootstrapConfig(B=32, rng_stream=13))
        assert np.array_equal(a.draws, b.draws)
        assert a.hpd == b.hpd

    def test_large_B_bias_estimates_agree(self, arfima_series):
        spec = EstimatorSpec("lpr", 1)
        d_hat = estimate(arfima_series, spec).d_hat
        a = bias_correct(arfima_series, spec, d_hat,
                         BootstrapConfig(B=2000, rng_stream=21))
        b = bias_correct(arfima_series, spec, d_hat,
                         BootstrapConfig(B=2000, rng_stream=22))
        bound = 4 * a.draws.std() / math.sqrt(2000)
        assert abs(a.bias_hat - b.bias_hat) <= bound

    @pytest.mark.parametrize("iterate", [False, True])
    def test_failed_draw_fails_the_pass(self, arfima_series, monkeypatch, iterate):
        # Draw 5 of pass k fails (k = 1 when iterating, else the only pass);
        # blocks of four draws put it in the second block of its pass. The
        # stub counts calls, so the pass runs on one thread; TestThreadedPass
        # covers a failure at two threads.
        B, k = 12, int(iterate)
        force_threads(monkeypatch, 1)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        seen = {"n": -1}  # call 0 is the point estimate on the data

        def stub(s):
            seen["n"] += 1
            return None if seen["n"] - 1 == k * B + 5 else 0.1

        stub_estimates(monkeypatch, stub)
        spec, cfg = EstimatorSpec("lpr", 0), BootstrapConfig(B=B, rng_stream=4)
        with pytest.raises(EstimationFailedError) as err:
            if iterate:
                iterate_bias_correct(arfima_series, spec, cfg, max_iter=3, fixed=True)
            else:
                bias_correct(arfima_series, spec, 0.1, cfg)
        assert str(err.value) == f"draw 5 of pass {k} failed: {est_mod._DEGENERATE}"
        assert seen["n"] == k * B + 8  # no block after the failed one is checked

    def test_two_consecutive_failures_abort(self, arfima_series, monkeypatch):
        calls = {"n": 0}

        def broken(s):
            calls["n"] += 1
            if calls["n"] == 1:  # point estimate on the data itself
                return 0.1
            return None

        stub_estimates(monkeypatch, broken)
        with pytest.raises(EstimationFailedError):
            bias_correct(
                arfima_series, EstimatorSpec("lpr", 0), 0.1,
                BootstrapConfig(B=12, rng_stream=4),
            )

    def test_nonfinite_prefilter_rejected(self, arfima_series):
        with pytest.raises(InvalidParameterError):
            bias_correct(arfima_series, EstimatorSpec("lpr", 0), np.nan,
                         BootstrapConfig(B=12, rng_stream=4))

    def test_non_integer_B_rejected(self):
        for B in (20.0, True):
            with pytest.raises(InvalidParameterError, match="B must be an integer"):
                BootstrapConfig(B=B)

    def test_unseeded_stream_rejected(self):
        # SeedSequence(None) would draw fresh OS entropy: no two runs agree.
        with pytest.raises(InvalidParameterError, match="rng_stream must be given"):
            BootstrapConfig(B=20, rng_stream=None)

    def test_unknown_innovation_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="innovation mode"):
            BootstrapConfig(B=20, innovation_mode="bogus")

    def test_bba1_bias_reduction_anchor(self):
        # LPR(0)-BBA(1) mean near 0.1558 (T=500, d=0, phi=0.6)
        spec = EstimatorSpec("lpr", 0)
        params = ArfimaParams(d=0.0, phi=0.6)
        vals = []
        for r in range(100):
            y = simulate_gaussian(params, 500, np.random.default_rng(40000 + r))
            d_hat = estimate(y, spec).d_hat
            cfg = BootstrapConfig(B=200,
                                  rng_stream=np.random.SeedSequence(41000 + r))
            vals.append(bias_correct(y, spec, d_hat, cfg).d_tilde)
        assert abs(np.mean(vals) - 0.1558) <= 0.033  # 3 MC standard errors


@pytest.fixture(scope="module")
def series_by_T():
    params = ArfimaParams(d=0.3, phi=0.5)
    return {
        T: simulate_gaussian(params, T, np.random.default_rng(T))
        for T in (100, 500, 2000)
    }


def record_draw_rows(monkeypatch, views=None):
    """Collect every block of bootstrap series that a pass builds.

    The blocks are collected in call order, so every pass runs on one
    thread and its blocks come in draw order. They share that thread's
    workspace, so each is stored as a copy; `views`, when given, also
    receives the blocks themselves.
    """
    force_threads(monkeypatch, 1)
    seen = []
    real = bmod._draw_rows

    def recording(*args):
        out = real(*args)
        seen.append(out.copy())
        if views is not None:
            views.append(out)
        return out

    monkeypatch.setattr(bmod, "_draw_rows", recording)
    return seen


def pass_rows(y, d_f, cfg, k, sieve=None):
    """Hand assembly of the B series of pass k from its two pass streams."""
    sieve = sieve or prefilter_sieve(y, d_f)
    T, h = y.size, sieve.fit.order
    rng = generator_at(cfg.rng_stream, k, 0)
    if cfg.innovation_mode == "parametric":
        eps = rng.standard_normal((cfg.B, T))
    else:
        eps = sieve.residuals.standardized[rng.integers(0, T, size=(cfg.B, T))]
    tau = np.zeros(cfg.B, dtype=int)
    if h:
        tau = generator_at(cfg.rng_stream, k, 1).integers(h, T + 1, size=cfg.B)
    return bmod._draw_rows(sieve, eps, tau, bmod._draw_spectra([sieve])[0])


def order_zero_sieve(y, d_f):
    w_f = apply_frac_filter(y, d_f)
    fit = ArFit(order=0, phi=[1.0], sigma2=1.0)
    return SieveFit(float(d_f), w_f, fit, ar_residuals(w_f, fit))


PREFILTER_ROWS = bmod._prefilter_rows


def fit_sieves_with(monkeypatch, build_sieve):
    """Fit the sieve of every pass by build_sieve(y, d_f), the default for prefilter_sieve."""
    if build_sieve is prefilter_sieve:
        monkeypatch.setattr(bmod, "_prefilter_rows", PREFILTER_ROWS)
    else:
        monkeypatch.setattr(bmod, "_prefilter_rows", lambda Y, d_fs: [
            build_sieve(y, d_f) for y, d_f in zip(Y, d_fs)])


def log_generator_at(monkeypatch):
    """Record the index path of every generator the bootstrap builds."""
    calls = []
    real = bmod.generator_at

    def logged(stream, *path):
        calls.append(path)
        return real(stream, *path)

    monkeypatch.setattr(bmod, "generator_at", logged)
    return calls


class TestBatchedDraws:
    @pytest.mark.parametrize("T", [100, 500, 2000])
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    @pytest.mark.parametrize("family", ["lpr", "splw"])
    def test_matches_per_draw_estimates(self, series_by_T, family, mode, T,
                                        monkeypatch):
        y = series_by_T[T]
        cfg = BootstrapConfig(B=20, innovation_mode=mode, rng_stream=T + 1)
        want = pass_rows(y, 0.25, cfg, 0)
        seen = record_draw_rows(monkeypatch)
        for P in range(4):
            spec = EstimatorSpec(family, P)
            seen.clear()
            batched = bias_correct(y, spec, 0.25, cfg).draws
            assert np.array_equal(np.concatenate(seen), want)
            single = [estimate(row, spec).d_hat for row in want]
            assert np.max(np.abs(batched - single)) <= 1e-12

    @pytest.mark.parametrize(
        "spec", [EstimatorSpec("lpr", 1), EstimatorSpec("splw", 2)]
    )
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_block_size_does_not_change_results(self, arfima_series, spec, mode,
                                                monkeypatch):
        # B = 150 at T = 500: at most 65 draws per block, so three blocks,
        # made even at 50 draws each
        y = arfima_series
        cfg = BootstrapConfig(B=150, innovation_mode=mode, rng_stream=8)
        views = []
        seen = record_draw_rows(monkeypatch, views)
        default_block = bmod._BLOCK_VALUES
        for build_sieve in (prefilter_sieve, order_zero_sieve):  # h > 0, h = 0
            fit_sieves_with(monkeypatch, build_sieve)
            monkeypatch.setattr(bmod, "_BLOCK_VALUES", default_block)
            seen.clear()
            views.clear()
            default = bias_correct(y, spec, 0.2, cfg).draws
            default_rows = np.concatenate(seen)
            # One workspace per thread: every block is built in the first's.
            assert [len(block) for block in views] == [50, 50, 50]
            assert all(np.shares_memory(block, views[0]) for block in views[1:])
            assert np.array_equal(default, est_mod._estimate_rows(default_rows, spec)[0])
            sieve = build_sieve(y, 0.2)
            assert (sieve.fit.order == 0) == (build_sieve is order_zero_sieve)
            assert np.array_equal(default_rows, pass_rows(y, 0.2, cfg, 0, sieve))
            for block_values, blocks in ((1, cfg.B), (3 * y.size, cfg.B // 3)):
                seen.clear()
                monkeypatch.setattr(bmod, "_BLOCK_VALUES", block_values)
                draws = bias_correct(y, spec, 0.2, cfg).draws
                assert len(seen) == blocks
                assert np.array_equal(np.concatenate(seen), default_rows)
                assert np.array_equal(draws, default)

    @pytest.mark.parametrize("B, T, blocks", [
        (200, 500, [50] * 4),
        (201, 500, [51, 51, 51, 48]),
        (150, 500, [50] * 3),
        (400, 2000, [16] * 25),
        (40, 500, [40]),
    ])
    def test_blocks_are_even(self, series_by_T, monkeypatch, B, T, blocks):
        # At most _BLOCK_VALUES // T draws per block (65 at T = 500, 16 at
        # T = 2000), in the fewest blocks, all of them but the last of
        # ceil(B / blocks) draws.
        y = series_by_T[T]
        cfg = BootstrapConfig(B=B, rng_stream=B)
        views = []
        seen = record_draw_rows(monkeypatch, views)
        bias_correct(y, EstimatorSpec("lpr", 0), 0.2, cfg)
        assert [len(block) for block in views] == blocks
        assert np.array_equal(np.concatenate(seen), pass_rows(y, 0.2, cfg, 0))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_draws_are_solved_per_thread_in_bounded_calls(self, series_by_T,
                                                          monkeypatch, threads):
        # B = 400 at T = 2000: 25 blocks of 16 draws and N = 204 ordinates,
        # so a call solves at most 2**15 // 204 = 160 draws.
        y = series_by_T[2000]
        spec, cfg = EstimatorSpec("splw", 1), BootstrapConfig(B=400, rng_stream=2)
        force_threads(monkeypatch, 1)
        want = bias_correct(y, spec, 0.2, cfg).draws
        force_threads(monkeypatch, threads)
        calls = []
        real = bmod._estimate_ordinates

        def recording(ordinates, T, spec):
            calls.append((threading.get_ident(), ordinates.shape))
            return real(ordinates, T, spec)

        monkeypatch.setattr(bmod, "_estimate_ordinates", recording)
        draws = bias_correct(y, spec, 0.2, cfg).draws
        assert draws.tobytes() == want.tobytes()
        assert all(shape[0] * shape[1] <= bmod._BLOCK_VALUES for _, shape in calls)
        assert sum(shape[0] for _, shape in calls) == cfg.B
        if threads == 1:
            assert [shape for _, shape in calls] == [(160, 204), (160, 204), (80, 204)]
        for ident in {ident for ident, _ in calls}:
            rows = [shape[0] for i, shape in calls if i == ident]
            assert all(r == 160 for r in rows[:-1])  # every call full but the last

    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_first_attempt_uses_two_streams_per_pass(self, arfima_series, mode,
                                                     monkeypatch):
        calls = log_generator_at(monkeypatch)
        seen = record_draw_rows(monkeypatch)
        cfg = BootstrapConfig(B=40, innovation_mode=mode, rng_stream=15)
        trace = iterate_bias_correct(
            arfima_series, EstimatorSpec("lpr", 1), cfg, max_iter=3, fixed=True,
        )
        assert calls == [(k, s) for k in range(3) for s in (0, 1)]
        # pass k is pre-filtered by the value it corrects
        for rec, rows in zip(trace.records, list(seen)):
            want = pass_rows(arfima_series, rec.d_current, cfg, rec.k)
            assert np.array_equal(rows, want)

    def test_pass_stream_keys_are_distinct(self):
        design = McDesign(
            T_values=(64,), d_values=(0.0, 0.2), phi_values=(0.3,), R=3,
            estimators=(parse_estimator_token("lpr0-bba2"),
                        parse_estimator_token("splw1-ssr")),
            B=12, max_iter=4, seed=2026,
        )
        passes, others = set(), set()
        for cell, _ in design.cells():
            for r in range(design.R):
                others.add(simulation_stream(design.seed, cell, r).spawn_key)
                for ti in range(len(design.estimators)):
                    task = task_stream(design.seed, cell, r, ti)
                    others.add(task.spawn_key)
                    for k in range(design.max_iter):
                        passes.update(substream(task, k, s).spawn_key for s in (0, 1))
        count = design.R * 2 * len(design.estimators) * design.max_iter * 2
        assert len(passes) == count
        assert passes.isdisjoint(others)


def trace_values(trace):
    """Every number of an iterative correction, for exact comparison."""
    first = trace.outcomes[0]
    return (
        [vars(rec) for rec in trace.records], trace.final, trace.stop_reason,
        first.draws.tobytes(), first.bias_hat, first.hpd,
    )


def record_threads(monkeypatch, wait=None):
    """Record the thread that builds each block; `wait(ident)` runs first."""
    idents = []
    real = bmod._draw_rows

    def recording(*args):
        idents.append(threading.get_ident())
        if wait is not None:
            wait(idents[-1])
        return real(*args)

    monkeypatch.setattr(bmod, "_draw_rows", recording)
    return idents


class TestThreadedPass:
    @pytest.mark.parametrize(
        "spec", [EstimatorSpec("lpr", 1), EstimatorSpec("splw", 2)]
    )
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_threads_do_not_change_values(self, arfima_series, spec, mode,
                                          monkeypatch):
        # Blocks of four draws and B = 18: five blocks, the last of two.
        # Three threads outnumber the cores of a small machine, and a short
        # switch interval interleaves them often.
        y = arfima_series
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * y.size)
        cfg = BootstrapConfig(B=18, innovation_mode=mode, rng_stream=31)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for build_sieve in (prefilter_sieve, order_zero_sieve):  # h > 0, h = 0
                fit_sieves_with(monkeypatch, build_sieve)
                results = []
                for threads in (1, 2, 3):
                    force_threads(monkeypatch, threads)
                    one = bias_correct(y, spec, 0.2, cfg)
                    trace = iterate_bias_correct(y, spec, cfg, max_iter=3)
                    results.append((one.draws.tobytes(), one.hpd, one.bias_hat,
                                    trace_values(trace)))
                assert results[1] == results[0]
                assert results[2] == results[0]
        finally:
            sys.setswitchinterval(interval)
        assert results[0][0] == est_mod._estimate_rows(
            pass_rows(y, 0.2, cfg, 0, order_zero_sieve(y, 0.2)), spec
        )[0].tobytes()

    def test_two_threads_run_blocks_at_once(self, arfima_series, monkeypatch):
        # Each of the first two blocks waits for the other, so the pass
        # finishes only when two threads build blocks at the same time.
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        barrier = threading.Barrier(2, timeout=30)
        idents = record_threads(
            monkeypatch, lambda ident: len(idents) <= 2 and barrier.wait()
        )
        before = threading.active_count()
        spec, cfg = EstimatorSpec("lpr", 0), BootstrapConfig(B=16, rng_stream=3)
        bias_correct(arfima_series, spec, 0.1, cfg)
        assert len(idents) == 4
        assert len(set(idents)) == 2 and threading.get_ident() in idents
        assert threading.active_count() == before

    def test_single_block_runs_on_one_thread(self, arfima_series, monkeypatch):
        # T = 500 and B = 40: one block of 40 draws.
        force_threads(monkeypatch, 3)
        before = threading.active_count()
        counts = []
        idents = record_threads(
            monkeypatch, lambda ident: counts.append(threading.active_count())
        )
        bias_correct(arfima_series, EstimatorSpec("lpr", 0), 0.1,
                     BootstrapConfig(B=40, rng_stream=3))
        assert idents == [threading.get_ident()]
        assert counts == [before]

    @pytest.mark.parametrize("iterate", [False, True])
    def test_failure_names_first_failed_draw(self, arfima_series, monkeypatch,
                                             iterate):
        # Draws 5 and 9 of pass k fail, in the second and third blocks of
        # four. The stub knows them by their values, since at two threads
        # the blocks are checked in no fixed order. Draw 5 waits until
        # draw 9 has failed, so the later draw's failure comes first.
        B, k = 12, int(iterate)
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        cfg = BootstrapConfig(B=B, rng_stream=4)
        # Every other estimate is 0.25, a mean without rounding, so every
        # pass is pre-filtered by 0.25.
        rows = pass_rows(arfima_series, 0.25, cfg, k)
        draw5, draw9 = rows[5].tobytes(), rows[9].tobytes()
        draw9_failed = threading.Event()

        def stub(s):
            if s.tobytes() == draw9:
                draw9_failed.set()
                return None
            if s.tobytes() == draw5:
                assert draw9_failed.wait(timeout=30)
                time.sleep(0.05)  # the block of draw 9 records its failure
                return None
            return 0.25

        stub_estimates(monkeypatch, stub)
        spec = EstimatorSpec("lpr", 0)
        with pytest.raises(EstimationFailedError) as err:
            if iterate:
                iterate_bias_correct(arfima_series, spec, cfg, max_iter=3, fixed=True)
            else:
                bias_correct(arfima_series, spec, 0.25, cfg)
        assert str(err.value) == f"draw 5 of pass {k} failed: {est_mod._DEGENERATE}"
        assert draw9_failed.is_set()

    def test_failure_stops_the_hand_out(self, arfima_series, monkeypatch):
        # 100 blocks of two draws, and draw 3 fails: a pass that went on
        # handing out blocks would build all 100.
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 2 * arfima_series.size)
        cfg = BootstrapConfig(B=200, rng_stream=4)
        draw3 = pass_rows(arfima_series, 0.25, cfg, 0)[3].tobytes()
        stub_estimates(monkeypatch, lambda s: None if s.tobytes() == draw3 else 0.25)
        idents = record_threads(monkeypatch)
        with pytest.raises(EstimationFailedError, match="draw 3 of pass 0"):
            bias_correct(arfima_series, EstimatorSpec("lpr", 0), 0.25, cfg)
        assert len(idents) < 50

    @pytest.mark.parametrize("raiser", ["helper", "caller"])
    def test_exception_reaches_caller_after_join(self, arfima_series,
                                                 monkeypatch, raiser):
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        barrier = threading.Barrier(2, timeout=30)
        main = threading.get_ident()

        def wait(ident):
            if len(idents) <= 2:
                barrier.wait()
                if (ident == main) == (raiser == "caller"):
                    raise RuntimeError(f"raised in the {raiser}")

        idents = record_threads(monkeypatch, wait)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"raised in the {raiser}"):
            bias_correct(arfima_series, EstimatorSpec("lpr", 0), 0.1,
                         BootstrapConfig(B=16, rng_stream=3))
        assert threading.active_count() == before

    def test_nonparametric_innovations_wait_for_the_fit(self, arfima_series,
                                                        monkeypatch):
        # The residuals they resample come from the fit, so no block draws
        # before it returns, however long it takes.
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        returned = threading.Event()
        calls = []
        real_innovations, real_fit = bmod._innovations, bmod._prefilter_rows

        def innovations(*args):
            calls.append(returned.is_set())
            real_innovations(*args)

        def fit(*args):
            time.sleep(0.05)
            sieve = real_fit(*args)
            returned.set()
            return sieve

        monkeypatch.setattr(bmod, "_innovations", innovations)
        monkeypatch.setattr(bmod, "_prefilter_rows", fit)
        cfg = BootstrapConfig(B=16, innovation_mode="nonparametric", rng_stream=3)
        bias_correct(arfima_series, EstimatorSpec("lpr", 0), 0.1, cfg)
        assert calls == [True] * 4

    def test_failed_fit_reaches_caller_without_a_draw(self, arfima_series,
                                                      monkeypatch):
        # The sieves are fitted before any thread starts or any innovation
        # is drawn, so an error of the fit reaches the caller at once.
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        calls = []
        real_innovations = bmod._innovations

        def innovations(*args):
            calls.append(args)
            real_innovations(*args)

        def fit(*args):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(bmod, "_innovations", innovations)
        monkeypatch.setattr(bmod, "_prefilter_rows", fit)
        idents = record_threads(monkeypatch)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fit failed"):
            bias_correct(arfima_series, EstimatorSpec("lpr", 0), 0.1,
                         BootstrapConfig(B=16, rng_stream=3))
        assert idents == [] and calls == []
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_pass_runs_when_no_helper_starts(self, arfima_series, monkeypatch,
                                             mode):
        # A thread that cannot be started (RuntimeError from start) leaves
        # the pass to the calling thread.
        class NoStart(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        no_threads = types.ModuleType("threading")
        no_threads.__dict__.update(vars(threading))
        no_threads.Thread = NoStart
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        spec = EstimatorSpec("splw", 1)
        cfg = BootstrapConfig(B=18, innovation_mode=mode, rng_stream=5)
        force_threads(monkeypatch, 1)
        want = bias_correct(arfima_series, spec, 0.2, cfg).draws
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "threading", no_threads)
        idents = record_threads(monkeypatch)
        before, cpus = threading.active_count(), bmod._allowed_cpus()
        draws = bias_correct(arfima_series, spec, 0.2, cfg).draws
        assert draws.tobytes() == want.tobytes()
        assert set(idents) == {threading.get_ident()} and len(idents) == 5
        assert threading.active_count() == before
        assert bmod._allowed_cpus() == cpus

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (16, 2)])
    def test_thread_count_is_capped(self, arfima_series, monkeypatch, cpus,
                                    threads):
        # A pass uses one workspace per thread, so many CPUs must not
        # multiply its working memory. A mask naming CPUs that the machine
        # may lack does not fail a round or change its values.
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        args = (arfima_series, EstimatorSpec("splw", 1), 0.2,
                BootstrapConfig(B=16, rng_stream=5))
        want = bias_correct(*args).draws
        real = bmod._allowed_cpus()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        try:
            assert bmod._pass_threads(bmod._allowed_cpus()) == threads
            assert bias_correct(*args).draws.tobytes() == want.tobytes()
        finally:
            if real is not None:  # the round gave this thread the fake mask back
                os.sched_setaffinity(0, real)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count threads")
    @pytest.mark.parametrize("preset", [None, "4"])
    def test_import_pins_openblas(self, preset):
        # Unset, numpy loads with OpenBLAS at one thread, so it starts no
        # worker thread, and the variable is gone again, so subprocesses
        # do not inherit it. A preset value is left alone.
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        src = os.path.dirname(os.path.dirname(bmod.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import os; before = len(os.listdir('/proc/self/task'))\n"
            "import longmem, numpy\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
            " len(os.listdir('/proc/self/task')) - before, 'numpy' in vars(longmem))"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True, check=True)
        variable, started, has_numpy = done.stdout.split()
        assert variable == str(preset)
        assert has_numpy == "False"
        if preset is None:
            assert started == "0"


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two allowed CPUs and sched_setaffinity",
)


class TestPlacement:
    """One share rule places a round's threads, each on its own CPUs, and
    placement that cannot be made leaves the round as it was."""

    # spec, d_f and config of a bc-single-shaped pass
    PASS = (EstimatorSpec("splw", 1), 0.2,
            BootstrapConfig(B=16, innovation_mode="nonparametric", rng_stream=5))

    def placed_pass(self, series, monkeypatch, seen, raiser=None):
        """The draws of a two-thread SPLW(1) nonparametric pass of four
        blocks, in which both threads build a block at once.

        Appends to `seen` the thread and its allowed CPUs at each block it
        builds. `raiser` ("caller" or "helper") raises a RuntimeError in
        that thread's first block.
        """
        force_threads(monkeypatch, 2)
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * series.size)
        barrier = threading.Barrier(2, timeout=30)
        main = threading.get_ident()

        def wait(ident):
            seen.append((ident, bmod._allowed_cpus()))
            if len(idents) <= 2:
                barrier.wait()
                if raiser is not None and (ident == main) == (raiser == "caller"):
                    raise RuntimeError(f"raised in the {raiser}")

        idents = record_threads(monkeypatch, wait)
        return bias_correct(series, *self.PASS).draws

    @staticmethod
    def by_thread(seen):
        """The CPUs of `seen` of this thread, and those of the helper."""
        main = threading.get_ident()
        caller = [cpus for ident, cpus in seen if ident == main]
        helper = [cpus for ident, cpus in seen if ident != main]
        assert caller and helper
        return caller, helper

    def test_shares(self):
        assert bmod._shares({5, 1, 3}, 1) == [{1, 3, 5}]
        assert bmod._shares({0, 1, 2, 3, 4}, 2) == [{0, 2, 4}, {1, 3}]
        assert bmod._shares({0, 1, 2}, 3) == [{0}, {1}, {2}]
        assert bmod._shares(None, 2) == [None, None]
        assert bmod._shares({0, 1}, 3) == [None, None, None]

    @pytest.mark.parametrize("broken", ["cpus None", "no setaffinity", "setaffinity raises"])
    def test_place_leaves_an_unplaceable_thread_as_it_was(self, monkeypatch, broken):
        before, calls = bmod._allowed_cpus(), []
        cpus = {min(before)} if before else {0}
        if broken == "cpus None":
            monkeypatch.setattr(os, "sched_setaffinity",
                                lambda pid, mask: calls.append(mask), raising=False)
            cpus = None
        elif broken == "no setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            def refuse(pid, mask):
                raise OSError(22, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        bmod._place(cpus)
        assert calls == []
        assert bmod._allowed_cpus() == before

    @needs_two_cpus
    @pytest.mark.parametrize("raiser", [None, "caller", "helper"],
                             ids=["returns", "caller raises", "helper raises"])
    def test_threads_run_on_different_cpus(self, arfima_series, monkeypatch,
                                           raiser):
        # This thread runs only on share 0 of its CPUs and the helper only
        # on share 1; this thread gets its affinity back, whether the
        # round returns or raises.
        before, seen = os.sched_getaffinity(0), []
        if raiser is None:
            self.placed_pass(arfima_series, monkeypatch, seen)
        else:
            with pytest.raises(RuntimeError, match=f"raised in the {raiser}"):
                self.placed_pass(arfima_series, monkeypatch, seen, raiser)
        assert os.sched_getaffinity(0) == before
        caller, helper = self.by_thread(seen)
        first, second = bmod._shares(before, 2)
        assert caller == [first] * len(caller)
        assert helper == [second] * len(helper)

    @pytest.mark.parametrize("broken", ["no setaffinity", "setaffinity raises"])
    def test_unplaced_round_gives_the_same_draws(self, arfima_series, monkeypatch,
                                                 broken):
        monkeypatch.setattr(bmod, "_BLOCK_VALUES", 4 * arfima_series.size)
        want = bias_correct(arfima_series, *self.PASS).draws  # placed if it can be
        before, seen = bmod._allowed_cpus(), []
        if broken == "no setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            def refuse(pid, cpus):
                raise OSError(22, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        draws = self.placed_pass(arfima_series, monkeypatch, seen)
        assert draws.tobytes() == want.tobytes()
        caller, helper = self.by_thread(seen)
        assert caller + helper == [before] * len(seen)
        assert bmod._allowed_cpus() == before


SEEDS = (41, 42, 43)


def one_pass_units(series, d_fs, seeds=SEEDS, mode="parametric"):
    """Units of one pass of 130 draws (two blocks at T = 500) each."""
    spec = EstimatorSpec("splw", 1)
    return [bmod._Unit(y, spec, BootstrapConfig(B=130, innovation_mode=mode, rng_stream=seed),
                       bmod._one_pass(d_f))
            for y, d_f, seed in zip(series, d_fs, seeds)]


class TestRounds:
    """Units run together in a round fail alone and give their values alone."""

    @staticmethod
    def series():
        return [simulate_gaussian(ArfimaParams(d=0.2, phi=0.3), 500, np.random.default_rng(s))
                for s in (1, 2, 3)]

    @staticmethod
    def assert_as_alone(got, series, d_fs, mode="parametric"):
        """Units 0 and 2 of a round give the draws that they give alone."""
        for j in (0, 2):
            [unit] = one_pass_units([series[j]], [d_fs[j]], [SEEDS[j]], mode)
            assert got[j].tobytes() == bmod._run_alone(unit).tobytes()

    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_boundary_fit_fails_its_unit_alone(self, monkeypatch, mode):
        # The middle unit's filtered series alternates, so its Burg
        # reflection at order 1 is exactly 1.
        force_threads(monkeypatch, 2)
        series, d_fs = self.series(), (0.2, 0.0, 0.3)
        series[1] = (-1.0) ** np.arange(500)
        got = bmod._run_rounds(one_pass_units(series, d_fs, mode=mode))
        assert isinstance(got[1], NumericalDegeneracyError)
        assert str(got[1]) == "Burg reflection coefficient hit the unit boundary at order 1"
        self.assert_as_alone(got, series, d_fs, mode)

    def test_failed_draw_fails_its_unit_alone(self, monkeypatch):
        # Draw 68, in the second block (draws 65..129) of the middle unit,
        # is not finite. The other units' blocks are all built.
        force_threads(monkeypatch, 2)
        series, d_fs = self.series(), (0.2, 0.25, 0.3)
        units = one_pass_units(series, d_fs)
        real = bmod._innovations
        calls = []

        def innovations(config, sieve, rng, out):
            real(config, sieve, rng, out)
            calls.append(config)
            if config is units[1].config and calls.count(config) == 2:
                out[3] = np.nan

        monkeypatch.setattr(bmod, "_innovations", innovations)
        got = bmod._run_rounds(units)
        assert str(got[1]) == f"draw 68 of pass 0 failed: {est_mod._DEGENERATE}"
        assert len(calls) == 6
        monkeypatch.setattr(bmod, "_innovations", real)
        self.assert_as_alone(got, series, d_fs)

    def test_exception_in_a_block_reaches_caller_after_join(self, monkeypatch):
        # Building any block of the middle unit raises: the hand-out stops,
        # and the exception reaches the caller once every thread is joined.
        force_threads(monkeypatch, 2)
        real = bmod._draw_rows
        built = []

        def draw_rows(sieve, *args):
            built.append(sieve.d_f)
            if sieve.d_f == 0.25:
                raise RuntimeError("block failed")
            return real(sieve, *args)

        monkeypatch.setattr(bmod, "_draw_rows", draw_rows)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            bmod._run_rounds(one_pass_units(self.series(), (0.2, 0.25, 0.3)))
        assert len(built) < 6
        assert threading.active_count() == before


class TestInputsUnchanged:
    """The draw kernels write in place; the public entry points copy first."""

    @pytest.mark.parametrize("d", [0.0, 0.3, -0.4])
    def test_apply_frac_filter(self, arfima_series, d):
        for y in (arfima_series, np.stack([arfima_series, arfima_series[::-1]])):
            before = y.tobytes()
            apply_frac_filter(y, d)
            assert y.tobytes() == before

    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_bias_corrections(self, arfima_series, mode):
        y = arfima_series.copy()
        spec, cfg = EstimatorSpec("splw", 1), BootstrapConfig(B=20, innovation_mode=mode)
        bias_correct(y, spec, 0.2, cfg)
        assert y.tobytes() == arfima_series.tobytes()
        iterate_bias_correct(y, spec, cfg, max_iter=2, fixed=True)
        assert y.tobytes() == arfima_series.tobytes()


class TestLevelAndScale:
    """The pre-filter removes the sample mean, so the level of y does not matter."""

    @staticmethod
    def numbers(y, mode):
        """Every number of the one-shot, free and fixed corrections of y."""
        spec = EstimatorSpec("lpr", 1)
        cfg = BootstrapConfig(B=40, innovation_mode=mode, rng_stream=3)
        one = bias_correct(y, spec, estimate(y, spec).d_hat, cfg)
        values = [one.d_hat, one.bias_hat, one.d_tilde, *one.hpd, *one.draws]
        reasons = []
        for trace in (iterate_bias_correct(y, spec, cfg),
                      iterate_bias_correct(y, spec, cfg, max_iter=2, fixed=True)):
            reasons.append((trace.stop_reason, len(trace.records)))
            values.append(trace.final)
            for rec in trace.records:
                values += [rec.bias_hat, rec.d_next, rec.crit1, rec.crit2]
        return np.array(values), reasons

    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    @pytest.mark.parametrize(
        "shift, scale", [(1.0, 1), (10.0, 1), (1e3, 1), (-1e6, 1), (0, 1e-3), (0, 1e3)]
    )
    def test_same_correction(self, arfima_series, mode, shift, scale):
        # y + c rounds each value by up to |c| 2**-53, about 1.1e-16 |c|, and
        # the bound lets the correction amplify that a thousandfold. Scaling
        # rounds each value relative to itself, so it takes the c = 0 bound.
        want, reasons = self.numbers(arfima_series, mode)
        got, got_reasons = self.numbers(arfima_series * scale + shift, mode)
        assert got_reasons == reasons
        assert np.abs(got - want).max() <= 1e-13 * (1 + abs(shift))


class TestStoppingThresholds:
    def test_reference_point(self):
        u = math.sqrt(math.pi ** 2 / 24)
        tau1, tau2 = stopping_thresholds(0, 77, 1000, u, P=0)
        z = norm.ppf(1 - 0.95 / 2)
        base = u * u / 77
        noise = u * u / (77 * 1000)
        assert_allclose(tau1, z * math.sqrt(base + noise), rtol=1e-12)
        assert_allclose(tau1, 0.004585, atol=5e-7)
        assert_allclose(tau2, z * math.sqrt(base * (2 + 1 / 1000)), rtol=1e-12)

    def test_variance_recursion(self):
        u, n, b = 0.8, 50, 100
        z1 = norm.ppf(1 - 0.9 / 2)  # p_1 = 0.9 for P = 0
        tau1, _ = stopping_thresholds(1, n, b, u, P=0)
        var1 = (2 * b + 1) * u * u / (n * b)
        assert_allclose(tau1, z1 * math.sqrt(var1 + u * u / (n * b)), rtol=1e-12)

    def test_p_schedule_values(self):
        # back the quantile out of tau2: P=0 gives p_2 = 0.05, P>=1 gives 0.025
        u, n, b = 1.0, 64, 200
        base = u * u / n
        scale = math.sqrt(base * (1 + 2.0 * (1 + 1 / b)))
        _, tau2_p0 = stopping_thresholds(2, n, b, u, P=0)
        _, tau2_p1 = stopping_thresholds(2, n, b, u, P=1)
        assert_allclose(tau2_p0 / scale, norm.ppf(1 - 0.05 / 2), rtol=1e-12)
        assert_allclose(tau2_p1 / scale, norm.ppf(1 - 0.025 / 2), rtol=1e-12)

    def test_quantiles_match_scipy(self):
        # Every continuation probability of the schedule, through tau2: the
        # quantiles agree within 1e-15, and the product with the (identical)
        # scale adds at most one more rounding.
        u, n, b = 1.0, 64, 200
        for P in (0, 1):
            for k in range(12):
                power = 2.0 ** (k - 1) if k >= 1 else 1.0
                scale = math.sqrt(u * u / n * (1.0 + power * (1.0 + 1.0 / b)))
                _, tau2 = stopping_thresholds(k, n, b, u, P)
                want = norm.ppf(1.0 - bmod._p_schedule(k, P) / 2.0) * scale
                assert abs(tau2 - want) <= (1e-15 + 2.0 ** -52) * want

    def test_infinite_B_limit(self):
        u = math.sqrt(math.pi ** 2 / 24)
        tau1, _ = stopping_thresholds(1, 77, math.inf, u, P=0)
        want = norm.ppf(0.55) * u * math.sqrt(2 / 77)
        assert_allclose(tau1, want, rtol=1e-12)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidParameterError, match="iteration index"):
            stopping_thresholds(-1, 77, 1000, 1.0, P=0)


class TestIterate:
    def test_immediate_stop_returns_corrected_value(self, arfima_series,
                                                    monkeypatch):
        monkeypatch.setattr(bmod, "stopping_thresholds",
                            lambda *a: (math.inf, math.inf))
        spec = EstimatorSpec("lpr", 1)
        cfg = BootstrapConfig(B=16, rng_stream=31)
        trace = iterate_bias_correct(arfima_series, spec, cfg, max_iter=5)
        assert trace.stop_reason == "rule1"
        rec = trace.records[0]
        assert trace.final == rec.d_current - rec.bias_hat

    def test_nests_one_shot_correction(self, arfima_series):
        # one fixed pass reproduces bias_correct at the point estimate exactly
        spec = EstimatorSpec("lpr", 1)
        one = bias_correct(
            arfima_series, spec, estimate(arfima_series, spec).d_hat,
            BootstrapConfig(B=24, rng_stream=33),
        )
        trace = iterate_bias_correct(
            arfima_series, spec, BootstrapConfig(B=24, rng_stream=33),
            max_iter=1, fixed=True,
        )
        assert trace.final == one.d_tilde
        assert np.array_equal(trace.outcomes[0].draws, one.draws)
        first = trace.outcomes[0]
        fields = ("d_f", "d_hat", "bias_hat", "d_tilde", "hpd")
        assert [getattr(first, f) for f in fields] == [getattr(one, f) for f in fields]

    def test_deterministic_window_discards_update(self, arfima_series,
                                                  monkeypatch):
        calls = {"n": 0}

        def stub(s):
            calls["n"] += 1
            return 0.2 if calls["n"] == 1 else -1.2

        stub_estimates(monkeypatch, stub)
        trace = iterate_bias_correct(
            arfima_series, EstimatorSpec("lpr", 0),
            BootstrapConfig(B=12, rng_stream=35),
        )
        # update would be 0.2 - (-1.2 - 0.2) = 1.6 >= 1.5
        assert trace.records[0].d_next == pytest.approx(1.6)
        assert trace.stop_reason == "deterministic"
        assert trace.final == 0.2

    def test_fixed_passes_ignore_rules_and_window(self, arfima_series,
                                                  monkeypatch):
        # Every update leaves the window and the thresholds would stop at
        # once; a fixed run still makes every pass.
        monkeypatch.setattr(bmod, "stopping_thresholds",
                            lambda *a: (math.inf, math.inf))
        stub_estimates(monkeypatch, lambda s: -1.2)
        trace = iterate_bias_correct(
            arfima_series, EstimatorSpec("lpr", 0),
            BootstrapConfig(B=12, rng_stream=35), max_iter=3, fixed=True,
        )
        assert [rec.stop_reason for rec in trace.records] == [None, None, "max-iter"]
        assert trace.stop_reason == "max-iter"
        assert trace.final == trace.records[-1].d_next
        assert [rec.tau1 for rec in trace.records] == [math.inf] * 3

    def test_zero_max_iter_rejected_before_any_estimate(self, arfima_series,
                                                        monkeypatch):
        forbid_estimates(monkeypatch)
        with pytest.raises(InvalidParameterError, match="max_iter must be >= 1"):
            iterate_bias_correct(arfima_series, EstimatorSpec("lpr", 0),
                                 BootstrapConfig(B=20, rng_stream=4), max_iter=0)

    def test_non_integer_max_iter_rejected_before_any_estimate(self, arfima_series,
                                                               monkeypatch):
        forbid_estimates(monkeypatch)
        for max_iter in (2.0, True):
            with pytest.raises(InvalidParameterError, match="max_iter must be an integer"):
                iterate_bias_correct(arfima_series, EstimatorSpec("lpr", 0),
                                     BootstrapConfig(B=20, rng_stream=4), max_iter=max_iter)

    @pytest.mark.parametrize("fixed", ["no", 0, 1, None])
    def test_non_bool_fixed_rejected_before_any_estimate(self, arfima_series,
                                                         monkeypatch, fixed):
        # "no" is truthy: it would run the fixed mode.
        forbid_estimates(monkeypatch)
        with pytest.raises(InvalidParameterError, match="fixed must be a bool"):
            iterate_bias_correct(arfima_series, EstimatorSpec("lpr", 0),
                                 BootstrapConfig(B=20, rng_stream=4), fixed=fixed)

    def test_max_iter_cap_reported(self, arfima_series):
        spec = EstimatorSpec("lpr", 1)
        trace = iterate_bias_correct(
            arfima_series, spec, BootstrapConfig(B=16, rng_stream=37),
            max_iter=3, fixed=True,
        )
        assert trace.stop_reason == "max-iter"
        assert len(trace.records) == 3
        N = bmod.bandwidth(arfima_series.size, spec.bandwidth_exponent, spec.P)
        upsilon = bmod.asymptotic_sd(spec, N) * math.sqrt(N)
        for rec in trace.records:
            assert rec.d_next == rec.d_current - rec.bias_hat
            # a fixed run still records the stopping rules' thresholds
            assert (rec.tau1, rec.tau2) == stopping_thresholds(rec.k, N, 16, upsilon, 1)

    def test_trace_reproduces_stop_reason(self):
        y = simulate_gaussian(ArfimaParams(d=0.2, phi=0.6), 300,
                              np.random.default_rng(17))
        spec = EstimatorSpec("splw", 1)
        trace = iterate_bias_correct(
            y, spec, BootstrapConfig(B=32, rng_stream=39), max_iter=6,
        )
        for rec in trace.records[:-1]:
            assert rec.crit1 > rec.tau1 and rec.crit2 > rec.tau2
        last = trace.records[-1]
        if trace.stop_reason == "rule1":
            assert last.crit1 <= last.tau1
        elif trace.stop_reason == "rule2":
            assert last.crit1 > last.tau1 and last.crit2 <= last.tau2
        elif trace.stop_reason == "deterministic":
            assert not (-1.0 <= last.d_next < 1.5)
        else:
            assert trace.stop_reason == "max-iter"
            assert last.crit1 > last.tau1 and last.crit2 > last.tau2


class TestHpd:
    def test_equal_draws_zero_width(self):
        lo, hi = hpd_interval(np.full(20, 0.3), d_hat=0.5)
        assert lo == hi  # exactly zero width
        assert lo == pytest.approx(0.5, abs=1e-12)

    def test_uniform_grid_window(self):
        draws = np.arange(1.0, 101.0)
        lo, hi = hpd_interval(draws, d_hat=0.0)
        # six candidate windows, all equal width; the first is chosen:
        # centered values run -49.5..49.5, window [-49.5, 44.5]
        assert_allclose((lo, hi), (-44.5, 49.5))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            B = int(rng.integers(10, 1001))
            draws = rng.standard_normal(B) * rng.uniform(0.5, 2.0)
            if rng.uniform() < 0.3:  # occasional ties
                draws = np.round(draws, 1)
            got = hpd_interval(draws, 0.37)
            want = hpd_window_exhaustive(draws, 0.37, 0.025, 0.025)
            assert got == want

    def test_window_size_is_exact_ceiling(self):
        # On evenly spaced draws every window of m order statistics has
        # width m - 1, so the interval's width reads m exactly. 0.95 B is
        # at least 0.05 from an integer unless B is a multiple of 20, so
        # only there could a float form of ceil(0.95 B) land on the wrong
        # side; every B up to 2000 and every multiple of 20 to 100000 is
        # checked.
        for B in [*range(10, 2001), *range(2020, 100001, 20)]:
            lo, hi = hpd_interval(np.arange(float(B)), 0.0)
            assert hi - lo == -(-95 * B // 100) - 1, B

    def test_mass_guarantee(self):
        rng = np.random.default_rng(23)
        draws = rng.standard_normal(500)
        lo, hi = hpd_interval(draws, 0.0)
        centered = draws - draws.mean()
        inside = np.sum((centered >= -hi) & (centered <= -lo))
        assert inside >= math.ceil(0.95 * 500)

    def test_too_few_draws_rejected(self):
        with pytest.raises(InvalidParameterError):
            hpd_interval(np.arange(5.0), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_rejected(self, bad):
        draws = np.arange(20.0)
        draws[7] = bad
        with pytest.raises(InvalidParameterError, match="draws must be finite"):
            hpd_interval(draws, 0.0)

    @pytest.mark.parametrize("d_hat", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_rejected(self, d_hat):
        with pytest.raises(InvalidParameterError, match="d_hat must be finite"):
            hpd_interval(np.arange(20.0), d_hat)

    @pytest.mark.parametrize("shape", [(20, 2), (2, 20), (1, 20)])
    def test_draws_of_more_dimensions_rejected(self, shape):
        draws = np.arange(40.0)[: math.prod(shape)].reshape(shape)
        with pytest.raises(InvalidParameterError, match="one-dimensional"):
            hpd_interval(draws, 0.0)

    @pytest.mark.parametrize("B", [2, 5, 9])
    @pytest.mark.parametrize("iterate", [False, True])
    def test_too_few_draws_rejected_before_any_estimate(self, arfima_series,
                                                        monkeypatch, B, iterate):
        # Every pass builds an HPD interval, which needs ten draws; the
        # config itself refuses fewer, so neither entry point starts.
        forbid_estimates(monkeypatch)
        spec = EstimatorSpec("lpr", 0)
        with pytest.raises(InvalidParameterError, match="at least B = 10"):
            cfg = BootstrapConfig(B=B, rng_stream=4)
            if iterate:
                iterate_bias_correct(arfima_series, spec, cfg)
            else:
                bias_correct(arfima_series, spec, 0.1, cfg)
