import multiprocessing
import os
import sys
import threading
import time
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import longmem.bootstrap as bmod
import longmem.harness as hmod
from longmem import (
    ArfimaParams,
    BootstrapConfig,
    EstimationFailedError,
    EstimatorSpec,
    EstimatorTask,
    InvalidDesignError,
    InvalidParameterError,
    McDesign,
    bias_correct,
    emit_tables,
    estimate,
    iterate_bias_correct,
    parse_estimator_token,
    read_results_csv,
    run_design,
    simulate_gaussian,
)
from longmem.harness import _KEYS, load_design, simulation_stream, task_stream
from longmem.streams import generator_at


def small_design(**kw):
    base = dict(
        T_values=(64,),
        d_values=(0.0, 0.2),
        phi_values=(0.3,),
        R=3,
        estimators=(parse_estimator_token("lpr0"),
                    parse_estimator_token("splw0-ssr")),
        B=20,
        seed=11,
    )
    base.update(kw)
    return McDesign(**base)


def task_trace(y, task, design, stream):
    """The IterationTrace of one bootstrap task on y, run alone."""
    return bmod._run_alone(hmod._task_unit(y, task, design, stream))


def run_task(y, task, design, stream):
    """One bootstrap task on y, run alone: (point, HPD interval, deterministic stop)."""
    trace = task_trace(y, task, design, stream)
    return (
        trace.d_initial if task.correction == "none" else trace.final,
        trace.outcomes[0].hpd if task.hpd else None,
        trace.stop_reason == "deterministic",
    )


def assert_layout_free(monkeypatch, design, want):
    """Stats equal `want` with one cell per job and all of a T's cells per job."""
    per_T = len(design.d_values) * len(design.phi_values)
    for budget, cells_per_job in ((1, 1), (2 ** 40, per_T)):
        monkeypatch.setattr(hmod, "_JOB_VALUES", budget)
        assert {len(job[2]) for job in hmod._jobs(design)} == {cells_per_job}
        for threads in (1, 2, 3):
            assert [res.stats for res in run_design(design, threads)] == want


class TestTokens:
    @pytest.mark.parametrize(
        "token, name",
        [
            ("lpr0", "LPR(0)"),
            ("splw2-ssr", "SPLW(2)-SSR"),
            ("lpr1-bba2", "LPR(1)-BBA(2)"),
            ("lpr1-bba1-hpd", "LPR(1)-BBA(1)+HPD"),
            ("splw0-hpd", "SPLW(0)+HPD"),
        ],
    )
    def test_round_trip_names(self, token, name):
        assert parse_estimator_token(token).name == name

    @pytest.mark.parametrize("token", [
        "ols0", "lpr", "lpr1-bbaX", "lpr1-foo",
        "splw0-bba2-ssr", "lpr1-ssr-bba2", "lpr1-bba1-bba3", "lpr1-hpd-hpd",
        "lpr7", "lpr99", "splw4",
    ])
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(InvalidParameterError):
            parse_estimator_token(token)

    @pytest.mark.parametrize(
        "args",
        [("lpr", 0, "x"), ("lpr", 0, "bba", 0), ("lpr", 0, "bba", 2.5),
         ("lpr", 0, "bba", True), ("ols", 0), ("lpr", 4), ("lpr", 1.0)],
        ids=["correction", "bba_K", "K_float", "K_bool", "family", "P", "P_float"],
    )
    def test_bad_tasks_rejected(self, args):
        with pytest.raises(InvalidParameterError):
            EstimatorTask(*args)


class TestDesign:
    def test_bootstrap_tasks_need_B(self):
        with pytest.raises(InvalidDesignError):
            small_design(B=0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mode="bogus"),
            dict(T_values=(6,)),
            dict(bandwidth_exponent=1.5),
            dict(B=5, estimators=(parse_estimator_token("lpr1-hpd"),)),
            # P = 7 makes no task at all; P = 2 needs 4 frequencies, T = 8 has 3.
            dict(T_values=(8,), estimators=(parse_estimator_token("lpr2"),)),
            dict(d_values=(0.2, 0.5)),
            dict(max_iter=0),
            dict(B=5, estimators=(parse_estimator_token("lpr0-bba1"),)),
            dict(B=9, estimators=(parse_estimator_token("splw1-ssr"),)),
            dict(seed=-1),
            dict(seed=None),
            dict(seed=True),
            dict(T_values=()),
            dict(d_values=()),
            dict(phi_values=()),
            dict(R=0),
        ],
        ids=["mode", "T", "bandwidth_exp", "hpd_B", "P", "d", "max_iter",
             "bba_B", "ssr_B", "seed", "seed_none", "seed_bool", "no_T", "no_d",
             "no_phi", "R"],
    )
    def test_infeasible_design_rejected(self, bad):
        with pytest.raises(InvalidDesignError):
            small_design(**bad)

    @pytest.mark.parametrize(
        "bad, name",
        [(dict(R=2.0), "R"), (dict(B=20.0), "B"), (dict(max_iter=2.0), "max_iter"),
         (dict(T_values=(64.7,)), "T"), (dict(T_values=(64, 100.0)), "T")],
        ids=["R", "B", "max_iter", "T", "T_float"],
    )
    def test_non_integer_counts_rejected(self, bad, name):
        # A float count is refused, not truncated or left to fail mid-run.
        with pytest.raises(InvalidDesignError, match=f"^{name} must be an integer"):
            small_design(**bad)

    def test_numpy_integer_counts_accepted(self):
        design = small_design(T_values=(np.int64(64),), R=np.int64(3), B=np.int32(20))
        assert design.T_values == (64,) and type(design.T_values[0]) is int

    @pytest.mark.parametrize(
        "bad, what",
        [
            (dict(T_values=(64, 100, 64)), "T"),
            (dict(d_values=(0.0, 0.2, 0.0)), "d"),
            (dict(phi_values=(0.3, 0.3)), "phi"),
            (dict(estimators=(parse_estimator_token("lpr0"),
                              parse_estimator_token("lpr0"))), "task"),
        ],
        ids=["T", "d", "phi", "task"],
    )
    def test_repeated_values_rejected(self, bad, what):
        with pytest.raises(InvalidDesignError, match=f"repeated {what} "):
            small_design(**bad)

    def test_cells_enumerated_lexicographically(self):
        design = small_design(T_values=(64, 128), phi_values=(0.3, 0.6))
        cells = design.cells()
        assert cells[0] == (0, (64, 0.0, 0.3))
        assert cells[-1] == (7, (128, 0.2, 0.6))


class TestRunDesign:
    @pytest.mark.parametrize("threads", [0, -1, 2.5, 1.0, True, None])
    def test_bad_thread_count_rejected_before_any_job(self, monkeypatch, threads):
        # A one-job design runs in this process at any count, so nothing
        # else would refuse these.
        design = small_design()
        assert len(hmod._jobs(design)) == 1
        monkeypatch.setattr(hmod, "_block_worker", pytest.fail)
        with pytest.raises(InvalidParameterError, match="threads must be"):
            run_design(design, threads)

    def test_single_replication_matches_hand_pipeline(self):
        design = McDesign(
            T_values=(64,), d_values=(0.2,), phi_values=(0.3,), R=1,
            estimators=(parse_estimator_token("lpr1-bba1"),), B=24, seed=7,
        )
        res = run_design(design)
        y = simulate_gaussian(
            ArfimaParams(d=0.2, phi=0.3), 64, generator_at(7, 0, 0, 0)
        )
        spec = EstimatorSpec("lpr", 1)
        cfg = BootstrapConfig(B=24, rng_stream=task_stream(7, 0, 0, 0))
        trace = iterate_bias_correct(y, spec, cfg, max_iter=1, fixed=True)
        assert res[0].stats["bias"] == trace.final - 0.2
        assert res[0].R_effective == 1

    def test_stub_estimator_degenerate_grid(self, monkeypatch):
        # an estimator that returns the true d exactly: zero bias and MSE,
        # full coverage from any nonzero-width interval
        monkeypatch.setattr(
            hmod, "_estimate_rows",
            lambda Y, spec: (np.full(len(Y), 0.2), np.ones(len(Y), bool),
                             np.zeros(len(Y), bool)),
        )
        design = McDesign(
            T_values=(64,), d_values=(0.2,), phi_values=(0.3,), R=4,
            estimators=(parse_estimator_token("lpr0"),), seed=3,
        )
        res = run_design(design)[0]
        assert res.stats["bias"] == 0.0
        assert res.stats["mse"] == 0.0
        assert res.stats["asym_coverage"] == 1.0
        assert res.stats["asym_length"] > 0.0

    def test_worker_count_does_not_change_results(self, tmp_path):
        design = small_design()
        res1 = run_design(design, threads=1)
        res2 = run_design(design, threads=2)
        p1 = emit_tables(res1, "csv", str(tmp_path / "a.csv"))
        p2 = emit_tables(res2, "csv", str(tmp_path / "b.csv"))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_estimators_share_series(self):
        # an HPD task's point is the plain estimate on the same series:
        # identical point stats
        design = small_design(
            estimators=(parse_estimator_token("lpr0"),
                        parse_estimator_token("lpr0-hpd")),
        )
        res = run_design(design)
        assert res[0].stats["bias"] == res[1].stats["bias"]
        assert res[0].stats["mse"] == res[1].stats["mse"]

    def test_failures_excluded_and_counted(self, monkeypatch):
        real = hmod._estimate_rows

        def sometimes(Y, spec):
            values, ok, boundary = real(Y, spec)
            values[1], ok[1] = np.nan, False  # synthetic failure, as _estimate_rows reports one
            return values, ok, boundary

        monkeypatch.setattr(hmod, "_estimate_rows", sometimes)
        design = McDesign(
            T_values=(64,), d_values=(0.0,), phi_values=(0.3,), R=3,
            estimators=(parse_estimator_token("lpr0"),), seed=13,
        )
        res = run_design(design)[0]
        assert res.R_effective == 2
        assert res.stats["n_failed"] == 1.0

    def test_failed_draw_fails_only_its_task(self, monkeypatch):
        # The pass of replication 1 loses one draw: that BBA task is counted
        # as failed, and the plain task on the same series is untouched.
        design = McDesign(
            T_values=(64,), d_values=(0.2,), phi_values=(0.3,), R=3,
            estimators=(parse_estimator_token("lpr0"),
                        parse_estimator_token("lpr0-bba1")),
            B=12, seed=13,
        )
        clean = run_design(design)
        real = bmod._ordinates
        passes = {"n": 0}

        def failing(ystar, N, *buffers):
            ordinates = real(ystar, N, *buffers)
            passes["n"] += 1
            if passes["n"] == 2:  # one block per pass, one pass per replication
                ordinates[3] = np.nan
            return ordinates

        # The wrapper counts calls, so the job's round of three bootstrap
        # units runs in order on one thread; TestUnitThreads covers more
        # threads.
        monkeypatch.setattr(bmod, "_pass_threads", lambda cpus: 1)
        monkeypatch.setattr(bmod, "_ordinates", failing)
        plain, bba = run_design(design)
        assert passes["n"] == design.R
        assert (plain.stats, plain.R_effective) == (clean[0].stats, 3)
        assert (bba.R_effective, bba.stats["n_failed"]) == (2, 1.0)
        points = []
        for r in (0, 2):
            rng = np.random.default_rng(simulation_stream(13, 0, r))
            y = simulate_gaussian(ArfimaParams(d=0.2, phi=0.3), 64, rng)
            point, _, _ = run_task(y, bba.task, design, task_stream(13, 0, r, 1))
            points.append(point)
        assert bba.stats["bias"] == float(np.mean(np.array(points) - 0.2))
        # One job holds the three replications; the failing task keeps its reason.
        [job] = hmod._jobs(design)
        assert job[3:] == (0, 3)
        passes["n"] = 0
        [[_, bba_rec]] = hmod._block_worker(job)
        reason = f"draw 3 of pass 0 failed: {hmod._DEGENERATE}"
        assert np.isnan(bba_rec.point).tolist() == [False, True, False]
        assert bba_rec.reasons == [reason]

    def test_ssr_task_estimates_data_once(self, monkeypatch):
        design = small_design(
            estimators=(parse_estimator_token("splw1-ssr"),), B=12
        )
        y = simulate_gaussian(ArfimaParams(d=0.2, phi=0.3), 64,
                              np.random.default_rng(5))
        on_data = {"n": 0}
        real = bmod.estimate

        def counting(series, spec):
            on_data["n"] += np.array_equal(series, y)
            return real(series, spec)

        monkeypatch.setattr(bmod, "estimate", counting)
        task = design.estimators[0]
        run_task(y, task, design, task_stream(11, 0, 0, 0))
        assert on_data["n"] == 1
        base = real(y, EstimatorSpec("splw", 1))
        for res in run_design(design):
            assert res.stats["asym_length"] == 2 * hmod._Z975 * base.asymptotic_sd

    def test_hpd_task_estimates_data_once(self, monkeypatch):
        design = small_design(
            estimators=(parse_estimator_token("lpr1-hpd"),), B=12
        )
        y = simulate_gaussian(ArfimaParams(d=0.2, phi=0.3), 64,
                              np.random.default_rng(5))
        on_data = {"n": 0}
        real = bmod.estimate

        def counting(series, spec):
            on_data["n"] += np.array_equal(series, y)
            return real(series, spec)

        monkeypatch.setattr(bmod, "estimate", counting)
        task = design.estimators[0]
        point, (lo, hi), _ = run_task(y, task, design, task_stream(11, 0, 0, 0))
        assert on_data["n"] == 1
        assert point == real(y, EstimatorSpec("lpr", 1)).d_hat
        assert lo < point < hi

    @pytest.mark.parametrize(
        "token", ["lpr1-hpd", "splw1-bba2", "lpr2-ssr-hpd", "splw0-bba1-hpd"]
    )
    def test_task_equals_public_calls(self, token):
        task = parse_estimator_token(token)
        design = small_design(estimators=(task,), B=12)
        y = simulate_gaussian(ArfimaParams(d=0.2, phi=0.3), 64,
                              np.random.default_rng(5))
        stream = task_stream(11, 0, 0, 0)
        out = run_task(y, task, design, stream)
        spec = EstimatorSpec(task.family, task.P)
        cfg = BootstrapConfig(B=12, rng_stream=stream)
        if task.correction == "none":
            d_hat = estimate(y, spec).d_hat
            want = (d_hat, bias_correct(y, spec, d_hat, cfg).hpd, False)
            trace = iterate_bias_correct(y, spec, cfg, max_iter=1, fixed=True)
        else:
            if task.correction == "bba":
                trace = iterate_bias_correct(y, spec, cfg, max_iter=task.K, fixed=True)
            else:
                trace = iterate_bias_correct(y, spec, cfg)
            hpd = trace.outcomes[0].hpd if task.hpd else None
            want = (trace.final, hpd, trace.stop_reason == "deterministic")
        assert out == want
        # The unit hands back the whole trace of the public correction.
        got = task_trace(y, task, design, stream)
        assert (got.records, got.stop_reason) == (trace.records, trace.stop_reason)
        assert (got.d_initial, got.final) == (trace.d_initial, trace.final)
        assert got.outcomes[0].hpd == trace.outcomes[0].hpd
        assert np.array_equal(got.outcomes[0].draws, trace.outcomes[0].draws)

    def test_plain_blocks_independent_of_layout_and_workers(self, monkeypatch):
        # R = 7 spans three blocks of 3 rows at T = 64; the default block
        # holds all seven replications.
        design = McDesign(
            T_values=(64, 100), d_values=(0.2,), phi_values=(0.0, 0.6), R=7,
            estimators=(parse_estimator_token("lpr1"),
                        parse_estimator_token("splw0")),
            law="student-t", seed=21,
        )
        default = [res.stats for res in run_design(design)]
        params = ArfimaParams(d=0.2, phi=0.0, law="student-t")
        pts = np.array([
            estimate(simulate_gaussian(params, 64, generator_at(21, 0, r, 0)),
                     EstimatorSpec("lpr", 1)).d_hat
            for r in range(7)
        ])
        assert default[0]["bias"] == float((pts - 0.2).mean())
        monkeypatch.setattr(hmod, "_BLOCK_VALUES", 3 * 64)
        assert [job[3:] for job in hmod._jobs(design)][:3] == [(0, 3), (3, 6), (6, 7)]
        assert_layout_free(monkeypatch, design, default)

    def test_bootstrap_jobs_independent_of_layout_and_workers(self, monkeypatch):
        design = McDesign(
            T_values=(64, 100), d_values=(0.2,), phi_values=(0.0, 0.6), R=2,
            estimators=(parse_estimator_token("lpr1-hpd"),
                        parse_estimator_token("splw1-bba1")),
            B=12, seed=23,
        )
        default = [res.stats for res in run_design(design)]
        # A bootstrap job is a block of up to 16 replications of every cell
        # of one T.
        assert [(job[1], len(job[2]), job[3:]) for job in hmod._jobs(design)] == [
            (64, 2, (0, 2)), (100, 2, (0, 2)),
        ]
        longer = replace(design, R=40)
        assert [(job[1], job[3:]) for job in hmod._jobs(longer)] == [
            (T, block) for T in (64, 100) for block in ((0, 16), (16, 32), (32, 40))
        ]
        assert_layout_free(monkeypatch, design, default)

    def test_mse_at_least_bias_squared(self):
        for res in run_design(small_design()):
            assert res.stats["mse"] >= res.stats["bias"] ** 2 - 1e-15

    def test_ssr_reports_detstop_split(self):
        res = run_design(small_design())
        ssr = res[1]
        assert ssr.task.correction == "ssr"
        assert "n_detstop" in ssr.stats

    def test_interval_quantile_matches_scipy(self):
        from scipy.stats import norm

        want = norm.ppf(0.975)
        assert abs(hmod._Z975 - want) <= 1e-15 * want


def force_threads(monkeypatch, n):
    """Let every round of bootstrap passes run on up to n threads."""
    monkeypatch.setattr(bmod, "_pass_threads", lambda cpus: n)


def count_thread_starts(monkeypatch):
    """Count the threads that the bootstrap module starts."""
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    counted = types.ModuleType("threading")
    counted.__dict__.update(vars(threading))
    counted.Thread = Counted
    monkeypatch.setattr(bmod, "threading", counted)
    return starts


class TestUnitThreads:
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_threads_do_not_change_results(self, tmp_path, monkeypatch, mode):
        # 18 units (2 cells x 3 replications x 3 bootstrap tasks); three
        # threads outnumber the cores of a small machine, and a short
        # switch interval interleaves them often.
        design = small_design(
            estimators=(parse_estimator_token("lpr0"),
                        parse_estimator_token("lpr1-hpd"),
                        parse_estimator_token("splw1-bba2"),
                        parse_estimator_token("splw0-ssr-hpd")),
            mode=mode,
        )
        files = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 3):
                force_threads(monkeypatch, threads)
                path = tmp_path / f"{threads}.csv"
                emit_tables(run_design(design), "csv", str(path))
                files.append(path.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert files[1] == files[0]
        assert files[2] == files[0]

    def test_each_round_starts_one_thread(self, monkeypatch):
        # Two units whose passes have four blocks each (B = 200 at T = 500):
        # round 0 runs the passes of both, round 1 the second pass of the
        # BBA(2) unit, and each round starts one helper thread.
        design = McDesign(
            T_values=(500,), d_values=(0.2,), phi_values=(0.3,), R=1,
            estimators=(parse_estimator_token("lpr0-hpd"),
                        parse_estimator_token("splw1-bba2")),
            B=200, seed=3,
        )
        [job] = hmod._jobs(design)
        force_threads(monkeypatch, 1)
        want = hmod._block_worker(job)
        force_threads(monkeypatch, 2)
        starts = count_thread_starts(monkeypatch)
        before = threading.active_count()
        got = hmod._block_worker(job)
        assert len(starts) == 2
        assert threading.active_count() == before
        assert [[rec.point.tobytes() for rec in cell] for cell in got] == [
            [rec.point.tobytes() for rec in cell] for cell in want
        ]

    def test_one_unit_job_keeps_two_pass_threads(self, monkeypatch):
        # The first two blocks of the pass wait for each other, so the job
        # finishes only when two threads build blocks at once.
        force_threads(monkeypatch, 2)
        design = McDesign(
            T_values=(500,), d_values=(0.2,), phi_values=(0.3,), R=1,
            estimators=(parse_estimator_token("lpr0"),
                        parse_estimator_token("splw1-hpd")),
            B=200, seed=3,
        )
        barrier = threading.Barrier(2, timeout=30)
        idents = []
        real = bmod._draw_rows

        def recording(*args):
            idents.append(threading.get_ident())
            if len(idents) <= 2:
                barrier.wait()
            return real(*args)

        monkeypatch.setattr(bmod, "_draw_rows", recording)
        [job] = hmod._jobs(design)
        hmod._block_worker(job)
        assert len(idents) == 4 and len(set(idents)) == 2

    @pytest.mark.parametrize("error", [RuntimeError, EstimationFailedError])
    def test_exception_in_one_unit(self, monkeypatch, error):
        # Unit 1 of 32 (replication 1 of the first of two cells) raises as
        # its correction estimates the data. A LongmemError fails its row
        # alone; any other exception reaches the caller at once, before any
        # round has started a thread.
        force_threads(monkeypatch, 2)
        design = small_design(
            estimators=(parse_estimator_token("lpr0-hpd"),), R=16, B=12,
        )
        [job] = hmod._jobs(design)
        failing = simulate_gaussian(ArfimaParams(d=0.0, phi=0.3), 64, np.random.default_rng(
            simulation_stream(design.seed, 0, 1)))
        calls = []
        real = bmod.estimate

        def estimate_data(y, spec):
            calls.append(y)
            if np.array_equal(y, failing):
                raise error("unit failed")
            return real(y, spec)

        monkeypatch.setattr(bmod, "estimate", estimate_data)
        before = threading.active_count()
        if error is RuntimeError:
            with pytest.raises(RuntimeError, match="unit failed"):
                hmod._block_worker(job)
            assert len(calls) < 32
        else:
            [[first], [second]] = hmod._block_worker(job)
            assert len(calls) == 32
            assert np.isnan(first.point).tolist() == [r == 1 for r in range(16)]
            assert (first.reasons, second.reasons) == (["unit failed"], [])
            assert not np.isnan(second.point).any()
        assert threading.active_count() == before


class TestRounds:
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_job_records_equal_units_alone(self, monkeypatch, mode):
        # One job of 2 cells x 4 replications runs its HPD, BBA(2) and SSR
        # units in lockstep rounds; SSR units that stop after different
        # numbers of passes leave the rounds at different times. Each record
        # holds, byte for byte, what iterate_bias_correct gives its unit alone.
        force_threads(monkeypatch, 2)
        design = McDesign(
            T_values=(200,), d_values=(0.0, 0.3), phi_values=(0.5,), R=4,
            estimators=tuple(map(parse_estimator_token, (
                "lpr0", "lpr1-hpd", "splw1-bba2", "lpr0-ssr", "splw2-ssr-hpd"))),
            B=20, mode=mode, max_iter=4, seed=8,
        )
        [job] = hmod._jobs(design)
        records = hmod._block_worker(job)
        passes = set()
        for (cell, (T, d, phi)), cell_records in zip(design.cells(), records):
            series = [
                simulate_gaussian(ArfimaParams(d=d, phi=phi), T, np.random.default_rng(
                    simulation_stream(design.seed, cell, r)))
                for r in range(design.R)
            ]
            for ti, (task, rec) in enumerate(zip(design.estimators, cell_records)):
                if not task.needs_bootstrap:
                    continue
                ssr = task.correction == "ssr"
                want = []
                for r, y in enumerate(series):
                    cfg = BootstrapConfig(B=design.B, innovation_mode=mode,
                                          rng_stream=task_stream(design.seed, cell, r, ti))
                    trace = iterate_bias_correct(
                        y, EstimatorSpec(task.family, task.P), cfg,
                        max_iter=design.max_iter if ssr else max(task.K, 1), fixed=not ssr)
                    want.append((trace.d_initial if task.correction == "none" else trace.final,
                                 trace.outcomes[0].hpd, trace.stop_reason == "deterministic"))
                    if ssr:
                        passes.add(len(trace.records))
                point, hpd, detstop = map(np.array, zip(*want))
                assert rec.point.tobytes() == point.tobytes()
                assert rec.reasons == []
                assert (rec.hpd is None) == (not task.hpd)
                if task.hpd:
                    assert rec.hpd.tobytes() == hpd.tobytes()
                if ssr:
                    assert rec.detstop.tobytes() == detstop.tobytes()
        assert len(passes) > 1


# What a pool worker under test reads: the barrier that the run's first jobs
# wait at and the file it logs its CPUs to. Forked workers inherit both.
POOL_PROBE = {}
REAL_BLOCK_WORKER = hmod._block_worker


def probing_block_worker(job):
    """The pool's job function in tests: a job of the run's first
    ``barrier.parties`` waits until they have all started, so each holds
    its own worker; every job then logs its first cell and its worker's CPUs."""
    _, _, [(cell_index, _), *_], _, _ = job
    if cell_index < POOL_PROBE["barrier"].parties:
        POOL_PROBE["barrier"].wait(timeout=60)
    with open(POOL_PROBE["log"], "a") as log:
        log.write(" ".join(map(str, [cell_index, *sorted(os.sched_getaffinity(0))])) + "\n")
    return REAL_BLOCK_WORKER(job)


def plain_jobs_design(monkeypatch, jobs):
    """A plain design of `jobs` cells at T = 64, one cell per job."""
    monkeypatch.setattr(hmod, "_JOB_VALUES", 1)
    design = small_design(d_values=tuple(0.1 * i for i in range(jobs)),
                          estimators=(parse_estimator_token("lpr0"),
                                      parse_estimator_token("splw0")))
    assert len(hmod._jobs(design)) == jobs
    return design


def worker_cpus(monkeypatch, tmp_path, design, threads, parties=None):
    """Run `design` at `threads`, its first `parties` jobs (all by default)
    each in a worker of its own, and give the CPUs of each job's worker,
    in job order, along with the run's statistics."""
    if multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("the probe reaches pool workers through fork")
    log = tmp_path / "cpus.txt"
    monkeypatch.setitem(POOL_PROBE, "log", str(log))
    monkeypatch.setitem(POOL_PROBE, "barrier",
                        multiprocessing.Barrier(parties or len(hmod._jobs(design))))
    monkeypatch.setattr(hmod, "_block_worker", probing_block_worker)
    stats = [res.stats for res in run_design(design, threads)]
    lines = sorted(list(map(int, line.split())) for line in log.read_text().splitlines())
    return [set(line[1:]) for line in lines], stats


@pytest.fixture
def two_cpu_mask():
    """Limit this process to two of its CPUs for the test; give them all back after."""
    before = bmod._allowed_cpus()
    mask = set(sorted(before)[:2])
    os.sched_setaffinity(0, mask)
    try:
        yield mask
    finally:
        os.sched_setaffinity(0, before)


needs_two_cpus = pytest.mark.skipif(len(bmod._allowed_cpus() or ()) < 2,
                                    reason="needs two CPUs that this process may run on")


class TestPoolPlacement:
    """Each pool worker runs on its own share of the CPUs; values never change."""

    @needs_two_cpus
    def test_workers_take_disjoint_shares(self, monkeypatch, tmp_path):
        before = bmod._allowed_cpus()
        design = plain_jobs_design(monkeypatch, 2)
        want = [res.stats for res in run_design(design, 1)]
        cpus, stats = worker_cpus(monkeypatch, tmp_path, design, 2)
        assert stats == want
        assert sorted(map(sorted, cpus)) == sorted(map(sorted, bmod._shares(before, 2)))
        assert not cpus[0] & cpus[1] and cpus[0] | cpus[1] == before
        assert bmod._allowed_cpus() == before

    @needs_two_cpus
    def test_lone_last_job_takes_every_cpu(self, monkeypatch, tmp_path, two_cpu_mask):
        design = plain_jobs_design(monkeypatch, 3)
        want = [res.stats for res in run_design(design, 1)]
        cpus, stats = worker_cpus(monkeypatch, tmp_path, design, 2, parties=2)
        assert stats == want
        assert sorted(map(sorted, cpus[:2])) == [[cpu] for cpu in sorted(two_cpu_mask)]
        assert cpus[2] == two_cpu_mask
        assert bmod._allowed_cpus() == two_cpu_mask

    @needs_two_cpus
    def test_more_workers_than_cpus_run_unplaced(self, monkeypatch, tmp_path, two_cpu_mask):
        # Four jobs on four workers, and five on three, whose last two
        # start after the others and stay unplaced too. Both references
        # run before the probe replaces the job function.
        runs = [(plain_jobs_design(monkeypatch, jobs), threads) for jobs, threads in [(4, 4), (5, 3)]]
        wants = [[res.stats for res in run_design(design, 1)] for design, _ in runs]
        for (design, threads), want in zip(runs, wants):
            log_dir = tmp_path / str(threads)
            log_dir.mkdir()
            cpus, stats = worker_cpus(monkeypatch, log_dir, design, threads, parties=threads)
            assert stats == want
            assert cpus == [two_cpu_mask] * len(hmod._jobs(design))
        assert bmod._allowed_cpus() == two_cpu_mask

    @needs_two_cpus
    @pytest.mark.parametrize("broken", ["one cpu", "no setaffinity", "setaffinity raises"])
    def test_unplaced_workers_give_the_same_results(self, monkeypatch, tmp_path, broken):
        before = bmod._allowed_cpus()
        design = plain_jobs_design(monkeypatch, 2)
        want = [res.stats for res in run_design(design, 1)]
        if broken == "one cpu":
            os.sched_setaffinity(0, {min(before)})
        elif broken == "no setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            def refuse(pid, cpus):
                raise OSError(22, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        try:
            cpus, stats = worker_cpus(monkeypatch, tmp_path, design, 2)
            unplaced = bmod._allowed_cpus()
        finally:
            if broken == "one cpu":
                os.sched_setaffinity(0, before)
        assert stats == want
        assert cpus == [unplaced] * 2
        assert unplaced == ({min(before)} if broken == "one cpu" else before)

    @pytest.mark.parametrize("jobs, threads, pools", [(1, 2, []), (1, 8, []), (2, 8, [2]),
                                                      (4, 3, [3])])
    def test_no_more_workers_than_jobs(self, monkeypatch, jobs, threads, pools):
        sizes = []

        class Recorded(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        design = plain_jobs_design(monkeypatch, jobs)
        want = [res.stats for res in run_design(design, 1)]
        monkeypatch.setattr(hmod, "ProcessPoolExecutor", Recorded)
        assert [res.stats for res in run_design(design, threads)] == want
        assert sizes == pools


class TestEmission:
    def test_csv_layout(self, tmp_path):
        res = run_design(small_design())
        path = emit_tables(res, "csv", str(tmp_path / "out.csv"))
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "T,d,phi,estimator,P,correction,K,statistic,value,R_effective,seed"
        first = lines[1].split(",")
        assert first[0] == "64" and first[3] == "LPR" and first[7] == "bias"

    def test_round_trip_bit_exact(self, tmp_path):
        res = run_design(small_design())
        path = emit_tables(res, "csv", str(tmp_path / "out.csv"))
        rows = read_results_csv(path)
        i = 0
        for r in res:
            for stat in hmod._STAT_ORDER:
                if stat not in r.stats:
                    continue
                assert rows[i]["value"] == r.stats[stat]
                assert rows[i]["statistic"] == stat
                assert rows[i]["seed"] == r.seed
                i += 1
        assert i == len(rows)

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("T,d,phi,estimator,value\n64,0.0,0.3,LPR,0.1\n")
        with pytest.raises(InvalidParameterError, match="unrecognized results header"):
            read_results_csv(str(path))

    def test_empty_results_rejected(self):
        with pytest.raises(InvalidParameterError):
            emit_tables([], "csv", "x.csv")

    def test_unwritable_destination(self, tmp_path):
        res = run_design(small_design(R=1))
        with pytest.raises(OSError):
            emit_tables(res, "csv", str(tmp_path))  # a directory

    def test_aligned_text_contains_blocks(self, tmp_path):
        res = run_design(small_design())
        path = emit_tables(res, "aligned-text", str(tmp_path / "t.txt"))
        text = Path(path).read_text()
        assert "BIAS  (T = 64)" in text
        assert "LPR(0)" in text and "SPLW(0)-SSR" in text

    def test_unknown_format_rejected(self, tmp_path):
        res = run_design(small_design(R=1))
        with pytest.raises(InvalidParameterError):
            emit_tables(res, "json", str(tmp_path / "x"))


class TestConfig:
    def test_parse_full_file(self, tmp_path):
        cfg = tmp_path / "design.txt"
        cfg.write_text(
            """
            # comment
            T = 100, 500
            d = 0.0, 0.2
            phi = 0.6
            R = 5
            B = 33
            estimators = lpr0, splw1-bba2, lpr1-hpd
            mode = nonparametric
            law = student-t:7
            seed = 99
            bandwidth_exp = 0.72
            max_iter = 6
            """
        )
        design = load_design(str(cfg))
        assert design.T_values == (100, 500)
        assert design.d_values == (0.0, 0.2)
        assert design.R == 5 and design.B == 33
        assert design.mode == "nonparametric"
        assert design.law == "student-t:7"
        assert design.seed == 99
        assert design.bandwidth_exponent == 0.72
        assert design.max_iter == 6
        assert [t.name for t in design.estimators] == [
            "LPR(0)", "SPLW(1)-BBA(2)", "LPR(1)+HPD",
        ]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        for extra in ("foo = 1", "law = bogus", "seed 3"):
            cfg.write_text(
                f"T = 100\nd = 0\nphi = 0.3\nR = 2\nestimators = lpr0\n{extra}\n"
            )
            with pytest.raises(InvalidParameterError):
                load_design(str(cfg))

    def test_missing_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("T = 100\nd = 0\nphi = 0.3\nR = 2\n")
        with pytest.raises(InvalidParameterError):
            load_design(str(cfg))

    def test_seed_default_fallback(self, tmp_path):
        cfg = tmp_path / "design.txt"
        cfg.write_text("T = 64\nd = 0\nphi = 0.3\nR = 2\nestimators = lpr0\n")
        assert load_design(str(cfg)).seed == 0

    def test_keys_set_every_field_once(self):
        names = [name for name, _ in _KEYS.values()]
        assert sorted(names) == sorted(f.name for f in fields(McDesign))

    def test_omitted_keys_take_design_defaults(self, tmp_path):
        cfg = tmp_path / "design.txt"
        cfg.write_text(
            "T = 64, 100\nd = 0, 0.2\nphi = 0.3\nR = 2\nestimators = lpr0, splw1\n"
        )
        assert load_design(str(cfg)) == McDesign(
            T_values=(64, 100),
            d_values=(0.0, 0.2),
            phi_values=(0.3,),
            R=2,
            estimators=(parse_estimator_token("lpr0"), parse_estimator_token("splw1")),
        )


class TestStreams:
    def test_stream_derivation_is_pure(self):
        a = simulation_stream(5, 2, 7)
        b = simulation_stream(5, 2, 7)
        assert a.spawn_key == b.spawn_key
        assert np.array_equal(
            np.random.default_rng(a).standard_normal(4),
            np.random.default_rng(b).standard_normal(4),
        )

    def test_streams_distinct_across_tasks(self):
        keys = {
            simulation_stream(5, 0, 0).spawn_key,
            task_stream(5, 0, 0, 0).spawn_key,
            task_stream(5, 0, 0, 1).spawn_key,
            task_stream(5, 0, 1, 0).spawn_key,
            task_stream(5, 1, 0, 0).spawn_key,
        }
        assert len(keys) == 5
