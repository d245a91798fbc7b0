"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo checks run at desk scale with tolerances of three Monte Carlo
standard errors around the published reference values; every random
stream is pinned, so reruns are bit-identical.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

import longmem as lm
from longmem.estimators import SEARCH_LO
from longmem.fracdiff import apply_frac_filter
from longmem.spectral import periodogram

from _oracles import hpd_window_exhaustive, ma_truncated_acvf

THREADS = min(os.cpu_count() or 1, 4)


def record(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cells(seed, tokens, d_values, phi, T, R, B=0, law="gaussian",
              mode="parametric"):
    design = lm.McDesign(
        T_values=(T,), d_values=tuple(d_values), phi_values=(phi,),
        R=R, estimators=tuple(lm.parse_estimator_token(t) for t in tokens),
        B=B, mode=mode, law=law, seed=seed,
    )
    return design, lm.run_design(design, threads=THREADS)


def stat_by_task(results, name, stat):
    return [r.stats[stat] for r in results if r.task.name == name]


def test_criterion_01_lpr0_bias_and_mse():
    _, res = run_cells(20260101, ["lpr0"], [0.0], 0.3, T=500, R=500)
    bias = res[0].stats["bias"]
    mse = res[0].stats["mse"]
    ok = abs(bias - 0.0596) <= 0.014 and abs(mse - 0.0101) <= 0.25 * 0.0101
    record(1, ok, f"LPR(0) T=500 d=0 phi=0.3: bias={bias:.4f} (ref 0.0596), "
                  f"mse={mse:.4f} (ref 0.0101)")


def test_criterion_02_splw0_bias():
    _, res = run_cells(20260102, ["splw0"], [0.0], 0.6, T=500, R=500)
    bias = res[0].stats["bias"]
    record(2, abs(bias - 0.2305) <= 0.02,
           f"SPLW(0) T=500 d=0 phi=0.6: bias={bias:.4f} (ref 0.2305)")


def test_criterion_03_bootstrap_bias_reduction():
    _, res = run_cells(20260103, ["lpr1", "lpr1-bba1"], [0.0], 0.6,
                       T=500, R=200, B=300)
    raw = stat_by_task(res, "LPR(1)", "bias")[0]
    bba = stat_by_task(res, "LPR(1)-BBA(1)", "bias")[0]
    ok = abs(bba - 0.0332) <= 0.035 and abs(bba) < abs(raw)
    record(3, ok, f"LPR(1)-BBA(1) T=500 d=0 phi=0.6: bias={bba:.4f} "
                  f"(ref 0.0332), raw={raw:.4f} (ref 0.0705)")


def test_criterion_04_iterative_ssr():
    _, res = run_cells(20260104, ["splw2-ssr"], [0.0, 0.2, 0.3, 0.4], 0.3,
                       T=500, R=100, B=300)
    biases = stat_by_task(res, "SPLW(2)-SSR", "bias")
    mean_bias = float(np.mean(biases))
    record(4, abs(mean_bias) <= 0.03,
           f"SPLW(2)-SSR T=500 phi=0.3 averaged over d: bias={mean_bias:.4f} "
           f"(ref 0.0008), cells={np.round(biases, 4).tolist()}")


def test_criterion_05_hpd_coverage_and_length():
    _, res = run_cells(20260105, ["lpr1-hpd"], [0.0, 0.2, 0.3, 0.4], 0.3,
                       T=500, R=300, B=500)
    cov = float(np.mean(stat_by_task(res, "LPR(1)+HPD", "hpd_coverage")))
    length = float(np.mean(stat_by_task(res, "LPR(1)+HPD", "hpd_length")))
    ok = abs(cov - 0.9573) <= 0.04 and abs(length - 0.5267) <= 0.10 * 0.5267
    record(5, ok, f"LPR(1) HPD T=500 phi=0.3: coverage={cov:.4f} (ref 0.9573), "
                  f"length={length:.4f} (ref 0.5267)")


def test_criterion_06_asymptotic_interval_length():
    n_band = lm.bandwidth(500, 0.7)
    length = 2.0 * norm.ppf(0.975) * lm.asymptotic_sd(lm.EstimatorSpec("lpr", 0),
                                                      n_band)
    record(6, abs(length - 0.2856) <= 0.005,
           f"2 z ω ψ0/sqrt(N) at T=500 (N={n_band}): {length:.4f} (ref 0.2856; "
           f"the 0.0009 gap documents the N-rounding ambiguity)")


def test_criterion_07_acvf_oracle_equivalence():
    worst = 0.0
    for d in (0.1, 0.2, 0.45):
        for phi in (0.0, 0.3, 0.9):
            mine = lm.arfima_acvf(lm.ArfimaParams(d=d, phi=phi), 50)
            brute = ma_truncated_acvf(d, phi, 1.0, 50)
            worst = max(worst, float(np.max(np.abs(mine - brute) / np.abs(brute))))
    record(7, worst <= 1e-6,
           f"ACVF vs truncated-MA(1e6) oracle, lags 0..50: max rel err {worst:.2e}")


def test_criterion_08_property_suite():
    failures = []

    # fractional-filter round trip
    y = np.random.default_rng(81).standard_normal(2000)
    for d in (-0.4, 0.2, 0.49, 1.0):
        back = apply_frac_filter(apply_frac_filter(y, d), -d)
        if np.max(np.abs(back - y)) > 1e-10:
            failures.append(f"round-trip d={d}")

    # periodogram shift invariance (exact) and scale equivariance (1e-12)
    dyadic = np.random.default_rng(82).integers(-2 ** 22, 2 ** 22, 512) / 2 ** 20
    base = periodogram(dyadic, 100)
    for c in (0.5, -3.25, 1024.0):
        if not np.array_equal(base, periodogram(dyadic + c, 100)):
            failures.append(f"pgram shift c={c}")
    scaled = periodogram(7.3 * dyadic, 100)
    if np.max(np.abs(scaled - 7.3 ** 2 * base)) > 1e-12 * np.max(base):
        failures.append("pgram scale")

    # estimator scale and shift invariance to 1e-9
    series = lm.simulate_gaussian(lm.ArfimaParams(d=0.3, phi=0.6), 500,
                                  np.random.default_rng(83))
    for family in ("lpr", "splw"):
        for P in (0, 1, 2):
            spec = lm.EstimatorSpec(family, P)
            ref = lm.estimate(series, spec).d_hat
            if abs(lm.estimate(831.25 * series, spec).d_hat - ref) > 1e-9:
                failures.append(f"{family}({P}) scale")
            if abs(lm.estimate(series + 44.5, spec).d_hat - ref) > 1e-9:
                failures.append(f"{family}({P}) shift")

    # HPD sort-scan equals exhaustive enumeration
    rng = np.random.default_rng(84)
    for _ in range(200):
        B = int(rng.integers(10, 1001))
        draws = rng.standard_normal(B)
        if lm.hpd_interval(draws, 0.1) != hpd_window_exhaustive(
            draws, 0.1, 0.025, 0.025
        ):
            failures.append("hpd window")
            break

    # Levinson rejects the invalid ACVF fixture
    try:
        lm.levinson_durbin([1.0, 1.1])
        failures.append("levinson accepted invalid acvf")
    except lm.NumericalDegeneracyError:
        pass

    record(8, not failures, "round-trip/invariance/HPD-oracle/Levinson suite"
           + ("" if not failures else f" failed: {failures}"))


def test_criterion_09_mc_run_determinism(tmp_path):
    cfg = tmp_path / "design.txt"
    cfg.write_text(
        "T = 64\nd = 0.0, 0.2\nphi = 0.3\nR = 4\nB = 24\n"
        "estimators = lpr0, lpr0-bba1, splw0-ssr\nseed = 2026\n"
    )
    outputs = []
    for threads in (1, 4, 8):
        out_dir = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "longmem.cli", "mc-run",
             "--config", str(cfg), "--out-dir", str(out_dir),
             "--threads", str(threads)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    record(9, ok, "mc-run CSV byte-identical across threads {1, 4, 8}")


def test_criterion_10_student_t_directional_property():
    _, res = run_cells(
        20260110, ["lpr0", "lpr0-bba1", "splw0", "splw0-bba1"],
        [0.2], 0.6, T=500, R=200, B=300, law="student-t",
        mode="nonparametric",
    )
    raw_lpr = stat_by_task(res, "LPR(0)", "bias")[0]
    bba_lpr = stat_by_task(res, "LPR(0)-BBA(1)", "bias")[0]
    raw_splw = stat_by_task(res, "SPLW(0)", "bias")[0]
    bba_splw = stat_by_task(res, "SPLW(0)-BBA(1)", "bias")[0]
    ok = abs(bba_lpr) < abs(raw_lpr) and abs(bba_splw) < abs(raw_splw)
    record(10, ok,
           f"t(5) innovations, nonparametric draws, T=500 phi=0.6: "
           f"LPR {raw_lpr:.4f}->{bba_lpr:.4f}, SPLW {raw_splw:.4f}->{bba_splw:.4f}")
