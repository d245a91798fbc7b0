#!/usr/bin/env python3
"""Benchmark of the longmem pipeline: four seeded workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each process is a fresh interpreter on the checkout's ``src``):

* ``mc-boot``   ``longmem mc-run`` at ``--threads 1`` on the bootstrap
  design: T=500, d in {0, .2, .3, .4}, phi=.3, B=200, tasks
  ``lpr0, lpr1-hpd, splw2-ssr``, parametric. The B-draw loop dominates.
* ``mc-plain``  ``longmem mc-run`` at ``--threads nproc`` on 12 cells
  (d in {0, .2, .3, .4} x phi in {.3, .6, .9}), tasks ``lpr0, splw0``,
  no bootstrap. Simulation dominates; the bootstrap is bypassed.
* ``bc-single`` ``longmem bias-correct`` one-shot, SPLW(1),
  nonparametric, on one T=2000 series written by ``longmem simulate``
  before timing starts. One long series, many draws.
* ``mle``       ``longmem.mle_fit_many`` on ARFIMA(d=.3, phi=.3) series
  at T=100. Only this workload reaches the exact likelihood.

The seed fixes every input: design files, series and program seeds are
derived from it, and the program only receives those files.

With ``--trace 0`` the run spawns one process per instance, taking the
seeded instances in order until ``--seconds`` have passed (at least
``n_min`` processes), and reports the end-to-end metrics: the median
process wall time ``wall_s``, the median cold start ``setup_s`` (spawn
to the first library call), ``reps_per_s`` (series over the summed time
of the entry-point calls) and the median process-tree ``peak_rss_mb``.
The three times are scaled to a reference speed of the machine (see
``reference_loop``); the unscaled values are printed in the summary.

With ``--trace 1`` the first ``n_min`` instances run once untraced at
one thread and once in a single traced process at one thread; the
per-layer metrics come from the spans (see ``tracer.py``).

Both modes check the outputs (every cell keeps all R replications,
repeated instances and traced runs reproduce the same bytes, mc-plain's
results.csv is byte-identical at 1 and nproc threads) and print a
summary with the failure fraction, the RMSE of the final estimates
against the true d, the output digest and the environment. The last
line of stdout is the JSON result; the exit code is nonzero when a
check fails.

Inputs, outputs and per-process records go to ``.bench_work/`` at the
root of the checkout. ``baseline.json`` holds the figures measured on
the commit that introduced the benchmark.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
NPROC = os.cpu_count() or 1
CHILD_TIMEOUT = 150.0  # seconds one workload process may take
RUN_BUDGET = 120.0  # no new process is started past this point of a run
REF_LOOP_ITERS = 15000
REF_LOOP_S = 0.2  # reference-loop time that defines a reported second

MC_BOOT = {
    "T": "500", "d": "0.0, 0.2, 0.3, 0.4", "phi": "0.3", "R": "2", "B": "200",
    "estimators": "lpr0, lpr1-hpd, splw2-ssr", "mode": "parametric",
}
MC_PLAIN = {
    "T": "500", "d": "0.0, 0.2, 0.3, 0.4", "phi": "0.3, 0.6, 0.9", "R": "40",
    "estimators": "lpr0, splw0",
}
BC_SINGLE = {"T": 2000, "d": 0.3, "phi": 0.3, "B": 400}
MLE = {"T": 100, "d": 0.3, "phi": 0.3, "R": 8}

# Seeded instances per run; a run takes them in order, one per process,
# and always runs the first N_MIN, which fix rmse_d and the digest.
POOL = 16
N_MIN = {"mc-boot": 3, "mc-plain": 3, "bc-single": 4, "mle": 3}

# Bootstrap draws per pass, to count retries.
BOOT_B = {"mc-boot": int(MC_BOOT["B"]), "bc-single": BC_SINGLE["B"]}

MODULES = ("arfima", "arsieve", "bootstrap", "cli", "estimators", "fracdiff", "harness",
           "spectral", "streams")
MAX_UNATTRIBUTED = 0.05  # share of a traced run that spans may leave uncovered

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "reps_per_s": "series/s", "peak_rss_mb": "MB"}


def layer_unit(name):
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in ((".calls", "count"), ("_hits", "count"), (".retries", "count"),
                         ("us_per_call", "us"), ("us_per_draw", "us"), ("ms_per_call", "ms"),
                         ("ms_per_series", "ms"), ("_s", "s"), (".s", "s"),
                         ("order_mean", "lags"), ("iters_mean", "iters"), ("rmse_d", "d")):
        if name.endswith(suffix):
            return unit
    return "ratio"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def derive_seed(*parts):
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little") & 0x7FFFFFFF


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _simulate_columns(work, name, T, d, phi, n, seed):
    """Write n seeded ARFIMA series with ``longmem simulate``; return rows."""
    path = os.path.join(work, f"{name}.csv")
    cmd = [
        sys.executable, "-m", "longmem.cli", "simulate", "--d", str(d),
        "--phi", str(phi), "--T", str(T), "--n", str(n), "--seed", str(seed),
        "--out", path,
    ]
    done = subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise CheckFailed(f"longmem simulate exited with {done.returncode}\n{done.stderr[-2000:]}")
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def _write_series(path, rows, cols):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(row[c] for c in cols) + "\n")


def mc_instances(name, design, seed, work, count):
    out = []
    for i in range(count):
        path = os.path.join(work, f"design{i}.txt")
        lines = [f"{k} = {v}" for k, v in design.items()]
        lines.append(f"seed = {derive_seed(name, seed, i)}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        cells = len(design["d"].split(",")) * len(design["phi"].split(","))
        out.append({"config": path, "R": int(design["R"]), "cells": cells,
                    "tasks": len(design["estimators"].split(",")),
                    "series": int(design["R"]) * cells})
    return out


def bc_instances(seed, work, count):
    p = BC_SINGLE
    rows = _simulate_columns(work, "bc-series", p["T"], p["d"], p["phi"], count,
                             derive_seed("bc-single", seed, "series"))
    out = []
    for i in range(count):
        path = os.path.join(work, f"series{i}.csv")
        _write_series(path, rows, [i])
        argv = ["bias-correct", "--in", path, "--family", "splw", "--P", "1",
                "--B", str(p["B"]), "--mode", "nonparametric",
                "--seed", str(derive_seed("bc-single", seed, i))]
        out.append({"argv": argv, "series": 1, "d": p["d"]})
    return out


def mle_instances(seed, work, count):
    p = MLE
    rows = _simulate_columns(work, "mle-series", p["T"], p["d"], p["phi"],
                             count * p["R"], derive_seed("mle", seed, "series"))
    out = []
    for i in range(count):
        path = os.path.join(work, f"series{i}.csv")
        _write_series(path, rows, range(i * p["R"], (i + 1) * p["R"]))
        out.append({"series_path": path, "series": p["R"], "d": p["d"]})
    return out


def make_instances(workload, seed, work, count=POOL):
    if workload == "mc-boot":
        return mc_instances(workload, MC_BOOT, seed, work, count)
    if workload == "mc-plain":
        return mc_instances(workload, MC_PLAIN, seed, work, count)
    if workload == "bc-single":
        return bc_instances(seed, work, count)
    return mle_instances(seed, work, count)


def entry(workload, instance, out_dir, threads):
    """The child's view of one instance: kind and argv or series file."""
    if workload.startswith("mc-"):
        argv = ["mc-run", "--config", instance["config"], "--out-dir", out_dir,
                "--threads", str(threads)]
        return "cli", {"argv": argv}
    if workload == "bc-single":
        return "cli", {"argv": instance["argv"]}
    return "mle", {"series": instance["series_path"]}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def reference_loop():
    """Seconds that a fixed mix of small FFTs, products and Python loops takes now.

    Other tenants of the machine slow each core by up to half for seconds
    at a time, and a run of the benchmark lasts a few tens of seconds.
    The loop is timed between the workload processes of a timed run, and
    the run's times are scaled by REF_LOOP_S over the mean loop time, so a
    run caught in a slow spell reads about the same as one that is not.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 512)
    m = np.ones((48, 48))
    start = time.perf_counter()
    for _ in range(REF_LOOP_ITERS):
        np.fft.rfft(x)
        m @ m[0]
        sum(range(100))
    return time.perf_counter() - start


def spawn(work, tag, kind, instances, trace):
    """Run one child process; return its timings, peak RSS and result."""
    spec_path = os.path.join(work, f"{tag}.spec.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    log_path = os.path.join(work, f"{tag}.log")
    with open(spec_path, "w") as fh:
        json.dump({"src": SRC, "kind": kind, "instances": instances, "trace": trace}, fh)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), spec_path, result_path]
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        # On timeout, stop the child and any workers it started.
        timer = threading.Timer(CHILD_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise CheckFailed(f"{tag}: process exited with {proc.returncode}\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    if not result["env"]["longmem_file"].startswith(SRC + os.sep):
        raise CheckFailed(f"imported longmem from {result['env']['longmem_file']}, not {SRC}")
    return {
        "wall": exited - spawned,
        "setup": result["ready"] - spawned,
        "main": sum(r["end"] - r["start"] for r in result["runs"]),
        "rss_mb": usage.ru_maxrss / 1024.0,
        "result": result,
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_mc(instance, out_dir):
    """Check one results.csv; return (attempted, failed, sq_err_sum, n, digest)."""
    path = os.path.join(out_dir, "results.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = list(csv.DictReader(raw.decode().splitlines()))
    pairs = {}
    for row in rows:
        key = (row["T"], row["d"], row["phi"], row["estimator"], row["P"], row["correction"])
        if int(row["R_effective"]) != instance["R"]:
            raise CheckFailed(f"{path}: R_effective {row['R_effective']} != R {instance['R']} in {key}")
        value = float(row["value"])
        if not math.isfinite(value):
            raise CheckFailed(f"{path}: non-finite {row['statistic']} in {key}")
        pairs.setdefault(key, {})[row["statistic"]] = value
    if len(pairs) != instance["cells"] * instance["tasks"]:
        raise CheckFailed(f"{path}: {len(pairs)} (cell, task) pairs, expected "
                          f"{instance['cells'] * instance['tasks']}")
    failed = sq = 0.0
    for key, stats in pairs.items():
        missing = {"bias", "mse", "n_failed"} - set(stats)
        if missing:
            raise CheckFailed(f"{path}: {key} lacks {sorted(missing)}")
        if stats["mse"] < stats["bias"] ** 2 - 1e-12:
            raise CheckFailed(f"{path}: {key} has mse below bias^2")
        failed += stats["n_failed"]
        sq += stats["mse"] * instance["R"]
    n = instance["R"] * len(pairs)
    if not os.path.exists(os.path.join(out_dir, "tables.txt")):
        raise CheckFailed(f"{out_dir}: tables.txt missing")
    return n, int(failed), sq, n, hashlib.sha256(raw).hexdigest()


def check_bc(instance, run):
    if run["rc"] != 0:
        return 1, 1, 0.0, 0, "failed"
    try:
        fields = {}
        for line in run["stdout"].splitlines():
            name, *values = line.split()
            fields[name] = [float(v) for v in values]
        (d_hat,), (d_tilde,), (bias,), (lo, hi) = (
            fields["d_hat"], fields["d_tilde"], fields["bias_hat"], fields["hpd95"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"bias-correct output malformed: {run['stdout']!r}") from exc
    if not all(math.isfinite(v) for v in (d_hat, d_tilde, bias, lo, hi)):
        raise CheckFailed(f"bias-correct output not finite: {run['stdout']!r}")
    if abs(d_tilde - (d_hat - bias)) > 1e-8 or not lo < hi:
        raise CheckFailed(f"bias-correct output inconsistent: {run['stdout']!r}")
    digest = hashlib.sha256(run["stdout"].encode()).hexdigest()
    return 1, 0, (d_tilde - instance["d"]) ** 2, 1, digest


def check_mle(instance, run):
    if run["rc"] != 0:
        return instance["series"], instance["series"], 0.0, 0, "failed"
    fits = run["fits"]
    if len(fits) != instance["series"]:
        raise CheckFailed(f"mle returned {len(fits)} fits for {instance['series']} series")
    sq = 0.0
    for d, phi, sigma2, loglik, grid_loglik in fits:
        if not (-0.49 <= d <= 0.49 and -0.99 <= phi <= 0.99 and sigma2 > 0):
            raise CheckFailed(f"mle fit out of bounds: d={d} phi={phi} sigma2={sigma2}")
        # The refined point is kept only if it beats the grid point; allow
        # for the grid stage's ACVF truncation differing in the last digits.
        if not (math.isfinite(loglik) and loglik >= grid_loglik - 1e-8 * abs(grid_loglik)):
            raise CheckFailed(f"mle refinement worse than its grid point: {loglik} < {grid_loglik}")
        sq += (d - instance["d"]) ** 2
    digest = hashlib.sha256(repr(fits).encode()).hexdigest()
    return len(fits), 0, sq, len(fits), digest


def check(workload, instance, run, out_dir):
    if workload.startswith("mc-"):
        if run["rc"] != 0:
            n = instance["series"] * instance["tasks"]
            return n, n, 0.0, 0, "failed"
        return check_mc(instance, out_dir)
    if workload == "bc-single":
        return check_bc(instance, run)
    return check_mle(instance, run)


class Tally:
    """Attempted and failed estimates; squared errors and digests of the
    first ``n_min`` instances."""

    def __init__(self, n_min):
        self.n_min = n_min
        self.attempted = self.failed = self.n = 0
        self.sq = 0.0
        self.digests = {}

    def add(self, index, outcome):
        attempted, failed, sq, n, digest = outcome
        self.attempted += attempted
        self.failed += failed
        if index in self.digests:
            if self.digests[index] != digest:
                raise CheckFailed(f"instance {index} gave different outputs on two runs")
            return
        self.digests[index] = digest
        if index < self.n_min:
            self.sq += sq
            self.n += n

    @property
    def rmse(self):
        """RMSE of the final estimates against the true d; 0 if none succeeded."""
        return math.sqrt(self.sq / self.n) if self.n else 0.0

    @property
    def digest(self):
        text = "".join(self.digests.get(i, "") for i in range(self.n_min))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_run(workload, instances, work, seconds, tally):
    threads = NPROC if workload == "mc-plain" else 1
    begun = time.monotonic()
    procs = []
    loops = [reference_loop()]
    j = 0
    while j < tally.n_min or (
        time.monotonic() - begun < seconds
        and time.monotonic() - begun + max(p["wall"] for p in procs) < RUN_BUDGET
    ):
        index = j % len(instances)
        out_dir = os.path.join(work, f"out{j}")
        kind, inst = entry(workload, instances[index], out_dir, threads)
        proc = spawn(work, f"p{j}", kind, [inst], trace=False)
        tally.add(index, check(workload, instances[index], proc["result"]["runs"][0], out_dir))
        procs.append(proc)
        loops.append(reference_loop())
        j += 1
    if workload == "mc-plain":
        # Determinism contract: the same design at one thread gives the same bytes.
        out_dir = os.path.join(work, "out-1thread")
        kind, inst = entry(workload, instances[0], out_dir, 1)
        proc = spawn(work, "p-1thread", kind, [inst], trace=False)
        tally.add(0, check(workload, instances[0], proc["result"]["runs"][0], out_dir))
    records = [
        {"index": j % len(instances), "series": instances[j % len(instances)]["series"],
         **{k: p[k] for k in ("wall", "setup", "main", "rss_mb")}}
        for j, p in enumerate(procs)
    ]
    with open(os.path.join(work, "processes.json"), "w") as fh:
        json.dump({"reference_loop_s": loops, "processes": records}, fh)
    raw = {
        "wall_s": statistics.median(p["wall"] for p in records),
        "setup_s": statistics.median(p["setup"] for p in records),
        "reps_per_s": sum(p["series"] for p in records) / sum(p["main"] for p in records),
    }
    speed = REF_LOOP_S / statistics.fmean(loops)
    print(f"{workload}: unscaled wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s, "
          f"reps_per_s {raw['reps_per_s']:.6g} series/s; speed scale {speed:.4g}")
    metrics = {
        "wall_s": raw["wall_s"] * speed,
        "setup_s": raw["setup_s"] * speed,
        "reps_per_s": raw["reps_per_s"] / speed,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in records),
    }
    return metrics, procs[0]["result"]["env"], len(procs)


def traced_run(workload, instances, work, tally):
    instances = instances[:tally.n_min]
    untraced = []
    for index, instance in enumerate(instances):
        out_dir = os.path.join(work, f"ref{index}")
        kind, inst = entry(workload, instance, out_dir, 1)
        proc = spawn(work, f"ref{index}", kind, [inst], trace=False)
        tally.add(index, check(workload, instance, proc["result"]["runs"][0], out_dir))
        untraced.append(proc)
    speedup = 1.0
    if workload == "mc-plain":
        out_dir = os.path.join(work, "nproc0")
        kind, inst = entry(workload, instances[0], out_dir, NPROC)
        proc = spawn(work, "nproc0", kind, [inst], trace=False)
        tally.add(0, check(workload, instances[0], proc["result"]["runs"][0], out_dir))
        speedup = untraced[0]["main"] / proc["main"]
    insts = []
    for index, instance in enumerate(instances):
        insts.append(entry(workload, instance, os.path.join(work, f"traced{index}"), 1)[1])
    proc = spawn(work, "traced", kind, insts, trace=True)
    for index, (instance, run) in enumerate(zip(instances, proc["result"]["runs"])):
        tally.add(index, check(workload, instance, run, os.path.join(work, f"traced{index}")))
    traced_s = proc["main"]
    untraced_s = sum(p["main"] for p in untraced)
    series = sum(i["series"] for i in instances)
    metrics, unattributed = layer_metrics(workload, proc["result"]["trace"], traced_s,
                                          untraced_s, series, speedup)
    return metrics, unattributed, proc["result"]["env"]


def layer_metrics(workload, trace, traced_s, untraced_s, series, speedup):
    """Per-layer metrics from the span totals of a traced run."""
    totals, observed = trace["totals"], trace["observed"]

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("estimators.splw_estimate", "estimators.lpr_estimate",
                 "fracdiff.apply_frac_filter"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.us_per_call"] = 1e6 * ratio(get(name, "self_s"), get(name, "calls"))
    m["estimators.splw_boundary_hits"] = sum(observed.get("estimators.splw_estimate", []))
    for name in ("spectral.periodogram", "arsieve.simulate_ar_path", "streams.generator_at",
                 "bootstrap.bootstrap_draw", "arfima.simulate_gaussian",
                 "arfima._profile_loglik_batch"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    orders = observed.get("arsieve.select_order_aic", [])
    m["arsieve.order_mean"] = ratio(sum(orders), len(orders))

    draws = get("bootstrap.bootstrap_draw", "calls")
    passes = get("bootstrap.prefilter_sieve", "calls")
    needed = passes * BOOT_B.get(workload, 0)
    loops = ("bootstrap.bias_correct", "bootstrap.iterate_bias_correct")
    m["bootstrap.us_per_draw"] = 1e6 * ratio(sum(get(n, "incl_s") for n in loops), draws)
    m["bootstrap.loop_self_s"] = sum(get(n, "self_s") for n in loops)
    m["bootstrap.prefilter_sieve.calls"] = passes
    m["bootstrap.prefilter_sieve.incl_s"] = get("bootstrap.prefilter_sieve", "incl_s")
    iters = observed.get("bootstrap.iterate_bias_correct", [])
    m["bootstrap.ssr_iters_mean"] = ratio(sum(iters), len(iters))
    m["bootstrap.retries"] = draws - needed
    m["bootstrap.useful_draw_frac"] = ratio(needed, draws)

    m["arfima.simulate_gaussian.ms_per_call"] = 1e3 * ratio(
        get("arfima.simulate_gaussian", "self_s"), get("arfima.simulate_gaussian", "calls"))
    m["arfima.arfima_acvf.calls"] = get("arfima.arfima_acvf", "calls")
    m["arfima._acvf_rows.self_s"] = get("arfima._acvf_rows", "self_s")
    m["arfima._grid_search_many.incl_s"] = get("arfima._grid_search_many", "incl_s")
    m["arfima._refine_one.incl_s"] = get("arfima._refine_one", "incl_s")
    m["arfima.mle_fit_many.incl_s"] = get("arfima.mle_fit_many", "incl_s")
    m["arfima.mle_fit_many.ms_per_series"] = 1e3 * ratio(
        get("arfima.mle_fit_many", "incl_s"), series if workload == "mle" else 0)

    m["harness.run_design.incl_s"] = get("harness.run_design", "incl_s")
    m["harness.emit_tables.s"] = get("harness.emit_tables", "incl_s")
    m["harness.thread_speedup"] = speedup

    module_self = {}
    for name, t in totals.items():
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + t["self_s"]
    for module in MODULES:
        m[f"{module}.self_s"] = module_self.get(module, 0.0)
    unattributed = traced_s - sum(module_self.values())
    m["trace.run_s"] = traced_s
    m["trace.unattributed_s"] = unattributed
    m["trace.unattributed_frac"] = unattributed / traced_s
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m, unattributed / traced_s


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # not a git checkout of its own
    return lines[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(N_MIN), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "longmem", "__init__.py")):
        print(f"error: no longmem sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally(N_MIN[args.workload])
    problems = []
    metrics, units, env, processes = {}, {}, {}, 0
    try:
        instances = make_instances(args.workload, args.seed, work)
        if args.trace:
            metrics, unattributed, env = traced_run(args.workload, instances, work, tally)
            metrics["rmse_d"] = tally.rmse
            metrics["fail_frac"] = tally.failed / max(tally.attempted, 1)
            units = {name: layer_unit(name) for name in metrics}
            processes = tally.n_min + 1 + (args.workload == "mc-plain")
            if unattributed > MAX_UNATTRIBUTED:
                problems.append(f"traced spans leave {unattributed:.1%} of the run unattributed")
        else:
            metrics, env, processes = timed_run(args.workload, instances, work, args.seconds, tally)
            units = E2E_UNITS
    except (CheckFailed, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    if tally.failed:
        problems.append(f"{tally.failed} of {tally.attempted} estimates failed")

    env_block = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": NPROC,
        **{k: v for k, v in env.items() if k != "longmem_file"},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_sha": git_sha(),
    }
    print("env " + json.dumps(env_block, sort_keys=True))
    print(f"{args.workload}: {processes} processes, fail_frac "
          f"{tally.failed / max(tally.attempted, 1):.4g} ({tally.failed}/{tally.attempted}), "
          f"rmse_d {tally.rmse:.6g} over {tally.n} estimates, digest {tally.digest}")
    for name, value in metrics.items():
        print(f"  {name:40s} {fmt(value):>14s} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
