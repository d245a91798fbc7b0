"""Monte Carlo experiment runner, aggregation, and table emission.

A design is a grid of (T, d, phi) cells; every replication simulates one
series and runs every requested estimator task on it, so estimators are
compared on common data. Random streams are pure functions of
(master seed, cell index, replication, task), which makes runs
reproducible bit-for-bit at any worker count.

A job is one contiguous block of replications of a group of cells that
share T (see :func:`_jobs`); a design with a bootstrap task takes blocks
of up to 16 replications. One batched Durbin-Levinson sweep simulates
every series of the job, each plain task estimates all of its rows in
one batched call, and bootstrap tasks run per (cell, replication), each
on its own task stream. The layout depends on the design alone, and one
process pool serves every job of the design.
"""

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby, product
from statistics import NormalDist

import numpy as np

from .arfima import ArfimaParams, _parse_law, _simulate_rows, _standardized_deviates
from .bootstrap import (
    _BLOCK_VALUES,
    _MODES,
    BootstrapConfig,
    _check_tails,
    iterate_bias_correct,
)
from .estimators import _DEGENERATE, EstimatorSpec, _estimate_rows, asymptotic_sd
from .exceptions import InvalidDesignError, InvalidParameterError, LongmemError
from .spectral import bandwidth
from .streams import as_seed_sequence, substream

__all__ = [
    "EstimatorTask",
    "McDesign",
    "McCellResult",
    "run_design",
    "emit_tables",
    "read_results_csv",
    "parse_estimator_token",
    "load_design",
    "simulation_stream",
    "task_stream",
]

_Z975 = NormalDist().inv_cdf(0.975)

# Simulated values per job: whole cell blocks of one T are grouped up to
# this size, so one Durbin-Levinson sweep simulates them all.
_JOB_VALUES = 2 ** 17

CSV_HEADER = [
    "T",
    "d",
    "phi",
    "estimator",
    "P",
    "correction",
    "K",
    "statistic",
    "value",
    "R_effective",
    "seed",
]


@dataclass(frozen=True)
class EstimatorTask:
    """One estimator column of the experiment.

    correction 'none' is the plain estimator, 'bba' applies the bootstrap
    bias adjustment K times, 'ssr' iterates under the stochastic stopping
    rules. ``hpd`` additionally records the bootstrap HPD interval.
    """

    family: str
    P: int
    correction: str = "none"
    K: int = 0
    hpd: bool = False

    def __post_init__(self):
        if self.correction not in ("none", "bba", "ssr"):
            raise InvalidParameterError("correction must be none, bba, or ssr")
        if self.correction == "bba" and self.K < 1:
            raise InvalidParameterError("bba requires K >= 1")

    @property
    def name(self):
        label = f"{self.family.upper()}({self.P})"
        if self.correction == "bba":
            label += f"-BBA({self.K})"
        elif self.correction == "ssr":
            label += "-SSR"
        if self.hpd:
            label += "+HPD"
        return label

    @property
    def needs_bootstrap(self):
        return self.hpd or self.correction != "none"


def parse_estimator_token(token):
    """Parse tokens like 'lpr0', 'splw2-ssr', 'lpr1-bba2-hpd'.

    Each suffix may appear once, and at most one of '-ssr' and '-bbaK'.
    """
    parts = token.strip().lower().split("-")
    head = parts[0]
    if head.startswith("lpr"):
        family, rest = "lpr", head[3:]
    elif head.startswith("splw"):
        family, rest = "splw", head[4:]
    else:
        raise InvalidParameterError(f"unknown estimator family in '{token}'")
    try:
        P = int(rest)
    except ValueError:
        raise InvalidParameterError(f"missing correction order in '{token}'") from None
    correction, K, hpd = "none", 0, False
    for part in parts[1:]:
        if part == "hpd" and not hpd:
            hpd = True
        elif part == "ssr" and correction == "none":
            correction = "ssr"
        elif part.startswith("bba") and correction == "none":
            correction = "bba"
            try:
                K = int(part[3:])
            except ValueError:
                raise InvalidParameterError(f"bad BBA count in '{token}'") from None
        else:
            raise InvalidParameterError(
                f"unknown, repeated or second correction suffix '{part}' in '{token}'"
            )
    return EstimatorTask(family=family, P=P, correction=correction, K=K, hpd=hpd)


@dataclass(frozen=True)
class McDesign:
    """Monte Carlo configuration grid."""

    T_values: tuple
    d_values: tuple
    phi_values: tuple
    R: int
    estimators: tuple
    B: int = 0
    mode: str = "parametric"
    law: str = "gaussian"
    dof: float = 5.0
    seed: int = 0
    bandwidth_exponent: float = 0.7
    max_iter: int = 10
    alpha_lower: float = 0.025
    alpha_upper: float = 0.025

    def __post_init__(self):
        object.__setattr__(self, "T_values", tuple(int(t) for t in self.T_values))
        object.__setattr__(self, "d_values", tuple(float(d) for d in self.d_values))
        object.__setattr__(
            self, "phi_values", tuple(float(p) for p in self.phi_values)
        )
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.R < 1:
            raise InvalidDesignError("need at least one replication")
        if not self.estimators:
            raise InvalidDesignError("need at least one estimator task")
        if self.mode not in _MODES:
            raise InvalidDesignError(f"mode must be one of {_MODES}")
        if self.max_iter < 1:
            raise InvalidDesignError("max_iter must be at least 1")
        try:
            _check_tails(self.alpha_lower, self.alpha_upper)
        except InvalidParameterError as exc:
            raise InvalidDesignError(f"hpd_tails: {exc}") from exc
        if self.seed is None:
            # SeedSequence(None) draws fresh OS entropy in every job.
            raise InvalidDesignError("seed must be given; None is not reproducible")
        try:
            as_seed_sequence(self.seed)
        except (TypeError, ValueError) as exc:
            raise InvalidDesignError(f"bad seed {self.seed!r}: {exc}") from exc
        for task in self.estimators:
            try:
                EstimatorSpec(task.family, task.P, self.bandwidth_exponent)
                for T in self.T_values:
                    bandwidth(T, self.bandwidth_exponent, task.P)
                if task.needs_bootstrap:
                    BootstrapConfig(self.B, self.mode)
            except InvalidParameterError as exc:
                raise InvalidDesignError(f"task {task.name}: {exc}") from exc
        for d, phi in product(self.d_values, self.phi_values):
            try:
                ArfimaParams(d=d, phi=phi, law=self.law, dof=self.dof)
            except InvalidParameterError as exc:
                raise InvalidDesignError(f"cell d={d}, phi={phi}: {exc}") from exc

    def cells(self):
        """(index, (T, d, phi)) pairs in lexicographic design order."""
        return list(
            enumerate(product(self.T_values, self.d_values, self.phi_values))
        )


@dataclass
class McCellResult:
    """Aggregates of one (cell, estimator task) pair.

    ``wall_time`` is the cell's time in seconds, the same for each of its
    tasks: summed over the jobs that hold the cell, its equal share of a
    job's simulation and plain-task estimates plus the time of its own
    bootstrap tasks.
    """

    T: int
    d: float
    phi: float
    task: EstimatorTask
    stats: dict
    R_effective: int
    seed: int
    wall_time: float = 0.0


def simulation_stream(seed, cell_index, r):
    """Stream feeding the simulated series of one replication.

    `seed` is the design's seed or its root SeedSequence; both give the
    same stream.
    """
    return substream(seed, cell_index, r, 0)


def task_stream(seed, cell_index, r, task_index):
    """Stream feeding the bootstrap of one estimator task (`seed` as above)."""
    return substream(seed, cell_index, r, 1 + task_index)


def _run_task(y, task, design, stream):
    """Point estimate, intervals and stop flag of one bootstrap task on y.

    Every task is one run of :func:`iterate_bias_correct`: SSR under the
    stochastic stopping rules, BBA(K) as K fixed passes, and an HPD task
    without correction as one fixed pass whose point is the plain
    estimate.
    """
    spec = EstimatorSpec(task.family, task.P, design.bandwidth_exponent)
    N = bandwidth(y.size, design.bandwidth_exponent, task.P)
    config = BootstrapConfig(
        B=design.B, innovation_mode=design.mode, rng_stream=stream
    )
    ssr = task.correction == "ssr"
    trace = iterate_bias_correct(
        y,
        spec,
        config,
        max_iter=design.max_iter if ssr else max(task.K, 1),
        fixed=not ssr,
        alpha_lower=design.alpha_lower,
        alpha_upper=design.alpha_upper,
    )
    return {
        "point": trace.d_initial if task.correction == "none" else trace.final,
        "asym_half": _Z975 * asymptotic_sd(spec, N),
        "hpd": trace.outcomes[0].hpd if task.hpd else None,
        "detstop": trace.stop_reason == "deterministic",
    }


def _plain_task(Y, task, design):
    """Per-row results of a task without bootstrap on the series block Y."""
    spec = EstimatorSpec(task.family, task.P, design.bandwidth_exponent)
    N = bandwidth(Y.shape[-1], design.bandwidth_exponent, task.P)
    half = _Z975 * asymptotic_sd(spec, N)
    values, ok, _ = _estimate_rows(Y, spec)
    return [
        {"point": float(d), "asym_half": half, "hpd": None, "detstop": False}
        if good
        else {"failed": _DEGENERATE}
        for d, good in zip(values, ok)
    ]


def _block_worker(args):
    """Simulate replications start..stop-1 of a group of cells and run every task.

    Every (cell, replication) draws its deviates from its own simulation
    stream, and one batched Durbin-Levinson sweep turns them into the
    job's series. A plain task estimates all of the job's rows in one
    batched call; a bootstrap task runs per (cell, replication).

    Returns a (cell index, columns, wall time) triple per cell: one list
    of per-replication results per task, and the cell's equal share of
    the simulation and plain tasks plus the time of its bootstrap tasks.
    """
    design, T, cells, start, stop = args
    began = time.perf_counter()
    n = stop - start
    root = as_seed_sequence(design.seed)
    params = [
        ArfimaParams(d=d_true, phi=phi, sigma2=1.0, law=design.law, dof=design.dof)
        for _, (_, d_true, phi) in cells
    ]
    Z = np.empty((len(cells), n, T))
    for g, (cell_index, _) in enumerate(cells):
        for i, r in enumerate(range(start, stop)):
            rng = np.random.default_rng(simulation_stream(root, cell_index, r))
            Z[g, i] = _standardized_deviates(params[g], T, rng)
    Y = _simulate_rows(params, Z)
    columns = [[] for _ in cells]
    own = [0.0] * len(cells)
    for ti, task in enumerate(design.estimators):
        if not task.needs_bootstrap:
            rows = _plain_task(Y.reshape(-1, T), task, design)
            for g, column in enumerate(columns):
                column.append(rows[g * n : (g + 1) * n])
            continue
        for g, (cell_index, _) in enumerate(cells):
            began_task = time.perf_counter()
            column = []
            for r, y in zip(range(start, stop), Y[g]):
                stream = task_stream(root, cell_index, r, ti)
                try:
                    column.append(_run_task(y, task, design, stream))
                except LongmemError as exc:
                    column.append({"failed": str(exc)})
            columns[g].append(column)
            own[g] += time.perf_counter() - began_task
    shared = (time.perf_counter() - began - sum(own)) / len(cells)
    return [
        (cell_index, cell_columns, shared + seconds)
        for (cell_index, _), cell_columns, seconds in zip(cells, columns, own)
    ]


def _jobs(design):
    """(design, T, cells, start, stop) of every job, in design order.

    A job is one replication block start..stop-1 of a group of cells that
    share T; `cells` holds their (index, (T, d, phi)) pairs. The block is
    up to 16 replications when the design has a bootstrap task, enough
    for one simulation sweep to serve many rows while a design of a few
    hundred replications still spreads over the workers, and about
    ``_BLOCK_VALUES`` simulated values per cell otherwise. Whole cell
    blocks are grouped in design order, up to about ``_JOB_VALUES``
    values per job; a cell's block is never split to fit more cells.
    The layout depends on the design alone, so results do not depend on
    the number of workers.
    """
    boot = any(task.needs_bootstrap for task in design.estimators)
    jobs = []
    for T, group in groupby(design.cells(), key=lambda cell: cell[1][0]):
        group = tuple(group)
        rows = 16 if boot else max(1, _BLOCK_VALUES // T)
        for start in range(0, design.R, rows):
            stop = min(start + rows, design.R)
            size = max(1, _JOB_VALUES // ((stop - start) * T))
            for first in range(0, len(group), size):
                jobs.append((design, T, group[first : first + size], start, stop))
    return jobs


def _aggregate_cell(design, cell, columns, wall_time):
    T, d_true, phi = cell
    out = []
    for task, rows in zip(design.estimators, columns):
        ok = [row for row in rows if "failed" not in row]
        n_failed = len(rows) - len(ok)
        stats = {}
        if ok:
            pts = np.array([row["point"] for row in ok])
            err = pts - d_true
            stats["bias"] = float(err.mean())
            stats["mse"] = float(np.mean(err ** 2))
            halves = np.array([row["asym_half"] for row in ok])
            lo = pts - halves
            hi = pts + halves
            stats["asym_coverage"] = float(np.mean((lo <= d_true) & (d_true <= hi)))
            stats["asym_length"] = float(np.mean(2.0 * halves))
            if task.hpd:
                los = np.array([row["hpd"][0] for row in ok])
                his = np.array([row["hpd"][1] for row in ok])
                stats["hpd_coverage"] = float(
                    np.mean((los <= d_true) & (d_true <= his))
                )
                stats["hpd_length"] = float(np.mean(his - los))
            if task.correction == "ssr":
                keep = np.array([not row["detstop"] for row in ok])
                stats["n_detstop"] = float(len(ok) - int(keep.sum()))
                if keep.any():
                    sub = err[keep]
                    stats["bias_xdet"] = float(sub.mean())
                    stats["mse_xdet"] = float(np.mean(sub ** 2))
        stats["n_failed"] = float(n_failed)
        out.append(
            McCellResult(
                T=T,
                d=d_true,
                phi=phi,
                task=task,
                stats=stats,
                R_effective=len(ok),
                seed=design.seed,
                wall_time=wall_time,
            )
        )
    return out


def run_design(design, threads=1):
    """Run every cell of a design and aggregate per estimator task.

    Parameters
    ----------
    design : McDesign
    threads : int
        Worker processes; results are identical for any value. One pool
        serves the whole design; 1 runs every job in this process.

    Returns
    -------
    list of McCellResult
        One entry per (cell, estimator task), in design order.
    """
    jobs = _jobs(design)
    if threads <= 1:
        done = list(map(_block_worker, jobs))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(_block_worker, jobs))
    columns = {i: [[] for _ in design.estimators] for i, _ in design.cells()}
    wall = dict.fromkeys(columns, 0.0)
    for job_cells in done:
        for cell_index, job_columns, seconds in job_cells:
            for column, rows in zip(columns[cell_index], job_columns):
                column.extend(rows)
            wall[cell_index] += seconds
    results = []
    for cell_index, cell in design.cells():
        results.extend(
            _aggregate_cell(design, cell, columns[cell_index], wall[cell_index])
        )
    return results


_STAT_ORDER = [
    "bias",
    "mse",
    "hpd_coverage",
    "hpd_length",
    "asym_coverage",
    "asym_length",
    "bias_xdet",
    "mse_xdet",
    "n_detstop",
    "n_failed",
]


def _result_rows(results):
    for res in results:
        for stat in _STAT_ORDER:
            if stat not in res.stats:
                continue
            yield [
                repr(res.T),
                repr(res.d),
                repr(res.phi),
                res.task.family.upper(),
                repr(res.task.P),
                res.task.correction,
                repr(res.task.K),
                stat,
                repr(res.stats[stat]),
                repr(res.R_effective),
                repr(res.seed),
            ]


def emit_tables(results, fmt="csv", path=None):
    """Write aggregated results as CSV or as aligned text tables.

    CSV columns are exactly T,d,phi,estimator,P,correction,K,statistic,
    value,R_effective,seed, with full-precision float values so a
    re-ingested file reproduces the aggregates bit for bit.

    Parameters
    ----------
    results : list of McCellResult
    fmt : {'csv', 'aligned-text'}
    path : str
        Destination file.

    Returns
    -------
    str
        The path written.
    """
    if not results:
        raise InvalidParameterError("no results to emit")
    if fmt not in ("csv", "aligned-text"):
        raise InvalidParameterError("format must be 'csv' or 'aligned-text'")
    if path is None:
        raise InvalidParameterError("a destination path is required")
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(_result_rows(results))
        return path
    with open(path, "w") as fh:
        fh.write(_aligned_text(results))
    return path


def _aligned_text(results):
    tasks = []
    for res in results:
        if res.task.name not in tasks:
            tasks.append(res.task.name)
    t_values = sorted({res.T for res in results})
    lines = []
    for stat in ("bias", "mse", "hpd_coverage", "hpd_length"):
        table = {
            (res.T, res.d, res.phi, res.task.name): res.stats[stat]
            for res in results
            if stat in res.stats
        }
        if not table:
            continue
        width = max(16, max(len(name) for name in tasks) + 2)
        for T in t_values:
            keys = sorted({(d, p) for (t, d, p, _) in table if t == T})
            if not keys:
                continue
            lines.append(f"{stat.upper()}  (T = {T})")
            header = f"{'d':>6} {'phi':>6}" + "".join(
                f"{name:>{width}}" for name in tasks
            )
            lines.append(header)
            for d, p in keys:
                cells = []
                for name in tasks:
                    val = table.get((T, d, p, name))
                    cells.append(f"{val:{width}.4f}" if val is not None else " " * width)
                lines.append(f"{d:6.2f} {p:6.2f}" + "".join(cells))
            lines.append("")
    return "\n".join(lines) + "\n"


def read_results_csv(path):
    """Read back a CSV written by :func:`emit_tables`.

    Returns a list of dicts with the same types as the in-memory rows
    (ints for T/P/K/R_effective/seed, floats for d/phi/value).
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise InvalidParameterError("unrecognized results header")
        for rec in reader:
            rows.append(
                {
                    "T": int(rec["T"]),
                    "d": float(rec["d"]),
                    "phi": float(rec["phi"]),
                    "estimator": rec["estimator"],
                    "P": int(rec["P"]),
                    "correction": rec["correction"],
                    "K": int(rec["K"]),
                    "statistic": rec["statistic"],
                    "value": float(rec["value"]),
                    "R_effective": int(rec["R_effective"]),
                    "seed": int(rec["seed"]),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Config-file front end (used by the command line)
# ---------------------------------------------------------------------------

_LIST_KEYS = {"T", "d", "phi", "estimators"}
_SCALAR_KEYS = {
    "R",
    "B",
    "mode",
    "law",
    "seed",
    "bandwidth_exp",
    "max_iter",
    "hpd_tails",
}


def load_design(path, default_seed=None):
    """Parse a key = value config file into an McDesign.

    Recognized keys: T, d, phi, R, B, estimators, mode, law, seed,
    bandwidth_exp, max_iter, hpd_tails. Lists are comma separated;
    '#' starts a comment.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(
                    f"{path}:{lineno}: expected 'key = value'"
                )
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _LIST_KEYS | _SCALAR_KEYS:
                raise InvalidParameterError(f"{path}:{lineno}: unknown key '{key}'")
            values[key] = val.strip()
    for key in ("T", "d", "phi", "R", "estimators"):
        if key not in values:
            raise InvalidParameterError(f"config is missing required key '{key}'")

    def _floats(key):
        return tuple(float(tok) for tok in values[key].split(","))

    law, dof = _parse_law(values.get("law", "gaussian"))
    seed = values.get("seed")
    if seed is None:
        seed = default_seed if default_seed is not None else 0
    alpha_lower, alpha_upper = 0.025, 0.025
    if "hpd_tails" in values:
        parts = values["hpd_tails"].split(",")
        if len(parts) != 2:
            raise InvalidParameterError("hpd_tails needs two comma-separated masses")
        alpha_lower, alpha_upper = float(parts[0]), float(parts[1])
    tasks = tuple(
        parse_estimator_token(tok) for tok in values["estimators"].split(",")
    )
    return McDesign(
        T_values=tuple(int(float(t)) for t in values["T"].split(",")),
        d_values=_floats("d"),
        phi_values=_floats("phi"),
        R=int(values["R"]),
        estimators=tasks,
        B=int(values.get("B", 0)),
        mode=values.get("mode", "parametric"),
        law=law,
        dof=dof,
        seed=int(seed),
        bandwidth_exponent=float(values.get("bandwidth_exp", 0.7)),
        max_iter=int(values.get("max_iter", 10)),
        alpha_lower=alpha_lower,
        alpha_upper=alpha_upper,
    )
