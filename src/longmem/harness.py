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
on its own task stream. These units of a job run in lockstep rounds:
round k runs the k-th passes of every unit still correcting as one
batched pass, whose blocks of draws run on up to two threads (no more
than the process's CPUs). A unit's values do not depend on the units or
threads it runs with. The layout depends on the design alone, and one
pool of no more forked worker processes than jobs serves every job of
the design, each worker taking the next job in order from one queue
(:func:`_run_pool`). Pool workers and a round's threads are placed by
one rule, :func:`bootstrap._shares`: with no more of them than CPUs,
each runs on its own share, so two workers on a two-CPU machine run
their rounds on one thread each, while a one-job design, or any design
on a platform without ``os.fork``, runs in this process and a lone last
job gets both CPUs. A job returns
one columnar record per (cell, task): the point estimates, NaN where a
row failed, the failure reason of each failed row, and the HPD bounds
or the deterministic stops of the tasks that have them; a cell's
statistics reduce its records joined in job order.
"""

import csv
import os
import pickle
from dataclasses import MISSING, dataclass, fields
from itertools import groupby, product
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .arfima import ArfimaParams, _parse_law, _simulate_rows
from .bootstrap import (
    _BLOCK_VALUES,
    _MODES,
    BootstrapConfig,
    _allowed_cpus,
    _corrections,
    _place,
    _run_rounds,
    _shares,
    _Unit,
)
from .estimators import _DEGENERATE, EstimatorSpec, _estimate_rows, asymptotic_sd
from .exceptions import (
    InvalidDesignError,
    InvalidParameterError,
    LongmemError,
    _check_flag,
    _check_integer,
)
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

# Bytes of one job index in a pool's hand-out pipe.
_TICKET = 4

# The signal that kills a pool worker: SIGKILL, 9 wherever os.fork exists.
_SIGKILL = 9

# The results.csv columns in file order, each with the type it reads back as.
_COLUMNS = {
    "T": int,
    "d": float,
    "phi": float,
    "estimator": str,
    "P": int,
    "correction": str,
    "K": int,
    "statistic": str,
    "value": float,
    "R_effective": int,
    "seed": int,
}


@dataclass(frozen=True)
class EstimatorTask:
    """One estimator column of the experiment.

    correction 'none' is the plain estimator, 'bba' applies the bootstrap
    bias adjustment K times, 'ssr' iterates under the stochastic stopping
    rules. K is 0 unless the correction is 'bba'. ``hpd``, a bool, also
    records the 95% bootstrap HPD interval. family and P are checked as
    :class:`EstimatorSpec` checks them.
    """

    family: str
    P: int
    correction: str = "none"
    K: int = 0
    hpd: bool = False

    def __post_init__(self):
        EstimatorSpec(self.family, self.P)
        if self.correction not in ("none", "bba", "ssr"):
            raise InvalidParameterError("correction must be none, bba, or ssr")
        _check_integer(self.K, "K", least=1 if self.correction == "bba" else None)
        if self.correction != "bba" and self.K != 0:
            raise InvalidParameterError(f"K must be 0 with correction {self.correction}")
        _check_flag(self.hpd, "hpd")

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
    """Monte Carlo configuration grid.

    ``law`` is the innovation law token of :class:`ArfimaParams`. Every
    default here is the default of a design file that omits the key. The
    counts (each T, R, B and max_iter) and the seed must be integers:
    64.7 and 2.0 are refused, not truncated. R and max_iter are at least
    1, the seed at least 0, and every (d, phi) cell is checked as
    :class:`ArfimaParams` checks it, before d and phi become floats. The
    estimators are EstimatorTasks (:func:`parse_estimator_token`).
    """

    T_values: tuple
    d_values: tuple
    phi_values: tuple
    R: int
    estimators: tuple
    B: int = 0
    mode: str = "parametric"
    law: str = "gaussian"
    seed: int = 0
    bandwidth_exponent: float = 0.7
    max_iter: int = 10

    def __post_init__(self):
        for t in self.T_values:
            _check_integer(t, "T", InvalidDesignError)
        for name, least in (("R", 1), ("B", None), ("max_iter", 1), ("seed", 0)):
            _check_integer(getattr(self, name), name, InvalidDesignError, least)
        for d, phi in product(self.d_values, self.phi_values):
            try:
                ArfimaParams(d=d, phi=phi, law=self.law)
            except InvalidParameterError as exc:
                raise InvalidDesignError(f"cell d={d}, phi={phi}: {exc}") from exc
        object.__setattr__(self, "T_values", tuple(int(t) for t in self.T_values))
        object.__setattr__(self, "d_values", tuple(float(d) for d in self.d_values))
        object.__setattr__(
            self, "phi_values", tuple(float(p) for p in self.phi_values)
        )
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for task in self.estimators:
            if not isinstance(task, EstimatorTask):
                raise InvalidDesignError(
                    f"estimator {task!r} is not an EstimatorTask; see parse_estimator_token"
                )
        # A design without cells or tasks would run nothing; a repeated value
        # would run as a second cell or task whose rows no reader of the
        # results could tell from the first.
        for what, values in (
            ("T", self.T_values),
            ("d", self.d_values),
            ("phi", self.phi_values),
            ("task", [task.name for task in self.estimators]),
        ):
            if not values:
                raise InvalidDesignError(f"need at least one {what}")
            if len(set(values)) < len(values):
                raise InvalidDesignError(f"repeated {what} in {list(values)}")
        if self.mode not in _MODES:
            raise InvalidDesignError(f"mode must be one of {_MODES}")
        for task in self.estimators:
            try:
                EstimatorSpec(task.family, task.P, self.bandwidth_exponent)
                for T in self.T_values:
                    bandwidth(T, self.bandwidth_exponent, task.P)
                if task.needs_bootstrap:
                    BootstrapConfig(self.B, self.mode)
            except InvalidParameterError as exc:
                raise InvalidDesignError(f"task {task.name}: {exc}") from exc

    def cells(self):
        """(index, (T, d, phi)) pairs in lexicographic design order."""
        return list(
            enumerate(product(self.T_values, self.d_values, self.phi_values))
        )


@dataclass
class McCellResult:
    """Aggregates of one (cell, estimator task) pair."""

    T: int
    d: float
    phi: float
    task: EstimatorTask
    stats: dict
    R_effective: int
    seed: int


def simulation_stream(seed, cell_index, r):
    """Stream feeding the simulated series of one replication.

    `seed` is the design's seed or its root SeedSequence; both give the
    same stream.
    """
    return substream(seed, cell_index, r, 0)


def task_stream(seed, cell_index, r, task_index):
    """Stream feeding the bootstrap of one estimator task (`seed` as above)."""
    return substream(seed, cell_index, r, 1 + task_index)


class _Record(NamedTuple):
    """The rows of one task in one cell, in replication order.

    ``point`` is NaN where a row failed; ``reasons`` holds each failed
    row's reason. ``hpd`` and ``detstop`` are None but in HPD and SSR tasks.
    """

    point: np.ndarray
    reasons: list
    hpd: np.ndarray = None
    detstop: np.ndarray = None


def _joined(records):
    """One record of the rows of `records`, in their order."""
    point, reasons, *kept = zip(*records)
    kept = [None if column[0] is None else np.concatenate(column) for column in kept]
    return _Record(np.concatenate(point), sum(reasons, []), *kept)


def _task_unit(y, task, design, stream):
    """The round unit of one bootstrap task on y (see :func:`bootstrap._run_rounds`).

    Every task is the search of :func:`iterate_bias_correct`: SSR under
    the stochastic stopping rules, BBA(K) as K fixed passes, and an HPD
    task without correction as one fixed pass. The unit's result is the
    search's whole IterationTrace, which :func:`_bootstrap_record` reads.
    """
    spec = EstimatorSpec(task.family, task.P, design.bandwidth_exponent)
    config = BootstrapConfig(B=design.B, innovation_mode=design.mode, rng_stream=stream)
    ssr = task.correction == "ssr"
    max_iter = design.max_iter if ssr else max(task.K, 1)
    return _Unit(y, spec, config, _corrections(y, spec, config, max_iter, not ssr))


def _bootstrap_record(task, traces):
    """Record of a bootstrap task from its units' IterationTraces, in replication order.

    A row's point is the plain estimate of an HPD task without correction
    and the corrected value otherwise; a LongmemError fails its row.
    """
    reasons = [str(trace) for trace in traces if isinstance(trace, LongmemError)]
    point, hpd, detstop = zip(*(
        (np.nan, (np.nan, np.nan), False) if isinstance(trace, LongmemError) else (
            trace.d_initial if task.correction == "none" else trace.final,
            trace.outcomes[0].hpd,
            trace.stop_reason == "deterministic",
        )
        for trace in traces
    ))
    hpd = np.array(hpd) if task.hpd else None
    detstop = np.array(detstop) if task.correction == "ssr" else None
    return _Record(np.array(point), reasons, hpd, detstop)


def _block_worker(args):
    """Simulate replications start..stop-1 of a group of cells and run every task.

    Every (cell, replication) draws its deviates from a generator on its
    own simulation stream (:func:`arfima._simulate_rows`). A plain task
    estimates all of the job's rows in one call, NaN where a row failed.
    A bootstrap task runs per (cell, replication): these units of every
    bootstrap task run together in lockstep rounds
    (:func:`bootstrap._run_rounds`), whose round k runs the k-th passes
    of every unit still searching, and hand back their IterationTraces.

    Returns one list per cell, in the job's cell order, holding one
    :class:`_Record` per task in design order.
    """
    design, T, cells, start, stop = args
    n = stop - start
    root = as_seed_sequence(design.seed)
    params = [
        ArfimaParams(d=d_true, phi=phi, sigma2=1.0, law=design.law)
        for _, (_, d_true, phi) in cells
    ]
    Y = _simulate_rows(
        params, n, T,
        lambda g, i: np.random.default_rng(simulation_stream(root, cells[g][0], start + i)),
    )
    units = [
        _task_unit(Y[g, i], task, design, task_stream(root, cell_index, start + i, ti))
        for ti, task in enumerate(design.estimators)
        if task.needs_bootstrap
        for g, (cell_index, _) in enumerate(cells)
        for i in range(n)
    ]
    done = iter(_run_rounds(units))  # in the order of the loop below
    records = [[] for _ in cells]
    for task in design.estimators:
        if not task.needs_bootstrap:
            spec = EstimatorSpec(task.family, task.P, design.bandwidth_exponent)
            point = _estimate_rows(Y.reshape(-1, T), spec)[0].reshape(len(cells), n)
            for cell_records, row in zip(records, point):
                failed = int(np.isnan(row).sum())
                cell_records.append(_Record(row, [_DEGENERATE] * failed))
            continue
        for cell_records in records:
            cell_records.append(_bootstrap_record(task, [next(done) for _ in range(n)]))
    return records


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


def _aggregate_cell(design, cell, task, rec, half):
    """Aggregates of one task in one cell; `half` is its asymptotic 95% half-width."""
    T, d_true, phi = cell
    ok = ~np.isnan(rec.point)
    pts = rec.point[ok]
    stats = {}
    if pts.size:
        err = pts - d_true
        stats["bias"] = float(err.mean())
        stats["mse"] = float(np.mean(err ** 2))
        lo = pts - half
        hi = pts + half
        stats["asym_coverage"] = float(np.mean((lo <= d_true) & (d_true <= hi)))
        stats["asym_length"] = 2.0 * half
        if task.hpd:
            los, his = rec.hpd[ok].T
            stats["hpd_coverage"] = float(np.mean((los <= d_true) & (d_true <= his)))
            stats["hpd_length"] = float(np.mean(his - los))
        if task.correction == "ssr":
            keep = ~rec.detstop[ok]
            stats["n_detstop"] = float(pts.size - int(keep.sum()))
            if keep.any():
                sub = err[keep]
                stats["bias_xdet"] = float(sub.mean())
                stats["mse_xdet"] = float(np.mean(sub ** 2))
    stats["n_failed"] = float(len(rec.reasons))
    return McCellResult(T, d_true, phi, task, stats, int(pts.size), design.seed)


def _serve(jobs, moves, share, tickets, out):
    """A pool worker: run, on `share`, the jobs whose indices it reads from
    `tickets`, job i moved first to ``moves[i]`` (:func:`bootstrap._place`),
    then write one pickle to `out`: its (index, records) pairs, or the
    exception that a job raised."""
    try:
        _place(share)
        done = []
        # Every write to `tickets` holds whole records, so a read takes one whole.
        while ticket := os.read(tickets, _TICKET):
            i = int.from_bytes(ticket, "little")
            _place(moves[i])
            done.append((i, _block_worker(jobs[i])))
    except BaseException as exc:  # raised again by the parent
        done = exc
    data = pickle.dumps(done)
    with open(out, "wb") as fh:
        fh.write(data)


def _run_pool(jobs, workers):
    """Run `jobs` on `workers` forked processes; their results in job order.

    This process fills one pipe with every job index in job order, so
    jobs start in order and a worker that finishes one reads the next
    (:func:`_serve`). It reads each worker's result pipe to its end and
    reaps every worker before it returns or raises: it raises a worker's
    exception, or a RuntimeError naming the exit status of a worker that
    ended without a result, and any exception of its own, a
    KeyboardInterrupt too, kills and reaps the workers still alive. A
    worker leaves with ``os._exit``, never returning into the caller; it
    is a copy of this thread alone, so no other thread should hold a lock
    that the jobs need while the pool starts.

    Left to the kernel, two workers often shared one CPU of a two-CPU
    machine while the other stood idle, so worker w runs on share w of
    this thread's CPUs (:func:`bootstrap._shares`), and its rounds of
    passes on no more threads than its share has CPUs. The last
    ``len(jobs) % workers`` jobs start after every other job, while the
    other workers run out of work: they deal the CPUs out among
    themselves again, so a lone last job takes them all. With more
    workers than CPUs nothing is placed, and a worker whose placement
    fails runs where the kernel puts it (:func:`bootstrap._place`). This
    process keeps its own CPUs, and placement never changes a value.
    """
    cpus = _allowed_cpus()
    shares = _shares(cpus, workers)
    tail = len(jobs) % workers if shares[0] is not None else 0
    moves = [None] * (len(jobs) - tail) + _shares(cpus, tail)
    tickets, hand_out = os.pipe()
    fds = [tickets, hand_out]  # opened here and not yet closed

    def close(fd):
        fds.remove(fd)
        os.close(fd)

    pipes = {}  # the result pipe of each worker not yet reaped, by process id
    try:
        for share in shares:
            results, out = os.pipe()
            fds += [results, out]
            pid = os.fork()
            if pid == 0:  # the worker
                status = 1
                try:
                    os.close(hand_out)
                    _serve(jobs, moves, share, tickets, out)
                    status = 0
                finally:
                    os._exit(status)
            pipes[pid] = results
            close(out)
        close(tickets)
        queue = b"".join(i.to_bytes(_TICKET, "little") for i in range(len(jobs)))
        try:
            while queue:
                queue = queue[os.write(hand_out, queue):]
        except BrokenPipeError:  # every worker has ended; their statuses tell why
            pass
        close(hand_out)
        done = [None] * len(jobs)
        failures = []
        for pid in list(pipes):
            with open(pipes[pid], "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            result = pickle.loads(data) if status == 0 else RuntimeError(
                f"pool worker {pid} ended without a result (exit status {status})"
            )
            if isinstance(result, BaseException):
                failures.append(result)
            else:
                for i, records in result:
                    done[i] = records
        if failures:
            raise failures[0]
        return done
    finally:
        for pid in pipes:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def run_design(design, threads=1):
    """Run every cell of a design and aggregate per estimator task.

    Parameters
    ----------
    design : McDesign
    threads : int
        Worker processes, an integer >= 1; results are identical for any
        value. One pool of min(threads, jobs) forked workers serves the
        whole design, each worker on its own share of this process's CPUs
        where there are enough of them (:func:`_run_pool`); with one
        worker, or where ``os.fork`` does not exist, every job runs in
        this process.

    Returns
    -------
    list of McCellResult
        One entry per (cell, estimator task), in design order.
    """
    _check_integer(threads, "threads", least=1)
    jobs = _jobs(design)
    workers = min(threads, len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        done = _run_pool(jobs, workers)
    else:
        done = list(map(_block_worker, jobs))
    parts = {i: [] for i, _ in design.cells()}
    for (_, _, cells, _, _), job_records in zip(jobs, done):
        for (cell_index, _), records in zip(cells, job_records):
            parts[cell_index].append(records)
    halves = {}
    for T, task in product(design.T_values, design.estimators):
        spec = EstimatorSpec(task.family, task.P, design.bandwidth_exponent)
        N = bandwidth(T, design.bandwidth_exponent, task.P)
        halves[T, task] = _Z975 * asymptotic_sd(spec, N)
    return [
        _aggregate_cell(design, cell, task, _joined(column), halves[cell[0], task])
        for i, cell in design.cells()
        for task, column in zip(design.estimators, zip(*parts[i]))
    ]


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
    """The results.csv rows, each value written as its column reads it back,
    so a numpy integer count or seed is written as the integer it holds."""
    for res in results:
        for stat in _STAT_ORDER:
            if stat in res.stats:
                row = (res.T, res.d, res.phi, res.task.family.upper(), res.task.P,
                       res.task.correction, res.task.K, stat, res.stats[stat],
                       res.R_effective, res.seed)
                yield [str(kind(value)) for kind, value in zip(_COLUMNS.values(), row)]


def emit_tables(results, fmt, path):
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
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
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
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(_COLUMNS):
            raise InvalidParameterError("unrecognized results header")
        return [
            {name: read(rec[name]) for name, read in _COLUMNS.items()}
            for rec in reader
        ]


# ---------------------------------------------------------------------------
# Config-file front end (used by the command line)
# ---------------------------------------------------------------------------

def _number(kind, noun):
    """Parser of the `kind` value that the text of a design key spells.

    Only text that `kind` reads parses, so '64.0', '1e2' and '1.5' are
    not integers; the message of a rejection names the key.
    """

    def parse(key, text):
        try:
            return kind(text)
        except ValueError:
            raise InvalidParameterError(f"{key} must be {noun}, got '{text.strip()}'") from None

    return parse


_integer = _number(int, "an integer")
_real = _number(float, "a number")


def _listed(parse):
    """Parser of a comma separated list whose items `parse` reads."""
    return lambda key, text: tuple(parse(key, item) for item in text.split(","))


def _text(key, text):
    return text


def _law(key, text):
    _parse_law(text)
    return text


def _tasks(key, text):
    try:
        return tuple(map(parse_estimator_token, text.split(",")))
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{key}: {exc}") from None


# Each design key: the McDesign field it sets and the parser of its text.
_KEYS = {
    "T": ("T_values", _listed(_integer)),
    "d": ("d_values", _listed(_real)),
    "phi": ("phi_values", _listed(_real)),
    "R": ("R", _integer),
    "estimators": ("estimators", _tasks),
    "B": ("B", _integer),
    "mode": ("mode", _text),
    "law": ("law", _law),
    "seed": ("seed", _integer),
    "bandwidth_exp": ("bandwidth_exponent", _real),
    "max_iter": ("max_iter", _integer),
}

# McDesign fields without a default: their keys must be in every file.
_REQUIRED = {f.name for f in fields(McDesign) if f.default is MISSING}


def load_design(path):
    """Parse a key = value config file into an McDesign.

    Recognized keys: T, d, phi, R, B, estimators, mode, law, seed,
    bandwidth_exp, max_iter, each at most once. Lists are comma
    separated; '#' starts a comment. A key the file omits takes the
    McDesign default.
    """
    values, lines = {}, {}
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
            if key not in _KEYS:
                raise InvalidParameterError(f"{path}:{lineno}: unknown key '{key}'")
            if key in values:
                raise InvalidParameterError(
                    f"{path}:{lineno}: key '{key}' repeated (first on line {lines[key]})"
                )
            values[key], lines[key] = val.strip(), lineno
    given = {}
    for key, (name, parse) in _KEYS.items():
        if key in values:
            given[name] = parse(key, values[key])
        elif name in _REQUIRED:
            raise InvalidParameterError(f"config is missing required key '{key}'")
    return McDesign(**given)
