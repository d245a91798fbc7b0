"""Pre-filtered sieve bootstrap: draws, bias correction, HPD intervals.

The scheme fractionally differences the data by a preliminary memory
value d_f, fits a long autoregression to the filtered series, resamples
paths from that sieve, and integrates each path back with the inverse
filter. Averaging the estimator over the draws yields a bootstrap bias
estimate; iterating the correction with fresh pre-filters sharpens it,
with stochastic stopping rules deciding when to quit.
"""

import math
import numbers
import os
import threading
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .arsieve import (
    _aic_burg_fit,
    _impulse_response,
    _offset_weights,
    _presample_offsets,
    ar_residuals,
    default_max_order,
)
from .estimators import (
    _DEGENERATE,
    SEARCH_HI,
    SEARCH_LO,
    _estimate_ordinates,
    _usable,
    asymptotic_sd,
    estimate,
)
from .exceptions import EstimationFailedError, InvalidParameterError
from .fracdiff import _causal_filter, _causal_spectrum, _fft_length, apply_frac_filter
from .spectral import _ordinates, bandwidth
from .streams import as_seed_sequence, generator_at

__all__ = [
    "BootstrapConfig",
    "SieveFit",
    "BootstrapOutcome",
    "IterationTrace",
    "IterationRecord",
    "prefilter_sieve",
    "bias_correct",
    "stopping_thresholds",
    "iterate_bias_correct",
    "hpd_interval",
]

# Draw values per block of draws that are built and filtered together. A
# pass splits its B draws into the fewest blocks of at most
# _BLOCK_VALUES // T draws (one draw when T is larger) and gives them
# even sizes. Each thread of a pass allocates one workspace for a block
# and every block it runs writes into it, so the working memory of a pass
# is bounded at any T, B and CPU count: per thread, at most _BLOCK_VALUES
# innovations (one row when T is larger), and under four times as many
# values in each FFT buffer (the FFT length is below 4T). A thread also
# estimates its draws in calls of at most _BLOCK_VALUES ordinates.
_BLOCK_VALUES = 2 ** 15

# Threads that one bootstrap pass, or the bootstrap tasks of one Monte
# Carlo job, run on at most, each with its own workspace. Two is the
# count whose speed and peak RSS were measured.
_PASS_THREADS = 2

_MODES = ("parametric", "nonparametric")

# Fewest draws of an HPD interval, which the first pass of every
# correction builds.
_MIN_DRAWS = 10

_NORMAL = NormalDist()


def _check_integer(value, name, error=InvalidParameterError):
    """Refuse a count that is not an integer, such as 20.0, with `error`."""
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


@dataclass
class BootstrapConfig:
    """Settings of the sieve bootstrap.

    innovation_mode 'parametric' draws Gaussian innovations scaled by the
    residual standard deviation; 'nonparametric' resamples the
    standardized residuals with replacement. ``rng_stream`` is a
    SeedSequence (or int seed). Pass k of a correction draws from two
    child streams: (k, 0) fills the B rows of innovations in draw order
    and (k, 1) gives the B starts of the seeding blocks. Draws are
    reproducible and depend neither on how the pass is blocked nor on how
    many threads run it. The first
    pass of every correction builds an HPD interval, so B must be at
    least 10.
    """

    B: int
    innovation_mode: str = "parametric"
    rng_stream: object = 0

    def __post_init__(self):
        _check_integer(self.B, "B")
        if self.B < _MIN_DRAWS:
            raise InvalidParameterError(
                f"need at least B = {_MIN_DRAWS} bootstrap draws"
            )
        if self.innovation_mode not in _MODES:
            raise InvalidParameterError(f"innovation mode must be one of {_MODES}")
        self.rng_stream = as_seed_sequence(self.rng_stream)


@dataclass
class SieveFit:
    """Filtered series and its fitted sieve, reused across all B draws."""

    d_f: float
    filtered: np.ndarray
    fit: object
    residuals: object


@dataclass
class BootstrapOutcome:
    """Result of one bias-correction pass."""

    draws: np.ndarray
    d_f: float
    d_hat: float
    bias_hat: float
    d_tilde: float
    hpd: tuple = None


@dataclass
class IterationRecord:
    """One step of the iterative correction."""

    k: int
    d_current: float
    bias_hat: float
    d_next: float
    tau1: float
    tau2: float
    crit1: float
    crit2: float
    stop_reason: str = None


@dataclass
class IterationTrace:
    """Full history of the iterative bias correction."""

    records: list = field(default_factory=list)
    final: float = math.nan
    stop_reason: str = None
    d_initial: float = math.nan
    outcomes: list = field(default_factory=list)


def prefilter_sieve(y, d_f):
    """Filter the data by d_f and fit the autoregressive sieve once.

    The sample mean is removed before the fractional filter, so the
    correction does not depend on the level of the series: the truncated
    filter would turn a level c into the deterministic term
    c * (a_0 + ... + a_t), which the sieve would fit and the seeding
    blocks would copy into the draws. The sieve order is chosen by AIC
    below the cap floor((log T)^2) (and T/4), and the parameters come
    from Burg's algorithm; one Burg sweep to the cap serves both.
    """
    y = np.asarray(y, dtype=float)
    w_f = apply_frac_filter(y - y.mean(), d_f)
    fit = _aic_burg_fit(w_f, default_max_order(y.size))
    res = ar_residuals(w_f, fit)
    return SieveFit(d_f=float(d_f), filtered=w_f, fit=fit, residuals=res)


def _draw_spectrum(sieve):
    """Spectrum of the draw filter: the sieve's AR recursion, then (1-z)**-d_f.

    Its kernel is the inverse fractional filter (the sieve's d_f) applied
    to the first T weights of the AR impulse response, so a draw is one
    causal convolution of the innovations (shifted by the pre-sample
    offsets). Built once per pass and shared by every block of draws.
    """
    psi = _impulse_response(sieve.fit.phi, sieve.filtered.size)
    return _causal_spectrum(apply_frac_filter(psi, -sieve.d_f))


def _innovations(config, sieve, rng, out):
    """Fill the rows of `out` with standardized innovations from `rng`.

    The rows are filled in row order, with the stream values that
    drawing an array of the shape of `out` would give. Only the
    nonparametric mode reads `sieve` (its residuals), so parametric
    innovations can be drawn before the sieve is fitted.
    """
    if config.innovation_mode == "parametric":
        rng.standard_normal(out=out)
        return
    # The indices lie in [0, T), so "clip" never clips; unlike the default
    # "raise", it writes into `out` without a temporary copy.
    T = sieve.filtered.size
    index = rng.integers(0, T, size=out.shape)
    np.take(sieve.residuals.standardized, index, out=out, mode="clip")


def _starts(sieve, rng, n):
    """n starts of the seeding block, uniform on {h, ..., T} (1-based).

    An order-0 sieve has no seeding block and draws nothing from `rng`.
    """
    h = sieve.fit.order
    if h == 0:
        return np.zeros(n, dtype=np.intp)
    return rng.integers(h, sieve.filtered.size + 1, size=n)


def _draw_rows(sieve, eps, tau, spectrum, freq=None, path=None):
    """Bootstrap replicas, one row per row of standardized innovations.

    Row i scales ``eps[i]`` in place by the residual standard deviation
    and seeds the AR path with the h filtered values before position
    ``tau[i]``: the block enters as offsets added to the row's first h
    innovations. One causal convolution with the kernel of `spectrum`
    (:func:`_draw_spectrum`) then runs the AR recursion and the inverse
    filter over all rows. `eps` is consumed; `freq` and `path` are the
    buffers of :func:`fracdiff._causal_filter`, and the replicas are a
    view of `path`.
    """
    h = sieve.fit.order
    init = sieve.filtered[tau[:, None] + np.arange(-h, 0)]
    eps *= sieve.residuals.scale
    eps[:, :h] += _presample_offsets(_offset_weights(sieve.fit.phi), init)
    return _causal_filter(eps, spectrum, freq, path)


def _pass_threads():
    """Threads that one pass, or one job's bootstrap tasks, may run on: at
    most _PASS_THREADS, and no more than the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(_PASS_THREADS, cpus)


# `member` is set on a thread while it runs its share of a group of
# threads started by _on_threads, so that a group it starts runs on it
# alone.
_GROUP = threading.local()


def _on_threads(threads, work, lead=None):
    """Run `work` on `threads` threads, this one included, and join them.

    The helper threads run `work`; this thread runs `lead` (by default
    `work`) once they are started. A helper that cannot be started
    leaves the work to the threads that did start. On a thread that runs
    its share of a group, a group runs on that thread alone, so nested
    groups never multiply the threads. Every helper is joined before
    this returns or raises: an exception raised in this thread
    propagates, and otherwise the first one raised in a helper is raised
    again here. `work` and `lead` must make the others leave early when
    they fail, as no thread is interrupted.
    """
    nested = getattr(_GROUP, "member", False)
    errors = []

    def helper():
        _GROUP.member = True
        try:
            work()
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    helpers = []
    try:
        for _ in range(0 if nested else threads - 1):
            thread = threading.Thread(target=helper)
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: run on those started
                break
            helpers.append(thread)
        _GROUP.member = nested or bool(helpers)
        (lead or work)()
    finally:
        _GROUP.member = nested
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def _estimate_draws(y, d_f, config, iteration, spec):
    """Run the B draws and estimates of one pass in blocks, on a few threads.

    The B draws of this iteration come from two pass streams: stream
    (iteration, 0) fills their innovations row by row in draw order, and
    stream (iteration, 1) gives their B seeding-block starts in one call
    (no call when the sieve order is 0). The draws are split into the
    fewest blocks of at most ``_BLOCK_VALUES // T`` draws (at least one),
    and the blocks are made even: none is larger than ceil(B / blocks).
    Blocks are handed out in draw order under one lock, and a thread
    draws its block's innovations while it holds that lock, so the values
    depend neither on the block size nor on the thread count: each row's
    arithmetic is its own.

    The pass runs on ``min(blocks, _pass_threads())`` threads, this one
    included (:func:`_on_threads`; one, when this thread runs a share of
    a group such as a Monte Carlo job's bootstrap tasks). The helper
    thread starts before the sieve is fitted, since the block layout
    depends only on T and B. This thread then fits the sieve, builds the
    draw spectrum and draws the starts, and publishes all three at once
    before it runs blocks itself. Meanwhile a helper may already take a
    block and draw its parametric innovations (numpy fills them without
    the GIL, so the draw overlaps the fit); a nonparametric block
    resamples the residuals, so it waits for the fit, and every block
    waits for it before its draws are built. A fit that raises stops the
    hand-out and wakes the helpers, which leave without building a draw.

    A block builds its draws, takes their N periodogram ordinates and
    checks them (:func:`estimators._usable`). Once a draw fails the
    check, no further block is handed out, and
    :class:`EstimationFailedError` names the pass and its first failed
    draw in draw order. When the hand-out ends, each thread estimates the
    draws of all its blocks in calls of at most ``_BLOCK_VALUES``
    ordinates (:func:`estimators._estimate_ordinates`), so the many small
    numpy calls of a solve are made once per such call, not per block.

    Each thread allocates one workspace, which serves every block it
    runs: four buffers of the block's rows for the innovations, their
    spectra, the draw paths and the DFTs of the centred draws. Every
    draw-sized step writes into them, the centring into the spent
    innovations, so no block allocates a draw-sized array of its own, and
    the working memory of a pass is one workspace per thread and the B
    rows of ordinates.
    """
    T = y.size
    n = _fft_length(T)
    N = bandwidth(T, spec.bandwidth_exponent, spec.P)
    blocks = -(-config.B // max(1, _BLOCK_VALUES // T))
    rows = -(-config.B // blocks)
    solve_rows = max(1, _BLOCK_VALUES // N)
    parametric = config.innovation_mode == "parametric"
    innovations_rng = generator_at(config.rng_stream, iteration, 0)
    sieve = spectrum = tau = None  # published by the fit in lead()
    draws = np.empty(config.B)
    ordinates = np.empty((config.B, N))
    starts = iter(range(0, config.B, rows))
    lock = threading.Lock()
    stop = threading.Event()
    fitted = threading.Event()
    failed = []  # the first failed draw of each failed block

    def fit_published():
        """Wait for the fit; False when it raised."""
        fitted.wait()
        return tau is not None

    def build_blocks():
        """Build and check blocks while any are handed out; their draw indices."""
        eps = np.empty((rows, T))
        freq = np.empty((rows, n // 2 + 1), dtype=complex)
        path = np.empty((rows, n))
        dft = np.empty((rows, T // 2 + 1), dtype=complex)
        mine = []
        try:
            if not (parametric or fit_published()):
                return mine
            while True:
                with lock:
                    start = None if stop.is_set() else next(starts, None)
                    if start is None:
                        return mine
                    m = min(rows, config.B - start)
                    _innovations(config, sieve, innovations_rng, eps[:m])
                if not fit_published():
                    return mine
                ystar = _draw_rows(sieve, eps[:m], tau[start : start + m],
                                   spectrum, freq[:m], path[:m])
                block = ordinates[start : start + m]
                block[...] = _ordinates(ystar, N, eps[:m], dft[:m])
                ok = _usable(block)
                if not ok.all():
                    failed.append(start + int(np.argmin(ok)))
                    return mine
                mine.extend(range(start, start + m))
        finally:
            # A thread leaves when no block is left, after a failed draw or
            # on an exception; in the last two cases the others stop too.
            stop.set()

    def run_blocks():
        mine = np.array(build_blocks(), dtype=np.intp)
        if failed:  # the pass raises; its estimates are not needed
            return
        for first in range(0, mine.size, solve_rows):
            part = mine[first : first + solve_rows]
            draws[part] = _estimate_ordinates(ordinates[part], T, spec)[0]

    def lead():
        nonlocal sieve, spectrum, tau
        try:
            sieve = prefilter_sieve(y, d_f)
            spectrum = _draw_spectrum(sieve)
            tau = _starts(sieve, generator_at(config.rng_stream, iteration, 1), config.B)
            fitted.set()
            run_blocks()
        finally:
            stop.set()  # also when the fit or a block raised
            fitted.set()  # wakes the helpers waiting for a fit that raised

    _on_threads(min(blocks, _pass_threads()), run_blocks, lead)
    if failed:
        raise EstimationFailedError(
            f"draw {min(failed)} of pass {iteration} failed: {_DEGENERATE}"
        )
    return draws


def bias_correct(y, spec, d_f, config):
    """One-shot bootstrap bias correction of a memory estimator.

    Estimates the bias as (mean of the B bootstrap estimates) - d_f and
    subtracts it from the point estimate on the data. Also returns the
    95% HPD interval built from the mean-corrected draws. The data and
    every draw are estimated by the same batched kernel as
    :func:`estimate`. d_f is checked before any estimate is made.

    Parameters
    ----------
    y : array_like
    spec : EstimatorSpec
        Estimator to correct; also used on every draw.
    d_f : float
        Pre-filtering value (normally the estimate itself).
    config : BootstrapConfig

    Returns
    -------
    BootstrapOutcome
    """
    if not np.isfinite(d_f):
        raise InvalidParameterError("pre-filter value must be finite")
    y = np.asarray(y, dtype=float)
    d_hat = estimate(y, spec).d_hat
    return _outcome(_estimate_draws(y, d_f, config, 0, spec), d_f, d_hat)


def _outcome(draws, d_f, d_hat):
    """Outcome of a pass pre-filtered by d_f, for the estimate d_hat."""
    bias_hat = float(draws.mean() - d_f)
    return BootstrapOutcome(
        draws=draws,
        d_f=float(d_f),
        d_hat=d_hat,
        bias_hat=bias_hat,
        d_tilde=d_hat - bias_hat,
        hpd=hpd_interval(draws, d_hat),
    )


def _p_schedule(k, P):
    """Continuation probabilities of the stopping rules."""
    if P == 0:
        if k == 0:
            return 0.95
        if k == 1:
            return 0.9
        return 0.1 * 2.0 ** (1 - k)
    if k == 0:
        return 0.9
    return 0.1 * 2.0 ** (-k)


def stopping_thresholds(k, N, B, upsilon, P):
    """Tolerances (tau1, tau2) of the two stochastic stopping rules.

    Rule 1 compares successive iterates; its scale follows the variance
    recursion Var[k] = 2 Var[k-1] + u^2/(N B) started at u^2/N, plus one
    more u^2/(N B) for the fresh bias estimate. Rule 2 compares the
    accumulated correction with the current bias estimate, with variance
    (u^2/N)(1 + 2^{k-1}(1 + 1/B)); at k = 0 the first-iteration form
    (2^{k-1} -> 1) is used. Both are scaled by the normal quantile at a
    continuation probability p_k that shrinks as k grows and depends on
    whether the underlying estimator carries correction terms (P >= 1).

    Parameters
    ----------
    k : int
        Iteration index (>= 0).
    N : int
        Bandwidth of the estimator.
    B : int or float
        Number of bootstrap draws (inf allowed for limits).
    upsilon : float
        omega * psi_P of the corrected estimator.
    P : int
        Correction order; selects the p-schedule.

    Returns
    -------
    (tau1, tau2)
    """
    if k < 0:
        raise InvalidParameterError("iteration index must be >= 0")
    u2 = upsilon * upsilon
    base = u2 / N
    noise = u2 / (N * B)
    var_k = base
    for _ in range(k):
        var_k = 2.0 * var_k + noise
    p_k = _p_schedule(k, P)
    z = _NORMAL.inv_cdf(1.0 - p_k / 2.0)
    tau1 = z * math.sqrt(var_k + noise)
    power = 2.0 ** (k - 1) if k >= 1 else 1.0
    tau2 = z * math.sqrt(base * (1.0 + power * (1.0 + 1.0 / B)))
    return tau1, tau2


def iterate_bias_correct(y, spec, config, max_iter=10, fixed=False):
    """Iterative bootstrap bias correction with stochastic stopping rules.

    Starting from the point estimate, each iteration pre-filters with the
    current value, estimates its bias from B fresh draws and subtracts
    it. Iteration continues only while BOTH |change| > tau1 and
    |accumulated correction - current bias| > tau2; when either rule
    binds, the newly corrected value is returned. An update falling
    outside the estimators' search interval [SEARCH_LO, SEARCH_HI) is
    discarded and the previous value returned instead. In the fixed-pass
    mode every record carries its thresholds and criteria, but neither
    the rules nor the window stop the iteration: exactly ``max_iter``
    passes run (BBA(K) is ``max_iter=K``; the one-shot correction is
    ``max_iter=1``). The first pass, pre-filtered by the point estimate,
    is also recorded as a :class:`BootstrapOutcome` with the 95% HPD
    interval, as :func:`bias_correct` would build it. The data and every
    draw are estimated by the same batched kernel as :func:`estimate`.
    ``max_iter`` (an integer) is checked before any estimate is made.

    Parameters
    ----------
    y : array_like
    spec : EstimatorSpec
    config : BootstrapConfig
    max_iter : int
        Hard cap on iterations (reported as stop reason 'max-iter').
    fixed : bool
        Run exactly `max_iter` passes, without early stops.

    Returns
    -------
    IterationTrace
    """
    _check_integer(max_iter, "max_iter")
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")

    y = np.asarray(y, dtype=float)
    n_band = bandwidth(y.size, spec.bandwidth_exponent, spec.P)
    upsilon = asymptotic_sd(spec, n_band) * math.sqrt(n_band)
    d0 = estimate(y, spec).d_hat

    trace = IterationTrace(d_initial=d0)
    d_cur = d0
    for k in range(max_iter):
        tau1, tau2 = stopping_thresholds(k, n_band, config.B, upsilon, spec.P)
        draws = _estimate_draws(y, d_cur, config, k, spec)
        if k == 0:
            trace.outcomes.append(_outcome(draws, d0, d0))
        bias_k = float(draws.mean() - d_cur)
        d_next = d_cur - bias_k
        crit1 = abs(d_next - d_cur)
        crit2 = abs(d0 - d_cur - bias_k)
        record = IterationRecord(
            k=k,
            d_current=d_cur,
            bias_hat=bias_k,
            d_next=d_next,
            tau1=tau1,
            tau2=tau2,
            crit1=crit1,
            crit2=crit2,
        )
        trace.records.append(record)
        if not fixed and not SEARCH_LO <= d_next < SEARCH_HI:
            record.stop_reason = "deterministic"
            trace.final = d_cur
            trace.stop_reason = "deterministic"
            return trace
        if not fixed and (crit1 <= tau1 or crit2 <= tau2):
            record.stop_reason = "rule1" if crit1 <= tau1 else "rule2"
            trace.final = d_next
            trace.stop_reason = record.stop_reason
            return trace
        d_cur = d_next
    trace.records[-1].stop_reason = "max-iter"
    trace.final = d_cur
    trace.stop_reason = "max-iter"
    return trace


def hpd_interval(draws, d_hat):
    """95% highest-density bootstrap interval, recentered at the estimate.

    Mean-corrects the draws, sorts them, scans all windows of
    m = ceil(0.95 B) consecutive order statistics for the narrowest one,
    and maps its endpoints (q_L, q_U) to the interval
    (d_hat - q_U, d_hat - q_L). Only the mass 0.95 of the window sets
    the interval, not how the 5% outside it splits between the tails.

    Parameters
    ----------
    draws : array_like
        Bootstrap estimates, length >= 10.
    d_hat : float
        Point estimate at which the interval is centered.

    Returns
    -------
    (lo, hi)
    """
    draws = np.asarray(draws, dtype=float)
    B = draws.size
    if B < _MIN_DRAWS:
        raise InvalidParameterError(f"need at least {_MIN_DRAWS} draws")
    m = -(-95 * B // 100)  # ceil(0.95 B) in integers
    centered = np.sort(draws - draws.mean())
    widths = centered[m - 1 :] - centered[: B - m + 1]
    i = int(np.argmin(widths))  # first narrowest window
    q_lo = centered[i]
    q_hi = centered[i + m - 1]
    return (d_hat - q_hi, d_hat - q_lo)
