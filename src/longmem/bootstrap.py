"""Pre-filtered sieve bootstrap: draws, bias correction, HPD intervals.

The scheme fractionally differences the data by a preliminary memory
value d_f, fits a long autoregression to the filtered series, resamples
paths from that sieve, and integrates each path back with the inverse
filter. Averaging the estimator over the draws yields a bootstrap bias
estimate; iterating the correction with fresh pre-filters sharpens it,
with stochastic stopping rules deciding when to quit. Every pass runs in
a round whose steps take stacks of rows: the pre-filter and sieve fit
of every unit at once, then every draw spectrum at once. The public
entry points check their inputs; the rounds do not check them again.
"""

import math
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
from .exceptions import (
    EstimationFailedError,
    InvalidParameterError,
    LongmemError,
    _check_integer,
)
from .fracdiff import _causal_filter, _causal_spectrum, _fft_length, _frac_filter_rows
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
# even sizes. Each thread of a round allocates one workspace for a block
# and every block it builds writes into it, so the working memory of a
# round is bounded at any T, B, unit count and CPU count: per thread, at
# most _BLOCK_VALUES innovations (one row when T is larger), under four
# times as many values in each FFT buffer (the FFT length is below 4T),
# and at most _BLOCK_VALUES gathered ordinates, which the thread
# estimates in one call, in place of its freed workspace, before it
# builds more.
_BLOCK_VALUES = 2 ** 15

# Threads that one round of bootstrap passes runs on at most, each with
# its own workspace. Two is the count whose speed and peak RSS were
# measured.
_PASS_THREADS = 2

_MODES = ("parametric", "nonparametric")

# Fewest draws of an HPD interval, which the first pass of every
# correction builds.
_MIN_DRAWS = 10

_NORMAL = NormalDist()


@dataclass
class BootstrapConfig:
    """Settings of the sieve bootstrap.

    innovation_mode 'parametric' draws Gaussian innovations scaled by the
    residual standard deviation; 'nonparametric' resamples the
    standardized residuals with replacement. ``rng_stream`` is a
    SeedSequence (or int seed); None, which would draw fresh OS entropy,
    is refused. Pass k of a correction draws from two
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
        if self.rng_stream is None:
            raise InvalidParameterError("rng_stream must be given; None is not reproducible")
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
    from Burg's algorithm; one Burg sweep to the cap serves both. This is
    the one-series case of the fit that a round of passes makes
    (:func:`_prefilter_rows`), and the place that checks its inputs: y
    must be one finite series of at least 3 observations, the fewest
    that fit one lag, and d_f finite, or InvalidParameterError is raised
    before any filter runs.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise InvalidParameterError("series must be one-dimensional and finite")
    if y.size < 3:
        raise InvalidParameterError(
            f"the sieve needs a series of at least 3 observations, got {y.size}"
        )
    if not np.isfinite(d_f):
        raise InvalidParameterError("pre-filter value must be finite")
    [sieve] = _prefilter_rows(y[None], [d_f])
    if isinstance(sieve, LongmemError):
        raise sieve
    return sieve


def _prefilter_rows(Y, d_fs):
    """The :func:`prefilter_sieve` of each row of Y, pre-filtered by its d_f.

    The rows are de-meaned and filtered, each by its own d_f, in one FFT
    convolution, and one Burg sweep over all the filtered rows
    (:func:`arsieve._aic_burg_fit`) fits every sieve; a row's fit does not
    depend on the rows fitted with it. Returns one SieveFit per row, or
    the LongmemError of a row whose fit or residuals failed. The rows are
    not checked: a round gets only data that :func:`estimators.estimate`
    or the simulation has checked, and :func:`prefilter_sieve` checks its
    own.
    """
    W = _frac_filter_rows(Y - Y.mean(axis=-1, keepdims=True), d_fs)
    sieves = []
    for d_f, w_f, fit in zip(d_fs, W, _aic_burg_fit(W, default_max_order(W.shape[-1]))):
        if not isinstance(fit, LongmemError):
            try:
                fit = SieveFit(float(d_f), w_f, fit, ar_residuals(w_f, fit))
            except LongmemError as exc:
                fit = exc
        sieves.append(fit)
    return sieves


def _draw_spectra(sieves):
    """Spectra of the draw filters of `sieves`, all of one T, one row each.

    A sieve's draw filter is its AR recursion, then (1-z)**-d_f. Its
    kernel is the inverse fractional filter (the sieve's d_f) applied to
    the first T weights of the AR impulse response, so a draw is one
    causal convolution of the innovations (shifted by the pre-sample
    offsets). The impulse responses are built one by one, and one FFT
    convolution applies every sieve's inverse fractional filter. A row is
    built once per pass and shared by every block of its draws.
    """
    T = sieves[0].filtered.size
    psi = np.array([_impulse_response(sieve.fit.phi, T) for sieve in sieves])
    return _causal_spectrum(_frac_filter_rows(psi, [-sieve.d_f for sieve in sieves]))


def _innovations(config, sieve, rng, out):
    """Fill the rows of `out` with standardized innovations from `rng`.

    The rows are filled in row order, with the stream values that
    drawing an array of the shape of `out` would give. Only the
    nonparametric mode reads `sieve` (its residuals).
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
    (the sieve's row of :func:`_draw_spectra`) then runs the AR recursion
    and the inverse filter over all rows. `eps` is consumed; `freq` and
    `path` are the buffers of :func:`fracdiff._causal_filter`, and the
    replicas are a view of `path`.
    """
    h = sieve.fit.order
    init = sieve.filtered[tau[:, None] + np.arange(-h, 0)]
    eps *= sieve.residuals.scale
    eps[:, :h] += _presample_offsets(_offset_weights(sieve.fit.phi), init)
    return _causal_filter(eps, spectrum, freq, path)


def _allowed_cpus():
    """The CPUs this thread may run on, or None where the platform cannot tell."""
    try:
        return os.sched_getaffinity(0)
    except AttributeError:  # no affinity call on this platform
        return None


def _pass_threads(cpus):
    """Threads that one round of passes may run on: at most _PASS_THREADS,
    and no more than `cpus`, the CPUs this thread may run on
    (:func:`_allowed_cpus`; None counts every CPU)."""
    return min(_PASS_THREADS, len(cpus) if cpus is not None else os.cpu_count() or 1)


def _shares(cpus, n):
    """The CPUs of each of `n` threads or processes, dealt out of `cpus`.

    Share i takes every n-th CPU from the i-th in sorted order, so the
    shares are disjoint and cover `cpus`. With `cpus` None or fewer CPUs
    than `n`, every share is None: nothing is placed.
    """
    if cpus is None or n > len(cpus):
        return [None] * n
    return [set(sorted(cpus)[i::n]) for i in range(n)]


def _place(cpus):
    """Limit this thread to `cpus`. None, a platform with no affinity call
    and a refused call leave it as it was."""
    if cpus is None:
        return
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no affinity call, or a refused one
        pass


def _on_threads(threads, work, cpus):
    """Run `work` on `threads` threads, this one included, and join them.

    `cpus` are the CPUs this thread may run on (:func:`_allowed_cpus`).
    Thread i runs on share i of :func:`_shares`, this thread on share 0
    once its helpers have started, so with at least as many CPUs as
    threads no two share a CPU. Left to the kernel, both threads mostly
    shared one CPU of a two-CPU machine while the other stood idle, and
    a cold `bias-correct` spent as much CPU time as wall time. This
    thread gets `cpus` back before this returns or raises. A thread that
    cannot be placed (:func:`_place`) runs where the kernel puts it;
    placement moves only where the work runs, never its values.

    A helper thread that cannot be started leaves the work to the threads
    that did start. Every helper is joined before this returns or raises:
    an exception raised in this thread propagates, and otherwise the first
    one raised in a helper is raised again here. `work` must make the
    others leave early when it fails, as no thread is interrupted.
    """
    errors = []
    shares = _shares(cpus, threads)

    def helper(share):
        try:
            _place(share)
            work()
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    helpers = []
    try:
        for share in shares[1:]:
            thread = threading.Thread(target=helper, args=(share,))
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: run on those started
                break
            helpers.append(thread)
        if helpers:
            _place(shares[0])
        work()
    finally:
        if helpers:
            _place(cpus)
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


@dataclass
class _Unit:
    """One bias correction, run pass by pass in the lockstep rounds of :func:`_run_rounds`.

    `search` is a generator: it yields the pre-filter value of each pass
    it needs, receives that pass's B draw estimates, and returns the
    unit's result.
    """

    y: np.ndarray
    spec: object
    config: BootstrapConfig
    search: object


def _run_rounds(units):
    """Run the searches of `units`, all of one T, in lockstep rounds.

    Round k runs the k-th passes of every unit still searching as one
    batched pass (:func:`_estimate_draws`), and a unit leaves once its
    search returns. Returns the result of each unit in order (the whole
    IterationTrace of a :func:`_corrections` search), or the LongmemError
    that its search or one of its passes raised, which fails that unit
    alone. Any other exception reaches the caller, after every thread of
    its round has been joined. :func:`bias_correct`,
    :func:`iterate_bias_correct` and a Monte Carlo job's bootstrap tasks
    all run here, the first two as one unit.
    """
    results = [None] * len(units)
    prefilters = {}

    def advance(j, draws):
        try:
            prefilters[j] = units[j].search.send(draws)
        except StopIteration as stop:
            results[j] = stop.value
        except LongmemError as exc:
            results[j] = exc

    for j in range(len(units)):
        advance(j, None)
    k = 0
    while prefilters:
        live = list(prefilters)
        passes = [(units[j], prefilters.pop(j)) for j in live]
        for j, draws in zip(live, _estimate_draws(passes, k)):
            if isinstance(draws, LongmemError):
                results[j] = draws
            else:
                advance(j, draws)
        k += 1
    return results


def _run_alone(unit):
    """The result of one unit, run by :func:`_run_rounds`; its error is raised."""
    [result] = _run_rounds([unit])
    if isinstance(result, LongmemError):
        raise result
    return result


def _estimate_draws(passes, k):
    """Run pass k of each unit of `passes`, (unit, d_f) pairs of one T, as one round.

    A unit's B draws come from two of its pass streams: stream (k, 0)
    fills their innovations row by row in draw order, and stream (k, 1)
    gives their B seeding-block starts in one call (no call when the
    sieve order is 0). This thread fits every unit's sieve
    (:func:`_prefilter_rows`, one Burg sweep), builds every draw spectrum
    (:func:`_draw_spectra`) and draws the starts. A unit's draws are split
    into the fewest blocks of at most ``_BLOCK_VALUES // T`` draws (at
    least one), made even: none is larger than ceil(B / blocks).

    The blocks run on ``min(blocks, _pass_threads(cpus))`` threads, this
    one included, each on its own share of `cpus` (:func:`_on_threads`);
    `cpus`, the CPUs this thread may run on, are read once per round, so
    the count and the placement agree. They are handed out under one lock,
    unit-major in groups of as many units as threads, the blocks of a
    group in block order, so that the threads mostly draw different
    units. A unit's blocks go out in draw order, and a thread takes the
    unit's own lock before it leaves the hand-out and draws the block's
    innovations under it, so the values depend neither on the block size,
    nor on the thread count, nor on the other units: each row's arithmetic
    is its own.

    A block builds its draws, takes their N periodogram ordinates and
    checks them (:func:`estimators._usable`). A thread gathers the
    ordinates of its blocks of one estimator spec until the next block
    would take them past ``_BLOCK_VALUES``, then estimates them in one
    call (:func:`estimators._estimate_ordinates`), so the many small numpy
    calls of a solve are made per such call, not per block or per unit.
    Once a draw of a unit fails the check, no further block of that unit
    is handed out, and the unit gets an :class:`EstimationFailedError`
    naming the pass and its first failed draw in draw order.

    While it gathers, a thread has one workspace, into which every
    draw-sized step of its blocks writes: the innovations (then the
    centred draws), their spectra (then the DFTs of the centred draws)
    and the draw paths. It frees the workspace before each solve, so a
    thread holds one workspace or one solve at a time, besides the
    gathered ordinates.

    Returns one entry per pass: its B draw estimates, or the LongmemError
    that failed it.
    """
    T = passes[0][0].y.size
    n = _fft_length(T)
    per_block = max(1, _BLOCK_VALUES // T)
    rngs = [generator_at(unit.config.rng_stream, k, 0) for unit, _ in passes]
    sieves = _prefilter_rows(np.array([unit.y for unit, _ in passes]),
                             [d_f for _, d_f in passes])
    results = list(sieves)
    live = [i for i, sieve in enumerate(sieves) if not isinstance(sieve, LongmemError)]
    spectra = {}
    if live:
        spectra = dict(zip(live, _draw_spectra([sieves[i] for i in live])))
    taus, blocks, bands = {}, [], {}
    rows = 1
    for i in live:
        unit, sieve = passes[i][0], sieves[i]
        B, spec = unit.config.B, unit.spec
        taus[i] = _starts(sieve, generator_at(unit.config.rng_stream, k, 1), B)
        size = -(-B // -(-B // per_block))
        rows = max(rows, size)
        blocks += [(i, j, start, min(size, B - start))
                   for j, start in enumerate(range(0, B, size))]
        if spec not in bands:
            bands[spec] = bandwidth(T, spec.bandwidth_exponent, spec.P)
        results[i] = np.empty(B)
    cpus = _allowed_cpus()
    threads = min(len(blocks), _pass_threads(cpus))
    # Groups of `threads` units, each group's blocks in block order.
    order = sorted(blocks, key=lambda block: (block[0] // threads, block[1], block[0]))
    taken = 0  # blocks of `order` handed out
    lock = threading.Lock()  # over the hand-out and the failures
    drawing = [threading.Lock() for _ in passes]  # over a unit's streams
    stop = threading.Event()
    failed = {}  # unit -> the first failed draw of each failed block

    def gather():
        """Build blocks into a new workspace while their ordinates fit one solve.

        Returns the estimator spec, the ordinates and the (unit, first draw,
        rows) of each block gathered; the workspace is freed on return, so
        the solve that follows can reuse its memory.
        """
        nonlocal taken
        eps = np.empty((rows, T))
        freq = np.empty((rows, n // 2 + 1), dtype=complex)
        path = np.empty((rows, n))
        dft = freq[:, : T // 2 + 1]  # freq is spent once a block's draws are built
        spec, gathered, owners, fill = None, np.empty((0, 0)), [], 0
        while True:
            with lock:
                while taken < len(order) and order[taken][0] in failed:
                    taken += 1
                if stop.is_set() or taken == len(order):
                    return spec, gathered[:fill], owners
                i, _, start, m = order[taken]
                unit = passes[i][0]
                if owners and (unit.spec != spec or fill + m > len(gathered)):
                    return spec, gathered[:fill], owners
                taken += 1
                drawing[i].acquire()  # taken in hand-out order
            try:
                _innovations(unit.config, sieves[i], rngs[i], eps[:m])
            finally:
                drawing[i].release()
            ystar = _draw_rows(sieves[i], eps[:m], taus[i][start : start + m],
                               spectra[i], freq[:m], path[:m])
            N = bands[unit.spec]
            ordinates = _ordinates(ystar, N, eps[:m], dft[:m])
            ok = _usable(ordinates)
            if not ok.all():
                with lock:
                    failed.setdefault(i, []).append(start + int(np.argmin(ok)))
                continue
            if not owners:
                spec, fill = unit.spec, 0
                gathered = np.empty((max(1, _BLOCK_VALUES // N), N))
            gathered[fill : fill + m] = ordinates
            owners.append((i, start, m))
            fill += m

    def solve(spec, ordinates, owners):
        """Estimate what gather() returned; False when it gathered nothing."""
        if not owners:
            return False
        d_hat = _estimate_ordinates(ordinates, T, spec)[0]
        at = 0
        for i, start, m in owners:
            results[i][start : start + m] = d_hat[at : at + m]
            at += m
        return True

    def work():
        try:
            while solve(*gather()):  # no buffer outlives its solve
                pass
        except BaseException:
            stop.set()  # the others leave at their next block
            raise

    _on_threads(threads, work, cpus)
    for i, draws in failed.items():
        results[i] = EstimationFailedError(
            f"draw {min(draws)} of pass {k} failed: {_DEGENERATE}"
        )
    return results


def bias_correct(y, spec, d_f, config):
    """One-shot bootstrap bias correction of a memory estimator.

    Estimates the bias as (mean of the B bootstrap estimates) - d_f and
    subtracts it from the point estimate on the data. Also returns the
    95% HPD interval built from the mean-corrected draws. The data and
    every draw are estimated by the same batched kernel as
    :func:`estimate`. d_f is checked before any estimate is made. The
    pass runs as a round of one unit (:func:`_run_rounds`).

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
    return _outcome(_run_alone(_Unit(y, spec, config, _one_pass(d_f))), d_f, d_hat)


def _one_pass(d_f):
    """The search of one pass pre-filtered by d_f; it returns the draws."""
    return (yield d_f)


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
    ``max_iter`` (an integer) and ``fixed`` (a bool) are checked before
    any estimate is made. The correction runs as a unit of one in
    lockstep rounds (:func:`_run_rounds`), as each bootstrap task of a
    Monte Carlo job does among the job's other tasks, with the same values.

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
    if not isinstance(fixed, (bool, np.bool_)):
        raise InvalidParameterError(f"fixed must be a bool, got {fixed!r}")
    y = np.asarray(y, dtype=float)
    return _run_alone(_Unit(y, spec, config, _corrections(y, spec, config, max_iter, fixed)))


def _corrections(y, spec, config, max_iter, fixed):
    """The search of :func:`iterate_bias_correct`, a generator.

    It estimates the data, then yields the pre-filter value of each pass
    and receives the pass's draws; it returns the IterationTrace.
    """
    n_band = bandwidth(y.size, spec.bandwidth_exponent, spec.P)
    upsilon = asymptotic_sd(spec, n_band) * math.sqrt(n_band)
    d0 = estimate(y, spec).d_hat

    trace = IterationTrace(d_initial=d0)
    d_cur = d0
    for k in range(max_iter):
        tau1, tau2 = stopping_thresholds(k, n_band, config.B, upsilon, spec.P)
        draws = yield d_cur
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
        Bootstrap estimates, one-dimensional, length >= 10, all finite.
    d_hat : float
        Point estimate at which the interval is centered.

    Returns
    -------
    (lo, hi)
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 1:
        raise InvalidParameterError("draws must be one-dimensional")
    B = draws.size
    if B < _MIN_DRAWS:
        raise InvalidParameterError(f"need at least {_MIN_DRAWS} draws")
    if not np.all(np.isfinite(draws)):
        raise InvalidParameterError("draws must be finite")
    m = -(-95 * B // 100)  # ceil(0.95 B) in integers
    centered = np.sort(draws - draws.mean())
    widths = centered[m - 1 :] - centered[: B - m + 1]
    i = int(np.argmin(widths))  # first narrowest window
    q_lo = centered[i]
    q_hi = centered[i + m - 1]
    return (d_hat - q_hi, d_hat - q_lo)
