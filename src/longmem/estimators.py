"""Log-periodogram regression and local Whittle memory estimators.

Both families use the first N = floor(T**nu) Fourier frequencies. P even
powers of frequency can be added to soak up curvature of the short-memory
spectrum near the origin; the price is a variance inflation factor that
grows with P.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import (
    DegenerateInputError,
    InvalidParameterError,
    NumericalDegeneracyError,
    _check_integer,
    _check_real,
    _check_series,
)
from .spectral import _ordinates, bandwidth, fourier_frequencies

__all__ = [
    "EstimatorSpec",
    "EstimateResult",
    "estimate",
    "asymptotic_sd",
    "SEARCH_LO",
    "SEARCH_HI",
]

# Search region for the Whittle objective; it is also the bootstrap's
# deterministic stopping window (see ``bootstrap.iterate_bias_correct``).
SEARCH_LO = -1.0
SEARCH_HI = 1.5

# Floor applied to periodogram ordinates before taking logs.
_LOG_FLOOR = 1e-300

# Why a series has no estimate: its ordinates all vanish or are not finite.
_DEGENERATE = "periodogram ordinates vanish or are not finite"

# Variance inflation factors psi_P^2 for P = 0..3.
_PSI2 = (1.0, 2.25, 3.52, 4.79)
# Baseline asymptotic variances omega^2 by family.
_OMEGA2 = {"lpr": math.pi ** 2 / 24.0, "splw": 0.25}


@dataclass(frozen=True)
class EstimatorSpec:
    """Choice of estimator family, correction order and bandwidth rule."""

    family: str
    P: int = 0
    bandwidth_exponent: float = 0.7

    def __post_init__(self):
        fam = str(self.family).lower()
        if fam not in ("lpr", "splw"):
            raise InvalidParameterError("family must be 'lpr' or 'splw'")
        object.__setattr__(self, "family", fam)
        _check_order(self.P)
        _check_real(self.bandwidth_exponent, "bandwidth exponent")
        if not 0.0 < self.bandwidth_exponent < 1.0:
            raise InvalidParameterError("bandwidth exponent must lie in (0, 1)")

    @property
    def label(self):
        return f"{self.family.upper()}({self.P})"


@dataclass
class EstimateResult:
    """Point estimate of the memory parameter with its asymptotic scale."""

    d_hat: float
    N: int
    asymptotic_sd: float
    diagnostics: dict = field(default_factory=dict)


def _check_order(P):
    """Refuse a correction order other than the integers 0..3, the orders
    with a known variance inflation factor."""
    _check_integer(P, "P")
    if P not in range(len(_PSI2)):
        raise InvalidParameterError("P must be one of 0, 1, 2, 3")


def asymptotic_sd(spec, N):
    """Asymptotic standard deviation omega * psi_P / sqrt(N), N an integer >= 1."""
    _check_integer(N, "N", least=1)
    return math.sqrt(_OMEGA2[spec.family] * _PSI2[spec.P] / N)


def _frozen(a):
    a.setflags(write=False)
    return a


def _full_rank(X, what):
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise NumericalDegeneracyError(f"rank-deficient {what} design")


# The regression designs depend only on (T, N, P): the frequencies are the
# first N Fourier frequencies of a length-T series. They are built once per
# shape and shared by every series of that shape.
@lru_cache(maxsize=64)
def _lpr_weights(T, N, P):
    """Weights w with d_hat = w @ logI: the -2 log l row of pinv(X).

    X is the LPR design {1, -2 log l_j, l_j^2, ..., l_j^(2P)} on the first
    N Fourier frequencies of T.
    """
    freqs = fourier_frequencies(T, N)
    X = np.column_stack(
        [np.ones_like(freqs), -2.0 * np.log(freqs)]
        + [freqs ** (2 * p) for p in range(1, P + 1)]
    )
    _full_rank(X, "regression")
    return _frozen(np.linalg.pinv(X)[1])


@lru_cache(maxsize=64)
def _whittle_design(T, N, P):
    """Profiling pieces of the SPLW(P) objective for the shape (T, N, P).

    The local spectrum is modelled as G * l**(-2d) * exp(-sum_k th_k l**(2k)).
    With G profiled out analytically, R(d, th) = log mean_j[I_j e^{s_j}]
    - mean_j s_j where s_j = 2 d log l_j + sum_k th_k l_j**(2k). For P >= 1
    the polynomial coefficients are profiled by least squares on the
    log-periodogram: regressing log I_j + 2 d log l_j on {1, l^2, ..,
    l^(2P)} gives th_hat(d) affine in d, so s_j(d) = c_j + d * g_j.

    Returns (g, poly, pinv_poly). g is the slope of s(d), shared by every
    series of this shape; the offsets are the fixed projection
    c = -poly @ (pinv_poly @ logI) of the log-ordinates. For P = 0, poly
    has no columns and pinv_poly no rows, so g = 2 log l and c = 0.
    """
    freqs = fourier_frequencies(T, N)
    two_loglam = 2.0 * np.log(freqs)
    X = np.column_stack(
        [np.ones_like(freqs)] + [freqs ** (2 * p) for p in range(1, P + 1)]
    )
    _full_rank(X, "polynomial")
    # theta_hat(d) = -(pinv_poly @ (logI + d * two_loglam)); intercepts are
    # absorbed by the profiled G.
    poly = X[:, 1:]
    pinv_poly = np.linalg.pinv(X)[1:]
    g = two_loglam - poly @ (pinv_poly @ two_loglam)
    return _frozen(g), _frozen(poly), _frozen(pinv_poly)


# Row-wise products go through np.vecdot, one dot product per row: unlike a
# matrix product, whose blocking depends on the number of rows, it gives
# each row the same result however many rows are stacked with it.
def _whittle_offsets(logI, poly, pinv_poly):
    """Profiled offsets c of each row of log-ordinates."""
    theta = np.vecdot(logI[..., None, :], pinv_poly)
    return -np.vecdot(theta[..., None, :], poly)


def _newton_solve(base, g, lo, hi):
    """Minimize R(d) over [lo, hi] for every row of base = c + logI.

    R is convex in d: R'(d) is the weighted mean of g minus its plain mean,
    with weights proportional to I_j e^{s_j(d)}, and R''(d) is the weighted
    variance of g. The weights are scale free, so the minimizer does not
    move under uniform rescalings of the ordinates. R' is non-decreasing,
    so one evaluation at the midpoint names the only edge that can hold
    the minimum: `lo` when R'(mid) >= 0, else `hi`. One more evaluation
    tests that edge, and a row whose R' points out of the interval there
    returns the edge as is. Otherwise Newton steps on R' = 0 run inside
    the shrinking sign bracket, the first from the midpoint's (R', R''),
    and a step that would leave the bracket is replaced by bisection. Each
    row keeps its own bracket and stops on its own once a step falls below
    1e-13, so a row's result does not depend on the other rows.

    Returns (d, boundary), one entry per row.
    """
    gbar = np.mean(g)
    # Every evaluation writes its row-by-N arrays into these two buffers,
    # the first rows of each when fewer rows are left.
    expo_buf = np.empty_like(base)
    dev_buf = np.empty_like(base)

    def slope(base_rows, x):
        expo = np.multiply(x[:, None], g, out=expo_buf[: x.size])
        expo += base_rows
        expo -= np.maximum.reduce(expo, axis=-1, keepdims=True)
        w = np.exp(expo, out=expo)
        wsum = np.add.reduce(w, axis=-1)
        m1 = np.vecdot(w, g) / wsum
        dev = np.subtract(g, m1[:, None], out=dev_buf[: x.size])
        dev *= dev
        return m1 - gbar, np.vecdot(w, dev) / wsum

    n = base.shape[0]
    mid = 0.5 * (lo + hi)
    r1, r2 = slope(base, np.full(n, mid))
    toward_lo = r1 >= 0.0
    d = np.where(toward_lo, lo, hi)
    r_edge = slope(base, d)[0]
    edge = np.where(toward_lo, r_edge >= 0.0, r_edge <= 0.0)
    rows = np.flatnonzero(~edge)
    if rows.size < n:
        base, r1, r2 = base[rows], r1[rows], r2[rows]
    a = np.full(rows.size, lo)
    b = np.full(rows.size, hi)
    x = np.full(rows.size, mid)
    # R'' >= 0; where it is 0 or NaN the Newton step is not finite and
    # fails the bracket test below, so bisection takes over.
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(100):
            if rows.size == 0:
                break
            if step:
                r1, r2 = slope(base, x)
            below = r1 < 0.0
            np.copyto(a, x, where=below)
            np.copyto(b, x, where=~below)
            x_new = x - r1 / r2
            inside = (a <= x_new) & (x_new <= b)
            np.copyto(x_new, 0.5 * (a + b), where=~inside)
            done = np.abs(x_new - x) < 1e-13
            x = x_new
            if done.any():
                d[rows[done]] = x[done]
                keep = ~done
                rows, base, a, b, x = rows[keep], base[keep], a[keep], b[keep], x[keep]
    d[rows] = x
    return d, edge


def estimate(y, spec):
    """Estimate of the memory parameter by the family of ``spec``.

    LPR regresses log I(l_j) on {1, -2 log l_j, l_j^2, ..., l_j^(2P)}
    over j = 1..N and reports the coefficient of -2 log l_j.

    SPLW with P = 0 minimizes the Robinson profile objective
    R(d) = log(mean_j l_j^{2d} I_j) - 2d mean_j log l_j over
    d in [SEARCH_LO, SEARCH_HI]. For P >= 1 the objective carries P even
    powers of frequency whose coefficients are profiled out by least
    squares on the log-periodogram (see `_whittle_design`). R is convex
    in d, so the minimizer is the root of R'(d) = 0, found by a Newton
    iteration safeguarded by bisection and stopped once a step falls
    below 1e-13; when R' keeps one sign over the interval the minimizer
    is the edge itself. The one-row case of :func:`_estimate_rows`.

    Parameters
    ----------
    y : array_like
        Observed series.
    spec : EstimatorSpec
        Family, correction order P and bandwidth rule.

    Returns
    -------
    EstimateResult
        ``diagnostics['boundary']`` is set when the SPLW minimizer sits on
        an edge of the search interval (``d_hat`` then equals SEARCH_LO or
        SEARCH_HI exactly); it is always False for LPR, which has no
        search interval.
    """
    y = _check_series(y)
    d_hat, ok, boundary = _estimate_rows(y[None], spec)
    if not ok[0]:
        raise DegenerateInputError(_DEGENERATE)
    N = bandwidth(y.size, spec.bandwidth_exponent, spec.P)
    return EstimateResult(
        d_hat=float(d_hat[0]),
        N=N,
        asymptotic_sd=asymptotic_sd(spec, N),
        diagnostics={"boundary": bool(boundary[0])},
    )


def _usable(ordinates):
    """Rows of ordinates that have an estimate: all finite, not all vanishing."""
    return np.all(np.isfinite(ordinates), axis=-1) & np.any(
        ordinates > _LOG_FLOOR, axis=-1
    )


def _estimate_ordinates(ordinates, T, spec):
    """Memory estimates of length-T series from their rows of usable ordinates.

    The first N ordinates of each series (:func:`spectral._ordinates`),
    every row passing :func:`_usable`; each row's LPR coefficient or SPLW
    solve does not depend on the other rows. The rows are overwritten by
    the steps of the solve, so a call needs no copy of them. Returns
    (d_hat, boundary), arrays over the rows; ``boundary`` marks the SPLW
    estimates on an edge of [SEARCH_LO, SEARCH_HI] and is all False for
    LPR.
    """
    N = ordinates.shape[-1]
    logI = np.log(np.maximum(ordinates, _LOG_FLOOR, out=ordinates), out=ordinates)
    if spec.family == "lpr":
        return np.vecdot(logI, _lpr_weights(T, N, spec.P)), np.zeros(len(logI), bool)
    g, poly, pinv_poly = _whittle_design(T, N, spec.P)
    base = logI
    base += _whittle_offsets(logI, poly, pinv_poly)
    return _newton_solve(base, g, SEARCH_LO, SEARCH_HI)


def _estimate_rows(y, spec):
    """Memory estimates of a stack of series, one per row of ``y``.

    The one estimate kernel: :func:`estimate` is its one-row case, and the
    harness's plain tasks run it on their blocks; a bootstrap pass runs
    its steps itself, the ordinates and their check per block of draws
    and :func:`_estimate_ordinates` on each thread's rows. One FFT gives
    the ordinates of every row. A row whose ordinates all vanish or are
    not finite gets ``ok`` False and a NaN estimate.

    Returns (d_hat, ok, boundary), arrays over the rows; ``boundary`` as
    in :func:`_estimate_ordinates`, False where ``ok`` is.
    """
    T = y.shape[-1]
    ordinates = _ordinates(y, bandwidth(T, spec.bandwidth_exponent, spec.P))
    ok = _usable(ordinates)
    d_hat = np.full(y.shape[0], np.nan)
    boundary = np.zeros(y.shape[0], dtype=bool)
    d_hat[ok], boundary[ok] = _estimate_ordinates(ordinates[ok], T, spec)
    return d_hat, ok, boundary
