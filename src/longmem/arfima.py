"""ARFIMA(1,d,0) ground truth: autocovariances, simulation, exact MLE.

The process is (1 - phi z) y(t) = n(t) with n fractional noise of order d.
Autocovariances combine the closed-form fractional-noise ACVF with the
AR(1) transfer function; simulation and likelihood both run through the
Durbin-Levinson prediction-error decomposition, so draws are exact and
the likelihood is the exact Gaussian one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .arsieve import _durbin_levinson
from .exceptions import (
    DegenerateInputError,
    EstimationFailedError,
    InvalidParameterError,
    NumericalDegeneracyError,
)

__all__ = [
    "ArfimaParams",
    "AcvfTable",
    "MleResult",
    "arfima_acvf",
    "simulate_gaussian",
    "mle_fit",
    "mle_fit_many",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ArfimaParams:
    """Parameters of a stationary, invertible ARFIMA(1,d,0) process."""

    d: float
    phi: float
    sigma2: float = 1.0
    law: str = "gaussian"
    dof: float = 5.0

    def __post_init__(self):
        if not -0.5 < self.d < 0.5:
            raise InvalidParameterError("d must lie in (-0.5, 0.5)")
        if not abs(self.phi) < 1.0:
            raise InvalidParameterError("|phi| must be below 1")
        if not self.sigma2 > 0.0:
            raise InvalidParameterError("sigma2 must be positive")
        if self.law not in ("gaussian", "student-t"):
            raise InvalidParameterError("law must be 'gaussian' or 'student-t'")
        if self.law == "student-t" and not 2.0 < self.dof < math.inf:
            raise InvalidParameterError("student-t dof must be finite and exceed 2")


def _parse_law(text):
    """Split a law token into (law, dof).

    The tokens are 'gaussian', 'student-t' (5 degrees of freedom) and
    'student-t:DOF'; anything else raises InvalidParameterError.
    """
    law, colon, dof = text.partition(":")
    if law == "gaussian" and not colon:
        return "gaussian", 5.0
    if law == "student-t":
        try:
            return "student-t", float(dof) if colon else 5.0
        except ValueError:
            pass
    raise InvalidParameterError(
        "law must be 'gaussian', 'student-t' or 'student-t:DOF'"
    )


@dataclass
class AcvfTable:
    """Autocovariances gamma(0..max_lag)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values[0] <= 0:
            raise InvalidParameterError("gamma(0) must be positive")
        if np.any(np.abs(self.values) > self.values[0] * (1 + 1e-12)):
            raise InvalidParameterError("|gamma(k)| cannot exceed gamma(0)")

    @property
    def max_lag(self):
        return self.values.size - 1


def _fractional_acvf(d, sigma2, max_lag):
    """ACVF of pure fractional noise: stable lag recursion from gamma(0)."""
    g = np.empty(max_lag + 1)
    g[0] = sigma2 * math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    if max_lag >= 1:
        k = np.arange(1, max_lag + 1, dtype=float)
        g[1:] = g[0] * np.cumprod((k - 1.0 + d) / (k - d))
    return g


def _ar1_tail_length(phi, rel=1e-18):
    if phi == 0.0:
        return 0
    return max(1, int(math.ceil(math.log(rel * (1 - abs(phi))) / math.log(abs(phi)))))


def arfima_acvf(params, max_lag):
    """Exact autocovariances of an ARFIMA(1,d,0) process.

    Parameters
    ----------
    params : ArfimaParams
    max_lag : int
        Largest lag wanted (>= 0).

    Returns
    -------
    AcvfTable
        gamma(0..max_lag).
    """
    max_lag = int(max_lag)
    if max_lag < 0:
        raise InvalidParameterError("max_lag must be nonnegative")
    m_tail = _ar1_tail_length(params.phi)
    gam = _acvf_rows([params.d], params.phi, max_lag + 1, m_tail)[0]
    return AcvfTable(values=params.sigma2 * gam)


def _standardized_deviates(params, T, rng):
    if params.law == "student-t":
        scale = math.sqrt((params.dof - 2.0) / params.dof)
        return rng.standard_t(params.dof, size=T) * scale
    return rng.standard_normal(T)


def simulate_gaussian(params, T, rng):
    """Draw a series with the exact ACVF of `params` by Levinson recursion.

    The draw is built sequentially: y(t) = one-step prediction from
    y(1..t-1) plus the prediction-error scale times a fresh deviate, with
    coefficients and scales from the Durbin-Levinson sweep of the ACVF.
    Gaussian deviates give an exact draw from the process; the student-t
    law swaps in standardized t(dof) deviates for the robustness design.
    This is the one-row case of the batched simulation that the Monte
    Carlo harness runs; a row's values do not depend on what is
    simulated with it.

    Parameters
    ----------
    params : ArfimaParams
    T : int
        Series length (>= 1).
    rng : numpy.random.Generator

    Returns
    -------
    ndarray of length T
    """
    T = int(T)
    if T < 1:
        raise InvalidParameterError("T must be >= 1")
    Z = _standardized_deviates(params, T, rng)
    return _simulate_rows([params], Z[None, None])[0, 0]


def _simulate_rows(cells, Z):
    """Series with the exact ACVF of each cell, one per row of deviates Z.

    The batched form of :func:`simulate_gaussian`, which is its one-row
    case: `cells` holds one ArfimaParams per cell and Z the (G, R, T)
    standardized deviates, R rows per cell. One Durbin-Levinson sweep of
    the G ACVFs drives the recursion of every row, and each step is one
    row-wise dot product, so a row's values do not depend on the rows or
    cells stacked with it. White-noise cells (and T = 1) skip the sweep.
    No T x T factor is formed; memory is O(G R T).
    """
    T = Z.shape[-1]
    gams = np.array([arfima_acvf(params, max_lag=T - 1).values for params in cells])
    out = np.sqrt(gams[:, :1, None]) * Z
    live = np.flatnonzero(np.any(gams[:, 1:], axis=1))
    if live.size == 0:
        return out
    Z = Z[live]
    # Time runs backwards along a row of rev, rev[..., T-1-t] = y(t), so the
    # past y(t-1), ..., y(0) of step t is the contiguous slice rev[..., T-t:]
    # and every row's prediction is a unit-stride (BLAS) dot product.
    rev = np.empty(Z.shape)
    rev[:, :, T - 1] = out[live, :, 0]
    steps = _durbin_levinson(gams[live])
    next(steps)
    for t, _, b, v, bad in steps:
        rev[:, :, T - 1 - t] = np.vecdot(rev[:, :, T - t :], b[:, None]) + (
            np.sqrt(v)[:, None] * Z[:, :, t]
        )
    if bad.any():
        raise NumericalDegeneracyError("ACVF is not positive definite")
    out[live] = rev[:, :, ::-1]
    return out


# ---------------------------------------------------------------------------
# Exact Gaussian likelihood and its maximization
# ---------------------------------------------------------------------------


def _ar1_scan(x, phi):
    """Run y(t) = x(t) + phi y(t-1) along the rows of x, in place.

    A log-step doubling scan, the prefix form of the first-order
    recurrence (Blelloch, "Prefix sums and their applications", 1990):
    after the step with shift s, y(t) holds the terms from x(t-2s+1..t).
    """
    s = 1
    while s < x.shape[1]:
        x[:, s:] += phi ** s * x[:, :-s]
        s *= 2
    return x


def _ar1_sum(x, phi):
    """sum_m phi^m x(m) along the rows of x, by pairwise folding.

    The reduction form of :func:`_ar1_scan`: each step folds neighbouring
    terms, x(j) <- x(2j) + phi^s x(2j+1), so the nearly cancelling terms
    of a phi near -1 are combined before they are summed.
    """
    s = 1
    while x.shape[1] > 1:
        half = x.shape[1] // 2
        folded = x[:, 0::2].copy()
        folded[:, :half] += phi ** s * x[:, 1::2]
        x = folded
        s *= 2
    return x[:, 0]


def _acvf_rows(d_values, phi, T, m_tail, frac_rows=None):
    """ACVF rows gamma(0..T-1) for many d at a single phi, unit sigma2.

    Two-sided AR(1) convolution of the fractional-noise ACVF: evaluates
    gamma_y(k) = sum_m phi^{|m|} gamma_d(k-m) / (1-phi^2) via the
    equivalent pair of geometric recursions
        g(k) = gamma_d(k) + phi g(k+1)    (cross-covariance with the noise)
        gamma_y(k) = phi gamma_y(k-1) + g(k),
    seeded by gamma_y(0) = (g(0) + phi g(1)) / (1 - phi^2), with the
    backward recursion started from m_tail + 1 terms beyond lag T - 1
    (summed by :func:`_ar1_sum`). Each recursion is one :func:`_ar1_scan`.
    `frac_rows`, when given, holds the fractional-noise ACVFs of
    `d_values` to at least lag max(T, 2) + m_tail; they depend on d
    alone, so a grid computes them once for all its phi.
    """
    n = max(T, 2)  # the seed of gamma_y(0) reads g(1)
    need = n + m_tail
    if frac_rows is None:
        frac_rows = np.array([_fractional_acvf(d, 1.0, need) for d in d_values])
    rows = frac_rows[:, : need + 1]
    if phi == 0.0:
        return rows[:, :T].copy()
    g_tail = _ar1_sum(rows[:, n:], phi)
    g = rows[:, n - 1 :: -1].copy()  # the backward recursion runs on reversed rows
    g[:, 0] += phi * g_tail
    g = _ar1_scan(g, phi)[:, ::-1]
    out = g.copy()
    out[:, 0] = (g[:, 0] + phi * g[:, 1]) / (1.0 - phi * phi)
    return _ar1_scan(out, phi)[:, :T]


# The one likelihood kernel of the MLE: the grid stage and every
# refinement round run through it.
def _profile_loglik_batch(Y, gammas):
    """Concentrated Gaussian log-likelihoods of k independent problems.

    Problem i evaluates its g ACVF rows on its r series. One
    Durbin-Levinson sweep runs over all k * g rows, and each step is one
    stacked matmul of every problem's prediction coefficients with its
    own series, so a problem's values do not depend on the problems
    stacked with it. The grid stage is the k = 1 case; a refinement
    round stacks one 9-point stencil per live series.

    Parameters
    ----------
    Y : ndarray (k, T, r)
        Columns of Y[i] are the series of problem i.
    gammas : ndarray (k, g, T)
        Unit-variance ACVF rows of problem i, one per parameter point.

    Returns
    -------
    ll : ndarray (k, g, r)
        Profile log-likelihood (sigma2 maximized out analytically); -inf
        where the ACVF row is not positive definite.
    sigma2 : ndarray (k, g, r)
        Profiling variances.
    """
    k, g, T = gammas.shape
    # Y_rev[:, T-1-t] = Y[:, t], so the lagged values a step reads are a
    # contiguous forward slice.
    Y_rev = np.ascontiguousarray(Y[:, ::-1])
    steps = _durbin_levinson(gammas.reshape(k * g, T))
    _, _, _, v, bad = next(steps)
    sumlog = np.log(v)
    quad = Y[:, :1] ** 2 / v.reshape(k, g, 1)
    for t, _, b, v, _ in steps:
        sumlog += np.log(v)
        e = Y[:, t : t + 1] - b.reshape(k, g, t) @ Y_rev[:, T - t :]
        quad += e * e / v.reshape(k, g, 1)
    sigma2 = quad / T
    ll = -0.5 * T * (_LOG_2PI + np.log(sigma2) + 1.0) - 0.5 * sumlog.reshape(k, g, 1)
    ll[bad.reshape(k, g)] = -np.inf
    return ll, sigma2


@dataclass
class MleResult:
    """Maximum-likelihood fit of an ARFIMA(1,d,0) model."""

    d_hat: float
    phi_hat: float
    sigma2: float
    loglik: float
    diagnostics: dict = field(default_factory=dict)


_D_BOUNDS = (-0.49, 0.49)
_PHI_BOUNDS = (-0.99, 0.99)
_GRID_STEP = 0.02
# ACVF values per call of the batched kernel: whole phi rows of the grid,
# or whole refinement stencils, are stacked up to this size, which bounds
# the memory of a call while amortizing its Python steps over many points.
_BLOCK_VALUES = 2 ** 15
# Refinement: central-difference step of the likelihood stencil, cap on
# the Newton step per coordinate, and cap on the Newton iterations.
_STENCIL_STEP = 1e-4
_MAX_STEP = 0.1
_MAX_NEWTON = 50


def _mle_grids():
    d_grid = np.arange(-0.48, 0.4801, _GRID_STEP)
    phi_grid = np.arange(-0.98, 0.9801, _GRID_STEP)
    return d_grid, phi_grid


def _tail(phi):
    """AR(1) tail of the ACVF convolution, sized to phi."""
    return _ar1_tail_length(phi, rel=1e-15)


def _grid_search_many(Y):
    """Best coarse-grid d, phi and log-likelihood per series (columns of Y)."""
    T, R = Y.shape
    d_grid, phi_grid = _mle_grids()
    n_d = d_grid.size
    per_call = max(1, _BLOCK_VALUES // (n_d * T))
    # The fractional-noise ACVFs depend on d alone: compute them once, to
    # the widest tail of the phi grid, and slice them for every phi.
    need = max(T, 2) + max(_tail(phi) for phi in phi_grid)
    frac = np.array([_fractional_acvf(d, 1.0, need) for d in d_grid])
    best_ll = np.full(R, -np.inf)
    best_d = np.zeros(R)
    best_phi = np.zeros(R)
    cols = np.arange(R)
    for start in range(0, phi_grid.size, per_call):
        phis = phi_grid[start : start + per_call]
        gammas = np.concatenate(
            [_acvf_rows(d_grid, phi, T, _tail(phi), frac) for phi in phis]
        )
        ll = _profile_loglik_batch(Y[None], gammas[None])[0][0]
        # Rows run phi-major, so the first maximum is the one a sweep over
        # phi, then d, would keep.
        idx = np.argmax(ll, axis=0)
        cand = ll[idx, cols]
        better = cand > best_ll
        best_ll[better] = cand[better]
        best_d[better] = d_grid[idx[better] % n_d]
        best_phi[better] = phis[idx[better] // n_d]
    return best_d, best_phi, best_ll


def _stencil_rows(x, T):
    """ACVF rows of the 3 x 3 stencil x + h (i, j), i, j in {-1, 0, 1}.

    Rows run phi-major, so row 4 is the centre x = (d, phi). The three
    fractional-noise ACVFs are built once, at the widest of the three phi
    tails. The stencil may reach h past the search box, which stays
    inside the stationary, invertible region.
    """
    steps = _STENCIL_STEP * np.arange(-1, 2)
    d_values = x[0] + steps
    phis = x[1] + steps
    need = max(T, 2) + max(_tail(phi) for phi in phis)
    frac = np.array([_fractional_acvf(d, 1.0, need) for d in d_values])
    return np.concatenate(
        [_acvf_rows(d_values, phi, T, _tail(phi), frac) for phi in phis]
    )


def _stencil_fit(ll, sigma2):
    """(loglik, sigma2, grad, hess) from the nine kernel values of a stencil.

    The centre supplies the log-likelihood and sigma2, and central
    differences the gradient and Hessian.
    """
    h = _STENCIL_STEP
    F = ll.reshape(3, 3).T  # F[d, phi]
    grad = np.array([F[2, 1] - F[0, 1], F[1, 2] - F[1, 0]]) / (2.0 * h)
    h_dd = F[2, 1] - 2.0 * F[1, 1] + F[0, 1]
    h_pp = F[1, 2] - 2.0 * F[1, 1] + F[1, 0]
    h_dp = (F[2, 2] - F[2, 0] - F[0, 2] + F[0, 0]) / 4.0
    hess = np.array([[h_dd, h_dp], [h_dp, h_pp]]) / (h * h)
    return float(ll[4]), float(sigma2[4]), grad, hess


def _newton_step(x, grad, hess, lo, hi):
    """Projected Newton ascent step for the box lo <= x <= hi.

    A coordinate on a bound whose gradient points out of the box is held
    fixed; the step solves the Newton system on the free coordinates,
    with the eigenvalues of their Hessian made negative (|lambda|) so the
    step always ascends, and is capped at _MAX_STEP per coordinate.
    """
    free = ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))
    step = np.zeros(x.size)
    if free.any():
        lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
        lam = np.maximum(np.abs(lam), 1e-8 * max(1.0, np.abs(lam).max()))
        step[free] = vec @ ((vec.T @ grad[free]) / lam)
    longest = np.abs(step).max()
    if longest > _MAX_STEP:
        step *= _MAX_STEP / longest
    return step


def _refine_one(d0, phi0, ll0, tol):
    """Maximize the profile log-likelihood from a grid point by projected Newton.

    A generator: it yields every point x it needs and receives back the
    (loglik, sigma2, grad, hess) of the stencil at x (:func:`_stencil_fit`),
    so :func:`mle_fit_many` can evaluate the points of many searches in
    one kernel call; its return value is the MleResult. The stencil's
    centre gives the log-likelihood and its differences the gradient and
    Hessian of a projected Newton step (:func:`_newton_step`). The step is
    halved until the log-likelihood at the trial stencil does not fall; a
    lower log-likelihood is never accepted, and an accepted trial's
    stencil supplies the next step. The search stops once the step,
    clipped to the box, is shorter than `tol` in every coordinate.
    """
    lo = np.array([_D_BOUNDS[0], _PHI_BOUNDS[0]])
    hi = np.array([_D_BOUNDS[1], _PHI_BOUNDS[1]])
    x = np.array([d0, phi0])
    f, sigma2, grad, hess = yield x
    evals = 9
    converged = False
    for _ in range(_MAX_NEWTON):
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            break
        step = _newton_step(x, grad, hess, lo, hi)
        while True:
            x_new = np.clip(x + step, lo, hi)
            if np.abs(x_new - x).max() < tol:
                converged = True
                break
            trial = yield x_new
            evals += 9
            if trial[0] >= f:
                x = x_new
                f, sigma2, grad, hess = trial
                break
            step = 0.5 * step
        if converged:
            break
    if not converged and f < ll0:
        raise EstimationFailedError(
            f"likelihood refinement failed; best grid point d={d0}, phi={phi0}"
        )
    d_hat, phi_hat = float(x[0]), float(x[1])
    boundary = (
        min(d_hat - _D_BOUNDS[0], _D_BOUNDS[1] - d_hat) <= 1e-9
        or min(phi_hat - _PHI_BOUNDS[0], _PHI_BOUNDS[1] - phi_hat) <= 1e-9
    )
    return MleResult(
        d_hat=d_hat,
        phi_hat=phi_hat,
        sigma2=sigma2,
        loglik=f,
        diagnostics={
            "grid_d": d0,
            "grid_phi": phi0,
            "grid_loglik": ll0,
            "evals": evals,
            "converged": converged,
            "boundary": boundary,
        },
    )


def _series_columns(ys):
    """Validate series for the MLE and stack them as the columns of (T, R)."""
    try:
        ys = [np.asarray(y, dtype=float) for y in ys]
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"series must be numeric: {exc}") from None
    if not ys:
        raise InvalidParameterError("need at least one series")
    if any(y.ndim != 1 for y in ys):
        raise InvalidParameterError("each series must be one-dimensional")
    T = ys[0].size
    if any(y.size != T for y in ys):
        raise InvalidParameterError("series must all have the same length")
    if T < 20:
        raise InvalidParameterError("need at least 20 observations")
    Y = np.column_stack(ys)
    if not np.all(np.isfinite(Y)):
        raise InvalidParameterError("series must be finite")
    if not np.all(np.vecdot(Y.T, Y.T) > 0.0):
        raise DegenerateInputError("a series is identically zero")
    return Y


def mle_fit(y, refine_tol=1e-6):
    """Exact Gaussian MLE of (d, phi, sigma2) for an ARFIMA(1,d,0) model.

    The likelihood is evaluated through the Durbin-Levinson
    prediction-error decomposition with sigma2 profiled out analytically.
    The search is a 0.02-step grid over (-0.49, 0.49) x (-0.99, 0.99),
    evaluated by the batched kernel on blocks of about 2**15 ACVF values
    (whole phi rows of the grid per call), followed by a projected Newton
    ascent on the same kernel: every point is a 3 x 3 central-difference
    stencil (step 1e-4) whose centre gives the log-likelihood and whose
    differences give the gradient and Hessian, a step-halving line search
    never accepts a lower log-likelihood, bounds that the gradient pushes
    against held fixed, and the search stops once the step is below
    `refine_tol`. Every ACVF carries an AR(1) tail sized to its own phi.
    This is the one-series case of :func:`mle_fit_many`.

    Parameters
    ----------
    y : array_like
        Zero-mean, finite, one-dimensional series, length >= 20.
    refine_tol : float
        Parameter tolerance of the local refinement.

    Returns
    -------
    MleResult
        ``diagnostics`` holds the grid point (``grid_d``, ``grid_phi``,
        ``grid_loglik``), the refinement's likelihood evaluations
        (``evals``, nine per stencil) and convergence flag (``converged``:
        the step fell below `refine_tol`), and whether the
        estimate lies on an edge of the search box (``boundary``).

    Raises
    ------
    InvalidParameterError
        Input that is not a finite 1-D series of length >= 20.
    DegenerateInputError
        A series that is identically zero.
    EstimationFailedError
        A refinement that neither converges nor reaches the grid's
        log-likelihood.
    """
    return mle_fit_many([y], refine_tol)[0]


def mle_fit_many(ys, refine_tol=1e-6):
    """Fit many same-length series; each likelihood sweep serves them all.

    The grid stage evaluates every series in each call of the batched
    kernel. The refinement then runs in lockstep rounds: each round takes
    the pending stencil point of every live series and evaluates all of
    them in one stacked kernel call (split in whole stencils to about
    2**15 ACVF values per call), and a series leaves once its search
    stops. A fit does not depend on the series fitted with it, except for
    ``grid_loglik``, whose rounding follows how many series share the
    grid's matmuls. Validates like :func:`mle_fit`; an empty sequence or
    series of unequal lengths also raise :class:`InvalidParameterError`.
    """
    Y = _series_columns(ys)
    T, R = Y.shape
    d0, phi0, ll0 = _grid_search_many(Y)
    searches = [
        _refine_one(float(d0[r]), float(phi0[r]), float(ll0[r]), refine_tol)
        for r in range(R)
    ]
    pending = {r: next(search) for r, search in enumerate(searches)}
    series = np.ascontiguousarray(Y.T)[:, :, None]
    per_call = max(1, _BLOCK_VALUES // (9 * T))
    fits = [None] * R
    while pending:
        live = list(pending)
        values = []
        for start in range(0, len(live), per_call):
            block = live[start : start + per_call]
            gammas = np.stack([_stencil_rows(pending[r], T) for r in block])
            ll, sigma2 = _profile_loglik_batch(series[block], gammas)
            values += map(_stencil_fit, ll[:, :, 0], sigma2[:, :, 0])
        for r, value in zip(live, values):
            try:
                pending[r] = searches[r].send(value)
            except StopIteration as stop:
                fits[r] = stop.value
                del pending[r]
    return fits
