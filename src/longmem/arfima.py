"""ARFIMA(1,d,0) ground truth: autocovariances, simulation, exact MLE.

The process is (1 - phi z) y(t) = n(t) with n fractional noise of order d.
Autocovariances combine the closed-form fractional-noise ACVF with the
AR(1) transfer function; simulation and likelihood both run through the
Durbin-Levinson prediction-error decomposition, so draws are exact and
the likelihood is the exact Gaussian one. The likelihood factors the
AR(1) out: x(t) = y(t) - phi y(t-1) is fractional noise, so its
Durbin-Levinson sweep depends on d alone and one sweep per d serves
every phi; the AR(1) enters through y(0) given x, whose moments need the
cross-covariances of y(0) with the noise (Sowell 1992; Doornik & Ooms
2003 for the Durbin-Levinson evaluation).
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
    _check_integer,
)

__all__ = [
    "ArfimaParams",
    "MleResult",
    "arfima_acvf",
    "simulate_gaussian",
    "mle_fit",
    "mle_fit_many",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ArfimaParams:
    """Parameters of a stationary, invertible ARFIMA(1,d,0) process.

    ``law`` is the innovation law token: 'gaussian', 'student-t' (5
    degrees of freedom) or 'student-t:DOF'. ``dof`` holds its degrees of
    freedom, inf for the Gaussian law.
    """

    d: float
    phi: float
    sigma2: float = 1.0
    law: str = "gaussian"
    dof: float = field(init=False, repr=False)

    def __post_init__(self):
        if not -0.5 < self.d < 0.5:
            raise InvalidParameterError("d must lie in (-0.5, 0.5)")
        if not abs(self.phi) < 1.0:
            raise InvalidParameterError("|phi| must be below 1")
        if not self.sigma2 > 0.0:
            raise InvalidParameterError("sigma2 must be positive")
        object.__setattr__(self, "dof", _parse_law(self.law))


def _parse_law(text):
    """Degrees of freedom of a law token: inf for 'gaussian'.

    The tokens are 'gaussian', 'student-t' (5 degrees of freedom) and
    'student-t:DOF' with DOF in (2, inf); anything else raises
    InvalidParameterError.
    """
    name, colon, dof = str(text).partition(":")
    if name == "gaussian" and not colon:
        return math.inf
    try:
        value = float(dof) if colon else 5.0
    except ValueError:
        value = math.nan
    if name == "student-t" and 2.0 < value < math.inf:
        return value
    raise InvalidParameterError(
        "law must be 'gaussian', 'student-t' or 'student-t:DOF' with DOF in (2, inf)"
    )


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
    ndarray
        gamma(0..max_lag).
    """
    max_lag = int(max_lag)
    if max_lag < 0:
        raise InvalidParameterError("max_lag must be nonnegative")
    m_tail = _ar1_tail_length(params.phi)
    gam = _acvf_rows([params.d], params.phi, max_lag + 1, m_tail)[0]
    return params.sigma2 * gam


def _standardized_deviates(params, T, rng):
    if params.dof < math.inf:
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
    Carlo harness runs, with `rng` as the generator of its one row; a
    row's values do not depend on what is simulated with it.

    Parameters
    ----------
    params : ArfimaParams
    T : int
        Series length (an integer >= 1).
    rng : numpy.random.Generator

    Returns
    -------
    ndarray of length T
    """
    _check_integer(T, "T")
    T = int(T)
    if T < 1:
        raise InvalidParameterError("T must be >= 1")
    return _simulate_rows([params], 1, T, lambda g, i: rng)[0, 0]


def _simulate_rows(cells, R, T, rng_at):
    """R series of length T per cell, each with the exact ACVF of its cell.

    The batched form of :func:`simulate_gaussian`, which is its one-row
    case: `cells` holds one ArfimaParams per cell, and row i of cell g
    draws its T standardized deviates of the cell's law into one
    (G, R, T) array from ``rng_at(g, i)``, called once, as the row is
    drawn, so a fresh generator lives only while its row is drawn. One
    Durbin-Levinson sweep of the G ACVFs drives the recursion of every
    row, and each step is one row-wise dot product, so a row's values do
    not depend on the rows or cells stacked with it. White-noise cells
    (and T = 1) skip the sweep.
    No T x T factor is formed; memory is O(G R T).
    """
    Z = np.empty((len(cells), R, T))
    for g, params in enumerate(cells):
        for i in range(R):
            Z[g, i] = _standardized_deviates(params, T, rng_at(g, i))
    gams = np.array([arfima_acvf(params, max_lag=T - 1) for params in cells])
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
    """Run y(t) = x(t) + phi y(t-1) along the last axis of x, in place.

    A log-step doubling scan, the prefix form of the first-order
    recurrence (Blelloch, "Prefix sums and their applications", 1990):
    after the step with shift s, y(t) holds the terms from x(t-2s+1..t).
    `phi` is a float, or an array of per-row coefficients that
    broadcasts against x[..., :1].
    """
    s = 1
    while s < x.shape[-1]:
        x[..., s:] += phi ** s * x[..., :-s]
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


def _cross_rows(head, phi, tail):
    """Cross-covariances g(0..n-1) of y(0) with the noise, and gamma_y(0).

    With (1 - phi z) y(t) = n(t) and n fractional noise of order d,
    g(k) = cov(y(0), n(k)) = sum_m phi^m gamma_d(k+m) (unit sigma2). The
    backward recursion g(k) = gamma_d(k) + phi g(k+1) is one
    :func:`_ar1_scan` on reversed rows, started from `tail`, the sum
    sum_m phi^m gamma_d(n+m) beyond lag n-1 (:func:`_ar1_sum`); then
    gamma_y(0) = (g(0) + phi g(1)) / (1 - phi^2). `head` holds
    gamma_d(0..n-1) on its last axis, and `phi` is a float or an array of
    per-row coefficients shaped like `tail`, whose last axis has length
    one; gamma_y(0) keeps that axis.
    """
    g = np.empty(np.broadcast_shapes(head.shape, tail.shape))
    g[...] = head[..., ::-1]
    g[..., :1] += phi * tail
    g = _ar1_scan(g, phi)[..., ::-1]
    return g, (g[..., :1] + phi * g[..., 1:2]) / (1.0 - phi * phi)


def _acvf_rows(d_values, phi, T, m_tail):
    """ACVF rows gamma(0..T-1) for many d at a single phi, unit sigma2.

    Two-sided AR(1) convolution of the fractional-noise ACVF,
    gamma_y(k) = sum_m phi^{|m|} gamma_d(k-m) / (1-phi^2), evaluated as
    the forward recursion gamma_y(k) = phi gamma_y(k-1) + g(k) (one
    :func:`_ar1_scan`) on the cross-covariances g of :func:`_cross_rows`,
    whose backward recursion starts from m_tail + 1 terms beyond lag
    max(T, 2) - 1.
    """
    n = max(T, 2)  # the seed of gamma_y(0) reads g(1)
    rows = np.array([_fractional_acvf(d, 1.0, n + m_tail) for d in d_values])
    g, gamma0 = _cross_rows(rows[:, :n], phi, _ar1_sum(rows[:, n:], phi)[:, None])
    out = g.copy()
    out[:, :1] = gamma0
    return _ar1_scan(out, phi)[:, :T]


# The one likelihood kernel of the MLE: the grid stage and every
# refinement round run through it.
def _profile_loglik_batch(Y, d_values, phis):
    """Concentrated Gaussian log-likelihoods of k independent problems.

    Problem i evaluates every pair of its D values d_values[i] and P
    values phis[i] on its r series Y[i]. The AR(1) is factored out:
    x(t) = y(t) - phi y(t-1), t = 1..T-1, is fractional noise of order
    d, and y -> (y(0), x) has unit Jacobian, so

        log f(y) = log f(x; d) + log f(y(0) | x; d, phi).

    The Durbin-Levinson sweep of gamma_d(0..T-2) depends on d alone. The
    innovations of x are A - phi B, with A and B the innovations of
    y(1..T-1) and y(0..T-2), and y(0) given x is Gaussian with mean
    sum U (A - phi B) / v and variance gamma_y(0) - sum U^2 / v, where U
    holds the innovations of the cross-covariances g(1..T-1) of
    :func:`_cross_rows`. So one sweep per d serves all of its phi, and
    each phi adds one column to the sweep's triangular solve. The grid
    is the k = 1 case (49 d x 99 phi); a refinement round stacks one
    3 x 3 stencil per live series.

    The (problem, d) rows are swept in blocks of at most _BLOCK_VALUES
    = 2**17 (d, phi, lag) values (at least one row with all its phi; the
    T = 100 grid takes 4 blocks). A block stores the sweep's right-hand
    sides, not its innovations, which enter the time sums a chunk of
    _CHUNK_STEPS steps at a time (:func:`_factored_loglik`). Each row's
    arithmetic is its own, so a problem's values do not depend on the
    problems stacked with it or on the block size.

    Parameters
    ----------
    Y : ndarray (k, T, r)
        Columns of Y[i] are the series of problem i.
    d_values : ndarray (k, D)
    phis : ndarray (k, P)

    Returns
    -------
    ll : ndarray (k, P * D, r)
        Profile log-likelihood (sigma2 maximized out analytically),
        phi-major: entry p * D + j is (d_values[i, j], phis[i, p]). -inf
        where the fractional ACVF is not positive definite, or the
        conditional variance of y(0) is not positive and finite.
    sigma2 : ndarray (k, P * D, r)
        Profiling variances.
    """
    k, T, r = Y.shape
    D, P = d_values.shape[1], phis.shape[1]
    # Each phi's tail sum runs once per problem, on the problem's D
    # fractional ACVFs, built once at the widest of its phi tails.
    head = np.empty((k, D, T))
    tail = np.empty((k, D, P, 1))
    for i in range(k):
        lengths = [_tail(phi) for phi in phis[i]]
        frac = np.array([_fractional_acvf(d, 1.0, T + max(lengths)) for d in d_values[i]])
        head[i] = frac[:, :T]
        for p, (phi, m) in enumerate(zip(phis[i], lengths)):
            tail[i, :, p, 0] = _ar1_sum(frac[:, T : T + m + 1], phi)
    del frac  # only the tail sums need the long rows
    rows = k * D
    head = head.reshape(rows, T)
    tail = tail.reshape(rows, P, 1)
    phi_rows = np.repeat(phis, D, axis=0)[..., None]
    ll = np.empty((k, P, D, r))
    sigma2 = np.empty((k, P, D, r))
    per_block = max(1, _BLOCK_VALUES // (P * T))
    for start in range(0, rows, per_block):
        block = np.arange(start, min(start + per_block, rows))
        i, j = np.divmod(block, D)
        ll[i, :, j], sigma2[i, :, j] = _factored_loglik(
            Y[i], head[block], phi_rows[block], tail[block]
        )
    return ll.reshape(k, P * D, r), sigma2.reshape(k, P * D, r)


def _factored_loglik(Y, head, phi, tail):
    """The factored likelihood of :func:`_profile_loglik_batch` on one block.

    Row j sweeps gamma_d(0..T-2) from head[j] and evaluates its P values
    phi[j] on its series Y[j] (T, r); returns ll and sigma2 of shape
    (rows, P, r). The innovations enter only through sums over time, so
    they are kept for _CHUNK_STEPS steps at a time: each chunk is scaled
    by 1/sqrt(v) and added into the sums as the sweep runs. A block of
    at most _BLOCK_VALUES (d, phi, lag) values holds the sweep's
    right-hand sides Z, and the cross-covariances only while Z is built.
    """
    rows, T, r = Y.shape
    n = T - 1
    g, gamma0 = _cross_rows(head[:, None], phi, tail)
    # Time runs backwards along Z, so the past of a step is one contiguous
    # slice; its columns are y(1..T-1), y(0..T-2) and g(1..T-1) per phi.
    Z = np.empty((rows, n, 2 * r + phi.shape[1]))
    Z[:, :, :r] = Y[:, :0:-1]
    Z[:, :, r : 2 * r] = Y[:, -2::-1]
    Z[:, :, 2 * r :] = g[:, :, :0:-1].transpose(0, 2, 1)
    del g
    # Time sums over 1/v: M[j, a, c] = sum_t E[t, a] E[t, c] / v(t) for the
    # series columns c, and uu[j, p] = sum_t E[t, 2r + p]^2 / v(t).
    M = np.zeros((rows, Z.shape[2], 2 * r))
    uu = np.zeros((rows, phi.shape[1]))
    chunk = min(_CHUNK_STEPS, n)
    E = np.empty((rows, chunk, Z.shape[2]))  # innovations of one chunk
    v = np.empty((rows, n))
    steps = _durbin_levinson(head[:, :n])
    for t, _, b, vt, bad in steps:
        v[:, t] = vt
        c = t % chunk
        E[:, c] = Z[:, n - 1 - t] - (b[:, None] @ Z[:, n - t :])[:, 0]
        if c == chunk - 1 or t == n - 1:
            S = E[:, : c + 1]
            S /= np.sqrt(v[:, t - c : t + 1])[..., None]
            M += S.transpose(0, 2, 1) @ S[..., : 2 * r]
            uu += np.vecdot(S[..., 2 * r :], S[..., 2 * r :], axis=1)
    diag = np.arange(r)
    aa = M[:, diag, diag][:, None]
    ab = M[:, diag, r + diag][:, None]
    bb = M[:, r + diag, r + diag][:, None]
    ua = M[:, 2 * r :, :r]
    ub = M[:, 2 * r :, r:]
    w = gamma0 - uu[..., None]  # conditional variance of y(0) given x
    ok = (w > 0.0) & np.isfinite(w) & ~bad[:, None, None]
    w = np.where(ok, w, 1.0)
    quad = aa - 2.0 * phi * ab + phi * phi * bb + (Y[:, None, 0] - (ua - phi * ub)) ** 2 / w
    sigma2 = quad / T
    sumlog = np.log(v).sum(axis=1)[:, None, None] + np.log(w)
    ll = -0.5 * T * (_LOG_2PI + np.log(sigma2) + 1.0) - 0.5 * sumlog
    return np.where(ok, ll, -np.inf), sigma2


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
# (d, phi, lag) values per block of the likelihood kernel: rows of one d
# with all of their phi are swept together up to this size, which bounds
# the memory of a block while amortizing its Python steps over many points.
# A block keeps its innovations for _CHUNK_STEPS sweep steps at a time.
_BLOCK_VALUES = 2 ** 17
_CHUNK_STEPS = 16
# Refinement: central-difference step of the likelihood stencil, cap on
# the Newton step per coordinate, cap on the Newton iterations, and the
# step length in every coordinate below which the search has converged.
_STENCIL_STEP = 1e-4
_MAX_STEP = 0.1
_MAX_NEWTON = 50
_REFINE_TOL = 1e-6


def _mle_grids():
    d_grid = np.arange(-0.48, 0.4801, _GRID_STEP)
    phi_grid = np.arange(-0.98, 0.9801, _GRID_STEP)
    return d_grid, phi_grid


def _tail(phi):
    """AR(1) tail of the ACVF convolution, sized to phi."""
    return _ar1_tail_length(phi, rel=1e-15)


def _grid_search_many(Y):
    """Best coarse-grid d, phi and log-likelihood per series (columns of Y).

    One kernel call evaluates the whole grid, 49 d x 99 phi, on every
    series; its (phi, d) table runs phi-major, so the first maximum is
    the one a sweep over phi, then d, would keep.
    """
    d_grid, phi_grid = _mle_grids()
    ll = _profile_loglik_batch(Y[None], d_grid[None], phi_grid[None])[0][0]
    idx = np.argmax(ll, axis=0)
    return d_grid[idx % d_grid.size], phi_grid[idx // d_grid.size], ll[idx, np.arange(Y.shape[1])]


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


def _refine_one(d0, phi0, ll0):
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
    clipped to the box, is shorter than ``_REFINE_TOL`` in every coordinate.
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
            if np.abs(x_new - x).max() < _REFINE_TOL:
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


def mle_fit(y):
    """Exact Gaussian MLE of (d, phi, sigma2) for an ARFIMA(1,d,0) model.

    The likelihood is evaluated through the Durbin-Levinson
    prediction-error decomposition with sigma2 profiled out analytically,
    the AR(1) factored out so that one sweep of the fractional-noise ACVF
    per d serves every phi. The search is a 0.02-step grid over
    (-0.49, 0.49) x (-0.99, 0.99), one call of the batched kernel swept in
    blocks of about 2**17 (d, phi, lag) values (one d with all 99 phi at
    least), followed by a projected Newton
    ascent on the same kernel: every point is a 3 x 3 central-difference
    stencil (step 1e-4) whose centre gives the log-likelihood and whose
    differences give the gradient and Hessian, a step-halving line search
    never accepts a lower log-likelihood, bounds that the gradient pushes
    against held fixed, and the search stops once the step is below 1e-6
    in every coordinate. Every cross-covariance of y(0) with the noise
    carries an AR(1) tail sized to its own phi. This is the one-series
    case of :func:`mle_fit_many`.

    Parameters
    ----------
    y : array_like
        Zero-mean, finite, one-dimensional series, length >= 20.

    Returns
    -------
    MleResult
        ``diagnostics`` holds the grid point (``grid_d``, ``grid_phi``,
        ``grid_loglik``), the refinement's likelihood evaluations
        (``evals``, nine per stencil) and convergence flag (``converged``:
        the step fell below 1e-6), and whether the
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
    return mle_fit_many([y])[0]


def mle_fit_many(ys):
    """Fit many same-length series; each likelihood sweep serves them all.

    The grid stage is one call of the batched kernel on all the series:
    one fractional-noise sweep per d of the grid serves every phi and
    every series. The refinement then runs in lockstep rounds: each round
    takes the pending stencil point of every live series and evaluates
    all of them in one stacked kernel call (3 d x 3 phi per series, swept
    in blocks of about 2**17 (d, phi, lag) values), and a series leaves
    once its search stops. A fit does not depend on the series fitted
    with it, except for ``grid_loglik``, whose rounding follows how many
    series share the grid's matmuls. The refinement stops as in
    :func:`mle_fit`, once the step is below 1e-6. Validates like :func:`mle_fit`; an
    empty sequence or series of unequal lengths also raise
    :class:`InvalidParameterError`.
    """
    Y = _series_columns(ys)
    R = Y.shape[1]
    d0, phi0, ll0 = _grid_search_many(Y)
    searches = [_refine_one(float(d0[r]), float(phi0[r]), float(ll0[r])) for r in range(R)]
    pending = {r: next(search) for r, search in enumerate(searches)}
    series = np.ascontiguousarray(Y.T)[:, :, None]
    steps = _STENCIL_STEP * np.arange(-1, 2)
    fits = [None] * R
    while pending:
        live = list(pending)
        x = np.array([pending[r] for r in live])
        ll, sigma2 = _profile_loglik_batch(series[live], x[:, :1] + steps, x[:, 1:] + steps)
        for r, value in zip(live, map(_stencil_fit, ll[:, :, 0], sigma2[:, :, 0])):
            try:
                pending[r] = searches[r].send(value)
            except StopIteration as stop:
                fits[r] = stop.value
                del pending[r]
    return fits
