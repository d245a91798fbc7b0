"""Log-periodogram regression and local Whittle memory estimators.

Both families use the first N = floor(T**nu) Fourier frequencies. P even
powers of frequency can be added to soak up curvature of the short-memory
spectrum near the origin; the price is a variance inflation factor that
grows with P.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateInputError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from .spectral import bandwidth, periodogram

__all__ = [
    "EstimatorSpec",
    "EstimateResult",
    "lpr_estimate",
    "splw_estimate",
    "estimate",
    "asymptotic_sd",
    "SEARCH_LO",
    "SEARCH_HI",
]

# Search region for the Whittle objective; the harness's deterministic
# stopping window uses the same bounds.
SEARCH_LO = -1.0
SEARCH_HI = 1.5

# Floor applied to periodogram ordinates before taking logs.
_LOG_FLOOR = 1e-300

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
        fam = self.family.lower()
        if fam not in ("lpr", "splw"):
            raise InvalidParameterError("family must be 'lpr' or 'splw'")
        object.__setattr__(self, "family", fam)
        if self.P not in (0, 1, 2, 3):
            raise InvalidParameterError("P must be one of 0, 1, 2, 3")
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


def asymptotic_sd(spec, N):
    """Asymptotic standard deviation omega * psi_P / sqrt(N)."""
    if spec.P > 3:
        raise InvalidParameterError("no variance inflation factor beyond P = 3")
    return math.sqrt(_OMEGA2[spec.family] * _PSI2[spec.P] / N)


def _log_ordinates(ordinates):
    if np.all(ordinates <= _LOG_FLOOR):
        raise DegenerateInputError("all periodogram ordinates vanish")
    return np.log(np.maximum(ordinates, _LOG_FLOOR))


def _design_matrix(freqs, P):
    cols = [np.ones_like(freqs), -2.0 * np.log(freqs)]
    for p in range(1, P + 1):
        cols.append(freqs ** (2 * p))
    return np.column_stack(cols)


def lpr_estimate(y, spec):
    """Log-periodogram regression estimate of the memory parameter.

    Regresses log I(l_j) on {1, -2 log l_j, l_j^2, ..., l_j^(2P)} over
    j = 1..N and reports the coefficient of -2 log l_j.

    Parameters
    ----------
    y : array_like
        Observed series.
    spec : EstimatorSpec
        Must have family 'lpr'.

    Returns
    -------
    EstimateResult
    """
    if spec.family != "lpr":
        raise InvalidParameterError("spec.family must be 'lpr'")
    y = np.asarray(y, dtype=float)
    N = bandwidth(y.size, spec.bandwidth_exponent, spec.P)
    pgram = periodogram(y, N)
    response = _log_ordinates(pgram.ordinates)
    X = _design_matrix(pgram.freqs, spec.P)
    beta, _, rank, _ = np.linalg.lstsq(X, response, rcond=None)
    if rank < X.shape[1]:
        raise NumericalDegeneracyError("rank-deficient regression design")
    resid = response - X @ beta
    dof = max(N - X.shape[1], 1)
    return EstimateResult(
        d_hat=float(beta[1]),
        N=N,
        asymptotic_sd=asymptotic_sd(spec, N),
        diagnostics={"residual_variance": float(resid @ resid / dof)},
    )


def _whittle_profile(pgram, P):
    """Concentrated Whittle objective R(d) as a pair (constant, slope).

    The local spectrum is modelled as G * l**(-2d) * exp(-sum_k th_k l**(2k)).
    With G profiled out analytically, R(d, th) = log mean_j[I_j e^{s_j}]
    - mean_j s_j where s_j = 2 d log l_j + sum_k th_k l_j**(2k). For P >= 1
    the polynomial coefficients are profiled by least squares on the
    log-periodogram: regressing log I_j + 2 d log l_j on {1, l^2, ..,
    l^(2P)} gives th_hat(d) affine in d, so s_j(d) = c_j + d * g_j.

    Returns (c, g, logI) with s_j(d) = c[j] + d * g[j].
    """
    freqs = pgram.freqs
    logI = _log_ordinates(pgram.ordinates)
    two_loglam = 2.0 * np.log(freqs)
    if P == 0:
        c = np.zeros_like(freqs)
        g = two_loglam
        return c, g, logI
    X = np.column_stack(
        [np.ones_like(freqs)] + [freqs ** (2 * p) for p in range(1, P + 1)]
    )
    beta_l, _, rank, _ = np.linalg.lstsq(X, logI, rcond=None)
    beta_x, _, _, _ = np.linalg.lstsq(X, two_loglam, rcond=None)
    if rank < X.shape[1]:
        raise NumericalDegeneracyError("rank-deficient polynomial design")
    # theta_hat(d) = -(beta_l[1:] + d * beta_x[1:]); intercepts are absorbed
    # by the profiled G.
    poly = X[:, 1:]
    c = -poly @ beta_l[1:]
    g = two_loglam - poly @ beta_x[1:]
    return c, g, logI


def _objective_value(d, c, g, logI):
    s = c + d * g
    expo = s + logI
    shift = expo.max()
    return shift + math.log(np.mean(np.exp(expo - shift))) - np.mean(s)


def _newton_solve(c, g, logI, lo, hi):
    """Minimize R(d) = _objective_value(d, c, g, logI) over [lo, hi].

    R is convex in d: R'(d) is the weighted mean of g minus its plain mean,
    with weights proportional to I_j e^{s_j(d)}, and R''(d) is the weighted
    variance of g. The weights are scale free, so the minimizer does not
    move under uniform rescalings of the ordinates. When R' keeps one sign
    on the interval, the edge it points to is returned as is; otherwise
    Newton steps on R' = 0 run inside the shrinking sign bracket, and a
    step that would leave the bracket is replaced by bisection.

    Returns (d, boundary).
    """
    base = c + logI
    gbar = np.mean(g)

    def slope(d):
        expo = base + d * g
        w = np.exp(expo - expo.max())
        wsum = w.sum()
        m1 = np.dot(w, g) / wsum
        return m1 - gbar, np.dot(w, (g - m1) ** 2) / wsum

    if slope(lo)[0] >= 0.0:
        return lo, True
    if slope(hi)[0] <= 0.0:
        return hi, True
    x = 0.5 * (lo + hi)
    for _ in range(100):
        r1, r2 = slope(x)
        if r1 < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - r1 / r2 if r2 > 0.0 else math.nan
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < 1e-13:
            return x_new, False
        x = x_new
    return x, False


def splw_estimate(y, spec):
    """Local Whittle estimate of the memory parameter.

    For P = 0 this minimizes the Robinson profile objective
    R(d) = log(mean_j l_j^{2d} I_j) - 2d mean_j log l_j over
    d in [SEARCH_LO, SEARCH_HI]. For P >= 1 the objective carries P even
    powers of frequency whose coefficients are profiled out by least
    squares on the log-periodogram (see `_whittle_profile`). R is convex
    in d, so the minimizer is the root of R'(d) = 0, found by a Newton
    iteration safeguarded by bisection and stopped once a step falls
    below 1e-13; when R' keeps one sign over the interval the minimizer
    is the edge itself.

    Returns
    -------
    EstimateResult
        ``diagnostics['objective']`` is R at the estimate, and
        ``diagnostics['boundary']`` is set when the minimizer sits on an
        edge of the search interval (``d_hat`` then equals SEARCH_LO or
        SEARCH_HI exactly).
    """
    if spec.family != "splw":
        raise InvalidParameterError("spec.family must be 'splw'")
    y = np.asarray(y, dtype=float)
    N = bandwidth(y.size, spec.bandwidth_exponent, spec.P)
    pgram = periodogram(y, N)
    c, g, logI = _whittle_profile(pgram, spec.P)
    d_hat, boundary = _newton_solve(c, g, logI, SEARCH_LO, SEARCH_HI)
    return EstimateResult(
        d_hat=float(d_hat),
        N=N,
        asymptotic_sd=asymptotic_sd(spec, N),
        diagnostics={
            "objective": _objective_value(d_hat, c, g, logI),
            "boundary": boundary,
        },
    )


def estimate(y, spec):
    """Dispatch to the estimator named by ``spec.family``."""
    if spec.family == "lpr":
        return lpr_estimate(y, spec)
    return splw_estimate(y, spec)
