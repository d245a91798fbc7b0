"""Autoregressive approximation: Levinson-Durbin, Burg, AIC, residuals.

The Durbin-Levinson, Burg and AIC kernels take a stack of rows and give
each row values of its own; one series is a stack of one row.

Sign convention throughout: an AR(h) fit is stored as ``phi`` with
phi[0] = 1, so the innovation is eps(t) = sum_{j=0}^{h} phi[j] w(t-j).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateInputError,
    InvalidParameterError,
    NumericalDegeneracyError,
    _check_integer,
    _check_real,
    _check_series,
)

__all__ = [
    "ArFit",
    "ResidualSet",
    "levinson_durbin",
    "ar_residuals",
    "default_max_order",
]


@dataclass
class ArFit:
    """Fitted AR(h) filter with unit leading coefficient."""

    order: int
    phi: np.ndarray
    sigma2: float
    reflection: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        _check_integer(self.order, "order", least=0)
        self.phi = _check_series(self.phi, "phi")
        if self.phi.size != self.order + 1 or self.phi[0] != 1.0:
            raise InvalidParameterError("phi must have length order+1 with phi[0]=1")
        _check_real(self.sigma2, "sigma2")
        if not self.sigma2 > 0:
            raise InvalidParameterError("innovation variance must be positive")


@dataclass
class ResidualSet:
    """Raw and standardized one-step residuals of an AR fit."""

    raw: np.ndarray
    standardized: np.ndarray
    scale: float


def default_max_order(T):
    """Ceiling for the sieve order: floor((log T)^2), capped at T // 4,
    and at least 1; T is an integer >= 1."""
    _check_integer(T, "T", least=1)
    return max(1, min(int(math.log(T) ** 2), T // 4))


def _step_up(b, t, k):
    """Raise every row's prediction coefficients b[:, 1:t] to order t.

    Row i takes reflection coefficient k[i] in the prediction convention:
    b[i, j] -= k[i] b[i, t-j] for j = 1..t-1, then b[i, t] = k[i].
    Returns the view b[:, 1:t+1].
    """
    if t > 1:
        head = b[:, 1:t]
        head -= k[:, None] * b[:, t - 1 : 0 : -1]
    b[:, t] = k
    return b[:, 1 : t + 1]


def _durbin_levinson(gammas):
    """Durbin-Levinson sweep of G autocovariance rows gamma(0..n-1) at once.

    The one Durbin-Levinson kernel: the exact likelihood, the simulation
    and :func:`levinson_durbin` all run on it. Yields (t, k, b, v, bad)
    for t = 0..n-1, where row i predicts y(t) from its past by
    sum_{j=1}^{t} b[i, j-1] y(t-j) with error variance v[i], and k[i] is
    the step's reflection coefficient (None at t = 0). This prediction
    convention is the negative of the ``phi`` convention. bad[i] marks a
    row whose Toeplitz matrix is not positive definite up to order t:
    gamma(0) <= 0, or a reflection that is not finite or not inside
    (-1, 1). A bad row keeps k = 0 from then on, so its b and v stay
    finite, and has v = 1 from the start when gamma(0) <= 0. Each row's
    arithmetic is its own, so a row's values do not depend on the rows
    swept with it. `b` is a view that the next step overwrites and `bad`
    is updated in place.
    """
    G, n = gammas.shape
    # Reversed rows make the lags a step reads one contiguous forward slice.
    g_rev = np.ascontiguousarray(gammas[:, ::-1])
    b = np.zeros((G, n))
    one = np.ones(G)  # one - kk skips converting the float 1.0 at every step
    v = gammas[:, 0].copy()
    bad = v <= 0
    v[bad] = 1.0
    any_bad = bool(bad.any())
    yield 0, None, b[:, 1:1], v, bad
    for t in range(1, n):
        k = (gammas[:, t] - np.vecdot(b[:, 1:t], g_rev[:, n - t : n - 1])) / v
        kk = k * k
        # k * k < 1 exactly when |k| < 1, and NaN fails the test too; a
        # single row (simulate_gaussian, levinson_durbin) skips the reduction.
        if any_bad or not (kk[0] if G == 1 else kk.max()) < 1.0:
            bad |= ~(kk < 1.0)
            k[bad] = 0.0
            kk[bad] = 0.0
            any_bad = True
        v = v * (one - kk)
        yield t, k, _step_up(b, t, k), v, bad


def _coeffs_from_reflections(ks):
    """Assemble AR coefficients (phi convention) from reflection coefficients."""
    b = np.zeros((1, len(ks) + 1))
    for t in range(1, len(ks) + 1):
        _step_up(b, t, -ks[t - 1 : t])
    return np.concatenate(([1.0], -b[0, 1:]))


def levinson_durbin(acvf):
    """Solve the Yule-Walker equations for all orders 1..h.

    The one-row case of the batched Durbin-Levinson sweep that also
    drives the ARFIMA simulation and exact likelihood.

    Parameters
    ----------
    acvf : array_like
        Autocovariances gamma(0..h), gamma(0) > 0, with a positive
        definite Toeplitz matrix.

    Returns
    -------
    list of ArFit
        Fits of order 1, 2, ..., h. Prediction-error variances are
        non-increasing and every reflection coefficient lies in (-1, 1).
    """
    g = _check_series(acvf, "acvf", least=2)
    if g[0] <= 0:
        raise NumericalDegeneracyError("gamma(0) must be positive")

    fits = []
    ks = []
    for m, k, b, sigma2, bad in _durbin_levinson(g[None]):
        if m == 0:
            continue
        if bad[0]:
            raise NumericalDegeneracyError(
                f"autocovariance sequence is not positive definite at order {m}"
            )
        ks.append(-k[0])
        fits.append(
            ArFit(
                order=m,
                phi=np.concatenate(([1.0], -b[0])),
                sigma2=sigma2[0],
                reflection=np.array(ks),
            )
        )
    return fits


def _burg_reflections(W, h_max):
    """One Burg sweep of every row of W: reflections and error variances to h_max.

    Every row is swept on its own. Its dot products are row-wise
    (np.vecdot), which give a row the bits that np.dot gives it alone, so
    a row's values do not depend on the rows swept with it. A row fails
    at the first order whose reflection is not inside (-1, 1), which is
    NaN when the order's denominator vanishes (its numerator vanishes
    with it); its values from that order on mean nothing, and
    :func:`_burg_failure` reads the failure back.
    """
    T = W.shape[1]
    f = W.copy()
    b = W  # the backward errors from position m - 1 on, at order m - 1
    ks = np.empty((W.shape[0], h_max))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for m in range(1, h_max + 1):
            fm = f[:, m:]
            bm = b[:, : T - m]
            k = -2.0 * np.vecdot(fm, bm) / (np.vecdot(fm, fm) + np.vecdot(bm, bm))
            ks[:, m - 1] = k
            # f <- f + k b and b <- b + k f, from the old f and b.
            kb = k[:, None]
            b = kb * fm
            b += bm
            fm += kb * bm
        # sigma_m^2 = sigma_{m-1}^2 (1 - k_m^2) from sigma_0^2 = w.w / T,
        # multiplied in the order of that recursion.
        sig = np.cumprod(np.column_stack((np.vecdot(W, W) / T, 1.0 - ks * ks)), axis=-1)
    return ks, sig[:, 1:]


def _burg_failure(ks):
    """The NumericalDegeneracyError of one row of Burg reflections, or None."""
    bad = np.flatnonzero(~(np.abs(ks) < 1.0))
    if bad.size == 0:
        return None
    m = int(bad[0]) + 1
    if np.isnan(ks[m - 1]):
        return NumericalDegeneracyError(f"degenerate input at Burg order {m}")
    return NumericalDegeneracyError(
        f"Burg reflection coefficient hit the unit boundary at order {m}"
    )


def _burg_arfit(ks, sig):
    """The AR fit of the order len(ks) from a Burg sweep's first reflections."""
    return ArFit(
        order=ks.size,
        phi=_coeffs_from_reflections(ks),
        sigma2=float(sig[ks.size - 1]),
        reflection=ks,
    )


def _aic_burg_fit(W, h_max):
    """The sieve's AR fit of each row of W: AIC order and Burg coefficients.

    AIC(h) = T*log(sigma_h^2) + 2h over h = 1..h_max, with every variance
    taken from one Burg sweep of all rows to h_max; ties break toward the
    smaller order. The reflection at order m does not depend on where the
    sweep stops, so the first h reflections of the sweep give the same
    fit, bit for bit, as a second sweep to the chosen order h. Returns a
    list with the ArFit or the NumericalDegeneracyError of each row.
    """
    T = W.shape[1]
    if T <= 2 * h_max:
        raise InvalidParameterError("need T > 2*h_max observations")
    ks, sig = _burg_reflections(W, h_max)
    with np.errstate(invalid="ignore", divide="ignore"):  # rows that failed
        aic = T * np.log(sig) + 2.0 * np.arange(1, h_max + 1)
    orders = np.argmin(aic, axis=-1) + 1  # argmin returns the first minimum
    return [
        _burg_failure(row_ks) or _burg_arfit(row_ks[:h].copy(), row_sig)
        for row_ks, row_sig, h in zip(ks, sig, orders)
    ]


def ar_residuals(w, fit):
    """One-step residuals of an AR fit, standardized in-sample.

    Pre-sample values are taken from the end of the series
    (w(1-j) = w(T-j+1), j = 1..h), so exactly T residuals come back.
    Standardization removes the residual mean and divides by the
    maximum-likelihood scale, giving mean 0 and variance 1 in-sample.
    """
    return _residuals(_check_series(w, least=fit.order + 1), fit)


def _residuals(w, fit):
    """:func:`ar_residuals` of a finite float64 series longer than the fit
    order, unchecked: the form that a round's sieve fits use."""
    h = fit.order
    T = w.size
    wext = np.concatenate([w[T - h :], w])
    raw = np.convolve(wext, fit.phi, mode="valid")
    mean = raw.mean()
    scale = math.sqrt(np.mean((raw - mean) ** 2))
    if scale == 0.0:
        raise DegenerateInputError("residuals are constant; cannot standardize")
    return ResidualSet(raw=raw, standardized=(raw - mean) / scale, scale=scale)


def _offset_weights(phi):
    """Weights W with z = -W . past, the offsets of :func:`_presample_offsets`."""
    h = phi.size - 1
    ext = np.concatenate((phi[1:], np.zeros(h)))
    return ext[np.add.outer(np.arange(h), np.arange(h))]  # W[k, c] = phi[k+1+c]


def _presample_offsets(weights, init):
    """Input offsets that stand in for a pre-sample block of the AR recursion.

    Running sum_j phi[j] w(t-j) = eps(t) from the pre-sample values
    init = (w(1-h), ..., w(0)) gives the same path as running it from
    zeros with z[k] = -sum_{j>k} phi[j] w(k-j) added to eps(k), k < h.
    `weights` is :func:`_offset_weights` of phi. Works on the last axis
    of `init`; every row's sums are its own.
    """
    past = init[..., None, ::-1]  # past[..., 0, c] = w(-c)
    return -(past * weights).sum(axis=-1)


def _impulse_response(phi, T):
    """First T weights psi of 1/phi(z), psi(0) = 1, by block doubling.

    Once psi(0..m-1) is known, the recursion continues from the
    pre-sample block psi(m-h..m-1), so the next m weights are the
    zero-state response to its offsets: psi(m..2m-1) = (z * psi)(0..m-1).
    """
    h = phi.size - 1
    weights = _offset_weights(phi)
    psi = np.zeros(T + h)  # h leading zeros: psi(-h..-1) = 0
    psi[h] = 1.0
    m = 1
    while m < T and h > 0:
        z = _presample_offsets(weights, psi[m : m + h])
        n = min(m, T - m)
        psi[h + m : h + m + n] = np.convolve(z, psi[h : h + n])[:n]
        m *= 2
    return psi[h:]

