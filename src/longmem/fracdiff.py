"""Fractional difference coefficients and truncated fractional filters.

The operator ``(1-z)**d`` has the binomial expansion ``sum_j a_j(d) z**j``.
Only the first T coefficients ever act on a sample of length T, and the
truncated filter is lower triangular with a unit diagonal, so applying the
filter for ``-d`` afterwards restores the original series exactly (up to
rounding).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError

__all__ = ["FracCoeffs", "frac_diff_coeffs", "apply_frac_filter"]


@dataclass
class FracCoeffs:
    """Leading coefficients of the binomial expansion of (1-z)**d."""

    d: float
    coeffs: np.ndarray


def frac_diff_coeffs(d, n):
    """First `n` coefficients of the fractional difference operator.

    Uses the multiplicative recursion a_0 = 1, a_j = a_{j-1}*(j-1-d)/j,
    which is stable for any order; ratios of Gamma functions overflow
    long before j reaches typical sample sizes.

    Parameters
    ----------
    d : float
        Memory parameter of the operator (1-z)**d.
    n : int
        Number of coefficients to return (n >= 1).

    Returns
    -------
    FracCoeffs
    """
    if not np.isfinite(d):
        raise InvalidParameterError("fractional order d must be finite")
    n = int(n)
    if n < 1:
        raise InvalidParameterError("need at least one coefficient")
    coeffs = np.empty(n)
    coeffs[0] = 1.0
    if n > 1:
        j = np.arange(1, n, dtype=float)
        coeffs[1:] = np.cumprod((j - 1.0 - d) / j)
    return FracCoeffs(d=float(d), coeffs=coeffs)


def apply_frac_filter(y, d):
    """Apply the truncated fractional filter (1-z)**d along the last axis.

    Output is w(t) = sum_{j=0}^{t-1} a_j(d) y(t-j) for t = 1..T, i.e.
    only observed past values enter. Passing ``-d`` applies the inverse
    filter. The convolution runs by FFT, in O(T log T) per series (the
    fast fractional difference of Jensen & Nielsen, 2014); d = 0 returns
    the input unchanged.

    Parameters
    ----------
    y : array_like, shape (..., T)
        One series, or a stack of series along the leading axes; T >= 1.
    d : float
        Filter order.

    Returns
    -------
    ndarray of the shape of `y`
    """
    y = np.asarray(y, dtype=float)
    if y.ndim < 1 or y.shape[-1] < 1:
        raise InvalidParameterError("series must be non-empty along the last axis")
    if not np.all(np.isfinite(y)):
        raise InvalidParameterError("series contains non-finite values")
    if d == 0:
        return y.copy()
    T = y.shape[-1]
    coeffs = frac_diff_coeffs(d, T).coeffs
    n = 1 << (2 * T - 2).bit_length()  # no wrap-around into the first T outputs
    spectrum = np.fft.rfft(y, n, axis=-1) * np.fft.rfft(coeffs, n)
    return np.fft.irfft(spectrum, n, axis=-1)[..., :T]
