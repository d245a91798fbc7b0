"""Fractional difference coefficients and truncated fractional filters.

The operator ``(1-z)**d`` has the binomial expansion ``sum_j a_j(d) z**j``.
Only the first T coefficients ever act on a sample of length T, and the
truncated filter is lower triangular with a unit diagonal, so applying the
filter for ``-d`` afterwards restores the original series exactly (up to
rounding). One kernel filters a stack of rows, by one order or each row
by its own; :func:`apply_frac_filter` is its checked form.
"""

import numpy as np
import numpy.fft  # numpy loads it lazily; load it here, not inside the first filter call

from .exceptions import InvalidParameterError, _check_integer

__all__ = ["frac_diff_coeffs", "apply_frac_filter"]


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
        Number of coefficients to return (an integer >= 1).

    Returns
    -------
    ndarray of length n
        a_0(d), ..., a_{n-1}(d).
    """
    _check_integer(n, "n")
    if not np.isfinite(d):
        raise InvalidParameterError("fractional order d must be finite")
    n = int(n)
    if n < 1:
        raise InvalidParameterError("need at least one coefficient")
    return _coeff_rows(np.array(d, dtype=float), n)


def _coeff_rows(ds, n):
    """:func:`frac_diff_coeffs` of each order in the array ds, along a new last axis."""
    coeffs = np.empty(ds.shape + (n,))
    coeffs[..., 0] = 1.0
    if n > 1:
        j = np.arange(1, n, dtype=float)
        coeffs[..., 1:] = np.cumprod((j - 1.0 - ds[..., None]) / j, axis=-1)
    return coeffs


def apply_frac_filter(y, d):
    """Apply the truncated fractional filter (1-z)**d along the last axis.

    Output is w(t) = sum_{j=0}^{t-1} a_j(d) y(t-j) for t = 1..T, i.e.
    only observed past values enter. Passing ``-d`` applies the inverse
    filter. The convolution runs by FFT, in O(T log T) per series (the
    fast fractional difference of Jensen & Nielsen, 2014); d = 0 returns
    the input's values unchanged. This is the checked form of the one
    fractional filter kernel, :func:`_frac_filter_rows`.

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
    if not np.isfinite(d):
        raise InvalidParameterError("fractional order d must be finite")
    return _frac_filter_rows(y, d)


def _frac_filter_rows(x, ds):
    """The fractional filter of the finite stack x: every row by one order,
    or each row by its own order in ds.

    One FFT convolution filters every row, and a row of order 0 is
    returned unchanged; with every order 0 no FFT runs. A row's values do
    not depend on the rows filtered with it, so every row equals the
    filter of that row alone, bit for bit.
    """
    ds = np.asarray(ds, dtype=float)
    if not ds.any():
        return x.copy()
    out = _causal_filter(x, _causal_spectrum(_coeff_rows(ds, x.shape[-1])))
    out[ds == 0] = x[ds == 0]
    return out


# The one causal filter kernel: the fractional filter, the AR sieve path
# and the bootstrap draw filter all run as one FFT convolution of rows of
# length T with the first T weights of a causal impulse response.


def _fft_length(T):
    """FFT length for T outputs of a causal convolution: no wrap-around."""
    return 1 << (2 * T - 2).bit_length()


def _causal_spectrum(weights):
    """Spectrum of the T impulse-response weights along the last axis, for
    :func:`_causal_filter`."""
    return np.fft.rfft(weights, _fft_length(weights.shape[-1]), axis=-1)


def _causal_filter(x, spectrum, freq=None, path=None):
    """out(t) = sum_{j=0}^{t} k(j) x(t-j), t < T, along the last axis of x.

    `spectrum` is :func:`_causal_spectrum` of the weights k(0..T-1). Each
    row is transformed on its own, so a row's output does not depend on
    the rows stacked with it. With n = :func:`_fft_length` of T, `freq`
    receives the rows' n/2 + 1 spectral values and `path` their n-point
    inverse transforms, whose first T values are returned as a view;
    either buffer is allocated when omitted.
    """
    T = x.shape[-1]
    n = _fft_length(T)
    freq = np.fft.rfft(x, n, axis=-1, out=freq)
    freq *= spectrum
    return np.fft.irfft(freq, n, axis=-1, out=path)[..., :T]
