"""Fourier frequencies and the periodogram on the low-frequency band."""

import numpy as np
import numpy.fft  # numpy loads it lazily; load it here, not inside the first periodogram

from .exceptions import InvalidDesignError, InvalidParameterError, _check_integer

__all__ = ["bandwidth", "periodogram", "fourier_frequencies"]


def fourier_frequencies(T, N):
    """Fourier frequencies 2*pi*j/T for j = 1..N."""
    return 2.0 * np.pi * np.arange(1, N + 1) / T


def bandwidth(T, exponent, P=0):
    """Number of low frequencies used by a semiparametric estimator.

    N = floor(T**exponent), clamped to [P+2, floor((T-1)/2)]: a
    regression with P+2 parameters needs at least that many distinct
    frequencies, and N < T/2 keeps all frequencies below pi.

    Parameters
    ----------
    T : int
        Sample size (an integer >= 8).
    exponent : float
        Bandwidth exponent in (0, 1); 0.7 is the working default.
    P : int, optional
        Number of even-power correction terms in the estimator (an integer).

    Returns
    -------
    int
    """
    _check_integer(T, "T")
    _check_integer(P, "P")
    T = int(T)
    if T < 8:
        raise InvalidDesignError("sample size too small (need T >= 8)")
    if not 0.0 < exponent < 1.0:
        raise InvalidParameterError("bandwidth exponent must lie in (0, 1)")
    lo = int(P) + 2
    hi = (T - 1) // 2
    if lo > hi:
        raise InvalidDesignError(
            f"T={T} leaves only {hi} usable frequencies; need at least {lo}"
        )
    n = int(np.floor(T ** exponent))
    return min(max(n, lo), hi)


def periodogram(y, N):
    """Periodogram of a series at the first N nonzero Fourier frequencies.

    I(l_j) = |sum_t (y_t - ybar) exp(-i l_j t)|^2 / (2 pi T). The sample
    mean is removed first; at nonzero Fourier frequencies this leaves the
    ordinates unchanged in exact arithmetic but keeps them well behaved
    when the level of the series is far from zero.

    Parameters
    ----------
    y : array_like
        Observed series of length T, finite.
    N : int
        Number of ordinates, an integer with 1 <= N < T/2.

    Returns
    -------
    ndarray of length N
        I(l_1), ..., I(l_N) at l_j = ``fourier_frequencies(T, N)[j-1]``.
    """
    _check_integer(N, "N")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InvalidParameterError("series must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise InvalidParameterError("series contains non-finite values")
    N = int(N)
    if not 1 <= N < y.size / 2:
        raise InvalidParameterError("need 1 <= N < T/2")
    return _ordinates(y, N)


def _ordinates(y, N, centered=None, dft=None):
    """Periodogram ordinates j = 1..N of each series along the last axis.

    `centered` receives the mean-removed series (the shape of `y`) and
    `dft` their T/2 + 1 DFT values; either buffer is allocated when
    omitted.
    """
    T = y.shape[-1]
    x = np.subtract(y, y.mean(axis=-1, keepdims=True), out=centered)
    dft = np.fft.rfft(x, axis=-1, out=dft)[..., 1 : N + 1]
    return (dft.real ** 2 + dft.imag ** 2) / (2.0 * np.pi * T)
