"""Exception types shared across the package, and the rules that check input."""

import math
import numbers

import numpy as np


class LongmemError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(LongmemError, ValueError):
    """An argument is outside the domain of the operation."""


class InvalidDesignError(LongmemError, ValueError):
    """A sample-size / bandwidth / Monte Carlo design is infeasible."""


class DegenerateInputError(LongmemError, ValueError):
    """The data carry no usable signal (e.g. a constant series)."""


class NumericalDegeneracyError(LongmemError, ArithmeticError):
    """A numerical procedure hit a degenerate configuration.

    Raised e.g. when a Toeplitz system is not positive definite, a
    reflection coefficient reaches the unit boundary, or a regression
    design is rank deficient.
    """


class EstimationFailedError(LongmemError, RuntimeError):
    """An estimator or optimizer failed to produce a usable value."""


def _check_integer(value, name, error=InvalidParameterError, least=None):
    """Refuse a count that is not an integer, such as 20.0, or is below
    `least`, with `error`.

    Numpy integers pass; 64.7 and 2.0 are refused, not truncated, and so
    is a bool, which Python counts as an integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")


def _check_real(value, name, error=InvalidParameterError):
    """Refuse anything but one finite real number, with `error`: a bool, a
    string, None, an array of any size, NaN and +-inf; numpy scalars pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise error(f"{name} must be a finite real number, got {value!r}")


def _check_flag(value, name):
    """Refuse anything but a bool or a numpy bool, such as 0, 1.0 or "no"."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be a bool, got {value!r}")


def _real_values(y, name):
    """The float64 array of `y`, uncopied if it is one, or InvalidParameterError
    for a ragged nest or values that are not integer or real floating (text,
    bool, complex, objects). Integer and real values convert as ``float(v)``."""
    try:
        y = np.asarray(y)
    except ValueError as exc:  # a ragged nest of sequences
        raise InvalidParameterError(f"{name} must hold real numbers: {exc}") from None
    if y.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must hold real numbers, got dtype {y.dtype}")
    return y.astype(float, copy=False)


def _check_series(y, name="series", least=1):
    """The float64 array of the series `y` (:func:`_real_values`), or
    InvalidParameterError for any shape but one dimension, fewer than
    `least` values, and NaN or +-inf."""
    y = _real_values(y, name)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise InvalidParameterError(f"{name} must be one-dimensional and finite")
    if y.size < least:
        raise InvalidParameterError(f"{name} must have at least {least} values, got {y.size}")
    return y
