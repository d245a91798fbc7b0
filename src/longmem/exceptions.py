"""Exception types shared across the package, and the check of counts."""

import numbers


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


def _check_integer(value, name, error=InvalidParameterError):
    """Refuse a count that is not an integer, such as 20.0, with `error`.

    Numpy integers pass; 64.7 and 2.0 are refused, not truncated.
    """
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
