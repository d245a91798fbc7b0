"""Semiparametric long-memory estimation with sieve-bootstrap bias correction.

The package covers the full pipeline: fractional filters, periodograms,
autoregressive sieves, log-periodogram and local Whittle estimators,
pre-filtered sieve-bootstrap bias correction with stochastic stopping
rules and HPD intervals, exact ARFIMA(1,d,0) simulation and likelihood,
and a reproducible Monte Carlo harness.
"""

import os

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it. longmem's
# BLAS calls (dot products of a few thousand values, SVDs of N x (P + 2)
# designs) are too small for OpenBLAS to split across threads, yet its
# worker threads spin on the other cores for about 0.1 s after numpy loads,
# taking them from a bootstrap pass's draw threads. So unless the variable
# is set, numpy loads with it at 1, and it is removed again at once so that
# subprocesses do not inherit it. Where numpy loaded before longmem, this
# changes nothing.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy

from .arfima import (
    ArfimaParams,
    MleResult,
    arfima_acvf,
    mle_fit,
    mle_fit_many,
    simulate_gaussian,
)
from .arsieve import (
    ArFit,
    ResidualSet,
    ar_residuals,
    default_max_order,
    levinson_durbin,
)
from .bootstrap import (
    BootstrapConfig,
    BootstrapOutcome,
    IterationTrace,
    SieveFit,
    bias_correct,
    hpd_interval,
    iterate_bias_correct,
    prefilter_sieve,
    stopping_thresholds,
)
from .estimators import (
    EstimateResult,
    EstimatorSpec,
    asymptotic_sd,
    estimate,
    lpr_estimate,
    splw_estimate,
)
from .exceptions import (
    DegenerateInputError,
    EstimationFailedError,
    InvalidDesignError,
    InvalidParameterError,
    LongmemError,
    NumericalDegeneracyError,
)
from .fracdiff import apply_frac_filter, frac_diff_coeffs
from .harness import (
    EstimatorTask,
    McCellResult,
    McDesign,
    emit_tables,
    load_design,
    parse_estimator_token,
    read_results_csv,
    run_design,
)
from .spectral import bandwidth, fourier_frequencies, periodogram

__version__ = "0.1.0"
