"""Semiparametric long-memory estimation with sieve-bootstrap bias correction.

The package covers the full pipeline: fractional filters, periodograms,
autoregressive sieves, log-periodogram and local Whittle estimators,
pre-filtered sieve-bootstrap bias correction with stochastic stopping
rules and HPD intervals, exact ARFIMA(1,d,0) simulation and likelihood,
and a reproducible Monte Carlo harness.
"""

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
