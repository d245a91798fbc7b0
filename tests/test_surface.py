"""The public surface of ``longmem``: a name joins or leaves it deliberately."""

import importlib
import pkgutil
import types

import pytest

import longmem

PUBLIC_NAMES = [
    "ArFit",
    "ArfimaParams",
    "BootstrapConfig",
    "BootstrapOutcome",
    "DegenerateInputError",
    "EstimateResult",
    "EstimationFailedError",
    "EstimatorSpec",
    "EstimatorTask",
    "InvalidDesignError",
    "InvalidParameterError",
    "IterationTrace",
    "LongmemError",
    "McCellResult",
    "McDesign",
    "MleResult",
    "NumericalDegeneracyError",
    "ResidualSet",
    "SieveFit",
    "apply_frac_filter",
    "ar_residuals",
    "arfima_acvf",
    "asymptotic_sd",
    "bandwidth",
    "bias_correct",
    "default_max_order",
    "emit_tables",
    "estimate",
    "fourier_frequencies",
    "frac_diff_coeffs",
    "hpd_interval",
    "iterate_bias_correct",
    "levinson_durbin",
    "load_design",
    "lpr_estimate",
    "mle_fit",
    "mle_fit_many",
    "parse_estimator_token",
    "periodogram",
    "prefilter_sieve",
    "read_results_csv",
    "run_design",
    "simulate_gaussian",
    "splw_estimate",
    "stopping_thresholds",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(longmem).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(longmem.__path__))
)
def test_every_all_entry_exists(module):
    mod = importlib.import_module(f"longmem.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
