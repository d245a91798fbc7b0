"""One input contract for the public names of longmem.

Every row of the table is (public name, argument, call, bad values): each
bad value, passed alone for that argument with every other argument
valid, raises InvalidParameterError (InvalidDesignError for McDesign)
before any work starts. Five rules own the checks: counts go through
``exceptions._check_integer``, finite reals through
``exceptions._check_real``, seeds through ``streams.as_seed_sequence``,
flags through ``exceptions._check_flag`` and series through
``exceptions._check_series``.
The result records (RECORDS) are built by the package and check nothing,
and the documented acceptances are tested at the end.
"""

import math
import os

import numpy as np
import pytest

import longmem as lm
import longmem.arfima as amod
import longmem.arsieve as smod
import longmem.bootstrap as bmod
import longmem.estimators as emod
import longmem.fracdiff as fmod
import longmem.harness as hmod
import longmem.spectral as pmod

# The classes of bad value, each also tried out of range below.
NOT_INTEGER = [True, 2.0, 2.5, math.nan, math.inf, "3", None, np.array([3])]
NOT_REAL = [True, "0.1", None, math.nan, math.inf, -math.inf, np.array([0.1])]
NOT_SEED = [-1, 2.5, True, None, "7", [1, 2]]
NOT_FLAG = ["no", 0, 1, 0.0, None]

Y = np.random.default_rng(0).standard_normal(64)
TEXT = np.array(["a"] * 64)
RAGGED = [[1.0, 2.0], [3.0]]
NOT_SERIES = [np.ones((2, 64)), np.r_[np.nan, np.ones(63)], np.r_[np.inf, np.ones(63)],
              TEXT, Y + 0j, Y > 0, RAGGED]
SPEC = lm.EstimatorSpec("lpr", 0)
CONFIG = lm.BootstrapConfig(B=20, rng_stream=1)
PARAMS = lm.ArfimaParams(0.2, 0.3)
FIT = lm.ArFit(order=1, phi=[1.0, -0.5], sigma2=1.0)
DESIGN = dict(T_values=(64,), d_values=(0.2,), phi_values=(0.3,), R=2,
              estimators=(lm.parse_estimator_token("lpr0-ssr"),), B=20, seed=3)


def design(**kw):
    return lm.McDesign(**{**DESIGN, **kw})


def cell(name):
    """The design keyword that holds one bad value as a one-value axis."""
    return lambda v: design(**{name: (v,)})


TABLE = [
    # arfima
    ("ArfimaParams", "d", lambda v: lm.ArfimaParams(v, 0.3), NOT_REAL + [0.5, -0.5]),
    ("ArfimaParams", "phi", lambda v: lm.ArfimaParams(0.2, v), NOT_REAL + [1.0, -1.0]),
    ("ArfimaParams", "sigma2", lambda v: lm.ArfimaParams(0.2, 0.3, v), NOT_REAL + [0.0, -1.0]),
    ("ArfimaParams", "law", lambda v: lm.ArfimaParams(0.2, 0.3, law=v),
     ["cauchy", "student-t:2", "student-t7", None, 5]),
    ("arfima_acvf", "max_lag", lambda v: lm.arfima_acvf(PARAMS, v), NOT_INTEGER + [-1]),
    ("simulate_gaussian", "T", lambda v: lm.simulate_gaussian(
        PARAMS, v, np.random.default_rng(0)), NOT_INTEGER + [0, -1]),
    ("mle_fit_many", "y in ys", lambda v: lm.mle_fit_many([v]),
     NOT_SERIES + [np.ones(19), np.zeros((0,))]),
    ("mle_fit_many", "ys", lm.mle_fit_many, [[], [Y, Y[:40]], [np.ones((2, 30))], 5]),
    # arsieve
    ("ArFit", "order", lambda v: lm.ArFit(order=v, phi=[1.0, 0.5], sigma2=1.0),
     [True, 1.0, "1", None, -1]),
    ("ArFit", "phi", lambda v: lm.ArFit(order=1, phi=v, sigma2=1.0),
     [[1.0], [0.5, 0.5], [1.0, 0.5, 0.2], [1.0, math.nan], [1.0, math.inf], ["1", "0.5"],
      [1.0 + 0j, 0.5], [True, False]]),
    ("ArFit", "sigma2", lambda v: lm.ArFit(order=1, phi=[1.0, 0.5], sigma2=v),
     NOT_REAL + [0.0, -1.0]),
    ("ar_residuals", "w", lambda v: lm.ar_residuals(v, FIT),
     [np.ones((2, 64)), Y[:1], np.r_[np.nan, Y], np.r_[Y, np.inf], TEXT]),
    ("default_max_order", "T", lm.default_max_order, NOT_INTEGER + [0, -3]),
    ("levinson_durbin", "acvf", lm.levinson_durbin,
     [[1.0], np.ones((2, 3)), [1.0, math.nan], [1.0, math.inf], ["1", "0.5"]]),
    # bootstrap
    ("BootstrapConfig", "B", lambda v: lm.BootstrapConfig(B=v), NOT_INTEGER + [0, 9, -1]),
    ("BootstrapConfig", "innovation_mode",
     lambda v: lm.BootstrapConfig(B=20, innovation_mode=v), ["bogus", None]),
    ("BootstrapConfig", "rng_stream",
     lambda v: lm.BootstrapConfig(B=20, rng_stream=v), NOT_SEED),
    ("prefilter_sieve", "y", lambda v: lm.prefilter_sieve(v, 0.2), NOT_SERIES + [Y[:2]]),
    ("prefilter_sieve", "d_f", lambda v: lm.prefilter_sieve(Y, v), NOT_REAL),
    ("bias_correct", "y", lambda v: lm.bias_correct(v, SPEC, 0.2, CONFIG), NOT_SERIES),
    ("bias_correct", "d_f", lambda v: lm.bias_correct(Y, SPEC, v, CONFIG), NOT_REAL),
    ("iterate_bias_correct", "y", lambda v: lm.iterate_bias_correct(v, SPEC, CONFIG),
     NOT_SERIES),
    ("iterate_bias_correct", "max_iter",
     lambda v: lm.iterate_bias_correct(Y, SPEC, CONFIG, max_iter=v), NOT_INTEGER + [0, -1]),
    ("iterate_bias_correct", "fixed",
     lambda v: lm.iterate_bias_correct(Y, SPEC, CONFIG, fixed=v), NOT_FLAG),
    ("hpd_interval", "draws", lambda v: lm.hpd_interval(v, 0.1),
     [np.ones((20, 2)), np.arange(9.0), np.r_[np.nan, np.arange(19.0)], TEXT[:20],
      np.arange(20.0) + 1j]),
    ("hpd_interval", "d_hat", lambda v: lm.hpd_interval(np.arange(20.0), v), NOT_REAL),
    ("stopping_thresholds", "k", lambda v: lm.stopping_thresholds(v, 77, 200, 0.6, 0),
     NOT_INTEGER + [-1]),
    ("stopping_thresholds", "N", lambda v: lm.stopping_thresholds(1, v, 200, 0.6, 0),
     NOT_INTEGER + [0, -1]),
    ("stopping_thresholds", "B", lambda v: lm.stopping_thresholds(1, 77, v, 0.6, 0),
     [True, "200", None, math.nan, -math.inf, np.array([200]), 0, -1]),
    ("stopping_thresholds", "upsilon",
     lambda v: lm.stopping_thresholds(1, 77, 200, v, 0), NOT_REAL + [0.0, -0.6]),
    ("stopping_thresholds", "P", lambda v: lm.stopping_thresholds(1, 77, 200, 0.6, v),
     NOT_INTEGER + [-1, 4, 7]),
    # estimators
    ("EstimatorSpec", "family", lm.EstimatorSpec, ["arma", "", None, 5]),
    ("EstimatorSpec", "P", lambda v: lm.EstimatorSpec("lpr", v), NOT_INTEGER + [-1, 4]),
    ("EstimatorSpec", "bandwidth_exponent", lambda v: lm.EstimatorSpec("lpr", 0, v),
     NOT_REAL + [0.0, 1.0, 1.5]),
    ("asymptotic_sd", "N", lambda v: lm.asymptotic_sd(SPEC, v), NOT_INTEGER + [0, -1]),
    ("estimate", "y", lambda v: lm.estimate(v, SPEC), NOT_SERIES),
    # fracdiff
    ("frac_diff_coeffs", "d", lambda v: lm.frac_diff_coeffs(v, 5), NOT_REAL),
    ("frac_diff_coeffs", "n", lambda v: lm.frac_diff_coeffs(0.3, v), NOT_INTEGER + [0, -1]),
    ("apply_frac_filter", "y", lambda v: lm.apply_frac_filter(v, 0.3),
     [np.float64(1.0), np.ones((2, 0)), np.r_[np.nan, Y], TEXT, Y + 0j, Y > 0, RAGGED]),
    ("apply_frac_filter", "d", lambda v: lm.apply_frac_filter(Y, v), NOT_REAL),
    # harness
    ("EstimatorTask", "K", lambda v: lm.EstimatorTask("lpr", 0, "bba", v),
     NOT_INTEGER + [0, -1]),
    ("EstimatorTask", "correction", lambda v: lm.EstimatorTask("lpr", 0, v),
     ["bogus", None]),
    ("EstimatorTask", "K with no BBA", lambda v: lm.EstimatorTask("lpr", 0, "ssr", v), [1, 4]),
    ("EstimatorTask", "hpd", lambda v: lm.EstimatorTask("lpr", 0, hpd=v), NOT_FLAG),
    ("parse_estimator_token", "token", lm.parse_estimator_token,
     ["lpr99", "lpr4", "arma0", "lpr", "lpr0-bba", "lpr0-bbax", "lpr0-ssr-ssr",
      "lpr0-ssr-bba2", "lpr0-hpd-hpd", "lpr0-bba0"]),
    ("McDesign", "T", cell("T_values"), NOT_INTEGER + [7, -64]),
    ("McDesign", "d", cell("d_values"), NOT_REAL + [0.5]),
    ("McDesign", "phi", cell("phi_values"), NOT_REAL + [1.0]),
    ("McDesign", "R", lambda v: design(R=v), NOT_INTEGER + [0, -1]),
    ("McDesign", "B", lambda v: design(B=v), NOT_INTEGER + [0, 9]),
    ("McDesign", "max_iter", lambda v: design(max_iter=v), NOT_INTEGER + [0]),
    ("McDesign", "seed", lambda v: design(seed=v), NOT_SEED),
    ("McDesign", "bandwidth_exponent", lambda v: design(bandwidth_exponent=v),
     NOT_REAL + [1.5]),
    ("McDesign", "mode", lambda v: design(mode=v), ["bogus", None]),
    ("McDesign", "law", lambda v: design(law=v), ["cauchy", "student-t:2"]),
    ("McDesign", "estimators", cell("estimators"), ["lpr0", None, 5]),
    ("McDesign", "axis", lambda v: design(**{v: ()}),
     ["T_values", "d_values", "phi_values", "estimators"]),
    ("run_design", "threads", lambda v: lm.run_design(design(), v), NOT_INTEGER + [0, -1]),
    ("emit_tables", "results", lambda v: lm.emit_tables(v, "csv", os.devnull), [[], ()]),
    ("emit_tables", "fmt", lambda v: lm.emit_tables([object()], v, os.devnull),
     ["bogus", None]),
    # spectral
    ("bandwidth", "T", lambda v: lm.bandwidth(v, 0.7), NOT_INTEGER),
    ("bandwidth", "exponent", lambda v: lm.bandwidth(100, v), NOT_REAL + [0.0, 1.0]),
    ("bandwidth", "P", lambda v: lm.bandwidth(100, 0.7, v), NOT_INTEGER + [-1]),
    ("fourier_frequencies", "T", lambda v: lm.fourier_frequencies(v, 3), NOT_INTEGER),
    ("fourier_frequencies", "N", lambda v: lm.fourier_frequencies(10, v),
     NOT_INTEGER + [0, -1, 5, 20]),
    ("periodogram", "y", lambda v: lm.periodogram(v, 3), NOT_SERIES),
    ("periodogram", "N", lambda v: lm.periodogram(Y, v), NOT_INTEGER + [0, 32, 64]),
]


def label(value):
    """A short test id for a bad value: a long array by its shape and first value."""
    if isinstance(value, list):
        return "[" + ", ".join(map(label, value)) + "]"
    if isinstance(value, np.ndarray) and value.size > 3:
        return f"array{value.shape}:{value.flat[0]}"
    return repr(value)


ROWS = [
    pytest.param(name, call, bad, id=f"{name}-{arg}-{label(bad)}")
    for name, arg, call, bads in TABLE
    for bad in bads
]

# Built by the package; they check nothing.
RECORDS = {"ResidualSet", "SieveFit", "BootstrapOutcome", "IterationTrace",
           "EstimateResult", "MleResult", "McCellResult"}
# Their malformed files are tested in tests/test_harness.py.
FILE_READERS = {"load_design", "read_results_csv"}

# The kernels behind the entry points; a row that reaches one has started work.
WORK = [
    (amod, "_simulate_rows"), (amod, "_acvf_rows"), (amod, "_grid_search_many"),
    (smod, "_durbin_levinson"), (bmod, "_estimate_draws"), (bmod, "_prefilter_rows"),
    (bmod, "_p_schedule"), (emod, "_estimate_rows"), (fmod, "_coeff_rows"),
    (fmod, "_frac_filter_rows"), (hmod, "_block_worker"), (hmod, "_run_pool"),
    (pmod, "_ordinates"),
]


def test_every_public_name_that_takes_input_has_a_row():
    errors = {name for name in dir(lm) if isinstance(getattr(lm, name), type)
              and issubclass(getattr(lm, name), Exception)}
    public = {name for name in dir(lm) if not name.startswith("_")
              and callable(getattr(lm, name))} - errors
    assert public - RECORDS - FILE_READERS == {name for name, *_ in TABLE}


@pytest.mark.parametrize("name, call, bad", ROWS)
def test_bad_argument_rejected_before_any_work(monkeypatch, name, call, bad):
    def started(*args, **kwargs):
        raise AssertionError("work started")

    for module, attr in WORK:
        monkeypatch.setattr(module, attr, started)
    error = lm.InvalidDesignError if name == "McDesign" else lm.InvalidParameterError
    with pytest.raises(error):
        call(bad)


def test_a_stack_of_rows_is_filtered_row_by_row():
    # apply_frac_filter filters along the last axis, so a 2-D y is accepted.
    stack = np.stack([Y, 2.0 * Y])
    got = lm.apply_frac_filter(stack, 0.3)
    assert np.array_equal(got[0], lm.apply_frac_filter(Y, 0.3))
    assert np.array_equal(got[1], lm.apply_frac_filter(2.0 * Y, 0.3))


def test_infinite_draws_are_the_limit_of_the_thresholds():
    # stopping_thresholds takes B = inf, the limit of many draws.
    tau = lm.stopping_thresholds(1, 77, math.inf, 0.6, 0)
    assert all(math.isfinite(t) and t > 0 for t in tau)


def test_numpy_scalars_pass_every_rule():
    assert np.array_equal(lm.frac_diff_coeffs(np.float32(0.25), np.int64(5)),
                          lm.frac_diff_coeffs(0.25, 5))
    assert lm.ArfimaParams(np.float64(0.2), np.float64(0.3)) == PARAMS
    stream = lm.BootstrapConfig(B=np.int32(20), rng_stream=np.int64(1)).rng_stream
    assert stream.entropy == CONFIG.rng_stream.entropy
    assert lm.hpd_interval(np.arange(20.0), np.float64(0.1)) == lm.hpd_interval(
        np.arange(20.0), 0.1)


def test_integer_and_single_precision_series_read_as_their_float64_copy():
    # Integer and float32 values convert as np.asarray(y, dtype=float) does.
    for y in ((1000 * Y).astype(np.int64), Y.astype(np.float32)):
        copy = y.astype(float)
        assert lm.estimate(y, SPEC) == lm.estimate(copy, SPEC)
        assert lm.periodogram(y, 5).tobytes() == lm.periodogram(copy, 5).tobytes()
        assert lm.hpd_interval(y[:20], 0.1) == lm.hpd_interval(copy[:20], 0.1)
