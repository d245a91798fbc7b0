"""Command line front end: simulate, estimate, bias-correct, mc-run."""

import argparse
import os
import sys
import warnings

import numpy as np

from .arfima import ArfimaParams, _simulate_rows
from .bootstrap import BootstrapConfig, iterate_bias_correct
from .estimators import EstimatorSpec, estimate
from .exceptions import (
    DegenerateInputError,
    EstimationFailedError,
    InvalidDesignError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from .harness import emit_tables, load_design, run_design
from .streams import generator_at

_USAGE_ERRORS = (InvalidParameterError, InvalidDesignError, OSError, ValueError)
_NUMERIC_ERRORS = (
    NumericalDegeneracyError,
    DegenerateInputError,
    EstimationFailedError,
)


def _worker_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _read_series(path):
    with warnings.catch_warnings():  # an empty file is rejected below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.size == 0:
        raise InvalidParameterError(f"{path} has no observations")
    if data.shape[1] != 1:
        raise InvalidParameterError(
            f"{path} has {data.shape[1]} columns; expected one series"
        )
    return data[:, 0]


def _cmd_simulate(args):
    params = ArfimaParams(d=args.d, phi=args.phi, sigma2=1.0, law=args.law)
    if args.T < 1 or args.n < 1:
        raise InvalidParameterError("--T and --n must be at least 1")
    Y = _simulate_rows([params], args.n, args.T, lambda g, i: generator_at(args.seed, i))[0]
    np.savetxt(args.out, Y.T, fmt="%.17g", delimiter=",")
    return 0


def _cmd_estimate(args):
    y = _read_series(args.infile)
    spec = EstimatorSpec(args.family, args.P, args.bandwidth_exp)
    res = estimate(y, spec)
    print(f"d_hat {res.d_hat:.10g}")
    print(f"asymptotic_sd {res.asymptotic_sd:.10g}")
    print(f"N {res.N}")
    return 0


def _cmd_bias_correct(args):
    config = BootstrapConfig(B=args.B, innovation_mode=args.mode, rng_stream=args.seed)
    y = _read_series(args.infile)
    spec = EstimatorSpec(args.family, args.P, args.bandwidth_exp)
    trace = iterate_bias_correct(
        y,
        spec,
        config,
        max_iter=args.max_iter if args.iterate else 1,
        fixed=not args.iterate,
    )
    first = trace.outcomes[0]
    print(f"d_hat {trace.d_initial:.10g}")
    print(f"d_tilde {trace.final:.10g}")
    print(f"bias_hat {first.bias_hat:.10g}")
    print(f"hpd95 {first.hpd[0]:.10g} {first.hpd[1]:.10g}")
    if args.iterate:
        print(f"stop_reason {trace.stop_reason}")
        for rec in trace.records:
            print(
                f"iter {rec.k} d {rec.d_current:.10g} bias {rec.bias_hat:.10g}"
                f" tau1 {rec.tau1:.6g} tau2 {rec.tau2:.6g}"
                f" crit1 {rec.crit1:.6g} crit2 {rec.crit2:.6g}"
                f" stop {rec.stop_reason}"
            )
    return 0


def _cmd_mc_run(args):
    design = load_design(args.config)
    os.makedirs(args.out_dir, exist_ok=True)
    results = run_design(design, threads=args.threads)
    csv_path = os.path.join(args.out_dir, "results.csv")
    txt_path = os.path.join(args.out_dir, "tables.txt")
    emit_tables(results, "csv", csv_path)
    emit_tables(results, "aligned-text", txt_path)
    print(csv_path)
    print(txt_path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="longmem",
        description="Long-memory estimation with sieve-bootstrap bias correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate ARFIMA(1,d,0) series")
    sim.add_argument("--d", type=float, required=True)
    sim.add_argument("--phi", type=float, required=True)
    sim.add_argument("--T", type=int, required=True, help="series length")
    sim.add_argument("--n", type=int, default=1, help="number of series (columns)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--law", default="gaussian", help="gaussian, student-t or student-t:DOF"
    )
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the memory parameter")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--family", choices=["lpr", "splw"], required=True)
    est.add_argument("--P", type=int, choices=[0, 1, 2, 3], default=0)
    est.add_argument("--bandwidth-exp", type=float, default=0.7)
    est.set_defaults(func=_cmd_estimate)

    bc = sub.add_parser("bias-correct", help="bootstrap bias correction")
    bc.add_argument("--in", dest="infile", required=True)
    bc.add_argument("--family", choices=["lpr", "splw"], required=True)
    bc.add_argument("--P", type=int, choices=[0, 1, 2, 3], default=0)
    bc.add_argument("--B", type=int, required=True)
    bc.add_argument(
        "--mode", choices=["parametric", "nonparametric"], default="parametric"
    )
    bc.add_argument("--iterate", action="store_true")
    bc.add_argument("--max-iter", type=int, default=10)
    bc.add_argument("--seed", type=int, default=0)
    bc.add_argument("--bandwidth-exp", type=float, default=0.7)
    bc.set_defaults(func=_cmd_bias_correct)

    mc = sub.add_parser("mc-run", help="run a Monte Carlo design")
    mc.add_argument("--config", required=True)
    mc.add_argument("--out-dir", required=True)
    mc.add_argument("--threads", type=_worker_count, default=1)
    mc.set_defaults(func=_cmd_mc_run)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
