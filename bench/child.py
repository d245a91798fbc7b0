"""One workload process of the benchmark.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC names the program's source directory, the entry point ("cli" runs
``longmem.cli.main(argv)``, "mle" runs ``longmem.mle_fit_many`` on the
columns of a CSV file), the instances to run and whether to trace them.
The process records the monotonic time at which the imports are done
(the end of set-up) and the start and end of each entry-point call, and
writes them with the outputs to RESULT. Traced runs also write the span
totals of the tracer.
"""

import contextlib
import io
import json
import sys
import time


def _run_cli(longmem, instance):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = longmem.cli.main(instance["argv"])
    return {"rc": rc, "stdout": out.getvalue()}


def _run_mle(longmem, instance):
    import numpy as np

    series = np.loadtxt(instance["series"], delimiter=",", ndmin=2)
    try:
        fits = longmem.mle_fit_many(list(series.T))
    except longmem.LongmemError as exc:
        return {"rc": 3, "error": str(exc)}
    rows = [
        [f.d_hat, f.phi_hat, f.sigma2, f.loglik, f.diagnostics["grid_loglik"]]
        for f in fits
    ]
    return {"rc": 0, "fits": rows}


def _environment(longmem):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "longmem_file": longmem.__file__,
    }


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import longmem
    import longmem.cli

    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(longmem)
    run = _run_cli if spec["kind"] == "cli" else _run_mle
    runs = []
    for instance in spec["instances"]:
        start = time.monotonic()
        outcome = run(longmem, instance)
        outcome.update(start=start, end=time.monotonic())
        runs.append(outcome)
    result = {"ready": ready, "runs": runs, "env": _environment(longmem)}
    if tracer is not None:
        result["trace"] = {"totals": tracer.totals(), "observed": tracer.observed}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
