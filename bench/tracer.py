"""Span tracer for the benchmark's traced runs.

The program carries no tracing of its own, so the tracer records spans
from outside: it rebinds every public function of each ``longmem``
module, plus a few private kernels, to a wrapper that records
(name, start, end, parent). Names that a module imports with
``from .x import f`` are rebound in the importing module's namespace
too, so a call such as ``harness -> simulate_gaussian`` is seen no
matter which module makes it. Spans are kept in memory and reduced to
per-function totals when the run ends.
"""

import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# Private kernels that carry most of a layer's time, traced by name.
PRIVATE = {
    "arfima": ("_acvf_rows", "_profile_loglik_batch", "_grid_search_many", "_refine_one"),
}


class Tracer:
    """Records one span per call of every traced ``longmem`` function."""

    def __init__(self):
        self.names = []
        # One entry per span; flat arrays keep the garbage collector out of it.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.observed = defaultdict(list)  # name -> values read from results

    def install(self, package):
        """Wrap the package's functions and rebind every reference to them."""
        prefix = package.__name__ + "."
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        seen = self.observed[name] if observe is not None else None

        def traced(*args, **kwargs):
            slot = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[slot] = clock()
                starts[slot] = start
                stack.pop()
            if observe is not None:
                seen.append(observe(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self):
        """Per-function calls, inclusive and self seconds."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.span_parent, durations):
            if parent >= 0:
                child[parent] += duration
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for index, duration, inner in zip(self.span_name, durations, child):
            name = self.names[index]
            calls[name] += 1
            incl[name] += duration
            own[name] += duration - inner
        return {
            name: {"calls": calls[name], "incl_s": incl[name], "self_s": own[name]}
            for name in calls
        }


# Values read from return values where the program computes a count but
# does not report it.
_OBSERVERS = {
    "estimators.splw_estimate": lambda res: bool(res.diagnostics.get("boundary")),
    "arsieve.select_order_aic": int,
    "bootstrap.iterate_bias_correct": lambda trace: len(trace.records),
}
