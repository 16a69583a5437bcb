"""One ``statinv converge`` process, as launched by ``run.py``.

    python converge_child.py RECORD TRACE converge --config ... --seed ... --out ...

Runs ``statinv.cli.main`` on the remaining arguments, exactly as the
``statinv`` console script does, and exits with its return code.  Before
that it rebinds entry points of the ``statinv`` modules to wrappers that live
here; nothing under ``src/`` is changed.

* ``TRACE = 0``: only ``noise.observe`` is wrapped, to take one timestamp
  (``time.monotonic_ns``) at its first call.  RECORD receives that number.
* ``TRACE = 1``: every entry point in ``ENTRY_POINTS`` records a span (name,
  start, end, parent, replicate tag) kept in memory; the results of the
  choice and estimation entry points are tallied; a logging handler counts
  ``n_max`` caps.  RECORD receives all of it as JSON once the study has
  finished.
"""

import functools
import sys
import time

# Public entry points per module.  "Class.method" wraps the method on the
# class.  The span name is "<module>.<entry point>", without a trailing
# ".__init__" or ".__call__".
ENTRY_POINTS = {
    "operators": (
        "DiscreteOperator.__init__", "build_integration_operator", "build_holder_kernel_operator", "apply",
    ),
    "discretization": (
        "n_of", "nested_level", "project", "project_vector", "embed_vector", "project_operator",
        "LevelData.__call__",
    ),
    "noise": ("observe", "draw_noise", "stream_key", "pointwise_values"),
    "noise_level": ("estimate_delta_sq", "refine_delta_hat"),
    "choice": (
        "oracle_choice", "discrepancy_principle", "lepskii_choose", "data_driven_choose",
        "LevelSolverCache.operator", "LevelSolverCache.solver",
    ),
    "filters": ("regularize_svd", "regularize_normal_equations", "filter_value"),
    "harness": (
        "parse_config", "build_operator", "build_signal", "build_noise_spec",
        "run_mse_study", "run_veto_study", "write_mse_csv", "write_veto_csv",
    ),
    "signals": ("make_signal", "dirac_direction"),
    "cli": ("main",),
    "grid": ("L2Vector.__init__",),
}


def rebind(original, replacement):
    """Point every name bound to ``original`` in the statinv modules at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "statinv" or mod_name.startswith("statinv.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def replicate_of(args, kwargs):
    """The replicate key passed to ``observe(op, x, delta, spec, replicate=0)``."""
    key = kwargs.get("replicate", args[4] if len(args) > 4 else 0)
    return list(key) if isinstance(key, tuple) else [key]


class Tracer:
    """In-memory spans and outside-in counts for one process."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start ns, end ns, parent index, tag index]
        self.stack = []
        self.tags = [None]
        self.tag = 0
        self.missing = []
        self.flags = {}
        self.lepskii = {"candidates": 0, "pairs_checked": 0, "levels": set()}
        self.refine = {"calls": 0, "iterations": 0, "converged": 0}
        self.dense_bytes = 0
        self.caps = 0

    def span(self, name, fn, on_call=None, on_return=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            record = [index, 0, 0, stack[-1] if stack else -1, self.tag]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- hooks on particular entry points ---------------------------------

    def on_observe(self, args, kwargs):
        self.tags.append(replicate_of(args, kwargs))
        self.tag = len(self.tags) - 1

    def on_operator(self, args, kwargs):
        grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
        n = grid.n_cells
        self.dense_bytes += 3 * n * n * 8  # matrix, u and vt as float64

    def in_span(self, name):
        return any(self.names[self.spans[i][0]] == name for i in self.stack)

    def on_lepskii(self, args, kwargs, result):
        cache = kwargs.get("cache", args[5] if len(args) > 5 else None)
        # without a cache argument lepskii_choose builds a fresh one per call
        owner = id(cache) if cache is not None else ("fresh", len(self.spans))
        self.lepskii["candidates"] += len(result.levels)
        self.lepskii["pairs_checked"] += result.accepted_pairs_checked
        self.lepskii["levels"].update((owner, level) for level in result.levels)
        # data_driven_choose adds flags after lepskii_choose returns; count them there
        if not self.in_span("choice.data_driven_choose"):
            self.count_flags(result.flags)

    def on_data_driven(self, args, kwargs, result):
        self.count_flags(result[1].flags)

    def count_flags(self, flags):
        for flag in flags:
            self.flags[flag] = self.flags.get(flag, 0) + 1

    def on_refine(self, args, kwargs, result):
        self.refine["calls"] += 1
        self.refine["iterations"] += result.iterations
        self.refine["converged"] += int(bool(result.converged))

    # -- installation --------------------------------------------------------

    def install(self, package):
        hooks = {
            "noise.observe": (self.on_observe, None),
            "operators.DiscreteOperator": (self.on_operator, None),
            "choice.lepskii_choose": (None, self.on_lepskii),
            "choice.data_driven_choose": (None, self.on_data_driven),
            "noise_level.refine_delta_hat": (None, self.on_refine),
        }
        for module, attrs in ENTRY_POINTS.items():
            for attr in attrs:
                name = f"{module}.{attr.removesuffix('.__init__').removesuffix('.__call__')}"
                owner, leaf, original = resolve(package, module, attr)
                if original is None:
                    self.missing.append(name)
                    continue
                on_call, on_return = hooks.get(name, (None, None))
                wrapped = self.span(name, original, on_call, on_return)
                if isinstance(owner, type):
                    setattr(owner, leaf, wrapped)
                else:
                    rebind(original, wrapped)

        import logging

        tracer = self

        class CapCounter(logging.Handler):
            def emit(self, record):
                if "n_max" in str(record.msg):
                    tracer.caps += 1

        logger = logging.getLogger("statinv.discretization")
        logger.addHandler(CapCounter(logging.WARNING))
        logger.propagate = False

    def record(self):
        return {
            "names": self.names,
            "spans": self.spans,
            "tags": self.tags,
            "missing": self.missing,
            "flags": self.flags,
            "lepskii": {
                "candidates": self.lepskii["candidates"],
                "pairs_checked": self.lepskii["pairs_checked"],
                "distinct_levels": len(self.lepskii["levels"]),
            },
            "refine": self.refine,
            "dense_bytes": self.dense_bytes,
            "n_max_caps": self.caps,
        }


def resolve(package, module, attr):
    """(owner, leaf name, original) for ``module.attr``; original is None if gone."""
    owner = getattr(package, module, None)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, leaf, None) if owner is not None else None
    if original is not None and not callable(original):
        original = None
    return owner, leaf, original


def main():
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[3:]
    first_observe = []

    t0 = time.perf_counter_ns()
    import statinv
    import statinv.cli

    import_ns = time.perf_counter_ns() - t0

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(statinv)
    observe = statinv.noise.observe

    def timed_observe(*args, **kwargs):
        if not first_observe:
            first_observe.append(time.monotonic_ns())
        return observe(*args, **kwargs)

    rebind(observe, timed_observe)

    rc = statinv.cli.main(cli_args)

    first = first_observe[0] if first_observe else None
    if tracer is None:
        with open(record_path, "w", encoding="ascii") as fh:
            fh.write("null\n" if first is None else f"{first}\n")
    else:
        import json

        record = tracer.record()
        record["first_observe_ns"] = first
        record["import_ns"] = import_ns
        with open(record_path, "w", encoding="ascii") as fh:
            json.dump(record, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
