"""In-memory spans around the program's public functions, for the traced run.

`Tracer.install()` replaces each target function at every vortexlab module
attribute that holds it (and each target method on its class), so calls
between modules are caught too; `uninstall()` restores the originals. A
span records name, start, end and its parent span. Self time is a span's
duration minus the time its direct children cover. Work counts are read
from call arguments and return values, never from the program's internals.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _columns(position):
    return lambda args, kwargs, result: {"col_steps": args[position].shape[1]}


def _table_triads(args, kwargs, result):
    return {"triads": len(args[0])}


def _simulate_steps(args, kwargs, result):
    return {"steps": len(result.times) - 1}


def _adjoint_steps(args, kwargs, result):
    traj, t = args[0], args[1]
    s = args[3] if len(args) > 3 else kwargs["s"]
    return {"steps": traj.grid_index(t) - traj.grid_index(s)}


def _holder_pairs(args, kwargs, result):
    return {"pairs": len(args[0]) ** 2}


def _search_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


# (span name, home module, class or None, attribute, work counter or None)
TARGETS = [
    ("lattice.reachable_modes", "lattice", None, "reachable_modes", None),
    ("spectral.build_interaction_table", "spectral", None,
     "build_interaction_table", None),
    ("spectral.table_build", "spectral", "InteractionTable", "__init__",
     _table_triads),
    ("spectral.apply", "spectral", "InteractionTable", "apply", None),
    ("spectral.apply", "spectral", "InteractionTable", "adjoint_apply", None),
    ("spectral.apply_many", "spectral", "InteractionTable", "apply_many_second",
     _columns(2)),
    ("spectral.apply_many", "spectral", "InteractionTable", "apply_many_first",
     _columns(1)),
    ("spectral.apply_many", "spectral", "InteractionTable", "adjoint_apply_many",
     _columns(1)),
    ("simulate.simulate", "simulate", None, "simulate", _simulate_steps),
    ("rng.step_normals", "rng", None, "step_normals", None),
    ("flows.adjoint_flow_columns", "flows", None, "adjoint_flow_columns",
     _adjoint_steps),
    ("flows.control_gradient", "flows", None, "control_gradient", None),
    ("flows.control_search", "flows", None, "control_search",
     _search_iterations),
    ("malliavin.malliavin_forward", "malliavin", None, "malliavin_forward", None),
    ("malliavin.min_eigenvalue_tail", "malliavin", None, "min_eigenvalue_tail",
     None),
    ("jacobi.jacobi_eigh", "jacobi", None, "jacobi_eigh", None),
    ("quadvar.sample_wiener_ensemble", "quadvar", None, "sample_wiener_ensemble",
     None),
    ("quadvar.event_frequencies", "quadvar", None, "event_frequencies", None),
    ("quadvar.holder_constant", "quadvar", None, "holder_constant",
     _holder_pairs),
    ("cli.run_experiment", "cli", None, "run_experiment", None),
]

# (metric, unit, span names whose absence makes the metric missing)
PER_LAYER = [
    ("lattice.reachable_modes.calls", "count", ["lattice.reachable_modes"]),
    ("lattice.reachable_modes.self_s", "s", ["lattice.reachable_modes"]),
    ("spectral.build_interaction_table.calls", "count",
     ["spectral.build_interaction_table"]),
    ("spectral.table_build.calls", "count", ["spectral.table_build"]),
    ("spectral.table_build.self_s", "s", ["spectral.table_build"]),
    ("spectral.table_build.triads", "count", ["spectral.table_build"]),
    ("spectral.table_cache.hit_ratio", "1",
     ["spectral.table_build", "spectral.build_interaction_table"]),
    ("spectral.apply.calls", "count", ["spectral.apply"]),
    ("spectral.apply.self_s", "s", ["spectral.apply"]),
    ("spectral.apply_many.calls", "count", ["spectral.apply_many"]),
    ("spectral.apply_many.self_s", "s", ["spectral.apply_many"]),
    ("spectral.apply_many.col_steps", "count", ["spectral.apply_many"]),
    ("simulate.simulate.calls", "count", ["simulate.simulate"]),
    ("simulate.simulate.self_s", "s", ["simulate.simulate"]),
    ("simulate.simulate.steps", "count", ["simulate.simulate"]),
    ("rng.step_normals.calls", "count", ["rng.step_normals"]),
    ("rng.step_normals.self_s", "s", ["rng.step_normals"]),
    ("flows.adjoint_flow_columns.calls", "count", ["flows.adjoint_flow_columns"]),
    ("flows.adjoint_flow_columns.self_s", "s", ["flows.adjoint_flow_columns"]),
    ("flows.adjoint_flow_columns.steps", "count", ["flows.adjoint_flow_columns"]),
    ("flows.control_gradient.calls", "count", ["flows.control_gradient"]),
    ("flows.control_gradient.self_s", "s", ["flows.control_gradient"]),
    ("flows.control_search.self_s", "s", ["flows.control_search"]),
    ("flows.control_search.objective_evals", "count",
     ["flows.control_search", "simulate.simulate"]),
    ("flows.control_search.accept_ratio", "1",
     ["flows.control_search", "simulate.simulate"]),
    ("malliavin.malliavin_forward.calls", "count", ["malliavin.malliavin_forward"]),
    ("malliavin.malliavin_forward.self_s", "s", ["malliavin.malliavin_forward"]),
    ("malliavin.min_eigenvalue_tail.self_s", "s",
     ["malliavin.min_eigenvalue_tail"]),
    ("jacobi.jacobi_eigh.calls", "count", ["jacobi.jacobi_eigh"]),
    ("jacobi.jacobi_eigh.self_s", "s", ["jacobi.jacobi_eigh"]),
    ("jacobi.jacobi_eigh.calls_per_path", "count/path",
     ["jacobi.jacobi_eigh", "malliavin.min_eigenvalue_tail", "simulate.simulate"]),
    ("quadvar.sample_wiener_ensemble.self_s", "s",
     ["quadvar.sample_wiener_ensemble"]),
    ("quadvar.event_frequencies.self_s", "s", ["quadvar.event_frequencies"]),
    ("quadvar.holder_constant.calls", "count", ["quadvar.holder_constant"]),
    ("quadvar.holder_constant.self_s", "s", ["quadvar.holder_constant"]),
    ("quadvar.holder_constant.pairs", "count", ["quadvar.holder_constant"]),
    ("cli.run_experiment.self_s", "s", ["cli.run_experiment"]),
    ("cli.artifact_bytes", "B", []),
    ("trace.op_s", "s", []),
    ("trace.overhead_ratio", "1", []),
]


def module_sites(original):
    """(module, attribute) of every loaded vortexlab module holding original."""
    return [(mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "vortexlab" or mod_name.startswith("vortexlab.")
            for key, value in list(vars(mod).items()) if value is original]


# a simulate span under one of these callers is one path / one evaluation
SIMULATE_CALLERS = {"malliavin.min_eigenvalue_tail": "paths",
                    "flows.control_search": "objective_evals"}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, counts]
        self.stack = []
        self._patches = []     # (owner, attribute, original, wrapper)
        found = set()
        for name, module, cls, attr, counter in TARGETS:
            try:
                owner = importlib.import_module(f"vortexlab.{module}")
            except ImportError:
                continue
            if cls:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            found.add(name)
            wrapper = self._wrap(name, original, counter)
            if cls:
                self._patches.append((owner, attr, original, wrapper))
                continue
            self._patches += [(mod, key, original, wrapper)
                              for mod, key in module_sites(original)]
        # span names none of whose targets exist any more
        self.missing = {name for name, *_ in TARGETS} - found

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        self.spans.clear()
        self.stack.clear()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def summarize_op(spans):
    """Per-span-name calls, self time and work counts of one traced op."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, counts) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += end - start - child[i]
        for key, value in (counts or {}).items():
            agg[key] += value
        if name == "simulate.simulate" and parent >= 0:
            caller = spans[parent][0]
            if caller in SIMULATE_CALLERS:
                out[caller][SIMULATE_CALLERS[caller]] += 1
    return {name: dict(agg) for name, agg in out.items()}


def per_layer_metrics(op_summaries, artifact_bytes, op_times, overhead,
                      missing):
    """Per-op means of every per-layer metric; ratios from summed parts."""
    n = max(len(op_summaries), 1)

    def total(span, key):
        return sum(s.get(span, {}).get(key, 0.0) for s in op_summaries)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric, unit, _ in PER_LAYER:
        span, _, key = metric.rpartition(".")
        values[metric] = total(span, key) / n
    lookups = total("spectral.build_interaction_table", "calls")
    values["spectral.table_cache.hit_ratio"] = (
        1.0 - total("spectral.table_build", "calls") / lookups
        if lookups else 0.0)
    values["flows.control_search.accept_ratio"] = ratio(
        total("flows.control_search", "iterations"),
        total("flows.control_search", "objective_evals")
        - total("flows.control_search", "calls"))
    values["jacobi.jacobi_eigh.calls_per_path"] = ratio(
        total("jacobi.jacobi_eigh", "calls"),
        total("malliavin.min_eigenvalue_tail", "paths"))
    values["cli.artifact_bytes"] = sum(artifact_bytes) / n
    values["trace.op_s"] = sum(op_times) / n
    values["trace.overhead_ratio"] = overhead
    metrics, absent = {}, []
    for metric, unit, needs in PER_LAYER:
        if any(span in missing for span in needs):
            absent.append(metric)
            values[metric] = 0.0
        metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics, absent
