"""Span tracing for the benchmark's traced run.

The tracer wraps public callables of the qgwb modules from outside the
package: each call records a span (name, start, end, parent span, scenario
id) in memory.  Spans are written out once, when the runner ends.  A span's
self time is its duration minus the time its child spans cover, so each
layer's self time is the work done in that layer's own code.

A few counters need no timing: window products, window elements built,
report bytes written and the bytes of dense Fock operators returned.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import defaultdict

# layer -> callables timed in it; "Class.method" wraps the method on the class
TRACED = {
    "linalg": ["null_space", "hermitian_eig", "expm", "solve_intertwiner",
               "psd_factor_vectors"],
    "core": ["FiniteQG.validate", "DualBlockAlgebra.init", "solve_haar",
             "dense_image_report"],
    "presets": ["load_preset"],
    "windows": ["build_window"],
    "functionals": ["positivity_matrix", "convolve", "semigroup_state", "adjoint"],
    "genfun": ["validate_generating", "cnd_gram", "schurmann_triple",
               "triple_form_matrices", "pair_invariance_bounds",
               "unbounded_generator_on_z"],
    "coreps": ["Corep.validate", "block_corep", "direct_sum", "kazhdan_gap",
               "Corep.invariant_projection", "gns"],
    "actions": ["Action.implement", "fixed_point_expectation", "spectral_gap_report",
                "action_from_corep", "v_vbar_implementation_check",
                "cone_preservation_check"],
    "fock": ["TruncatedFock.creation", "TruncatedFock.s_operator",
             "TruncatedFock.vacuum_moments", "lift_rep", "InducedAction.alpha_of",
             "InducedAction.averaged", "InducedAction.generator_intertwining_residual",
             "InducedAction.vacuum_invariance_residual",
             "InducedAction.multiplicativity_residual", "trace_check"],
    "cli": ["run_scenario"],
}

COUNTERS = ("windows.mul.calls", "windows.elements_built", "cli.report_bytes",
            "fock.operator_mb")


def span_names():
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


def _attribute(name):
    return "__init__" if name == "init" else name


def self_times(spans):
    """Self time of each span: duration minus the union of its children.

    spans: sequence of (name, start, end, parent index or -1, scenario).
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Calls and summed self time per span name."""
    table = {name: {"calls": 0, "self_s": 0.0} for name in span_names()}
    for (name, *_), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return table


def layer_self_times(table):
    return {layer: sum(table[f"{layer}.{n}"]["self_s"] for n in names)
            for layer, names in TRACED.items()}


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if (key == "qgwb" or key.startswith("qgwb.")) and m is not None]


def _nbytes(result):
    if hasattr(result, "nbytes"):
        return result.nbytes
    # LiftedRep: the dense coefficient tensor and its degree blocks
    return result.coef.nbytes + sum(b.nbytes for b in result.degree_blocks)


class Tracer:
    """Wraps qgwb callables in span recorders; one per runner process."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.scenario = None
        self._stack = []
        self._originals = {}
        self._wrappers = set()

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.scenario)
            if on_result is not None:
                on_result(result)
            return result
        self._wrappers.add(id(traced))
        return traced

    def _hooks(self):
        counters = self.counters

        def window_built(w):
            counters["windows.elements_built"] += w.size

        def fock_bytes(result):
            counters["fock.operator_mb"] += _nbytes(result) / 2 ** 20

        def report_written(result):
            path = result[1]
            if path is not None:
                for p in (path, path[:-len(".json")] + ".csv"):
                    counters["cli.report_bytes"] += os.path.getsize(p)

        return {"windows.build_window": window_built,
                "fock.TruncatedFock.creation": fock_bytes,
                "fock.TruncatedFock.s_operator": fock_bytes,
                "fock.lift_rep": fock_bytes,
                "cli.run_scenario": report_written}

    def install(self):
        """Patch every traced callable where its callers look it up."""
        importlib.import_module("qgwb.cli")
        hooks = self._hooks()
        modules = _package_modules()
        for layer, names in TRACED.items():
            mod = sys.modules[f"qgwb.{layer}"]
            for name in names:
                full = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                attr = _attribute(attr)
                if owner_name:
                    owner = getattr(mod, owner_name)
                    orig = owner.__dict__[attr]
                    self._originals[full] = orig
                    setattr(owner, attr, self._wrap(full, orig, hooks.get(full)))
                    continue
                orig = getattr(mod, attr)
                self._originals[full] = orig
                wrapped = self._wrap(full, orig, hooks.get(full))
                # by-name imports (e.g. genfun's semigroup_state) hold their own binding
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
        window_cls = sys.modules["qgwb.windows"].GroupDualWindow
        mul = window_cls.mul

        def counted_mul(win, g, h):
            self.counters["windows.mul.calls"] += 1
            return mul(win, g, h)
        self._wrappers.add(id(counted_mul))
        window_cls.mul = counted_mul

    def unseen(self):
        """References to an unwrapped original that calls could still reach.

        Scans module globals, containers held in them, and the defaults and
        closures of every function and method in the package.
        """
        originals = {id(fn): name for name, fn in self._originals.items()}
        found = []

        def look(where, value):
            if id(value) in originals:
                found.append(f"{originals[id(value)]} via {where}")

        def scan_function(where, fn):
            if id(fn) in self._wrappers:
                return
            for d in (fn.__defaults__ or ()):
                look(f"{where} default", d)
            for d in (fn.__kwdefaults__ or {}).values():
                look(f"{where} default", d)
            for cell in (fn.__closure__ or ()):
                try:
                    look(f"{where} closure", cell.cell_contents)
                except ValueError:
                    pass

        for m in _package_modules():
            for key, value in vars(m).items():
                where = f"{m.__name__}.{key}"
                look(where, value)
                if isinstance(value, (dict, list, tuple)):
                    for item in (value.values() if isinstance(value, dict) else value):
                        look(f"{where}[...]", item)
                if isinstance(value, types.FunctionType) and value.__module__ == m.__name__:
                    scan_function(where, value)
                if isinstance(value, type) and value.__module__ == m.__name__:
                    for attr, member in vars(value).items():
                        if isinstance(member, types.FunctionType):
                            scan_function(f"{where}.{attr}", member)
        return sorted(found)
