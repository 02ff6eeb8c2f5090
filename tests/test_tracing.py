"""The benchmark's traced run wraps qgwb callables by name.

perfbench/tracing.py lists them in TRACED; a renamed or deleted callable
fails here rather than in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from qgwb.windows import build_window

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize("span", TRACING_MODULE.span_names())
def test_traced_callable_resolves(span):
    layer, _, name = span.partition(".")
    module = importlib.import_module(f"qgwb.{layer}")
    owner_name, _, attr = name.rpartition(".")
    attr = TRACING_MODULE._attribute(attr)
    if owner_name:
        # the tracer patches the method in the class's own namespace
        assert attr in vars(getattr(module, owner_name)), span
    else:
        assert callable(getattr(module, attr)), span


def test_window_hook_reads_size():
    # the tracer's windows.elements_built counter reads a built window's size
    w = build_window("free(2)", 2)
    assert w.size == w.d == 17
