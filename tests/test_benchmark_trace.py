"""The benchmark's tracer wraps package functions by name; they must exist.

``perfbench/trace_op.py`` rebinds every ``(module, qualname)`` of its
``TRACED`` list and rebuilds the value-set scan caches around counting
copies, so renaming or deleting any of them breaks every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_OP = Path(__file__).resolve().parents[1] / "perfbench" / "trace_op.py"


def load_trace_op():
    spec = importlib.util.spec_from_file_location("trace_op", TRACE_OP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, qualname", load_trace_op().TRACED)
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"leastchange.{module}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer reads the raw attribute from the owner's own namespace
    assert callable(getattr(owner, attr))
    assert attr in vars(owner)


@pytest.mark.parametrize("name", ["_discrete_scan", "_pattern_scan"])
def test_value_set_scans_are_rebuildable_caches(name):
    scan = getattr(importlib.import_module("leastchange.valuesets"), name)
    assert callable(scan.__wrapped__)
    assert scan.cache_parameters()["maxsize"] is not None


def test_table_cache_exists():
    enumeration = importlib.import_module("leastchange.enumeration")
    assert isinstance(enumeration._table_cache, dict)
