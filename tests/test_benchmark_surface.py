"""The library names the benchmark in ``perfbench/`` binds or wraps.

The benchmark drives the library in-process: its tracer wraps
``vars(ExchangeMatrix)[m]`` for each method in ``MATRIX_METHODS`` and its
workloads call package-level entry points.  Removing any of them crashes a
benchmark run, so this test fails first.
"""

import importlib
import sys
from pathlib import Path

import pytest

import quiver_atlas as atlas
from quiver_atlas.matrix import ExchangeMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Imports perfbench modules by name, writing nothing under perfbench/
    and leaving sys.modules as it was."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "modules", dict(sys.modules))
    return importlib.import_module


def test_benchmark_binds_existing_names(perfbench):
    tracer = perfbench("tracer")
    workloads = perfbench("workloads")
    for method in tracer.MATRIX_METHODS:
        assert method in vars(ExchangeMatrix), method
    for name in ("explore", "replay", "canonical_form", "from_matrix"):
        assert callable(getattr(atlas, name)), name
    assert workloads.from_matrix is atlas.from_matrix
