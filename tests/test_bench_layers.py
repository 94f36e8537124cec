"""The benchmark's layer tracer names functions by module and attribute;
each one must exist, so renaming a traced function fails here rather than
in a traced benchmark run.  The benchmark's attribution check runs here too,
so a change to how the drivers call the traced functions fails here first."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, path: Path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve(monkeypatch):
    spans = _load("perfbench_spans", PERFBENCH / "spans.py", monkeypatch)
    missing = [
        f"{module}.{attr}"
        for module, attr in spans.LAYERS.values()
        if not callable(getattr(importlib.import_module(f"graphlim.{module}"), attr, None))
    ]
    assert missing == []


def test_worker_and_imported_name_spans_are_attributed(monkeypatch):
    # selftest.py puts perfbench/ first on sys.path and imports spans and
    # workloads by their bare names; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("spans", "workloads"):
        _load(name, PERFBENCH / f"{name}.py", monkeypatch)
    _load("perfbench_selftest", PERFBENCH / "selftest.py", monkeypatch).check_attribution()
