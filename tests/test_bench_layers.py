"""The benchmark's layer tracer names functions by module and attribute;
each one must exist, so renaming a traced function fails here rather than
in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_layers_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look themselves up here
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr in spans.LAYERS.values()
        if not callable(getattr(importlib.import_module(f"graphlim.{module}"), attr, None))
    ]
    assert missing == []
