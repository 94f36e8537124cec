"""Every name a module lists in __all__ exists, so star imports work."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["combinat", "graphs", "graphon", "mmspace", "experiments", "cli"])
def test_all_names_are_defined(module):
    mod = importlib.import_module(f"graphlim.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
