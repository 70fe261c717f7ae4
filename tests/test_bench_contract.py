"""The names the benchmark's tracing shim wraps must exist in the package.

bench/shim.py looks up every (layer, name) in its WRAPPED table with
getattr while installing its spans, so a missing name makes every traced
benchmark job fail before it runs.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SHIM = Path(__file__).resolve().parent.parent / "bench" / "shim.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_shim", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return [(layer, name) for layer, names in shim.WRAPPED.items() for name in names]


@pytest.mark.parametrize("layer,name", _wrapped())
def test_shim_wrapped_name_exists(layer, name):
    assert hasattr(importlib.import_module(f"coverbench.{layer}"), name)
