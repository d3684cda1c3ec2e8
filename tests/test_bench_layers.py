"""The benchmark's span recorder wraps kernel and operator functions by
name; each name it lists must still exist in the package, or a traced run
(`bench/run.py --trace 1`) fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", load_spans().FUNCTIONS)
def test_every_traced_layer_resolves(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"jetvar.{module}"), fn))
