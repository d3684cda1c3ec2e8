"""The benchmark reaches the package in two ways, and each must keep
working, or a benchmark run fails instead of this suite: its span recorder
wraps kernel and operator functions by name in `jetvar.<module>` right
after `import jetvar` (`bench/run.py --trace 1`), and its in-process
checks call top-level names as `jv.<name>` or `jetvar.<name>`."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jetvar
from jetvar.coords import JetCoord
from jetvar.expr import sym

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_names():
    """Every `jv.<name>` and `jetvar.<name>` in the bench files' text."""
    names = set()
    for path in BENCH.glob("*.py"):
        names.update(re.findall(r"\b(?:jv|jetvar)\.(\w+)", path.read_text()))
    return sorted(names)


@pytest.mark.parametrize("name", load_spans().FUNCTIONS)
def test_every_traced_layer_resolves(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"jetvar.{module}"), fn))


@pytest.mark.parametrize("name", bench_names())
def test_every_bench_name_resolves(name):
    # a submodule such as jetvar.cli is imported by the bench itself
    if importlib.util.find_spec(f"jetvar.{name}") is None:
        assert hasattr(jetvar, name)


def test_import_jetvar_loads_every_traced_module():
    modules = sorted(load_spans().LAYERS)
    code = (
        "import sys, jetvar; "
        f"print([m for m in {modules!r} if 'jetvar.' + m not in sys.modules])"
    )
    src = str(Path(jetvar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_helmholtz_report_exposes_the_record_fields_the_bench_reads():
    # bench/checks.py renders level, I, sigma, nu and residual of each of
    # report.records, and bench/spans.py counts the residuals' terms
    ctx = jetvar.JetContext(n=1, m=1, order=1)
    eps = (sym(JetCoord(1, (1,))),)
    report = jetvar.helmholtz_residuals(jetvar.SourceForm(eps, ctx))
    assert report.records
    for rec in report.records:
        for field in ("level", "I", "sigma", "nu", "residual"):
            assert hasattr(rec, field), field
