"""The benchmark tracer wraps package attributes by name; they must resolve."""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in _tracing.WRAPPED + _tracing.COUNTED],
)
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(import_module(module), attr))
