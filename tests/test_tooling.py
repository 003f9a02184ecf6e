"""Every exported name and every function the benchmark's tracer wraps resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bcsgap

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module", sorted(tracing.LAYERS))
def test_traced_layers_resolve(module):
    mod = importlib.import_module(f"bcsgap.{module}")
    for name in tracing.LAYERS[module]:
        assert callable(getattr(mod, name, None)), f"bcsgap.{module}.{name} is gone"


@pytest.mark.parametrize(
    "module", ["bcsgap", *sorted(f"bcsgap.{m.name}" for m in pkgutil.iter_modules(bcsgap.__path__))]
)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it lacks: {missing}"
