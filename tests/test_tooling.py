"""The benchmark's per-layer tracer still finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module", sorted(tracing.LAYERS))
def test_traced_layers_resolve(module):
    mod = importlib.import_module(f"bcsgap.{module}")
    for name in tracing.LAYERS[module]:
        assert callable(getattr(mod, name, None)), f"bcsgap.{module}.{name} is gone"
