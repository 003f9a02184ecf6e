"""Every exported name and every function the benchmark's tracer wraps resolves, quadratures have their
owners, and the declared dependencies are the imported ones."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import bcsgap

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"
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


def test_quadratures_are_called_from_their_owners_only():
    # every pairing-window integral goes through the one pass function in
    # kernels, which sets its edge and its map; the band and the
    # transition-temperature condition each have one integral of their own;
    # the uncertified first round is reached through that pass alone
    callers = {"integrate": set(), "_first_round": set(), "_ungated_pass": set()}
    for path in sorted((_ROOT / "src" / "bcsgap").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(node, ast.Call) and name in callers:
                    callers[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {
        "integrate": {"kernels._ungated_pass", "thermo._band", "gap._tanh_integral"},
        "_first_round": {"kernels._ungated_pass"},
        "_ungated_pass": {
            "kernels._at", "gap._newton", "gap._solved_columns",
            "thermo._normal_window", "thermo.condensation_potential", "verify.run_suite",
        },
    }


def _third_party(*dirs):
    """Top-level modules imported under dirs that are neither the standard library's nor the repo's own."""
    files = [path for d in dirs for path in sorted((_ROOT / d).rglob("*.py"))]
    local = {"bcsgap"} | {path.stem for path in files}
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - local


def test_declared_dependencies_are_the_imported_ones():
    # the package imports numpy alone; the tests, scripts and benchmark import
    # exactly the runtime dependencies and the test extra, none stale or missing
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    assert _third_party("src") == {"numpy"}
    assert _third_party("tests", "scripts", "perfbench") == {re.split(r"[<>=!~;\[\s]", d)[0] for d in declared}
