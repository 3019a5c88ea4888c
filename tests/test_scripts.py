"""The study scripts under ``scripts/`` and the benchmark's layer tracer
import against the current API."""

import importlib.util
import sys
from pathlib import Path

import pytest

from stabsim import device, scenarios
from stabsim.device import bundled_scenario

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str, monkeypatch):
    # loaded under its own name, so a script's main() does not run; the
    # dataclasses of a module look it up in sys.modules
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["make_goldens", "parameter_study"])
def test_script_imports(name, monkeypatch):
    assert callable(load(ROOT / "scripts" / f"{name}.py", name,
                         monkeypatch).main)


def test_benchmark_tracer_matches_the_api(monkeypatch):
    # the traced benchmark run rebinds these names and reads these fields
    trace = load(ROOT / "perfbench" / "trace_layers.py", "trace_layers",
                 monkeypatch)
    modules = {"device": device, "scenarios": scenarios}
    for module, attr, _, _ in trace.LAYERS:
        assert callable(getattr(modules[module], attr)), (module, attr)
    model, liouv = scenarios.build_problem(bundled_scenario("bell"))
    assert trace._model_counts(model, ()) == {"dim": 64}
    assert trace._liouvillian_counts(liouv, ()) == {"nnz": 43519}
