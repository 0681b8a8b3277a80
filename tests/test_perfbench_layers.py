"""The benchmark's tracer still fits the package.

``perfbench/layers.py`` wraps package functions by name from outside
``src/``, and the workloads reach into a few more names.  A rename or
deletion in the package would otherwise only surface when the benchmark
runs with tracing on.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from mirrorsteer import cli, detector_model, sweep_optimize
from mirrorsteer.xstate_steering import XState

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# names the benchmark workloads use besides the traced layers
WORKLOAD_NAMES = (
    ("detector_model", "state_from_block"),
    ("sweep_optimize", "REFINE_TOL"),
    ("cli", "correlations"),
    ("cli", "_write_text"),
)


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "mirrorsteer" or name.startswith("mirrorsteer.")
    }


def test_traced_and_used_names_exist(layers):
    xstate_mod, xstate_name = layers.XSTATE.split(".")
    names = (*layers.TRACED, (xstate_mod, xstate_name), *WORKLOAD_NAMES)
    missing = [
        f"{mod}.{name}"
        for mod, name in names
        if not hasattr(importlib.import_module(f"mirrorsteer.{mod}"), name)
    ]
    assert not missing


def test_install_uninstall_round_trips(layers):
    before = _package_namespaces()
    xstate_init = XState.__init__
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert hasattr(detector_model.correlations, "__wrapped__")
        assert sweep_optimize.correlations is detector_model.correlations
        assert XState.__init__ is not xstate_init
        assert cli._write_text is not before["mirrorsteer.cli"]["_write_text"]
    finally:
        tracer.uninstall()
    after = _package_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [k for k, v in namespace.items() if after[name].get(k) is not v]
        assert not changed, name
    assert XState.__init__ is xstate_init
