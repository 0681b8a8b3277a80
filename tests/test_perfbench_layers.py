"""The benchmark still fits the package.

``perfbench/layers.py`` wraps package functions by name from outside
``src/``, the workloads reach into a few more names, and
``perfbench/probe.py`` calls the oracle integrals in a fresh interpreter.
A rename, deletion or signature change in the package would otherwise
only surface when the benchmark runs.
"""

import importlib
import importlib.util
import pathlib
import re
import sys

import pytest

import mirrorsteer
from mirrorsteer import cli, detector_model
from mirrorsteer.xstate_steering import XState

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"

# names the benchmark workloads use besides the traced layers
WORKLOAD_NAMES = (
    ("detector_model", "state_from_block"),
    ("sweep_optimize", "REFINE_TOL"),
    ("cli", "correlations"),
    ("cli", "_write_text"),
)


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layers():
    return _load(LAYERS, "perfbench_layers")


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


def test_package_names_the_benchmark_uses_exist():
    # every ``ms.<name>`` the benchmark files reference, ``ms`` being the
    # package imported as a whole
    names = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\bms\.([A-Za-z_]\w*)", path.read_text())
    }
    assert "numeric_probability" in names
    assert not sorted(n for n in names if not hasattr(mirrorsteer, n))


@pytest.mark.parametrize("kind", ["p", "c", "x"])
def test_probe_cold_oracle_call_runs(kind, monkeypatch):
    probe = _load(PERFBENCH / "probe.py", "perfbench_probe")
    # the probe puts its source directory on sys.path; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    src = pathlib.Path(mirrorsteer.__file__).resolve().parents[1]
    result = probe.main(["cold", kind, str(src)])
    assert list(result) == ["cold_s"]
    assert result["cold_s"] > 0.0


def test_install_uninstall_round_trips(layers):
    before = _package_namespaces()
    xstate_init = XState.__init__
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert hasattr(detector_model.correlations, "__wrapped__")
        assert mirrorsteer.correlations is detector_model.correlations
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
