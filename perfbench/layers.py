"""Per-layer tracing for the benchmark, done entirely from outside the package.

Each traced layer is a public function of one ``mirrorsteer`` module.  A
function is wrapped under every module-level name that refers to it
inside the package (``detector_model.faddeeva_w``, ``sweep_optimize.
correlations``, ``cli.numeric_c`` and so on), so calls between modules
pass through the wrapper however the caller imported the name.  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts every original
back.

Spans are folded into per-layer totals as they close: a span's self time
is its duration minus the time of the traced spans it encloses.  At the
figure resolution a run opens millions of spans, so the totals, not the
raw span records, are what stays in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function) pairs, traced as "<module>.<function>" spans
TRACED = (
    ("special_functions", "faddeeva_w"),
    ("detector_model", "correlations"),
    ("detector_model", "transition_probability"),
    ("detector_model", "steering_from_block"),
    ("detector_model", "config_difference"),
    ("detector_model", "boundary_free_steering"),
    ("xstate_steering", "concurrence"),
    ("xstate_steering", "steering_a_to_b"),
    ("xstate_steering", "steering_b_to_a"),
    ("xstate_steering", "build_tau_ab"),
    ("xstate_steering", "build_tau_ba"),
    ("sweep_optimize", "sweep"),
    ("sweep_optimize", "figure_dataset"),
    ("sweep_optimize", "find_peak"),
    ("sweep_optimize", "find_transition"),
    ("integral_oracle", "numeric_probability"),
    ("integral_oracle", "numeric_c"),
    ("integral_oracle", "numeric_x"),
    ("integral_oracle", "extrapolate_epsilon"),
    ("cli", "main"),
)
# XState is a class: its constructions are traced through __init__, which
# runs the validation in __post_init__
XSTATE = "xstate_steering.XState"
SPANS = tuple(f"{mod}.{fn}" for mod, fn in TRACED) + (XSTATE,)

# model evaluations counted under these spans, reported as "<span>.evals"
EVAL_SPAN = "detector_model.correlations"
COUNTED = ("sweep_optimize.find_peak", "sweep_optimize.find_transition")

_PACKAGE = "mirrorsteer"


class Tracer:
    """Span totals for the layers in :data:`SPANS`.

    Spans are recorded only while :attr:`active` is true, so the
    benchmark's own output checks, which call the same functions, stay
    out of the totals.
    """

    def __init__(self):
        self.active = False
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.evals = dict.fromkeys(COUNTED, 0)
        self.bytes_written = 0
        # open spans, innermost last: [name, time of traced children]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        counts_evals = name == EVAL_SPAN
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counts_evals:
                for frame in stack:
                    if frame[0] in self.evals:
                        self.evals[frame[0]] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]

        traced.__wrapped__ = fn
        return traced

    def _count_bytes(self, fn):
        def write_text(path, text):
            if self.active:
                self.bytes_written += len(text.encode())
            return fn(path, text)

        return write_text

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != _PACKAGE and not mod_name.startswith(_PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for mod, fn in TRACED:
            original = getattr(importlib.import_module(f"{_PACKAGE}.{mod}"), fn)
            self._replace_everywhere(original, self._wrap(f"{mod}.{fn}", original))
        xstate = importlib.import_module(f"{_PACKAGE}.xstate_steering").XState
        self._undo.append((xstate, "__init__", xstate.__init__))
        xstate.__init__ = self._wrap(XSTATE, xstate.__init__)
        cli = importlib.import_module(f"{_PACKAGE}.cli")
        self._undo.append((cli, "_write_text", cli._write_text))
        cli._write_text = self._count_bytes(cli._write_text)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer totals over ``ops`` operations, as ``{name: (value, unit)}``.

        Counts and self times are given per operation, so that runs of
        different length compare, and a layer that a workload never calls
        reads 0 per operation.
        """
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            calls = self.calls[name]
            out[f"{name}.calls"] = (calls / ops, "count/op")
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
            per_call = 1e6 * self.self_s[name] / calls if calls else 0.0
            out[f"{name}.per_call_us"] = (per_call, "us/call")
        for name in COUNTED:
            calls = self.calls[name]
            per_call = self.evals[name] / calls if calls else 0.0
            out[f"{name}.evals"] = (per_call, "count/call")
        out["cli.bytes_written"] = (self.bytes_written / ops, "bytes/op")
        return out


class OpMarks:
    """Timestamps of the calls to one function, for splitting a command
    into its operations.  One clock read per call; no span bookkeeping."""

    def __init__(self, module, attr: str):
        self.times: list[float] = []
        self._module = module
        self._attr = attr
        self._original = getattr(module, attr)
        times = self.times
        original = self._original
        clock = time.perf_counter

        def marked(*args, **kwargs):
            times.append(clock())
            return original(*args, **kwargs)

        setattr(module, attr, marked)

    def close(self) -> None:
        setattr(self._module, self._attr, self._original)
