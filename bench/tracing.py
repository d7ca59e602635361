"""Outside-in layer tracer for the forrlab benchmark.

The package is not edited for tracing.  Instead, each traced function is
replaced by a timing wrapper in every ``forrlab`` module namespace that
holds it: ``from .x import f`` copies the binding, so ``cli.gaussian_moment``,
``forrelation_dist.fwht``, ``protocol.apply_gate`` and ``quantum_sim.apply_gate``
are each rebound separately.  ``uninstall`` puts every original back.

Spans (name, start, end, parent span) are kept in memory and written out by
``dump``; the benchmark turns them into per-layer self and total times.
Counters are exact counts of the work each call was asked to compute, so
they repeat from run to run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Module -> public functions traced in it.  Span names drop the package
# prefix and any leading underscore, e.g. "boolean_fourier.fwht" and
# "rng.substream".
LAYERS = {
    "forrlab.cli": ("main",),
    "forrlab.protocol": ("run_quantum_protocol", "build_copy_circuit",
                         "l2_audit", "protocol_H", "random_protocol_partition"),
    "forrlab.quantum_sim": ("apply_gate", "swap_test_probability"),
    "forrlab.forrelation_dist": ("standard_normal_rows", "gaussian_rows",
                                 "round_rows", "gaussian_moment", "forr",
                                 "generate_instance"),
    "forrlab.boolean_fourier": ("fwht",),
    "forrlab._rng": ("substream",),
}


def span_name(module_name: str, fname: str) -> str:
    return f"{module_name.split('.', 1)[1].lstrip('_')}.{fname}"


SPAN_NAMES = [span_name(module, fname)
              for module, names in LAYERS.items() for fname in names]

AMPLITUDE_BYTES = 16  # complex128
FLOAT_BYTES = 8


def _count_fwht(counters: Counter, args, out):
    stages = out.shape[-1].bit_length() - 1
    counters["boolean_fourier.fwht.elements"] += out.size
    counters["boolean_fourier.fwht.butterfly_ops"] += out.size * stages
    # Every butterfly stage reads and writes each float64 element once.
    counters["boolean_fourier.fwht.bytes_computed"] += (
        2 * FLOAT_BYTES * out.size * stages)


def _count_rows(name: str):
    def count(counters: Counter, args, out):
        counters[name] += out.shape[0]
    return count


def _count_apply_gate(counters: Counter, args, out):
    state = args[0]
    counters["quantum_sim.apply_gate.amplitudes"] += state.amps.size
    counters["quantum_sim.apply_gate.bytes_computed"] += (
        AMPLITUDE_BYTES * state.amps.size)
    counters["quantum_sim.state_qubits_max"] = max(
        counters["quantum_sim.state_qubits_max"], state.m)
    counters["quantum_sim.state_bytes_max"] = max(
        counters["quantum_sim.state_bytes_max"], AMPLITUDE_BYTES << state.m)


COUNTER_UNITS = {
    "boolean_fourier.fwht.elements": "count",
    "boolean_fourier.fwht.butterfly_ops": "count",
    "boolean_fourier.fwht.bytes_computed": "B",
    "forrelation_dist.standard_normal_rows.rows": "count",
    "forrelation_dist.gaussian_rows.rows": "count",
    "quantum_sim.apply_gate.amplitudes": "count",
    "quantum_sim.apply_gate.bytes_computed": "B",
    "quantum_sim.state_qubits_max": "qubits",
    "quantum_sim.state_bytes_max": "B",
}

COUNTERS = {
    "boolean_fourier.fwht": _count_fwht,
    "forrelation_dist.standard_normal_rows":
        _count_rows("forrelation_dist.standard_normal_rows.rows"),
    "forrelation_dist.gaussian_rows":
        _count_rows("forrelation_dist.gaussian_rows.rows"),
    "quantum_sim.apply_gate": _count_apply_gate,
}


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, out)
            return out
        return traced

    def install(self):
        """Rebind every traced function in every forrlab namespace."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "forrlab" or key.startswith("forrlab.")]
        for module_name, names in LAYERS.items():
            home = importlib.import_module(module_name)
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(span_name(module_name, fname), orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, orig))

    def uninstall(self) -> list[str]:
        """Restore every rebound name; return the ones not restored."""
        for module, attr, orig in reversed(self._rebound):
            setattr(module, attr, orig)
        return [f"{module.__name__}.{attr}"
                for module, attr, orig in self._rebound
                if vars(module).get(attr) is not orig]

    def dump(self, path: str, unrestored: list[str]):
        rebound = [f"{module.__name__}.{attr}" for module, attr, _ in self._rebound]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "rebound": rebound, "unrestored": unrestored}, fh)
