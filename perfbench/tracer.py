"""Span tracing of qclock's public functions, applied from outside the library.

Every binding of a traced function in every loaded ``qclock`` module is
replaced by one wrapper that records a span (id, parent, request, name,
start, end); the ``__init__`` of the three value classes is wrapped the same
way.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# The layers of the library and the public functions timed in each.
TRACED = {
    "states": ("DensityMatrix", "Hamiltonian", "evolve"),
    "channels": (
        "QuantumChannel", "apply_to_matrix", "apply_channel", "partial_trace",
        "validate_cptp", "is_covariant", "covariant_twirl", "random_channel",
    ),
    "fisher": ("qfi",),
    "distinguish": (
        "common_invariant_decomposition", "nondisturbing_distinguishable",
        "conserved_block_traces", "pairwise_commuting",
    ),
    "bounds": ("sweep", "copy_bound_check", "monotonicity_check", "total_hamiltonian"),
    "fileio": (
        "dumps", "channel_from_json", "clock_from_json", "hamiltonian_from_json",
        "density_from_json", "sweep_to_csv", "sweep_to_json",
    ),
    "cli": ("run",),
}
LABELS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores every binding."""

    def __init__(self, qclock):
        self.qclock = qclock
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, self.request, label, start, end)

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = getattr(self.qclock, mod_name)
            for name in names:
                obj = getattr(module, name)
                label = f"{mod_name}.{name}"
                if isinstance(obj, type):
                    self._undo.append((obj, "__init__", obj.__init__))
                    obj.__init__ = self._wrap(label, obj.__init__)
                else:
                    wrappers[id(obj)] = (obj, self._wrap(label, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qclock" and not mod_name.startswith("qclock."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for sid, parent, request, label, start, end in self.spans:
                handle.write(f"[{sid},{parent},{request},\"{label}\",{start},{end}]\n")


def layer_times(spans) -> dict:
    """Per label: calls, exclusive (self) ns and inclusive ns over ``spans``.

    A span's self time is its duration minus the durations of its direct
    children; ``spans`` must hold whole trees (every child's parent included).
    """
    child = {}
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + (end - start)
    out = {}
    for sid, _, _, label, start, end in spans:
        calls, self_ns, incl_ns = out.get(label, (0, 0, 0))
        dur = end - start
        out[label] = (calls + 1, self_ns + dur - child.get(sid, 0), incl_ns + dur)
    return out
