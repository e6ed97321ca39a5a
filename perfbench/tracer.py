"""Tracing from outside the library: rebind public functions to timing
wrappers in every ``magic_meter`` module namespace that holds them.

Modules bind names with ``from .x import f``, so each importing namespace
gets the wrapper, not only the defining one. Spans (name, start, end,
parent, run id, thread) go to a per-thread list and stay in memory until the
run writes them out. Each thread keeps its own span stack; a span opened on
a pool worker with an empty stack takes the benchmark thread's innermost
open span as its parent, so worker spans nest under the preset that
dispatched them. Hot leaf calls are counted (calls and busy time) instead of
recorded as spans; their time is charged to the enclosing span so that its
self time stays exact.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, function, mode). Metric prefixes drop the module's leading
# underscore, since metric names must start with a letter.
TRACED = (
    ("cli", "main", SPAN),
    ("experiments", "run_preset", SPAN),
    ("experiments", "haar_reference", SPAN),
    ("circuits", "circuit_unitary", SPAN),
    ("circuits", "apply_circuit", SPAN),
    ("circuits", "apply_gate", COUNT),
    ("noise", "noisy_circuit_state", SPAN),
    ("noise", "apply_channel", SPAN),
    ("oracles", "otoc", SPAN),
    ("oracles", "pauli_moment", SPAN),
    ("states", "choi_state", SPAN),
    ("paulis", "all_expectations", SPAN),
    ("paulis", "apply_pauli", COUNT),
    ("paulis", "expectation", COUNT),
    ("_bits", "wht", COUNT),
    ("estimators", "bell_distribution", SPAN),
    ("estimators", "sample_bell", SPAN),
    ("estimators", "estimate_moment_bell", SPAN),
    ("estimators", "estimate_moment_conjugate", SPAN),
)

# Per-layer metrics of one traced sweep, with units; BENCHMARK.json lists
# the same names.
PER_LAYER_UNITS = {
    "circuits.apply_gate.calls": "count",
    "circuits.apply_gate.busy_s": "s",
    "circuits.circuit_unitary.calls": "count",
    "circuits.circuit_unitary.busy_s": "s",
    "circuits.apply_circuit.calls": "count",
    "circuits.apply_circuit.busy_s": "s",
    "noise.noisy_circuit_state.calls": "count",
    "noise.noisy_circuit_state.self_s": "s",
    "noise.apply_channel.calls": "count",
    "noise.apply_channel.busy_s": "s",
    "paulis.all_expectations.calls": "count",
    "paulis.all_expectations.busy_s": "s",
    "paulis.all_expectations.values": "count",
    "bits.wht.calls": "count",
    "bits.wht.busy_s": "s",
    "bits.wht.bytes_computed": "bytes",
    "paulis.apply_pauli.calls": "count",
    "paulis.apply_pauli.busy_s": "s",
    "oracles.otoc.calls": "count",
    "oracles.otoc.self_s": "s",
    "oracles.pauli_moment.calls": "count",
    "oracles.pauli_moment.busy_s": "s",
    "states.choi_state.calls": "count",
    "states.choi_state.busy_s": "s",
    "estimators.bell_distribution.calls": "count",
    "estimators.bell_distribution.busy_s": "s",
    "estimators.sample_bell.calls": "count",
    "estimators.sample_bell.busy_s": "s",
    "paulis.expectation.calls": "count",
    "estimators.estimate_moment_bell.calls": "count",
    "estimators.estimate_moment_bell.self_s": "s",
    "estimators.estimate_moment_conjugate.calls": "count",
    "estimators.estimate_moment_conjugate.self_s": "s",
    "experiments.run_preset.calls": "count",
    "experiments.run_preset.busy_s": "s",
    "experiments.self_s": "s",
    "experiments.haar_reference.calls": "count",
    "experiments.haar_reference.busy_s": "s",
    "experiments.pool_concurrency": "ratio",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _wht_bytes(args, result) -> float:
    """Computed bytes of one wht call: one read and one write of the array
    for the input copy and for each of the log2(n) butterfly stages."""
    n = result.shape[-1]
    return 2.0 * result.nbytes * (1 + int(math.log2(n)))


# Extra per-call quantities of counted or spanned functions, from shapes.
_EXTRA = {
    "bits.wht": _wht_bytes,
    "paulis.all_expectations": lambda args, result: float(result.size),
}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[list] = []  # open spans: [span id, counted child time]
        self.depth = 0  # nesting of counted calls
        self.registered = False


class Tracer:
    """Install with ``with Tracer() as tracer:``; call ``next_run()`` before
    each traced sweep, then read ``sweep_metrics(run_id)``."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, list, dict]] = []  # (thread id, spans, counters)
        self._root_stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self.run_id = 0

    # -- recording ---------------------------------------------------------

    def _thread(self):
        st = self._state
        if not st.registered:
            st.spans, st.counters = [], defaultdict(lambda: [0, 0.0, 0.0])
            if threading.current_thread() is threading.main_thread():
                st.stack = self._root_stack
            with self._lock:
                self._threads.append((threading.get_ident(), st.spans, st.counters))
            st.registered = True
        return st

    def _span(self, name, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._thread()
            stack = st.stack
            parent = stack[-1][0] if stack else (self._root_stack[-1][0] if self._root_stack else 0)
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                st.spans.append((frame[0], name, start, end, parent, self.run_id, frame[1]))
            if extra:
                st.counters[(self.run_id, name)][2] += extra(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._thread()
            st.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                st.depth -= 1
                c = st.counters[(self.run_id, name)]
                c[0] += 1
                c[1] += elapsed
                if st.depth == 0 and st.stack:
                    st.stack[-1][1] += elapsed
            if extra:
                c[2] += extra(args, result)
            return result

        return wrapper

    # -- install / remove --------------------------------------------------

    def __enter__(self):
        mods = [m for n, m in sys.modules.items() if n == "magic_meter" or n.startswith("magic_meter.")]
        for module, function, mode in TRACED:
            original = getattr(sys.modules[f"magic_meter.{module}"], function)
            name = f"{module.lstrip('_')}.{function}"
            wrapped = (self._span if mode == SPAN else self._counter)(name, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    def next_run(self) -> int:
        self.run_id += 1
        return self.run_id

    # -- reading -----------------------------------------------------------

    def spans(self, run_id: int) -> list[tuple]:
        """(id, name, start, end, parent, run id, thread id) of one run."""
        with self._lock:
            threads = list(self._threads)
        return [
            (s[0], s[1], s[2], s[3], s[4], s[5], tid)
            for tid, spans, _ in threads
            for s in spans
            if s[5] == run_id
        ]

    def sweep_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced sweep (all but trace.overhead_s)."""
        with self._lock:
            threads = list(self._threads)
        spans = [s for _, sp, _ in threads for s in sp if s[5] == run_id]
        counters: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, cs in threads:
            for (rid, name), values in list(cs.items()):
                if rid == run_id:
                    counters[name] = [a + b for a, b in zip(counters[name], values)]
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in spans:
            children[s[4]].append((s[2], s[3]))

        calls, busy, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        module_self = defaultdict(float)
        for sid, name, start, end, _, _, counted in spans:
            calls[name] += 1
            busy[name] += end - start
            own = end - start - _covered(children.get(sid, []), start, end) - counted
            self_s[name] += own
            module_self[name.split(".")[0]] += own
        for name, (n, b, _) in counters.items():  # zero for spanned names
            calls[name] += n
            busy[name] += b

        out: dict[str, float] = {}
        for metric in PER_LAYER_UNITS:
            parts = metric.split(".")
            if len(parts) == 3 and parts[2] in ("calls", "busy_s", "self_s"):
                name = f"{parts[0]}.{parts[1]}"
                out[metric] = float({"calls": calls, "busy_s": busy, "self_s": self_s}[parts[2]][name])
        out["paulis.all_expectations.values"] = counters["paulis.all_expectations"][2]
        out["bits.wht.bytes_computed"] = counters["bits.wht"][2]
        out["experiments.self_s"] = module_self["experiments"]
        out["cli.self_s"] = module_self["cli"]
        preset = [s for s in spans if s[1] == "experiments.run_preset"]
        wall = sum(s[3] - s[2] for s in preset)
        child_busy = sum(c[1] - c[0] for s in preset for c in children.get(s[0], []))
        out["experiments.pool_concurrency"] = child_busy / wall if wall > 0 else 0.0
        return out


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
