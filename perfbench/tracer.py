"""Spans around calls into the layerws modules, recorded from outside.

``Tracer.install`` replaces public functions and methods of the package
with wrappers (in the defining module and in every layerws module that
imported the name) and ``uninstall`` puts the originals back.  Nothing
under ``src/`` changes.

Every wrapped call is a span with a bucket, a start, an end and a parent
(the span open when it began).  Spans are folded as they close: a bucket's
self time is the span's duration minus the time covered by its child
spans.  Calls into ``Engine`` (millions per run) are not timed; only
``Engine.rotate`` is counted, and engine time stays in the caller's span.
An *opaque* span passes every call made inside it straight through, so
its whole duration is its own (the unified-bound scan calls the
working-set tracker once per key; a validator sweep is one unit).

Spans of one operation share a window: a window opens at each top-level
operation call (a tree search, insert or delete, a doubled skip-splay
access) and its per-bucket self times give the per-operation medians.

Records go to ``setup`` or ``run`` according to ``phase``; with phase None
the wrappers only pass calls through, so checks and resets between timed
loops are not traced.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, bucket, flags)
#   op      a top-level operation: opens a window, counted per operation
#   visits  record the engine's visit count across the call
#   opaque  calls made inside pass through untraced
#   count   count calls only, no span
TARGETS = [
    ("workload", "generate", "workload", ""),
    ("workload", "parse", "workload", ""),
    ("engine", "Engine.rotate", "engine", "count"),
    ("layer_ops", "split", "layer_ops", ""),
    ("layer_ops", "join_at", "layer_ops", ""),
    ("layer_ops", "insert_fixup", "layer_ops", ""),
    ("layer_ops", "delete_fixup", "layer_ops", ""),
    ("layered_tree", "LayeredTree.search", "layered_tree", "op visits"),
    ("layered_tree", "LayeredTree.insert", "layered_tree", "op visits"),
    ("layered_tree", "LayeredTree.delete", "layered_tree", "op visits"),
    # The snapshots exist only for the harness's per-operation comparison.
    ("layered_tree", "LayeredTree.layer_snapshot", "harness.compare", "opaque"),
    ("reference", "ReferenceStructure.snapshot", "harness.compare", "opaque"),
    ("harness", "compare_layers", "harness.compare", ""),
    ("reference", "ReferenceStructure.search", "reference.oracle", ""),
    ("reference", "ReferenceStructure.insert", "reference.oracle", ""),
    ("reference", "ReferenceStructure.delete", "reference.oracle", ""),
    ("reference", "WorkingSetTracker.working_set_number", "reference.ws_tracker", ""),
    ("reference", "WorkingSetTracker.record_access", "reference.ws_tracker", ""),
    ("reference", "WorkingSetTracker.record_insert", "reference.ws_tracker", ""),
    ("reference", "WorkingSetTracker.record_delete", "reference.ws_tracker", ""),
    ("reference", "UnifiedBoundTracker.unified_bound", "reference.ub_tracker", "opaque"),
    ("reference", "UnifiedBoundTracker.record_access", "reference.ub_tracker", ""),
    ("reference", "UnifiedBoundTracker.record_insert", "reference.ub_tracker", ""),
    ("reference", "UnifiedBoundTracker.record_delete", "reference.ub_tracker", ""),
    ("validate", "validate_tree", "validate", "opaque"),
    ("harness", "run", "harness", ""),
    ("cli", "main", "cli", ""),
    ("skip_splay", "SkipSplayTree.__init__", "skip_splay.build", "opaque"),
    ("skip_splay", "SkipSplayTree.access_doubled", "skip_splay", "op"),
    ("skip_splay", "SkipSplayTree.access", "skip_splay", ""),
]

# Buckets whose per-operation self time is kept as a sample per window.
WINDOWED = ("reference.ub_tracker", "validate", "harness.compare")


def new_record() -> dict:
    """Folded spans of one phase; JSON-serialisable and mergeable."""
    return {"self_s": {}, "calls": {}, "sums": {}, "samples": {}}


def merge(into: dict, other: dict):
    for field in ("self_s", "calls", "sums"):
        for name, value in other[field].items():
            into[field][name] = into[field].get(name, 0) + value
    for name, values in other["samples"].items():
        into["samples"].setdefault(name, []).extend(values)


class Tracer:
    def __init__(self):
        self.records = {"setup": new_record(), "run": new_record()}
        self.phase: str | None = None
        self._stack: list[list] = []   # open spans: [bucket, child seconds, opaque]
        self._ops_open = 0
        self._window: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- folding ------------------------------------------------------------

    def _add(self, field: str, name: str, value):
        rec = self.records[self.phase][field]
        rec[name] = rec.get(name, 0) + value

    def _sample(self, name: str, value: float):
        self.records[self.phase]["samples"].setdefault(name, []).append(value)

    def set_phase(self, phase: str | None):
        """Close the open window and send later records to ``phase``."""
        self.flush_window()
        self.phase = phase

    def flush_window(self):
        if self.phase is not None:
            for bucket, seconds in self._window.items():
                self._sample(bucket + "_us", seconds * 1e6)
        self._window.clear()

    def _close(self, name: str, bucket: str, frame: list, duration: float,
               parent: str | None, visits: int | None, result):
        own = duration - frame[1]
        self._add("self_s", bucket, own)
        self._add("calls", name, 1)
        if bucket in WINDOWED:
            self._window[bucket] += own
        if self._stack:
            self._stack[-1][1] += duration
        if visits is None:
            return
        if name == "LayeredTree.search" and parent == "skip_splay":
            self._add("calls", "skip_splay.aux_search", 1)
            self._add("sums", "skip_splay.aux_search_visits", visits)
        elif name == "LayeredTree.search":
            if isinstance(result, int):
                key = f"layered_tree.search.L{result}"
                self._add("calls", key, 1)
                self._add("sums", key + ".visits", visits)
                self._sample(key + "_us", duration * 1e6)
        elif name in ("LayeredTree.insert", "LayeredTree.delete"):
            key = "layered_tree." + name.split(".")[1]
            self._add("sums", key + ".visits", visits)
            self._sample(key + "_us", duration * 1e6)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, bucket: str, flags: str):
        tracer = self
        if "count" in flags:
            def counting(*args, **kwargs):
                stack = tracer._stack
                if tracer.phase is not None and not (stack and stack[-1][2]):
                    tracer._add("calls", name, 1)
                return fn(*args, **kwargs)
            return counting

        opaque = "opaque" in flags
        is_op = "op" in flags.split()
        with_visits = "visits" in flags

        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer.phase is None or (stack and stack[-1][2]):
                return fn(*args, **kwargs)
            top_op = is_op and tracer._ops_open == 0
            if top_op:
                tracer.flush_window()
            parent = stack[-1][0] if stack else None
            frame = [bucket, 0.0, opaque]
            engine = args[0].engine if with_visits else None
            v0 = engine.visits if with_visits else 0
            stack.append(frame)
            tracer._ops_open += is_op
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                tracer._ops_open -= is_op
            tracer._close(name, bucket, frame, duration, parent,
                          engine.visits - v0 if with_visits else None, result)
            return result
        return traced

    def install(self):
        for module_name, _, _, _ in TARGETS:
            importlib.import_module("layerws." + module_name)
        modules = [m for n, m in sys.modules.items()
                   if n == "layerws" or n.startswith("layerws.")]
        for module_name, path, bucket, flags in TARGETS:
            module = sys.modules["layerws." + module_name]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, path, bucket, flags)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:  # names imported with "from .x import f"
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapped)

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------------

# bucket -> name of its share-of-time metric
SHARES = {
    "workload": "workload.self_pct",
    "layer_ops": "layer_ops.self_pct",
    "layered_tree": "layered_tree.self_pct",
    "reference.oracle": "reference.oracle_pct",
    "reference.ws_tracker": "reference.ws_tracker_pct",
    "reference.ub_tracker": "reference.ub_tracker_pct",
    "validate": "validate.sweep_pct",
    "harness.compare": "harness.compare_pct",
    "harness": "harness.self_pct",
    "cli": "cli.self_pct",
    "skip_splay": "skip_splay.self_pct",
}

LAYERS = (1, 2, 3, 4)


def layer_metrics(setup: dict, run: dict, ops: int, measured_s: float,
                  setups: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics: name -> (value, unit, sample count).

    ``ops`` is the number of workload operations in the traced timed loops,
    ``measured_s`` their total time, ``setups`` the number of set-ups.
    Metrics of a layer the workload does not reach read 0.
    """
    calls, sums, self_s = run["calls"], run["sums"], run["self_s"]
    out: dict[str, tuple[float, str, int]] = {}

    def per(num, den):
        return num / den if den else 0.0

    out["workload.generate_s"] = (per(setup["self_s"].get("workload", 0.0), setups), "s", setups)
    out["engine.rotations_per_op"] = (per(calls.get("Engine.rotate", 0), ops), "rotations", ops)
    out["layer_ops.split_per_op"] = (per(calls.get("split", 0), ops), "calls/op", ops)
    out["layer_ops.join_per_op"] = (per(calls.get("join_at", 0), ops), "calls/op", ops)
    fixups = calls.get("insert_fixup", 0) + calls.get("delete_fixup", 0)
    out["layer_ops.fixups_per_op"] = (per(fixups, ops), "calls/op", ops)
    for j in LAYERS:
        key = f"layered_tree.search.L{j}"
        hits = calls.get(key, 0)
        mean = per(sums.get(key + ".visits", 0), hits)
        out[f"layered_tree.search_visits.L{j}"] = (mean, "visits", hits)
        out[f"layered_tree.search_visits_per_2j.L{j}"] = (mean / (1 << j), "visits", hits)
    for kind in ("insert", "delete"):
        n = calls.get(f"LayeredTree.{kind}", 0)
        out[f"layered_tree.{kind}_visits"] = (
            per(sums.get(f"layered_tree.{kind}.visits", 0), n), "visits", n)
    accesses = calls.get("SkipSplayTree.access", 0)
    aux = calls.get("skip_splay.aux_search", 0)
    out["skip_splay.aux_searches_per_access"] = (per(aux, accesses), "searches", accesses)
    out["skip_splay.aux_search_visits"] = (
        per(sums.get("skip_splay.aux_search_visits", 0), aux), "visits", aux)
    for bucket, name in SHARES.items():
        out[name] = (100.0 * per(self_s.get(bucket, 0.0), measured_s), "%", calls_in(run, bucket))
    return out


def calls_in(record: dict, bucket: str) -> int:
    names = [path for _, path, b, flags in TARGETS if b == bucket and "count" not in flags]
    return sum(record["calls"].get(n, 0) for n in names)


def layer_times(setup: dict, run: dict, setups: int) -> dict[str, tuple[float, str, int]]:
    """The per-layer times: self seconds over the run and per-call medians.

    They read exactly 0 for a layer the workload does not reach, so they
    are printed for reading, not reported as gated numbers.
    """
    self_s = run["self_s"]

    def median(name):
        values = run["samples"].get(name, [])
        return (statistics.median(values) if values else 0.0), "us", len(values)

    out = {}
    for bucket in ("layer_ops", "layered_tree", "harness", "cli", "skip_splay"):
        out[bucket + ".self_s"] = (self_s.get(bucket, 0.0), "s", calls_in(run, bucket))
    for bucket, name in (("reference.oracle", "reference.oracle_s"),
                         ("reference.ws_tracker", "reference.ws_tracker_s"),
                         ("reference.ub_tracker", "reference.ub_tracker_s"),
                         ("validate", "validate.sweep_s"),
                         ("harness.compare", "harness.compare_s")):
        out[name] = (self_s.get(bucket, 0.0), "s", calls_in(run, bucket))
    out["reference.ub_us"] = median("reference.ub_tracker_us")
    out["validate.sweep_us"] = median("validate_us")
    out["harness.compare_us"] = median("harness.compare_us")
    for j in LAYERS:
        out[f"layered_tree.search_us.L{j}"] = median(f"layered_tree.search.L{j}_us")
    out["layered_tree.insert_us"] = median("layered_tree.insert_us")
    out["layered_tree.delete_us"] = median("layered_tree.delete_us")
    builds = setup["calls"].get("SkipSplayTree.__init__", 0)
    out["skip_splay.build_s"] = (
        setup["self_s"].get("skip_splay.build", 0.0) / builds if builds else 0.0, "s", builds)
    return out
