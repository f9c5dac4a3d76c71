"""The benchmark's four workloads.

A run of a workload has three parts:

1. Set-up, timed: generating the inputs from the seed and building the
   structure.  It runs once before the first round and again between
   rounds, at least five times in all and at full scale until set-ups
   have taken two seconds, so that ``setup_s`` is a median over the run.
2. Rounds, until ``seconds`` of wall time have passed in them (at least
   one).
   Every round replays the same operations from the same starting state,
   one call after the previous one returns, timing each call.  Because
   the start state is the same, cursor visits repeat exactly in every
   round and every run of a seed.
   Each set-up and each round is bracketed by samples of the speed
   probe (``speed.py``), which scale the timed figures.
3. Checks after each round, untimed.  An operation whose result or cost
   disagrees with the independent expectation from ``checks``, or that
   raised, counts as failed; a round whose final state fails a check
   counts all of its operations as failed.

Restoring the start state between rounds is not timed: a LayeredTree is
unpickled from a snapshot taken after set-up, a SkipSplayTree is rebuilt
(its pickle is slower than a build).
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import layerws
from layerws import GeneratorSpec, LayeredTree, SkipSplayTree, validate_tree

import checks
from cli_child import vm_hwm_kib
from speed import SpeedProbe
from tracer import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SCALES = {
    "full": {"lws_n": 10_000, "zipf_searches": 10_000,
             "mixed_universe": 10_000, "mixed_ops": 20_000,
             "cli_universe": 1_000, "cli_ops": 2_000,
             "skip_k": 5, "skip_pairs": 50_000, "setup_budget_s": 2.0},
    # for the benchmark's own tests
    "small": {"lws_n": 300, "zipf_searches": 400,
              "mixed_universe": 300, "mixed_ops": 600,
              "cli_universe": 100, "cli_ops": 300,
              "skip_k": 4, "skip_pairs": 400, "setup_budget_s": 0.0},
}

MIN_SETUPS = 5
SKIP_WIDTH = 4   # repeat_block width of the skip-splay stream: see its class
CLI_TIMEOUT_S = 170
CLI_TRACES = 6   # distinct verify_cli traces per round
CHUNK = 200   # consecutive operations per throughput sample; rounds hold whole chunks


@dataclass
class Tally:
    """Everything a run measured, over all of its rounds."""
    setup_s: list = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    measured_s: float = 0.0            # time inside the timed calls
    latency_us: array = field(default_factory=lambda: array("d"))
    throughput: list = field(default_factory=list)   # ops/s of each chunk
    op_visits: array = field(default_factory=lambda: array("q"))
    search_ops: int = 0
    search_visits: int = 0
    update_ops: int = 0
    update_visits: int = 0
    peak_rss_mib: float = 0.0
    # Speed probe samples (see speed.py) around the set-ups and around the
    # rounds; verify_cli's round samples come from the command's process.
    setup_probe_s: list = field(default_factory=list)
    round_probe_s: list = field(default_factory=list)
    layer_w_breaches: int | None = None   # verify_cli, per round: see checks.below_layer_floor
    notes: list = field(default_factory=list)

    def note(self, why: str):
        if len(self.notes) < 5:
            self.notes.append(why)

    def settle(self, op_failures: list[str], state_failure: str | None, ops: int):
        """Count a round's failures: every operation if its final state is
        wrong, else each operation that failed its own check."""
        for why in op_failures:
            self.note(why)
        if state_failure is not None:
            self.note(f"final state: {state_failure}")
            self.failed += ops
        else:
            self.failed += len(op_failures)

    def add_costs(self, kinds, visits):
        for kind, v in zip(kinds, visits):
            if kind == "S":
                self.search_ops += 1
                self.search_visits += v
            else:
                self.update_ops += 1
                self.update_visits += v
        self.op_visits.extend(visits)


def _guarded(check, *args) -> str | None:
    """Run a state check; a check that raises reports a failure."""
    try:
        return check(*args)
    except Exception as exc:  # a structure too broken to inspect fails the round
        return f"check raised {exc!r}"


def _set_phase(tracer, phase):
    if tracer is not None:
        tracer.set_phase(phase)


def run(name: str, seed: int, seconds: float, tracer=None, scale: str = "full") -> Tally:
    size = SCALES[scale]
    workload = WORKLOADS[name](seed, size)
    tally = Tally()
    probe = SpeedProbe()
    probe_rounds = not isinstance(workload, VerifyCli)   # its rounds run in a child
    spent = 0.0   # wall time of the set-ups between rounds, with their probes

    def set_up():
        nonlocal spent
        workload.tree = None   # the previous set-up's, so that peak memory holds one
        gc.collect()
        t = perf_counter()
        tally.setup_probe_s.append(probe.sample())
        _set_phase(tracer, "setup")
        t0 = perf_counter()
        workload.setup()
        tally.setup_s.append(perf_counter() - t0)
        _set_phase(tracer, None)
        tally.setup_probe_s.append(probe.sample())
        spent += perf_counter() - t

    try:
        set_up()
        workload.prepare()
        spent, start = 0.0, perf_counter()
        while True:
            gc.collect()
            if probe_rounds:
                tally.round_probe_s.append(probe.sample())
            workload.play(tally, tracer)
            if probe_rounds:
                tally.round_probe_s.append(probe.sample())
            tally.rounds += 1
            if tally.rounds == 1:
                # Later rounds repeat the same work; only the benchmark's
                # own sample arrays grow, by an amount that follows speed.
                tally.peak_rss_mib = workload.peak_rss_kib() / 1024
            ran = perf_counter() - start - spent
            if ran >= seconds:
                break
            # Set-ups repeat between rounds, spread over the run as the
            # rounds are, so that their median does not follow the
            # machine's speed in one moment.
            share = ran / seconds
            while (len(tally.setup_s) < MIN_SETUPS * share
                   or sum(tally.setup_s) < size["setup_budget_s"] * share):
                set_up()
        while len(tally.setup_s) < MIN_SETUPS:
            set_up()
    finally:
        _set_phase(tracer, None)
        workload.close()
    return tally


def timed_calls(calls, keys, engine, tally, tracer):
    """Replay ``calls[i](keys[i])`` in order, one after another.

    Returns each call's result (or the exception it raised) and its cursor
    visits.  Only the calls themselves are timed.
    """
    n = len(keys)
    results = [None] * n
    visits = [0] * n
    latency = array("d", bytes(8 * n))
    clock = perf_counter_ns
    _set_phase(tracer, "run")
    for i in range(n):
        fn, key = calls[i], keys[i]
        v0 = engine.visits
        t0 = clock()
        try:
            result = fn(key)
        except Exception as exc:  # an operation that raises counts as failed
            result = exc
        t1 = clock()
        results[i] = result
        visits[i] = engine.visits - v0
        latency[i] = (t1 - t0) / 1000
    _set_phase(tracer, None)
    tally.latency_us.extend(latency)
    tally.measured_s += sum(latency) / 1e6
    tally.attempted += n
    for i in range(0, n - CHUNK + 1, CHUNK):
        tally.throughput.append(CHUNK / (sum(latency[i:i + CHUNK]) / 1e6))
    return results, visits


class _Lws:
    """A LayeredTree replaying a fixed list of (kind, key) operations.

    Subclasses set ``kinds`` and ``keys`` in ``setup`` and provide
    ``fresh()`` (the start state), ``expect_op`` and ``expect_state``
    (a failure message, or None).
    """

    peak_rss_kib = staticmethod(vm_hwm_kib)

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.tree = None

    def close(self):
        pass

    def play(self, tally, tracer):
        tree = self.fresh()
        method = {"S": tree.search, "I": tree.insert, "D": tree.delete}
        calls = [method[k] for k in self.kinds]
        results, visits = timed_calls(calls, self.keys, tree.engine, tally, tracer)
        tally.add_costs(self.kinds, visits)
        failures = []
        for i, (result, v) in enumerate(zip(results, visits)):
            why = self.expect_op(i, result, v)
            if why is not None:
                failures.append(f"op {i} ({self.kinds[i]} {self.keys[i]}): {why}")
        tally.settle(failures, _guarded(self.expect_state, tree), len(self.keys))


class LwsZipf(_Lws):
    """Preloaded tree, then searches whose keys follow recency rank^-1."""

    def setup(self):
        n = self.size["lws_n"]
        trace = layerws.generate(GeneratorSpec(
            "zipf_recency", n, n + self.size["zipf_searches"], seed=self.seed, theta=1.0))
        tree = LayeredTree()
        for op in trace[:n]:
            tree.insert(op.key)
        self.preload = [op.key for op in trace[:n]]
        self.keys = [op.key for op in trace[n:]]
        self.kinds = ["S"] * len(self.keys)
        self.tree = tree

    def prepare(self):
        self.snapshot = pickle.dumps(self.tree, protocol=pickle.HIGHEST_PROTOCOL)
        self.tree = None   # rounds run on copies unpickled from the snapshot
        bounds = checks.Bounds(ROOT)
        recency = checks.RecencyList(reversed(self.preload))
        self.want_layer, self.bound = [], []
        for key in self.keys:
            w = recency.touch(key)
            self.want_layer.append(checks.layer_of_rank(w))
            self.bound.append(bounds.search(w))

    def fresh(self):
        return pickle.loads(self.snapshot)

    def expect_op(self, i, result, visits):
        if result != self.want_layer[i]:
            return f"returned {result!r}, recency rank puts it in layer {self.want_layer[i]}"
        if visits > self.bound[i]:
            return f"{visits} visits over the frozen bound {self.bound[i]:.1f}"
        return None

    def expect_state(self, tree):
        violations = validate_tree(tree)
        return f"validate_tree: {violations[0]}" if violations else None


class LwsMixed(_Lws):
    """Searches, inserts and deletes from an empty tree."""

    def setup(self):
        trace = layerws.generate(GeneratorSpec(
            "uniform", self.size["mixed_universe"], self.size["mixed_ops"], seed=self.seed))
        self.kinds = [op.kind for op in trace]
        self.keys = [op.key for op in trace]

    def prepare(self):
        rows, self.want_layers, self.want_keys = checks.replay(
            zip(self.kinds, self.keys), checks.Bounds(ROOT))
        self.want = [layer for layer, _, _ in rows]
        self.bound = [bound for _, _, bound in rows]

    def fresh(self):
        return LayeredTree()

    def expect_op(self, i, result, visits):
        if result != self.want[i]:
            return f"returned {result!r}, the reference replay gives {self.want[i]!r}"
        if visits > self.bound[i]:
            return f"{visits} visits over the frozen bound {self.bound[i]:.1f}"
        return None

    def expect_state(self, tree):
        if tree.keys() != self.want_keys:
            return "key set differs from the set model"
        if tree.layer_snapshot() != self.want_layers:
            return "per-layer recency orders differ from the reference replay"
        violations = validate_tree(tree)
        return f"validate_tree: {violations[0]}" if violations else None


class VerifyCli:
    """The ``layerws`` command with every verification on, as a subprocess.

    A round runs the command once on each of CLI_TRACES traces.  The
    validators cost O(n) per operation, and a uniform stream's final size
    swings by about 14 % from seed to seed, so one trace per run would
    make the run's figures follow its seed's size more than the code.
    """

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=work))
        self.csv_path = self.dir / "rows.csv"
        self.json_path = self.dir / "summary.json"
        self.tree = None   # the structure lives in the command's process
        self.report_path = self.dir / "report.json"
        self.child_hwm_kib = 0
        self.breaches = [0] * CLI_TRACES

    def peak_rss_kib(self) -> int:
        return self.child_hwm_kib

    def close(self):
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()

    def setup(self):
        self.traces = []
        for i in range(CLI_TRACES):
            trace = layerws.generate(GeneratorSpec(
                "uniform", self.size["cli_universe"], self.size["cli_ops"],
                seed=self.seed * CLI_TRACES + i))
            (self.dir / f"trace{i}.txt").write_text(layerws.serialize(trace), encoding="ascii")
            self.traces.append(trace)

    def prepare(self):
        bounds = checks.Bounds(ROOT)
        self.want = []
        for trace in self.traces:
            rows, layers, _ = checks.replay(((op.kind, op.key) for op in trace), bounds)
            want_rows = [(op.kind, op.key, "" if layer is None else str(layer), w, bound)
                         for op, (layer, w, bound) in zip(trace, rows)]
            self.want.append((want_rows, {str(j): order for j, order in layers.items()}))

    def command(self, i: int, traced: bool) -> list[str]:
        return [sys.executable, str(HERE / "cli_child.py"), str(self.report_path),
                "1" if traced else "0", "--structure", "lws",
                "--trace", str(self.dir / f"trace{i}.txt"), "--verify-every", "1",
                "--csv", str(self.csv_path), "--json", str(self.json_path)]

    def play(self, tally, tracer):
        for i in range(CLI_TRACES):
            self.play_one(i, tally, tracer)
        tally.layer_w_breaches = sum(self.breaches)

    def play_one(self, i, tally, tracer):
        env = {k: v for k, v in os.environ.items() if k != "LWS_CONSTANTS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        for path in (self.csv_path, self.json_path, self.report_path):
            path.unlink(missing_ok=True)
        ops = len(self.traces[i])
        t0 = perf_counter()
        proc = subprocess.run(self.command(i, tracer is not None), env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        elapsed = perf_counter() - t0
        if self.report_path.exists():
            report = json.loads(self.report_path.read_text(encoding="ascii"))
            self.child_hwm_kib = max(self.child_hwm_kib, report["vm_hwm_kib"])
            tally.round_probe_s.extend(report["probe_s"])
            elapsed -= report["probe_wall_s"]
            if tracer is not None:
                merge(tracer.records["run"], report["spans"])
        tally.measured_s += elapsed
        tally.latency_us.append(elapsed / ops * 1e6)
        tally.throughput.append(ops / elapsed)
        tally.attempted += ops
        rows, summary = read_cli_outputs(self.csv_path, self.json_path)
        if rows:
            tally.add_costs([r["op"] for r in rows], [int(r["cost"]) for r in rows])
            self.breaches[i] = sum(
                checks.below_layer_floor(int(r["layer"]) if r["layer"] else None, int(r["w"]))
                for r in rows)
        want_rows, want_layers = self.want[i]
        why = expect_run(proc, rows, summary, want_rows, want_layers)
        failures = []
        if why is None:
            for j, (row, want) in enumerate(zip(rows, want_rows)):
                row_why = expect_row(j, row, want)
                if row_why is not None:
                    failures.append(f"trace {i} row {j}: {row_why}")
        tally.settle(failures, why, ops)


def expect_run(proc, rows, summary, want_rows, want_layers) -> str | None:
    if proc.returncode != 0:
        return f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if summary is None or rows is None:
        return "no CSV or JSON written"
    if summary.get("violations") != 0:
        return f"violations {summary.get('violations')}"
    if len(rows) != len(want_rows):
        return f"{len(rows)} CSV rows for {len(want_rows)} operations"
    if summary.get("final_layers") != want_layers:
        return "final_layers differ from the reference replay"
    return None


def expect_row(i, row, want) -> str | None:
    kind, key, layer, w, bound = want
    if (row["i"], row["op"], row["key"]) != (str(i), kind, str(key)):
        return f"row names {row['op']} {row['key']}, trace has {kind} {key}"
    if row["layer"] != layer:
        return f"layer {row['layer']!r}, the reference replay gives {layer!r}"
    if int(row["w"]) != w:
        return f"w {row['w']}, recomputed {w}"
    cost = int(row["cost"])
    if cost > bound:
        return f"{cost} visits over the frozen bound {bound:.1f}"
    if abs(float(row["bound"]) - bound) > 1e-3:
        return f"bound column {row['bound']}, recomputed {bound:.4f}"
    if row["ub"] and not 1 - 1e-6 <= float(row["ub"]) <= math.log2(w + 2) + 1e-6:
        return f"ub {row['ub']} outside [1, log2(w + 2)] for w = {w}"
    return None


def read_cli_outputs(csv_path: Path, json_path: Path):
    """The CLI's per-operation rows and run summary (None if not written)."""
    rows = summary = None
    if csv_path.exists():
        with open(csv_path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
    if json_path.exists():
        summary = json.loads(json_path.read_text(encoding="ascii"))
    return rows, summary


class SkipSplayDoubled:
    """Doubled accesses on the 65 535-key skip-splay tree.

    The keys are a ``repeat_block`` stream of width SKIP_WIDTH: blocks of
    consecutive keys at random starts, each swept 2-5 times.  About 7 % of
    the pairs jump to a distant block and cost 100-300 us, and they carry
    about half of the measured time; the sweeps over a block (w = 3) carry
    the other half.  A gain on either the far or the local path shows.
    """

    peak_rss_kib = staticmethod(vm_hwm_kib)

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.k = size["skip_k"]
        self.n = (1 << (1 << (self.k - 1))) - 1
        self.pairs = size["skip_pairs"]
        self.tree = None

    def close(self):
        pass

    def setup(self):
        n = self.n
        stream = layerws.generate(GeneratorSpec(
            "repeat_block", n, n + self.pairs, seed=self.seed, width=SKIP_WIDTH))
        self.keys = [op.key for op in stream[n:]]
        self.tree = SkipSplayTree(self.k)

    def prepare(self):
        bounds = checks.Bounds(ROOT)
        recency = checks.RecencyList(untouched=self.n)
        self.bound = [bounds.skip_pair(self.n, recency.touch(key)) for key in self.keys]
        self.want_aux = checks.skip_splay_aux_roots(self.k)

    def play(self, tally, tracer):
        tree = self.tree if self.tree is not None else SkipSplayTree(self.k)
        self.tree = None
        calls = [tree.access_doubled] * len(self.keys)
        results, visits = timed_calls(calls, self.keys, tree.engine, tally, tracer)
        tally.add_costs("S" * len(visits), visits)
        failures = []
        for i, (result, v) in enumerate(zip(results, visits)):
            if result != v:
                failures.append(f"pair {i} (key {self.keys[i]}): returned cost {result!r}, "
                                f"the cursor made {v} visits")
            elif v > self.bound[i]:
                failures.append(f"pair {i} (key {self.keys[i]}): {v} visits over the "
                                f"frozen bound {self.bound[i]:.1f}")
        tally.settle(failures, _guarded(self.expect_state, tree), len(self.keys))

    def expect_state(self, tree) -> str | None:
        if tree.aux_assignment() != self.want_aux:
            return "auxiliary-tree membership differs from the perfect-tree construction"
        violations = tree.validate()
        return f"validate: {violations[0]}" if violations else None


WORKLOADS = {"lws_zipf": LwsZipf, "lws_mixed": LwsMixed, "verify_cli": VerifyCli,
             "skip_splay_doubled": SkipSplayDoubled}
