"""Tests of the benchmark itself, at small scale.

    python3 -m pytest perfbench

Each workload must pass its checks on the current code, and a planted
wrong answer must turn into failed operations instead of a passing run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
run.use_source_tree()

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from layerws import LayeredTree, SkipSplayTree  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


BENCH = run.load_benchmark()
NAMES = [w["name"] for w in BENCH["workloads"]]


def small(name, tracer=None, seed=3):
    return workloads.run(name, seed, 0, tracer, scale="small")


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_and_repeats_its_visits(name):
    first, second = small(name), small(name)
    assert first.rounds == 1 and first.attempted > 0
    assert (first.failed, first.notes) == (0, [])
    assert (first.op_visits, first.search_visits) == (second.op_visits, second.search_visits)


def test_every_listed_workload_exists():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
def test_last_line_reports_exactly_the_listed_metrics(trace, capsys):
    code = run.main(["--workload", "lws_mixed", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace), "--scale", "small"])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [m["name"] for m in listed]
    assert all(out["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)


def test_traced_run_puts_the_work_in_the_layers_that_do_it():
    tracer = Tracer()
    tracer.install()
    try:
        tally = small("lws_zipf", tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.records["setup"], tracer.records["run"],
                           tally.attempted, tally.measured_s, len(tally.setup_s))
    tree_share = layers["layered_tree.self_pct"][0] + layers["layer_ops.self_pct"][0]
    assert 50 < tree_share <= 100
    assert layers["validate.sweep_pct"][0] == layers["skip_splay.self_pct"][0] == 0
    assert layers["workload.generate_s"][0] > 0
    assert tally.failed == 0


def test_traced_counts_repeat_exactly_at_a_fixed_seed():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            tally = small("lws_mixed", tracer)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer.records["setup"], tracer.records["run"],
                               tally.attempted, tally.measured_s, len(tally.setup_s))
        counts.append({name: value for name, (value, unit, _) in layers.items()
                       if unit not in ("s", "%")})
    assert counts[0] == counts[1]
    assert counts[0]["layered_tree.insert_visits"] > 0


def test_uninstall_restores_the_package():
    import layerws.harness
    before = (LayeredTree.search, layerws.harness.validate_tree, layerws.generate)
    tracer = Tracer()
    tracer.install()
    assert LayeredTree.search is not before[0]
    tracer.uninstall()
    assert (LayeredTree.search, layerws.harness.validate_tree, layerws.generate) == before


# -- planted faults -----------------------------------------------------------------

def test_wrong_search_layer_fails_those_operations(monkeypatch):
    clean = small("lws_zipf")
    original = LayeredTree.search
    wrong = []

    def search(self, key, fresh=True):
        layer = original(self, key, fresh)
        if key % 7 == 0:
            wrong.append(key)
            return layer + 1
        return layer

    monkeypatch.setattr(LayeredTree, "search", search)
    tally = small("lws_zipf")
    assert tally.failed == len(wrong) > 0
    assert clean.attempted == tally.attempted


def test_tampered_final_order_fails_the_round(monkeypatch):
    original = LayeredTree.layer_snapshot

    def snapshot(self):
        layers = original(self)
        layers[1] = layers[1][::-1]
        return layers

    monkeypatch.setattr(LayeredTree, "layer_snapshot", snapshot)
    tally = small("lws_mixed")
    assert tally.failed == tally.attempted > 0


def test_operation_that_raises_counts_as_failed(monkeypatch):
    original = LayeredTree.insert
    calls = []

    def insert(self, key):
        calls.append(key)
        if len(calls) == 10:
            raise RuntimeError("planted")
        original(self, key)

    monkeypatch.setattr(LayeredTree, "insert", insert)
    tally = small("lws_mixed")
    assert tally.failed > 0


def test_cli_row_with_wrong_working_set_fails_that_operation(monkeypatch):
    original = workloads.read_cli_outputs

    def read(csv_path, json_path):
        rows, summary = original(csv_path, json_path)
        rows[5]["w"] = str(int(rows[5]["w"]) + 1)
        return rows, summary

    monkeypatch.setattr(workloads, "read_cli_outputs", read)
    tally = small("verify_cli")
    assert tally.failed == workloads.CLI_TRACES   # one row of each command run


def test_cli_tampered_final_layers_fail_the_run(monkeypatch):
    original = workloads.read_cli_outputs

    def read(csv_path, json_path):
        rows, summary = original(csv_path, json_path)
        summary["final_layers"]["1"].reverse()
        return rows, summary

    monkeypatch.setattr(workloads, "read_cli_outputs", read)
    tally = small("verify_cli")
    assert tally.failed == tally.attempted > 0


def test_skip_splay_misreported_cost_and_membership_fail(monkeypatch):
    original = SkipSplayTree.access_doubled
    monkeypatch.setattr(SkipSplayTree, "access_doubled", lambda self, key: original(self, key) + 1)
    assert small("skip_splay_doubled").failed == small("skip_splay_doubled").attempted
    monkeypatch.undo()

    assignment = SkipSplayTree.aux_assignment

    def moved(self):
        out = assignment(self)
        out[1] = out[3]
        return out

    monkeypatch.setattr(SkipSplayTree, "aux_assignment", moved)
    tally = small("skip_splay_doubled")
    assert tally.failed == tally.attempted > 0


# -- expectations and the command line ------------------------------------------------

def test_expectations_from_hand_worked_cases():
    assert [checks.layer_of_rank(r) for r in (0, 3, 4, 19, 20, 275, 276)] == [1, 1, 2, 2, 3, 3, 4]
    recency = checks.RecencyList([3, 2, 1])
    assert (recency.touch(1), recency.touch(1), recency.rank(9)) == (2, 0, 3)
    recency.remove(3)
    assert recency.order == [1, 2]
    roots = checks.skip_splay_aux_roots(3)   # keys 1..15, marked heights 1, 2, 4
    assert {k: roots[k] for k in (8, 4, 12, 2, 6, 10, 14)} == {
        8: 8, 4: 8, 12: 8, 2: 2, 6: 6, 10: 10, 14: 14}
    assert all(roots[k] == k for k in range(1, 16, 2))
    assert [checks.below_layer_floor(j, w) for j, w in
            ((None, 0), (1, 0), (2, 3), (2, 4), (3, 15), (3, 16))] == [
        False, False, True, False, True, False]


def test_replay_from_a_hand_worked_trace():
    bounds = checks.Bounds(run.ROOT)
    ops = [("I", 5), ("I", 6), ("S", 5), ("D", 6), ("S", 5)]
    rows, layers, keys = checks.replay(ops, bounds)
    assert [(layer, w) for layer, w, _ in rows] == [(None, 0), (None, 1), (1, 1), (None, 1), (1, 0)]
    assert rows[2][2] == bounds.search(1) and rows[3][2] == bounds.update(1)
    assert (layers[1], keys) == ([5], [5])


def test_cli_counts_layer_floor_breaches_without_failing():
    tally = small("verify_cli")
    assert tally.failed == 0 and isinstance(tally.layer_w_breaches, int)


def test_times_are_scaled_by_the_probe_of_the_process_that_ran_them():
    tally = small("verify_cli")
    assert tally.setup_probe_s and tally.round_probe_s
    tally.setup_s, tally.setup_probe_s = [0.2, 0.1, 0.3], [2 * REFERENCE_S]   # machine at half speed
    tally.throughput, tally.round_probe_s = [50.0], [REFERENCE_S / 2]          # at double speed
    out = run.end_to_end(tally)
    assert out["setup_s"][0] == pytest.approx(0.1)
    assert out["ops_per_s"][0] == pytest.approx(25.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lws_zipf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
