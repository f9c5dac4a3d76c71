import csv
import json
import subprocess
import sys
import time

import pytest

from layerws import LayeredTree, RedBlackBaseline, ReferenceStructure
from layerws.cli import main
from layerws.engine import Node
from layerws.errors import DivergenceError, IncompatibleTraceError
from layerws.faults import (_find, corrupt_color, corrupt_layer, corrupt_next_layer,
                            corrupt_queue_swap, corrupt_sizes)
from layerws.harness import RunConfig, compare_layers, run, verify_structure
from layerws.workload import GeneratorSpec, TraceOp, parse

SCENARIO_A = "I 1\nI 2\nI 3\nI 4\nI 5\nS 1\n"


def write_trace(tmp_path, text, name="trace.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_scenario_a(tmp_path):
    config = RunConfig(
        structure="lws",
        trace=parse(SCENARIO_A),
        verify_every=1,
        csv_path=str(tmp_path / "rows.csv"),
        json_path=str(tmp_path / "summary.json"),
    )
    result = run(config)
    assert result.exit_code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["violations"] == 0
    assert summary["final_layers"] == {"1": [1, 5, 4, 3], "2": [2]}
    assert set(summary) >= {"max_cost", "mean_cost", "max_cost_over_lgw",
                            "amortized_ratio", "ops", "violations"}
    with open(tmp_path / "rows.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "op", "key", "cost", "layer", "w", "ub", "bound"]
    assert len(rows) == 7
    search_row = rows[6]
    assert search_row[1] == "S" and search_row[4] == "2"  # found in layer 2


def test_run_rejects_updates_for_skip_splay():
    config = RunConfig(structure="skip_splay", trace=parse("I 5\n"))
    with pytest.raises(IncompatibleTraceError):
        run(config)


def test_run_skip_splay_searches(tmp_path):
    trace = [TraceOp("S", 1 + (7 * i) % 15) for i in range(60)]
    config = RunConfig(structure="skip_splay", trace=trace, verify_every=10,
                       json_path=str(tmp_path / "s.json"))
    result = run(config)
    assert result.exit_code == 0
    assert result.summary["ops"] == 60
    assert result.summary["max_cost"] > 0


def test_verify_empty_tree_is_clean():
    assert verify_structure(LayeredTree()) == []


def test_run_zipf_respects_committed_search_bound(tmp_path):
    from layerws.constants import load_constants
    config = RunConfig(structure="lws",
                       gen=GeneratorSpec("zipf_recency", universe=300, ops=5000, seed=41),
                       verify_every=1000,
                       json_path=str(tmp_path / "z.json"))
    result = run(config)
    assert result.exit_code == 0
    assert result.summary["max_cost_over_lgw"] <= load_constants()["search_per_lgw"]


def test_run_generated_baseline():
    config = RunConfig(structure="redblack_baseline",
                       gen=GeneratorSpec("uniform", universe=60, ops=400, seed=5),
                       verify_every=50)
    result = run(config)
    assert result.exit_code == 0


def test_run_ws_reference_has_no_cost():
    config = RunConfig(structure="ws_reference",
                       gen=GeneratorSpec("uniform", universe=40, ops=200, seed=5))
    result = run(config)
    assert result.exit_code == 0
    assert result.summary["max_cost"] == 0


def test_reports_are_deterministic(tmp_path):
    def one(path):
        config = RunConfig(structure="lws",
                           gen=GeneratorSpec("zipf_recency", universe=50, ops=300, seed=9),
                           csv_path=str(path), verify_every=100)
        run(config)
        return path.read_text()

    assert one(tmp_path / "a.csv") == one(tmp_path / "b.csv")


def test_run_catches_planted_divergence(tmp_path, monkeypatch):
    trace = parse(SCENARIO_A)
    rows = tmp_path / "rows.csv"
    result = run(RunConfig("lws", trace=trace, verify_every=1, csv_path=str(rows)))
    assert result.exit_code == 0 and not result.violations
    with open(rows) as fh:
        assert sum(1 for r in csv.DictReader(fh) if r["layer"]) == 1  # one search hit

    # sabotage: run again but corrupt the tree mid-flight via a wrong op
    original = LayeredTree.search

    def crooked(self, key, fresh=True):
        out = original(self, key, fresh)
        if key == 1:
            corrupt_queue_swap(self, 4)
        return out

    monkeypatch.setattr(LayeredTree, "search", crooked)
    result = run(RunConfig("lws", trace=trace, verify_every=1))
    assert result.exit_code == 1
    assert result.summary["divergence"].startswith("op 5: ")


def _set_field(tree, key, name, value):
    setattr(_find(tree, key), name, value)


def _set_size(tree, layer, value):
    tree.sizes[layer] = value


# Each fault is planted by the search for key 1 (operation PLANT_AT), after
# which the 40-key tree holds [1, 40, 39, 38], [37..22] and [21..2].  The
# comparator reports a wrong key, label, queue field or entry of the books
# as a divergence; the per-operation validator reports a colour fault as a
# violation.
PLANT_TRACE = "".join(f"I {k}\n" for k in range(1, 41)) + "S 40\nS 1\nS 2\nS 3\n"
PLANT_AT = 41
PLANTED = {
    "color": (lambda t: corrupt_color(t, 30), "violation"),
    "layer": (lambda t: corrupt_layer(t, 10, 1), "divergence"),
    "queue-swap": (lambda t: corrupt_queue_swap(t, 33), "divergence"),
    "interior-older": (lambda t: _set_field(t, 33, "older", 20), "divergence"),
    "node-key": (lambda t: _set_field(t, 30, "key", 1000), "divergence"),
    "next-layer-youngest": (lambda t: corrupt_next_layer(t, 1, 999), "divergence"),
    "next-layer-oldest": (lambda t: corrupt_next_layer(t, 22, None), "divergence"),
    "next-layer-interior": (lambda t: corrupt_next_layer(t, 30, 7), "divergence"),
    "header-layer-count": (lambda t: corrupt_sizes(t, layers=4), "divergence"),
    "header-last-size": (lambda t: corrupt_sizes(t, deepest=t.sizes[3] + 1), "divergence"),
    "header-middle-size": (lambda t: _set_size(t, 2, 1), "divergence"),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_run_names_the_operation_of_a_planted_fault(fault, tmp_path, monkeypatch, capsys):
    inject, channel = PLANTED[fault]
    original = LayeredTree.search

    def crooked(self, key, fresh=True):
        layer = original(self, key, fresh)
        if key == 1:
            inject(self)
        return layer

    monkeypatch.setattr(LayeredTree, "search", crooked)
    result = run(RunConfig("lws", trace=parse(PLANT_TRACE), verify_every=1))
    assert result.exit_code == 1
    if channel == "divergence":
        assert result.summary["divergence"].startswith(f"op {PLANT_AT}: ")
        assert result.summary["ops"] == PLANT_AT + 1
    else:
        assert "divergence" not in result.summary
        assert result.violations[0][0] == PLANT_AT

    code = main(["--structure", "lws", "--trace", write_trace(tmp_path, PLANT_TRACE),
                 "--verify-every", "1", "--json", str(tmp_path / "p.json")])
    assert code == 1
    err = capsys.readouterr().err
    if channel == "divergence":
        summary = json.loads((tmp_path / "p.json").read_text())
        assert summary["divergence"].startswith(f"op {PLANT_AT}: ")
    else:
        assert err.startswith(f"violation: op {PLANT_AT}: ")


def test_run_reports_a_search_layer_the_reference_disagrees_with(monkeypatch):
    """The search for key 1 reports one layer deeper than it found, and the
    tree is left as it is: only the lockstep layer check can tell."""
    original = LayeredTree.search

    def crooked(self, key, fresh=True):
        layer = original(self, key, fresh)
        return layer + 1 if key == 1 else layer

    monkeypatch.setattr(LayeredTree, "search", crooked)
    result = run(RunConfig("lws", trace=parse(PLANT_TRACE), verify_every=1))
    assert result.exit_code == 1
    assert result.summary["divergence"] == (
        f"op {PLANT_AT}: search 1: tree found layer 4, reference level 3")


def test_run_reports_a_child_link_cycle_planted_by_the_last_operation(monkeypatch):
    """The search for key 1, the trace's last operation, points key 1's
    left link at the root.  The per-operation sweep and the final sweep
    each report one depth-bound violation.  It is the last operation
    because a later one could walk into the cycle."""
    original = LayeredTree.search

    def crooked(self, key, fresh=True):
        layer = original(self, key, fresh)
        if key == 1:
            _find(self, 1).left = self.engine.root
        return layer

    monkeypatch.setattr(LayeredTree, "search", crooked)
    trace = parse("".join(f"I {k}\n" for k in range(1, 41)) + "S 1\n")
    result = run(RunConfig("lws", trace=trace, verify_every=1))
    assert result.exit_code == 1
    assert [(at, v.kind) for at, v in result.violations] == [(40, "depth-bound"), ("end", "depth-bound")]
    assert "final_layers" not in result.summary  # no recency order to read off a cycle


# -- fault injection --------------------------------------------------------------

def fresh_tree(n=40):
    tree = LayeredTree()
    for k in range(1, n + 1):
        tree.insert(k)
    assert not verify_structure(tree)
    return tree


def test_color_flip_detected():
    tree = fresh_tree()
    corrupt_color(tree, 12)
    kinds = {v.kind for v in verify_structure(tree)}
    assert kinds & {"rb-red-red", "rb-black-height", "rb-root-red"}


def test_layer_inversion_detected():
    tree = fresh_tree()
    root_key = tree.engine.root.key
    corrupt_layer(tree, root_key, 2)
    kinds = {v.kind for v in verify_structure(tree)}
    assert kinds & {"layer-monotone", "layer-size", "layer-shape"}


def test_queue_swap_detected():
    tree = fresh_tree()
    victim = tree.layer_snapshot()[2][3]
    corrupt_queue_swap(tree, victim)
    found = verify_structure(tree)
    assert any(v.kind in ("queue-chain", "queue-nextlayer") for v in found)


@pytest.mark.parametrize("side", ["left", "right"])
def test_baseline_child_link_cycle_is_one_violation(side):
    """An outer key's free child link pointed at the root closes a cycle;
    the baseline's verifier stops after more nodes than the tree holds,
    reports one depth-bound violation and skips the red-black check, which
    would follow the cycle too."""
    tree = RedBlackBaseline()
    for k in range(1, 41):
        tree.insert(k)
    assert not verify_structure(tree)
    root = tree.engine.root
    setattr(tree.engine.lookup(1 if side == "left" else 40), side, root)
    start = time.perf_counter()
    found = verify_structure(tree)
    assert time.perf_counter() - start < 1.0
    assert [(v.kind, v.witness) for v in found] == [("depth-bound", root.key)]


def test_baseline_keys_report_a_child_link_cycle():
    tree = RedBlackBaseline()
    for k in range(1, 41):
        tree.insert(k)
    assert tree.keys() == list(range(1, 41))
    tree.engine.lookup(1).left = tree.engine.root
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="cycle of child links"):
        tree.keys()
    assert time.perf_counter() - start < 1.0


def test_header_desync_detected():
    tree = fresh_tree()
    corrupt_sizes(tree, deepest=tree.sizes[3] + 1)
    found = verify_structure(tree)
    assert any(v.kind == "header" for v in found)


def _baseline_nodes(n=40):
    tree = RedBlackBaseline()
    for k in range(1, n + 1):
        tree.insert(k)
    assert not verify_structure(tree)
    return tree, list(tree.engine.iter_nodes())


def test_baseline_validators_report_order_and_colour_faults():
    tree, nodes = _baseline_nodes()
    nodes[9].key, nodes[19].key = nodes[19].key, nodes[9].key
    assert {v.kind for v in verify_structure(tree)} == {"bst-order"}

    tree, nodes = _baseline_nodes()
    root = tree.engine.root
    red = next(n for n in nodes if n.red and n.parent is not root)
    red.parent.red = True
    assert ("rb-red-red", red.parent.key) in {(v.kind, v.witness) for v in verify_structure(tree)}

    tree, nodes = _baseline_nodes()
    next(n for n in nodes if n.left is None and n.right is None and not n.red).red = True
    assert {v.kind for v in verify_structure(tree)} == {"rb-black-height"}


def _reference(n=40):
    ref = ReferenceStructure()
    for k in range(1, n + 1):
        ref.insert(k)
    assert not verify_structure(ref)
    return ref


def test_reference_validator_reports_an_empty_deepest_level_and_a_stray_key():
    ref = _reference()
    deepest = ref.level_queues[-1]
    for k in deepest:
        del ref.level_of[k]
    deepest.clear()
    assert [str(v) for v in verify_structure(ref)] == [
        f"layer-size[{ref.levels}]: deepest level holds 0"]

    ref = _reference()
    ref.level_of[41] = 1
    assert [str(v) for v in verify_structure(ref)] == [
        f"queue-chain[{ref.levels}]: queues hold 40 keys, the level map 41"]


# the 40-key tree's books read {1: 4, 2: 16, 3: 20}; a miscounted layer
# is named by its index (the deepest by "last_size"), a record that does
# not name exactly the layers 1..t, or whose deepest layer is empty, by "t"
@pytest.mark.parametrize("sizes, witness", [
    ({1: 4, 2: 1, 3: 20}, 2), ({1: 3, 2: 16, 3: 20}, 1), ({1: 4, 2: 16, 3: 19}, "last_size"),
    ({1: 4, 3: 20}, "t"), ({1: 4, 2: 16, 3: 20, 4: 0}, "t"), ({1: 4, 2: 16, 3: 0}, "t"),
    ({}, "t"), ({0: 4, 1: 16, 2: 20}, "t")])
def test_books_checked_entry_by_entry(sizes, witness):
    tree = fresh_tree()
    tree.sizes = sizes
    found = verify_structure(tree)
    assert [(v.kind, v.witness) for v in found] == [("header", witness)], [str(v) for v in found]


def test_books_of_an_empty_tree_name_no_layer():
    tree = LayeredTree()
    assert not verify_structure(tree)
    corrupt_sizes(tree, layers=2)
    assert [str(v) for v in verify_structure(tree)] == [
        "header[t]: empty tree but the books name layers [1, 2]"]


def test_queue_that_returns_to_a_key_it_passed_cycles():
    """A second node takes the key of layer 1's oldest and names it as
    both recency links, and the oldest names its own key as younger.  The
    key map holds the second node, which the walk reaches after the
    oldest, so the queue walk from the oldest runs on that node forever."""
    tree = fresh_tree()
    tree.search(37)
    assert tree.layer_snapshot()[1] == [37, 40, 39, 38]
    oldest, second = tree.engine.lookup(38), tree.engine.lookup(40)
    second.key = second.older = second.younger = oldest.younger = 38
    assert [str(v) for v in verify_structure(tree)] == [
        "bst-order[38]: key 38 outside interval (39, inf)",
        "queue-chain[1]: layer 1 queue cycles"]


def test_next_layer_corruption_detected():
    tree = fresh_tree()
    youngest = tree.layer_snapshot()[1][0]
    corrupt_next_layer(tree, youngest, 999)
    found = verify_structure(tree)
    assert any(v.kind == "queue-nextlayer" for v in found)


def node_map(tree):
    return {n.key: n for n in tree.engine.iter_nodes()}


def test_compare_layers_accepts_lockstep_pair():
    tree, ref = LayeredTree(), ReferenceStructure()
    for k in range(1, 41):
        tree.insert(k)
        ref.insert(k)
        compare_layers(tree, ref, node_map(tree))
    for k in (3, 38, 17, 3):
        assert tree.search(k) == ref.search(k)
        compare_layers(tree, ref, node_map(tree))
    for k in (20, 1, 40):
        tree.delete(k)
        ref.delete(k)
        compare_layers(tree, ref, node_map(tree))


def test_compare_layers_counts_the_node_map():
    """A key the reference lacks, mapped beside every queued key, passes the
    queue checks; only the final count tells."""
    tree, ref = LayeredTree(), ReferenceStructure()
    for k in range(1, 41):
        tree.insert(k)
        ref.insert(k)
    nodes = node_map(tree)
    nodes[41] = Node(41, 3)
    with pytest.raises(DivergenceError, match="^reference holds 40 keys, tree maps 41$"):
        compare_layers(tree, ref, nodes)


def test_broken_queue_is_a_divergence_not_a_crash():
    tree, ref = LayeredTree(), ReferenceStructure()
    for k in range(1, 41):
        tree.insert(k)
        ref.insert(k)
    corrupt_queue_swap(tree, tree.layer_snapshot()[2][3])
    with pytest.raises(AssertionError):
        tree.layer_snapshot()
    with pytest.raises(DivergenceError, match="layer 2 diverged"):
        compare_layers(tree, ref, node_map(tree))


def test_run_reports_broken_queue_as_divergence(tmp_path, monkeypatch, capsys):
    original = LayeredTree.search

    def crooked(self, key, fresh=True):
        layer = original(self, key, fresh)
        if key == 1:
            corrupt_queue_swap(self, 30)
        return layer

    monkeypatch.setattr(LayeredTree, "search", crooked)
    trace = "".join(f"I {k}\n" for k in range(1, 41)) + "S 40\nS 1\nS 2\n"
    result = run(RunConfig(structure="lws", trace=parse(trace), verify_every=1))
    assert result.exit_code == 1
    assert result.summary["ops"] == 42
    assert result.summary["divergence"].startswith("op 41: ")
    assert "diverged" in result.summary["divergence"]

    code = main(["--structure", "lws", "--trace", write_trace(tmp_path, trace),
                 "--verify-every", "1", "--json", str(tmp_path / "d.json")])
    assert code == 1
    assert "divergence" in json.loads((tmp_path / "d.json").read_text())
    capsys.readouterr()


# -- command line ---------------------------------------------------------------------

def test_cli_scenario_a(tmp_path, capsys):
    trace = write_trace(tmp_path, SCENARIO_A)
    code = main(["--structure", "lws", "--trace", trace, "--verify-every", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"violations": 0' in out


def test_cli_incompatible_trace(tmp_path, capsys):
    trace = write_trace(tmp_path, "I 5\n")
    code = main(["--structure", "skip_splay", "--trace", trace])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_parse_error(tmp_path, capsys):
    trace = write_trace(tmp_path, "Q 5\n")
    code = main(["--structure", "lws", "--trace", trace])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_generator(tmp_path):
    code = main(["--structure", "lws", "--gen", "zipf_recency", "--n", "30",
                 "--ops", "200", "--seed", "3",
                 "--json", str(tmp_path / "g.json")])
    assert code == 0
    assert json.loads((tmp_path / "g.json").read_text())["ops"] == 200


def test_cli_entrypoint_subprocess(tmp_path):
    trace = write_trace(tmp_path, SCENARIO_A)
    proc = subprocess.run(
        [sys.executable, "-m", "layerws.cli", "--structure", "lws",
         "--trace", trace],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
