"""Trace-driven runner: execute, verify, compare, and report.

Runs a trace against one structure, keeps working-set and unified-bound
trackers in step, writes one CSV row per operation plus a JSON summary,
and validates every invariant on a configurable cadence.  Layered-tree
runs execute the reference structure in lockstep and stop at the first
per-layer divergence.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import islice, zip_longest

from .baseline import RedBlackBaseline
from .constants import load_constants
from .engine import Node
from .errors import DivergenceError, IncompatibleTraceError
from .layered_tree import MAX_LAYERS, LayeredTree
from .reference import ReferenceStructure, UnifiedBoundTracker, lg
from .skip_splay import SkipSplayTree
from .validate import Violation, check_red_black, validate_tree
from .workload import DELETE, INSERT, SEARCH, GeneratorSpec, TraceOp, generate

STRUCTURES = ("lws", "ws_reference", "skip_splay", "skip_splay_doubled",
              "redblack_baseline")

UB_AUTO_KEY_LIMIT = 600
UB_AUTO_OP_LIMIT = 25_000


@dataclass
class RunConfig:
    structure: str
    trace: list[TraceOp] | None = None
    gen: GeneratorSpec | None = None
    verify_every: int = 100
    csv_path: str | None = None
    json_path: str | None = None
    compare_every: int = 1  # lws-vs-reference lockstep cadence

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.verify_every < 1:
            raise ValueError("verify_every must be at least 1")
        if (self.trace is None) == (self.gen is None):
            raise ValueError("exactly one of trace/gen must be given")


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    violations: list = field(default_factory=list)


def verify_structure(obj) -> list[Violation]:
    """Run every structural validator the object supports."""
    if isinstance(obj, LayeredTree):
        return validate_tree(obj)
    if isinstance(obj, SkipSplayTree):
        return obj.validate()
    if isinstance(obj, RedBlackBaseline):
        return _verify_baseline(obj)
    if isinstance(obj, ReferenceStructure):
        return _verify_reference(obj)
    raise TypeError(f"no validators for {type(obj).__name__}")


def _verify_baseline(tree: RedBlackBaseline) -> list[Violation]:
    out: list[Violation] = []
    prev = None
    for node in tree.engine.iter_nodes():
        if prev is not None and node.key <= prev:
            out.append(Violation("bst-order", node.key, "keys out of order"))
        prev = node.key
    root = tree.engine.root
    if root is not None:
        check_red_black(root, out)
    return out


def _verify_reference(ref: ReferenceStructure) -> list[Violation]:
    out: list[Violation] = []
    from .reference import level_capacity
    t = ref.levels
    for j in range(1, t + 1):
        got = len(ref.level_sets[j - 1])
        if set(ref.level_queues[j - 1]) != ref.level_sets[j - 1]:
            out.append(Violation("queue-chain", j, "queue and set disagree"))
        if j < t and got != level_capacity(j):
            out.append(Violation("layer-size", j, f"level {j} holds {got}"))
        if j == t and not 1 <= got <= level_capacity(j):
            out.append(Violation("layer-size", j, f"deepest level holds {got}"))
    return out


def compare_layers(tree: LayeredTree, ref: ReferenceStructure):
    """Raise DivergenceError naming the first layer whose key set or
    recency order differs.

    One walk of the tree maps each key to its node (labels beyond the layer
    count are not the tree's, as in ``layer_snapshot``).  Every reference
    queue is then checked link by link: each key's node carries the queue's
    label, its younger link names the previous key and its older link the
    next.  A tree key left over after every queue has passed is one the
    reference lacks.  Together this pins every layer's members and order.
    Snapshots are built only to word the error.
    """
    t = tree.layer_count or MAX_LAYERS + 1
    nodes: dict[int, Node] = {}
    stack = [tree.engine.root] if tree.engine.root is not None else []
    pop, push = stack.pop, stack.append
    while stack:
        n = pop()
        if n.layer > t:
            continue  # pruned with its subtree, as the snapshot does
        nodes[n.key] = n
        if n.left is not None:
            push(n.left)
        if n.right is not None:
            push(n.right)
    for j, q in enumerate(ref.level_queues, start=1):
        younger = None
        for key, older in zip_longest(q, islice(q, 1, None)):
            node = nodes.pop(key, None)
            if node is None:
                raise _divergence(tree, ref, j, f"key {key}, missing from the tree")
            if node.layer != j or node.younger != younger or node.older != older:
                raise _divergence(
                    tree, ref, j,
                    f"key {key}, labeled {node.layer} with younger={node.younger} "
                    f"older={node.older} (expected younger={younger} older={older})")
            younger = key
    if nodes:
        extra = min(nodes.values(), key=lambda n: n.layer)
        raise _divergence(tree, ref, extra.layer, f"key {extra.key}, absent from the reference")


def _divergence(tree: LayeredTree, ref: ReferenceStructure, j: int,
                where: str) -> DivergenceError:
    want = ref.snapshot().get(j, [])
    try:
        held = tree.layer_snapshot().get(j, [])[:10]
    except AssertionError as exc:
        held = f"a broken queue ({exc})"
    return DivergenceError(
        f"layer {j} diverged at {where}: tree holds {held}, reference holds {want[:10]}")


class _LwsDriver:
    supported = {SEARCH, INSERT, DELETE}
    name = "lws"

    def __init__(self):
        self.tree = LayeredTree()
        self.shadow = ReferenceStructure()

    def apply(self, op: TraceOp):
        eng = self.tree.engine
        before = eng.visits
        if op.kind == SEARCH:
            layer = self.tree.search(op.key)
            ref_layer = self.shadow.search(op.key)
        elif op.kind == INSERT:
            layer = None
            self.tree.insert(op.key)
            self.shadow.insert(op.key)
            ref_layer = None
        else:
            layer = None
            self.tree.delete(op.key)
            self.shadow.delete(op.key)
            ref_layer = None
        if op.kind == SEARCH and layer != ref_layer:
            raise DivergenceError(
                f"search {op.key}: tree found layer {layer}, reference level {ref_layer}")
        return eng.visits - before, layer

    def compare(self):
        compare_layers(self.tree, self.shadow)

    def size(self):
        return self.tree.size

    def verify(self):
        return validate_tree(self.tree) + _verify_reference(self.shadow)

    def final_layers(self):
        try:
            snapshot = self.tree.layer_snapshot()
        except AssertionError:
            return None  # a broken queue has no order to report
        return {str(j): order for j, order in sorted(snapshot.items())}


class _ReferenceDriver:
    supported = {SEARCH, INSERT, DELETE}
    name = "ws_reference"

    def __init__(self):
        self.ref = ReferenceStructure()

    def apply(self, op: TraceOp):
        if op.kind == SEARCH:
            return 0, self.ref.search(op.key)
        if op.kind == INSERT:
            self.ref.insert(op.key)
        else:
            self.ref.delete(op.key)
        return 0, None

    def compare(self):
        pass

    def size(self):
        return len(self.ref)

    def verify(self):
        return _verify_reference(self.ref)

    def final_layers(self):
        return {str(j): order for j, order in sorted(self.ref.snapshot().items())}


class _BaselineDriver:
    supported = {SEARCH, INSERT, DELETE}
    name = "redblack_baseline"

    def __init__(self):
        self.tree = RedBlackBaseline()

    def apply(self, op: TraceOp):
        eng = self.tree.engine
        before = eng.visits
        if op.kind == SEARCH:
            layer = self.tree.search(op.key)
        elif op.kind == INSERT:
            layer = None
            self.tree.insert(op.key)
        else:
            layer = None
            self.tree.delete(op.key)
        return eng.visits - before, layer

    def compare(self):
        pass

    def size(self):
        return self.tree.size

    def verify(self):
        return _verify_baseline(self.tree)

    def final_layers(self):
        return None


class _SkipDriver:
    supported = {SEARCH}
    name = "skip_splay"
    doubled = False

    def __init__(self, max_key: int):
        k = 2
        while ((1 << (1 << (k - 1))) - 1) < max_key:
            k += 1
            if k > 5:
                raise IncompatibleTraceError(
                    f"key {max_key} exceeds the largest supported universe")
        self.tree = SkipSplayTree(k)

    def apply(self, op: TraceOp):
        cost = (self.tree.access_doubled(op.key) if self.doubled
                else self.tree.access(op.key))
        return cost, self.tree.aux_depth(op.key)

    def compare(self):
        pass

    def size(self):
        return self.tree.n

    def verify(self):
        return self.tree.validate()

    def final_layers(self):
        return None


class _SkipDoubledDriver(_SkipDriver):
    name = "skip_splay_doubled"
    doubled = True


def _make_driver(structure: str, trace: list[TraceOp]):
    if structure == "lws":
        return _LwsDriver()
    if structure == "ws_reference":
        return _ReferenceDriver()
    if structure == "redblack_baseline":
        return _BaselineDriver()
    bad = sorted({op.kind for op in trace} - _SkipDriver.supported)
    if bad:
        raise IncompatibleTraceError(
            f"skip-splay trace may only search; found {bad}")
    max_key = max((op.key for op in trace), default=1)
    if min((op.key for op in trace), default=1) < 1:
        raise IncompatibleTraceError("skip-splay keys start at 1")
    driver = _SkipDriver(max_key) if structure == "skip_splay" else _SkipDoubledDriver(max_key)
    return driver


def run(config: RunConfig) -> RunResult:
    trace = config.trace if config.trace is not None else generate(config.gen)
    driver = _make_driver(config.structure, trace)
    unsupported = {op.kind for op in trace} - driver.supported
    if unsupported:
        raise IncompatibleTraceError(
            f"{config.structure} does not support {sorted(unsupported)}")

    constants = load_constants()
    is_skip = isinstance(driver, _SkipDriver)
    tracker = UnifiedBoundTracker(range(1, driver.size() + 1) if is_skip else ())
    emit_ub = (driver.size() if is_skip else _peak_keys(trace)) <= UB_AUTO_KEY_LIMIT \
        or len(trace) <= UB_AUTO_OP_LIMIT

    violations: list[Violation] = []
    total_cost = 0
    max_cost = 0
    max_cost_over_lgw = 0.0
    amort_cost = 0.0
    amort_denominator = 0.0
    rows = 0

    csv_fh = open(config.csv_path, "w", newline="", encoding="ascii") if config.csv_path else None
    writer = csv.writer(csv_fh) if csv_fh else None
    if writer:
        writer.writerow(["i", "op", "key", "cost", "layer", "w", "ub", "bound"])

    divergence = None
    try:
        for i, op in enumerate(trace):
            w_pre = tracker.ws.working_set_number(op.key)
            ub_pre = tracker.unified_bound(op.key) if (emit_ub and tracker.sorted_keys) else None
            cost, layer = driver.apply(op)
            hit = layer is not None
            if op.kind == SEARCH:
                if hit:
                    tracker.record_access(op.key)
            elif op.kind == INSERT:
                tracker.record_insert(op.key)
            else:
                tracker.record_delete(op.key)

            n_now = max(driver.size(), 1)
            bound = _bound_for(config.structure, op.kind, w_pre, n_now, constants)
            total_cost += cost
            max_cost = max(max_cost, cost)
            if op.kind == SEARCH and cost:
                ratio = cost / lg(w_pre)
                max_cost_over_lgw = max(max_cost_over_lgw, ratio)
                amort_cost += cost
                if ub_pre is not None:
                    amort_denominator += ub_pre + math.log2(math.log2(n_now + 2)) + 1
            rows += 1
            if writer:
                writer.writerow([
                    i, op.kind, op.key, cost,
                    layer if hit else "",
                    w_pre,
                    f"{ub_pre:.6f}" if ub_pre is not None else "",
                    f"{bound:.4f}" if bound is not None else "",
                ])
            if (i + 1) % config.compare_every == 0:
                driver.compare()
            if (i + 1) % config.verify_every == 0:
                violations.extend(driver.verify())
        driver.compare()
        violations.extend(driver.verify())
    except DivergenceError as exc:
        divergence = str(exc)
    finally:
        if csv_fh:
            csv_fh.close()

    summary = {
        "ops": rows,
        "max_cost": max_cost,
        "mean_cost": (total_cost / rows) if rows else 0.0,
        "max_cost_over_lgw": max_cost_over_lgw,
        "amortized_ratio": (amort_cost / amort_denominator) if amort_denominator else None,
        "violations": len(violations) + (1 if divergence else 0),
        "structure": config.structure,
    }
    if divergence:
        summary["divergence"] = divergence
    final_layers = driver.final_layers()
    if final_layers is not None:
        summary["final_layers"] = final_layers
    if config.json_path:
        with open(config.json_path, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    exit_code = 0 if summary["violations"] == 0 else 1
    return RunResult(exit_code, summary, violations)


def _peak_keys(trace) -> int:
    live = 0
    peak = 0
    for op in trace:
        if op.kind == INSERT:
            live += 1
            peak = max(peak, live)
        elif op.kind == DELETE:
            live -= 1
    return peak


def _bound_for(structure: str, kind: str, w_pre: int, n: int, constants: dict):
    if structure in ("lws", "redblack_baseline"):
        if kind == SEARCH:
            return constants["search_per_lgw"] * lg(w_pre)
        return constants["update_per_lgn"] * math.log2(n + 2)
    if structure == "skip_splay":
        return constants["skip_per_lgn"] * math.log2(n + 2)
    if structure == "skip_splay_doubled":
        return (constants["skip_doubled_factor"]
                * (math.log2(math.log2(n + 2)) + 1) * lg(w_pre)
                + constants["skip_doubled_additive"])
    return None


# -- lockstep verification ---------------------------------------------------------

@dataclass
class LockstepStats:
    ops: int = 0
    searches: int = 0
    hits: int = 0
    max_cost: int = 0
    total_cost: int = 0
    hit_rows: list = field(default_factory=list)   # (index, key, layer, cost, w_pre)
    update_rows: list = field(default_factory=list)  # (index, kind, cost, n)
    violations: list = field(default_factory=list)
    checked_states: int = 0
    structural_seconds: float = 0.0
    wall_seconds: float = 0.0


def lockstep_replay(trace, structural_every: int = 1,
                    track_working_set: bool = True) -> LockstepStats:
    """Run one trace on a layered tree and the reference structure in
    lockstep, checking after every operation that per-layer key sets,
    recency orders, and boundary next-layer keys agree exactly, and
    running the structural invariant suite every ``structural_every``
    operations (plus once at the end).

    Raises DivergenceError on the first state mismatch; structural
    violations are collected in the returned stats.
    """
    from time import perf_counter

    from .reference import WorkingSetTracker

    tree = LayeredTree()
    ref = ReferenceStructure()
    nodes: dict[int, Node] = {}
    stats = LockstepStats()
    tracker = WorkingSetTracker() if track_working_set else None
    t_start = perf_counter()

    for i, op in enumerate(trace):
        key = op.key
        w_pre = tracker.working_set_number(key) if tracker is not None else None
        eng = tree.engine
        before = eng.visits
        if op.kind == SEARCH:
            layer = tree.search(key)
            ref_layer = ref.search(key)
            if layer != ref_layer:
                raise DivergenceError(
                    f"op {i}: search {key} hit layer {layer}, reference level {ref_layer}")
            cost = eng.visits - before
            stats.searches += 1
            if layer is not None:
                stats.hits += 1
                stats.hit_rows.append((i, key, layer, cost, w_pre))
                if tracker is not None:
                    tracker.record_access(key)
        elif op.kind == INSERT:
            tree.insert(key)
            ref.insert(key)
            cost = eng.visits - before
            node = eng.root
            while node.key != key:
                node = node.left if key < node.key else node.right
            nodes[key] = node
            stats.update_rows.append((i, "I", cost, tree.size))
            if tracker is not None:
                tracker.record_insert(key)
        else:
            tree.delete(key)
            ref.delete(key)
            cost = eng.visits - before
            del nodes[key]
            stats.update_rows.append((i, "D", cost, tree.size + 1))
            if tracker is not None:
                tracker.record_delete(key)
        stats.ops += 1
        stats.max_cost = max(stats.max_cost, cost)
        stats.total_cost += cost

        _compare_exact(tree, ref, nodes, i)
        stats.checked_states += 1
        if (i + 1) % structural_every == 0:
            t0 = perf_counter()
            stats.violations.extend(
                (i, v) for v in validate_tree(tree, check_queues=False))
            stats.structural_seconds += perf_counter() - t0
    t0 = perf_counter()
    stats.violations.extend(("end", v) for v in validate_tree(tree))
    stats.structural_seconds += perf_counter() - t0
    stats.wall_seconds = perf_counter() - t_start
    return stats


def _compare_exact(tree: LayeredTree, ref: ReferenceStructure,
                   nodes: dict[int, Node], i: int):
    """Exact per-layer membership + recency order + queue-link comparison.

    The reference queues are the expected orders; every key's node must
    carry the right layer label and link to exactly its queue neighbours,
    which pins both directions of every chain.  Boundary next-layer keys
    must name the neighbours' queue ends.
    """
    queues = ref.level_queues
    if tree.layer_count != len(queues):
        raise DivergenceError(
            f"op {i}: tree has {tree.layer_count} layers, reference {len(queues)}")
    total = 0
    for j, q in enumerate(queues, start=1):
        prev_key = None
        last = len(q) - 1
        for idx, key in enumerate(q):
            node = nodes.get(key)
            if node is None:
                raise DivergenceError(f"op {i}: layer {j} key {key} missing from the tree")
            if node.layer != j:
                raise DivergenceError(
                    f"op {i}: layer {j} diverged: key {key} is labeled {node.layer}")
            if node.younger != prev_key:
                raise DivergenceError(
                    f"op {i}: layer {j} recency order diverged at key {key} "
                    f"(younger={node.younger}, expected {prev_key})")
            if idx == last and node.older is not None:
                raise DivergenceError(
                    f"op {i}: layer {j} oldest {key} still points older={node.older}")
            if 0 < idx < last and node.next_layer is not None:
                raise DivergenceError(
                    f"op {i}: layer {j} interior key {key} carries next-layer {node.next_layer}")
            prev_key = key
        total += len(q)
        if not q:
            raise DivergenceError(f"op {i}: reference level {j} empty")
        below = queues[j] if j < len(queues) else []
        want_young = below[0] if below else None
        want_old = below[-1] if below else None
        youngest, oldest = nodes[q[0]], nodes[q[-1]]
        if youngest.next_layer != want_young:
            raise DivergenceError(
                f"op {i}: layer {j} youngest {q[0]} names {youngest.next_layer}, "
                f"below's youngest is {want_young}")
        if oldest.next_layer != want_old and oldest is not youngest:
            raise DivergenceError(
                f"op {i}: layer {j} oldest {q[-1]} names {oldest.next_layer}, "
                f"below's oldest is {want_old}")
    if total != tree.size:
        raise DivergenceError(
            f"op {i}: reference holds {total} keys, tree reports {tree.size}")


# -- fault injection (test support) ---------------------------------------------

def corrupt_color(tree: LayeredTree, key: int):
    node = _find(tree, key)
    node.red = not node.red


def corrupt_layer(tree: LayeredTree, key: int, new_layer: int):
    node = _find(tree, key)
    node.layer = new_layer


def corrupt_queue_swap(tree: LayeredTree, key: int):
    node = _find(tree, key)
    node.older, node.younger = node.younger, node.older


def corrupt_next_layer(tree: LayeredTree, key: int, value):
    node = _find(tree, key)
    node.next_layer = value


def corrupt_header(tree: LayeredTree, layer_count=None, last_size=None):
    header = tree.engine.root.header
    if layer_count is not None:
        header.layer_count = layer_count
    if last_size is not None:
        header.last_size = last_size


def _find(tree: LayeredTree, key: int) -> Node:
    node = tree.engine.root
    while node is not None and node.key != key:
        node = node.left if key < node.key else node.right
    assert node is not None, f"corruption target {key} missing"
    return node
