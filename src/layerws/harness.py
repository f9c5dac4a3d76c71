"""Trace-driven runner: execute, verify, compare, and report.

``run`` is the one runner.  It runs a trace against one structure, keeps
working-set and unified-bound trackers in step, writes one CSV row per
operation plus a JSON summary, and validates every invariant on a
configurable cadence.  Its replay loop, ``cost_rows``, also serves every
other place that costs a trace operation by operation.

Layered-tree runs execute the reference structure as a shadow and compare
the two with ``compare_layers`` after every operation, stopping at the
first divergence.  The comparator pins every queue field of every key
(label, both recency links, and the next-layer key), so the cadence
validator skips its own queue pass (``check_queues=False``); one full
sweep with the queue pass ends every run.  Violations and divergences are
reported with the index of the operation after which they were found, or
``end`` for the final sweep.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice

from .baseline import RedBlackBaseline
from .constants import load_constants
from .engine import Node, nodes_in_order
from .errors import DivergenceError, IncompatibleTraceError
from .layered_tree import LayeredTree
from .reference import ReferenceStructure, UnifiedBoundTracker, level_capacity, lg
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
    # (operation index, or "end" for the final sweep, Violation)
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
    root = tree.engine.root
    for node in nodes_in_order(root, len(tree)):
        if node is None:
            return [Violation("depth-bound", root.key, f"the walk from the root reached more "
                              f"than {len(tree)} nodes (a cycle of child links?)")]
        if prev is not None and node.key <= prev:
            out.append(Violation("bst-order", node.key, "keys out of order"))
        prev = node.key
    if root is not None:
        check_red_black(root, out)
    return out


def _verify_reference(ref: ReferenceStructure) -> list[Violation]:
    """Every queued key maps to its own level, the map holds as many keys
    as the queues do, and each level holds its scheduled number of keys."""
    out: list[Violation] = []
    t = ref.levels
    get = ref.level_of.get
    queued = 0
    for j, q in enumerate(ref.level_queues, start=1):
        got = len(q)
        queued += got
        if list(map(get, q)).count(j) != got:
            out.append(Violation("queue-chain", j, f"a key queued on level {j} maps elsewhere"))
        if j < t and got != level_capacity(j):
            out.append(Violation("layer-size", j, f"level {j} holds {got}"))
        if j == t and not 1 <= got <= level_capacity(j):
            out.append(Violation("layer-size", j, f"deepest level holds {got}"))
    if queued != len(ref.level_of):
        out.append(Violation("queue-chain", t,
                             f"queues hold {queued} keys, the level map {len(ref.level_of)}"))
    return out


def compare_layers(tree: LayeredTree, ref: ReferenceStructure,
                   nodes: dict[int, Node]):
    """Raise DivergenceError naming the first layer whose members, recency
    order or next-layer keys differ from the reference.

    ``nodes`` maps each key the tree holds to its node.  Every reference
    queue is checked key by key: the key's node holds the key and carries
    the queue's label, its younger link names the previous key and its
    older link the next, and an interior key names no next-layer key.  The
    queue's youngest names the youngest key of the layer below and its
    oldest the oldest key below (a lone member names the youngest below).
    The tree's books must equal the reference's level lengths, and the key
    map must hold as many keys, so this pins every layer's members, order
    and boundary links.  Last, the pair of layer-1 ends the tree keeps with
    its books must name the reference's oldest and youngest of level 1.
    Snapshots are built only to word the error.
    """
    queues = ref.level_queues
    t = len(queues)
    levels = {j: len(q) for j, q in enumerate(queues, start=1)}
    if tree.sizes != levels:
        raise DivergenceError(f"tree's books say {tree.sizes}, reference levels hold {levels}")
    get = nodes.get
    for j, q in enumerate(queues, start=1):
        younger = None
        for key, older in zip(q, chain(islice(q, 1, None), (None,))):
            node = get(key)
            if (node is None or node.key != key or node.layer != j
                    or node.younger != younger or node.older != older
                    or node.next_layer is not None and younger is not None
                    and older is not None):
                raise _key_divergence(tree, ref, j, key, node, younger, older)
            younger = key
        if not q:
            continue
        below = queues[j] if j < t and queues[j] else [None]
        # a lone member is its queue's youngest, so the second entry wins
        for key, want in {q[-1]: below[-1], q[0]: below[0]}.items():
            if nodes[key].next_layer != want:
                raise _divergence(
                    tree, ref, j,
                    f"key {key}, naming next-layer {nodes[key].next_layer} (expected {want})")
    total = sum(levels.values())
    if total != len(nodes):
        raise DivergenceError(f"reference holds {total} keys, tree maps {len(nodes)}")
    old, young = tree.ends
    kept = old[1], young[1]
    first = queues[0] if queues else ()
    want = (first[-1], first[0]) if first else (None, None)
    if kept != want:
        raise DivergenceError(f"tree's books keep layer 1's ends as {kept}, "
                              f"the reference's oldest and youngest are {want}")


def _key_divergence(tree: LayeredTree, ref: ReferenceStructure, j: int, key: int,
                    node: Node | None, younger, older) -> DivergenceError:
    if node is None or node.key != key:
        return _divergence(tree, ref, j, f"key {key}, missing from the tree")
    if node.layer != j or node.younger != younger or node.older != older:
        return _divergence(
            tree, ref, j,
            f"key {key}, labeled {node.layer} with younger={node.younger} "
            f"older={node.older} (expected younger={younger} older={older})")
    return _divergence(
        tree, ref, j, f"key {key}, naming next-layer {node.next_layer} (expected None)")


def _divergence(tree: LayeredTree, ref: ReferenceStructure, j: int,
                where: str) -> DivergenceError:
    want = ref.snapshot().get(j, [])
    try:
        held = tree.layer_snapshot().get(j, [])[:10]
    except AssertionError as exc:
        held = f"a broken queue ({exc})"
    return DivergenceError(
        f"layer {j} diverged at {where}: tree holds {held}, reference holds {want[:10]}")


def cost_rows(d, trace, tracker):
    """Replay ``trace`` on the dictionary ``d`` and yield one row per
    operation: (op, cost, layer, w).

    ``cost`` is the operation's cursor visits on ``d.engine`` (0 when that
    is None), ``layer`` what a search returned (None for updates) and ``w``
    the key's working-set number before the operation.  ``tracker``, a
    working-set or unified-bound tracker, records a search hit or an
    update when the consumer asks for the next row, so between rows it
    still reads as before the row's operation.
    """
    eng = d.engine
    for op in trace:
        key = op.key
        w = tracker.working_set_number(key)
        before = eng.visits if eng is not None else 0
        layer = None
        if op.kind == SEARCH:
            layer = d.search(key)
        elif op.kind == INSERT:
            d.insert(key)
        else:
            d.delete(key)
        yield op, (eng.visits - before if eng is not None else 0), layer, w
        if op.kind == SEARCH:
            if layer is not None:
                tracker.record_access(key)
        elif op.kind == INSERT:
            tracker.record_insert(key)
        else:
            tracker.record_delete(key)


class _DictDriver:
    """Any dictionary with ``search``/``insert``/``delete``/``len``, wrapped
    as one that ``cost_rows`` can replay.

    A layered tree runs the reference structure as its shadow, keeps a
    key -> node map for the comparator, and is compared after every
    operation.
    """

    def __init__(self, structure: str):
        kind = {"lws": LayeredTree, "ws_reference": ReferenceStructure,
                "redblack_baseline": RedBlackBaseline}[structure]
        self.d = kind()
        self.engine = getattr(self.d, "engine", None)
        self.shadow = ReferenceStructure() if kind is LayeredTree else None
        self.nodes: dict[int, Node] = {}

    def search(self, key):
        layer = self.d.search(key)
        if self.shadow is not None:
            ref_layer = self.shadow.search(key)
            if layer != ref_layer:
                raise DivergenceError(
                    f"search {key}: tree found layer {layer}, reference level {ref_layer}")
        return layer

    def insert(self, key):
        self.d.insert(key)
        if self.shadow is not None:
            self.shadow.insert(key)
            self.nodes[key] = self.engine.lookup(key)  # not charged to the engine

    def delete(self, key):
        self.d.delete(key)
        if self.shadow is not None:
            self.shadow.delete(key)
            del self.nodes[key]

    def compare(self):
        if self.shadow is not None:
            compare_layers(self.d, self.shadow, self.nodes)

    def size(self):
        return len(self.d)

    def verify(self, final: bool):
        if self.shadow is None:
            return verify_structure(self.d)
        # the comparator pins every queue field, so only the final sweep
        # repeats the validator's queue pass
        return validate_tree(self.d, check_queues=final) + _verify_reference(self.shadow)

    def final_layers(self):
        if isinstance(self.d, RedBlackBaseline):
            return None
        try:
            snapshot = (self.d.layer_snapshot() if self.shadow is not None
                        else self.d.snapshot())
        except AssertionError:
            return None  # a broken queue has no order to report
        return {str(j): order for j, order in sorted(snapshot.items())}


class _SkipDriver:
    def __init__(self, max_key: int, doubled: bool):
        k = 2
        while ((1 << (1 << (k - 1))) - 1) < max_key:
            k += 1
            if k > 5:
                raise IncompatibleTraceError(
                    f"key {max_key} exceeds the largest supported universe")
        self.tree = SkipSplayTree(k)
        self.engine = self.tree.engine
        self.access = self.tree.access_doubled if doubled else self.tree.access

    def search(self, key):
        self.access(key)
        return self.tree.aux_depth(key)

    def compare(self):
        pass

    def size(self):
        return self.tree.n

    def verify(self, final: bool):
        return self.tree.validate()

    def final_layers(self):
        return None


def _make_driver(structure: str, trace: list[TraceOp]):
    if structure not in ("skip_splay", "skip_splay_doubled"):
        return _DictDriver(structure)
    bad = sorted({op.kind for op in trace} - {SEARCH})
    if bad:
        raise IncompatibleTraceError(
            f"skip-splay trace may only search; found {bad}")
    max_key = max((op.key for op in trace), default=1)
    if min((op.key for op in trace), default=1) < 1:
        raise IncompatibleTraceError("skip-splay keys start at 1")
    return _SkipDriver(max_key, doubled=structure == "skip_splay_doubled")


def run(config: RunConfig) -> RunResult:
    trace = config.trace if config.trace is not None else generate(config.gen)
    driver = _make_driver(config.structure, trace)

    constants = load_constants()
    is_skip = isinstance(driver, _SkipDriver)
    tracker = UnifiedBoundTracker(range(1, driver.size() + 1) if is_skip else ())
    emit_ub = (driver.size() if is_skip else _peak_keys(trace)) <= UB_AUTO_KEY_LIMIT \
        or len(trace) <= UB_AUTO_OP_LIMIT

    violations: list[tuple[int | str, Violation]] = []
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
    at: int | str = 0  # the operation in progress, or "end" for the final sweep
    try:
        for op, cost, layer, w_pre in cost_rows(driver, trace, tracker):
            # the tracker records the operation only when the next row is
            # asked for; an update's bound is only ever reported in its CSV row
            ub_pre = (tracker.unified_bound(op.key)
                      if emit_ub and tracker.sorted_keys and (writer or op.kind == SEARCH)
                      else None)
            n_now = max(driver.size(), 1)
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
                bound = _bound_for(config.structure, op.kind, w_pre, n_now, constants)
                writer.writerow([
                    at, op.kind, op.key, cost,
                    layer if layer is not None else "",
                    w_pre,
                    f"{ub_pre:.6f}" if ub_pre is not None else "",
                    f"{bound:.4f}" if bound is not None else "",
                ])
            driver.compare()
            if (at + 1) % config.verify_every == 0:
                violations.extend((at, v) for v in driver.verify(final=False))
            at += 1
        at = "end"
        violations.extend((at, v) for v in driver.verify(final=True))
    except DivergenceError as exc:
        divergence = f"op {at}: {exc}"
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

