import hashlib
import inspect
import pickle
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from layerws import (CapacityError, DuplicateKeyError, LayeredTree,
                     MissingKeyError, ReferenceStructure, capacity,
                     validate_tree)
from layerws import layered_tree
from layerws.engine import Engine, Node
from layerws.errors import DivergenceError
from layerws.harness import RunConfig, compare_layers, run
from layerws.workload import TraceOp
from test_finger import tree_reader


def assert_clean(tree, context=""):
    found = validate_tree(tree)
    assert not found, f"{context}: {[str(v) for v in found][:5]}"


def layer_of(tree, key):
    return tree.engine.lookup(key).layer


# One-layer moves and queue-end lookups, each a fresh access in the tree's
# record of queue ends, which the moves keep exact.  A lone move leaves the
# size schedule off by one key, for the public operations to restore.

def move_up(tree, key):
    """Move ``key`` up one layer; it becomes the youngest there."""
    tree.engine.begin_access()
    node = tree.engine.descend_to(key)
    tree._move_up(node, node.layer - tree.base - 1)


def move_down(tree, key):
    """Move ``key`` down one layer; it becomes the youngest there."""
    tree.engine.begin_access()
    tree._move_down(tree.engine.descend_to(key))


def layer_end(tree, j, youngest):
    """The youngest (else the oldest) key of layer ``j``, by a paid walk."""
    tree.engine.begin_access()
    return tree._goto(tree.ends[youngest][j]).key


def scenario_a():
    """Insert 1..5 into an empty tree."""
    tree = LayeredTree()
    for k in (1, 2, 3, 4, 5):
        tree.insert(k)
    return tree


# -- capacities ---------------------------------------------------------------

def test_layer_capacities():
    assert capacity(1) == 4
    assert capacity(2) == 16
    assert capacity(3) == 256
    assert capacity(4) == 65536
    with pytest.raises(CapacityError):
        capacity(6)
    with pytest.raises(CapacityError):
        capacity(0)


# -- scenario A: the worked example used throughout ------------------------------

def test_scenario_a_layers():
    tree = scenario_a()
    assert tree.sizes == {1: 4, 2: 1} and tree.layer_count == 2 and len(tree) == 5
    assert tree.layer_snapshot() == {1: [5, 4, 3, 2], 2: [1]}
    assert_clean(tree)


def test_scenario_a_search_promotes():
    tree = scenario_a()
    assert tree.search(1) == 2
    assert tree.layer_snapshot() == {1: [1, 5, 4, 3], 2: [2]}
    assert_clean(tree, "after search(1)")


def test_scenario_a_miss_changes_nothing():
    tree = scenario_a()
    def state():
        return [(n.key, n.red, n.layer, n.older, n.younger,
                 None if n.parent is None else n.parent.key)
                for n in tree.engine.iter_nodes()]
    before = state()
    assert tree.search(9) is None
    assert state() == before


def test_scenario_a_search_hit_depth_matches_visits():
    tree = scenario_a()
    node = tree.engine.root
    while node.key != 1:
        node = node.left if 1 < node.key else node.right
    depth = 0
    walk = node
    while walk.parent is not None:
        walk = walk.parent
        depth += 1
    visits_before = tree.engine.visits
    tree.engine.begin_access()
    found = tree.engine.descend_to(1)
    assert found is node
    assert tree.engine.visits - visits_before == depth + 1


def test_repeat_search_is_cheap():
    tree = scenario_a()
    tree.search(5)
    before = tree.engine.visits
    assert tree.search(5) == 1
    # the key sits in the first layer and is already the recency front
    assert tree.engine.visits - before <= 12


# -- recency bookkeeping ----------------------------------------------------------

def test_youngest_oldest_single_layer():
    tree = LayeredTree()
    for k in (1, 2, 3):
        tree.insert(k)
    assert layer_end(tree, 1, youngest=True) == 3
    assert layer_end(tree, 1, youngest=False) == 1


def test_oldest_in_second_layer():
    tree = scenario_a()
    assert layer_end(tree, 2, youngest=False) == 1
    assert layer_end(tree, 2, youngest=True) == 1  # singleton deepest layer


def test_move_up_from_second_layer():
    tree = scenario_a()
    move_up(tree, 1)
    snap = tree.layer_snapshot()
    assert snap[1] == [1, 5, 4, 3, 2]  # transiently overfull, 1 youngest
    assert 2 not in snap


def test_move_down_oldest_of_first_layer():
    rng = random.Random(20)
    tree = LayeredTree()
    keys = rng.sample(range(100), 20)
    for k in keys:
        tree.insert(k)
    assert_clean(tree, "before move_down")
    before = tree.layer_snapshot()
    victim = before[1][-1]
    inorder = tree.keys()
    move_down(tree, victim)
    after = tree.layer_snapshot()
    assert after[1] == before[1][:-1]
    assert after[2][0] == victim  # youngest of the layer below
    assert tree.keys() == inorder
    found = validate_tree(tree)
    # a lone inter-layer move leaves exactly the one-off size imbalance that
    # the public operations restore; the books follow the move, and
    # structure and queues must stay clean
    assert found and all(v.kind == "layer-size" for v in found), [str(v) for v in found]


def test_interior_queue_splice():
    tree = scenario_a()
    move_up(tree, 1)  # layer 1 recency: 1,5,4,3,2
    node = tree.engine.root
    while node.key != 4:
        node = node.left if 4 < node.key else node.right
    tree._queue_remove(node, 1)
    snap_order = []
    walk = [n for n in tree.engine.iter_nodes() if n.layer == 1 and n.younger is None]
    assert len(walk) == 1
    n = walk[0]
    nodes = {m.key: m for m in tree.engine.iter_nodes()}
    while n is not None:
        snap_order.append(n.key)
        n = nodes.get(n.older) if n.older is not None else None
    assert snap_order == [1, 5, 3, 2]


@pytest.mark.parametrize("n, seed", [(300, 1), (300, 2), (600, 3), (600, 4)])
def test_search_matches_step_by_step_moves(n, seed):
    """The paper's order of steps for a hit in layer j: move the key to
    layer 1, then push the oldest of each layer 1..j-1 down one layer.
    ``search`` takes the key up in one move; replaying the move one layer
    at a time with ``move_up`` and ``move_down`` must give the same tree
    node for node, and cost no fewer visits."""
    rng = random.Random(seed)
    keys = rng.sample(range(10 * n), n)
    tree = LayeredTree()
    for k in keys:
        tree.insert(k)
    checked = 0
    for _ in range(150):
        k = rng.choice(keys)
        j = layer_of(tree, k)
        if j < 3:
            tree.search(k)
            continue
        twin = pickle.loads(pickle.dumps(tree))
        before = tree.engine.visits
        assert tree.search(k) == j
        spent = tree.engine.visits - before
        before = twin.engine.visits
        for _ in range(j - 1):
            move_up(twin, k)
        for m in range(1, j):
            move_down(twin, layer_end(twin, m, youngest=False))
        assert tree_reader(tree, cursor=False)() == tree_reader(twin, cursor=False)(), \
            f"search({k}) from layer {j}"
        assert spent <= twin.engine.visits - before
        checked += 1
    assert checked >= 50
    assert_clean(tree)


def test_goto_stays_put_on_its_key():
    tree = scenario_a()
    tree.engine.begin_access()
    node = tree._goto(1)
    before = tree.engine.visits
    assert tree._goto(1) is node and tree.engine.visits == before
    assert tree._goto(5).key == 5 and tree.engine.visits > before
    # from every node of a larger tree, a walk to its own key is free
    tree, _ = preloaded(n=120)
    eng = tree.engine
    for node in list(eng.iter_nodes()):
        eng.node = node
        before = eng.visits
        assert tree._goto(node.key) is node and eng.node is node
        assert eng.visits == before


# -- failed operations ---------------------------------------------------------------

def preloaded(n=300, seed=5):
    rng = random.Random(seed)
    keys = rng.sample(range(10 * n), n)
    tree = LayeredTree()
    for k in keys:
        tree.insert(k)
    for _ in range(n):
        tree.search(rng.choice(keys))
    return tree, keys


def test_duplicate_insert_leaves_no_trace():
    tree, keys = preloaded()
    state = tree_reader(tree, cursor=False)
    before = state()
    for k in keys[::37]:
        with pytest.raises(DuplicateKeyError):
            tree.insert(k)
        assert state() == before


def test_missing_delete_leaves_no_trace():
    tree, keys = preloaded()
    state = tree_reader(tree, cursor=False)
    before = state()
    for k in (-1, 10 * len(keys) + 1, max(keys) + 1):
        assert k not in keys
        with pytest.raises(MissingKeyError):
            tree.delete(k)
        assert state() == before


def test_full_tree_insert_leaves_no_trace(monkeypatch):
    monkeypatch.setattr(layered_tree, "MAX_LAYERS", 2)
    tree = LayeredTree()
    for k in range(0, 2 * (capacity(1) + capacity(2)), 2):
        tree.insert(k)
    assert tree.sizes == {1: capacity(1), 2: capacity(2)}
    state = tree_reader(tree, cursor=False)
    before = state()
    for k in (-1, 7, 1000):
        with pytest.raises(CapacityError):
            tree.insert(k)
        assert state() == before
    assert_clean(tree)


# Bad input to the public calls, each run under ``python -O``, which strips
# asserts: every call must still raise, and leave the tree as it was.  The
# validator's rules must still fire too: a colour flip and a parent link
# that names no parent.
BAD_INPUT = """
from layerws import LayeredTree, UnifiedBoundTracker, validate_tree
from layerws.faults import corrupt_color, corrupt_parent
assert False, "asserts are live"
tree = LayeredTree()
for k in range(1, 41):
    tree.insert(k)
before = tree.layer_snapshot()
for call in (lambda: tree.delete(999), lambda: UnifiedBoundTracker().unified_bound(5)):
    try:
        print("returned", call())
    except Exception as exc:
        print(type(exc).__name__)
print(tree.layer_snapshot() == before, len(validate_tree(tree)))
corrupt_color(tree, 10)
print(*validate_tree(tree), sep="; ")
corrupt_color(tree, 10)
corrupt_parent(tree, 10, None)
print(*validate_tree(tree), sep="; ")
"""


def test_bad_input_raises_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", BAD_INPUT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "MissingKeyError", "ValueError", "True 0",
        "rb-black-height[12]: black heights 1 vs 2 below key 12; "
        "rb-red-red[12]: red 12 has red child 10; "
        "rb-black-height[8]: black heights 2 vs 1 below key 8",
        "parent-link[10]: key 10 hangs from 12 but names parent None", ""]


def forty_with_chain(length):
    """The 40-key tree with ``length`` black layer-3 nodes hung, correctly
    parented, in a right chain below its largest key."""
    tree = LayeredTree()
    for k in range(1, 41):
        tree.insert(k)
    tail = tree.engine.root
    while tail.right is not None:
        tail = tail.right
    for k in range(41, 41 + length):
        node = Node(k, 3)
        node.parent, tail.right = tail, node
        tail = node
    return tree


def test_chain_the_walk_can_follow_keeps_its_report():
    """A 60-node chain gets the report, byte for byte, that the validator
    wrote while it checked a faulty band in a second walk (pinned then),
    less its two next-layer lines, the layer-2 ends naming no layer-3 ends,
    and with the record's line for layer 3 last: the chain's 60 keys join
    layer 3's one oldest and one youngest."""
    report = "".join(f"{v}\n" for v in validate_tree(forty_with_chain(60)))
    assert report.count("\n") == 90
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "a0c8524c4a3d7eed15b92eda18dd705d5f0bb9a7a06ea06fabf6b8ecf5649db9"


def test_chain_deeper_than_the_recursion_limit_is_reported():
    """A corrupted chain deeper than the recursion limit gets one
    depth-bound violation, not a RecursionError."""
    # the limit is lowered below the chain's length and below the depth the
    # depth rule allows
    limit = len(inspect.stack(0)) + 20
    tree = forty_with_chain(2 * limit)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        found = validate_tree(tree)
    finally:
        sys.setrecursionlimit(old_limit)
    assert [(v.kind, v.witness) for v in found] == [("depth-bound", tree.engine.root.key)]


def assert_one_depth_bound_within_a_second(tree):
    start = time.perf_counter()
    found = validate_tree(tree)
    assert time.perf_counter() - start < 1.0
    assert [(v.kind, v.witness) for v in found] == [("depth-bound", tree.engine.root.key)]


def test_child_link_cycle_is_reported():
    """Key 1's left link pointed at the root closes a cycle of child links;
    the walk ends at the recursion limit with one depth-bound violation."""
    tree = forty_with_chain(0)
    tree.engine.lookup(1).left = tree.engine.root
    assert_one_depth_bound_within_a_second(tree)


@pytest.mark.parametrize("read", ["keys", "layer_snapshot"])
def test_keys_report_a_child_link_cycle(read):
    """keys() walks at most as many nodes as the tree holds, and
    layer_snapshot() stops at the first node it reaches twice, so a cycle of
    child links raises instead of walking forever."""
    tree = forty_with_chain(0)
    tree.engine.lookup(1).left = tree.engine.root
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="cycle of child links"):
        getattr(tree, read)()
    assert time.perf_counter() - start < 1.0


def test_chain_past_the_default_recursion_limit_is_reported():
    assert_one_depth_bound_within_a_second(forty_with_chain(5000))


# -- insert ------------------------------------------------------------------------

def test_insert_into_empty():
    tree = LayeredTree()
    tree.insert(42)
    assert tree.sizes == {1: 1} and len(tree) == 1
    root = tree.engine.root
    assert root.key == 42 and root.layer == 1 and not root.red
    assert_clean(tree)


def test_fifth_insert_opens_second_layer():
    tree = scenario_a()
    assert tree.layer_count == 2
    assert tree.layer_snapshot()[2] == [1]


def test_twentyfirst_insert_opens_third_layer():
    tree = LayeredTree()
    for k in range(1, 22):
        tree.insert(k)
    snap = tree.layer_snapshot()
    assert tree.layer_count == 3
    assert snap[3] == [1]  # exactly the oldest overall
    assert_clean(tree)


def test_duplicate_insert_rejected():
    tree = scenario_a()
    with pytest.raises(DuplicateKeyError):
        tree.insert(3)


def test_insert_capacity_guard():
    tree = scenario_a()
    tree.sizes = {m: capacity(m) for m in range(1, 6)}
    with pytest.raises(CapacityError):
        tree.insert(999)


# -- delete ------------------------------------------------------------------------

def test_delete_lone_second_layer_key_drops_layer():
    tree = scenario_a()
    tree.search(1)
    visits = tree.engine.visits
    tree.delete(2)
    assert tree.layer_count == 1
    assert tree.layer_snapshot() == {1: [1, 5, 4, 3]}
    assert_clean(tree, "after delete(2)")
    assert tree.engine.visits > visits


def test_delete_sole_element():
    tree = LayeredTree()
    tree.insert(7)
    tree.delete(7)
    assert len(tree) == 0 and tree.sizes == {}
    assert tree.engine.root is None and tree.engine.node is None
    assert tree.layer_count == 0
    with pytest.raises(MissingKeyError):
        tree.delete(7)


def test_hundred_random_interleaved_ops():
    rng = random.Random(100)
    tree = LayeredTree()
    ref = ReferenceStructure()
    present = []
    for i in range(100):
        if (rng.random() < 0.6 or not present) and len(present) < 60:
            k = rng.randint(1, 99)
            while k in present:
                k = rng.randint(1, 99)
            tree.insert(k)
            ref.insert(k)
            present.append(k)
        else:
            k = present.pop(rng.randrange(len(present)))
            tree.delete(k)
            ref.delete(k)
        assert_clean(tree, f"op {i}")
        assert tree.layer_snapshot() == ref.snapshot(), f"op {i}"


# -- depth bound ----------------------------------------------------------------------

def test_depth_bound_on_dense_tree():
    tree = LayeredTree()
    for k in range(1, 300):
        tree.insert(k)
    assert tree.layer_count == 4
    limits = {}
    for node in tree.engine.iter_nodes():
        depth = 0
        walk = node
        while walk.parent is not None:
            walk = walk.parent
            depth += 1
        bound = sum(2 * (1 << j) + 2 for j in range(1, node.layer + 1))
        assert depth <= bound, (node.key, depth, bound)
        limits[node.layer] = max(limits.get(node.layer, 0), depth)
    assert_clean(tree)


# -- oracle equivalence as a property ----------------------------------------------------

@st.composite
def small_traces(draw):
    ops = []
    present = set()
    count = draw(st.integers(min_value=1, max_value=60))
    for _ in range(count):
        kind = draw(st.sampled_from("IISSSD"))
        if kind == "I" and len(present) < 40:
            key = draw(st.integers(min_value=0, max_value=80).filter(lambda k: k not in present))
            present.add(key)
            ops.append(TraceOp("I", key))
        elif kind == "D" and present:
            key = draw(st.sampled_from(sorted(present)))
            present.discard(key)
            ops.append(TraceOp("D", key))
        elif present:
            ops.append(TraceOp("S", draw(st.sampled_from(sorted(present)))))
    return ops


@settings(max_examples=60, deadline=None)
@given(small_traces())
def test_lockstep_equivalence_property(trace):
    result = run(RunConfig("lws", trace=trace, verify_every=1))
    assert "divergence" not in result.summary, result.summary["divergence"]
    assert not result.violations, [str(v) for _, v in result.violations][:5]


# -- layer-count edges ------------------------------------------------------------------

class LayerEdgeMachine(RuleBasedStateMachine):
    """Walk the key count within 3 of a layer-count edge: 4 keys (layer 2
    opens above them), 20 (layer 3) or 276 (layer 4).  Opening and closing
    a layer is where an operation's record of queue ends could go stale."""

    SPAN = 3

    @initialize(edge=st.sampled_from([4, 20, 276]), data=st.data())
    def preload(self, edge, data):
        self.edge = edge
        self.tree = LayeredTree()
        self.ref = ReferenceStructure()
        universe = data.draw(st.permutations(range(2 * edge + 8)))
        cut = max(1, edge - 1)
        self.present = set(universe[:cut])
        self.absent = set(universe[cut:])
        for key in universe[:cut]:
            self.tree.insert(key)
            self.ref.insert(key)

    @precondition(lambda self: len(self.present) < self.edge + self.SPAN)
    @rule(data=st.data())
    def insert(self, data):
        key = data.draw(st.sampled_from(sorted(self.absent)))
        self.tree.insert(key)
        self.ref.insert(key)
        self.absent.discard(key)
        self.present.add(key)

    @precondition(lambda self: len(self.present) > max(1, self.edge - self.SPAN))
    @rule(data=st.data())
    def delete(self, data):
        key = data.draw(st.sampled_from(sorted(self.present)))
        self.tree.delete(key)
        self.ref.delete(key)
        self.present.discard(key)
        self.absent.add(key)

    @rule(data=st.data(), hit=st.booleans())
    def search(self, data, hit):
        key = data.draw(st.sampled_from(sorted(self.present if hit else self.absent)))
        assert self.tree.search(key) == self.ref.search(key)

    @invariant()
    def agrees_with_reference(self):
        assert self.tree.layer_snapshot() == self.ref.snapshot()
        assert_clean(self.tree, f"{len(self.present)} keys around edge {self.edge}")


TestLayerEdges = LayerEdgeMachine.TestCase
TestLayerEdges.settings = settings(max_examples=30, stateful_step_count=40, deadline=None)


@pytest.mark.slow
def test_fifth_layer_opens_and_closes():
    """Layers 1-4 hold 65 812 keys; one more opens layer 5, and a delete
    after a search of the oldest key closes it again."""
    full = sum(capacity(m) for m in range(1, 5))
    keys = random.Random(65).sample(range(10 * full), full + 1)
    tree, ref = LayeredTree(), ReferenceStructure()

    def crossing(t, where):
        assert tree.layer_count == t and len(tree) == len(ref.level_of), where
        assert_clean(tree, where)
        assert tree.layer_snapshot() == ref.snapshot(), where

    for k in keys[:full]:
        tree.insert(k)
        ref.insert(k)
    crossing(4, f"{full} keys")
    tree.insert(keys[full])
    ref.insert(keys[full])
    assert tree.sizes == {1: 4, 2: 16, 3: 256, 4: 65536, 5: 1}
    crossing(5, "layer 5 opened")
    assert tree.search(keys[0]) == ref.search(keys[0]) == 5
    crossing(5, "oldest key searched")
    tree.delete(keys[0])
    ref.delete(keys[0])
    crossing(4, "layer 5 closed")


# -- operation-local state ----------------------------------------------------------------

def test_operations_leave_no_state_behind():
    """The model allows an operation O(log log n) words of local memory.
    A tree holds only its engine, base, books and the record of queue ends
    kept with them, and every entry of that record is part of the books:
    after an operation each is exact, and a key planted in any one of them
    is reported by the validator and by the comparator."""
    rng = random.Random(9)
    tree, ref = LayeredTree(), ReferenceStructure()
    keys = rng.sample(range(1000), 300)
    steps = [("insert", k) for k in keys]
    steps += [("search", k) for k in rng.choices(keys, k=300)]
    steps += [("delete", k) for k in keys[:150]]
    planted = 0
    for i, (kind, key) in enumerate(steps):
        assert getattr(tree, kind)(key) == getattr(ref, kind)(key)
        if i % 10:
            continue
        nodes = {n.key: n for n in tree.engine.iter_nodes()}
        assert_clean(tree, f"step {i}")
        compare_layers(tree, ref, nodes)
        for side in tree.ends:
            for m in range(1, layered_tree.MAX_LAYERS + 1):
                kept = side[m]
                side[m] = rng.choice([k for k in keys + [None] if k != kept])
                report = [str(v) for v in validate_tree(tree, check_queues=False)]
                assert len(report) == 1 and report[0].startswith(f"header[ends]: layer {m}'s "), \
                    (i, m, report)
                with pytest.raises(DivergenceError, match=f"layer {m}'s ends"):
                    compare_layers(tree, ref, nodes)
                side[m] = kept
                planted += 1
    assert planted == 2 * layered_tree.MAX_LAYERS * len(range(0, len(steps), 10))
    move_down(tree, layer_end(tree, 1, youngest=True))
    move_up(tree, layer_end(tree, 2, youngest=True))
    layer_end(tree, 3, youngest=False)
    assert vars(tree).keys() == vars(LayeredTree()).keys() == {"engine", "base", "sizes", "ends"}
    assert Engine.__slots__ == ("root", "node", "visits")
