import gc
import hashlib
import math
import random
import time

import pytest

from layerws import LayeredTree, SkipSplayTree
from layerws.errors import DictError, MissingKeyError
from layerws.layered_tree import capacity
from layerws.skip_splay import _ancestor_at, _aux_root_key, _band_of_height, _band_size, _height
from test_finger import (EveryBandSkipSplay, books, nodes_state, skip_plan, skip_splay_pair,
                         skip_state_reader)
from test_validate import _reaches


def perfect_tree_heights(n):
    """Brute-force node heights by building the balanced tree explicitly."""
    heights = {}

    def build(lo, hi):
        if lo > hi:
            return 0
        mid = (lo + hi) // 2
        h = 1 + max(build(lo, mid - 1), build(mid + 1, hi))
        heights[mid] = h
        return h

    build(1, n)
    return heights


@pytest.mark.parametrize("k", [2, 3, 4])
def test_height_formula_matches_enumeration(k):
    n = (1 << (1 << (k - 1))) - 1
    brute = perfect_tree_heights(n)
    for key in range(1, n + 1):
        assert _height(key) == brute[key]


def test_band_and_aux_sizes_k3():
    s = SkipSplayTree(3)
    assert s.n == 15
    assign = s.aux_assignment()
    top = sorted(k for k, r in assign.items() if r == 8)
    assert top == [4, 8, 12]
    by_aux = {}
    for key, root in assign.items():
        by_aux.setdefault(root, []).append(key)
    sizes = sorted(len(v) for v in by_aux.values())
    assert sizes == [1] * 12 + [3]  # twelve singletons plus the top band


def test_aux_sizes_k4():
    s = SkipSplayTree(4)
    assert s.n == 255
    by_aux = {}
    for key, root in s.aux_assignment().items():
        by_aux.setdefault(root, []).append(key)
    top = by_aux[128]
    assert len(top) == 15  # 2**(8-4) - 1
    counts = {}
    for members in by_aux.values():
        counts[len(members)] = counts.get(len(members), 0) + 1
    assert counts == {15: 1, 3: 16, 1: 192}


def test_build_k2_path_of_singletons():
    s = SkipSplayTree(2)
    assert s.n == 3
    by_aux = {}
    for key, root in s.aux_assignment().items():
        by_aux.setdefault(root, []).append(key)
    assert sorted(len(v) for v in by_aux.values()) == [1, 1, 1]
    assert not s.validate()


def test_parameter_range():
    with pytest.raises(ValueError):
        SkipSplayTree(1)
    with pytest.raises(ValueError):
        SkipSplayTree(6)


def test_updates_rejected():
    s = SkipSplayTree(2)
    with pytest.raises(DictError):
        s.insert(9)
    with pytest.raises(DictError):
        s.delete(1)
    with pytest.raises(MissingKeyError):
        s.access(99)


def test_access_returns_positive_cost_and_keeps_bst():
    s = SkipSplayTree(3)
    rng = random.Random(4)
    for _ in range(300):
        cost = s.access(rng.randint(1, s.n))
        assert cost > 0
    assert not s.validate()


def test_every_access_preserves_all_band_invariants():
    s = SkipSplayTree(3)
    rng = random.Random(8)
    for i in range(150):
        s.access(rng.randint(1, s.n))
        found = s.validate()
        assert not found, (i, [str(v) for v in found[:4]])


def test_aux_membership_never_changes():
    s = SkipSplayTree(3)
    before = s.aux_assignment()
    rng = random.Random(1)
    for _ in range(500):
        s.access(rng.randint(1, s.n))
    assert s.aux_assignment() == before
    assert not s.validate()


def test_repeated_access_reaches_band_linear_cost():
    # one access can re-hang a band under its other boundary element, so the
    # second access may still pay one cold search; from the third access on
    # the whole chain is warm and the cost is linear in the band count
    s = SkipSplayTree(4)
    rng = random.Random(17)
    for _ in range(50):
        x = rng.randint(1, s.n)
        first = s.access(x)
        s.access(x)
        third = s.access(x)
        assert third <= first or third <= 18 * s.k
        assert third <= 18 * s.k


def test_worst_case_stays_logarithmic():
    for k in (2, 3, 4):
        s = SkipSplayTree(k)
        rng = random.Random(k)
        worst = 0
        for _ in range(2000):
            worst = max(worst, s.access(rng.randint(1, s.n)))
        assert worst <= 30 * math.log2(s.n + 2), (k, worst)


def test_doubled_access_is_exactly_two_accesses():
    s = SkipSplayTree(3)
    rng = random.Random(2)
    for _ in range(100):
        x = rng.randint(1, s.n)
        before = s.engine.visits
        pair = s.access_doubled(x)
        assert pair == s.engine.visits - before
        assert pair > 0


def test_doubled_access_plateau():
    s = SkipSplayTree(4)
    s.access_doubled(200)
    costs = [s.access_doubled(200) for _ in range(10)]
    assert max(costs) == min(costs)  # steady state
    assert max(costs) <= 20 * s.k


def test_ancestor_helper():
    assert _ancestor_at(1, 2) == 2
    assert _ancestor_at(3, 2) == 2
    assert _ancestor_at(5, 4) == 8
    assert _band_of_height(1) == 0
    assert _band_of_height(2) == 1
    assert _band_of_height(3) == 2
    assert _band_of_height(4) == 2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_validate_reports_a_broken_aux_queue(k):
    """A corrupted auxiliary queue is a violation, not an exception.  One
    node's older and younger links are swapped; for k = 2 every auxiliary
    tree holds one key, where a swap changes nothing, so the root is made
    its own younger neighbour instead."""
    s = SkipSplayTree(k)
    rng = random.Random(k)
    for _ in range(50):
        s.access(rng.randint(1, s.n))
    assert s.validate() == []
    node = next((n for n in s.engine.iter_nodes() if n.older != n.younger), s.engine.root)
    if node.older != node.younger:
        node.older, node.younger = node.younger, node.older
    else:
        node.younger = node.key
    found = s.validate()
    assert any(v.kind == "queue-chain" for v in found), [str(v) for v in found]


def test_validate_reports_order_before_membership():
    """One walk finds both faults of a key moved out of the universe; the
    order fault comes first, as when each had a walk of its own."""
    s = SkipSplayTree(3)
    next(n for n in s.engine.iter_nodes() if n.key == s.n).key = 0
    assert [str(v) for v in s.validate()] == [
        f"bst-order[0]: key 0 out of order after {s.n - 1}",
        "aux-membership[0]: key outside every aux"]


@pytest.mark.parametrize("side", ["left", "right"])
def test_validate_reports_a_child_link_cycle(side):
    """An outer key's free child link pointed at the root closes a cycle;
    the walk stops after more nodes than the universe holds and reports
    one depth-bound violation instead of walking forever."""
    s = SkipSplayTree(3)
    root = s.engine.root
    setattr(s.engine.lookup(1 if side == "left" else s.n), side, root)
    start = time.perf_counter()
    found = s.validate()
    assert time.perf_counter() - start < 1.0
    assert [(v.kind, v.witness) for v in found] == [("depth-bound", root.key)]


@pytest.mark.parametrize("k,key,band", [(3, 2, 0), (4, 2, 0), (4, 4, 1)])
def test_validate_reports_a_key_labelled_in_another_band(k, key, band):
    """A key relabelled with the first label of another band has left its
    aux tree's label range: an aux-membership violation."""
    s = SkipSplayTree(k)
    s.engine.lookup(key).layer = s.bands[band].base + 1
    found = s.validate()
    assert any(v.kind == "aux-membership" for v in found), [str(v) for v in found]


def test_validate_reports_a_root_that_names_a_parent():
    """A root whose parent link names its own child registers no subtree
    root for the top aux tree, so only a check of the root's link sees it."""
    s = SkipSplayTree(3)
    root = s.engine.root
    root.parent = root.left
    assert [(v.kind, v.witness) for v in s.validate()] == [("parent-link", root.key)]


def _plant_one(rng, nodes):
    """One random field corruption: a label one off, two labels or two keys
    swapped, a colour flipped, a parent or child link, or a queue field.
    Returns the undo log.  A child link never closes a cycle, which gets one
    depth-bound violation (``test_validate_reports_a_child_link_cycle``)."""
    n, other = rng.choice(nodes), rng.choice(nodes)
    kind = rng.choice(("label", "label-swap", "red", "key-swap", "parent", "child", "queue"))
    if kind == "label":
        changes = [(n, "layer", n.layer + rng.choice((-1, 1)))]
    elif kind == "label-swap":
        changes = [(n, "layer", other.layer), (other, "layer", n.layer)]
    elif kind == "red":
        changes = [(n, "red", not n.red)]
    elif kind == "key-swap":
        changes = [(n, "key", other.key), (other, "key", n.key)]
    elif kind == "parent":
        changes = [(n, "parent", rng.choice((None, other)))]
    elif kind == "child":
        new = None if _reaches(other, n) or rng.random() < 0.3 else other
        changes = [(n, rng.choice(("left", "right")), new)]
    else:
        changes = [(n, rng.choice(("older", "younger", "next_layer")), rng.choice((None, other.key)))]
    undo = [(obj, field, getattr(obj, field)) for obj, field, _ in changes]
    for obj, field, value in changes:
        setattr(obj, field, value)
    return undo


@pytest.mark.parametrize("k", [3, 4])
def test_validate_reports_every_planted_fault_that_changes_the_tree(k):
    """Between random accesses, one random field corruption at a time: the
    validator must report every one that changed a node field or the root."""
    s = SkipSplayTree(k)
    rng = random.Random(k)
    nodes = list(s.engine.iter_nodes())
    changed = 0
    for i in range(500):
        for _ in range(3):
            s.access(rng.randint(1, s.n))
        before = nodes_state(s.engine, cursor=False)
        undo = _plant_one(rng, nodes)
        if nodes_state(s.engine, cursor=False) != before:
            changed += 1
            assert s.validate(), (i, undo)
        for obj, field, old in reversed(undo):
            setattr(obj, field, old)
    assert changed > 300
    assert not s.validate()


# -- which band machines an access enters -------------------------------------


# after how many accesses of a key in a row its next access enters no band
# machine: each band above the key's own hangs the band below from one of
# the two keys bracketing it, and lifting that key into the first layer can
# re-hang it under the other; the third access then re-fronts inside the
# first layer at most, which moves no link
WARM_AFTER = {3: 1, 4: 3, 5: 3}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_a_warm_key_enters_no_band_machine(k, monkeypatch):
    s = SkipSplayTree(k)
    entered = []  # one key per band machine entered
    original = LayeredTree.search

    def counted(self, key, fresh=True):
        entered.append(key)
        return original(self, key, fresh)

    monkeypatch.setattr(LayeredTree, "search", counted)
    keys = list(range(1, s.n + 1))
    random.Random(k).shuffle(keys)
    last_entering = 0  # the latest access of a run that entered a band machine
    for x in keys[:600]:
        for i in range(1, WARM_AFTER[k] + 3):
            entered.clear()
            s.access(x)
            if entered:
                last_entering = max(last_entering, i)
    assert last_entering == WARM_AFTER[k]


@pytest.mark.parametrize("k,count", [(3, 600), (4, 1500)])
@pytest.mark.parametrize("family", ["repeat_block", "uniform"])
def test_a_passed_band_search_is_one_that_changes_nothing(k, count, family, monkeypatch):
    """Against a twin that enters every band machine on the root path, each
    band search the access passes over is one where the twin's search paid
    no visit and left every node field, the root and the books as they were."""
    tree, twin = skip_splay_pair(k, LayeredTree)
    twin_state = skip_state_reader(twin, cursor=False)
    entered, twin_entered = [], []  # keys; (key, visits, state moved) on the twin
    original = LayeredTree.search

    def logged(self, key, fresh=True):
        if self.engine is tree.engine:
            entered.append(key)
            return original(self, key, fresh)
        before = self.engine.visits, twin_state()
        layer = original(self, key, fresh)
        twin_entered.append((key, self.engine.visits - before[0], twin_state() != before[1]))
        return layer

    monkeypatch.setattr(LayeredTree, "search", logged)
    plan = skip_plan(family, tree.n, count, random.Random(3 * k + len(family)))
    passed = paid = 0
    for x in plan:
        for _ in range(2):
            entered.clear()
            twin_entered.clear()
            assert tree.access(x) == twin.access(x)
            # the keys entered, in order, are the twin's minus those passed over
            assert entered == [key for key, _, _ in twin_entered if key in entered]
            for key, visits, moved in twin_entered:
                if key not in entered:
                    assert (visits, moved) == (0, False), (x, key)
                    passed += 1
                else:
                    paid += visits > 0
    assert passed and paid
    assert skip_state_reader(tree, cursor=False)() == twin_state()


# -- band machines against one layered tree per auxiliary tree ------------------


def layers_after_inserts(m):
    t, total = 1, capacity(1)
    while m > total:
        t += 1
        total += capacity(t)
    return t


class InsertBuiltSkipSplay(EveryBandSkipSplay):
    """The construction the band machines replace: one LayeredTree on an
    engine of its own per auxiliary tree, filled by inserting its members in
    ascending order, hung into its parent's boundary slot by a descent, and
    then moved onto the shared engine.  An access searches each auxiliary
    tree on its root path with that tree's own books, its pair of layer-1
    ends among them."""

    def _build(self):
        groups = {}
        for key in range(1, self.n + 1):
            groups.setdefault(_aux_root_key(key), []).append(key)
        base_of_band, base = {}, 0
        for band in range(self.k - 1, -1, -1):
            base_of_band[band] = base
            base += layers_after_inserts(_band_size(band))
        self.auxes = {}
        for root_key, members in groups.items():
            tree = LayeredTree(base=base_of_band[aux_band(root_key)])
            for key in members:
                tree.insert(key)
            self.auxes[root_key] = tree
        for root_key, tree in sorted(self.auxes.items(), key=lambda kv: -aux_band(kv[0])):
            if aux_band(root_key) == self.k - 1:
                continue
            parent = self.auxes[_aux_root_key(_ancestor_at(root_key, _height(root_key) + 1))]
            slot, child = parent.engine.root, tree.engine.root
            while True:
                nxt = slot.left if child.key < slot.key else slot.right
                if nxt is None:
                    break
                slot = nxt
            if child.key < slot.key:
                slot.left = child
            else:
                slot.right = child
            child.parent = slot
        self.engine.root = self.auxes[(self.n + 1) >> 1].engine.root
        for tree in self.auxes.values():
            tree.engine = self.engine
        self.aux_of = {key: self.auxes[root] for root, keys in groups.items() for key in keys}

    def machine(self, key):
        return self.aux_of[key]

    def _band_search(self, band, key):
        return self.aux_of[key].search(key, fresh=False)


def aux_band(root_key):
    return _band_of_height(_height(root_key))


def aux_books(tree, root_key):
    """The books of the aux tree rooted at ``root_key``: its band machine's
    size record and the aux tree's own pair of layer-1 ends, which is its
    one key in bands 0 and 1."""
    band = aux_band(root_key)
    pairs, i = tree.aux_ends[band], root_key >> (1 << band)
    pair = (root_key, root_key) if pairs is None else (pairs[0][i], pairs[1][i])
    return dict(tree.bands[band].sizes), pair


def assert_same_as_per_aux(tree, ref, where):
    """Links, colours, labels, queue fields, root and cursor node for node,
    and each aux tree's books equal to those of its own layered tree."""
    assert nodes_state(tree.engine) == nodes_state(ref.engine), where
    for root_key, aux in ref.auxes.items():
        assert aux_books(tree, root_key) == books(aux), (where, root_key)


@pytest.mark.parametrize("k", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_band_build_equals_per_aux_inserts(k):
    tree, ref = SkipSplayTree(k), InsertBuiltSkipSplay(k)
    # band b holds one aux tree per key of height 2^b: 53 505 in all at k = 5
    assert len(tree.bands) == k
    assert len(ref.auxes) == sum(1 << ((1 << (k - 1)) - (1 << b)) for b in range(k))
    assert_same_as_per_aux(tree, ref, "after the build")


def test_k5_build_digest():
    """The k = 5 build node for node, as the per-aux inserts build it (the
    ``slow`` case above): a sha256 of every node's key, colour, label,
    parent, child and queue fields, the root and the cursor."""
    state = repr(nodes_state(SkipSplayTree(5).engine)).encode()
    assert hashlib.sha256(state).hexdigest() == (
        "0dc78736572069329a686d97b2e0a5f5b73390d2a287c039cfd9207cd4a78c43")


@pytest.mark.parametrize("k,count", [(2, 200), (3, 600), (4, 1500),
                                     pytest.param(5, 4000, marks=pytest.mark.slow)])
@pytest.mark.parametrize("family", ["repeat_block", "uniform"])
def test_band_machines_replay_like_per_aux_trees(k, count, family):
    """Doubled accesses cost the same on both builds, access by access, and
    leave the same state; at k = 5, where a state read walks 65 535 nodes,
    the state is compared every 500 keys."""
    tree, ref = SkipSplayTree(k), InsertBuiltSkipSplay(k)
    plan = skip_plan(family, tree.n, count, random.Random(7 * k + len(family)))
    every = 1 if k < 5 else 500
    for i, x in enumerate(plan):
        for _ in range(2):
            assert tree.access(x) == ref.access(x), (i, x)
        if i % every == every - 1:
            assert_same_as_per_aux(tree, ref, i)
    assert_same_as_per_aux(tree, ref, "at the end")
    assert tree.engine.visits == ref.engine.visits
    assert not tree.validate()


@pytest.mark.parametrize("collecting", [True, False])
def test_build_leaves_the_collector_as_it_found_it(collecting):
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        SkipSplayTree(3)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_a_failed_build_still_restores_the_collector(monkeypatch):
    def broken(self):
        assert not gc.isenabled(), "the build runs with the collector paused"
        raise RuntimeError("build failed")

    monkeypatch.setattr(SkipSplayTree, "_build", broken)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="build failed"):
        SkipSplayTree(3)
    assert gc.isenabled()
