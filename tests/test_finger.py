"""Finger cursor moves: ``_goto`` climbs only until an ancestor brackets
its target, a band search with ``fresh=False`` starts on the cursor, which
holds the key, a layer-1 hit that is already the youngest skips the
layer-1 scan, and a plain-tree operation starts from the pair of layer-1
ends the tree keeps with its books instead of scanning layer 1.

None of these may change the tree or make an operation dearer.  The
equivalence tests replay traces on a tree and on a twin that walks the
old way (``RootWalkTree``: every ``_goto`` up to the band root and down,
``_refront`` always scanning layer 1, every ``fresh=False`` search
climbing from its key to the band root and descending back to it;
``ScanTree``: every operation starting from an empty record) and compare
the two after every operation.
The skip-splay twin also enters every band machine on an access's root
path (``EveryBandSkipSplay``), as the access did before it learned to pass
over a band whose search would find the youngest of layer 1.
"""

import random

import pytest

from layerws import LayeredTree, SkipSplayTree
from layerws.layered_tree import _empty_ends
from layerws.skip_splay import _band_of_height, _height
from layerws.workload import DELETE, INSERT, GeneratorSpec, generate


def climb_to_band_root(eng, base):
    """Walk the cursor up parent links to the node heading the band of
    labels above ``base``, one visit per step, and return that node."""
    node = eng.node
    while node.parent is not None and node.parent.layer > base:
        node = node.parent
        eng.visits += 1
    eng.node = node
    return node


class RootWalkTree(LayeredTree):
    """The cursor moves every walk paid before finger search."""

    def _goto(self, key):
        eng = self.engine
        node = eng.node
        if node.key != key:
            climb_to_band_root(eng, self.base)
            node = eng.descend_to(key)
            assert node is not None
        return node

    def _refront(self, x, ends):
        y0 = self._scan_first_layer(True, ends)
        if y0 is x:
            return
        y0_next = y0.next_layer
        self._queue_remove(x, 1, ends)
        x.older = y0.key
        x.younger = None
        x.next_layer = y0_next
        y0.younger = x.key
        if y0.older is not None:
            y0.next_layer = None
        ends[1][1] = x.key

    def search(self, key, fresh=True):
        eng = self.engine
        if fresh:
            eng.begin_access()
            ends = self._record()
        else:
            climb_to_band_root(eng, self.base)
            ends = _empty_ends()
        node = eng.descend_to(key)
        if node is None:
            return None
        j = node.layer - self.base
        if j == 1:
            self._refront(node, ends)
        else:
            self._move_up(node, 1, ends)
            self._push_down(j, ends)
        return j


class ScanTree(LayeredTree):
    """Keeps no pair of layer-1 ends: every operation starts from an empty
    record and scans layer 1 for the first end it needs."""

    def _record(self):
        return _empty_ends()


def nodes_state(engine, cursor=True):
    """Every node's key, colour, label, links and queue fields, the root
    and (with ``cursor``) the cursor: all an engine holds apart from its
    visit counter."""
    # ``a and a.key`` reads None for a missing link: nodes are always true
    nodes = [(n.key, n.red, n.layer, n.parent and n.parent.key, n.left and n.left.key,
              n.right and n.right.key, n.older, n.younger, n.next_layer)
             for n in engine.iter_nodes()]
    root = engine.root and engine.root.key
    return (nodes, root, engine.node and engine.node.key) if cursor else (nodes, root)


def books(tree):
    """The tree's books: a copy of its per-layer size record and layer 1's
    (oldest, youngest) pair kept beside it (None for a band machine)."""
    return dict(tree.sizes), tree.ends and tuple(side[1] for side in tree.ends)


def assert_never_dearer(sides, readers, steps):
    """Run each step on both sides of a twin pair; after every one the two
    must hold the same state, as ``readers`` read it, and the first side
    must pay no more.  Returns the two sides' total visits."""
    totals = [0, 0]
    for i, step in enumerate(steps):
        costs = []
        for side in sides:
            before = side.engine.visits
            step(side)
            costs.append(side.engine.visits - before)
        assert readers[0]() == readers[1](), f"state differs after op {i}"
        assert costs[0] <= costs[1], f"op {i} costs {costs[0]} > {costs[1]}"
        totals[0] += costs[0]
        totals[1] += costs[1]
    return totals


def step_of(op):
    """The trace operation ``op`` as a step on a tree."""
    if op.kind == INSERT:
        return lambda t: t.insert(op.key)
    if op.kind == DELETE:
        return lambda t: t.delete(op.key)
    return lambda t: t.search(op.key)


def tree_reader(tree, cursor=True):
    return lambda: (nodes_state(tree.engine, cursor), books(tree))


GOLDEN_CELLS = [("uniform", 300, 1500, 3), ("uniform", 40, 1500, 11),
                ("zipf_recency", 200, 1500, 5), ("finger_walk", 250, 1200, 7)]


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_layered_tree_never_dearer_on_golden_cells(cell):
    family, n, ops, seed = cell
    trees = (LayeredTree(), RootWalkTree())
    finger, root_walk = assert_never_dearer(
        trees, [tree_reader(t) for t in trees],
        map(step_of, generate(GeneratorSpec(family, n, ops, seed))))
    assert finger < root_walk, "no operation got cheaper: is the twin patched?"


def snapshot_pair(tree):
    """Layer 1's (oldest, youngest), read off its recency order."""
    first = tree.layer_snapshot().get(1)
    return (first[-1], first[0]) if first else (None, None)


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_kept_pair_never_dearer_than_scanning_on_golden_cells(cell):
    """The scanning twin keeps no pair, so its side reads layer 1's ends
    off its queue: the tree's kept pair must name them after every step."""
    family, n, ops, seed = cell
    trees = kept, scan = LayeredTree(), ScanTree()
    readers = [tree_reader(kept),
               lambda: (nodes_state(scan.engine), (dict(scan.sizes), snapshot_pair(scan)))]
    kept_visits, scan_visits = assert_never_dearer(
        trees, readers, map(step_of, generate(GeneratorSpec(family, n, ops, seed))))
    assert kept_visits < scan_visits, "no operation got cheaper: is the twin patched?"


def skip_plan(family, n, count, rng):
    if family == "uniform":
        return [rng.randint(1, n) for _ in range(count)]
    out = []  # repeat_block: runs of nearby keys, each run three times
    width = min(8, n)
    while len(out) < count:
        start = rng.randint(1, n - width + 1)
        for _ in range(3):
            out.extend(range(start, start + width))
    return out[:count]


class EveryBandSkipSplay(SkipSplayTree):
    """The access that enters the band machine of every band on the root
    path, also where its search finds the youngest of layer 1 and changes
    nothing, and climbs through the engine's own walks."""

    def machine(self, key):
        """The layered tree that runs the band search of ``key``."""
        return self.bands[_band_of_height(_height(key))]

    def access(self, key):
        eng = self.engine
        start = eng.visits
        eng.begin_access()
        assert eng.descend_to(key) is not None
        tree = self.machine(key)
        tree.search(key, fresh=False)
        while True:
            parent = climb_to_band_root(eng, tree.base).parent
            if parent is None:
                break
            eng.arrive(parent)
            tree = self.machine(parent.key)
            tree.search(parent.key, fresh=False)
        return eng.visits - start


def skip_splay_pair(k, twin=RootWalkTree):
    """Two skip-splay trees over the same universe; the second enters every
    band machine on the root path, and every band of it runs as ``twin``."""
    tree, other = SkipSplayTree(k), EveryBandSkipSplay(k)
    for band in other.bands:
        band.__class__ = twin
    return tree, other


def skip_state_reader(tree, cursor=True):
    return lambda: (nodes_state(tree.engine, cursor), [books(band) for band in tree.bands])


@pytest.mark.parametrize("k,count", [(2, 200), (3, 600), (4, 1500),
                                     pytest.param(5, 60, marks=pytest.mark.slow)])
@pytest.mark.parametrize("family", ["repeat_block", "uniform"])
def test_skip_splay_never_dearer(k, count, family):
    pair = skip_splay_pair(k)
    n = pair[0].n
    plan = skip_plan(family, n, count, random.Random(100 * k + len(family)))
    # every key accessed twice in a row, as in the doubled pairs
    finger, root_walk = assert_never_dearer(
        pair, [skip_state_reader(t) for t in pair],
        (lambda t, x=x: t.access(x) for x in plan for _ in range(2)))
    assert finger < root_walk, "no operation got cheaper: is the twin patched?"
    assert not pair[0].validate()


# -- the finger walk itself ----------------------------------------------------


def band_path(node, base):
    """``node`` and its ancestors up to the root of its band, bottom up."""
    path = [node]
    while node.parent is not None and node.parent.layer > base:
        node = node.parent
        path.append(node)
    return path


def finger_cost(start, target, base):
    """Visits of a finger walk: up to the lowest proper ancestor whose key
    lies on the far side of (or on) the target, else the band root, then
    down to the target."""
    if start is target:
        return 0
    far = (lambda a: a.key >= target.key) if target.key > start.key \
        else (lambda a: a.key <= target.key)
    up = band_path(start, base)
    stop = next((i for i, a in enumerate(up) if i and far(a)), len(up) - 1)
    return stop + band_path(target, base).index(up[stop])


def root_walk_cost(start, target, base):
    return len(band_path(start, base)) - 1 + len(band_path(target, base)) - 1


def goto_cost(tree, start, target):
    """Put the cursor on ``start``, walk it to ``target``; return the visits."""
    eng = tree.engine
    eng.node = start
    before = eng.visits
    assert tree._goto(target.key) is target and eng.node is target
    return eng.visits - before


@pytest.fixture(scope="module")
def deep_tree():
    rng = random.Random(8)
    keys = rng.sample(range(5000), 400)
    tree = LayeredTree()
    for key in keys:
        tree.insert(key)
    for _ in range(400):
        tree.search(rng.choice(keys))
    return tree, {n.key: n for n in tree.engine.iter_nodes()}


def is_ancestor(a, node):
    while node is not None:
        if node is a:
            return True
        node = node.parent
    return False


def pick(nodes, rng, accept):
    """A (start, target) pair of ``nodes`` that ``accept`` admits."""
    pool = list(nodes.values())
    while True:
        start, target = rng.sample(pool, 2)
        if accept(start, target):
            return start, target


def unrelated(s, t):
    return not is_ancestor(s, t) and not is_ancestor(t, s)


@pytest.mark.parametrize("case,accept", [
    ("target right", lambda s, t: t.key > s.key and unrelated(s, t)),
    ("target left", lambda s, t: t.key < s.key and unrelated(s, t)),
    ("cursor on an ancestor", lambda s, t: is_ancestor(s, t)),
    ("cursor on a descendant", lambda s, t: is_ancestor(t, s)),
])
def test_goto_pays_the_finger_walk(deep_tree, case, accept):
    tree, nodes = deep_tree
    rng = random.Random(case)
    strictly_cheaper = 0
    for _ in range(60):
        start, target = pick(nodes, rng, accept)
        spent = goto_cost(tree, start, target)
        assert spent == finger_cost(start, target, 0), (start, target)
        assert spent <= root_walk_cost(start, target, 0), (start, target)
        strictly_cheaper += spent < root_walk_cost(start, target, 0)
        if case == "cursor on a descendant":
            assert spent == len(band_path(start, 0)) - len(band_path(target, 0))
    assert strictly_cheaper


@pytest.mark.parametrize("k,accesses", [(4, 300), pytest.param(5, 2000, marks=pytest.mark.slow)])
def test_goto_stays_inside_a_band(k, accesses):
    """Inside a skip-splay tree every band with ``base > 0`` hangs below
    another; a walk between two of its members reaches no node above the
    band's root, so it never pays more than a climb to that root and the
    descent from it."""
    tree = SkipSplayTree(k)
    rng = random.Random(k)
    for _ in range(accesses):
        tree.access(rng.randint(1, tree.n))
    nodes = {n.key: n for n in tree.engine.iter_nodes()}
    auxes = {}
    for key, root_key in tree.aux_assignment().items():
        auxes.setdefault(root_key, []).append(key)
    checked = left_escapes = 0
    for root_key, keys in auxes.items():
        band = tree.bands[tree.k - tree.aux_depth(root_key)]
        if band.base == 0 or len(keys) < 3:
            continue
        members = [nodes[key] for key in keys]
        for start in members:
            for target in members:
                spent = goto_cost(band, start, target)
                assert spent == finger_cost(start, target, band.base)
                assert spent <= root_walk_cost(start, target, band.base)
                checked += 1
        root = band_path(members[0], band.base)[-1]
        # an ancestor above the band that brackets the band's top key:
        # a climb that ignored the band's edge would stop there
        left_escapes += root.parent.left is root
    assert checked and left_escapes


def test_band_search_must_start_on_its_key():
    """``search(fresh=False)`` means the cursor is on the key: with the
    cursor on another node it raises instead of searching from there."""
    tree = LayeredTree()
    for key in range(1, 41):
        tree.insert(key)
    tree.engine.node = tree.engine.lookup(7)
    with pytest.raises(AssertionError, match="starts on key 7"):
        tree.search(8, fresh=False)
