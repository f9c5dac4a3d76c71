"""Finger cursor moves: ``_goto`` climbs only until an ancestor brackets
its target, a band search with ``fresh=False`` starts on the cursor, which
holds the key, a layer-1 hit that is already the youngest skips the
layer-1 scan, and every operation, a plain tree's or a band search in one
aux tree of a skip-splay tree, starts from the pair of layer-1 ends kept
with the books instead of scanning layer 1.  An insert hangs its key in the
deepest layer and promotes it as a search hit there.

None of these may change the tree or make an operation dearer.  The
equivalence tests replay traces on a tree and on a twin that walks the
old way (``RootWalkTree``: every ``_goto`` up to the band root and down,
a layer-1 hit re-fronted by its own ``_refront``, which always scans
layer 1, every ``fresh=False`` search climbing from its key to the band
root and descending back to it; ``ScanTree``: every operation, or every
band search when its class runs a skip-splay tree's bands, starting from
an empty record and scanning layer 1; ``TemporaryLayerTree``: every
insert through a temporary layer below the deepest, and every layer-1 hit
through ``_refront``) and compare the two after every operation.  The
twins keep the layer-1 scan, the empty record, ``_refront`` and the
temporary layer as their own code: the package has none of them.
The skip-splay twin also enters every band machine on an access's root
path (``EveryBandSkipSplay``), as the access did before it learned to pass
over a band whose search would find the youngest of layer 1.
"""

import random

import pytest

from layerws import LayeredTree, SkipSplayTree
from layerws.engine import Node
from layerws.errors import DuplicateKeyError
from layerws.layered_tree import MAX_LAYERS, capacity
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


def empty_record():
    """An operation's empty record of queue ends: (oldest keys, youngest
    keys), each indexed by relative layer 1..MAX_LAYERS+1."""
    return [None] * (MAX_LAYERS + 2), [None] * (MAX_LAYERS + 2)


def scan_first_layer(tree, youngest, ends):
    """Climb to the band root and find the queue head/tail of layer 1 by
    walking its few members, and record it in ``ends``; the other end goes
    into the record too when the walk passes it on the way."""
    eng = tree.engine
    root = climb_to_band_root(eng, tree.base)
    lab = tree.base + 1
    assert root.layer == lab, "layer 1 must hold the root"
    stack = [root]
    walked = 0
    found = None
    while stack:
        n = stack.pop()
        walked += 1
        if (n.younger if youngest else n.older) is None:
            found = n
            break
        if (n.older if youngest else n.younger) is None:
            ends[not youngest][1] = n.key
        stack.extend(c for c in (n.left, n.right) if c is not None and c.layer == lab)
    eng.visits += 2 * walked
    assert found is not None, "first layer has no recency head"
    eng.node = found
    ends[youngest][1] = found.key
    return found


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

    _scan_first_layer = scan_first_layer

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
        else:
            climb_to_band_root(eng, self.base)
        ends = self._record()
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

    _record = staticmethod(empty_record)
    _scan_first_layer = scan_first_layer

    def _extreme_in_layer(self, j, youngest, ends):
        # with no end of this side recorded down to layer j, scan layer 1,
        # then hop down from its end
        if all(key is None for key in ends[youngest][1:j + 1]):
            self._scan_first_layer(youngest, ends)
        return super()._extreme_in_layer(j, youngest, ends)


class TemporaryLayerTree(LayeredTree):
    """Inserts through a temporary layer: the new key hangs one layer below
    the deepest, counted in the books as a layer of its own until the move
    up lifts it, and a layer-1 hit is re-fronted by ``_refront``."""

    def _refront(self, x, ends):
        y_key, x_next = self._file_youngest(x, 1, ends)
        self._queue_remove(x, 1, ends)
        x.older = y_key
        x.younger = None
        x.next_layer = x_next

    def _move_up(self, x, to, ends):
        # only a search's layer-1 hit moves from a layer to itself here:
        # the temporary layer puts every insert below layer 1
        if to == x.layer - self.base:
            self._refront(x, ends)
        else:
            super()._move_up(x, to, ends)

    def insert(self, key):
        eng = self.engine
        if eng.root is None:
            return super().insert(key)
        eng.begin_access()
        if eng.descend_to(key) is not None:
            raise DuplicateKeyError(key)
        sizes = self.sizes
        deficit = t = len(sizes)
        if sizes[t] == capacity(t):
            deficit = t + 1
            sizes[deficit] = 0  # the push-down opens it
        temp = deficit + 1
        parent = eng.node
        node = Node(key, self.base + temp, red=False)
        node.older = node.younger = key  # sentinel: in no queue yet
        if key < parent.key:
            parent.left = node
        else:
            parent.right = node
        node.parent = parent
        eng.arrive(node)
        sizes[temp] = 1
        ends = self._record()
        self._move_up(node, 1, ends)
        self._push_down(deficit, ends)
        assert sizes[temp] == 0
        del sizes[temp]


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
    (oldest, youngest) pair kept beside it."""
    return dict(tree.sizes), tuple(side[1] for side in tree.ends)


def skip_books(tree):
    """A skip-splay tree's books: a copy of each band machine's size record,
    and of each band's (oldest keys, youngest keys) lists that keep its aux
    trees' pairs of layer-1 ends (None for bands 0 and 1)."""
    return ([dict(band.sizes) for band in tree.bands],
            [pairs and (list(pairs[0]), list(pairs[1])) for pairs in tree.aux_ends])


def walked_aux_ends(tree):
    """Each aux tree's layer-1 oldest and youngest key, read off the queue
    fields of every node and laid out as ``tree.aux_ends``."""
    out = [pairs and ([None] * len(pairs[0]), [None] * len(pairs[0])) for pairs in tree.aux_ends]
    for n in tree.engine.iter_nodes():
        band = _band_of_height(_height(n.key))
        if out[band] is not None and n.layer == tree.bands[band].base + 1:
            i = n.key >> (1 << band)
            if n.older is None:
                out[band][0][i] = n.key
            if n.younger is None:
                out[band][1][i] = n.key
    return out


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


@pytest.mark.parametrize("cell", GOLDEN_CELLS + [("uniform", 2000, 6000, 13)],
                         ids=lambda c: "-".join(map(str, c)))
def test_insert_as_deepest_hit_never_dearer_than_temporary_layer(cell):
    """An insert hangs its key in the deepest layer and promotes it as a hit
    there: the same nodes, books and cursor as the temporary layer after
    every operation, no insert dearer, and every search and delete exactly
    as dear.  Only the uniform cells insert out of key order, where the
    leaf's fixup runs before the walk to layer 1's youngest and can shorten
    it."""
    family, n, ops, seed = cell
    trace = generate(GeneratorSpec(family, n, ops, seed))
    costs = []  # each operation's cost on one side, then on the other

    def costed(op):
        step = step_of(op)

        def run(tree):
            before = tree.engine.visits
            step(tree)
            costs.append(tree.engine.visits - before)
        return run

    trees = (LayeredTree(), TemporaryLayerTree())
    deepest, temporary = assert_never_dearer(
        trees, [tree_reader(t) for t in trees], map(costed, trace))
    assert all(costs[2 * i] == costs[2 * i + 1]
               for i, op in enumerate(trace) if op.kind != INSERT)
    if family == "uniform":
        assert deepest < temporary, "no insert got cheaper: is the twin patched?"


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
        """The layered tree whose labels bound the band search of ``key``."""
        return self.bands[_band_of_height(_height(key))]

    def access(self, key):
        eng = self.engine
        start = eng.visits
        eng.begin_access()
        assert eng.descend_to(key) is not None
        while True:
            self._band_search(_band_of_height(_height(key)), key)
            parent = climb_to_band_root(eng, self.machine(key).base).parent
            if parent is None:
                break
            eng.arrive(parent)
            key = parent.key
        return eng.visits - start


def skip_splay_pair(k, twin=RootWalkTree):
    """Two skip-splay trees over the same universe; the second enters every
    band machine on the root path, and every band of it runs as ``twin``."""
    tree, other = SkipSplayTree(k), EveryBandSkipSplay(k)
    for band in other.bands:
        band.__class__ = twin
    return tree, other


def skip_state_reader(tree, cursor=True):
    return lambda: (nodes_state(tree.engine, cursor), skip_books(tree))


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


@pytest.mark.parametrize("k,count", [(3, 600), (4, 1500)])
@pytest.mark.parametrize("family", ["repeat_block", "uniform"])
def test_skip_splay_aux_pairs_never_dearer_than_scanning(k, count, family):
    """Bands that differ only by scanning: the twin's bands keep no pair, so
    its side reads each aux tree's layer-1 ends off the queue fields."""
    trees = kept, scan = SkipSplayTree(k), SkipSplayTree(k)
    for band in scan.bands:
        band.__class__ = ScanTree
    sizes = lambda t: [dict(band.sizes) for band in t.bands]
    readers = [lambda: (nodes_state(kept.engine), skip_books(kept)),
               lambda: (nodes_state(scan.engine), (sizes(scan), walked_aux_ends(scan)))]
    plan = skip_plan(family, kept.n, count, random.Random(100 * k + len(family)))
    kept_visits, scan_visits = assert_never_dearer(
        trees, readers, (lambda t, x=x: t.access(x) for x in plan for _ in range(2)))
    assert kept_visits < scan_visits, "no access got cheaper: is the twin patched?"
    assert not kept.validate()


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
