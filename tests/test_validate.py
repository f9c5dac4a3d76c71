"""The validator's two walks agree.

``validate_band`` runs a fast walk that only decides whether a band is
clean, and the reporting walk only when the fast walk finds a fault.  These
tests replay random traces, plant random corruptions of every field kind
after each operation, and check that the fast walk says clean exactly when
the reporting walk finds nothing, and that ``validate_band`` returns the
reporting walk's report unchanged, with and without the queue pass, on
standalone trees and on skip-splay bands.
"""

import itertools
import random

import pytest

from layerws import LayeredTree, SkipSplayTree, validate_tree
from layerws import skip_splay, validate
from layerws.validate import _clean_scans, _report_band, validate_band

FIELDS = ("red", "layer", "key", "left", "right", "parent",
          "older", "younger", "next_layer", "sizes")
_ABSENT = object()


def _assert_walks_agree(root, base, sizes, complete) -> bool:
    """Both walks agree on the band; returns whether it is clean."""
    for check_queues in (False, True):
        want = [str(v) for v in _report_band(root, base, sizes, complete, check_queues)]
        got = [str(v) for v in validate_band(root, base, sizes, complete, check_queues)]
        assert got == want
    structural = _report_band(root, base, sizes, complete, False)
    clean = _clean_scans(root, base, sizes, complete, None) is not None
    assert clean == (not structural), [str(v) for v in structural]
    return clean


def _band_nodes(root, base, t):
    out, stack = [], [root]
    while stack:
        n = stack.pop()
        if base < n.layer <= base + t:
            out.append(n)
            stack.extend(c for c in (n.left, n.right) if c is not None)
    return out


def _reaches(src, dst) -> bool:
    """Whether ``dst`` lies below or at ``src`` by child links."""
    stack, seen = [src], set()
    while stack:
        n = stack.pop()
        if n is dst:
            return True
        if n not in seen:
            seen.add(n)
            stack.extend(c for c in (n.left, n.right) if c is not None)
    return False


def _plant(rng, nodes, sizes, undo, planted):
    """One random corruption of one field, logged in ``undo``.  A child link
    never closes a cycle: the reporting walk follows child links and would
    not end."""
    field = rng.choice(FIELDS)
    planted.add(field)
    if field == "sizes":
        t = len(sizes)
        roll = rng.random()
        if t and roll < 0.6:
            m = rng.randint(1, t)
            undo.append((sizes, m, sizes[m]))
            sizes[m] += rng.choice((-1, 1))
        elif roll < 0.8 or not t:
            undo.append((sizes, t + 1, _ABSENT))
            sizes[t + 1] = rng.choice((0, 1))
        else:
            undo.append((sizes, t, sizes.pop(t)))
        return
    n = nodes[0] if rng.random() < 0.1 else rng.choice(nodes)  # the band root, often
    old = getattr(n, field)
    if field == "red":
        new = not old
    elif field == "layer" and rng.random() < 0.5:
        # swap with another node's label: every count stays right
        other = rng.choice(nodes)
        undo.append((other, field, other.layer))
        new, other.layer = other.layer, old
    elif field == "layer":
        new = old + rng.choice((-2, -1, 1, 2))
    elif field == "key":
        new = rng.choice((old - 1, old + 1, rng.choice(nodes).key))
    elif field in ("left", "right"):
        new = rng.choice(nodes)
        if rng.random() < 0.3 or _reaches(new, n):
            new = None
    elif field == "parent":
        grandparent = old.parent if old is not None else None
        new = rng.choice((None, grandparent, rng.choice(nodes)))
    else:
        new = rng.choice((None, rng.choice(nodes).key, -1))
    undo.append((n, field, old))
    setattr(n, field, new)


def _undo(undo):
    for obj, field, old in reversed(undo):
        if isinstance(obj, dict):
            if old is _ABSENT:
                del obj[field]
            else:
                obj[field] = old
        else:
            setattr(obj, field, old)
    undo.clear()


def _corrupt_and_check(rng, root, base, sizes, complete, tally):
    before = _assert_walks_agree(root, base, sizes, complete)
    nodes = _band_nodes(root, base, len(sizes))
    undo = []
    for _ in range(rng.randint(0, 3)):
        _plant(rng, nodes, sizes, undo, tally["fields"])
    clean = _assert_walks_agree(root, base, sizes, complete)
    tally["clean" if clean else "faulty"] += 1
    _undo(undo)
    assert _assert_walks_agree(root, base, sizes, complete) == before


def _tally():
    return {"clean": 0, "faulty": 0, "fields": set()}


# (seed, keys inserted before the checks start, key universe, depth limits);
# 290 keys open the fourth layer.  A tree that keeps the red-black and size
# rules also keeps the depth limits, so one run tightens them until they bite.
@pytest.mark.parametrize("seed,preload,universe,limits", [
    (1, 0, 60, None), (2, 0, 120, None), (3, 290, 600, None),
    (4, 0, 120, [0, 2, 5, 8, 11, 14, 17]),
])
def test_walks_agree_on_corrupted_trees(seed, preload, universe, limits, monkeypatch):
    if limits is not None:
        monkeypatch.setattr(validate, "DEPTH_LIMITS", limits)
    rng = random.Random(seed)
    tree = LayeredTree()
    present = rng.sample(range(1, universe + 1), preload)
    for key in present:
        tree.insert(key)
    tally = _tally()
    for _ in range(300):
        roll = rng.random()
        if roll < 0.5 and len(present) < universe // 2 or not present:
            key = rng.randint(1, universe)
            if key not in present:
                tree.insert(key)
                present.append(key)
        elif roll < 0.9:
            tree.search(rng.choice(present))
        else:
            key = present.pop(rng.randrange(len(present)))
            tree.delete(key)
        root = tree.engine.root
        if root is None:
            continue
        if limits is None:
            assert not validate_tree(tree)
        _corrupt_and_check(rng, root, tree.base, tree.sizes, True, tally)
    assert tally["clean"] > 20 and tally["faulty"] > 100
    assert tally["fields"] == set(FIELDS)


def test_walks_agree_on_corrupted_skip_splay_bands(monkeypatch):
    rng = random.Random(5)
    tree = SkipSplayTree(4)
    calls = []

    def recorded(root, base, sizes, *args):
        calls.append((root, base, sizes))
        return validate_band(root, base, sizes, *args)

    monkeypatch.setattr(skip_splay, "validate_band", recorded)
    tally = _tally()
    for _ in range(60):
        tree.access(rng.randint(1, tree.n))
        calls.clear()
        assert not tree.validate()
        by_base = {}
        for root, base, sizes in calls:
            by_base.setdefault(base, []).append((root, sizes))
        for base, bands in sorted(by_base.items()):  # one aux tree of each band
            root, sizes = rng.choice(bands)
            _corrupt_and_check(rng, root, base, sizes, False, tally)
    assert tally["clean"] > 20 and tally["faulty"] > 100
    assert tally["fields"] == set(FIELDS)


def test_walks_agree_on_faults_that_break_one_rule_alone():
    """Random corruptions seldom break one rule alone, so every label swap
    of a node with a child or grandchild, under every colouring of the
    pair, and every colour flip that keeps black heights (a black node with
    two red children turns red, they turn black) is tried on one tree."""
    rng = random.Random(3)
    tree = LayeredTree()
    for key in rng.sample(range(1, 400), 120):
        tree.insert(key)
    root, sizes = tree.engine.root, tree.sizes
    alone = set()

    def check():
        _assert_walks_agree(root, 0, sizes, True)
        kinds = {v.kind for v in _report_band(root, 0, sizes, True, False)}
        if len(kinds) == 1:
            alone.update(kinds)

    for a in list(tree.engine.iter_nodes()):
        kids = [c for c in (a.left, a.right) if c is not None]
        for b in kids + [g for c in kids for g in (c.left, c.right) if g is not None]:
            saved = a.layer, b.layer, a.red, b.red
            a.layer, b.layer = b.layer, a.layer
            for colours in itertools.product((False, True), repeat=2):
                a.red, b.red = colours
                check()
            a.layer, b.layer, a.red, b.red = saved
        same = [c for c in kids if c.layer == a.layer and c.red]
        if not a.red and len(same) == 2:
            for n in (a, *same):
                n.red = not n.red
            check()
            for n in (a, *same):
                n.red = not n.red
    assert not validate_tree(tree)
    assert alone == {"layer-monotone", "rb-red-red", "rb-root-red", "rb-black-height"}
