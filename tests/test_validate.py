"""The one walk writes the reports the old reporting walk wrote.

``validate_band`` checks a band in one walk that writes the report as it
goes.  It replaced a fast walk, which only decided whether a band was
clean, and a reporting walk, which wrote the report.  These tests replay
random traces, plant random corruptions of every field kind after each
operation, and hash every report, with and without the queue pass, on
standalone trees and on skip-splay bands.  The digests and the
clean/faulty tallies were taken from the reporting walk on this same
corpus, so a change to any report's contents, wording or order fails here.
"""

import hashlib
import itertools
import random

import pytest

from layerws import LayeredTree, SkipSplayTree, validate_tree
from layerws import skip_splay, validate
from layerws.engine import band_nodes
from layerws.validate import validate_band

FIELDS = ("red", "layer", "key", "left", "right", "parent",
          "older", "younger", "next_layer", "sizes")
_ABSENT = object()

# case -> (sha256 of every report in order, bands found clean, bands found faulty)
PINNED = {
    "trees-1": ("f2c563a5144d9ef29ecff27ec9af04fff55166397662ff6a76d98d6cfd07c9b8", 139, 160),
    "trees-2": ("84ee08a3c218b5fc49c01e6feeca268ea64a5ed96a08ccc766762c7447056a4e", 121, 179),
    "trees-3": ("8f018ce4e8c9d32bc86c99200e297b35bb1ba4d1e65cbbd42f10e7c5600496f4", 123, 177),
    "trees-4": ("db6b3963939042c55bf5b3de28d5d9edb06ace4aff660165ea26a284b42a60e1", 81, 219),
    "skip-splay": ("7d40df3d3b6f8971ba84047730f1da89c89d471693adb83888d97b5dad7e1b5c", 139, 101),
    "alone": ("abde33022dc4b07b8fc1f4095a746516effec81b8aea058f8b4121a9f8d2befe", 160, 791),
}


class _Reports:
    """Every report of a case, hashed in order, and the clean/faulty tally
    of the bands checked after a corruption (or, alone, of every band)."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.clean = self.faulty = 0
        self.fields: set[str] = set()

    def check(self, root, base, sizes, complete) -> list:
        """The band's structural report; both reports go into the digest."""
        for check_queues in (True, False):
            report = validate_band(root, base, sizes, complete, check_queues)
            self.sha.update("".join(f"{v}\n" for v in report).encode() + b"--\n")
        return report

    def tally(self, report):
        if report:
            self.faulty += 1
        else:
            self.clean += 1

    def pinned(self, case):
        assert (self.sha.hexdigest(), self.clean, self.faulty) == PINNED[case]


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
    never closes a cycle: a cycle's report is one ``depth-bound`` violation
    (``test_child_link_cycle_is_reported`` in ``tests/test_layered_tree.py``),
    which would hide every other fault of the band."""
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


def _corrupt_and_check(rng, root, base, sizes, complete, reports):
    before = reports.check(root, base, sizes, complete)
    nodes = list(band_nodes(root, base, len(sizes)))
    undo = []
    for _ in range(rng.randint(0, 3)):
        _plant(rng, nodes, sizes, undo, reports.fields)
    reports.tally(reports.check(root, base, sizes, complete))
    _undo(undo)
    assert bool(reports.check(root, base, sizes, complete)) == bool(before)


def corrupted_trees(seed, preload, universe, limits) -> _Reports:
    rng = random.Random(seed)
    tree = LayeredTree()
    present = rng.sample(range(1, universe + 1), preload)
    for key in present:
        tree.insert(key)
    reports = _Reports()
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
        _corrupt_and_check(rng, root, tree.base, tree.sizes, True, reports)
    return reports


def corrupted_skip_splay_bands(monkeypatch) -> _Reports:
    rng = random.Random(5)
    tree = SkipSplayTree(4)
    calls = []

    def recorded(root, base, sizes, *args, **kwargs):
        calls.append((root, base, sizes))
        return validate_band(root, base, sizes, *args, **kwargs)

    monkeypatch.setattr(skip_splay, "validate_band", recorded)
    reports = _Reports()
    for _ in range(60):
        tree.access(rng.randint(1, tree.n))
        calls.clear()
        assert not tree.validate()
        by_base = {}
        for root, base, sizes in calls:
            by_base.setdefault(base, []).append((root, sizes))
        for base, bands in sorted(by_base.items()):  # one aux tree of each band
            root, sizes = rng.choice(bands)
            _corrupt_and_check(rng, root, base, sizes, False, reports)
    return reports


def faults_that_break_one_rule_alone() -> tuple[_Reports, set[str]]:
    """Random corruptions seldom break one rule alone, so every label swap
    of a node with a child or grandchild, under every colouring of the
    pair, and every colour flip that keeps black heights (a black node with
    two red children turns red, they turn black) is tried on one tree.
    Returns the reports and the kinds found alone in a report."""
    rng = random.Random(3)
    tree = LayeredTree()
    for key in rng.sample(range(1, 400), 120):
        tree.insert(key)
    root, sizes = tree.engine.root, tree.sizes
    reports, alone = _Reports(), set()

    def check():
        report = reports.check(root, 0, sizes, True)
        reports.tally(report)
        kinds = {v.kind for v in report}
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
    return reports, alone


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
    reports = corrupted_trees(seed, preload, universe, limits)
    assert reports.fields == set(FIELDS)
    reports.pinned(f"trees-{seed}")


def test_walks_agree_on_corrupted_skip_splay_bands(monkeypatch):
    reports = corrupted_skip_splay_bands(monkeypatch)
    assert reports.fields == set(FIELDS)
    reports.pinned("skip-splay")


def test_walks_agree_on_faults_that_break_one_rule_alone():
    reports, alone = faults_that_break_one_rule_alone()
    assert alone == {"layer-monotone", "rb-red-red", "rb-root-red", "rb-black-height"}
    reports.pinned("alone")
