"""The record of queue ends a tree keeps with its books.

Every layer's oldest and youngest key live beside the root pointer, in the
tree's record of queue ends.  Every operation starts from them, so none
scans layer 1 or hops down from it.  In a skip-splay tree each aux tree of
bands 2 and up keeps its own record, and a band search hands it to the
band machine, which every aux tree of its band shares, and takes it back.
Every entry must be exact after every operation, and None for a layer the
books do not name: the validators and the comparator check it, last, as
they check the books.
"""

import random

import pytest

from layerws import LayeredTree, ReferenceStructure, SkipSplayTree, validate_tree
from layerws.errors import DivergenceError
from layerws.harness import compare_layers
from layerws.workload import GeneratorSpec, generate

from test_finger import (books, skip_books, skip_plan, snapshot_ends, step_of,
                         walked_aux_ends)


def kept_pair(tree, layer=1):
    old, young = tree.ends
    return old[layer], young[layer]


class Lockstep:
    """A tree and the reference structure, driven together and checked
    after every operation."""

    def __init__(self):
        self.tree, self.ref = LayeredTree(), ReferenceStructure()

    def __getattr__(self, kind):
        def both(key):
            got = getattr(self.tree, kind)(key)
            assert getattr(self.ref, kind)(key) == got
            self.check()
            return got
        return both

    def check(self):
        tree = self.tree
        assert not validate_tree(tree), [str(v) for v in validate_tree(tree)]
        compare_layers(tree, self.ref, {n.key: n for n in tree.engine.iter_nodes()})
        assert books(tree)[1] == snapshot_ends(tree)

    def first(self):
        """Layer 1's recency order, youngest first."""
        return self.tree.layer_snapshot()[1]


def test_first_insert_into_an_empty_tree():
    pair = Lockstep()
    pair.check()
    assert kept_pair(pair.tree) == (None, None)
    pair.insert(42)
    assert kept_pair(pair.tree) == (42, 42)


def test_insert_that_opens_a_layer():
    pair = Lockstep()
    for key in (1, 2, 3, 4):
        pair.insert(key)
    assert kept_pair(pair.tree) == (1, 4)
    pair.insert(5)  # pushes 1 down into the new layer 2
    assert pair.tree.layer_count == 2
    assert kept_pair(pair.tree) == (2, 5) and kept_pair(pair.tree, 2) == (1, 1)
    for key in range(6, 22):  # the 21st key opens layer 3
        pair.insert(key)
    assert pair.tree.layer_count == 3
    assert kept_pair(pair.tree) == (18, 21)
    assert kept_pair(pair.tree, 2) == (2, 17) and kept_pair(pair.tree, 3) == (1, 1)


@pytest.mark.parametrize("end", [-1, 0], ids=["oldest", "youngest"])
def test_layer_one_hit_on_an_end(end):
    pair = Lockstep()
    for key in random.Random(5).sample(range(100), 30):
        pair.insert(key)
    order = pair.first()
    assert pair.search(order[end]) == 1
    assert pair.first() == [order[end]] + [k for k in order if k != order[end]]


def test_delete_that_drains_the_deepest_layer():
    pair = Lockstep()
    for key in range(1, 22):
        pair.insert(key)
    assert pair.tree.layer_count == 3
    pair.delete(1)  # the lone key of layer 3
    assert pair.tree.layer_count == 2 and kept_pair(pair.tree, 3) == (None, None)
    pair.delete(21)  # layer 1's youngest: layer 2's youngest refills layer 1
    assert kept_pair(pair.tree) == (18, 17) and kept_pair(pair.tree, 2) == (2, 16)


def test_delete_whose_refill_drains_the_deepest_layer():
    pair = Lockstep()
    for key in range(1, 6):
        pair.insert(key)
    pair.delete(5)  # 1, the lone key of layer 2, refills layer 1
    assert pair.tree.layer_count == 1
    assert pair.first() == [1, 4, 3, 2] and kept_pair(pair.tree) == (2, 1)
    assert kept_pair(pair.tree, 2) == (None, None)


@pytest.mark.parametrize("end", [-1, 0], ids=["oldest", "youngest"])
def test_delete_a_layer_one_end(end):
    pair = Lockstep()
    for key in random.Random(6).sample(range(100), 30):
        pair.insert(key)
    for _ in range(3):
        pair.delete(pair.first()[end])


def test_delete_down_to_empty_then_insert_again():
    pair = Lockstep()
    keys = random.Random(7).sample(range(100), 25)
    for key in keys:
        pair.insert(key)
    for key in keys:
        pair.delete(key)
    assert len(pair.tree) == 0 and kept_pair(pair.tree) == (None, None)
    pair.insert(keys[0])
    pair.insert(keys[1])
    assert kept_pair(pair.tree) == (keys[0], keys[1])


# -- a stale entry is reported --------------------------------------------------


def lockstep_tree(count=30, seed=8):
    tree, ref = LayeredTree(), ReferenceStructure()
    for key in random.Random(seed).sample(range(100), count):
        tree.insert(key)
        ref.insert(key)
    return tree, ref


@pytest.mark.parametrize("side", [0, 1], ids=["oldest", "youngest"])
def test_stale_pair_is_reported(side):
    tree, ref = lockstep_tree()
    first = tree.layer_snapshot()[1]
    tree.ends[side][1] = first[1]  # an interior member of layer 1
    report = [str(v) for v in validate_tree(tree)]
    old, young = first[-1], first[0]
    kept = (first[1], young) if side == 0 else (old, first[1])
    assert report == [f"header[ends]: layer 1's oldest are [{old}] and its youngest "
                      f"[{young}], the books keep {kept[0]} and {kept[1]}"]
    assert [str(v) for v in validate_tree(tree, check_queues=False)] == report
    with pytest.raises(DivergenceError, match=r"layer 1's ends as \(.*\), the reference's "
                       rf"oldest and youngest are \({old}, {young}\)"):
        compare_layers(tree, ref, {n.key: n for n in tree.engine.iter_nodes()})


@pytest.mark.parametrize("layer", [2, 3, 4])
@pytest.mark.parametrize("side", [0, 1], ids=["oldest", "youngest"])
def test_stale_deeper_entry_is_reported(side, layer):
    """A deeper layer's entry naming another member of its layer, or, past
    the deepest layer (4 here), naming any key at all."""
    tree, ref = lockstep_tree()
    snap = tree.layer_snapshot()
    assert len(snap) == 3
    members = snap.get(layer, [])
    old, young = (members[-1], members[0]) if members else (None, None)
    planted = snap[layer - 1][1] if layer == 4 else members[1]
    tree.ends[side][layer] = planted
    kept = (planted, young) if side == 0 else (old, planted)
    report = [str(v) for v in validate_tree(tree)]
    assert report == [f"header[ends]: layer {layer}'s oldest are {[old] if old else []} and its "
                      f"youngest {[young] if young else []}, the books keep {kept[0]} and {kept[1]}"]
    assert [str(v) for v in validate_tree(tree, check_queues=False)] == report
    with pytest.raises(DivergenceError, match=rf"layer {layer}'s ends as \(.*\), the reference's "
                       rf"oldest and youngest are \({old}, {young}\)"):
        compare_layers(tree, ref, {n.key: n for n in tree.engine.iter_nodes()})


def test_stale_pair_on_an_empty_tree_is_reported():
    tree, ref = LayeredTree(), ReferenceStructure()
    tree.ends[1][1] = 7
    assert [v.witness for v in validate_tree(tree)] == ["ends"]
    with pytest.raises(DivergenceError, match="layer 1's ends"):
        compare_layers(tree, ref, {})


def test_stale_pair_is_reported_after_every_other_fault():
    """The pair is checked last, so the rest of a report reads as it did
    before the tree kept a pair."""
    tree, _ = lockstep_tree()
    node = tree.engine.lookup(tree.layer_snapshot()[2][3])
    node.older, node.younger = node.younger, node.older
    faults = [str(v) for v in validate_tree(tree)]
    assert faults and all(v.startswith("queue-") for v in faults)
    tree.ends[0][1] = tree.ends[1][1]
    report = [str(v) for v in validate_tree(tree)]
    assert report[:-1] == faults and report[-1].startswith("header[ends]: ")


# -- every operation keeps its record ----------------------------------------------


def test_plain_tree_operations_keep_the_pair():
    """Every entry of the record, the layer-1 pair among them, after every
    operation of a trace whose tree holds from no layers to four."""
    tree = LayeredTree()
    kinds, counts = set(), set()
    for op in generate(GeneratorSpec("uniform", 300, 3000, seed=4)):
        step_of(op)(tree)
        kinds.add(op.kind)
        counts.add(tree.layer_count)
        assert books(tree)[1] == snapshot_ends(tree)
    assert kinds == {"I", "S", "D"} and len(tree) > 21 and counts == {0, 1, 2, 3, 4}
    assert not validate_tree(tree)


@pytest.mark.parametrize("k,count", [(3, 300), (4, 600)])
@pytest.mark.parametrize("family", ["repeat_block", "uniform"])
def test_aux_pairs_follow_every_access(k, count, family):
    """Every entry of every aux tree's record, after every access."""
    tree = SkipSplayTree(k)
    moved = set()  # the bands where some pair changed
    before = skip_books(tree)[1]
    for x in skip_plan(family, tree.n, count, random.Random(k + len(family))):
        tree.access(x)
        after = skip_books(tree)[1]
        assert after == walked_aux_ends(tree), x
        moved.update(band for band, pairs in enumerate(after) if pairs != before[band])
        before = after
    assert moved == set(range(2, k))
    assert not tree.validate()


@pytest.mark.parametrize("side", [0, 1], ids=["oldest", "youngest"])
def test_stale_aux_pair_is_reported(side):
    tree = SkipSplayTree(4)
    rng = random.Random(2)
    for _ in range(100):
        tree.access(rng.randint(1, tree.n))
    root = tree.engine.root  # the one aux tree of band 3: layer 1 holds 4 keys
    first = [n for n in tree.engine.iter_nodes() if n.layer == root.layer]
    young = next(n.key for n in first if n.younger is None)
    old = next(n.key for n in first if n.older is None)
    interior = next(n.key for n in first if n.key not in (old, young))
    tree.aux_ends[3][side][1][root.key >> 8] = interior
    kept = (interior, young) if side == 0 else (old, interior)
    assert [str(v) for v in tree.validate()] == [
        f"header[ends]: layer 1's oldest are [{old}] and its youngest [{young}], "
        f"the books keep {kept[0]} and {kept[1]}"]


@pytest.mark.parametrize("side", [0, 1], ids=["oldest", "youngest"])
def test_stale_deeper_aux_entry_is_reported(side):
    """The layer-2 entries of the band-3 aux tree at k = 4, whose layer 2
    holds the other 11 of its 15 keys."""
    tree = SkipSplayTree(4)
    rng = random.Random(3)
    for _ in range(100):
        tree.access(rng.randint(1, tree.n))
    root = tree.engine.root
    second = [n for n in tree.engine.iter_nodes() if n.layer == root.layer + 1]
    assert len(second) == 11
    young = next(n.key for n in second if n.younger is None)
    old = next(n.key for n in second if n.older is None)
    interior = next(n.key for n in second if n.key not in (old, young))
    tree.aux_ends[3][side][2][root.key >> 8] = interior
    kept = (interior, young) if side == 0 else (old, interior)
    assert [str(v) for v in tree.validate()] == [
        f"header[ends]: layer 2's oldest are [{old}] and its youngest [{young}], "
        f"the books keep {kept[0]} and {kept[1]}"]
