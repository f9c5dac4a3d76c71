"""Single-layer red-black operations, driven through the plain baseline
tree (everything labeled 1) and through hand-built shapes."""

import random

import pytest

from layerws import layer_ops as ops
from layerws.baseline import RedBlackBaseline
from layerws.engine import Engine, Node
from layerws.validate import Violation, check_red_black


def rb_violations(root):
    out: list[Violation] = []
    if root is not None:
        check_red_black(root, out)
    return out


def assert_valid_rb(root, context=""):
    found = rb_violations(root)
    assert not found, f"{context}: {[str(v) for v in found]}"


def build_baseline(keys):
    tree = RedBlackBaseline()
    for k in keys:
        tree.insert(k)
    return tree


# -- insert fixup -------------------------------------------------------------

def test_insert_into_empty_layer_is_black_singleton():
    eng = Engine()
    x = Node(5, 1, red=True)
    eng.root = x
    grew = ops.insert_fixup(eng, x)
    assert grew and not x.red
    assert_valid_rb(x)


def test_red_leaf_under_black_root_stays():
    tree = build_baseline([10])
    tree.insert(20)
    root = tree.engine.root
    assert root.key == 10 and not root.red
    assert root.right.key == 20 and root.right.red
    assert_valid_rb(root)


def test_fifteen_sequential_inserts_stay_valid():
    tree = RedBlackBaseline()
    for k in range(1, 16):
        tree.insert(k)
        assert_valid_rb(tree.engine.root, f"after insert {k}")
    assert tree.keys() == list(range(1, 16))


# -- delete fixup (through baseline deletion) -----------------------------------

def test_delete_red_leaf_needs_no_repair():
    tree = build_baseline([10, 5, 15])
    # both children of the root are red leaves here
    assert tree.engine.root.left.red
    tree.delete(5)
    assert_valid_rb(tree.engine.root)
    assert tree.keys() == [10, 15]


def test_delete_black_with_red_child_recolors():
    tree = build_baseline([10, 5, 15, 3])
    tree.delete(5)  # black node with the red leaf 3 below
    assert_valid_rb(tree.engine.root)
    assert tree.keys() == [3, 10, 15]


def test_random_deletions_from_63_nodes_stay_valid():
    rng = random.Random(63)
    keys = list(range(63))
    tree = build_baseline(keys)
    rng.shuffle(keys)
    alive = set(range(63))
    for k in keys:
        tree.delete(k)
        alive.discard(k)
        assert_valid_rb(tree.engine.root, f"after delete {k}")
        assert tree.keys() == sorted(alive)


# -- split ---------------------------------------------------------------------

def test_split_at_root_is_noop():
    tree = build_baseline([2, 1, 3])
    root = tree.engine.root
    before = tree.keys()
    ops.split(tree.engine, root)
    assert tree.engine.root is root
    assert tree.keys() == before


def test_split_three_nodes_at_smallest():
    tree = build_baseline([2, 1, 3])
    eng = tree.engine
    node = eng.root.left
    assert node.key == 1
    ops.split(eng, node)
    assert eng.root is node and not node.red
    assert node.left is None
    assert_valid_rb(node.right, "right side after split")
    assert tree.keys() == [1, 2, 3]


@pytest.mark.parametrize("seed", [0, 1])
def test_split_every_key_of_255(seed):
    rng = random.Random(seed)
    keys = list(range(255))
    rng.shuffle(keys)
    for target in range(0, 255, 5 if seed else 3):
        tree = build_baseline(keys)
        eng = tree.engine
        node = eng.root
        while node.key != target:
            node = node.left if target < node.key else node.right
        ops.split(eng, node)
        assert eng.root is node
        # both sides independently valid; the whole need not balance
        if node.left is not None:
            assert_valid_rb(node.left, f"left of {target}")
        if node.right is not None:
            assert_valid_rb(node.right, f"right of {target}")
        assert tree.keys() == list(range(255))


def test_split_then_join_roundtrip():
    rng = random.Random(7)
    for trial in range(10):
        keys = rng.sample(range(1000), 100)
        tree = build_baseline(keys)
        eng = tree.engine
        target = rng.choice(keys)
        node = eng.root
        while node.key != target:
            node = node.left if target < node.key else node.right
        ops.split(eng, node)
        root = ops.join_at(eng, node)
        assert eng.root is root
        assert_valid_rb(root, f"trial {trial}")
        assert tree.keys() == sorted(keys)


# -- join ------------------------------------------------------------------------

def test_join_without_same_layer_children_gives_black_singleton():
    eng = Engine()
    x = Node(5, 1, red=True)
    hang = Node(6, 2)
    x.right = hang
    hang.parent = x
    eng.root = x
    root = ops.join_at(eng, x)
    assert root is x and not x.red
    assert x.right is hang


def test_join_sides_of_different_black_heights():
    eng = Engine()
    # left side: black height 1; right side: a 15-node tree of black height 3
    left = Node(0, 1)
    right_tree = build_baseline(list(range(10, 40, 2)))
    x = Node(5, 1)
    x.left = left
    left.parent = x
    x.right = right_tree.engine.root
    x.right.parent = x
    eng.root = x
    root = ops.join_at(eng, x)
    assert eng.root is root
    assert_valid_rb(root)
    assert eng.inorder_keys() == [0, 5] + list(range(10, 40, 2))


@pytest.mark.parametrize("m", [7, 15, 63, 255])
def test_intra_layer_costs_stay_logarithmic(m):
    # committed constant for the cost of one subtree-local operation:
    # visits <= 25*log2(m+1) + 25
    import math
    budget = 25 * math.log2(m + 1) + 25
    rng = random.Random(m)
    keys = list(range(m))
    rng.shuffle(keys)
    for target in rng.sample(range(m), min(m, 12)):
        tree = build_baseline(keys)
        eng = tree.engine
        node = eng.root
        while node.key != target:
            node = node.left if target < node.key else node.right
        before = eng.visits
        ops.split(eng, node)
        split_cost = eng.visits - before
        assert split_cost <= budget, (m, target, split_cost, budget)
        before = eng.visits
        ops.join_at(eng, node)
        join_cost = eng.visits - before
        assert join_cost <= budget, (m, target, join_cost, budget)


def test_black_height_measure():
    tree = build_baseline(list(range(31)))
    eng = tree.engine
    h = ops.black_height(eng, eng.root, 1)
    assert h >= 1
    # joining two equal trees under a fresh middle grows the height by one
    other = build_baseline(list(range(100, 131)))
    mid = Node(50, 1)
    root, bh = ops.join3(eng, eng.root, h, mid, other.engine.root,
                         ops.black_height(other.engine, other.engine.root, 1), 1)
    assert bh == h + 1 and root is mid
    assert_valid_rb(root)
