import random

from layerws.engine import Engine, Node


def chain_tree():
    """1 -> 2 -> 3 as a right spine, all layer 1."""
    eng = Engine()
    a, b, c = Node(1, 1), Node(2, 1), Node(3, 1)
    a.right = b
    b.parent = a
    b.right = c
    c.parent = b
    eng.root = a
    return eng, a, b, c


def balanced_123():
    eng = Engine()
    two, one, three = Node(2, 1), Node(1, 1), Node(3, 1)
    two.left = one
    two.right = three
    one.parent = three.parent = two
    eng.root = two
    return eng


def test_search_hit_costs_two_visits():
    eng = balanced_123()
    eng.begin_access()
    node = eng.descend_to(3)
    assert node is not None and node.key == 3
    assert eng.visits == 2  # root entry + one step


def test_search_miss_stops_at_leaf():
    eng = balanced_123()
    eng.begin_access()
    node = eng.descend_to(5)
    assert node is None
    assert eng.node.key == 3
    assert eng.visits == 2


def test_search_empty_tree():
    eng = Engine()
    assert eng.begin_access() is None
    assert eng.descend_to(1) is None
    assert eng.visits == 1  # the root entry is still paid


def test_rotate_left_twice_lifts_spine():
    eng, a, b, c = chain_tree()
    eng.rotate(a, left=True)
    assert eng.root is b and b.left is a and b.right is c
    eng.rotate(b, left=True)
    assert eng.root is c
    assert eng.inorder_keys() == [1, 2, 3]


def test_rotate_inverse_pair_restores_shape():
    eng = balanced_123()
    root = eng.root
    eng.rotate(root, left=True)
    new_root = eng.root
    eng.rotate(new_root, left=False)
    assert eng.root is root
    assert root.left.key == 1 and root.right.key == 3
    assert eng.inorder_keys() == [1, 2, 3]


def test_rotate_preserves_inorder_on_random_tree():
    rng = random.Random(11)
    for _ in range(25):
        eng = Engine()
        for key in rng.sample(range(1000), 50):
            node = Node(key, 1)
            if eng.root is None:
                eng.root = node
                continue
            cur = eng.root
            while True:
                nxt = cur.left if key < cur.key else cur.right
                if nxt is None:
                    break
                cur = nxt
            if key < cur.key:
                cur.left = node
            else:
                cur.right = node
            node.parent = cur
        before = eng.inorder_keys()
        rotatable = [n for n in eng.iter_nodes() if n.left is not None or n.right is not None]
        victim = rng.choice(rotatable)
        eng.rotate(victim, left=victim.right is not None)
        assert eng.inorder_keys() == before


def test_rotate_requires_same_layer():
    eng, a, b, c = chain_tree()
    c.layer = 2
    import pytest
    with pytest.raises(AssertionError):
        eng.rotate(b, left=True)


def test_detached_rotation_leaves_root_alone():
    eng, a, b, c = chain_tree()
    frag = Node(10, 1)
    kid = Node(11, 1)
    frag.right = kid
    kid.parent = frag
    eng.rotate(frag, left=True)
    assert eng.root is a  # fragment rotations never touch the tree root
    assert kid.left is frag


def test_inorder_keys():
    eng = Engine()
    assert eng.inorder_keys() == []
    eng2 = balanced_123()
    assert eng2.inorder_keys() == [1, 2, 3]


def test_visits_are_monotone():
    eng = balanced_123()
    seen = [eng.visits]
    for key in (1, 3):
        eng.begin_access()
        eng.descend_to(key)
        seen.append(eng.visits)
    assert seen == sorted(seen)
    assert seen[-1] > seen[0]
