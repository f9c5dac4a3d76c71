"""The cost currency against the binary-search-tree model.

In the standard model an access pays for every node it touches (Sleator
and Tarjan, J. ACM 1985).  Many of the structures' charges are batched
and name no node (a spine walk, a fixup, a rotation's three), so the
visits an operation is charged are checked from outside: hooks on
``Node.__setattr__`` and on the engine's cursor record the nodes it
reached or changed, and no operation of the golden matrix may reach or
change more distinct nodes than the visits it is charged.

An operation reaches or changes:

- every node one of whose fields it writes, a node it creates included;
- every cursor position, with the tree path from the position before it,
  except that a jump to the root (the pointer handed in) reaches only the
  root.

The hooks are installed on the classes for the replay and removed in
``finally``; nothing of them is in the package.
"""

from contextlib import contextmanager

import pytest

from layerws import LayeredTree, RedBlackBaseline, SkipSplayTree
from layerws.engine import Engine, Node
from layerws.workload import SEARCH, GeneratorSpec, generate

from test_finger import step_of
from test_golden import GOLDEN


def tree_path(a, b):
    """The nodes on the tree path from ``a`` to ``b``, ``a`` left out."""
    up = [a]
    while up[-1].parent is not None:
        up.append(up[-1].parent)
    rank = {n: i for i, n in enumerate(up)}
    down = []
    n = b
    while n not in rank:
        down.append(n)
        n = n.parent
    return up[1:rank[n] + 1] + down


@contextmanager
def touch_audit():
    """Yield the set of nodes reached or changed since it was last cleared."""
    assert "__setattr__" not in vars(Node) and "__setattr__" not in vars(Engine)
    touched = set()
    write = object.__setattr__

    def node_write(node, name, value):
        touched.add(node)
        write(node, name, value)

    def engine_write(eng, name, value):
        if name == "node" and value is not None:
            old = getattr(eng, "node", None)
            if old is None or value is eng.root:
                touched.add(value)
            else:
                touched.update(tree_path(old, value))
        write(eng, name, value)

    Node.__setattr__ = node_write
    Engine.__setattr__ = engine_write
    try:
        yield touched
    finally:
        del Node.__setattr__, Engine.__setattr__


def assert_no_op_touches_more_than_it_pays(structure, steps):
    eng = structure.engine
    with touch_audit() as touched:
        for i, step in enumerate(steps):
            touched.clear()
            before = eng.visits
            step(structure)
            assert len(touched) <= eng.visits - before, \
                f"op {i} reaches or changes {len(touched)} nodes and pays {eng.visits - before}"


def band_searches():
    """The keys of the skip-splay golden cells' trace (``_band_searches``)."""
    spec = GeneratorSpec("repeat_block", 255, 255 + 1500, seed=9, width=4)
    return [op.key for op in generate(spec) if op.kind == SEARCH]


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_layered_tree_pays_for_every_node_it_touches(cell):
    assert_no_op_touches_more_than_it_pays(
        LayeredTree(), map(step_of, generate(GeneratorSpec(*cell))))


def test_red_black_baseline_pays_for_every_node_it_touches():
    assert_no_op_touches_more_than_it_pays(
        RedBlackBaseline(), map(step_of, generate(GeneratorSpec("uniform", 300, 1500, 3))))


@pytest.mark.parametrize("doubled", [False, True])
def test_skip_splay_pays_for_every_node_it_touches(doubled):
    tree = SkipSplayTree(4)
    access = SkipSplayTree.access_doubled if doubled else SkipSplayTree.access
    assert_no_op_touches_more_than_it_pays(
        tree, (lambda t, key=key: access(t, key) for key in band_searches()))
