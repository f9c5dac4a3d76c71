"""Fault injectors for tests and demos: each corrupts one field of a
layered tree behind its back, so the validators and the comparator have
something to find.  Production code never calls them."""

from __future__ import annotations

from .engine import Node
from .layered_tree import LayeredTree


def corrupt_color(tree: LayeredTree, key: int):
    node = _find(tree, key)
    node.red = not node.red


def corrupt_layer(tree: LayeredTree, key: int, new_layer: int):
    node = _find(tree, key)
    node.layer = new_layer


def corrupt_queue_swap(tree: LayeredTree, key: int):
    node = _find(tree, key)
    node.older, node.younger = node.younger, node.older


def corrupt_next_layer(tree: LayeredTree, key: int, value):
    node = _find(tree, key)
    node.next_layer = value


def corrupt_parent(tree: LayeredTree, key: int, parent):
    """Point the parent link of ``key`` at the node holding ``parent``, or
    at None."""
    node = _find(tree, key)
    node.parent = None if parent is None else _find(tree, parent)


def corrupt_sizes(tree: LayeredTree, layers=None, deepest=None):
    """Rewrite the books, the per-layer ``sizes`` record: ``layers`` adds
    empty layers or drops the deeper entries, ``deepest`` sets the deepest
    entry."""
    sizes = tree.sizes
    if layers is not None:
        for m in range(len(sizes) + 1, layers + 1):
            sizes[m] = 0
        for m in range(layers + 1, len(sizes) + 1):
            del sizes[m]
    if deepest is not None:
        sizes[len(sizes)] = deepest


def _find(tree: LayeredTree, key: int) -> Node:
    """The node holding ``key``, by a plain descent that bypasses the cursor."""
    node = tree.engine.lookup(key)
    assert node is not None, f"corruption target {key} missing"
    return node
