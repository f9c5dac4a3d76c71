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


def corrupt_header(tree: LayeredTree, layer_count=None, last_size=None):
    if layer_count is not None:
        tree.layer_count = layer_count
    if last_size is not None:
        tree.last_size = last_size


def _find(tree: LayeredTree, key: int) -> Node:
    """The node holding ``key``, by a plain descent that bypasses the cursor."""
    node = tree.engine.root
    while node is not None and node.key != key:
        node = node.left if key < node.key else node.right
    assert node is not None, f"corruption target {key} missing"
    return node
