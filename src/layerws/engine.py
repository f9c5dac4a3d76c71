"""Node storage and the single-cursor access machinery.

Every structure in this package manipulates its tree through one Engine:
a pool of linked nodes, one cursor that moves only along parent/left/right
links, and a monotone counter of node arrivals.  The counter is the cost
model: an operation's cost is the number of nodes the cursor reached while
performing it, including every walk back toward the root.  Entering the
tree at the root costs one arrival.

Nodes carry, besides the three links and the key: one color bit, a layer
label, and two key-valued recency fields (older/younger).  A structure's
own books (a layered tree's per-layer sizes and queue ends) live beside
the engine's root pointer, not on any node, so a rotation or splice that
changes the root moves nothing but links.
"""

from __future__ import annotations

from typing import Optional


class Node:
    __slots__ = (
        "key", "parent", "left", "right",
        "red", "layer",
        "older", "younger",
    )

    def __init__(self, key: int, layer: int, red: bool = False):
        self.key = key
        self.parent: Optional[Node] = None
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.red = red
        self.layer = layer
        self.older: Optional[int] = None
        self.younger: Optional[int] = None

    def __repr__(self):
        color = "r" if self.red else "b"
        return f"Node({self.key}:{color}/L{self.layer})"


class Engine:
    """One tree, one cursor, one visit counter.

    ``node`` is the cursor position (None when detached, e.g. before the
    first access or after the tree empties).  ``visits`` never decreases.
    """

    __slots__ = ("root", "node", "visits")

    def __init__(self):
        self.root: Optional[Node] = None
        self.node: Optional[Node] = None
        self.visits = 0

    # -- cursor -----------------------------------------------------------

    def begin_access(self):
        """Start a fresh access: pointer handed in at the root (one arrival)."""
        self.visits += 1
        self.node = self.root
        return self.node

    def arrive(self, nxt: Node):
        """Move the cursor to an adjacent node."""
        assert nxt is not None
        self.node = nxt
        self.visits += 1
        return nxt

    def descend_to(self, key: int) -> Optional[Node]:
        """Standard BST descent from the cursor; returns the hit or None.

        On a miss the cursor stays on the last node before the absent
        child.  On an empty tree the cursor stays detached.
        """
        node = self.node
        if node is None:
            return None
        visits = 0
        k = node.key
        while k != key:
            nxt = node.left if key < k else node.right
            if nxt is None:
                self.node = node
                self.visits += visits
                return None
            node = nxt
            k = node.key
            visits += 1
        self.node = node
        self.visits += visits
        return node

    # -- structure --------------------------------------------------------

    def rotate(self, x: Node, left: bool):
        """Rotate at ``x``; the pivot child must share ``x``'s layer label.

        Costs three arrivals for the constant number of link updates.
        """
        pivot = x.right if left else x.left
        assert pivot is not None, "rotation needs a child on the pivot side"
        assert pivot.layer == x.layer, "rotations must not cross a layer boundary"
        inner = pivot.left if left else pivot.right
        if left:
            x.right = inner
            pivot.left = x
        else:
            x.left = inner
            pivot.right = x
        if inner is not None:
            inner.parent = x
        parent = x.parent
        pivot.parent = parent
        x.parent = pivot
        if parent is None:
            if self.root is x:  # detached fragments rotate without touching the root
                self.root = pivot
        elif parent.left is x:
            parent.left = pivot
        else:
            parent.right = pivot
        self.visits += 3

    def replace_subtree(self, old: Node, new: Optional[Node]):
        """Point ``old``'s parent at ``new`` instead (no cost: callers charge)."""
        parent = old.parent
        if new is not None:
            new.parent = parent
        if parent is None:
            if self.root is old:
                self.root = new
        elif parent.left is old:
            parent.left = new
        else:
            parent.right = new

    # -- non-model helpers (bypass the cursor; test/report support only) ---

    def lookup(self, key: int) -> Optional[Node]:
        """The node holding ``key``, or None, by a plain descent from the root."""
        node = self.root
        while node is not None and node.key != key:
            node = node.left if key < node.key else node.right
        return node

    def inorder_keys(self, limit=float("inf")) -> list[int]:
        """The keys in order.  A walk that reaches more than ``limit`` nodes
        raises AssertionError rather than following a cycle of child links."""
        keys = []
        for node in nodes_in_order(self.root, limit):
            if node is None:
                raise AssertionError(f"the walk from the root reached more than {limit} "
                                     f"nodes: a cycle of child links?")
            keys.append(node.key)
        return keys

    def iter_nodes(self):
        return nodes_in_order(self.root, float("inf"))


def nodes_in_order(root: Optional[Node], limit):
    """The nodes below ``root`` in key order.  A walk that reaches more than
    ``limit`` nodes (one too many, or a cycle of child links, which would
    never end) yields None and stops."""
    stack, node, reached = [], root, 0
    while stack or node is not None:
        while node is not None:
            reached += 1
            if reached > limit:
                yield None
                return
            stack.append(node)
            node = node.left
        node = stack.pop()
        yield node
        node = node.right


def band_nodes(root: Optional[Node], base: int, t: int):
    """The nodes labelled base+1..base+t that ``root`` reaches through such
    nodes alone, in pre-order, right subtree before left.  It keeps no
    visited set: a caller that may meet a child-link cycle must stop it."""
    stack = [root]
    while stack:
        n = stack.pop()
        if n is not None and base < n.layer <= base + t:
            yield n
            stack += n.left, n.right
