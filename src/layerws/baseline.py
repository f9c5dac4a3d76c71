"""Plain red-black tree on the same engine, as a comparison baseline.

Every node carries layer label 1, so the whole tree is one layer-subtree
and the shared fixup routines apply unscoped.  Costs run through the same
cursor counter as the layered tree, which makes per-operation visit counts
directly comparable.
"""

from __future__ import annotations

from .engine import Engine, Node
from .errors import DuplicateKeyError, MissingKeyError
from . import layer_ops as ops


class RedBlackBaseline:
    def __init__(self):
        self.engine = Engine()
        self.size = 0

    def __len__(self):
        return self.size

    def keys(self):
        return self.engine.inorder_keys(self.size)

    def search(self, key) -> int | None:
        eng = self.engine
        eng.begin_access()
        node = eng.descend_to(key)
        return 1 if node is not None else None

    def insert(self, key):
        eng = self.engine
        eng.begin_access()
        if eng.root is None:
            node = Node(key, 1, red=False)
            eng.root = node
            eng.node = node
            eng.visits += 1
            self.size = 1
            return
        if eng.descend_to(key) is not None:
            raise DuplicateKeyError(key)
        parent = eng.node
        node = Node(key, 1)
        if key < parent.key:
            parent.left = node
        else:
            parent.right = node
        node.parent = parent
        eng.arrive(node)
        self.size += 1
        ops.insert_fixup(eng, node)

    def delete(self, key):
        eng = self.engine
        eng.begin_access()
        node = eng.descend_to(key)
        if node is None:
            raise MissingKeyError(key)
        self.size -= 1
        if node.left is not None and node.right is not None:
            _, _, short = ops.splice_nearest(eng, node, True)
            if short is not None:
                ops.delete_fixup(eng, *short)
            return
        child = node.left if node.left is not None else node.right
        parent = node.parent
        right_side = parent is not None and parent.right is node
        was_black = not node.red
        eng.replace_subtree(node, child)
        eng.visits += 2
        eng.node = child if child is not None else parent
        if not was_black:
            return
        if child is not None and child.red:
            child.red = False
            return
        if parent is not None:
            ops.delete_fixup(eng, parent, right_side)
        # a black leaf that was the root leaves nothing to fix
