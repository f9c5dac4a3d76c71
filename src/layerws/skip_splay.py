"""Static skip-splay composition over layered working-set trees.

The universe {1..n}, n = 2^(2^(k-1)) - 1, starts as a perfectly balanced
tree.  Nodes at heights 1, 2, 4, ..., 2^(k-1) head auxiliary trees: band b
is the levels between consecutive marked heights, below the height-2^b
root of each of its auxiliary trees.  Each auxiliary tree is a layered
working-set tree over its keys; stacking their label ranges (each band's
labels start where the enclosing band's end) makes the whole arrangement
one binary search tree in which every band's machinery works unchanged,
deeper bands hanging off boundary positions like any deeper-layer subtree.

All auxiliary trees of a band have the same size, and a layered tree reads
its keys only through comparisons, so after ascending inserts they are one
tree up to a relabelling of keys.  So each band has one ``LayeredTree``,
built by inserting the ranks 0..m-1.  Its nodes are the template every
auxiliary tree of the band is cloned from (rank r becomes the aux's r-th
smallest key in the key and queue fields); the tree itself, moved onto the
shared engine, is the band machine that runs the searches of all of them.
Its books, the per-layer size record, are every aux tree's: a search moves
one key up and pushes one per layer crossed down, leaving the sizes as
they were.

An access descends to the key, searches it inside its auxiliary tree, then
repeatedly skips to the parent of the just-rearranged band and searches
that parent in its own band, the next band up, to the root.  Each band
search starts at the cursor, which already sits on the key it looks for,
so it pays no climb to the band root and no descent back.  Keys never move
between auxiliary trees.  Insertions and deletions are not supported.
"""

from __future__ import annotations

from .engine import Engine, Node
from .errors import DictError, MissingKeyError
from .layered_tree import LayeredTree, band_members
from .validate import Violation, validate_band


def _height(key: int) -> int:
    """Height of ``key`` in the perfect tree over 1..2^H - 1 (leaves = 1)."""
    return (key & -key).bit_length()


def _band_of_height(h: int) -> int:
    return (h - 1).bit_length()


def _ancestor_at(key: int, h: int) -> int:
    """The height-``h`` ancestor of ``key`` in the perfect tree."""
    return ((key >> h) << h) | (1 << (h - 1))


def _aux_root_key(key: int) -> int:
    band = _band_of_height(_height(key))
    return _ancestor_at(key, 1 << band) if band else key


def _band_size(band: int) -> int:
    return (1 << (1 << (band - 1))) - 1 if band >= 1 else 1


def _members(root_key: int) -> range:
    """The keys of the auxiliary tree rooted at ``root_key``, ascending: the
    multiples of 2^(h // 2) in the root's height-h subtree (h = 2^band)."""
    h = _height(root_key)
    half, step = 1 << (h - 1), 1 << (h >> 1)
    return range(root_key - half + step, root_key + half, step)


class SkipSplayTree:
    def __init__(self, k: int):
        if not 2 <= k <= 5:
            raise ValueError("size parameter outside 2..5")
        self.k = k
        self.n = (1 << (1 << (k - 1))) - 1
        self.engine = Engine()
        self.bands: list[LayeredTree] = []  # band machines, bottom band first
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        base, templates = 0, []  # peel label ranges off the top band downward
        for band in range(self.k - 1, -1, -1):
            tree = LayeredTree(base=base)
            for rank in range(_band_size(band)):
                tree.insert(rank)
            base += tree.layer_count
            template = list(tree.engine.iter_nodes())  # the node of rank r at r
            # the boundary slot of each gap, left to right: (rank, right side)
            slots = [(t.key, right) for t in template
                     for right, c in ((False, t.left), (True, t.right)) if c is None]
            templates.insert(0, (template, slots, tree.engine.root.key))
            tree.engine = self.engine
            self.bands.insert(0, tree)
        self.engine.root = self._clone(templates, self.k - 1, (self.n + 1) >> 1)

    def _clone(self, templates, band: int, root_key: int) -> Node:
        """Clone the auxiliary tree rooted at ``root_key`` from its band's
        template, hang the clones of the aux trees below it at the boundary
        slots, and return its root node."""
        template, slots, root_rank = templates[band]
        keys = _members(root_key)
        nodes = [Node(key, t.layer, t.red) for key, t in zip(keys, template)]
        for node, t in zip(nodes, template):
            if t.left is not None:
                node.left = c = nodes[t.left.key]
                c.parent = node
            if t.right is not None:
                node.right = c = nodes[t.right.key]
                c.parent = node
            if t.older is not None:
                node.older = keys[t.older]
            if t.younger is not None:
                node.younger = keys[t.younger]
            if t.next_layer is not None:
                node.next_layer = keys[t.next_layer]
        if band:  # a child aux root sits halfway between two members
            step = keys.step
            children = range(keys.start - (step >> 1), keys.stop, step)
            for (rank, right), child_key in zip(slots, children):
                node, child = nodes[rank], self._clone(templates, band - 1, child_key)
                if right:
                    node.right = child
                else:
                    node.left = child
                child.parent = node
        return nodes[root_rank]

    # -- access -----------------------------------------------------------------

    def access(self, key: int) -> int:
        """One skip-splay access; returns its cursor cost."""
        if not 1 <= key <= self.n:
            raise MissingKeyError(key)
        eng = self.engine
        start = eng.visits
        eng.begin_access()
        node = eng.descend_to(key)
        assert node is not None
        bands = self.bands
        band = ((key & -key).bit_length() - 1).bit_length()
        tree = bands[band]
        tree.search(key, fresh=False)
        while True:
            band_root = eng.ascend_to_subtree_root(tree.base)
            parent = band_root.parent
            if parent is None:
                break
            eng.arrive(parent)
            band += 1
            tree = bands[band]
            tree.search(parent.key, fresh=False)
        return eng.visits - start

    def access_doubled(self, key: int) -> int:
        """Two consecutive accesses; the pair is the costed unit."""
        return self.access(key) + self.access(key)

    def insert(self, key):
        raise DictError("skip-splay structures are static: no insertions")

    def delete(self, key):
        raise DictError("skip-splay structures are static: no deletions")

    # -- inspection ----------------------------------------------------------------

    def aux_depth(self, key: int) -> int:
        """Number of auxiliary trees on the root path of ``key``'s aux."""
        return self.k - _band_of_height(_height(key))

    def aux_assignment(self) -> dict[int, int]:
        return {key: _aux_root_key(key) for key in range(1, self.n + 1)}

    def validate(self) -> list[Violation]:
        out: list[Violation] = []
        membership: list[Violation] = []  # reported after the order checks
        roots: dict[int, Node] = {}  # aux root key -> its subtree root node
        # one walk: global search-tree order, label monotonicity, the key
        # count, and each auxiliary tree's subtree root
        prev = None
        count = 0
        for node in self.engine.iter_nodes():
            count += 1
            key = node.key
            if prev is not None and key <= prev:
                out.append(Violation("bst-order", key, f"key {key} out of order after {prev}"))
            prev = key
            p = node.parent
            if p is not None and p.layer > node.layer:
                out.append(Violation("layer-monotone", key,
                                     f"label {node.layer} under parent label {p.layer}"))
            if not 1 <= key <= self.n:
                membership.append(Violation("aux-membership", key, "key outside every aux"))
                continue
            root_key = _aux_root_key(key)
            if p is None or p.layer <= self.bands[_band_of_height(_height(root_key))].base:
                if root_key in roots:
                    membership.append(Violation("aux-membership", key,
                                                f"aux of {root_key} has two subtree roots"))
                roots[root_key] = node
        if count != self.n:
            out.append(Violation("bst-order", count, f"universe holds {count} of {self.n} keys"))
        out.extend(membership)

        # each auxiliary tree passes the full layered-tree suite
        for aux_key, node in roots.items():
            band = self.bands[_band_of_height(_height(aux_key))]
            out.extend(validate_band(node, band.base, band.sizes))
            members = band_members(node, band.base, band.layer_count)
            got = sorted(k for layer in members.values() for k in layer)
            if got != list(_members(aux_key)):
                out.append(Violation("aux-membership", aux_key,
                                     f"aux of {aux_key} drifted to {got[:8]}..."))
        return out
