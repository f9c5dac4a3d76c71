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
they were.  Each template is read once, into labels, colours and links by
rank, so a clone reads no template node.  The aux trees of bands 0 and 1
hold one key each, 49 152 of the 53 505 at k = 5; they are not cloned one
by one, but hung, each a fresh node with its band's label and colour, in
the boundary slots of the band-2 aux tree being cloned.

An access descends to the key, searches it inside its auxiliary tree, then
repeatedly skips to the parent of the just-rearranged band and searches
that parent in its own band, the next band up, to the root.  It is one
walk: each band search starts at the cursor, which already sits on the key
it looks for, so it pays no climb to the band root and no descent back,
and the climb from where the search leaves the cursor to the band root and
one step out pays one visit per node.  A band search that finds the
youngest key of the band's first layer changes nothing and costs nothing,
so the walk enters a band machine only when the key it holds is elsewhere
in its band.  Keys never move between auxiliary trees.  Insertions and
deletions are not supported.
"""

from __future__ import annotations

import gc

from .engine import Engine, Node, nodes_in_order
from .errors import DictError, MissingKeyError
from .layered_tree import LayeredTree
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


def _template(tree: LayeredTree):
    """A band's clone plan, by rank (the node of rank r holds key r): each
    node's (label, colour); its child links as (parent, child) rank pairs,
    left and right; its queue fields as (rank, older, younger, next_layer);
    the boundary slot of each gap, left to right, as (rank, right side); and
    the root's rank."""
    nodes = list(tree.engine.iter_nodes())
    shape = [(t.layer, t.red) for t in nodes]
    lefts = [(t.key, t.left.key) for t in nodes if t.left is not None]
    rights = [(t.key, t.right.key) for t in nodes if t.right is not None]
    queues = [(t.key, t.older, t.younger, t.next_layer) for t in nodes
              if (t.older, t.younger, t.next_layer) != (None, None, None)]
    slots = [(t.key, right) for t in nodes
             for right, c in ((False, t.left), (True, t.right)) if c is None]
    return shape, lefts, rights, queues, slots, tree.engine.root.key


class SkipSplayTree:
    def __init__(self, k: int):
        if not 2 <= k <= 5:
            raise ValueError("size parameter outside 2..5")
        self.k = k
        self.n = (1 << (1 << (k - 1))) - 1
        self.engine = Engine()
        self.bands: list[LayeredTree] = []  # band machines, bottom band first
        # the build's new nodes would set off collections that walk them all
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._build()
        finally:
            if collecting:
                gc.enable()

    # -- construction -------------------------------------------------------

    def _build(self):
        base, templates = 0, []  # peel label ranges off the top band downward
        for band in range(self.k - 1, -1, -1):
            tree = LayeredTree(base=base)
            for rank in range(_band_size(band)):
                tree.insert(rank)
            base += tree.layer_count
            templates.insert(0, _template(tree))
            tree.engine = self.engine
            tree.ends = None  # a band machine's searches keep no pair of layer-1 ends
            self.bands.insert(0, tree)
        self.engine.root = self._clone(templates, self.k - 1, (self.n + 1) >> 1)

    def _clone(self, templates, band: int, root_key: int) -> Node:
        """Clone the auxiliary tree rooted at ``root_key`` from its band's
        template, hang the aux trees below it at the boundary slots, and
        return its root node.  The aux trees of bands 1 and 0 hold one key
        each, so a band-2 clone hangs them itself, each a fresh node with
        its band's label and colour, instead of cloning them one call each."""
        shape, lefts, rights, queues, slots, root_rank = templates[band]
        keys = _members(root_key)
        nodes = [Node(key, layer, red) for key, (layer, red) in zip(keys, shape)]
        for p, c in lefts:
            parent, child = nodes[p], nodes[c]
            parent.left = child
            child.parent = parent
        for p, c in rights:
            parent, child = nodes[p], nodes[c]
            parent.right = child
            child.parent = parent
        for r, older, younger, next_layer in queues:
            node = nodes[r]
            node.older = None if older is None else keys[older]
            node.younger = None if younger is None else keys[younger]
            node.next_layer = None if next_layer is None else keys[next_layer]
        if band:  # a child aux root sits halfway between two members
            step = keys.step
            children = range(keys.start - (step >> 1), keys.stop, step)
            (one,), (leaf,) = templates[1][0], templates[0][0]  # (label, colour)
            for (rank, right), key in zip(slots, children):
                if band == 2:  # a band-1 node over its two band-0 leaves
                    child = Node(key, *one)
                    child.left = lo = Node(key - 1, *leaf)
                    child.right = hi = Node(key + 1, *leaf)
                    lo.parent = hi.parent = child
                else:
                    child = self._clone(templates, band - 1, key)
                parent = nodes[rank]
                if right:
                    parent.right = child
                else:
                    parent.left = child
                child.parent = parent
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
        climbed = 0  # visits of the climbs the engine has not been charged yet
        while True:
            tree = bands[band]
            base = tree.base
            # the youngest of layer 1 is a band search that changes nothing
            if node.layer != base + 1 or node.younger is not None:
                eng.node = node
                eng.visits += climbed
                climbed = 0
                tree.search(node.key, fresh=False)
                node = eng.node
            parent = node.parent  # climb to the band root, then one step out
            while parent is not None and parent.layer > base:
                node = parent
                parent = node.parent
                climbed += 1
            if parent is None:
                break
            node = parent
            climbed += 1
            band += 1
        eng.node = node
        eng.visits += climbed
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
        # count, each key's aux membership, and each aux tree's subtree root
        prev = None
        count = 0
        root = self.engine.root
        if root.parent is not None:  # the top aux tree may then have no subtree root to check
            out.append(Violation("parent-link", root.key, f"tree root {root.key} names parent {root.parent.key}"))
        for node in nodes_in_order(root, self.n):
            if node is None:
                return [Violation("depth-bound", root.key, f"the walk from the root reached more "
                                  f"than {self.n} nodes (a cycle of child links?)")]
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
            # A label in its aux tree's band is all membership needs.  With no other
            # violation the tree is a BST over exactly the keys 1..n, so every subtree
            # holds a contiguous range of keys.  Two aux trees of one band are separated
            # in key order by their common ancestor in the perfect tree, which belongs
            # to a higher band, and higher bands carry smaller labels.  That ancestor
            # cannot sit below either aux tree's nodes without a layer-monotone fault,
            # so one aux tree's nodes cannot reach another's keys.
            band = self.bands[_band_of_height(_height(key))]
            if not band.base < node.layer <= band.base + band.layer_count:
                membership.append(Violation("aux-membership", key, f"label {node.layer} outside its "
                                            f"band's labels {band.base + 1}..{band.base + band.layer_count}"))
            if p is None or p.layer <= band.base:
                root_key = _aux_root_key(key)
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
        return out
