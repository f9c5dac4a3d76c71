"""Static skip-splay composition over layered working-set trees.

The universe {1..n}, n = 2^(2^(k-1)) - 1, starts as a perfectly balanced
tree.  Nodes at heights 1, 2, 4, ..., 2^(k-1) head auxiliary trees: the
band of levels between consecutive marked heights.  Each auxiliary tree is
rebuilt as an independent layered working-set tree; stacking their label
ranges (each band's labels start where the enclosing band's end) makes the
whole arrangement one binary search tree in which every band's machinery
works unchanged, deeper bands hanging off boundary positions like any
deeper-layer subtree.

An access descends to the key, searches it inside its auxiliary tree, then
repeatedly skips to the parent of the just-rearranged band and searches
that parent in its own band, up to the root.  Each band search starts at
the cursor, which already sits on the key it looks for, so it pays no
climb to the band root and no descent back.  Keys never move between
auxiliary trees.  Insertions and deletions are not supported.
"""

from __future__ import annotations

from .engine import Engine
from .errors import DictError, MissingKeyError
from .layered_tree import LayeredTree, band_members, capacity
from .validate import Violation, validate_band


class _Aux:
    __slots__ = ("root_key", "band", "tree", "members")

    def __init__(self, root_key: int, band: int, tree: LayeredTree, members: tuple):
        self.root_key = root_key
        self.band = band
        self.tree = tree
        self.members = members


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


def _layers_for(m: int) -> int:
    """Layer count of a layered tree after m plain insertions."""
    t, total = 1, capacity(1)
    while m > total:
        t += 1
        total += capacity(t)
    return t


class SkipSplayTree:
    def __init__(self, k: int):
        if not 2 <= k <= 5:
            raise ValueError("size parameter outside 2..5")
        self.k = k
        self.n = (1 << (1 << (k - 1))) - 1
        self.engine = Engine()
        self.aux_of: dict[int, _Aux] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        n, k = self.n, self.k
        groups: dict[int, list[int]] = {}
        for key in range(1, n + 1):
            groups.setdefault(_aux_root_key(key), []).append(key)

        # peel label ranges off the top band downward
        base_of_band = {}
        base = 0
        for band in range(k - 1, -1, -1):
            base_of_band[band] = base
            base += _layers_for(_band_size(band))

        auxes: dict[int, _Aux] = {}
        for root_key, members in groups.items():
            band = _band_of_height(_height(root_key))
            assert len(members) == _band_size(band), \
                f"band {band} holds {len(members)} keys, construction promises {_band_size(band)}"
            tree = LayeredTree(engine=Engine(), base=base_of_band[band],
                               node_header=False)
            members.sort()
            for key in members:
                tree.insert(key)
            auxes[root_key] = _Aux(root_key, band, tree, tuple(members))

        # stitch child bands into the boundary slots of their parents
        for root_key, aux in sorted(auxes.items(), key=lambda kv: -kv[1].band):
            if aux.band == k - 1:
                continue
            parent_aux = auxes[_aux_root_key(_ancestor_at(root_key, _height(root_key) + 1))]
            slot = parent_aux.tree.engine.root
            child_root = aux.tree.engine.root
            while True:
                nxt = slot.left if child_root.key < slot.key else slot.right
                if nxt is None:
                    break
                slot = nxt
            if child_root.key < slot.key:
                slot.left = child_root
            else:
                slot.right = child_root
            child_root.parent = slot

        top = next(a for a in auxes.values() if a.band == k - 1)
        self.engine.root = top.tree.engine.root
        for aux in auxes.values():
            aux.tree.engine = self.engine
            for key in aux.members:
                self.aux_of[key] = aux

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
        aux = self.aux_of[key]
        aux.tree.search(key, fresh=False)
        while True:
            band_root = eng.ascend_to_subtree_root(aux.tree.base)
            parent = band_root.parent
            if parent is None:
                break
            eng.arrive(parent)
            aux = self.aux_of[parent.key]
            aux.tree.search(parent.key, fresh=False)
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
        return self.k - self.aux_of[key].band

    def aux_assignment(self) -> dict[int, int]:
        return {key: aux.root_key for key, aux in self.aux_of.items()}

    def validate(self) -> list[Violation]:
        out: list[Violation] = []
        # global search-tree order and label monotonicity
        prev = None
        count = 0
        for node in self.engine.iter_nodes():
            count += 1
            if prev is not None and node.key <= prev:
                out.append(Violation("bst-order", node.key,
                                     f"key {node.key} out of order after {prev}"))
            prev = node.key
            p = node.parent
            if p is not None and p.layer > node.layer:
                out.append(Violation("layer-monotone", node.key,
                                     f"label {node.layer} under parent label {p.layer}"))
        if count != self.n:
            out.append(Violation("bst-order", count, f"universe holds {count} of {self.n} keys"))

        # each auxiliary tree passes the full layered-tree suite
        roots: dict[int, object] = {}
        for node in self.engine.iter_nodes():
            aux = self.aux_of.get(node.key)
            if aux is None:
                out.append(Violation("aux-membership", node.key, "key outside every aux"))
                continue
            base = aux.tree.base
            p = node.parent
            if p is None or p.layer <= base:
                if aux.root_key in roots:
                    out.append(Violation("aux-membership", node.key,
                                         f"aux of {aux.root_key} has two subtree roots"))
                roots[aux.root_key] = node
        for aux_key, node in roots.items():
            aux = self.aux_of[aux_key]
            out.extend(validate_band(node, aux.tree.base, aux.tree.layer_count,
                                     aux.tree.last_size, expect_node_header=False))
            members = band_members(node, aux.tree.base, aux.tree.layer_count)
            got = sorted(k for layer in members.values() for k in layer)
            if got != list(aux.members):
                out.append(Violation("aux-membership", aux_key,
                                     f"aux of {aux_key} drifted to {got[:8]}..."))
        return out
