"""The layered working-set tree.

One binary search tree whose nodes carry layer labels 1..t, non-decreasing
along every root-to-leaf path.  Layer j holds exactly 2^(2^j) keys for
j < t; the deepest layer holds the remainder.  Each layer is a forest of
independently balanced red-black layer-subtrees, and an implicit recency
queue threads through each layer via the older/younger key fields stored
in the nodes.  The tree's books are one record, ``sizes``:
relative layer -> key count, naming exactly the layers 1..t between
operations, so t is its length and n its sum.  It is O(log log n) words
kept beside the root pointer, so a rotation that changes the root moves
no bookkeeping.

A search that finds its key in layer j costs O(2^j) cursor visits: the key
is moved up to layer 1 and the oldest resident of each layer 1..j-1 is
pushed down one layer to restore the size schedule, the paper's own order
of steps.  A hit that is already the youngest of layer 1 changes nothing
and pays only its descent.  An insert is a hit in the deepest layer: the
new key hangs as a leaf of layer t, or of a new layer t+1 when layer t is
full, is counted there, and takes the hit's path from there, so the books
never name a layer below the one the push-down opens.  On a stream of
searches and inserts every key of layers 1..j-1 is newer than every key of
layer j, so a key only reaches layer j after 2^(2^(j-1)) distinct newer
accesses and the search cost is logarithmic in the key's working-set
number.  Deletes break that order: a delete refills the drained layer with
the youngest key of the layer below and files it as the youngest of its
new layer, so afterwards a search can find a key in layer j >= 2 with
fewer than 2^(2^(j-1)) distinct newer accesses.  Insertion and deletion
run through every layer and cost O(log n).

Moving a key between layers needs the youngest and oldest keys of the
layers it passes.  The tree keeps them with the books, in a record of
queue ends: two lists indexed by relative layer 1..MAX_LAYERS, holding the
oldest and the youngest key of each layer 1..t and None beyond.  The moves
write the record wherever they change an end, so it is exact between
operations, a lookup of any end is one paid ``_goto``, and a neighbour's
queue fields are written while that lookup has the cursor on it.  This
stays inside the one-cursor model: the record holds at most 2*MAX_LAYERS
keys, O(log log n) words like the books and the search key itself, and it
holds keys, not node pointers, so every node whose fields are read or
written, apart from the node being moved, is reached by the cursor
through a paid ``_goto``.  That walk is a finger search along parent
links: it climbs only until an ancestor brackets the wanted key (at most
to the band root) and descends from there, and it costs nothing when the
cursor already sits on the wanted node.

A move across several layers touches only the queues it changes: a hit in
layer j leaves its queue once and is filed as the youngest of layer 1
once, and a delete leaves its queue once before sinking below the deepest
layer.  A fresh leaf is in no queue: its recency fields hold the sentinel
older == younger == key, so its move up only files it.  Each layer
crossed gets only the structural step (split, relabel, fixup going up;
sink, join going down).  Filing the key into a crossed layer m and
unlinking it again would be a round trip: it restores m's queue and m's
entries in the record, and split, join and the fixups never read queue
fields.  So the tree after every operation is node for node the one a
move of one layer at a time gives; only the cursor walks less.

The push-down after a hit in layer j is one plain ``_move_down`` per layer
1..j-1: the step for layer m reaches o_m, the oldest of layer m, through
the record, unlinks it, which makes its younger neighbour the oldest of m,
files it as the youngest of layer m+1 behind the youngest the record
names, and sinks it.  Each step writes every link and entry it changes.

The tree can also operate as a band inside a larger tree (``base`` label
offset); labels then run base+1..base+t and the machinery anchors at the
band's subtree root instead of the global root.  The skip-splay
composition stacks such bands.  Its band searches pass ``fresh=False``,
which means the cursor is on the key: the search starts there.  It runs
one only when that key is not already the youngest of the band's first
layer.  One band machine runs the searches of every auxiliary tree of its
band, so the composition keeps each aux tree's record of queue ends and
hands it to the band machine for the search.
"""

from __future__ import annotations

from .engine import Engine, Node, band_nodes
from .errors import CapacityError, DuplicateKeyError, MissingKeyError
from . import layer_ops as ops

MAX_LAYERS = 5


def capacity(j: int) -> int:
    """Key capacity of layer j: 4, 16, 256, 65536, 2**32."""
    if not 1 <= j <= MAX_LAYERS:
        raise CapacityError(f"layer index {j} outside 1..{MAX_LAYERS}")
    return 1 << (1 << j)


class LayeredTree:
    """Dictionary over integer keys with the worst-case working-set bound."""

    def __init__(self, base: int = 0):
        self.engine = Engine()
        self.base = base
        self.sizes: dict[int, int] = {}
        # the record of queue ends, (oldest keys, youngest keys) indexed by
        # relative layer 1..MAX_LAYERS: exact for the layers the books name,
        # None for every other
        self.ends = [None] * (MAX_LAYERS + 1), [None] * (MAX_LAYERS + 1)

    @property
    def layer_count(self) -> int:
        return len(self.sizes)

    def __len__(self):
        return sum(self.sizes.values())

    def keys(self) -> list[int]:
        return self.engine.inorder_keys(len(self))

    # -- cursor-paid lookups --------------------------------------------------

    def _goto(self, key: int) -> Node:
        """Walk the cursor to ``key``'s node by finger search: nowhere when
        it already sits there, else up the parent links to the first
        ancestor whose key brackets ``key`` from the far side, or to the
        band root if none does, and down from there by a plain descent.

        Every node on the way is a paid arrival.  The walk is exact: an
        ancestor reached from its left child has every key between it and
        the cursor's key in its subtree (the mirror for the right child),
        so no key above it can be the wanted one.
        """
        eng = self.engine
        node = eng.node
        k = node.key
        if k == key:
            return node
        base = self.base
        visits = 0
        # one climb per side: this is the tree's hottest loop, and a side
        # test on every step of it measured slower
        if key > k:
            while True:
                p = node.parent
                if p is None or p.layer <= base:
                    break
                node = p
                visits += 1
                if p.key >= key:
                    break
        else:
            while True:
                p = node.parent
                if p is None or p.layer <= base:
                    break
                node = p
                visits += 1
                if p.key <= key:
                    break
        k = node.key
        try:
            # the descent
            while k != key:
                node = node.left if key < k else node.right
                k = node.key
                visits += 1
        except AttributeError:  # the descent ran off the tree
            raise AssertionError(f"key {key} vanished from the tree") from None
        eng.node = node
        eng.visits += visits
        return node

    # -- implicit queue maintenance -------------------------------------------

    def _queue_remove(self, x: Node, j: int):
        """Unlink ``x`` from layer j's recency queue, repairing its
        neighbours and the record."""
        old, young = self.ends
        xo, xy = x.older, x.younger
        x.older = x.younger = x.key  # sentinel: not a queue member right now
        if xy is None:
            young[j] = xo
            if xo is None:
                old[j] = None
            else:
                self._goto(xo).younger = None
        elif xo is None:
            old[j] = xy
            self._goto(xy).older = None
        else:
            self._goto(xo).younger = xy
            self._goto(xy).older = xo

    # -- inter-layer moves ------------------------------------------------------

    def _file_youngest(self, x: Node, recv: int):
        """Record ``x`` as the youngest of layer ``recv``, and write that
        into the queue fields of its new older neighbour, the youngest so
        far, which the record names.  Returns that neighbour's key, the
        older link ``x`` takes: None when ``x`` opens the layer."""
        old, young = self.ends
        key = x.key
        y_key = young[recv]
        young[recv] = key
        if y_key is None:
            old[recv] = key
        else:
            self._goto(y_key).younger = key
        return y_key

    def _move_up(self, x: Node, to: int):
        """Move ``x`` up to layer ``to``; it becomes the youngest there.

        ``x`` leaves its queue once and is filed into layer ``to`` once;
        each layer it crosses on the way gets only the structural step
        (split, relabel, fixup).  A fresh insert, marked by the sentinel
        ``younger == key``, is in no queue to leave.  ``to == j`` happens
        only in layer 1 and crosses nothing: a fresh leaf of a one-layer
        tree is just filed, and a search hit is filed before it is
        unlinked, so the walk to layer 1's youngest starts from the key.
        """
        j = x.layer - self.base
        sizes = self.sizes
        assert 1 <= to <= j, f"no upward move from layer {j} to {to}"
        assert sizes.get(to, 0) > 0, "moving up into an empty layer"
        queued = x.younger != x.key
        if queued and to < j:
            self._queue_remove(x, j)
        y_key = self._file_youngest(x, to)
        if to == j:
            if queued:
                self._queue_remove(x, j)
        else:
            eng = self.engine
            lab = x.layer
            for _ in range(j - to):
                ops.split(eng, x)
                x.layer = lab = lab - 1
                p = x.parent
                if p is not None and p.layer == lab:
                    ops.insert_fixup(eng, x)
                else:
                    x.red = False
            sizes[j] -= 1
            sizes[to] += 1

        x.older = y_key
        x.younger = None

    def _sink_to_boundary(self, x: Node):
        """Turn ``x`` into a boundary leaf of its layer-subtree, relabel it
        one layer deeper, and repair the vacated black height.

        With an in-layer child, the nearest in-layer key on that side (the
        successor when there is a right one) is spliced into ``x``'s place,
        and ``x`` re-hangs as the boundary leaf between its predecessor and
        successor, adopting the two deeper-layer subtrees whose keys
        bracket it.  A leaf is relabelled where it is.
        """
        eng = self.engine
        lab = x.layer
        succ = x.right is not None and x.right.layer == lab
        if not succ and not (x.left is not None and x.left.layer == lab):
            parent = x.parent
            x.layer += 1
            if parent is None or parent.layer != lab:
                return  # lone layer-subtree: relabelled in place
            eng.visits += 1
            if not x.red:
                ops.delete_fixup(eng, parent, parent.right is x)
            return

        s, near, short = ops.splice_nearest(eng, x, succ)
        # x's slot faces s: below s itself, or below the in-layer key
        # nearest x in the subtree s took over from x on the other side
        inner = s.left if succ else s.right
        if inner is not None and inner.layer == lab:
            q, far = ops.spine_end(eng, inner, not succ)
            at_right = succ
        else:
            q, far, at_right = s, inner, not succ
        if at_right:
            q.right = x
        else:
            q.left = x
        x.parent = q
        if succ:
            x.left = far
            x.right = near
        else:
            x.left = near
            x.right = far
        if far is not None:
            far.parent = x
        if near is not None:
            near.parent = x
        x.layer += 1
        eng.visits += 2
        if short is not None:
            ops.delete_fixup(eng, *short)

    def _move_down(self, x: Node):
        """Move ``x`` one layer down; it becomes the youngest there."""
        j = x.layer - self.base
        recv = j + 1
        self._queue_remove(x, j)
        y_key = self._file_youngest(x, recv)
        self._sink_to_boundary(x)
        ops.join_at(self.engine, x)
        x.older = y_key
        x.younger = None
        sizes = self.sizes
        sizes[j] -= 1
        sizes[recv] = sizes.get(recv, 0) + 1

    # -- restoring the size schedule ----------------------------------------------

    def _push_down(self, deficit: int):
        """Push the oldest key of each layer 1..deficit-1 down one layer."""
        oldest = self.ends[0]
        for m in range(1, deficit):
            self._move_down(self._goto(oldest[m]))

    # -- public operations -----------------------------------------------------------

    def search(self, key: int, fresh: bool = True) -> int | None:
        """Look up ``key``; on a hit, returns the layer it was found in and
        promotes it to the recency front.  A miss changes nothing.

        A fresh search enters at the root.  ``fresh=False`` means the
        cursor is on the key: the search starts there and pays no walk to
        reach it."""
        eng = self.engine
        if fresh:
            eng.visits += 1  # the pointer is handed in at the root
            eng.node = eng.root
            node = eng.descend_to(key)
        else:
            node = eng.node
            assert node.key == key, f"a band search for {key} starts on key {node.key}"
        if node is None:
            return None
        j = node.layer - self.base
        if j == 1 and node.younger is None:
            return 1  # already the youngest: the cursor reads it free
        self._move_up(node, 1)
        self._push_down(j)
        return j

    def insert(self, key: int):
        """Add ``key`` as a hit in the deepest layer: hang it as a leaf of
        layer t, or of a new layer t+1 when layer t is full, count it there,
        then move it up to layer 1 and push the oldest keys down, as
        ``search`` does with a hit in that layer."""
        eng = self.engine
        eng.begin_access()
        if eng.root is None:
            node = Node(key, self.base + 1, red=False)
            eng.root = node
            eng.node = node
            eng.visits += 1
            self.sizes = {1: 1}
            old, young = self.ends
            old[1] = young[1] = key
            return
        if eng.descend_to(key) is not None:
            raise DuplicateKeyError(key)
        sizes = self.sizes
        j = len(sizes)
        if sizes[j] == capacity(j):
            if j >= MAX_LAYERS:
                raise CapacityError(f"tree is full at {MAX_LAYERS} layers")
            j += 1  # the key opens layer j; the push-down fills it
        lab = self.base + j
        parent = eng.node
        node = Node(key, lab)
        node.older = node.younger = key  # sentinel: in no queue yet
        if key < parent.key:
            parent.left = node
        else:
            parent.right = node
        node.parent = parent
        eng.arrive(node)
        if parent.layer == lab:
            ops.insert_fixup(eng, node)
        sizes[j] = sizes.get(j, 0) + 1
        self._move_up(node, 1)
        self._push_down(j)

    def delete(self, key: int):
        """Remove ``key``: unlink it from its queue, sink it below the
        deepest layer, unlink the leaf, then refill each drained layer with
        the youngest of the layer below."""
        eng = self.engine
        eng.begin_access()
        node = eng.descend_to(key)
        if node is None:
            raise MissingKeyError(key)
        t = self.layer_count
        j = node.layer - self.base
        self._queue_remove(node, j)
        for _ in range(t - j + 1):
            self._sink_to_boundary(node)
            ops.join_at(eng, node)
        assert node.left is None and node.right is None, "evictee must be a leaf"
        eng.replace_subtree(node, None)
        eng.visits += 1
        eng.node = node.parent  # None once the lone key is gone
        self.sizes[j] -= 1
        youngest = self.ends[1]
        for m in range(j, t):
            self._move_up(self._goto(youngest[m + 1]), m)
        if self.sizes[t] == 0:  # layer t drained
            del self.sizes[t]

    # -- non-model inspection -----------------------------------------------------

    def layer_snapshot(self) -> dict[int, list[int]]:
        """Recency order (youngest first) of every layer; bypasses the cursor."""
        if self.base != 0:
            raise ValueError("a band's layers hang below its subtree root, not the engine's")
        out: dict[int, list[int]] = {}
        members: dict[int, dict[int, Node]] = {}  # key -> node, by layer
        for n in band_nodes(self.engine.root, 0, self.layer_count or MAX_LAYERS + 1):
            layer = members.setdefault(n.layer, {})
            if layer.get(n.key) is n:
                raise AssertionError(f"the walk reaches key {n.key} twice: a cycle of child links?")
            layer[n.key] = n
        for rel, nodes in sorted(members.items()):
            heads = [n for n in nodes.values() if n.younger is None]
            if len(heads) != 1:
                raise AssertionError(f"layer {rel}: {len(heads)} queue heads")
            order = []
            n = heads[0]
            seen = set()
            while n is not None:
                if n.key in seen:
                    raise AssertionError(f"layer {rel}: recency cycle at {n.key}")
                seen.add(n.key)
                order.append(n.key)
                n = nodes.get(n.older) if n.older is not None else None
            if len(order) != len(nodes):
                raise AssertionError(f"layer {rel}: queue reaches {len(order)} of {len(nodes)}")
            out[rel] = order
        return out
