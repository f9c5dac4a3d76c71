"""The layered working-set tree.

One binary search tree whose nodes carry layer labels 1..t, non-decreasing
along every root-to-leaf path.  Layer j holds exactly 2^(2^j) keys for
j < t; the deepest layer holds the remainder.  Each layer is a forest of
independently balanced red-black layer-subtrees, and an implicit recency
queue threads through each layer via the older/younger/next_layer key
fields stored in the nodes.  The tree's books are one record, ``sizes``:
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
layers it passes.  An operation keeps them in a record of queue ends, two
lists indexed by relative layer 1..MAX_LAYERS+1.  The tree keeps its
layer-1 entries, the oldest and youngest key of layer 1, beside the root
pointer with the books, and exact between operations: every operation, a
band search too, starts from that pair with every deeper entry cleared,
so none scans layer 1.  The first lookup of a deeper end hops
the next_layer links down from layer 1's end, recording every end it
passes; the moves update the record wherever they change an end, so the
pair is exact again when the operation returns, a later lookup is one
paid ``_goto``, and a neighbour's queue fields are written while that
lookup has the cursor on it.  This stays inside the one-cursor model: the
record holds at most 2*(MAX_LAYERS+1) keys, O(log log n) words like the
books and the search key itself, and it holds keys, not node pointers, so
every node whose fields are read or written, apart from the node being
moved, is reached by the cursor through a paid ``_goto``.  That walk is a
finger search along parent links: it climbs only until an ancestor
brackets the wanted key (at most to the band root) and descends from
there, and it costs nothing when the cursor already sits on the wanted
node.  Only the pair outlives an operation: the next one clears every
deeper entry before it reads the record.

A move across several layers touches only the queues it changes: a hit in
layer j leaves its queue once and is filed as the youngest of layer 1
once, and a delete leaves its queue once before sinking below the deepest
layer.  A fresh leaf is in no queue: its recency fields hold the sentinel
older == younger == key, so its move up only files it.  Each layer
crossed gets only the structural step (split, relabel, fixup going up;
sink, join going down).  Filing the key into a crossed layer m and
unlinking it again would be a round trip: it restores m's queue and the
next_layer links of layer m-1, and split, join and the fixups never read
queue fields.  So the tree after
every operation is node for node the one a move of one layer at a time
gives; only the cursor walks less.

The push-down after a hit in layer j is one tour of the queue ends that
visits each end it writes once.  The step that pushes o_m, the oldest of
layer m, reaches it through the record, files it as the youngest of layer
m+1 and sinks it.  Two links it cannot know yet are left to the step after
it.  The pushed key keeps its next_layer: as the oldest of m it names o_m+1,
which the next step makes the youngest of layer m+2.  And the unlink of
o_m's younger neighbour, the new oldest of m, waits for the next step,
which reads the final link off o_m+1 (its younger neighbour) and writes
both fields of the neighbour in the one visit that aims the oldest of m.
Until then the pushed key names a key still one layer up, and the new
oldest of m still names o_m as older.  That is exact: the next step finds
both ends it needs, the oldest of m+1 and the youngest of m+2, in the
record, where the step before put the keys it read, so no lookup hops
through a link in flux, and split, join and the fixups never read queue
fields.  The last step writes everything at once.

The tree can also operate as a band inside a larger tree (``base`` label
offset); labels then run base+1..base+t and the machinery anchors at the
band's subtree root instead of the global root.  The skip-splay
composition stacks such bands.  Its band searches pass ``fresh=False``,
which means the cursor is on the key: the search starts there.  It runs
one only when that key is not already the youngest of the band's first
layer.  One band machine runs the searches of every auxiliary tree of its
band, so the composition keeps each aux tree's pair and hands it to the
band machine's record for the search.
"""

from __future__ import annotations

from .engine import Engine, Node, band_nodes
from .errors import CapacityError, DuplicateKeyError, MissingKeyError
from . import layer_ops as ops

MAX_LAYERS = 5


_DEEPER = (None,) * MAX_LAYERS  # a record's entries for layers 2..MAX_LAYERS+1, unknown


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
        # relative layer 1..MAX_LAYERS+1; between operations only its layer-1
        # entries mean anything: the pair, layer 1's oldest and youngest key
        # (None in an empty tree)
        self.ends = [None] * (MAX_LAYERS + 2), [None] * (MAX_LAYERS + 2)

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

    def _record(self):
        """The record of queue ends of an operation: the tree's own, holding
        layer 1's oldest and youngest key, with every deeper entry cleared."""
        old, young = ends = self.ends
        old[2:] = young[2:] = _DEEPER
        return ends

    def _extreme_in_layer(self, j: int, youngest: bool, ends) -> Node:
        """Youngest/oldest member of layer j.

        ``ends`` is the operation's record of queue ends.  A recorded end
        costs one paid ``_goto``; otherwise the walk starts at the deepest
        recorded end of the same side above j, which layer 1's always is,
        and hops ``next_layer`` down, recording every end it passes.
        """
        known = ends[youngest]
        if known[j] is not None:
            return self._goto(known[j])
        level = j - 1
        while known[level] is None:
            level -= 1
            assert level, "layer 1's ends are missing from the record"
        node = self._goto(known[level])
        while level < j:
            key = node.next_layer
            assert key is not None, f"missing next-layer link under layer {level}"
            node = self._goto(key)
            level += 1
            assert node.layer - self.base == level, "next-layer link strayed"
            known[level] = key
        return node

    # -- implicit queue maintenance -------------------------------------------

    def _queue_remove(self, x: Node, j: int, ends, ahead: bool = False):
        """Unlink ``x`` from layer j's recency queue, repairing neighbours
        and the boundary pointers held one layer up.

        ``ahead``: ``x`` is the oldest of j in a push-down step followed by
        one from layer j+1, which is left the unlink of x's younger
        neighbour (see the module docstring)."""
        xo, xy, xn = x.older, x.younger, x.next_layer
        x.older = x.younger = x.key  # sentinel: not a queue member right now
        if xo is None and xy is None:
            ends[0][j] = ends[1][j] = None
            if j >= 2 and self.sizes.get(j - 1, 0) > 0:
                self._extreme_in_layer(j - 1, True, ends).next_layer = None
                self._extreme_in_layer(j - 1, False, ends).next_layer = None
            return
        if xy is None:
            o = self._goto(xo)
            o.younger = None
            o.next_layer = xn
            ends[1][j] = xo
            if j >= 2:
                self._extreme_in_layer(j - 1, True, ends).next_layer = xo
            return
        if xo is None:
            if not ahead:
                y = self._goto(xy)
                y.older = None
                y.next_layer = xn
            ends[0][j] = xy
            ends[0][j + 1] = xn
            if j >= 2:
                o = self._extreme_in_layer(j - 1, False, ends)
                o.older = None  # in a tour, o's unlink was left to this step
                o.next_layer = xy
            return
        self._goto(xo).younger = xy
        self._goto(xy).older = xo

    # -- inter-layer moves ------------------------------------------------------

    def _file_youngest(self, x: Node, recv: int, ends):
        """Record ``x`` as the youngest of layer ``recv`` and write that into
        the queue fields of its new older neighbour while the lookup holds
        the cursor there; that neighbour's next key, the youngest of layer
        recv+1, goes into the record.  Returns the (older, next_layer) pair
        ``x`` takes."""
        key = x.key
        if not self.sizes.get(recv):
            ends[0][recv] = ends[1][recv] = key
            return None, None
        y = self._extreme_in_layer(recv, True, ends)
        ends[1][recv] = key
        x_next = y.next_layer
        if x_next is not None:
            ends[1][recv + 1] = x_next
        y.younger = key
        if y.older is not None:
            y.next_layer = None
        return y.key, x_next

    def _move_up(self, x: Node, to: int, ends):
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
            self._queue_remove(x, j, ends)
        y_key, x_next = self._file_youngest(x, to, ends)
        if to == j:
            if queued:
                self._queue_remove(x, j, ends)
        else:
            if to >= 2:
                self._extreme_in_layer(to - 1, True, ends).next_layer = x.key
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
        x.next_layer = x_next

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

    def _move_down(self, x: Node, ends, ahead: bool | None = None):
        """Move ``x`` one layer down; it becomes the youngest there.

        ``ahead`` is None outside a push-down tour, and in one says whether
        a step from the layer below follows (see ``_queue_remove``).  Only a
        tour's first step, from layer 1, aims the youngest of x's layer at
        ``x``: later, that youngest is the key the step before pushed, and
        its kept link names ``x`` already."""
        j = x.layer - self.base
        recv = j + 1
        if recv > MAX_LAYERS + 1:
            raise CapacityError(f"no layer below {MAX_LAYERS}")
        sizes = self.sizes
        self._queue_remove(x, j, ends, ahead)
        y_key, x_next = self._file_youngest(x, recv, ends)
        if sizes[j] > 1:  # layer j keeps members once x is gone
            key = x.key
            if ahead is None or j == 1:
                self._extreme_in_layer(j, True, ends).next_layer = key
            if y_key is None:  # x opens layer recv: it is its oldest too
                self._extreme_in_layer(j, False, ends).next_layer = key

        self._sink_to_boundary(x)
        ops.join_at(self.engine, x)

        x.older = y_key
        x.younger = None
        if not ahead:  # ahead, x keeps its link: see the module docstring
            x.next_layer = x_next
        sizes[j] -= 1
        sizes[recv] = sizes.get(recv, 0) + 1

    # -- restoring the size schedule ----------------------------------------------

    def _push_down(self, deficit: int, ends):
        """Push the oldest key of each layer 1..deficit-1 down one layer, in
        one tour of the queue ends that visits each end it writes once."""
        for m in range(1, deficit):
            self._move_down(self._extreme_in_layer(m, False, ends), ends, m + 1 < deficit)

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
        ends = self._record()
        self._move_up(node, 1, ends)
        self._push_down(j, ends)
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
        ends = self._record()
        self._move_up(node, 1, ends)
        self._push_down(j, ends)

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
        ends = self._record()
        self._queue_remove(node, j, ends)
        for _ in range(t - j + 1):
            self._sink_to_boundary(node)
            ops.join_at(eng, node)
        assert node.left is None and node.right is None, "evictee must be a leaf"
        eng.replace_subtree(node, None)
        eng.visits += 1
        eng.node = node.parent  # None once the lone key is gone
        self.sizes[j] -= 1
        for m in range(j, t):
            self._move_up(self._extreme_in_layer(m + 1, True, ends), m, ends)
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
