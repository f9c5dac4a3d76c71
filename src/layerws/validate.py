"""Structural validators.

Every invariant the structures promise is checkable here by plain
traversal (no cursor accounting): search-tree order, parent links, label
monotonicity, the layer size schedule, per-layer-subtree red-black
validity, recency queue consistency, agreement of every entry of the
tree's books (its per-layer size record) with the walk, and the per-node
depth bound.  Each failure is reported with a witness (a key or a layer
index) so corruption can be pinpointed.

``validate_band`` applies them in one recursive walk that appends each
violation where it finds it and hands black heights up as return values.
A clean band, which is what every passing operation leaves, costs that
one recursion (and the queue pass, when asked for); only a faulty one
gets a second, short pass over its layer-subtree roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Node, band_nodes
from .layered_tree import LayeredTree, capacity, MAX_LAYERS

# depth(x) <= sum_{k=1..layer(x)} (2*2^k + 2), depth in edges from the band root
DEPTH_LIMITS = [0]
for _k in range(1, MAX_LAYERS + 2):
    DEPTH_LIMITS.append(DEPTH_LIMITS[-1] + 2 * (1 << _k) + 2)


@dataclass
class Violation:
    kind: str
    witness: object
    message: str

    def __str__(self):
        return f"{self.kind}[{self.witness}]: {self.message}"


class _LayerScan:
    """What the walk gathers about one layer of a band for the queue pass:
    its count, its members without an older link and without a younger
    link, and its members holding a next_layer key."""

    __slots__ = ("count", "oldest", "youngest", "carriers")

    def __init__(self):
        self.count, self.oldest, self.youngest, self.carriers = 0, [], [], []


def _outside(key: int, lo, hi) -> Violation:
    return Violation("bst-order", key, f"key {key} outside interval ({lo}, {hi})")


def _red_red(n: Node, child: Node) -> Violation:
    return Violation("rb-red-red", n.key, f"red {n.key} has red child {child.key}")


def _unbalanced(n: Node, lbh: int, rbh: int) -> Violation:
    return Violation("rb-black-height", n.key, f"black heights {lbh} vs {rbh} below key {n.key}")


def _root_color(sub: Node, out: list[Violation]):
    if sub.red:
        out.append(Violation("rb-root-red", sub.key, "layer-subtree root is red"))


def check_red_black(root: Node, out: list[Violation]) -> int:
    """Red-black validity of the layer-subtree at ``root``; returns its
    black height.  Faults come in left-first post-order."""
    _root_color(root, out)
    lab = root.layer
    bh: dict[Node, int] = {}
    for n in reversed(list(band_nodes(root, lab - 1, 1))):  # every child before its parent
        left, right = n.left, n.right
        lbh = bh[left] if left is not None and left.layer == lab else 0
        rbh = bh[right] if right is not None and right.layer == lab else 0
        if lbh != rbh:
            out.append(_unbalanced(n, lbh, rbh))
        if n.red:
            for c in (left, right):
                if c is not None and c.layer == lab and c.red:
                    out.append(_red_red(n, c))
        bh[n] = lbh if n.red else lbh + 1
    return bh[root]


class _BandWalk:
    """One walk over a band: its state is on an object, so each recursive call carries one reference."""

    __slots__ = ("base", "top", "complete", "out", "limits", "counts", "faults", "nodes", "scans")

    def __init__(self, base: int, t: int, complete: bool, out: list[Violation], check_queues: bool):
        self.base, self.top, self.complete, self.out = base, base + t, complete, out
        self.limits = [0] * base + DEPTH_LIMITS  # by label
        self.counts = [0] * (base + t + 1)  # by label
        # red-black faults by node, as found ([] for a red node where a label begins)
        self.faults: dict[Node, list[Violation]] = {}
        self.nodes: dict[int, Node] = {}  # key -> node, for following the queues
        self.scans = [_LayerScan() for _ in range(t + 1)] if check_queues else None

    def walk(self, n: Node, plab: int | None, room: int, lo, hi) -> int:
        """Check ``n`` and the band below it.  ``n`` hangs from a node labelled
        ``plab`` that its parent link names; ``room`` is that label's depth
        limit minus the depth of ``n``.  For the band root and a child whose
        parent link names another node, ``plab`` is None, ``room`` is minus
        the depth, and the label rules read the parent link.  Returns the
        black height of ``n`` if its label is ``plab`` or that is None, else 0."""
        lab = n.layer
        key = n.key
        red = n.red
        if lab != plab:
            if lab > self.top:
                if self.complete:
                    self.out.append(Violation("layer-size", lab, f"key {key} labeled {lab} "
                                              f"beyond deepest layer {self.top - self.base}"))
                return 0  # deeper band: validated by its own tree
            if lab <= self.base:
                self.out.append(Violation("layer-monotone", key, f"label {lab} above the band base {self.base}"))
                return 0
            if red:
                self.faults.setdefault(n, [])
            if not lo < key < hi:
                self.out.append(_outside(key, lo, hi))
            if plab is None:
                up = self.base if n.parent is None else n.parent.layer
                room += self.limits[lab]
                plab = lab  # hand the black height up; the caller decides if it counts
            else:
                up = plab
                room += self.limits[lab] - self.limits[plab]
            if up > lab:
                self.out.append(Violation("layer-monotone", key, f"label {lab} under parent label {up}"))
        else:
            if red and n.parent.red:
                self.faults.setdefault(n.parent, []).append(_red_red(n.parent, n))
            if not lo < key < hi:
                self.out.append(_outside(key, lo, hi))
        if room < 0:
            self.out.append(Violation("depth-bound", key, f"depth {self.limits[lab] - room} "
                                      f"exceeds limit for layer {lab - self.base}"))
        self.counts[lab] += 1
        if self.scans:
            self.nodes[key] = n
            scan = self.scans[lab - self.base]
            if n.older is None:
                scan.oldest.append(n)
            if n.younger is None:
                scan.youngest.append(n)
            if n.next_layer is not None:
                scan.carriers.append(n)
        left = n.left
        right = n.right
        # both parent links are checked before the right subtree is walked
        if left is not None and left.parent is not n:
            rbh, lbh = self.strays(n, room - 1, lo, hi)
        elif right is None:
            rbh = 0
            lbh = 0 if left is None else self.walk(left, lab, room - 1, lo, key)
        elif right.parent is not n:
            rbh, lbh = self.strays(n, room - 1, lo, hi)
        else:
            rbh = self.walk(right, lab, room - 1, key, hi)
            lbh = 0 if left is None else self.walk(left, lab, room - 1, lo, key)
        if lbh != rbh:
            self.faults.setdefault(n, []).append(_unbalanced(n, lbh, rbh))
        if lab != plab:
            return 0
        return lbh if red else lbh + 1

    def strays(self, n: Node, room: int, lo, hi) -> list[int]:
        """Walk the children of ``n`` (``room`` is theirs) when a child's parent
        link names another node: such links are reported, left first, then a
        stray child is walked as the band root is, and its black height counts
        only if it shares ``n``'s label.  Returns the right and left heights."""
        key, lab = n.key, n.layer
        for c in (n.left, n.right):
            if c is not None and c.parent is not n:
                named = getattr(c.parent, "key", None)
                self.out.append(Violation("parent-link", c.key,
                                          f"key {c.key} hangs from {key} but names parent {named}"))
        heights = []
        for c, clo, chi in ((n.right, key, hi), (n.left, lo, key)):
            if c is None or c.parent is n:
                heights.append(0 if c is None else self.walk(c, lab, room, clo, chi))
            else:
                bh = self.walk(c, None, room - self.limits[lab], clo, chi)
                if c.layer == lab and n.red and c.red:
                    self.faults.setdefault(n, []).append(_red_red(n, c))
                heights.append(bh if c.layer == lab else 0)
        return heights


def validate_band(root: Node | None, base: int, sizes: dict[int, int],
                  complete: bool = False,
                  check_queues: bool = True) -> list[Violation]:
    """Validate the band rooted at ``root`` against its books ``sizes``
    (relative layer -> key count), which must name exactly the layers
    1..t, labels base+1..base+t.

    ``complete`` means no deeper band may hang below this one (a plain
    standalone tree); inside a composition deeper bands are fine and are
    validated separately.

    The report's order is fixed: in a pre-order walk, right before left,
    each node's interval, label and depth faults, then its children's
    parent links, left first; the per-layer counts; the first layer's
    shape; the red-black faults, per layer-subtree root in walk order (a
    red root, then the subtree's faults in left-first post-order); the
    queue pass.  A walk past the recursion limit (a child-link cycle, or a
    chain far past every depth limit) gives one ``depth-bound`` instead.
    """
    out: list[Violation] = []
    t = len(sizes)
    if root is None:
        if t != 0:
            out.append(Violation("header", "t", f"empty tree but the books name layers {sorted(sizes)}"))
        return out
    if not 1 <= t <= MAX_LAYERS or sorted(sizes) != list(range(1, t + 1)):
        out.append(Violation("header", "t",
                             f"the books name layers {sorted(sizes)}, not 1..t for t in 1..{MAX_LAYERS}"))
        return out
    if sizes[t] < 1:
        out.append(Violation("header", "t", f"the books' deepest layer {t} holds {sizes[t]}"))
        return out

    if root.layer != base + 1:
        out.append(Violation("layer-shape", root.key, f"band root has label {root.layer}, wanted {base + 1}"))
    if complete and root.parent is not None:
        out.append(Violation("parent-link", root.key, f"tree root {root.key} names parent {root.parent.key}"))

    band = _BandWalk(base, t, complete, out, check_queues)
    try:
        band.walk(root, None, 0, -float("inf"), float("inf"))
    except RecursionError:
        return [Violation("depth-bound", root.key, f"the band below key {root.key} is "
                          "deeper than the walk can follow (a cycle of child links?)")]

    for m in range(1, t + 1):
        got, cap = band.counts[base + m], capacity(m)
        if check_queues:
            band.scans[m].count = got
        if m < t and got != cap:
            out.append(Violation("layer-size", m, f"layer {m} holds {got}, schedule wants {cap}"))
        if m == t and not 1 <= got <= cap:
            out.append(Violation("layer-size", m, f"deepest layer holds {got}, allowed 1..{cap}"))
        if got != sizes[m]:
            out.append(Violation("header", "last_size" if m == t else m,
                                 f"layer {m} holds {got}, the books say {sizes[m]}"))

    # a first-layer root besides the band root needs a label or parent-link
    # fault; the band root is one unless its parent link names its label
    faults = band.faults
    p = root.parent
    if out or faults or p is not None and p.layer == root.layer:
        roots: list[list[Node]] = [[] for _ in range(t + 1)]  # by layer, in the walk's order
        for n in band_nodes(root, base, t):
            if n.parent is None or n.parent.layer != n.layer:  # a layer-subtree root
                roots[n.layer - base].append(n)
        if roots[1] != [root]:
            out.append(Violation("layer-shape", 1, "first layer is not a single subtree at the root"))
        for m in range(1, t + 1) if faults else ():
            for sub in roots[m]:
                _root_color(sub, out)
                # listed as found (children's red-red, right first, then black heights): reverse
                for n in reversed(list(band_nodes(sub, sub.layer - 1, 1))):
                    out.extend(reversed(faults.get(n, ())))

    if check_queues:
        for m in range(1, t + 1):
            _check_queue(m, band.scans[m], band.scans[m + 1] if m < t else None,
                         band.nodes, base + m, out)
    return out


def _check_queue(m: int, scan: _LayerScan, below: _LayerScan | None,
                 nodes: dict[int, Node], lab: int, out: list[Violation]):
    if not scan.count:
        return
    if len(scan.oldest) != 1 or len(scan.youngest) != 1:
        out.append(Violation("queue-chain", m,
                             f"layer {m} has {len(scan.oldest)} oldest and {len(scan.youngest)} youngest"))
        return
    oldest, youngest = scan.oldest[0], scan.youngest[0]
    # walk oldest -> youngest; it can end only on a member of this layer
    # with no younger link, which the band walk listed as the one youngest
    seen = 0
    n = oldest
    while True:
        seen += 1
        if seen > scan.count:
            out.append(Violation("queue-chain", m, f"layer {m} queue cycles"))
            return
        nxt = n.younger
        if nxt is None:
            break
        peer = nodes.get(nxt)
        if peer is None or peer.layer != lab:
            out.append(Violation("queue-chain", m,
                                 f"younger link of {n.key} leaves the layer ({nxt})"))
            return
        if peer.older != n.key:
            out.append(Violation("queue-chain", m,
                                 f"older/younger disagree between {n.key} and {peer.key}"))
            return
        n = peer
    if seen != scan.count:
        out.append(Violation("queue-chain", m,
                             f"layer {m} queue covers {seen} of {scan.count}"))
        return
    if below is not None and below.count:
        want_old = below.oldest[0].key if len(below.oldest) == 1 else None
        want_young = below.youngest[0].key if len(below.youngest) == 1 else None
        if oldest.next_layer != want_old:
            out.append(Violation("queue-nextlayer", oldest.key,
                                 f"oldest of layer {m} names {oldest.next_layer}, below's oldest is {want_old}"))
        if youngest.next_layer != want_young:
            out.append(Violation("queue-nextlayer", youngest.key,
                                 f"youngest of layer {m} names {youngest.next_layer}, below's youngest is {want_young}"))
    else:
        if oldest.next_layer is not None:
            out.append(Violation("queue-nextlayer", oldest.key,
                                 f"oldest of layer {m} names {oldest.next_layer} but nothing is below"))
        if youngest.next_layer is not None:
            out.append(Violation("queue-nextlayer", youngest.key,
                                 f"youngest of layer {m} names {youngest.next_layer} but nothing is below"))
    for n in scan.carriers:
        if n is oldest or n is youngest:
            continue
        out.append(Violation("queue-nextlayer", n.key,
                             f"interior member {n.key} carries a next-layer key"))


def validate_tree(tree: LayeredTree, check_queues: bool = True) -> list[Violation]:
    """Full invariant sweep of one layered tree."""
    return validate_band(
        tree.engine.root, tree.base, tree.sizes,
        complete=True,
        check_queues=check_queues,
    )
