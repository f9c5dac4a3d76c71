"""Structural validators.

Every invariant the structures promise is checkable here by plain
traversal (no cursor accounting): search-tree order, label monotonicity,
the layer size schedule, per-layer-subtree red-black validity, recency
queue consistency, agreement of the tree's books (layer count, deepest
size) with the walk, and the per-node depth bound.  Each failure is
reported with a witness (a key or a layer index) so corruption can be
pinpointed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Node
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
    """What the pre-order walk gathers about one layer of a band."""

    __slots__ = ("count", "roots", "oldest", "youngest", "carriers")

    def __init__(self):
        self.count = 0
        self.roots: list[Node] = []     # layer-subtree roots, in walk order
        self.oldest: list[Node] = []    # members without an older link
        self.youngest: list[Node] = []  # members without a younger link
        self.carriers: list[Node] = []  # members holding a next_layer key


def _black_heights(order: list[Node], fault) -> dict[Node, int]:
    """Black height of every node of ``order`` within its layer-subtree.

    ``order`` holds whole layer-subtrees in a pre-order that pushes left
    before right, so read in reverse it is the left-first post-order: every
    child comes before its parent.  Red-black faults go to
    ``fault(node, violation)`` in that order.
    """
    bh: dict[Node, int] = {}
    for n in reversed(order):
        lab = n.layer
        left, right = n.left, n.right
        lbh = bh[left] if left is not None and left.layer == lab else 0
        rbh = bh[right] if right is not None and right.layer == lab else 0
        if lbh != rbh:
            fault(n, Violation("rb-black-height", n.key,
                               f"black heights {lbh} vs {rbh} below key {n.key}"))
        if n.red:
            for c in (left, right):
                if c is not None and c.layer == lab and c.red:
                    fault(n, Violation("rb-red-red", n.key,
                                       f"red {n.key} has red child {c.key}"))
            bh[n] = lbh
        else:
            bh[n] = lbh + 1
    return bh


def _root_color(sub: Node, out: list[Violation]):
    if sub.red:
        out.append(Violation("rb-root-red", sub.key, "layer-subtree root is red"))


def _subtree_order(root: Node) -> list[Node]:
    """Pre-order of the layer-subtree at ``root``, left pushed before right."""
    lab = root.layer
    order = []
    stack = [root]
    while stack:
        n = stack.pop()
        order.append(n)
        for c in (n.left, n.right):
            if c is not None and c.layer == lab:
                stack.append(c)
    return order


def check_red_black(root: Node, out: list[Violation]) -> int:
    """Red-black validity of the layer-subtree at ``root``; returns its
    black height."""
    _root_color(root, out)
    return _black_heights(_subtree_order(root), lambda n, v: out.append(v))[root]


def validate_band(root: Node | None, base: int, t: int, last_size: int,
                  complete: bool = False,
                  check_queues: bool = True) -> list[Violation]:
    """Validate the band of labels base+1..base+t rooted at ``root``.

    ``complete`` means no deeper band may hang below this one (a plain
    standalone tree); inside a composition deeper bands are fine and are
    validated separately.

    One pre-order walk checks order, labels and depth and gathers, per layer, the counts, layer-subtree roots and queue ends;
    black heights then come from one reverse pass over the walk, and each
    recency queue is followed once from its oldest member.
    """
    out: list[Violation] = []
    if root is None:
        if t != 0:
            out.append(Violation("header", "t", f"empty tree but layer count {t}"))
        return out
    if t < 1 or t > MAX_LAYERS:
        out.append(Violation("header", "t", f"layer count {t} outside 1..{MAX_LAYERS}"))
        return out

    if root.layer != base + 1:
        out.append(Violation("layer-shape", root.key,
                             f"band root has label {root.layer}, wanted {base + 1}"))

    scans = [_LayerScan() for _ in range(t + 1)]
    nodes: dict[int, Node] = {}  # key -> node, for following the queues
    order: list[Node] = []
    limits = [0] + [DEPTH_LIMITS[min(m, MAX_LAYERS + 1)] for m in range(1, t + 1)]
    inf = float("inf")
    # pre-order walk carrying (node, depth, key interval); prune below the band
    stack = [(root, 0, -inf, inf)]
    pop, push, visit = stack.pop, stack.append, order.append
    while stack:
        n, depth, lo, hi = pop()
        rel = n.layer - base
        if rel > t:
            if complete:
                out.append(Violation("layer-size", n.layer,
                                     f"key {n.key} labeled {n.layer} beyond deepest layer {t}"))
            continue  # deeper band: validated by its own tree
        if rel < 1:
            out.append(Violation("layer-monotone", n.key,
                                 f"label {n.layer} above the band base {base}"))
            continue
        key = n.key
        if not lo < key < hi:
            out.append(Violation("bst-order", key,
                                 f"key {key} outside interval ({lo}, {hi})"))
        p = n.parent
        if p is not None and p.layer > n.layer:
            out.append(Violation("layer-monotone", key,
                                 f"label {n.layer} under parent label {p.layer}"))
        if depth > limits[rel]:
            out.append(Violation("depth-bound", key,
                                 f"depth {depth} exceeds limit for layer {rel}"))
        visit(n)
        scan = scans[rel]
        scan.count += 1
        if p is None or p.layer != n.layer:
            scan.roots.append(n)
        if check_queues:
            nodes[key] = n
            if n.older is None:
                scan.oldest.append(n)
            if n.younger is None:
                scan.youngest.append(n)
            if n.next_layer is not None:
                scan.carriers.append(n)
        if n.left is not None:
            push((n.left, depth + 1, lo, key))
        if n.right is not None:
            push((n.right, depth + 1, key, hi))

    # sizes
    for m in range(1, t + 1):
        got = scans[m].count
        if m < t and got != capacity(m):
            out.append(Violation("layer-size", m,
                                 f"layer {m} holds {got}, schedule wants {capacity(m)}"))
        if m == t and not 1 <= got <= capacity(m):
            out.append(Violation("layer-size", m,
                                 f"deepest layer holds {got}, allowed 1..{capacity(m)}"))
        if m == t and got != last_size:
            out.append(Violation("header", "last_size",
                                 f"deepest layer holds {got}, the books say {last_size}"))

    first_roots = scans[1].roots
    if len(first_roots) != 1 or first_roots[0] is not root:
        out.append(Violation("layer-shape", 1, "first layer is not a single subtree at the root"))

    # red-black validity, reported per layer-subtree in left-first post-order
    faults: dict[Node, list[Violation]] = {}
    _black_heights(order, lambda n, v: faults.setdefault(n, []).append(v))
    for m in range(1, t + 1):
        for sub in scans[m].roots:
            _root_color(sub, out)
            if faults:
                for n in reversed(_subtree_order(sub)):
                    out.extend(faults.get(n, ()))

    if check_queues:
        for m in range(1, t + 1):
            _check_queue(m, scans[m], scans[m + 1] if m < t else None,
                         nodes, base + m, out)
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
    # walk oldest -> youngest
    seen = 0
    n = oldest
    while n is not None:
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
    if n is not youngest:
        out.append(Violation("queue-chain", m, f"layer {m} queue tail mismatch"))
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
        tree.engine.root, tree.base, tree.layer_count, tree.last_size,
        complete=True,
        check_queues=check_queues,
    )
