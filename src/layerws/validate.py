"""Structural validators.

Every invariant the structures promise is checkable here by plain
traversal (no cursor accounting): search-tree order, parent links, label
monotonicity, the layer size schedule, per-layer-subtree red-black
validity, recency queue consistency, agreement of every entry of the
tree's books (its per-layer size record) with the walk, and the per-node
depth bound.  Each failure is reported with a witness (a key or a layer
index) so corruption can be pinpointed.

``validate_band`` applies these rules in two walks.  The fast walk keeps
no report state and stops at the first broken rule, so a clean band,
which is what every passing operation leaves, costs one recursion (and
the queue pass, when asked for).  Only when the fast walk finds a fault
does the reporting walk run: it applies the same rules to the same
fields, lists every violation in a fixed order, and is the only writer
of reports.  A report is therefore byte for byte what the reporting walk
alone would give; the fast walk only decides whether one is written.
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
    """What a walk gathers about one layer of a band (the fast walk leaves
    ``roots`` empty)."""

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


def validate_band(root: Node | None, base: int, sizes: dict[int, int],
                  complete: bool = False,
                  check_queues: bool = True) -> list[Violation]:
    """Validate the band rooted at ``root`` against its books ``sizes``
    (relative layer -> key count), which must name exactly the layers
    1..t, labels base+1..base+t.

    ``complete`` means no deeper band may hang below this one (a plain
    standalone tree); inside a composition deeper bands are fine and are
    validated separately.

    The fast walk (``_clean_scans``) runs first.  On a clean band it
    hands the queue pass the layer ends and key map it gathered, and the
    queue pass's findings are the result; at a fault the reporting walk
    (``_report_band``) writes the whole report.
    """
    nodes: dict[int, Node] | None = {} if check_queues else None
    scans = _clean_scans(root, base, sizes, complete, nodes)
    if scans is None:
        return _report_band(root, base, sizes, complete, check_queues)
    out: list[Violation] = []
    if check_queues:
        t = len(sizes)
        for m in range(1, t + 1):
            _check_queue(m, scans[m], scans[m + 1] if m < t else None,
                         nodes, base + m, out)
    return out


class _Fault(Exception):
    """The fast walk met a broken rule."""


def _clean_scans(root: Node | None, base: int, sizes: dict[int, int],
                 complete: bool,
                 nodes: dict[int, Node] | None) -> list[_LayerScan] | None:
    """The fast walk: every rule of ``_report_band`` except the queue pass,
    in one recursion that hands black heights up the tree.

    Returns None at the first broken rule (a RecursionError counts as one).
    On a clean band it returns [] or, when ``nodes`` is given, the
    per-layer scans (counts, queue ends and carriers, in the reporting
    walk's order) after filling ``nodes`` with key -> node.
    """
    t = len(sizes)
    if root is None:
        return [] if t == 0 else None
    if not 1 <= t <= MAX_LAYERS or sorted(sizes) != list(range(1, t + 1)) \
            or sizes[t] < 1 or root.layer != base + 1:
        return None
    p = root.parent
    if p is not None and (complete or p.layer >= root.layer):
        return None
    top = base + t
    counts = [0] * (top + 1)  # by label
    gather = nodes is not None
    scans = [_LayerScan() for _ in range(t + 1)] if gather else None

    def walk(n: Node, plab: int, room: int, lo, hi) -> int:
        """Check ``n`` and the band below it.  ``n`` hangs from a node
        labelled ``plab``, and ``room`` is the depth limit of that label
        minus the depth of ``n``.  Returns the black height of ``n`` if
        it shares its parent's layer, else 0.  The caller has checked
        ``n.parent``."""
        lab = n.layer
        if lab != plab:
            if lab > top:
                if complete:
                    raise _Fault
                return 0  # deeper band: validated by its own tree
            if lab < plab or n.red:
                raise _Fault
            room += DEPTH_LIMITS[lab - base] - DEPTH_LIMITS[plab - base]
            red = False
        else:
            red = n.red
            if red and n.parent.red:
                raise _Fault
        key = n.key
        if room < 0 or not lo < key < hi:
            raise _Fault
        counts[lab] += 1
        if gather:
            nodes[key] = n
            scan = scans[lab - base]
            if n.older is None:
                scan.oldest.append(n)
            if n.younger is None:
                scan.youngest.append(n)
            if n.next_layer is not None:
                scan.carriers.append(n)
        room -= 1
        # right before left: the reporting walk's pre-order
        c = n.right
        if c is None:
            rbh = 0
        elif c.parent is not n:
            raise _Fault
        else:
            rbh = walk(c, lab, room, key, hi)
        c = n.left
        if c is None:
            lbh = 0
        elif c.parent is not n:
            raise _Fault
        else:
            lbh = walk(c, lab, room, lo, key)
        if lbh != rbh:
            raise _Fault
        if lab != plab:
            return 0
        return lbh if red else lbh + 1

    inf = float("inf")
    try:
        walk(root, base, 0, -inf, inf)
    except (_Fault, RecursionError):
        return None
    for m in range(1, t + 1):
        got = counts[base + m]
        if got != sizes[m] or not (got == capacity(m) if m < t else 1 <= got <= capacity(m)):
            return None
    if not gather:
        return []
    for m in range(1, t + 1):
        scans[m].count = sizes[m]
    return scans


def _report_band(root: Node | None, base: int, sizes: dict[int, int],
                 complete: bool, check_queues: bool) -> list[Violation]:
    """The reporting walk: every violation of the band, in report order.

    One pre-order walk checks order, labels, parent links and depth and
    gathers, per layer, the counts, layer-subtree roots and queue ends;
    black heights then come from one reverse pass over the walk, and each
    recency queue is followed once from its oldest member.
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
        out.append(Violation("layer-shape", root.key,
                             f"band root has label {root.layer}, wanted {base + 1}"))
    if complete and root.parent is not None:
        out.append(Violation("parent-link", root.key,
                             f"tree root {root.key} names parent {root.parent.key}"))

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
        for c, clo, chi in ((n.left, lo, key), (n.right, key, hi)):
            if c is None:
                continue
            if c.parent is not n:
                named = None if c.parent is None else c.parent.key
                out.append(Violation("parent-link", c.key,
                                     f"key {c.key} hangs from {key} but names parent {named}"))
            push((c, depth + 1, clo, chi))

    # sizes
    for m in range(1, t + 1):
        got = scans[m].count
        if m < t and got != capacity(m):
            out.append(Violation("layer-size", m,
                                 f"layer {m} holds {got}, schedule wants {capacity(m)}"))
        if m == t and not 1 <= got <= capacity(m):
            out.append(Violation("layer-size", m,
                                 f"deepest layer holds {got}, allowed 1..{capacity(m)}"))
        if got != sizes[m]:
            out.append(Violation("header", "last_size" if m == t else m,
                                 f"layer {m} holds {got}, the books say {sizes[m]}"))

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
        tree.engine.root, tree.base, tree.sizes,
        complete=True,
        check_queues=check_queues,
    )
