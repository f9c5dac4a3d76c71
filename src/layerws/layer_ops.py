"""Red-black balance operations scoped to a single layer-subtree.

A layer-subtree is a maximal connected group of nodes sharing one layer
label.  Its boundary positions are absent children and children carrying a
larger label; both count as black leaves.  Every routine here checks the
layer label before moving across a boundary, so deeper subtrees hang off
unharmed while the current layer-subtree is rearranged.

Layer-subtree roots are kept black throughout; this keeps the attach logic
of the inter-layer moves free of color case analysis.

The red-black steps have a left and a right form; each routine here runs
one code path for both and takes the side as a flag (``left`` in the
rotations, ``right_side`` for a short slot, ``succ`` for the successor
side, ``tall_left`` inside ``join3``).  Three steps with more than one
caller live here once: ``splice_nearest`` puts a node's in-layer successor
or predecessor in its place, for the layered tree's sink to a layer
boundary and the baseline's delete; ``_detach`` readies a subtree as a
fragment for ``join3`` and ``_rehang`` hangs a rebuilt layer-subtree in the
slot the old one hung in, both for ``split`` and ``join_at``.  Those two
count black heights on their own walks down in-layer left spines, and
``split`` joins each ancestor as its climb reaches it.

``perfbench/tracer.py`` counts the calls of ``split``, ``join_at``, the
fixups and ``Engine.rotate`` by wrapping those names, so callers reach them
through the module or class, never through a local alias.
"""

from __future__ import annotations

from .engine import Engine, Node


def insert_fixup(eng: Engine, x: Node) -> bool:
    """Repair the layer-subtree after ``x`` arrived as a (boundary) leaf.

    ``x`` is colored red and the usual bottom-up recoloring/rotation pass
    runs, stopping at the layer boundary.  Returns True when the subtree
    root changed from red to black, i.e. the black height grew.
    """
    j = x.layer
    x.red = True
    while True:
        p = x.parent
        if p is None or p.layer != j:
            # x is red here: it entered red and only climbs to a grandparent it reddened
            x.red = False
            eng.visits += 1
            return True
        if not p.red:
            return False
        g = p.parent
        assert g is not None and g.layer == j, "red node at a layer-subtree root"
        eng.visits += 2
        left = p is g.left
        uncle = g.right if left else g.left
        if uncle is not None and uncle.layer == j and uncle.red:
            p.red = False
            uncle.red = False
            g.red = True
            x = g
            continue
        if x is (p.right if left else p.left):
            x = p
            eng.rotate(x, left=left)
            p = x.parent
        p.red = False
        g.red = True
        eng.rotate(g, left=not left)
        return False


def delete_fixup(eng: Engine, parent: Node, right_side: bool):
    """Absorb a one-black deficit at the given child slot of ``parent``.

    The slot is addressed by (parent, side) because its occupant may be
    absent or belong to a deeper layer; either way it reads as black.
    """
    j = parent.layer
    while True:
        occ = parent.right if right_side else parent.left
        if occ is not None and occ.layer == j and occ.red:
            occ.red = False
            eng.visits += 1
            return
        w = parent.left if right_side else parent.right
        assert w is not None and w.layer == j, "deficit slot lacks an in-layer sibling"
        eng.visits += 1
        if w.red:
            w.red = False
            parent.red = True
            eng.rotate(parent, left=not right_side)
            continue
        if right_side:
            near, far = w.right, w.left
        else:
            near, far = w.left, w.right
        if not (far is not None and far.layer == j and far.red):
            if not (near is not None and near.layer == j and near.red):
                w.red = True
                eng.visits += 1
                if parent.red:
                    parent.red = False
                    return
                gp = parent.parent
                if gp is None or gp.layer != j:
                    return
                right_side = gp.right is parent
                parent = gp
                continue
            near.red = False
            w.red = True
            eng.rotate(w, left=right_side)
            w = near
            far = w.left if right_side else w.right
        w.red = parent.red
        parent.red = False
        far.red = False
        eng.rotate(parent, left=not right_side)
        return


def spine_end(eng: Engine, node: Node, leftward: bool):
    """Walk from ``node`` down its in-layer left (``leftward``) or right
    spine; the cursor arrives at ``node`` and each step costs a visit.
    Returns the last node reached and its child on that side, which is
    absent or carries a deeper label."""
    lab = node.layer
    eng.node = node
    steps = 1
    while True:
        c = node.left if leftward else node.right
        if c is None or c.layer != lab:
            eng.visits += steps
            return node, c
        node = c
        steps += 1


def splice_nearest(eng: Engine, x: Node, succ: bool):
    """Put the in-layer key nearest ``x`` on one side, its successor when
    ``succ`` and else its predecessor, in ``x``'s place, with ``x``'s colour
    and both its subtrees; ``x`` is left unlinked from the tree.

    Returns the spliced node, the child it had on its side facing ``x``
    (absent or deeper-layer), and the slot left one black short as
    (parent, right side), or None when the spliced node was red.
    """
    s, near = spine_end(eng, x.right if succ else x.left, succ)
    q = s.parent
    if s.red:
        short = None
    else:
        short = (s, succ) if q is x else (q, not succ)
    if q is not x:
        # a predecessor is spliced only when x has no in-layer right child;
        # then x's in-layer left child is a red leaf, the predecessor itself
        assert succ, f"predecessor {s.key} of {x.key} below x's child"
        # s leaves q: q adopts s's right child, s takes x's right subtree
        far = s.right
        if far is not None:
            far.parent = q
        sub = x.right
        sub.parent = s
        q.left = far
        s.right = sub
    eng.replace_subtree(x, s)
    other = x.left if succ else x.right
    if other is not None:
        other.parent = s
    if succ:
        s.left = other
    else:
        s.right = other
    s.red = x.red
    eng.visits += 3
    return s, near, short


def _detach(eng: Engine, root, bh: int, j: int) -> int:
    """Make ``root`` a join fragment: detached, and black if it is an
    in-layer red root.  Returns its black height: ``bh``, one more for a
    blackened root, and 0 for an absent or deeper-layer fragment."""
    if root is None:
        return 0
    root.parent = None
    if root.layer != j:
        return 0
    if root.red:
        root.red = False
        eng.visits += 1
        return bh + 1
    return bh


def join3(eng: Engine, left_root, left_bh: int, mid: Node, right_root, right_bh: int, j: int):
    """Glue left fragment < ``mid`` < right fragment into one valid subtree.

    Fragments are as ``_detach`` leaves them: within-layer red-black trees
    with a detached black root, deeper-layer subtrees (black height 0), or
    absent.  Returns (root, black height); the returned root is detached
    (parent None) and always black.  It is found without a climb: the
    fixup after hanging ``mid`` in the tall fragment can replace that
    fragment's root only by a rotation at it, so the root is ``mid``
    itself, or the tall root or the parent the rotation gave it.
    """
    mid.parent = None
    walked = 0
    if left_bh == right_bh:
        lo, hi, slot_parent = left_root, right_root, None
    else:
        # walk the inner spine of the taller side down to the shorter side's
        # height, and on past red nodes
        tall_left = left_bh > right_bh
        if tall_left:
            occ, occ_bh, short_bh = left_root, left_bh, right_bh
        else:
            occ, occ_bh, short_bh = right_root, right_bh, left_bh
        while occ is not None and occ.layer == j:
            if not occ.red:
                if occ_bh == short_bh:
                    break
                occ_bh -= 1
            slot_parent = occ
            occ = occ.right if tall_left else occ.left
            walked += 1
        assert occ is not None or occ_bh <= short_bh, "join spine ends above the short side"
        if tall_left:
            lo, hi = occ, right_root
        else:
            lo, hi = left_root, occ
    mid.left = lo
    if lo is not None:
        lo.parent = mid
    mid.right = hi
    if hi is not None:
        hi.parent = mid
    eng.visits += walked + 3
    if slot_parent is None:  # equal heights: mid heads the join
        mid.red = False
        return mid, left_bh + 1
    mid.red = True
    mid.parent = slot_parent
    if tall_left:
        slot_parent.right = mid
    else:
        slot_parent.left = mid
    grew = insert_fixup(eng, mid)
    top = mid
    if mid.parent is not None:
        tall = left_root if tall_left else right_root
        top = tall.parent or tall
        eng.visits += 1
    return top, (left_bh if tall_left else right_bh) + (1 if grew else 0)


def _rehang(eng: Engine, top: Node, root: Node, anchor):
    """Hang ``root``, the rebuilt layer-subtree ``top`` headed, where ``top``
    hung.  ``top``'s parent ``anchor`` is read before the rebuild rewrites
    its links; the rebuild never writes the parent's links, which still
    name ``top``.  A layer-subtree root without a parent is the engine
    root; it is set last, as ``join3`` may have rotated a detached
    fragment that was the root."""
    root.parent = anchor
    if anchor is None:
        eng.root = root
    elif anchor.left is top:
        anchor.left = root
    else:
        anchor.right = root


def split(eng: Engine, x: Node):
    """Bring ``x`` to the root of its layer-subtree.

    The remaining nodes end up under ``x`` with each side independently
    valid and its root black, as it heads a layer-subtree of its own next
    (the subtree as a whole need not balance across ``x``).  Hanging
    deeper-layer subtrees are preserved.  Worst-case cost logarithmic in
    the layer-subtree size: the per-step joins telescope along the path.
    """
    j = x.layer
    v = x.parent
    if v is None or v.layer != j:  # already heads its layer-subtree
        for c in (x.left, x.right):
            if c is not None and c.layer == j:
                c.red = False
        return
    bh = steps = 0
    n = x
    # x's black height, down its in-layer left spine
    while n is not None and n.layer == j:
        if not n.red:
            bh += 1
        n = n.left
        steps += 1
    child_bh = bh - (0 if x.red else 1)
    left_root, right_root = x.left, x.right
    left_bh = _detach(eng, left_root, child_bh, j)
    right_bh = _detach(eng, right_root, child_bh, j)

    key = x.key
    top = x
    # join each in-layer ancestor into the side it brackets; its parent is
    # read before the join relinks it
    while v is not None and v.layer == j:
        up = v.parent
        v_was_black = not v.red  # joins recolor v; the old subtree heights need its old color
        if v.key < key:
            left_root, left_bh = join3(eng, v.left, _detach(eng, v.left, bh, j),
                                       v, left_root, left_bh, j)
        else:
            right_root, right_bh = join3(eng, right_root, right_bh,
                                         v, v.right, _detach(eng, v.right, bh, j), j)
        if v_was_black:
            bh += 1
        top = v
        v = up
        steps += 1

    x.left = left_root
    if left_root is not None:
        left_root.parent = x
    x.right = right_root
    if right_root is not None:
        right_root.parent = x
    x.red = False
    _rehang(eng, top, x, v)
    eng.visits += steps + 2


def join_at(eng: Engine, x: Node) -> Node:
    """Rebuild one balanced layer-subtree from ``x`` and its two children.

    Children carrying deeper labels just keep hanging; if neither child
    shares ``x``'s label, ``x`` becomes a lone black layer-subtree.  The
    rebuilt subtree replaces ``x``'s old position.  Returns the new root.
    """
    j = x.layer
    left, right = x.left, x.right
    lbh = rbh = steps = 0
    n = left
    # each side's black height, down its in-layer left spine
    while n is not None and n.layer == j:
        if not n.red:
            lbh += 1
        n = n.left
        steps += 1
    n = right
    while n is not None and n.layer == j:
        if not n.red:
            rbh += 1
        n = n.left
        steps += 1
    if not steps:  # neither child shares x's label
        x.red = False
        eng.visits += 1
        return x
    anchor = x.parent
    root, _ = join3(eng, left, _detach(eng, left, lbh, j), x, right, _detach(eng, right, rbh, j), j)
    _rehang(eng, x, root, anchor)
    eng.visits += steps + 1
    return root
