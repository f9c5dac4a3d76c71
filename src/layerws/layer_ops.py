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
side, ``tall_left`` inside ``join3``).  Two steps with more than one caller
live here once: ``splice_nearest`` puts a node's in-layer successor or
predecessor in its place, for the layered tree's sink to a layer boundary
and the baseline's delete; ``_rehang`` hangs a rebuilt layer-subtree in
the slot the old one hung in, for ``split`` and ``join_at``.
"""

from __future__ import annotations

from .engine import Engine, Node


def black_height(eng: Engine, node, layer: int) -> int:
    """Black count from ``node`` down its within-layer left spine."""
    bh = 0
    steps = 0
    while node is not None and node.layer == layer:
        if not node.red:
            bh += 1
        node = node.left
        steps += 1
    eng.visits += steps
    return bh


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
            if x.red:
                x.red = False
                eng.visits += 1
                return True
            return False
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
    spine.  Returns the last node reached and its child on that side, which
    is absent or carries a deeper label."""
    lab = node.layer
    eng.arrive(node)
    while True:
        c = node.left if leftward else node.right
        if c is None or c.layer != lab:
            return node, c
        node = c
        eng.visits += 1


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
        # s leaves its parent q: q adopts s's far child, s takes x's subtree
        far = s.right if succ else s.left
        if far is not None:
            far.parent = q
        sub = x.right if succ else x.left
        sub.parent = s
        if succ:
            q.left = far
            s.right = sub
        else:
            q.right = far
            s.left = sub
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


def join3(eng: Engine, left_root, left_bh: int, mid: Node, right_root, right_bh: int, j: int):
    """Glue left fragment < ``mid`` < right fragment into one valid subtree.

    Fragments are either within-layer red-black trees, deeper-layer
    subtrees (black height 0), or absent.  Returns (root, black height);
    the returned root is detached (parent None) and always black.
    """
    if left_root is None or left_root.layer != j:
        left_bh = 0
    if right_root is None or right_root.layer != j:
        right_bh = 0
    if left_root is not None:
        left_root.parent = None
        if left_root.layer == j and left_root.red:
            left_root.red = False
            left_bh += 1
            eng.visits += 1
    if right_root is not None:
        right_root.parent = None
        if right_root.layer == j and right_root.red:
            right_root.red = False
            right_bh += 1
            eng.visits += 1
    mid.parent = None

    walked = 0
    if left_bh == right_bh:
        lo, hi, slot_parent = left_root, right_root, None
    else:
        # walk the inner spine of the taller side down to the shorter side's height
        tall_left = left_bh > right_bh
        if tall_left:
            occ, occ_bh, short_bh = left_root, left_bh, right_bh
        else:
            occ, occ_bh, short_bh = right_root, right_bh, left_bh
        while occ_bh > short_bh or (occ is not None and occ.layer == j and occ.red):
            assert occ is not None and occ.layer == j
            slot_parent = occ
            if not occ.red:
                occ_bh -= 1
            occ = occ.right if tall_left else occ.left
            if occ is not None and occ.layer != j:
                occ_bh = 0
            walked += 1
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
    climbed = 0
    while top.parent is not None:
        top = top.parent
        climbed += 1
    eng.visits += climbed
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
    valid (the subtree as a whole need not balance across ``x``).  Hanging
    deeper-layer subtrees are preserved.  Worst-case cost logarithmic in
    the layer-subtree size: the per-step joins telescope along the path.
    """
    j = x.layer
    if x.parent is None or x.parent.layer != j:
        return  # already heads its layer-subtree
    bh = black_height(eng, x, j)

    path = [x]
    top = x
    while True:
        q = top.parent
        if q is None or q.layer != j:
            break
        path.append(q)
        top = q
    eng.visits += len(path) - 1
    anchor = top.parent

    key = x.key
    child_bh = bh - (0 if x.red else 1)
    left_root, left_bh = x.left, child_bh
    right_root, right_bh = x.right, child_bh
    orig_bh = bh
    for v in path[1:]:
        v_was_black = not v.red  # joins recolor v; the old subtree heights need its old color
        if v.key < key:
            left_root, left_bh = join3(eng, v.left, orig_bh, v, left_root, left_bh, j)
        else:
            right_root, right_bh = join3(eng, right_root, right_bh, v, v.right, orig_bh, j)
        if v_was_black:
            orig_bh += 1

    x.left = left_root
    x.right = right_root
    for side_root in (left_root, right_root):
        if side_root is not None:
            side_root.parent = x
            if side_root.layer == j and side_root.red:
                side_root.red = False  # side roots head their own layer-subtrees next
                eng.visits += 1
    x.red = False
    _rehang(eng, top, x, anchor)
    eng.visits += 2


def join_at(eng: Engine, x: Node) -> Node:
    """Rebuild one balanced layer-subtree from ``x`` and its two children.

    Children carrying deeper labels just keep hanging; if neither child
    shares ``x``'s label, ``x`` becomes a lone black layer-subtree.  The
    rebuilt subtree replaces ``x``'s old position.  Returns the new root.
    """
    j = x.layer
    left, right = x.left, x.right
    l_in = left is not None and left.layer == j
    r_in = right is not None and right.layer == j
    if not l_in and not r_in:
        x.red = False
        eng.visits += 1
        return x
    anchor = x.parent
    lbh = black_height(eng, left, j) if l_in else 0
    rbh = black_height(eng, right, j) if r_in else 0
    root, _ = join3(eng, left, lbh, x, right, rbh, j)
    _rehang(eng, x, root, anchor)
    eng.visits += 1
    return root
