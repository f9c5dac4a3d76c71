"""Expected outputs, computed without the code under test.

The benchmark checks every operation against what this module derives
from the trace alone: recency ranks and working-set numbers from a plain
move-to-front list, the layer a rank falls in from the 4, 16, 256, ...
size schedule, the frozen cost bounds from ``constants.json`` read as a
file, and the skip-splay auxiliary trees from an explicitly built perfect
tree.  Only ``ReferenceStructure`` replays come from the package, and they
run in their own loop, never in lockstep with the structure being timed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from layerws import ReferenceStructure

# Layer j holds 2^(2^j) keys: 4, 16, 256, 65536, 2^32.
LAYER_CAPACITY = tuple(1 << (1 << j) for j in range(1, 6))


def layer_of_rank(rank: int) -> int:
    """Layer holding the key at 0-based recency ``rank`` (most recent = 0)."""
    edge = 0
    for j, cap in enumerate(LAYER_CAPACITY, start=1):
        edge += cap
        if rank < edge:
            return j
    raise ValueError(f"rank {rank} beyond the deepest layer")


class RecencyList:
    """Keys, most recently touched first.

    A present key's index is its working-set number: the number of distinct
    keys touched (searched and found, or inserted) since it was last
    touched.  ``untouched`` is the number reported for keys not in the list;
    None means the list's own length, as for a key that is absent.
    """

    def __init__(self, keys=(), untouched: int | None = None):
        self.order = list(keys)
        self.members = set(self.order)
        self.untouched = untouched

    def rank(self, key) -> int:
        if key in self.members:
            return self.order.index(key)
        return len(self.order) if self.untouched is None else self.untouched

    def touch(self, key) -> int:
        """Move ``key`` to the front; returns its rank before the move."""
        rank = self.rank(key)
        if key in self.members:
            del self.order[rank]
        else:
            self.members.add(key)
        self.order.insert(0, key)
        return rank

    def remove(self, key):
        self.order.remove(key)
        self.members.discard(key)


class Bounds:
    """The frozen per-operation cost bounds, read from the shipped file."""

    def __init__(self, root: Path):
        path = root / "src" / "layerws" / "constants.json"
        with open(path, encoding="ascii") as fh:
            self.c = json.load(fh)

    @staticmethod
    def lg(z) -> float:
        return math.log2(z + 2)

    def search(self, w: int) -> float:
        return self.c["search_per_lgw"] * self.lg(w)

    def update(self, n_after: int) -> float:
        return self.c["update_per_lgn"] * math.log2(max(n_after, 1) + 2)

    def skip_pair(self, n: int, w: int) -> float:
        """Both bounds a doubled skip-splay access must meet; the tighter one."""
        worst = 2 * self.c["skip_per_lgn"] * math.log2(n + 2)
        doubled = (self.c["skip_doubled_factor"] * (math.log2(math.log2(n + 2)) + 1)
                   * self.lg(w) + self.c["skip_doubled_additive"])
        return min(worst, doubled)


def replay(ops, bounds: Bounds):
    """Replay ``(kind, key)`` operations on ReferenceStructure, in a loop of
    their own.

    Returns, per operation, ``(layer, w, bound)``: the layer a search finds
    the key in (None for updates and misses), the key's rank in the
    move-to-front list before the operation (its working-set number if
    present, else the number of present keys), and its frozen bound (w for
    searches, the key count after the operation for updates).  Also returns
    the final per-layer orders and the sorted final key set.
    """
    ref = ReferenceStructure()
    recency = RecencyList()
    rows = []
    for kind, key in ops:
        w = recency.rank(key)
        layer = None
        if kind == "S":
            layer = ref.search(key)
            if layer is not None:
                recency.touch(key)
            bound = bounds.search(w)
        else:
            if kind == "I":
                ref.insert(key)
                recency.touch(key)
            else:
                ref.delete(key)
                recency.remove(key)
            bound = bounds.update(len(recency.order))
        rows.append((layer, w, bound))
    return rows, ref.snapshot(), sorted(recency.members)


def below_layer_floor(layer: int | None, w: int) -> bool:
    """A hit in layer j >= 2 with w < 2^(2^(j-1)): fewer distinct newer
    accesses than the layers above it promise to hold."""
    return layer is not None and layer >= 2 and w < 1 << (1 << (layer - 1))


def skip_splay_aux_roots(k: int) -> dict[int, int]:
    """Key -> root key of its auxiliary tree, for the universe 1..2^(2^(k-1))-1.

    Builds the perfect search tree top-down, then walks each key up to its
    nearest ancestor (or itself) whose height is a marked height 1, 2, 4,
    ..., 2^(k-1): the band of heights that ancestor heads is the key's
    auxiliary tree.
    """
    top = 1 << (k - 1)
    n = (1 << top) - 1
    height: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    stack = [(1, n, top, None)]
    while stack:
        lo, hi, h, p = stack.pop()
        mid = (lo + hi) // 2
        height[mid] = h
        parent[mid] = p
        if h > 1:
            stack.append((lo, mid - 1, h - 1, mid))
            stack.append((mid + 1, hi, h - 1, mid))
    marked = {1 << b for b in range(k)}
    roots = {}
    for key in range(1, n + 1):
        y = key
        while height[y] not in marked:
            y = parent[y]
        roots[key] = y
    return roots
