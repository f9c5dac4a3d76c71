"""Reference working-set structure and access-distribution trackers.

The reference structure keeps the same doubly-exponential size schedule as
the layered tree but as a plain collection of recency queues,
with no tree mechanics and no cost model.  Running it in lockstep with the
layered tree gives a step-by-step oracle: after every operation both must
hold identical per-level key sets in identical recency order.

Also here: the working-set number tracker (distinct keys touched since a
key's last access) and the unified-bound tracker, which mixes recency with
rank distance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort

from .errors import DuplicateKeyError, MissingKeyError


def lg(z) -> float:
    """log2(z + 2): stays positive at z = 0, the shape every bound here uses."""
    if z < 0:
        raise ValueError("lg is defined for non-negative input")
    return math.log2(z + 2)


def level_capacity(j: int) -> int:
    return 1 << (1 << j)


class ReferenceStructure:
    """Recency queues on the 4, 16, 256, ... schedule, and one key -> level
    map.

    Queues are lists, youngest first.  Shifts move one key per level:
    downward shifts demote the oldest of each level, upward shifts promote
    the youngest; a moved key always arrives as the youngest of its new
    level.
    """

    def __init__(self):
        self.level_of: dict = {}
        self.level_queues: list[list] = []

    @property
    def levels(self) -> int:
        return len(self.level_queues)

    def __len__(self):
        return len(self.level_of)

    def _add_youngest(self, idx: int, key):
        self.level_of[key] = idx + 1
        self.level_queues[idx].insert(0, key)

    def shift(self, src: int, dst: int):
        """Rebalance one key per level between levels ``src`` and ``dst``
        (1-based).  Equal endpoints do nothing."""
        assert 1 <= src <= self.levels and 1 <= dst <= self.levels
        if src < dst:
            for m in range(src, dst):
                assert self.level_queues[m - 1], f"level {m} underflow"
                self._add_youngest(m, self.level_queues[m - 1].pop())
        elif src > dst:
            for m in range(dst, src):
                assert self.level_queues[m], f"level {m + 1} underflow"
                self._add_youngest(m - 1, self.level_queues[m].pop(0))

    def search(self, key) -> int | None:
        """Find ``key``; on a hit it moves to the front of level 1 and the
        drained level is refilled by a downward shift.  Returns the level."""
        j = self.level_of.get(key)
        if j is None:
            return None
        self.level_queues[j - 1].remove(key)
        self._add_youngest(0, key)
        self.shift(1, j)
        return j

    def insert(self, key):
        if key in self.level_of:
            raise DuplicateKeyError(key)
        if self.levels == 0:
            self.level_queues.append([])
        t = self.levels
        if len(self.level_queues[t - 1]) == level_capacity(t):
            self.level_queues.append([])
            t += 1
        self._add_youngest(0, key)
        self.shift(1, t)

    def delete(self, key):
        j = self.level_of.pop(key, None)
        if j is None:
            raise MissingKeyError(key)
        self.level_queues[j - 1].remove(key)
        self.shift(self.levels, j)
        if not self.level_queues[-1]:
            self.level_queues.pop()

    def snapshot(self) -> dict[int, list]:
        """Level -> recency order, youngest first (empty levels omitted)."""
        return {j: list(q) for j, q in enumerate(self.level_queues, start=1) if q}


class WorkingSetTracker:
    """Distinct-keys-since-last-access bookkeeping.

    Accesses and insertions both refresh a key's recency; a deletion
    forgets the key without touching the others.  Keys that are present
    but never touched (a preloaded universe) report the full set size.
    """

    def __init__(self, universe=()):
        self.present = set(universe)
        self._seq = 0
        self._key_seq: dict = {}
        self._live_seqs: list[int] = []

    def record_insert(self, key):
        self.record_access(key)

    def record_access(self, key):
        old = self._key_seq.get(key)
        if old is not None:
            i = bisect_left(self._live_seqs, old)
            del self._live_seqs[i]
        self._seq += 1
        self._key_seq[key] = self._seq
        self._live_seqs.append(self._seq)
        self.present.add(key)

    def record_delete(self, key):
        self.present.discard(key)
        old = self._key_seq.pop(key, None)
        if old is not None:
            i = bisect_left(self._live_seqs, old)
            del self._live_seqs[i]

    def working_set_number(self, key) -> int:
        """Distinct keys accessed or inserted since ``key`` was last touched;
        the current set size if it never was (or is absent)."""
        seq = self._key_seq.get(key)
        if seq is None:
            return len(self.present)
        return len(self._live_seqs) - bisect_right(self._live_seqs, seq)


class UnifiedBoundTracker:
    """min over y of lg(working_set(y) + rank_distance(x, y)).

    Small when ``x`` sits rank-close to something touched recently.  The
    query scans outward from ``x``'s rank and stops as soon as the rank
    distance alone reaches the best value found; use the history-replaying
    ``naive_unified_bound`` as an independent cross-check.
    """

    def __init__(self, universe=()):
        self.ws = WorkingSetTracker(universe)
        self.sorted_keys = sorted(set(universe))
        self._initial = frozenset(universe)
        self.history: list = []

    def record_insert(self, key):
        self.ws.record_insert(key)
        insort(self.sorted_keys, key)
        self.history.append(("I", key))

    def record_access(self, key):
        self.ws.record_access(key)
        self.history.append(("S", key))

    def record_delete(self, key):
        self.ws.record_delete(key)
        i = bisect_left(self.sorted_keys, key)
        del self.sorted_keys[i]
        self.history.append(("D", key))

    def working_set_number(self, key) -> int:
        return self.ws.working_set_number(key)

    def unified_bound(self, key) -> float:
        """Exact minimum by a ring scan outward from ``key``'s rank.

        Ring d holds the present keys at ranks x_rank - d and x_rank + d
        (x_rank = len(keys) for a key above the maximum, so ring 0 may be
        empty).  Working-set numbers are never negative, so every key in
        ring d or beyond scores at least d: the scan stops at the first
        ring with d >= best, or when both ends of the key list are passed.
        """
        keys = self.sorted_keys
        if not keys:
            raise ValueError("unified bound needs a non-empty key set")
        n = len(keys)
        x_rank = bisect_left(keys, key)
        # WorkingSetTracker.working_set_number, read without a call per key
        seq_of, live = self.ws._key_seq.get, self.ws._live_seqs
        n_live, untouched = len(live), len(self.ws.present)
        right = bisect_right
        best = math.inf
        d = 0
        while d < best and (x_rank + d < n or x_rank - d >= 0):
            if x_rank + d < n:
                seq = seq_of(keys[x_rank + d])
                w = untouched if seq is None else n_live - right(live, seq)
                if w + d < best:
                    best = w + d
            if d and x_rank - d >= 0:
                seq = seq_of(keys[x_rank - d])
                w = untouched if seq is None else n_live - right(live, seq)
                if w + d < best:
                    best = w + d
            d += 1
        return lg(best)

    def naive_unified_bound(self, key) -> float:
        """Same value recomputed from the raw history, quadratically."""
        present = set(self._initial)
        for kind, k in self.history:
            if kind == "D":
                present.discard(k)
            else:
                present.add(k)
        ordered = sorted(present)
        x_rank = bisect_left(ordered, key)
        best = None
        for rank, y in enumerate(ordered):
            w = self._history_working_set(y, len(present))
            v = w + abs(rank - x_rank)
            if best is None or v < best:
                best = v
        return lg(best)

    def _history_working_set(self, y, present_count: int) -> int:
        # scan backward: a key deleted after its last access never counts
        distinct = set()
        dead = set()
        for kind, k in reversed(self.history):
            if kind == "D":
                dead.add(k)
                continue
            if k == y:
                return len(distinct)
            if k not in dead:
                distinct.add(k)
        return present_count
