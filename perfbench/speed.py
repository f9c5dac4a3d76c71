"""A fixed yardstick for how fast the machine runs Python right now.

The CPU speed of a shared machine drifts by tens of percent over tens of
seconds, longer than a run, so a run's raw times follow the moment it ran
in.  The probe is a fixed walk over a binary search tree of Python
objects, the same kind of work the package does.  A run samples it just
before and after every set-up and every round, in the process that runs
them, and reports a time as it would read at the probe's reference speed:
the raw median times ``REFERENCE_S`` over the median of those samples.
The probe is the benchmark's own code, so no change to the package moves
it.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

# The probe's median sample on the 2-vCPU machine the benchmark was
# written on (Python 3.11).  It fixes the unit; it is not a target.
REFERENCE_S = 0.00045
NODES = (1 << 12) - 1   # about 0.4 MiB of the run's peak memory
SEARCHES = 640
REPEATS = 9


class _Node:
    __slots__ = ("key", "left", "right", "hits")

    def __init__(self, key: int):
        self.key = key
        self.left = self.right = None
        self.hits = 0


def _perfect(lo: int, hi: int) -> _Node | None:
    if lo > hi:
        return None
    mid = (lo + hi) // 2
    node = _Node(mid)
    node.left = _perfect(lo, mid - 1)
    node.right = _perfect(mid + 1, hi)
    return node


class SpeedProbe:
    def __init__(self):
        self.root = _perfect(1, NODES)
        rng = random.Random(0)
        self.keys = [rng.randint(1, NODES) for _ in range(SEARCHES)]
        self.samples: list[float] = []

    def _walk(self):
        root = self.root
        for key in self.keys:
            node = root
            while node.key != key:
                node.hits += 1
                node = node.left if key < node.key else node.right

    def sample(self) -> float:
        """Median time of REPEATS walks, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                t0 = perf_counter()
                self._walk()
                times.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        return self.samples[-1]
