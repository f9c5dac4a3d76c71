"""Trace generation and the canonical trace file format.

A trace is a list of (kind, key) operations.  The text form is one
operation per line, ``S``/``I``/``D`` followed by a decimal key (an
optional ``-`` and ASCII digits, within the signed 64-bit range), newline
separated; ``#`` starts a comment.  Parsing and serialization round-trip
exactly.

Generator families (deterministic for a given seed):

- ``uniform``: a valid mixed insert/search/delete stream over a key
  universe, searches drawn uniformly from the present keys.
- ``zipf_recency``: ascending inserts of the whole universe, then searches
  whose keys are drawn by recency rank with probability ~ rank^-theta.
- ``sequential_scan``: searches 1, 2, ..., n, cycling.
- ``finger_walk``: ascending inserts, then a +-1 random walk in rank space.
- ``repeat_block``: ascending inserts, then bursts that sweep a random
  block of ``width`` consecutive keys several times before jumping.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import TraceError

SEARCH = "S"
INSERT = "I"
DELETE = "D"
_KINDS = (SEARCH, INSERT, DELETE)
_KEY_MIN, _KEY_MAX = -(1 << 63), (1 << 63) - 1
_KEY_PATTERN = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class TraceOp:
    kind: str
    key: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


def parse(text: str) -> list[TraceOp]:
    ops = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TraceError(f"expected '<S|I|D> <key>', got {raw!r}", lineno, 1)
        kind, key_text = parts
        kind_at = raw.index(kind)
        if kind not in _KINDS:
            raise TraceError(f"unknown op {kind!r}", lineno, kind_at + 1)
        key_col = raw.index(key_text, kind_at + len(kind)) + 1
        if _KEY_PATTERN.fullmatch(key_text) is None:
            raise TraceError(f"bad key {key_text!r}: want an optional '-' and decimal digits",
                             lineno, key_col)
        key = int(key_text)
        if not _KEY_MIN <= key <= _KEY_MAX:
            raise TraceError(f"key {key_text} outside the signed 64-bit range", lineno, key_col)
        ops.append(TraceOp(kind, key))
    return ops


def serialize(trace: list[TraceOp]) -> str:
    return "".join(f"{op.kind} {op.key}\n" for op in trace)


def load(path) -> list[TraceOp]:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def save(trace: list[TraceOp], path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize(trace))


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    universe: int
    ops: int
    seed: int = 0
    theta: float = 1.0
    width: int = 8

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {sorted(FAMILIES)}")
        if self.universe < 1:
            raise ValueError("universe size must be positive")
        if self.ops < 0:
            raise ValueError("op count must be non-negative")
        if self.theta <= 0:
            raise ValueError("zipf exponent must be positive")
        if self.width < 1:
            raise ValueError("block width must be positive")


def generate(spec: GeneratorSpec) -> list[TraceOp]:
    ops = FAMILIES[spec.family](spec)
    return ops[: spec.ops]


def _preamble(spec: GeneratorSpec) -> list[TraceOp]:
    return [TraceOp(INSERT, k) for k in range(1, spec.universe + 1)]


def _gen_uniform(spec: GeneratorSpec) -> list[TraceOp]:
    """Mixed stream: roughly 60% searches, 25% inserts, 15% deletes, all
    valid against the evolving key set."""
    rng = random.Random(spec.seed)
    present: list[int] = []
    in_set = set()
    ops = []
    for _ in range(spec.ops):
        r = rng.random()
        key = rng.randint(1, spec.universe)
        if (r < 0.25 or not present) and len(present) < spec.universe:
            while key in in_set:
                key = rng.randint(1, spec.universe)
            insort(present, key)
            in_set.add(key)
            ops.append(TraceOp(INSERT, key))
        elif r < 0.40 and present:
            victim = present.pop(rng.randrange(len(present)))
            in_set.discard(victim)
            ops.append(TraceOp(DELETE, victim))
        else:
            # mostly hits, occasionally a miss
            if rng.random() < 0.05 or not present:
                ops.append(TraceOp(SEARCH, key))
            else:
                ops.append(TraceOp(SEARCH, present[rng.randrange(len(present))]))
    return ops


def _gen_zipf_recency(spec: GeneratorSpec) -> list[TraceOp]:
    """Searches pick the r-th most recently touched key with probability
    proportional to r^-theta.

    Recency is kept as touch stamps: key k starts with stamp k (ascending
    inserts), each search restamps its key past every stamp so far, and a
    Fenwick tree over live stamps finds the r-th youngest in O(log n).
    """
    rng = random.Random(spec.seed)
    ops = _preamble(spec)
    n = spec.universe
    weights = [0.0]
    for r in range(1, n + 1):
        weights.append(weights[-1] + r ** -spec.theta)
    total = weights[-1]
    searches = max(0, spec.ops - len(ops))
    size = n + searches
    key_at = list(range(size + 1))  # stamp -> key; stamps 1..n are the inserts
    # Fenwick counts of live stamps: node i covers stamps (i - lowbit(i), i]
    live = [0] + [max(0, min(i, n) - i + (i & -i)) for i in range(1, size + 1)]
    top = 1 << (size.bit_length() - 1)
    for stamp in range(n + 1, size + 1):
        rank = bisect_left(weights, rng.random() * total, 1, n)
        # the rank-th youngest is the (n + 1 - rank)-th smallest live stamp
        want, pos, step = n + 1 - rank, 0, top
        while step:
            nxt = pos + step
            if nxt <= size and live[nxt] < want:
                pos = nxt
                want -= live[nxt]
            step >>= 1
        old = pos + 1
        key = key_at[old]
        ops.append(TraceOp(SEARCH, key))
        key_at[stamp] = key
        while old <= size:
            live[old] -= 1
            old += old & -old
        i = stamp
        while i <= size:
            live[i] += 1
            i += i & -i
    return ops


def _gen_sequential(spec: GeneratorSpec) -> list[TraceOp]:
    return [TraceOp(SEARCH, 1 + i % spec.universe) for i in range(spec.ops)]


def _gen_finger(spec: GeneratorSpec) -> list[TraceOp]:
    rng = random.Random(spec.seed)
    ops = _preamble(spec)
    pos = (spec.universe + 1) // 2
    for _ in range(max(0, spec.ops - len(ops))):
        pos += rng.choice((-1, 1))
        pos = max(1, min(spec.universe, pos))
        ops.append(TraceOp(SEARCH, pos))
    return ops


def _gen_repeat_block(spec: GeneratorSpec) -> list[TraceOp]:
    rng = random.Random(spec.seed)
    ops = _preamble(spec)
    remaining = max(0, spec.ops - len(ops))
    width = min(spec.width, spec.universe)
    while remaining > 0:
        start = rng.randint(1, spec.universe - width + 1)
        sweeps = rng.randint(2, 5)
        for _ in range(sweeps):
            for k in range(start, start + width):
                if remaining == 0:
                    break
                ops.append(TraceOp(SEARCH, k))
                remaining -= 1
    return ops


FAMILIES = {
    "uniform": _gen_uniform,
    "zipf_recency": _gen_zipf_recency,
    "sequential_scan": _gen_sequential,
    "finger_walk": _gen_finger,
    "repeat_block": _gen_repeat_block,
}
