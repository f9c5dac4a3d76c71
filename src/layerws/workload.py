"""Trace generation and the canonical trace file format.

A trace is a list of (kind, key) operations.  The text form is one
operation per line, ``S``/``I``/``D`` followed by a decimal key (an
optional ``-`` and ASCII digits, within the signed 64-bit range), newline
separated; ``#`` starts a comment.  Parsing and serialization round-trip
exactly.  Records are immutable values: a generated trace may hold one
record object at many positions.

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
from itertools import accumulate, repeat

from .errors import TraceError

SEARCH = "S"
INSERT = "I"
DELETE = "D"
_KINDS = (SEARCH, INSERT, DELETE)
_KEY_MIN, _KEY_MAX = -(1 << 63), (1 << 63) - 1
_KEY_PATTERN = re.compile(r"-?[0-9]+")


@dataclass(frozen=True, slots=True)
class TraceOp:
    kind: str
    key: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


_set_kind, _set_key = TraceOp.kind.__set__, TraceOp.key.__set__
_new = object.__new__


def _op(kind: str, key: int) -> TraceOp:
    """A record whose kind is already known to be one of ``_KINDS``."""
    op = _new(TraceOp)
    _set_kind(op, kind)
    _set_key(op, key)
    return op


def _ramp(kind: str, n: int) -> list[TraceOp]:
    """The records (kind, 1), ..., (kind, n) for a kind as ``_op`` takes it: C-level
    loops fill their slots as ``_op`` does one record's, at half the cost of class calls."""
    ops = list(map(_new, repeat(TraceOp, n)))
    any(map(_set_kind, ops, repeat(kind)))  # each call returns None: any() runs them all
    any(map(_set_key, ops, range(1, n + 1)))
    return ops


class _Records(dict):
    """key -> the record (kind, key), built at its first lookup and shared after."""

    def __init__(self, kind: str):
        self.kind = kind

    def __missing__(self, key: int) -> TraceOp:
        op = self[key] = _op(self.kind, key)
        return op


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
        ops.append(_op(kind, key))
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
    return ops[: spec.ops]  # a family may run on to the end of its last ramp or sweep


def _preamble(spec: GeneratorSpec) -> list[TraceOp]:
    """The ascending inserts of the whole universe, as far as the trace keeps them."""
    return _ramp(INSERT, min(spec.universe, spec.ops))


def _gen_uniform(spec: GeneratorSpec) -> list[TraceOp]:
    """Mixed stream: roughly 60% searches, 25% inserts, 15% deletes, all
    valid against the evolving key set."""
    rng = random.Random(spec.seed)
    present: list[int] = []
    in_set = set()
    inserts, deletes, searches = _Records(INSERT), _Records(DELETE), _Records(SEARCH)
    ops = []
    for _ in range(spec.ops):
        r = rng.random()
        key = rng.randrange(spec.universe) + 1  # randint(1, universe), one call shorter
        if (r < 0.25 or not present) and len(present) < spec.universe:
            while key in in_set:
                key = rng.randrange(spec.universe) + 1
            insort(present, key)
            in_set.add(key)
            ops.append(inserts[key])
        elif r < 0.40 and present:
            victim = present.pop(rng.randrange(len(present)))
            in_set.discard(victim)
            ops.append(deletes[victim])
        else:
            # mostly hits, occasionally a miss
            if rng.random() < 0.05 or not present:
                ops.append(searches[key])
            else:
                ops.append(searches[present[rng.randrange(len(present))]])
    return ops


def _gen_zipf_recency(spec: GeneratorSpec) -> list[TraceOp]:
    """Searches pick the r-th most recently touched key with probability
    proportional to r^-theta.

    ``order`` holds the keys oldest first, so the r-th youngest is
    ``order[-r]``; a search moves its key to the end.  Each search costs
    r - 1 pointer moves, where r is the drawn rank.
    """
    rng = random.Random(spec.seed)
    ops = _preamble(spec)
    n = spec.universe
    weights = list(accumulate((r ** -spec.theta for r in range(1, n + 1)), initial=0.0))
    total = weights[-1]
    order = list(range(1, n + 1))  # ascending inserts: key n is the youngest
    records = _Records(SEARCH)
    for _ in range(spec.ops - n):
        key = order.pop(-bisect_left(weights, rng.random() * total, 1, n))
        order.append(key)
        ops.append(records[key])
    return ops


def _gen_sequential(spec: GeneratorSpec) -> list[TraceOp]:
    return _ramp(SEARCH, min(spec.universe, spec.ops)) * (spec.ops // spec.universe + 1)


def _gen_finger(spec: GeneratorSpec) -> list[TraceOp]:
    rng = random.Random(spec.seed)
    ops = _preamble(spec)
    records = _Records(SEARCH)
    pos = (spec.universe + 1) // 2
    for _ in range(max(0, spec.ops - len(ops))):
        pos += rng.choice((-1, 1))
        pos = max(1, min(spec.universe, pos))
        ops.append(records[pos])
    return ops


def _gen_repeat_block(spec: GeneratorSpec) -> list[TraceOp]:
    rng = random.Random(spec.seed)
    ops = _preamble(spec)
    width = min(spec.width, spec.universe)
    while len(ops) < spec.ops:
        start = rng.randint(1, spec.universe - width + 1)
        ops += [_op(SEARCH, k) for k in range(start, start + width)] * rng.randint(2, 5)
    return ops


FAMILIES = {
    "uniform": _gen_uniform,
    "zipf_recency": _gen_zipf_recency,
    "sequential_scan": _gen_sequential,
    "finger_walk": _gen_finger,
    "repeat_block": _gen_repeat_block,
}
