import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from layerws import GeneratorSpec, TraceOp, TraceError, generate, parse, serialize
from layerws.reference import WorkingSetTracker


def test_parse_basic():
    assert parse("I 5\nS 5\nD 5\n") == [TraceOp("I", 5), TraceOp("S", 5), TraceOp("D", 5)]


def test_trace_op_is_a_frozen_slotted_value():
    op = TraceOp("S", 5)
    trace = [op, TraceOp("I", -7), TraceOp("D", 1 << 62)]
    assert pickle.loads(pickle.dumps(trace)) == trace
    assert op == TraceOp("S", 5) and op != TraceOp("I", 5) and op != ("S", 5)
    assert hash(op) == hash(TraceOp("S", 5)) == hash(("S", 5))
    assert len({op, TraceOp("S", 5), TraceOp("S", 6)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.key = 6
    assert not hasattr(op, "__dict__")  # slots: no per-op dict
    for kind in ("X", "s"):
        with pytest.raises(ValueError, match="unknown op kind"):
            TraceOp(kind, 1)


def test_parse_empty_and_comments():
    assert parse("") == []
    assert parse("# all quiet\n\n   \n") == []
    assert parse("S 3 # trailing note\n") == [TraceOp("S", 3)]


def test_parse_negative_keys():
    assert parse("I -7\n") == [TraceOp("I", -7)]


def test_parse_error_reports_position():
    with pytest.raises(TraceError) as err:
        parse("I 1\nX 2\n")
    assert err.value.line == 2
    with pytest.raises(TraceError) as err:
        parse("I 1\nI two\n")
    assert err.value.line == 2
    with pytest.raises(TraceError):
        parse("I\n")


@pytest.mark.parametrize("text, line, column", [
    ("I 1_000\n", 1, 3),
    ("S 1\nS +5\n", 2, 3),
    ("I 9223372036854775808\n", 1, 3),
    ("I -9223372036854775809\n", 1, 3),
    ("\tD \u0663\n", 1, 4),  # a non-ASCII digit
    ("S S\n", 1, 3),
])
def test_parse_rejects_keys_outside_the_grammar(text, line, column):
    with pytest.raises(TraceError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_accepts_the_signed_64_bit_range_ends():
    assert parse(f"I {2**63 - 1}\nI {-2**63}\nS 007\n") == [
        TraceOp("I", 2**63 - 1), TraceOp("I", -2**63), TraceOp("S", 7)]


trace_strategy = st.lists(
    st.builds(TraceOp,
              st.sampled_from("SID"),
              st.integers(min_value=-2**63, max_value=2**63 - 1)),
    max_size=60)


@given(trace_strategy)
def test_serialize_parse_roundtrip(trace):
    assert parse(serialize(trace)) == trace


def test_determinism():
    spec = GeneratorSpec("uniform", universe=10, ops=5, seed=7)
    assert generate(spec) == generate(spec)
    other = GeneratorSpec("uniform", universe=10, ops=5, seed=8)
    assert generate(spec) != generate(other) or len(generate(spec)) == 0


def test_sequential_scan_is_plain_search_ramp():
    spec = GeneratorSpec("sequential_scan", universe=4, ops=4, seed=0)
    assert generate(spec) == [TraceOp("S", 1), TraceOp("S", 2), TraceOp("S", 3), TraceOp("S", 4)]


def test_uniform_traces_are_valid():
    spec = GeneratorSpec("uniform", universe=50, ops=2000, seed=3)
    present = set()
    for op in generate(spec):
        if op.kind == "I":
            assert op.key not in present
            present.add(op.key)
        elif op.kind == "D":
            assert op.key in present
            present.discard(op.key)


def test_op_counts_respected():
    for family in ("uniform", "zipf_recency", "sequential_scan", "finger_walk", "repeat_block"):
        spec = GeneratorSpec(family, universe=30, ops=100, seed=1)
        assert len(generate(spec)) == 100


def test_access_families_insert_universe_first():
    for family in ("zipf_recency", "finger_walk", "repeat_block"):
        spec = GeneratorSpec(family, universe=20, ops=200, seed=5)
        trace = generate(spec)
        head = trace[:20]
        assert all(op.kind == "I" for op in head)
        assert sorted(op.key for op in head) == list(range(1, 21))
        assert all(op.kind == "S" and 1 <= op.key <= 20 for op in trace[20:])


def test_zipf_recency_stresses_recent_keys():
    spec = GeneratorSpec("zipf_recency", universe=100, ops=10_000, seed=11, theta=2.0)
    tracker = WorkingSetTracker()
    ws = []
    for op in generate(spec):
        if op.kind == "I":
            tracker.record_insert(op.key)
        else:
            ws.append(tracker.working_set_number(op.key))
            tracker.record_access(op.key)
    mean_w = sum(ws) / len(ws)
    assert mean_w < 20, mean_w  # heavily recency-biased


def test_finger_walk_steps_by_one_rank():
    spec = GeneratorSpec("finger_walk", universe=50, ops=500, seed=2)
    trace = generate(spec)
    searches = [op.key for op in trace if op.kind == "S"]
    assert all(abs(a - b) <= 1 for a, b in zip(searches, searches[1:]))


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("nope", universe=10, ops=5)
    with pytest.raises(ValueError):
        GeneratorSpec("uniform", universe=0, ops=5)
    with pytest.raises(ValueError):
        GeneratorSpec("zipf_recency", universe=10, ops=5, theta=0.0)


def _zipf_recency_by_list(spec):
    """The list-reindexing zipf generator, kept as the reference for the
    Fenwick-tree version: O(rank) work per search."""
    rng = random.Random(spec.seed)
    ops = [TraceOp("I", k) for k in range(1, spec.universe + 1)]
    n = spec.universe
    weights = [0.0]
    for r in range(1, n + 1):
        weights.append(weights[-1] + r ** -spec.theta)
    total = weights[-1]
    recency = list(range(n, 0, -1))  # youngest first after ascending inserts
    index = {k: i for i, k in enumerate(recency)}
    remaining = spec.ops - len(ops)
    for _ in range(max(0, remaining)):
        x = rng.random() * total
        lo, hi = 1, n
        while lo < hi:
            mid = (lo + hi) // 2
            if weights[mid] >= x:
                hi = mid
            else:
                lo = mid + 1
        key = recency[lo - 1]
        ops.append(TraceOp("S", key))
        pos = index[key]
        if pos:
            recency.pop(pos)
            recency.insert(0, key)
            for i, k in enumerate(recency[: pos + 1]):
                index[k] = i
    return ops[: spec.ops]


@pytest.mark.parametrize("n", [100, 10_000])
@pytest.mark.parametrize("theta", [1.0, 2.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zipf_recency_matches_list_reference(seed, theta, n):
    spec = GeneratorSpec("zipf_recency", universe=n, ops=n + 3000, seed=seed, theta=theta)
    assert generate(spec) == _zipf_recency_by_list(spec)


def test_zipf_recency_single_key_and_no_searches():
    for spec in (GeneratorSpec("zipf_recency", universe=1, ops=5, seed=4),
                 GeneratorSpec("zipf_recency", universe=7, ops=3, seed=4)):
        assert generate(spec) == _zipf_recency_by_list(spec)
