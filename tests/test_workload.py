import dataclasses
import hashlib
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from layerws import GeneratorSpec, TraceOp, TraceError, generate, parse, serialize
from layerws import workload
from layerws.workload import load, save
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
    with pytest.raises(ValueError, match="op count"):
        GeneratorSpec("uniform", universe=10, ops=-1)
    with pytest.raises(ValueError, match="block width"):
        GeneratorSpec("repeat_block", universe=10, ops=5, width=0)


@pytest.mark.parametrize("width, seed", [(1, 3), (3, 1), (8, 2)])
def test_repeat_block_sweeps_blocks_of_width_keys(width, seed):
    n = 400
    trace = generate(GeneratorSpec("repeat_block", n, n + 2001, seed=seed, width=width))
    keys = [op.key for op in trace[n:]]
    assert all(op.kind == "S" for op in trace[n:])
    runs = [keys[i:i + width] for i in range(0, len(keys), width)]
    assert all(run == list(range(run[0], run[0] + width)) for run in runs[:-1])
    assert runs[-1] == list(range(runs[-1][0], runs[-1][0] + len(runs[-1])))
    # consecutive equal runs are one block's sweeps; only the last block may
    # stop before its second sweep or part-way through a sweep
    sweeps = []
    for i, run in enumerate(runs):
        if i and run[0] == runs[i - 1][0]:
            sweeps[-1] += 1
        else:
            sweeps.append(1)
    assert all(2 <= count <= 5 for count in sweeps[:-1]), sweeps
    assert 1 <= sweeps[-1] <= 5


def test_save_load_roundtrip(tmp_path):
    trace = generate(GeneratorSpec("uniform", universe=40, ops=300, seed=5))
    path = tmp_path / "trace.txt"
    save(trace, path)
    assert path.read_text(encoding="ascii") == serialize(trace)
    assert load(path) == trace


def test_generators_share_records():
    skip = generate(GeneratorSpec("repeat_block", 65535, 115535, seed=1, width=4))
    assert len({id(op) for op in skip}) <= 80_000
    scan = generate(GeneratorSpec("sequential_scan", universe=50, ops=500))
    assert len({id(op) for op in scan}) == 50
    shared = scan[0]
    assert shared is scan[50] and shared == TraceOp("S", 1)
    assert hash(shared) == hash(TraceOp("S", 1)) and type(shared) is TraceOp
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.key = 2


@pytest.mark.parametrize("family", ["zipf_recency", "finger_walk", "repeat_block",
                                    "sequential_scan"])
def test_generators_build_only_the_records_they_return(family, monkeypatch):
    built, make = [], workload._new

    def counting_new(cls):
        built.append(cls)
        return make(cls)

    monkeypatch.setattr(workload, "_new", counting_new)
    trace = generate(GeneratorSpec(family, universe=65535, ops=10, seed=1))
    assert len(trace) == len(built) == 10


def _zipf_recency_by_list(spec):
    """An independent zipf generator, the reference for ``zipf_recency``:
    youngest first, with an index map rebuilt over the moved prefix."""
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


# sha256 of serialize(generate(GeneratorSpec(family, universe, ops, seed,
# theta, width))), recorded before the generators shared records: every
# family at universe 1, ops < universe, ops 0 and a middle cell, zipf_recency
# at theta 2, repeat_block wider than its universe and at width 1, and the
# benchmark's own specs (perfbench/workloads.py): the skip-splay stream and
# the lws_mixed and lws_zipf traces at seeds 1 and 1009, and verify_cli's six
# traces at seed 1.
GENERATED_DIGESTS = [
    (("uniform", 1, 10, 3, 1.0, 8),
     "f75cbd9fadecb3ca432a1a9ce2cfc5c591f3848b0b9ca637e73c09a9227c999e"),
    (("uniform", 100, 40, 2, 1.0, 8),
     "121fca341b48a3e417be8793f8203071282d1f6b518dcdc97ebaf2cc3b49866c"),
    (("uniform", 10, 0, 0, 1.0, 8),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("uniform", 50, 500, 7, 1.0, 8),
     "571dff36d1b65502a3267caa6169981d85bdf30180618faa0fa6cf18be6e0d90"),
    (("zipf_recency", 1, 10, 3, 1.0, 8),
     "c315686f1ca374d48ac8a7f9cf911b8d22173d3476a3a809880c41abd68f95d3"),
    (("zipf_recency", 100, 40, 2, 1.0, 8),
     "bffea7c6242552e84e07ffb65208235eeabb4d48c655358daeac312f45c74c6f"),
    (("zipf_recency", 10, 0, 0, 1.0, 8),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("zipf_recency", 50, 500, 7, 1.0, 8),
     "c95674e1a94e99e684fbe24f0f100bbbd997efe8b38c5a58cbead92f32fd34b3"),
    (("sequential_scan", 1, 10, 3, 1.0, 8),
     "415481baba8eba21e775b44236fae11ca3916617c58c63e82efc2fe004f4f3e2"),
    (("sequential_scan", 100, 40, 2, 1.0, 8),
     "e889800061ecf6be9b135177b33657e24203ffd9eb0070a4058ac9acae7df61a"),
    (("sequential_scan", 10, 0, 0, 1.0, 8),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("sequential_scan", 50, 500, 7, 1.0, 8),
     "56443c758cfba3e5edc81e5f8b803f07346a90cb2e4d2da87a3f655cd16a8a82"),
    (("finger_walk", 1, 10, 3, 1.0, 8),
     "c315686f1ca374d48ac8a7f9cf911b8d22173d3476a3a809880c41abd68f95d3"),
    (("finger_walk", 100, 40, 2, 1.0, 8),
     "bffea7c6242552e84e07ffb65208235eeabb4d48c655358daeac312f45c74c6f"),
    (("finger_walk", 10, 0, 0, 1.0, 8),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("finger_walk", 50, 500, 7, 1.0, 8),
     "87cac58a4914356e955071168168641e094158b10960ff26d2a20e0bd64dec40"),
    (("repeat_block", 1, 10, 3, 1.0, 8),
     "c315686f1ca374d48ac8a7f9cf911b8d22173d3476a3a809880c41abd68f95d3"),
    (("repeat_block", 100, 40, 2, 1.0, 8),
     "bffea7c6242552e84e07ffb65208235eeabb4d48c655358daeac312f45c74c6f"),
    (("repeat_block", 10, 0, 0, 1.0, 8),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("repeat_block", 50, 500, 7, 1.0, 8),
     "75bc00a6c6d2b09f3a7f85e24dbba449e17bfac673dc8b1fb8874c5535391d15"),
    (("zipf_recency", 50, 500, 7, 2.0, 8),
     "7c94a6a3e8115dc6dfa06e80fe410c734e5a3e5a5bd5bcef21fa5e88081720f9"),
    (("repeat_block", 5, 60, 4, 1.0, 8),
     "f296bb5f73804f270867f59767495d0e4ee8bb54ad0598cec655f105b775573b"),
    (("repeat_block", 30, 300, 9, 1.0, 1),
     "b9229822a06fad82794f5527f0f65d937a1b04ac7147e26c0614555e4d6bcec1"),
    (("repeat_block", 65535, 115535, 1, 1.0, 4),
     "4067603aa6fc20db0f6f94162a39cc67180fcf5232446fea31b35c30068485c8"),
    (("uniform", 10000, 20000, 1, 1.0, 8),
     "dde97f69bf44946fc6f567d3c44a53f2dea6f700986da46e4b6c2974ff452205"),
    (("zipf_recency", 10000, 20000, 1, 1.0, 8),
     "93a9fd2b0bb90570aef8230efc86909b0f4521792ebe28a3f8148fe0ed36b8e2"),
    (("repeat_block", 65535, 115535, 1009, 1.0, 4),
     "6282f7bc49030d877f329a3c0dc9404b2833237ab8e1792658c49f83a7e6a745"),
    (("uniform", 10000, 20000, 1009, 1.0, 8),
     "718e616225c5d64d6ca7bf5a5bfc6399c854adc3a4b09301e3647e401816411e"),
    (("zipf_recency", 10000, 20000, 1009, 1.0, 8),
     "fa783a329f727b566ce00136bbff772362ec5ec96c1b7859327f94fc478557d0"),
    (("uniform", 1000, 2000, 6, 1.0, 8),
     "555bbabe508672bc75c33768a17aefaccce3c32af2744b0c621127b589a65ab3"),
    (("uniform", 1000, 2000, 7, 1.0, 8),
     "f58501b59054ba53b5800bd727e5765adc3fea702b53f73b41819a03191f8ea0"),
    (("uniform", 1000, 2000, 8, 1.0, 8),
     "6c210ea3248d16eaf9bef30a0a43a16a5bdf2c50ea971175a4aeb4adae9926ea"),
    (("uniform", 1000, 2000, 9, 1.0, 8),
     "61beb0980bc1a823533ce4709db3eda8e93170df4b4247d4b8c09ff49dab8f03"),
    (("uniform", 1000, 2000, 10, 1.0, 8),
     "4e5d8f48156cf534968d8fba3c56f4d5a3c4c57658705e7573ab8acf30308af1"),
    (("uniform", 1000, 2000, 11, 1.0, 8),
     "80b46278ab211d03c772ac12f38a4c509e4ea73202e97d6b07804160231f54eb"),
]


@pytest.mark.parametrize("cell, digest", GENERATED_DIGESTS,
                         ids=["-".join(map(str, cell)) for cell, _ in GENERATED_DIGESTS])
def test_generated_traces_are_pinned(cell, digest):
    text = serialize(generate(GeneratorSpec(*cell)))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
