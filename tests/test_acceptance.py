"""Acceptance suite: one test per committed criterion, each printing a
PASS/FLAG line.

Criteria 1-3 share one 50-trace replay through ``harness.run`` (session
fixture, two worker processes), the same loop the command runs.  After
every single operation the layered tree is compared exactly against the
reference structure by ``compare_layers`` (every key's label and both
recency links, the per-layer sizes, the key count and the record of queue
ends), and
the structural suite runs (red-black validity of every layer-subtree,
label monotonicity, parent links, the size schedule, header agreement, and
the per-node depth bound).  The comparator pins every queue field, so the
per-operation sweep leaves out the validator's queue pass; the full sweep
with it ends each trace.  The validator checks each sweep in one walk that
applies every rule once and writes each violation where it finds it, so a
clean operation costs one recursion and pays for no report bookkeeping
(``tests/test_validate.py`` pins the reports of randomly corrupted trees).

Cost-bound criteria use the frozen constants from constants.json and run
on seeds disjoint from the calibration seeds.  Set LWS_ACCEPT_SCALE=smoke
to shrink the workloads during development; the committed configuration is
the default full scale.
"""

import math
import multiprocessing
import os
import random
import zlib
from time import perf_counter

import pytest

from layerws import (LayeredTree, SkipSplayTree, UnifiedBoundTracker,
                     WorkingSetTracker, lg, validate_tree)
from layerws.constants import load_constants
from layerws.faults import (corrupt_color, corrupt_ends, corrupt_layer, corrupt_parent,
                            corrupt_queue_swap, corrupt_sizes)
from layerws.harness import RunConfig, cost_rows, run, verify_structure
from layerws.workload import GeneratorSpec, TraceOp, generate

FULL = os.environ.get("LWS_ACCEPT_SCALE", "full") != "smoke"
TRACE_COUNT = 50 if FULL else 6
TRACE_OPS = 10_000 if FULL else 1_500
TRACE_UNIVERSE = 1_000 if FULL else 200
MATRIX_SIZES = (100, 1_000, 10_000) if FULL else (100, 400)
MATRIX_OPS = 12_000 if FULL else 2_000
MATRIX_SEEDS = (11, 12) if FULL else (11,)
SKIP_ACCESSES = 100_000 if FULL else 6_000
WORKERS = 2

CONST = load_constants()


# -- criteria 1-3: the shared verified replay -----------------------------------------


def _replay_worker(seed: int) -> dict:
    trace = generate(GeneratorSpec("uniform", TRACE_UNIVERSE, TRACE_OPS, seed))
    t0 = perf_counter()
    result = run(RunConfig("lws", trace=trace, verify_every=1))
    return {
        "seed": seed,
        "ops": result.summary["ops"],
        "divergence": result.summary.get("divergence"),
        "violations": [f"op {i}: {v}" for i, v in result.violations],
        "wall": perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def verified_replays():
    seeds = list(range(101, 101 + TRACE_COUNT))
    with multiprocessing.Pool(WORKERS) as pool:
        results = pool.map(_replay_worker, seeds)
    return results


def test_criterion_01_oracle_step_equivalence(verified_replays):
    # run() compares after every op and stops at the first mismatch, so a
    # trace that completes without a divergence held exact equality throughout
    diverged = [(r["seed"], r["divergence"]) for r in verified_replays if r["divergence"]]
    assert not diverged, diverged[:5]
    total_ops = sum(r["ops"] for r in verified_replays)
    assert total_ops == TRACE_COUNT * TRACE_OPS
    wall = sum(r["wall"] for r in verified_replays)
    print(f"\ncriterion 1 PASS: {TRACE_COUNT} traces x {TRACE_OPS} ops, "
          f"state equality checked after all {total_ops} ops; "
          f"{wall:.0f} s replay total, verification included ({WORKERS} workers)")


def test_criterion_02_structural_invariants(verified_replays):
    structural = [v for r in verified_replays for v in r["violations"]
                  if "depth-bound" not in v]
    assert not structural, structural[:5]
    print(f"\ncriterion 2 PASS: red-black/monotonicity/size-schedule/queue "
          f"checks clean after every op on {TRACE_COUNT} traces")


def test_criterion_03_depth_bound(verified_replays):
    deep = [v for r in verified_replays for v in r["violations"] if "depth-bound" in v]
    assert not deep, deep[:5]
    print(f"\ncriterion 3 PASS: depth(x) within the per-layer budget at every checkpoint")


# -- criterion 4: working-set lower bound ----------------------------------------------


def _ws_lower_worker(args) -> dict:
    family, seed, theta = args
    spec = GeneratorSpec(family, TRACE_UNIVERSE, TRACE_OPS, seed, theta=theta)
    breaches = []
    deep_hits = 0
    for op, _, layer, w in cost_rows(LayeredTree(), generate(spec), WorkingSetTracker()):
        if layer is not None and layer >= 2:
            deep_hits += 1
            needed = 1 << (1 << (layer - 1))
            if w < needed:
                breaches.append((op.key, layer, w, needed))
    return {"family": family, "seed": seed, "deep_hits": deep_hits,
            "breaches": breaches[:5]}


def test_criterion_04_working_set_lower_bound():
    jobs = [("zipf_recency", s, th) for s in (21, 22) for th in (1.0, 2.0)]
    jobs += [("finger_walk", s, 1.0) for s in (23, 24)]
    jobs += [("repeat_block", 25, 1.0)]
    with multiprocessing.Pool(WORKERS) as pool:
        results = pool.map(_ws_lower_worker, jobs)
    for r in results:
        assert not r["breaches"], r
    deep = sum(r["deep_hits"] for r in results)
    assert deep > 100  # the property must actually have been exercised
    print(f"\ncriterion 4 PASS: {deep} hits below layer 1, every one with "
          f"working-set number >= 2^(2^(j-1))")


# -- criterion 5: search and update cost bounds over the matrix ---------------------------


def _matrix_worker(args) -> dict:
    family, n, seed, theta = args
    if family == "sequential_scan":
        trace = [TraceOp("I", k) for k in range(1, n + 1)]
        trace += generate(GeneratorSpec(family, n, MATRIX_OPS - n, seed))
    else:
        trace = generate(GeneratorSpec(family, n, MATRIX_OPS, seed, theta=theta))
    tree = LayeredTree()
    c1, c2 = CONST["search_per_lgw"], CONST["update_per_lgn"]
    worst_search = worst_update = 0.0
    breaches = []
    for op, cost, _, w in cost_rows(tree, trace, WorkingSetTracker()):
        if op.kind == "S":
            ratio = cost / lg(w)
            worst_search = max(worst_search, ratio)
            if ratio > c1:
                breaches.append(("S", op.key, ratio))
        else:
            # an insert is costed at the size after it, a delete before it
            ratio = cost / math.log2(len(tree) + (op.kind == "D") + 2)
            worst_update = max(worst_update, ratio)
            if ratio > c2:
                breaches.append((op.kind, op.key, ratio))
    return {"family": family, "n": n, "seed": seed,
            "worst_search": worst_search, "worst_update": worst_update,
            "breaches": breaches[:5]}


def test_criterion_05_cost_bounds_over_matrix():
    families = [("uniform", 1.0), ("zipf_recency", 1.0), ("zipf_recency", 2.0),
                ("sequential_scan", 1.0), ("finger_walk", 1.0)]
    jobs = [(fam, n, seed, theta)
            for n in MATRIX_SIZES for seed in MATRIX_SEEDS for fam, theta in families]
    with multiprocessing.Pool(WORKERS) as pool:
        results = pool.map(_matrix_worker, jobs)
    for r in results:
        assert not r["breaches"], r
    ws = max(r["worst_search"] for r in results)
    wu = max(r["worst_update"] for r in results)
    print(f"\ncriterion 5 PASS: {len(jobs)} fresh-seed runs; "
          f"max search cost/lg(w) {ws:.1f} <= {CONST['search_per_lgw']}, "
          f"max update cost/log2(n+2) {wu:.1f} <= {CONST['update_per_lgn']}")


# -- criteria 6-8: skip-splay bounds ------------------------------------------------------


def _skip_access_plan(n: int, total: int, seed: int) -> list[int]:
    """Half random, half adversarial: scans, edge flips, strided jumps,
    and hot repeats."""
    rng = random.Random(seed)
    plan = [rng.randint(1, n) for _ in range(total // 2)]
    quarter = total // 4
    plan += [1 + (i % n) for i in range(quarter)]
    stride = max(1, n // 3)
    for i in range(total - len(plan)):
        if i % 5 == 4:
            plan.append(plan[-1])  # immediate repeat
        elif i % 2:
            plan.append(1 + (i * stride) % n)
        else:
            plan.append(n if (i // 2) % 2 else 1)
    return plan


def _skip_worker(k: int) -> dict:
    tree = SkipSplayTree(k)
    n = tree.n
    limit = CONST["skip_per_lgn"] * math.log2(n + 2)
    worst = 0
    breaches = 0
    for x in _skip_access_plan(n, SKIP_ACCESSES, 300 + k):
        cost = tree.access(x)
        worst = max(worst, cost)
        if cost > limit:
            breaches += 1
    bad = tree.validate()
    return {"k": k, "n": n, "worst": worst, "limit": limit,
            "breaches": breaches, "invariants": [str(v) for v in bad[:3]]}


def _skip_doubled_worker(k: int) -> dict:
    tree = SkipSplayTree(k)
    n = tree.n
    tracker = WorkingSetTracker(range(1, n + 1))
    single_limit = CONST["skip_per_lgn"] * math.log2(n + 2)
    coef = math.log2(math.log2(n + 2)) + 1
    factor, additive = CONST["skip_doubled_factor"], CONST["skip_doubled_additive"]
    worst_ratio = 0.0
    breaches = 0
    for x in _skip_access_plan(n, SKIP_ACCESSES // 2, 400 + k):
        w = tracker.working_set_number(x)
        first = tree.access(x)
        second = tree.access(x)
        tracker.record_access(x)
        if first > single_limit or second > single_limit:
            breaches += 1  # the worst-case bound holds per access even here
        pair_limit = factor * coef * lg(w) + additive
        if first + second > pair_limit:
            breaches += 1
        worst_ratio = max(worst_ratio, (first + second) / pair_limit)
    bad = tree.validate()
    return {"k": k, "worst_ratio": worst_ratio, "breaches": breaches,
            "invariants": [str(v) for v in bad[:3]]}


def test_criterion_06_skip_splay_worst_case():
    with multiprocessing.Pool(WORKERS) as pool:
        results = pool.map(_skip_worker, [2, 3, 4])
    for r in results:
        assert r["breaches"] == 0, r
        assert not r["invariants"], r
    line = ", ".join(f"k={r['k']}: worst {r['worst']} <= {r['limit']:.0f}" for r in results)
    print(f"\ncriterion 6 PASS: {SKIP_ACCESSES} random+adversarial accesses per size; {line}")


def test_criterion_07_skip_splay_doubled_bound():
    with multiprocessing.Pool(WORKERS) as pool:
        results = pool.map(_skip_doubled_worker, [2, 3, 4])
    for r in results:
        assert r["breaches"] == 0, r
        assert not r["invariants"], r
    worst = max(r["worst_ratio"] for r in results)
    print(f"\ncriterion 7 PASS: doubled pairs within "
          f"{CONST['skip_doubled_factor']}*(lglg(n+2)+1)*lg(w) + "
          f"{CONST['skip_doubled_additive']}, alongside the per-access bound; "
          f"tightest margin {worst:.2f} of the budget")


@pytest.mark.slow
def test_criterion_06b_skip_splay_worst_case_k5():
    result = _skip_worker(5)
    assert result["breaches"] == 0, result
    assert not result["invariants"], result
    print(f"\ncriterion 6 slow PASS: k=5 worst {result['worst']} <= {result['limit']:.0f}")


@pytest.mark.slow
def test_criterion_07b_skip_splay_doubled_bound_k5():
    result = _skip_doubled_worker(5)
    assert result["breaches"] == 0, result
    assert not result["invariants"], result
    print(f"\ncriterion 7 slow PASS: k=5 doubled pairs, tightest margin "
          f"{result['worst_ratio']:.2f} of the budget")


def test_criterion_08_amortized_report():
    threshold = CONST["amortized_flag_threshold"]
    tree_families = {
        "uniform": lambda n, rng: [rng.randint(1, n) for _ in range(MATRIX_OPS)],
        "sequential": lambda n, rng: [1 + i % n for i in range(MATRIX_OPS)],
        "finger": lambda n, rng: _finger_plan(n, rng),
        "zipf_recency": lambda n, rng: _zipf_plan(n, rng),
        "repeat_block": lambda n, rng: _block_plan(n, rng),
    }
    flagged = []
    lines = []
    for name, plan in tree_families.items():
        tree = SkipSplayTree(4)
        n = tree.n
        tracker = UnifiedBoundTracker(range(1, n + 1))
        overhead = math.log2(math.log2(n + 2)) + 1
        total = 0
        denom = 0.0
        for x in plan(n, random.Random(zlib.crc32(name.encode()) & 0xFFFF)):
            denom += tracker.unified_bound(x) + overhead
            total += tree.access(x)
            tracker.record_access(x)
        ratio = total / denom
        lines.append(f"{name}: {ratio:.2f}")
        if ratio > threshold:
            flagged.append((name, ratio))
    status = "FLAG" if flagged else "PASS"
    print(f"\ncriterion 8 {status}: amortized cost ratio by family "
          f"(threshold {threshold}): " + ", ".join(lines))
    # flagged, not hard-failed: the bound's constant is informational
    assert True


def _finger_plan(n, rng):
    pos = n // 2
    out = []
    for _ in range(MATRIX_OPS):
        pos = max(1, min(n, pos + rng.choice((-1, 1))))
        out.append(pos)
    return out


def _zipf_plan(n, rng):
    recency = list(range(1, n + 1))
    weights = [1 / r for r in range(1, n + 1)]
    total = sum(weights)
    out = []
    for _ in range(MATRIX_OPS):
        x = rng.random() * total
        acc = 0.0
        for idx, wt in enumerate(weights):
            acc += wt
            if acc >= x:
                break
        key = recency[idx]
        out.append(key)
        recency.remove(key)
        recency.insert(0, key)
    return out


def _block_plan(n, rng):
    out = []
    while len(out) < MATRIX_OPS:
        start = rng.randint(1, n - 8)
        for _ in range(3):
            out.extend(range(start, start + 8))
    return out[:MATRIX_OPS]


# -- criterion 9: unified-bound tracker self-check ------------------------------------------


def test_criterion_09_unified_bound_self_check():
    checked = 0
    for seed in (31, 32):
        rng = random.Random(seed)
        tracker = UnifiedBoundTracker()
        present = []
        for _ in range(1_000):
            roll = rng.random()
            if (roll < 0.3 or not present) and len(present) < 50:
                k = rng.randint(0, 120)
                while k in present:
                    k = rng.randint(0, 120)
                tracker.record_insert(k)
                present.append(k)
            elif roll < 0.4 and len(present) > 1:
                tracker.record_delete(present.pop(rng.randrange(len(present))))
            else:
                tracker.record_access(present[rng.randrange(len(present))])
            probe = present[rng.randrange(len(present))]
            assert tracker.unified_bound(probe) == tracker.naive_unified_bound(probe)
            checked += 1
    print(f"\ncriterion 9 PASS: incremental unified bound equals the "
          f"history-replay recomputation at all {checked} steps")


# -- criterion 10: fault injection ------------------------------------------------------------


def _target_tree():
    tree = LayeredTree()
    for k in range(1, 41):
        tree.insert(k)
    assert not validate_tree(tree)
    return tree


def _subtree_members(tree, key):
    node = tree.engine.root
    while node.key != key:
        node = node.left if key < node.key else node.right
    top = node
    while top.parent is not None and top.parent.layer == node.layer:
        top = top.parent
    members = set()
    stack = [top]
    while stack:
        n = stack.pop()
        if n.layer != node.layer:
            continue
        members.add(n.key)
        for c in (n.left, n.right):
            if c is not None:
                stack.append(c)
    return members


CORRUPTIONS = []


def _case(name):
    def wrap(fn):
        CORRUPTIONS.append((name, fn))
        return fn
    return wrap


def _color_case(key):
    @_case(f"color-flip-{key}")
    def inject(tree):
        corrupt_color(tree, key)
        return ({"rb-red-red", "rb-black-height", "rb-root-red"},
                _subtree_members(tree, key))


def _layer_case(key, new_layer):
    @_case(f"layer-{key}-to-{new_layer}")
    def inject(tree):
        corrupt_layer(tree, key, new_layer)
        witnesses = {key, 1, 2, 3, new_layer, "last_size"}
        witnesses |= {c.key for c in _children(tree, key)}
        return ({"layer-monotone", "layer-size", "layer-shape", "queue-chain",
                 "header"}, witnesses)


def _children(tree, key):
    node = tree.engine.root
    while node.key != key:
        node = node.left if key < node.key else node.right
    return [c for c in (node.left, node.right) if c is not None]


def _queue_case(key, layer):
    @_case(f"queue-swap-{key}")
    def inject(tree):
        corrupt_queue_swap(tree, key)
        return ({"queue-chain"}, {layer, key})


def _ends_case(layer, side, value):
    @_case(f"ends-{layer}:{side}-{value}")
    def inject(tree):
        corrupt_ends(tree, layer, side == "young", value)
        return {"header"}, {"ends"}


def _parent_case(key, to):
    @_case(f"parent-{key}-to-{to}")
    def inject(tree):
        grandparent = tree.engine.lookup(key).parent.parent.key
        corrupt_parent(tree, key, grandparent if to == "grandparent" else None)
        return {"parent-link"}, {key}


def _header_case(name, **kwargs):
    @_case(f"header-{name}")
    def inject(tree):
        corrupt_sizes(tree, **kwargs)
        return ({"header", "layer-size"}, {"t", "last_size", 1, 2})


# the 40-key target tree settles as layers [40..37], [36..21], [20..1]
for _k in (3, 10, 28, 35):
    _color_case(_k)
for _k, _lay in ((20, 2), (5, 4), (33, 1), (12, 5)):
    _layer_case(_k, _lay)
for _k, _lay in ((38, 1), (37, 1), (8, 3), (20, 3)):
    _queue_case(_k, _lay)
_ends_case(1, "young", 999)
_ends_case(1, "old", None)
_ends_case(2, "young", 7)
_ends_case(2, "old", -1)
_parent_case(10, "grandparent")
_parent_case(10, None)
_header_case("t-up", layers=4)
_header_case("t-down", layers=1)
_header_case("size-up", deepest=25)
_header_case("size-down", deepest=2)


@pytest.mark.parametrize("name,inject", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_criterion_10_fault_injection(name, inject):
    assert len(CORRUPTIONS) == 22
    tree = _target_tree()
    expected_kinds, allowed_witnesses = inject(tree)
    found = verify_structure(tree)
    assert found, f"{name}: corruption went undetected"
    matching = [v for v in found if v.kind in expected_kinds]
    assert matching, f"{name}: detected {[str(v) for v in found]}, expected kind in {expected_kinds}"
    witnesses = {v.witness for v in matching}
    assert witnesses & allowed_witnesses, \
        f"{name}: witnesses {witnesses} outside expected {allowed_witnesses}"


def test_criterion_10_summary():
    print(f"\ncriterion 10 PASS: all {len(CORRUPTIONS)} corruptions detected "
          f"with a witness naming the fault")
