#!/usr/bin/env python3
"""Calibrate the committed cost constants.

Runs the acceptance workload matrix, prints the observed maxima of each
cost ratio, and suggests frozen constants at 1.25x the maxima.  Run once,
paste the suggestions into src/layerws/constants.json, and leave them
alone; the acceptance suite then asserts the bounds on fresh seeds.

    python tools/calibrate.py
"""

import json
import math
import random
import sys
import time

sys.path.insert(0, "src")

from layerws.harness import cost_rows
from layerws.layered_tree import LayeredTree
from layerws.reference import WorkingSetTracker, lg
from layerws.skip_splay import SkipSplayTree
from layerws.workload import GeneratorSpec, TraceOp, generate

MATRIX_SEEDS = (1, 2, 3)
SIZES = (100, 1000, 10_000)


def matrix_traces(n, seed, ops=12_000):
    yield "uniform", generate(GeneratorSpec("uniform", n, ops, seed))
    yield "zipf1", generate(GeneratorSpec("zipf_recency", n, ops, seed, theta=1.0))
    yield "zipf2", generate(GeneratorSpec("zipf_recency", n, ops, seed, theta=2.0))
    preamble = [TraceOp("I", k) for k in range(1, n + 1)]
    scan = generate(GeneratorSpec("sequential_scan", n, ops - n, seed))
    yield "sequential", preamble + scan
    yield "finger", generate(GeneratorSpec("finger_walk", n, ops, seed))


def replay_costs(trace):
    tree = LayeredTree()
    search_ratio = 0.0
    update_ratio = 0.0
    for op, cost, _, w in cost_rows(tree, trace, WorkingSetTracker()):
        if op.kind == "S":
            search_ratio = max(search_ratio, cost / lg(w))
        else:
            # an insert is costed at the size after it, a delete before it
            update_ratio = max(update_ratio, cost / math.log2(len(tree) + (op.kind == "D") + 2))
    return search_ratio, update_ratio


def skip_accesses(k, seed, ops):
    rng = random.Random(seed)
    tree = SkipSplayTree(k)
    n = tree.n
    keys = []
    keys.extend(rng.randint(1, n) for _ in range(ops // 2))
    keys.extend(1 + (i % n) for i in range(ops // 4))          # scans
    for i in range(ops - len(keys)):                            # edge hammering
        keys.append(1 if i % 2 else n)
    return tree, keys


def main():
    t0 = time.time()
    c1 = c2 = 0.0
    for n in SIZES:
        for seed in MATRIX_SEEDS:
            for family, trace in matrix_traces(n, seed):
                s, u = replay_costs(trace)
                c1 = max(c1, s)
                c2 = max(c2, u)
                print(f"n={n:>6} seed={seed} {family:<10} search<= {s:7.2f}  update<= {u:7.2f}")

    c3 = 0.0
    doubled_num = 0.0
    plateau = 0
    for k in (2, 3, 4, 5):
        ops = 2000 if k == 5 else 20_000
        tree, keys = skip_accesses(k, 40 + k, ops)
        n = tree.n
        lgn = math.log2(n + 2)
        worst = max(tree.access(x) for x in keys)
        c3 = max(c3, worst / lgn)
        print(f"skip k={k} worst access {worst} ratio {worst / lgn:.2f}")

        tree, keys = skip_accesses(k, 80 + k, ops // 2)
        rng = random.Random(123 + k)
        keys = list(keys)
        for _ in range(len(keys) // 4):
            keys.insert(rng.randrange(len(keys)), keys[rng.randrange(len(keys))])
        repeats = [rng.randint(1, n) for _ in range(50)]
        for x in repeats:  # hammer single keys so the w=0 plateau is well sampled
            keys.extend([x, x, x])
        tracker = WorkingSetTracker(range(1, n + 1))
        coef = math.log2(math.log2(n + 2)) + 1
        for x in keys:
            w = tracker.working_set_number(x)
            pair = tree.access_doubled(x)
            tracker.record_access(x)
            doubled_num = max(doubled_num, pair / (coef * lg(w)))
            if w == 0:
                plateau = max(plateau, pair)
        print(f"skip k={k} doubled ratio<= {doubled_num:.2f} plateau {plateau}")

    print(f"\nelapsed {time.time() - t0:.1f} s")
    suggestion = {
        "search_per_lgw": round(c1 * 1.25, 1),
        "update_per_lgn": round(c2 * 1.25, 1),
        "skip_per_lgn": round(c3 * 1.25, 1),
        "skip_doubled_factor": round(doubled_num * 1.25, 1),
        "skip_doubled_additive": float(round(plateau * 1.25)),
        "amortized_flag_threshold": 10.0,
    }
    print(json.dumps(suggestion, indent=2))


if __name__ == "__main__":
    main()
