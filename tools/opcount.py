#!/usr/bin/env python3
"""Count the layered tree's interpreter work per insert, search and delete,
and per doubled skip-splay access.

Preloads a ``zipf_recency`` trace into a LayeredTree without tracing,
except for its last ``--inserts`` inserts, then runs its searches and
deletes the keys of the traced inserts.  The ``access`` column runs as many
doubled accesses as there are searches on a k = 4 SkipSplayTree, keyed by
a width-4 ``repeat_block`` stream over its 255 keys: the band searches.
The traced operations are counted in bytecodes executed, from
``sys.settrace`` opcode events, per function and in total.  The counts are
exact and repeat from run to run, so they measure interpreter work where
wall clock is too noisy to.

    python tools/opcount.py [--n 10000 --searches 2000 --inserts 500 --seed 1]
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layerws.layered_tree import LayeredTree
from layerws.skip_splay import SkipSplayTree
from layerws.workload import GeneratorSpec, generate


def count_opcodes(fn, keys) -> tuple[Counter, int]:
    """Run ``fn(key)`` for each key under an opcode tracer: (opcodes by
    function, total opcodes).  Each frame counts its own opcodes and adds
    them to both tallies when it returns or yields.  The cyclic collector
    is paused meanwhile: a collection could run callbacks, which would be
    counted too, at no fixed point of the run."""
    by_code: Counter = Counter()
    total = 0

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        ran = 0

        def local(frame, event, arg):
            nonlocal ran, total
            if event == "opcode":
                ran += 1
            elif event == "return":
                by_code[frame.f_code] += ran
                total += ran
            return local
        return local

    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        for key in keys:
            fn(key)
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    by_name: Counter = Counter()
    for code, n in by_code.items():
        by_name[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += n
    return by_name, total


def profile(n: int, searches: int, inserts: int, seed: int) -> dict:
    """op kind -> (operations, opcodes by function, total opcodes); an
    ``access`` operation is a doubled pair."""
    trace = generate(GeneratorSpec("zipf_recency", n, n + searches, seed=seed, theta=1.0))
    preload, found = [op.key for op in trace[:n]], [op.key for op in trace[n:]]
    tree = LayeredTree()
    for key in preload[:n - inserts]:
        tree.insert(key)
    skip = SkipSplayTree(4)
    stream = generate(GeneratorSpec("repeat_block", skip.n, skip.n + searches, seed=seed, width=4))
    out = {}
    for kind, fn, keys in (("insert", tree.insert, preload[n - inserts:]),
                           ("search", tree.search, found),
                           ("delete", tree.delete, preload[n - inserts:]),
                           ("access", skip.access_doubled, [op.key for op in stream[skip.n:]])):
        by_name, total = count_opcodes(fn, keys)
        out[kind] = len(keys), by_name, total
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=10_000, help="keys preloaded")
    ap.add_argument("--searches", type=int, default=2000, help="searches and doubled accesses traced")
    ap.add_argument("--inserts", type=int, default=500, help="last preload inserts traced")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if not 0 < args.inserts <= args.n or args.searches <= 0:
        ap.error("want 0 < --inserts <= --n and --searches > 0")
    result = profile(args.n, args.searches, args.inserts, args.seed)
    names = sorted(set().union(*(by_name for _, by_name, _ in result.values())),
                   key=lambda name: -sum(r[1][name] / r[0] for r in result.values()))
    print(f"{'opcodes per op':<48}" + "".join(f"{kind:>10}" for kind in result))
    for name in names:
        print(f"{name:<48}" + "".join(f"{by_name[name] / ops:>10.1f}"
                                       for ops, by_name, _ in result.values()))
    print(f"{'total':<48}" + "".join(f"{total / ops:>10.1f}" for ops, _, total in result.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
