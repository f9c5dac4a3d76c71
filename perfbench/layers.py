#!/usr/bin/env python3
"""Traced and untraced runs of every workload, side by side.

    python3 perfbench/layers.py --seed 1

For each workload this runs ``perfbench/run.py`` twice, with ``--trace 0``
and ``--trace 1``, and prints the tracing overhead (untraced over traced
operations per second) and every per-layer metric of the traced run, one
column per workload: where the timed work goes, and which layers a
workload does not reach.
"""

from __future__ import annotations

import argparse
import sys

from run import details, launch, load_benchmark


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    plain = {w: details(launch(w, args.seed, args.seconds, 0)[0]) for w in names}
    traced = {w: details(launch(w, args.seed, args.seconds, 1)[0]) for w in names}
    rows = [("ops_per_s untraced", {w: plain[w]["ops_per_s"]["value"] for w in names}),
            ("ops_per_s traced", {w: traced[w]["ops_per_s"]["value"] for w in names}),
            ("tracing overhead %", {w: 100 * (plain[w]["ops_per_s"]["value"]
                                              / traced[w]["ops_per_s"]["value"] - 1)
                                    for w in names})]
    layer_names = [n for n in traced[names[0]] if n not in plain[names[0]]]
    rows += [(n, {w: traced[w][n]["value"] for w in names}) for n in layer_names]
    print(f"{'seed ' + str(args.seed):<40}" + "".join(f"{w:>20}" for w in names))
    for label, values in rows:
        print(f"{label:<40}" + "".join(f"{values[w]:>20.4f}" for w in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
