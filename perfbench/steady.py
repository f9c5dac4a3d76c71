#!/usr/bin/env python3
"""Repeat workloads over consecutive seeds and print each metric's spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workload skip_splay_doubled

Every run is ``perfbench/run.py`` in a process of its own, with
``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given.  For each
workload and end-to-end metric this prints the median and quartiles of the
runs (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) against the metric's bound, and the share of
failed operations.  A spread of a third of the bound or more is marked
WIDE; the exit status is 1 if a spread exceeds its bound or the failed
share differs between runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import launch, load_benchmark


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    t0 = time.perf_counter()
    _, result = launch(workload, seed, seconds)
    if result is None:
        raise SystemExit(f"error: {workload} seed {seed} printed no result")
    return result, time.perf_counter() - t0


def summarise(results: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        walls = [w for _, w in runs]
        fail_shares = sorted({r["failed"] / r["attempted"] for r, _ in runs})
        print(f"{workload}: {len(runs)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s, failed shares {fail_shares}, "
              f"correct {all(r['correct'] for r, _ in runs)}")
        print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, values in summarise([r for r, _ in runs]).items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]["bound"]
            flag = "" if spread < bound / 3 else "  WIDE"
            steady &= spread <= bound
            print(f"  {name:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bound:>6}{flag}")
        steady &= len(fail_shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
