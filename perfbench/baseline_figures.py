#!/usr/bin/env python3
"""Reference figures: the red-black baseline on the lws_* operation lists.

    python3 perfbench/baseline_figures.py --seed 1

Builds the lws_zipf and lws_mixed inputs exactly as the benchmark does,
replays them once on ``RedBlackBaseline`` (a plain red-black tree on the
same cursor engine; lws_zipf preloads the same ascending keys, untimed)
and prints visits per operation and the median time per call.  These are
figures to read beside the benchmark's, not gated metrics.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    run.use_source_tree()
    import workloads
    from layerws import RedBlackBaseline

    for name in ("lws_zipf", "lws_mixed"):
        workload = workloads.WORKLOADS[name](args.seed, workloads.SCALES["full"])
        workload.setup()
        tree = RedBlackBaseline()
        for key in getattr(workload, "preload", ()):
            tree.insert(key)
        method = {"S": tree.search, "I": tree.insert, "D": tree.delete}
        tally = workloads.Tally()
        _, visits = workloads.timed_calls([method[k] for k in workload.kinds], workload.keys,
                                           tree.engine, tally, None)
        print(f"{name}: RedBlackBaseline {sum(visits) / len(visits):.2f} visits/op, "
              f"max {max(visits)}, {statistics.median(tally.latency_us):.3f} us/op median, "
              f"{tally.attempted} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
