"""Command-line entry point.

Examples:

    layerws --structure lws --gen zipf_recency --n 1000 --ops 20000 --seed 7 \
            --csv run.csv --json run.json
    layerws --structure skip_splay --trace accesses.txt --verify-every 500

Exit status 0 means the run completed with zero invariant violations and,
for layered-tree runs, zero divergence from the reference structure.
Violations exit 1; configuration, I/O, and incompatible-trace errors
exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DictError, IncompatibleTraceError, TraceError
from .harness import STRUCTURES, RunConfig, run
from .workload import FAMILIES, GeneratorSpec, load


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerws",
        description="Run operation traces against working-set dictionary structures.")
    parser.add_argument("--structure", required=True, choices=STRUCTURES)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", metavar="FILE", help="trace file (one '<S|I|D> <key>' per line)")
    source.add_argument("--gen", metavar="FAMILY", choices=sorted(FAMILIES),
                        help="generate the trace instead of reading one")
    parser.add_argument("--n", type=int, default=100, help="generator universe size")
    parser.add_argument("--ops", type=int, default=1000, help="generator operation count")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--theta", type=float, default=1.0, help="zipf exponent")
    parser.add_argument("--width", type=int, default=8, help="repeat-block width")
    parser.add_argument("--verify-every", type=int, default=100, metavar="K",
                        help="full invariant sweep every K operations")
    parser.add_argument("--csv", metavar="PATH", help="per-operation cost rows")
    parser.add_argument("--json", metavar="PATH", help="run summary")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trace is not None:
            trace = load(args.trace)
            gen = None
        else:
            trace = None
            gen = GeneratorSpec(family=args.gen, universe=args.n, ops=args.ops,
                                seed=args.seed, theta=args.theta, width=args.width)
        config = RunConfig(
            structure=args.structure, trace=trace, gen=gen,
            verify_every=args.verify_every,
            csv_path=args.csv, json_path=args.json,
        )
        result = run(config)
    except (TraceError, IncompatibleTraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    for at, v in result.violations[:20]:
        print(f"violation: op {at}: {v}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
