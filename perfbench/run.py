#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lws_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout: the package is imported from ``src/``
there and nowhere else.  The output is a table of every metric with its
unit and sample count, a ``details`` line holding the same as JSON, and as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics ``BENCHMARK.json`` lists: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.  The exit status is 0
when every operation passed its checks.

``--workload all`` runs each workload in a process of its own, one after
another.  ``--scale small`` shrinks every input, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def use_source_tree():
    """Import layerws from the checkout's ``src/``; stop if it is not there."""
    if not (SRC / "layerws" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/layerws not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import layerws
    if Path(layerws.__file__).resolve().parent != (SRC / "layerws").resolve():
        raise SystemExit(f"error: layerws was imported from {layerws.__file__}, not {SRC}")


def end_to_end(tally) -> dict[str, tuple[float, str, int]]:
    """Metric name -> (value, unit, sample count).

    Throughput is the median over samples of consecutive operations: 200
    calls, or for verify_cli one run of the command.  Latency is per call;
    for verify_cli one sample is one command run's time per operation.
    ``op_us_p99`` and ``update_visits_per_op`` appear only where they have
    their samples.  ``visits_max`` is the worst single operation; it swings
    with the seed, so the gated tail is ``visits_p99``.  ``layer_w_breaches``
    (verify_cli) counts a round's hits in layer j >= 2 with w < 2^(2^(j-1)),
    a promise that deletes break today; it is printed, not gated.
    """
    lat, visits = tally.latency_us, tally.op_visits
    setup_probe = statistics.median(tally.setup_probe_s)
    # A command run that failed before its report gives no samples.
    round_probe = statistics.median(tally.round_probe_s or tally.setup_probe_s)
    # Times as they read at the probe's reference speed: see speed.py.
    setup_scale, scale = REFERENCE_S / setup_probe, REFERENCE_S / round_probe
    out = {
        "setup_s": (statistics.median(tally.setup_s) * setup_scale, "s", len(tally.setup_s)),
        "ops_per_s": (statistics.median(tally.throughput) / scale, "ops/s", len(tally.throughput)),
        "op_us_p50": (statistics.median(lat) * scale, "us", len(lat)),
    }
    if len(lat) >= 1000:  # at least ten samples beyond the 99th percentile
        out["op_us_p99"] = (statistics.quantiles(lat, n=100)[98] * scale, "us", len(lat))
    out["visits_per_op"] = (sum(visits) / len(visits), "visits", len(visits))
    out["visits_p99"] = (statistics.quantiles(visits, n=100)[98], "visits", len(visits))
    out["visits_max"] = (max(visits), "visits", len(visits))
    out["search_visits_per_op"] = (
        tally.search_visits / tally.search_ops, "visits", tally.search_ops)
    if tally.update_ops:
        out["update_visits_per_op"] = (
            tally.update_visits / tally.update_ops, "visits", tally.update_ops)
    out["peak_rss_mib"] = (tally.peak_rss_mib, "MiB", 1)
    out["setup_probe_us"] = (setup_probe * 1e6, "us", len(tally.setup_probe_s))
    out["round_probe_us"] = (round_probe * 1e6, "us", len(tally.round_probe_s))
    if tally.layer_w_breaches is not None:
        out["layer_w_breaches"] = (tally.layer_w_breaches, "count", tally.search_ops // tally.rounds)
    return out


def show(title: str, metrics: dict):
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<42} {value:>16.6f} {unit:<9} n={samples}")


def run_one(args, bench: dict) -> int:
    use_source_tree()
    import workloads
    from tracer import Tracer, layer_metrics, layer_times

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        tally = workloads.run(args.workload, args.seed, args.seconds, tracer, args.scale)
    finally:
        if tracer is not None:
            tracer.uninstall()

    correct = tally.failed == 0
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}  "
          f"rounds={tally.rounds}  attempted={tally.attempted}  failed={tally.failed}  "
          f"correct={str(correct).lower()}")
    metrics = end_to_end(tally)
    show("end to end" + (" (traced)" if tracer else ""), metrics)
    if tracer is not None:
        setup, run = tracer.records["setup"], tracer.records["run"]
        layers = layer_metrics(setup, run, tally.attempted, tally.measured_s,
                               len(tally.setup_s))
        times = layer_times(setup, run, len(tally.setup_s))
        show("per layer", layers)
        show("per layer, times", times)
        metrics = {**metrics, **layers, **times}
        reported = [m["name"] for m in bench["per_layer"]]
    else:
        reported = [m["name"] for m in bench["end_to_end"]]
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    print("details " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": tally.rounds,
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()},
    }))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in reported},
    }))
    return 0 if correct else 1


def launch(workload: str, seed: int, seconds: float, trace: int = 0,
           scale: str = "full") -> tuple[list[str], dict | None]:
    """Run one workload in a process of its own.

    Returns its standard output, less the last line, and the result that
    line holds (None if the run printed none; its stderr says why).
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return lines, None


def details(lines: list[str]) -> dict:
    """The metrics of a run's ``details`` line: name -> value, unit, samples."""
    line = next(ln for ln in lines if ln.startswith("details "))
    return json.loads(line[len("details "):])["metrics"]


def run_all(args, names: list[str]) -> int:
    results = {}
    for name in names:
        lines, results[name] = launch(name, args.seed, args.seconds, args.trace, args.scale)
        print("\n".join(lines))
        print()
    ok = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": len(ok) == len(names) and all(r["correct"] for r in ok),
        "attempted": sum(r["attempted"] for r in ok),
        "failed": sum(r["failed"] for r in ok),
        "workloads": results,
    }))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
