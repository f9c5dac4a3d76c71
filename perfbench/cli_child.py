#!/usr/bin/env python3
"""Run the ``layerws`` command in this process, as its console script does,
and report the process's own peak memory.

    PYTHONPATH=src python3 perfbench/cli_child.py REPORT.json 0|1 <layerws arguments>

With 1 the benchmark's span wrappers are installed first (see ``tracer``).
REPORT.json receives ``vm_hwm_kib``, the high-water mark of this process's
resident memory since it started (``VmHWM``: unlike ``ru_maxrss`` it does not
include the parent's memory at the fork); ``probe_s``, speed probe samples
taken just before and after the command (see ``speed``), and
``probe_wall_s``, the time they took; and with 1 the folded spans.  The exit
status is the command's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def vm_hwm_kib() -> int:
    """This process's peak resident memory since it started, in KiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    out, traced, args = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    import layerws.cli
    from speed import SpeedProbe

    t0 = perf_counter()
    probe = SpeedProbe()
    probe.sample()
    probe_wall_s = perf_counter() - t0

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.set_phase("run")
    try:
        return layerws.cli.main(args)
    finally:
        if tracer is not None:
            tracer.set_phase(None)
        t0 = perf_counter()
        probe.sample()
        probe_wall_s += perf_counter() - t0
        report = {"vm_hwm_kib": vm_hwm_kib(), "probe_s": probe.samples,
                  "probe_wall_s": probe_wall_s}
        if tracer is not None:
            report["spans"] = tracer.records["run"]
        out.write_text(json.dumps(report), encoding="ascii")


if __name__ == "__main__":
    sys.exit(main())
