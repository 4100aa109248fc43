"""One workload in one fresh process: set up, signal READY, measure, print the result.

Run by run.py. The READY line carries the set-up time; the last line of
stdout is the result as JSON. With --setup-only the worker exits right
after READY, so run.py can take set-up time again in a fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, Runner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    # Set-up: import the package and write the first unit's inputs. Interpreter
    # start-up is left out: it is not copslab's, and it varies more than the rest.
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import copslab
    import copslab.cli

    if Path(copslab.__file__).resolve().parent != ROOT / "src" / "copslab":
        print(f"copslab imported from {copslab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        unit = workload.prepare(args.seed, 0, unit_dir(workdir, 0))
        print(f"READY {perf_counter() - start!r}", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, unit, args, workdir, copslab)
    finally:
        os.chdir(HERE)
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


def unit_dir(workdir: Path, unit: int) -> Path:
    """A fresh directory for one unit's input files, made the working directory.

    The CLI then sees the same relative file names in every unit, so its
    output does not depend on the directory. Fresh files are never truncated
    and rewritten, which on some file systems waits for the old data to
    reach the disk.
    """
    path = workdir / f"u{unit}"
    path.mkdir(parents=True)
    os.chdir(path)
    return path


def measure(workload, unit, args, workdir, package) -> dict:
    """Untraced: as many units as fit in --seconds. Traced: unit 0 untraced, then traced."""
    cli = package.cli
    start = perf_counter()
    run0 = Runner(cli)
    units = [workload.execute(unit, run0)]
    longest = perf_counter() - start
    report = {
        "jsonl_sha256": run0.digest.hexdigest(),
        "input_sha256": hashlib.sha256(unit["input"].encode()).hexdigest(),
        "resolved": [sum(it.resolved for it in units[0].items), len(units[0].items)],
    }
    if args.trace:
        tracer = Tracer(package, cli)
        tracer.install()
        try:
            traced = workload.execute(unit, Runner(cli))
        finally:
            tracer.uninstall()
        units.append(traced)
        metrics = tracer.metrics(traced.bytes_out, units[0].busy_s, traced.busy_s)
        report["absent_layers"] = tracer.absent
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.tsv")
    else:
        # Start another unit only if it should end within --seconds, judged by
        # the longest unit so far; the run always measures at least one unit.
        while perf_counter() - start + longest <= args.seconds:
            unit_start = perf_counter()
            more = workload.prepare(args.seed, len(units), unit_dir(workdir, len(units)))
            units.append(workload.execute(more, Runner(cli)))
            longest = max(longest, perf_counter() - unit_start)
        items = [it for res in units for it in res.items]
        latencies = [it.latency_s * 1000 for it in items]  # every unit has at least 120 items
        metrics = {
            "items_per_s": len(items) / sum(res.busy_s for res in units),
            "item_ms_p50": statistics.median(latencies),
            "item_ms_p90": statistics.quantiles(latencies, n=10)[8],
            "resolved_share": sum(it.resolved for it in items) / len(items),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["units"] = len(units)
    items = [it for res in units for it in res.items]
    failed = sum(not it.ok for it in items)
    problems = [p for res in units for p in res.problems]
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": metrics,
        "report": report | {"problems": problems[:20]},
    }


if __name__ == "__main__":
    sys.exit(main())
