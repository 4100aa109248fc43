"""copslab benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload verify-standard --seed 0 --seconds 20 --trace 0

Each run starts fresh worker processes (worker.py), one at a time: one that
measures, and before and after it several that only set up, so set-up time
is a median. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat every metric with its unit,
the failed share, the JSONL digest and any failed check. See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-standard", "search-small", "hunt-sparse")
END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "resolved_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_RUNS = 9  # fresh processes that report their set-up time; the measuring one is the last
TIMEOUT_S = 170  # for a whole run, set-up processes included


class BenchError(RuntimeError):
    pass


def start_worker(args, setup_only: bool, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the set-up time it reports on its READY line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - perf_counter(), 0))
    words = (proc.stdout.readline() if ready else "").split()
    if len(words) != 2 or words[0] != "READY":
        stop(proc)
        raise BenchError(f"worker did not get ready: {' '.join(words) or 'timeout'}")
    return proc, float(words[1])


def setup_only(args, deadline: float) -> float:
    proc, setup = start_worker(args, True, deadline)
    finish(proc, deadline)
    return setup


def stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker and return its remaining stdout; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run(args) -> dict:
    if not (ROOT / "src" / "copslab" / "cli.py").is_file():
        raise BenchError(f"no copslab sources under {ROOT / 'src'}")
    deadline = perf_counter() + TIMEOUT_S
    # Set-up-only workers run both before and after the measuring one, so the
    # median covers the whole run and not only a slow or fast moment at its start.
    extra = 0 if args.trace else SETUP_RUNS - 1
    setups = [setup_only(args, deadline) for _ in range(extra // 2)]
    proc, setup = start_worker(args, False, deadline)
    setups.append(setup)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    setups += [setup_only(args, deadline) for _ in range(extra - extra // 2)]
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["report"]["setup_runs_s"] = setups
    return result


def recorded_digest(workload: str, seed: int) -> str | None:
    """The unit-0 JSONL digest recorded in digests.json, if any; a change is reported, not gated."""
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run(argparse.Namespace(**vars(args) | {"workload": name}))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        print_result(name, args, result)
    return 0


def print_result(workload: str, args, result: dict) -> None:
    """Every metric with its unit, then the report, then the result as one JSON line."""
    units = {name: unit for name, unit, _ in PER_LAYER} if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    report = result["report"]
    recorded = recorded_digest(workload, args.seed)
    if recorded is not None:
        report["jsonl_vs_digests_json"] = "same" if recorded == report["jsonl_sha256"] else "changed"
    print(f"workload {workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':34s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    for key, value in report.items():
        print(f"  {key}: {value}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}),
          flush=True)


if __name__ == "__main__":
    sys.exit(main())
