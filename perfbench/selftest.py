"""Self-test of the benchmark: determinism, held-out seed, definitions, seed-0 baseline.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload: two traced runs at seed 0 must give identical work
counters and identical JSONL digests, and a traced run at seed 1 must change
the input digest and still pass every output check. It also checks that
BENCHMARK.json names exactly the metrics and workloads the code reports,
that the stored standard corpus is the package's, that every stored
hunt-sparse L is the oracle's longest induced path, and that the seed-0
verify-standard counters match the recorded baseline. Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

import inputs
import oracles
import run
import tracer

COUNTERS = [name for name, unit, _ in tracer.PER_LAYER
            if unit not in ("s", "ms") and name != "trace_overhead_share"]
# ROADMAP baseline at seed 0 for the package version this benchmark was defined on.
VERIFY_STANDARD_SEED0 = {"solver.solve_calls": 982, "solver.solve_distinct": 631, "solver.gate_skips": 44}


def traced(workload: str, seed: int) -> dict:
    return run.run(argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=1))


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def definitions(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names", failures)
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end-to-end metrics", failures)
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER),
          "per-layer metrics", failures)


def base_corpora(failures: list[str]) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from copslab.corpus import theorem_corpus
    from copslab.graphs import encode_graph6

    ours = [s for _, s in inputs.base_corpus("standard")]
    check(ours == [encode_graph6(g) for _, g in theorem_corpus()],
          "seed-0 verify-standard input is the package's standard corpus", failures)
    hunt = inputs.base_corpus("hunt")
    wrong = [i for i, (tag, s) in enumerate(hunt)
             if int(tag) != oracles.longest_induced_path(oracles.decode_graph6(s))]
    check(len(hunt) == 120 and not wrong, f"hunt-sparse base corpus: every stored L is the oracle's {wrong or ''}",
          failures)


def workload(name: str, failures: list[str]) -> None:
    first, second, held_out = traced(name, 0), traced(name, 0), traced(name, 1)
    for res, label in ((first, "seed 0"), (second, "seed 0 again"), (held_out, "seed 1")):
        check(res["correct"] and res["failed"] == 0, f"{name} {label}: every output check passes", failures)
    a, b = first["metrics"], second["metrics"]
    diff = [c for c in COUNTERS if a[c] != b[c]]
    check(not diff, f"{name}: identical counters at seed 0 {diff or ''}", failures)
    check(first["report"]["jsonl_sha256"] == second["report"]["jsonl_sha256"],
          f"{name}: identical JSONL at seed 0", failures)
    check(first["report"]["input_sha256"] != held_out["report"]["input_sha256"],
          f"{name}: seed 1 changes the input", failures)
    if name == "verify-standard":
        got = {k: a[k] for k in VERIFY_STANDARD_SEED0}
        check(got == VERIFY_STANDARD_SEED0, f"{name}: seed-0 counters {got}", failures)
        resolved = first["report"]["resolved"]
        check(resolved == [251, 295], f"{name}: resolved {resolved} (per unit, of items)", failures)
    recorded = run.recorded_digest(name, 0)
    if recorded is not None:  # reported, not gated: the program's output may change on purpose
        same = recorded == first["report"]["jsonl_sha256"]
        print(f"note {name}: seed-0 JSONL {'matches' if same else 'differs from'} digests.json")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = p.parse_args()
    failures: list[str] = []
    definitions(failures)
    base_corpora(failures)
    for name in args.workload or run.WORKLOADS:
        workload(name, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
