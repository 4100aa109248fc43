"""The three workloads: input preparation, CLI calls through `copslab.cli.main`, output checks.

A run repeats measured units until its time is up. Unit u of a run at seed s
gets its own inputs from (s, u); unit 0 of seed 0 is the package's standard
input for each workload. One item is one graph (or one conjecture sample);
its latency comes from the time its JSONL record was written, so no item needs
an invocation of its own.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import oracles


@dataclass
class Item:
    latency_s: float
    ok: bool
    resolved: bool


@dataclass
class UnitResult:
    items: list[Item] = field(default_factory=list)
    busy_s: float = 0.0  # time spent inside the CLI
    bytes_out: int = 0
    problems: list[str] = field(default_factory=list)


class StampedStdout(io.TextIOBase):
    """Stands in for sys.stdout and notes the time each line is completed."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        for _ in range(s.count("\n")):
            self.stamps.append(perf_counter())
        return len(s)


@dataclass
class Call:
    code: int
    text: str
    stamps: list[float]
    start: float
    end: float

    def records(self) -> list[dict]:
        out = []
        for line in self.text.splitlines():
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                out.append({"type": "unparsable", "text": line[:200]})
        return out

    def deltas(self) -> list[float]:
        """Per-line latency: time from the previous line (or the call's start)."""
        prev = [self.start] + self.stamps[:-1]
        return [b - a for a, b in zip(prev, self.stamps)]


class Runner:
    """Calls the CLI in-process; hashes every byte it prints and times every call."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.digest = hashlib.sha256()

    def __call__(self, result: UnitResult, *argv: str) -> Call:
        out = StampedStdout()
        saved, sys.stdout = sys.stdout, out
        start = perf_counter()
        try:
            code = self.cli.main(list(argv))  # attribute lookup, so a tracer's wrapper is used
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI must not raise; report it as a failed call and go on
            code = -1
            _check(result, False, f"{argv}: {traceback.format_exc(limit=-2)}")
        finally:
            end = perf_counter()
            sys.stdout = saved
        text = "".join(out.parts)
        data = text.encode()
        self.digest.update(data)
        result.busy_s += end - start
        result.bytes_out += len(data)
        return Call(code, text, out.stamps, start, end)


def _check(result: UnitResult, ok: bool, what: str) -> bool:
    if not ok and len(result.problems) < 20:
        result.problems.append(what)
    return ok


def _pad(latencies: list[float], count: int) -> list[float]:
    """One latency per expected item; an item the CLI never answered gets 0 (and fails its check)."""
    return (latencies + [0.0] * count)[:count]


def _outcome(call: Call) -> dict:
    return next((r for r in call.records() if r.get("type") == "outcome"), {})


class VerifyStandard:
    """`verify-theorem` on one graph6 file holding the relabeled 295-graph standard corpus."""

    name = "verify-standard"

    def __init__(self):
        self.base = inputs.base_corpus("standard")

    def prepare(self, seed: int, unit: int, workdir: Path) -> dict:
        lines = inputs.relabeled([s for _, s in self.base], seed, unit)
        (workdir / "corpus.g6").write_text("".join(s + "\n" for s in lines))
        return {"lines": lines, "kinds": [kind for kind, _ in self.base], "input": "\n".join(lines)}

    def execute(self, unit: dict, run: Runner) -> UnitResult:
        res = UnitResult()
        call = run(res, "verify-theorem", "corpus.g6")
        recs = call.records()
        lines, count = unit["lines"], len(unit["lines"])
        summary = recs[-1] if recs else {}
        whole_ok = _check(res, call.code == 0, f"verify-theorem exit {call.code}") & _check(
            res,
            len(recs) == count + 1
            and summary.get("type") == "summary"
            and (summary.get("graphs"), summary.get("passed"), summary.get("failed")) == (count, count, 0),
            f"summary {summary}",
        )
        expected_cop_number = {"tree": 1, "complete": 1, "cycle": 2, "petersen": 3}
        for i, latency in enumerate(_pad(call.deltas(), count)):
            rec = recs[i] if i < len(recs) else {}
            adj = oracles.decode_graph6(lines[i])
            lip = oracles.longest_induced_path(adj)
            t = max(lip + 1, 3)
            smc, scm = rec.get("strategy_capture_moves"), rec.get("solver_capture_moves")
            want = expected_cop_number.get(unit["kinds"][i])
            ok = whole_ok & _check(
                res,
                rec.get("type") == "run"
                and rec.get("graph6") == lines[i]
                and rec.get("theorem_pass") is True
                and (rec.get("lip_order"), rec.get("t")) == (lip, t)
                and (want is None or rec.get("cop_number") == want)
                and isinstance(smc, int) and smc <= t - 1
                and (scm is None or smc >= scm),
                f"graph {i} {lines[i]}: {rec}",
            )
            res.items.append(Item(latency, ok, scm is not None))
        return res


class SearchSmall:
    """`conjecture-search` at t in {6, 7}, n = 8..14: one call per (t, n) cell."""

    name = "search-small"
    samples = 200

    def prepare(self, seed: int, unit: int, workdir: Path) -> dict:
        rng = inputs.unit_stream(seed, unit)
        argvs = [
            ("conjecture-search", "--t", str(t), "--n", str(n),
             "--samples", str(self.samples), "--seed", str(rng.next_u64()))
            for t in (6, 7) for n in range(8, 15)
        ]
        return {"argvs": argvs, "input": json.dumps(argvs), "workdir": workdir}

    def execute(self, unit: dict, run: Runner) -> UnitResult:
        res = UnitResult()
        for argv in unit["argvs"]:
            t, n = int(argv[2]), int(argv[4])
            call = run(res, *argv)
            recs = call.records()
            samples = [r for r in recs if r.get("type") in ("conjecture", "generation_error")]
            summary = recs[-1] if recs else {}
            statuses = [r.get("status", "GENERATION_ERROR") for r in samples]
            counts = {s: statuses.count(s) for s in ("HOLDS", "VIOLATED", "UNKNOWN", "GENERATION_ERROR")}
            cell_ok = _check(res, call.code == 0, f"{argv}: exit {call.code}") & _check(
                res,
                len(samples) == self.samples == len(recs) - 1
                and summary.get("type") == "summary"
                and summary.get("samples") == self.samples
                and (summary.get("holds"), summary.get("violated"), summary.get("unknown"),
                     summary.get("generation_failures"))
                == tuple(counts.values()),
                f"{argv}: summary {summary} does not add up",
            )
            for i, latency in enumerate(_pad(call.deltas(), self.samples)):
                rec = samples[i] if i < len(samples) else {}
                ok = cell_ok & _check(res, self._sample_ok(rec, t, n, unit, run), f"{argv}: {rec}")
                res.items.append(Item(latency, ok, rec.get("status") in ("HOLDS", "VIOLATED")))
        return res

    def _sample_ok(self, rec: dict, t: int, n: int, unit: dict, run: Runner) -> bool:
        if rec.get("type") != "conjecture" or (rec.get("t"), rec.get("n")) != (t, n):
            return False
        adj = oracles.decode_graph6(rec["graph6"])
        if len(adj) != n or not oracles.is_connected(adj) or oracles.longest_induced_path(adj, t) >= t:
            return False
        status = rec.get("status")
        if status == "HOLDS":
            return isinstance(rec.get("cop_number"), int) and 1 <= rec["cop_number"] <= t - 3
        if status == "VIOLATED":
            return self._replays(rec, t, unit["workdir"], run)
        return status == "UNKNOWN"

    @staticmethod
    def _replays(rec: dict, t: int, workdir: Path, run: Runner) -> bool:
        """Every k <= t-3 in the evidence loses, and `copslab solve` agrees."""
        per_k = rec.get("evidence", {}).get("per_k", [])
        if [(e.get("k"), e.get("cop_win")) for e in per_k] != [(k, False) for k in range(1, t - 2)]:
            return False
        path = workdir / "violated.g6"
        path.write_text(rec["graph6"] + "\n")
        scratch = UnitResult()
        for k in range(1, t - 2):
            replay = run(scratch, "solve", path.name, "--cops", str(k)).records()
            if (replay or [{}])[-1].get("cop_win") is not False:
                return False
        return True


class HuntSparse:
    """`lip` on relabeled sparse G(n, c/n), then `check` and `simulate` on each graph."""

    name = "hunt-sparse"
    random_robbers = 10

    def __init__(self):
        self.base = inputs.base_corpus("hunt")

    def prepare(self, seed: int, unit: int, workdir: Path) -> dict:
        lines = inputs.relabeled([s for _, s in self.base], seed, unit)
        (workdir / "hunt.g6").write_text("".join(s + "\n" for s in lines))
        rng = inputs.unit_stream(seed, unit)
        robbers = [[rng.below(1 << 31) for _ in range(self.random_robbers)] for _ in lines]
        return {"lines": lines, "lip": [int(tag) for tag, _ in self.base], "robbers": robbers,
                "input": json.dumps([lines, robbers]), "workdir": workdir}

    def execute(self, unit: dict, run: Runner) -> UnitResult:
        res = UnitResult()
        lines = unit["lines"]
        lip = run(res, "lip", "hunt.g6")
        recs = lip.records()
        lip_ok = _check(res, lip.code == 0 and len(recs) == len(lines), f"lip exit {lip.code}")
        for i, latency in enumerate(_pad(lip.deltas(), len(lines))):
            rec = recs[i] if i < len(recs) else {}
            adj = oracles.decode_graph6(lines[i])
            order = rec.get("lip_order")
            ok = lip_ok & _check(
                res,
                rec.get("graph6") == lines[i]
                and order == unit["lip"][i]
                and len(rec.get("witness", [])) == order
                and oracles.is_induced_path(adj, rec["witness"]),
                f"lip {i}: {rec}",
            )
            if not ok:
                res.items.append(Item(latency, False, False))
                continue
            # Each graph's own file is written here, outside the timed CLI calls, not
            # in prepare: 120 file creations would make set-up time mostly file-system noise.
            path = unit["workdir"] / f"g{i}.g6"
            if not path.exists():  # a traced pass reuses the untraced pass's files
                path.write_text(lines[i] + "\n")
            busy = res.busy_s
            ok, resolved = self._games(res, run, path.name, adj, order, unit["robbers"][i])
            res.items.append(Item(latency + res.busy_s - busy, ok, resolved))
        return res

    def _games(self, res: UnitResult, run: Runner, path: str, adj, L: int, seeds) -> tuple[bool, bool]:
        """check --t L, simulate --t L+1 against greedy and random robbers, simulate --t L."""
        call = run(res, "check", path, "--t", str(L))
        rec = (call.records() or [{}])[0]
        ok = _check(
            res,
            call.code == 1 and rec.get("pt_free") is False
            and len(rec.get("certificate", [])) == L
            and oracles.is_induced_path(adj, rec["certificate"]),
            f"check {path} --t {L}: {rec}",
        )
        settled = True
        for robber in ["greedy"] + [f"random:{s}" for s in seeds]:
            call = run(res, "simulate", path, "--t", str(L + 1), "--robber", robber)
            out = _outcome(call)
            captured = out.get("result") == "captured" and out.get("cop_moves", L + 1) <= L
            settled &= captured
            ok &= _check(res, call.code == 0 and captured, f"simulate {path} --t {L + 1} {robber}: {out}")
        call = run(res, "simulate", path, "--t", str(L))
        out = _outcome(call)
        if out.get("result") == "captured":
            good = call.code == (0 if out.get("cop_moves", L) <= L - 1 else 1)
        else:
            cert = out.get("certificate", [])
            good = (out.get("result") == "strategy_failure" and call.code == 1
                    and len(cert) == L and oracles.is_induced_path(adj, cert))
        settled &= good
        ok &= _check(res, good, f"simulate {path} --t {L}: {out}")
        return ok, settled


WORKLOADS = {w.name: w for w in (VerifyStandard, SearchSmall, HuntSparse)}
