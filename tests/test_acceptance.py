"""Acceptance gate: every criterion below runs at its stated tolerance.

One line per criterion is printed (visible with `pytest -s`); a FAIL line is
always followed by the assertion details. The corpus is fixed and seeded, so
two runs of this module see byte-identical inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from copslab.corpus import theorem_corpus
from copslab.engine import CAPTURED, STRATEGY_FAILURE, play
from copslab.generators import gnp_random_graph
from copslab.graphs import encode_graph6
from copslab.gyarfas import GyarfasCop, analyze_strategy
from copslab.induced import longest_induced_path_order, verify_induced_path
from copslab.rng import SplitMix64
from copslab.robbers import GreedyRobber, OptimalRobber, RandomRobber
from copslab.solver import solve
from copslab.verify import over_work_budget, verify_theorem_bound

from conftest import brute_longest_induced_path, cli_env

ORACLE_SEED = 0xACCE0004
NONFREE_SEED = 0xACCE0005
CONJECTURE_SEED = 11


def report(num: int, label: str, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} [{label}]: {status} ({detail})")
    assert not failures, failures[:5]


@pytest.fixture(scope="session")
def corpus():
    return theorem_corpus(random_count=200)


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    """(name, verify_theorem_bound report, simulated game) per graph, shared by criteria 1-3.

    The strategy plays the optimal robber wherever the work gate admits the
    k = t-2 solve; the report keeps only that solve's result, so the robber's
    table is solved here again. The gate is asked directly: over it, the
    report's capture time comes from domination, and no table exists.
    """
    reports = []
    for name, g in corpus:
        rep = verify_theorem_bound(g)
        sim_outcome = None
        if over_work_budget(g, rep.t - 2) is None:
            table, _ = solve(g, rep.t - 2)
            sim_outcome = play(g, GyarfasCop(rep.t), OptimalRobber(table)).outcome
        reports.append((name, rep, sim_outcome))
    return reports


def test_criterion_1_capture_bound(corpus_reports):
    """Strategy with t-2 cops captures the strongest robber within t-1 moves.

    The exhaustive search bounds every robber behavior (which dominates any
    single policy); wherever the exact table for t-2 cops fits the budget,
    the table-guided optimal robber is additionally played out.
    """
    failures = []
    sims = 0
    for name, rep, out in corpus_reports:
        if not rep.check_strategy_bound:
            failures.append((name, "worst-case", rep.strategy_capture_moves, rep.t))
        if out is not None:
            sims += 1
            if out.result != CAPTURED or out.cop_moves > rep.t - 1:
                failures.append((name, "optimal-robber sim", out))
    trees = sum(1 for name, _, _ in corpus_reports if name.startswith("tree-"))
    report(
        1,
        "capture bound, t-2 cops in <= t-1 moves",
        failures,
        f"{len(corpus_reports)} graphs ({trees} trees), all robber lines searched, "
        f"{sims} solver-backed optimal-robber games",
    )


def test_criterion_2_oracle_cross_check(corpus_reports):
    """Exact solver agrees: <= t-2 cops win, strategy never beats optimal time."""
    failures = []
    compared = 0
    for name, rep, sim in corpus_reports:
        if rep.cop_number is None or rep.cop_number > rep.t - 2:
            failures.append((name, "cop_number", rep.cop_number, rep.t))
        if rep.solver_capture_moves is not None:
            compared += 1
            if rep.strategy_capture_moves < rep.solver_capture_moves:
                failures.append(
                    (name, "faster than optimal", rep.strategy_capture_moves, rep.solver_capture_moves)
                )
            if sim is not None and sim.result == CAPTURED and sim.cop_moves < rep.solver_capture_moves:
                failures.append((name, "sim faster than optimal", sim.cop_moves))
    report(
        2,
        "solver cross-check",
        failures,
        f"cop_number <= t-2 on all {len(corpus_reports)}; capture-time comparison "
        f"on {compared} (the solve within the work budget, domination past it)",
    )


def test_criterion_3_known_cop_numbers(corpus_reports):
    """Trees 1, cycles C_4..C_12 exactly 2, Petersen exactly 3."""
    failures = []
    counts = {"tree": 0, "cycle": 0, "petersen": 0}
    for name, rep, _ in corpus_reports:
        cnum = rep.cop_number
        if name.startswith("tree-"):
            counts["tree"] += 1
            if cnum != 1:
                failures.append((name, cnum))
        elif name.startswith("cycle-"):
            counts["cycle"] += 1
            if cnum != 2:
                failures.append((name, cnum))
        elif name == "petersen":
            counts["petersen"] += 1
            if cnum != 3:
                failures.append((name, cnum))
    assert counts["cycle"] == 9 and counts["petersen"] == 1 and counts["tree"] >= 10
    report(
        3,
        "known cop numbers",
        failures,
        f"{counts['tree']} trees = 1, C_4..C_12 = 2, petersen = 3",
    )


def test_criterion_4_induced_path_oracle_equivalence():
    """DFS longest induced path equals subset enumeration on 300 seeded graphs."""
    stream = SplitMix64(ORACLE_SEED)
    failures = []
    for i in range(300):
        n = 1 + stream.below(10)
        p = stream.random()
        g = gnp_random_graph(n, p, stream.next_u64())
        dfs = longest_induced_path_order(g)[0]
        brute = brute_longest_induced_path(g)
        if dfs != brute:
            failures.append((i, encode_graph6(g), dfs, brute))
    report(4, "induced-path oracle equivalence", failures, "300 graphs, n <= 10")


def test_criterion_5_failure_certificates():
    """On graphs that do have an induced t-vertex path, the strategy either
    still captures in time or produces a verifiable certificate."""
    stream = SplitMix64(NONFREE_SEED)
    failures = []
    produced = {"captured": 0, "certificate": 0}
    collected = 0
    while collected < 50:
        n = 5 + stream.below(6)  # 5..10
        g = gnp_random_graph(n, 0.25 + 0.5 * stream.random(), stream.next_u64())
        if not g.is_connected():
            continue
        lip, _ = longest_induced_path_order(g)
        if lip < 3:
            continue
        t = lip  # lip >= t means the graph is not free at t
        collected += 1
        a = analyze_strategy(g, t)
        if a.captured_all:
            produced["captured"] += 1
            if a.max_cop_moves > t - 1:
                failures.append((encode_graph6(g), t, "late capture", a.max_cop_moves))
        else:
            produced["certificate"] += 1
            cert = list(a.certificate)
            if len(cert) != t or not verify_induced_path(g, cert):
                failures.append((encode_graph6(g), t, "bad certificate", cert))
        for robber in (GreedyRobber(), RandomRobber(collected)):
            trace = play(g, GyarfasCop(t), robber)
            out = trace.outcome
            ok = (out.result == CAPTURED and out.cop_moves <= t - 1) or (
                out.result == STRATEGY_FAILURE
                and out.certificate is not None
                and len(out.certificate) == t
                and verify_induced_path(g, list(out.certificate))
            )
            if not ok:
                failures.append((encode_graph6(g), t, "engine outcome", out))
    report(
        5,
        "failure-certificate soundness",
        failures,
        f"50 non-free graphs: {produced['captured']} captured anyway, "
        f"{produced['certificate']} certified",
    )


def test_criterion_6_conjecture_probe():
    """The t-3 search completes and emits replayable records, none VIOLATED.

    At t = 5 the verdict is known: graphs without an induced P_5 have cop
    number at most 2 = t-3 (Chudnovsky, Norin, Seymour and Turcotte), so a
    VIOLATED record here points to a bug. At t >= 6 the question is open and
    the search's verdicts are recorded, not asserted.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "copslab.cli", "conjecture-search", "--t", "5",
         "--n", "9", "--samples", "200", "--seed", str(CONJECTURE_SEED)],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    failures = []
    if proc.returncode != 0:
        failures.append(("exit", proc.returncode, proc.stderr))
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    rows = [r for r in records if r["type"] == "conjecture"]
    summary = [r for r in records if r["type"] == "summary"]
    if len(rows) + sum(1 for r in records if r["type"] == "generation_error") != 200:
        failures.append(("rows", len(rows)))
    if not summary:
        failures.append(("missing summary",))
    statuses = {"HOLDS": 0, "VIOLATED": 0, "UNKNOWN": 0}
    for r in rows:
        if r["status"] not in statuses:
            failures.append(("bad status", r))
            continue
        statuses[r["status"]] += 1
        if r["status"] == "VIOLATED":
            # replay the solver evidence
            from copslab.graphs import parse_graph6

            g = parse_graph6(r["graph6"])
            for entry in r["evidence"]["per_k"]:
                if solve(g, entry["k"])[1].cop_win != entry["cop_win"]:
                    failures.append(("evidence mismatch", r["graph6"], entry))
    if statuses["VIOLATED"]:
        failures.append(("P5-free graphs need at most 2 cops", statuses["VIOLATED"], "violated"))
    report(
        6,
        "conjecture probe (t = 5: none violated)",
        failures,
        f"200 samples at t=5, n=9: {statuses['HOLDS']} hold, "
        f"{statuses['VIOLATED']} violated, {statuses['UNKNOWN']} unknown",
    )


def test_criterion_7_determinism(tmp_path):
    """Identical seeds and inputs give byte-identical JSONL across runs."""
    corpus_file = tmp_path / "det.g6"
    corpus_file.write_text("Dhc\nCh\nD~{\n")  # C_5, P_4, K_5
    c5_file = tmp_path / "c5.g6"  # simulate takes a single graph
    c5_file.write_text("Dhc\n")

    def run(*argv) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "copslab.cli", *argv],
            capture_output=True,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    failures = []
    pairs = [
        ("verify-theorem", str(corpus_file)),
        ("conjecture-search", "--t", "5", "--n", "7", "--samples", "10", "--seed", "5"),
        ("simulate", str(c5_file), "--t", "5", "--robber", "random:42"),
    ]
    for argv in pairs:
        if run(*argv) != run(*argv):
            failures.append(argv)
    report(7, "byte-identical reruns", failures, f"{len(pairs)} command pairs")
