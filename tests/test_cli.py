from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import copslab.cli as cli
import copslab.graphs as graphs_module
from copslab.cli import main
from copslab.corpus import theorem_corpus
from copslab.generators import complete_graph, cycle_graph, gnp_random_graph, path_graph, petersen_graph
from copslab.graphs import Graph, encode_graph6, format_edge_list, parse_edge_list
from copslab.induced import verify_induced_path
from copslab.verify import conjecture_probe, conjecture_status

from conftest import cli_env, graphs


def run_cli(capsys, *argv) -> tuple[int, list[dict]]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return rc, records


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text(encode_graph6(cycle_graph(5)) + "\n" + encode_graph6(path_graph(6)) + "\n")
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(encode_graph6(cycle_graph(5)) + "\n")
    return str(path)


class TestCheck:
    def test_all_free_exit_zero(self, capsys, c5_file):
        rc, records = run_cli(capsys, "check", c5_file, "--t", "5")
        assert rc == 0
        assert records[0]["pt_free"] is True

    def test_not_free_exit_one_with_certificate(self, capsys, corpus_file):
        rc, records = run_cli(capsys, "check", corpus_file, "--t", "5")
        assert rc == 1
        bad = [r for r in records if not r["pt_free"]]
        assert len(bad) == 1
        assert len(bad[0]["certificate"]) == 5

    def test_malformed_line_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("Dhc\nnot graph6!!\nDhc\n")
        rc, records = run_cli(capsys, "check", str(path), "--t", "5")
        assert rc == 2
        assert any("error" in r for r in records)

    def test_keep_going_processes_rest(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("not graph6!!\nDhc\n")
        rc, records = run_cli(capsys, "check", str(path), "--t", "5", "--keep-going")
        assert rc == 2
        assert sum(1 for r in records if "pt_free" in r) == 1

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("3 2\n0 1\n1 2\n")
        rc, records = run_cli(capsys, "check", str(path), "--t", "4")
        assert rc == 0 and records[0]["n"] == 3

    def test_edge_list_repeated_edge_exit_two(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("3 3\n0 1\n0 1\n1 2\n")
        rc, records = run_cli(capsys, "check", str(path), "--t", "4")
        assert rc == 2
        assert records == [{"type": "check", "graph": f"{path}:3",
                            "error": "repeated edge (0,1) (offset 3)"}]


class TestLip:
    def test_orders(self, capsys, corpus_file):
        rc, records = run_cli(capsys, "lip", corpus_file)
        assert rc == 0
        assert [r["lip_order"] for r in records] == [4, 6]
        for r in records:
            assert len(r["witness"]) == r["lip_order"]

    @pytest.mark.parametrize("relabel", [False, True], ids=["in_order", "relabeled"])
    def test_p1500_edge_list(self, capsys, tmp_path, relabel):
        # deeper than the default recursion limit: the search keeps its own stack
        order = list(range(1500))
        if relabel:
            random.Random(1500).shuffle(order)
        g = Graph.from_edges(1500, zip(order, order[1:]))
        path = tmp_path / "p1500.edges"
        path.write_text(format_edge_list(g))
        rc, records = run_cli(capsys, "lip", str(path))
        assert rc == 0
        assert records[0]["lip_order"] == 1500
        assert records[0]["witness"] in (order, order[::-1])


class TestSimulate:
    def test_capture_within_bound_exit_zero(self, capsys, c5_file):
        rc, records = run_cli(capsys, "simulate", c5_file, "--t", "5", "--robber", "optimal")
        assert rc == 0
        outcome = [r for r in records if r["type"] == "outcome"][0]
        assert outcome["result"] == "captured" and outcome["cop_moves"] <= 4
        assert any(r["type"] == "strategy_state" for r in records)

    def test_not_free_exit_one_with_certificate(self, capsys, tmp_path):
        path = tmp_path / "p6.g6"
        path.write_text(encode_graph6(path_graph(6)) + "\n")
        rc, records = run_cli(capsys, "simulate", str(path), "--t", "5")
        assert rc == 1
        outcome = [r for r in records if r["type"] == "outcome"][0]
        assert outcome["result"] == "strategy_failure"
        assert verify_induced_path(path_graph(6), outcome["certificate"])

    def test_graph_is_flooded_once(self, capsys, c5_file, monkeypatch):
        # the command, the referee and the strategy all ask whether the graph is connected
        floods = []
        real = graphs_module.masks_connected
        monkeypatch.setattr(graphs_module, "masks_connected", lambda masks: floods.append(len(masks)) or real(masks))
        rc, _ = run_cli(capsys, "simulate", c5_file, "--t", "5")
        assert rc == 0 and floods == [5]

    def test_disconnected_exit_two(self, capsys, tmp_path):
        path = tmp_path / "disc.g6"
        path.write_text("A?\n")  # two isolated vertices
        rc, records = run_cli(capsys, "simulate", str(path), "--t", "3")
        assert rc == 2

    def test_random_robber_reproducible(self, capsys, c5_file):
        rc1, rec1 = run_cli(capsys, "simulate", c5_file, "--t", "5", "--robber", "random:42")
        rc2, rec2 = run_cli(capsys, "simulate", c5_file, "--t", "5", "--robber", "random:42")
        assert (rc1, rec1) == (rc2, rec2)

    def test_trace_records_replay(self, capsys, c5_file):
        # the outcome's cop-move count must equal the placements+moves on record
        rc, records = run_cli(capsys, "simulate", c5_file, "--t", "5")
        outcome = [r for r in records if r["type"] == "outcome"][0]
        counted = sum(1 for r in records if r["type"] in ("cop_placement", "cop_move"))
        assert outcome["cop_moves"] == counted

    def test_dot_output(self, capsys, c5_file):
        rc = main(["simulate", c5_file, "--t", "5", "--format", "dot"])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("graph trace {")

    def test_unknown_robber_exit_two(self, capsys, c5_file):
        rc, records = run_cli(capsys, "simulate", c5_file, "--t", "5", "--robber", "psychic")
        assert rc == 2

    def test_t_below_three_exit_two(self, capsys, c5_file):
        # one message whatever the robber, checked before the graph is read
        for robber in ("greedy", "random", "random:7", "optimal"):
            for t in (2, 1, 0):
                rc, records = run_cli(capsys, "simulate", c5_file, "--t", str(t), "--robber", robber)
                assert rc == 2
                assert records == [{"type": "error", "error": f"t must be >= 3, got {t}"}]
        rc, records = run_cli(capsys, "simulate", c5_file + ".missing", "--t", "2")
        assert rc == 2 and records == [{"type": "error", "error": "t must be >= 3, got 2"}]

    def test_malformed_random_seed_exit_two(self, capsys, c5_file):
        rc, records = run_cli(capsys, "simulate", c5_file, "--t", "5", "--robber", "random:x")
        assert rc == 2
        assert records == [{"type": "error", "error": "unknown robber policy 'random:x' "
                                                      "(use optimal|greedy|random:SEED)"}]

    def test_optimal_robber_over_work_budget_exit_two(self, capsys, tmp_path):
        # the k=7 solve would need ~1.36e11 move enumerations against a 1e7 budget
        assert main(["gen", "gnp", "12", "0.5", "--seed", "3"]) == 0
        path = tmp_path / "g.g6"
        path.write_text(capsys.readouterr().out)
        start = time.perf_counter()
        rc, records = run_cli(capsys, "simulate", str(path), "--t", "9", "--robber", "optimal")
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert records[-1]["type"] == "error" and "budget" in records[-1]["error"]

    def test_optimal_robber_over_state_budget_reports_required_budget(self, capsys, c5_file):
        # like solve and copnumber: 3 cops on C_5 need 35 multisets x 5 robber vertices x 2 sides
        rc, records = run_cli(capsys, "simulate", c5_file, "--t", "5", "--robber", "optimal",
                              "--budget", "0")
        assert rc == 2
        assert records == [{"type": "error", "required_budget": 350,
                            "error": "instance needs 350 states but the budget is 0; "
                                     "rerun with a budget of at least 350"}]


# simulate's exact stdout on C_5: the cops' stack climbs 0 -> 1 -> 2 and the robber,
# from 2, runs to 3, where the third cop catches it on cop move 4 (t = 5); with t = 4
# the two anchors leave the robber free and the strategy reports the path 0-1-2-3.
C5_T5_JSONL = """\
{"graph6":"Dhc","m":5,"n":5,"t":5,"type":"header"}
{"cop_move":1,"positions":[0,0,0],"type":"cop_placement"}
{"type":"robber_placement","vertex":2}
{"cop_move":2,"steps":[[0,0],[0,1],[0,1]],"type":"cop_move"}
{"from":2,"to":3,"type":"robber_move"}
{"cop_move":3,"steps":[[0,0],[1,1],[1,2]],"type":"cop_move"}
{"from":3,"to":3,"type":"robber_move"}
{"cop_move":4,"steps":[[0,0],[1,1],[2,3]],"type":"cop_move"}
{"cop":2,"cop_move":4,"type":"capture","vertex":3}
{"cop_moves":4,"result":"captured","type":"outcome"}
{"cop_positions":[0,0,0],"path":[0],"phase":"advancing","territory":null,"type":"strategy_state"}
{"cop_positions":[0,1,1],"path":[0,1],"phase":"advancing","territory":[2,3],"type":"strategy_state"}
{"cop_positions":[0,1,2],"path":[0,1,2],"phase":"advancing","territory":[3],"type":"strategy_state"}
{"cop_positions":[0,1,2],"path":[0,1,2],"phase":"capturing","territory":[3],"type":"strategy_state"}
"""

C5_T4_JSONL = """\
{"graph6":"Dhc","m":5,"n":5,"t":4,"type":"header"}
{"cop_move":1,"positions":[0,0],"type":"cop_placement"}
{"type":"robber_placement","vertex":2}
{"cop_move":2,"steps":[[0,0],[0,1]],"type":"cop_move"}
{"from":2,"to":3,"type":"robber_move"}
{"certificate":[0,1,2,3],"reason":"graph contains an induced path on 4 vertices","result":"strategy_failure","type":"outcome"}
{"cop_positions":[0,0],"path":[0],"phase":"advancing","territory":null,"type":"strategy_state"}
{"cop_positions":[0,1],"path":[0,1],"phase":"advancing","territory":[2,3],"type":"strategy_state"}
"""

C5_T5_DOT = """\
graph trace {
  0 [label="0 | c0@1 c1@1 c2@1"];
  1 [label="1 | c1@2 c2@2"];
  2 [label="2 | r@1 c2@3"];
  3 [label="3 | r@2 r@3 c2@4 capture@4"];
  4 [label="4"];
  0 -- 1;
  0 -- 4;
  1 -- 2;
  2 -- 3;
  3 -- 4;
}
"""


class TestSimulateGolden:
    @pytest.fixture
    def dhc(self, tmp_path):
        path = tmp_path / "c5.g6"
        path.write_text("Dhc\n")
        return str(path)

    @pytest.mark.parametrize("robber", ["greedy", "random:42", "optimal"])
    def test_capture(self, capsys, dhc, robber):
        assert main(["simulate", dhc, "--t", "5", "--robber", robber]) == 0
        assert capsys.readouterr().out == C5_T5_JSONL

    def test_strategy_failure_with_certificate(self, capsys, dhc):
        assert main(["simulate", dhc, "--t", "4"]) == 1
        assert capsys.readouterr().out == C5_T4_JSONL

    def test_dot(self, capsys, dhc):
        assert main(["simulate", dhc, "--t", "5", "--format", "dot"]) == 0
        assert capsys.readouterr().out == C5_T5_DOT


HUNT_CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "data", "hunt.txt")
# sha256 of simulate's exit codes and stdout on the first 30 hunt graphs (n = 30..36,
# longest induced path L) against the greedy robber and a seeded random one. At t = L
# and t = L + 1 every game ends in a capture; at t = 4 most end in a certificate.
HUNT_SIMULATE_SHA256 = "471193c23b885313c0901cccff74a3682a6f699789c6bb85bf6e716921b3548e"


def test_simulate_bytes_on_hunt_graphs(capsys, tmp_path):
    digest = hashlib.sha256()
    with open(HUNT_CORPUS) as corpus:
        lines = corpus.read().splitlines()[:30]
    for i, line in enumerate(lines):
        order, g6 = line.split()
        path = tmp_path / f"g{i}.g6"
        path.write_text(g6 + "\n")
        for t in (4, int(order), int(order) + 1):
            for robber in ("greedy", f"random:{i}"):
                rc = main(["simulate", str(path), "--t", str(t), "--robber", robber])
                digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == HUNT_SIMULATE_SHA256


class TestSolveAndCopnumber:
    def test_solve_record(self, capsys, c5_file):
        rc, records = run_cli(capsys, "solve", c5_file, "--cops", "2")
        assert rc == 0
        assert records[0]["cop_win"] is True
        assert records[0]["optimal_capture_cop_moves"] == 2

    def test_solve_budget_exit_two(self, capsys, c5_file):
        rc, records = run_cli(capsys, "solve", c5_file, "--cops", "2", "--budget", "5")
        assert rc == 2
        assert records[0]["required_budget"] > 5

    def test_dump_table(self, capsys, tmp_path, c5_file):
        dump = tmp_path / "table.txt"
        rc, _ = run_cli(capsys, "solve", c5_file, "--cops", "1", "--dump-table", str(dump))
        assert rc == 0
        lines = dump.read_text().splitlines()
        assert lines and all("side=" in ln for ln in lines)

    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_dump_table_unwritable_exit_two(self, capsys, monkeypatch, tmp_path, c5_file, where):
        def never(*args, **kwargs):
            raise AssertionError("solved before the table path was checked")

        monkeypatch.setattr(cli, "solve", never)
        dump = tmp_path / "absent" / "table.txt" if where == "missing_parent" else tmp_path
        rc, records = run_cli(capsys, "solve", c5_file, "--cops", "1", "--dump-table", str(dump))
        assert rc == 2
        reason = "No such file or directory" if where == "missing_parent" else "Is a directory"
        assert records == [{"type": "error", "error": f"cannot write {dump}: {reason}"}]

    @pytest.mark.parametrize("argv", [["--cops", "0"], ["--cops", "2", "--budget", "5"]],
                             ids=["bad-k", "over-budget"])
    def test_failed_solve_leaves_no_table(self, capsys, tmp_path, c5_file, argv):
        dump = tmp_path / "table.txt"
        rc, records = run_cli(capsys, "solve", c5_file, *argv, "--dump-table", str(dump))
        assert rc == 2 and [r["type"] for r in records] == ["error"]
        assert not dump.exists()

    @pytest.mark.parametrize("argv", [["--cops", "0"], ["--cops", "2", "--budget", "5"]],
                             ids=["bad-k", "over-budget"])
    def test_failed_solve_keeps_an_existing_table(self, capsys, tmp_path, c5_file, argv):
        dump = tmp_path / "table.txt"
        dump.write_text("old table\n")
        rc, records = run_cli(capsys, "solve", c5_file, *argv, "--dump-table", str(dump))
        assert rc == 2 and [r["type"] for r in records] == ["error"]
        assert dump.read_text() == "old table\n"

    def test_failed_solve_keeps_a_symlinked_table(self, capsys, tmp_path, c5_file):
        target = tmp_path / "target.txt"
        target.write_text("old table\n")
        dump = tmp_path / "link.txt"
        dump.symlink_to(target)
        rc, _ = run_cli(capsys, "solve", c5_file, "--cops", "0", "--dump-table", str(dump))
        assert rc == 2
        assert dump.is_symlink() and target.read_text() == "old table\n"

    def test_solve_replaces_an_existing_table(self, capsys, tmp_path, c5_file):
        dump = tmp_path / "table.txt"
        dump.write_text("old\n" * 10_000)
        rc, _ = run_cli(capsys, "solve", c5_file, "--cops", "1", "--dump-table", str(dump))
        assert rc == 0
        fresh = tmp_path / "fresh.txt"
        run_cli(capsys, "solve", c5_file, "--cops", "1", "--dump-table", str(fresh))
        assert dump.read_text() == fresh.read_text()

    def test_solve_writes_a_table_to_a_device(self, capsys, c5_file):
        rc, _ = run_cli(capsys, "solve", c5_file, "--cops", "1", "--dump-table", os.devnull)
        assert rc == 0

    def test_copnumber(self, capsys, c5_file):
        rc, records = run_cli(capsys, "copnumber", c5_file)
        assert rc == 0 and records[0]["cop_number"] == 2

    def test_copnumber_exceeds_bound(self, capsys, c5_file):
        rc, records = run_cli(capsys, "copnumber", c5_file, "--max-cops", "1")
        assert rc == 0 and records[0]["cop_number"] == "> 1"


@pytest.mark.parametrize("argv", [["simulate", "--t", "5"], ["solve", "--cops", "1"], ["copnumber"]],
                         ids=["simulate", "solve", "copnumber"])
def test_single_graph_command_rejects_two_graphs(capsys, tmp_path, argv):
    # a file of several graphs is an error, not an answer for its first graph
    path = tmp_path / "two.g6"
    path.write_text("DhC\nBw\n")
    rc, records = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert rc == 2
    assert records == [{"type": "error", "error": f"{path} holds more than one graph; this command takes one"}]


class TestVerifyTheorem:
    def test_small_corpus_passes(self, capsys, corpus_file):
        rc, records = run_cli(capsys, "verify-theorem", corpus_file)
        assert rc == 0
        runs = [r for r in records if r["type"] == "run"]
        assert all(r["theorem_pass"] for r in runs)
        summary = [r for r in records if r["type"] == "summary"][0]
        assert summary == {
            "type": "summary",
            "graphs": 2,
            "passed": 2,
            "failed": 0,
            "unknown": 0,
        }

    def test_budget_unknown_exit_two(self, capsys, c5_file):
        rc, records = run_cli(capsys, "verify-theorem", c5_file, "--budget", "10")
        assert rc == 2
        assert [r for r in records if r["type"] == "summary"][0]["unknown"] == 1

    @pytest.mark.parametrize("text", [None, "zzz\n"], ids=["unreadable", "parse-error"])
    def test_unreadable_or_unparsable_exit_two(self, capsys, tmp_path, text):
        path = tmp_path / "input.g6"
        if text is not None:
            path.write_text(text)
        rc, records = run_cli(capsys, "verify-theorem", str(path))
        assert rc == 2
        assert records[0]["theorem_pass"] is None and "error" in records[0]
        assert records[0]["conjecture_status"] == "UNKNOWN"
        assert records[-1]["unknown"] == 1

    def test_unknown_outranks_failed(self, capsys, monkeypatch, c5_file):
        # exit 1 means a mathematical negative only when every record is known
        verify = cli.verify_theorem_bound
        monkeypatch.setattr(cli, "verify_theorem_bound",
                            lambda g, **kw: replace(verify(g, **kw), check_strategy_bound=False))
        rc, records = run_cli(capsys, "verify-theorem", c5_file)
        assert rc == 1 and records[-1]["failed"] == 1
        rc, records = run_cli(capsys, "verify-theorem", c5_file, c5_file + ".missing")
        assert rc == 2 and (records[-1]["failed"], records[-1]["unknown"]) == (1, 1)

    def test_conjecture_status_matches_probe(self, capsys, tmp_path):
        graphs = [cycle_graph(5), path_graph(6), petersen_graph(), complete_graph(4)]
        path = tmp_path / "mixed.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        rc, records = run_cli(capsys, "verify-theorem", str(path))
        assert rc == 0
        runs = [r for r in records if r["type"] == "run"]
        assert [r["conjecture_status"] for r in runs] == [
            conjecture_probe(g, r["t"])[0] for g, r in zip(graphs, runs)
        ]

    @pytest.mark.parametrize(
        "t,cnum,status",
        [(4, 1, "UNKNOWN"), (5, 2, "HOLDS"), (6, 3, "HOLDS"), (6, 4, "VIOLATED"), (7, None, "VIOLATED")],
    )
    def test_conjecture_status_from_cop_number(self, t, cnum, status):
        assert conjecture_status(t, cnum) == status

    def test_disconnected_graph_marked_unknown(self, capsys, tmp_path):
        path = tmp_path / "disc.g6"
        path.write_text("A?\n")
        rc, records = run_cli(capsys, "verify-theorem", str(path))
        assert rc == 2
        assert [r for r in records if r["type"] == "summary"][0]["unknown"] == 1


class TestConjectureSearch:
    def test_small_run_exits_zero(self, capsys):
        rc, records = run_cli(
            capsys, "conjecture-search", "--t", "5", "--n", "7", "--samples", "5", "--seed", "3"
        )
        assert rc == 0
        rows = [r for r in records if r["type"] == "conjecture"]
        assert len(rows) == 5
        assert all(r["status"] in {"HOLDS", "VIOLATED", "UNKNOWN"} for r in rows)
        summary = [r for r in records if r["type"] == "summary"][0]
        assert summary["samples"] == 5

    def test_budget_unknown_keeps_the_solved_k(self, capsys):
        # on 12 vertices k = 1 needs 24 states and k = 2 needs 1872, so a budget of 300 stops at k = 2
        rc, records = run_cli(capsys, "conjecture-search", "--t", "6", "--n", "12", "--samples", "60",
                              "--budget", "300")
        unknown = [r for r in records if r.get("status") == "UNKNOWN"]
        assert rc == 0 and len(unknown) == 7
        for r in unknown:
            assert r["evidence"] == {
                "per_k": [{"k": 1, "cop_win": False}],
                "reason": "instance needs 1872 states but the budget is 300; "
                          "rerun with a budget of at least 1872",
            }

    def test_stats_count_how_each_verdict_was_settled(self, capsys):
        argv = ("conjecture-search", "--t", "6", "--n", "12", "--samples", "60", "--seed", "4")
        rc, plain = run_cli(capsys, *argv)
        rc_stats, stats = run_cli(capsys, *argv, "--stats")
        assert rc == rc_stats == 0
        assert plain[:-1] == stats[:-1]
        summary = stats[-1]
        settled = summary.pop("settled")
        assert summary == plain[-1] and "settled" not in plain[-1]
        assert list(settled) == ["dismantlability", "domination", "solve"]
        assert sum(settled.values()) == summary["holds"] + summary["violated"]
        # each HOLDS at k = 1 is a dismantlable sample
        assert settled["dismantlability"] == sum(1 for r in plain if r.get("cop_number") == 1)

    def test_stats_skip_budget_stopped_samples(self, capsys):
        rc, records = run_cli(capsys, "conjecture-search", "--t", "6", "--n", "12", "--samples", "60",
                              "--budget", "300", "--stats")
        summary = records[-1]
        assert rc == 0 and summary["unknown"] == 7
        assert sum(summary["settled"].values()) == summary["holds"] == 53

    def test_t_below_five_rejected(self, capsys):
        rc, records = run_cli(
            capsys, "conjecture-search", "--t", "4", "--n", "7", "--samples", "2"
        )
        assert rc == 2


class TestGen:
    def test_deterministic_and_counted(self, capsys):
        rc1 = main(["gen", "connected_ptfree", "8", "--t", "5", "--seed", "9", "--count", "2"])
        out1 = capsys.readouterr().out
        rc2 = main(["gen", "connected_ptfree", "8", "--t", "5", "--seed", "9", "--count", "2"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 2

    def test_missing_t_exit_two(self, capsys):
        rc, records = run_cli(capsys, "gen", "connected_ptfree", "8")
        assert rc == 2

    def test_bad_params_exit_two(self, capsys):
        rc, records = run_cli(capsys, "gen", "path")
        assert rc == 2

    @pytest.mark.parametrize(
        "argv,spec",
        [
            (["connected_ptfree", "9", "5", "--t", "7"], "connected_ptfree 9 5 7"),
            (["path", "5", "7"], "path 5 7"),
            (["petersen", "3"], "petersen 3"),
            (["gnp", "10"], "gnp 10"),
        ],
        ids=["ptfree-extra", "path-extra", "petersen-extra", "gnp-missing"],
    )
    def test_wrong_parameter_count_exit_two(self, capsys, argv, spec):
        rc, records = run_cli(capsys, "gen", *argv)
        assert rc == 2
        assert len(records) == 1 and records[0]["error"].startswith(f"bad generator spec {spec!r}: ")

    @pytest.mark.parametrize(
        "argv",
        [["path", "5", "--t", "7"], ["path", "--t", "5"], ["star", "--t", "7"],
         ["gnp", "10", "--t", "1"]],
        ids=["path-extra-t", "path-t-as-n", "star-t-as-n", "gnp-t-as-p"],
    )
    def test_t_for_another_kind_exit_two(self, capsys, argv):
        rc, records = run_cli(capsys, "gen", *argv)
        assert rc == 2
        assert records == [{"type": "error", "error": "--t applies only to connected_ptfree"}]

    def test_large_graph_emitted_as_edge_list(self, capsys, tmp_path):
        rc = main(["gen", "path", "70"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "70 69"
        # and the round trip through a file works
        path = tmp_path / "p70.edges"
        path.write_text(out)
        rc, records = run_cli(capsys, "lip", str(path))
        assert rc == 0 and records[0]["lip_order"] == 70


    def test_count_of_large_graphs_rejected_before_output(self, capsys):
        # an edge-list file holds one graph, so two n = 70 graphs could not be read back
        rc = main(["gen", "gnp", "70", "0.05", "--seed", "1", "--count", "2"])
        assert rc == 2
        assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [
            {"type": "error", "error": "--count 2 needs n <= 62: an edge list holds one graph, got n=70"}
        ]
        # one such graph is still written, and reads back
        assert main(["gen", "gnp", "70", "0.05", "--seed", "1", "--count", "1"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == gnp_random_graph(70, 0.05, 1)


class TestUncaughtErrors:
    def test_uncaught_exception_is_an_error_record(self, capsys, monkeypatch, corpus_file):
        def broken(g, cap=None):
            raise RuntimeError("boom")

        monkeypatch.setattr("copslab.cli.longest_induced_path_order", broken)
        rc = main(["lip", corpus_file])
        out = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in out.err
        records = [json.loads(line) for line in out.out.splitlines()]
        assert records == [{"type": "error", "error": "internal error: RuntimeError: boom"}]


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "{file}", "--t", "0"], "t must be >= 1, got 0"),
            (["lip", "{file}", "--cap", "0"], "cap must be >= 1, got 0"),
            (["conjecture-search", "--t", "5", "--n", "0", "--samples", "2"], "n must be >= 1, got 0"),
            (["conjecture-search", "--t", "40", "--n", "63", "--samples", "1", "--budget", "1000"],
             "n must be <= 62, got 63"),
            (["conjecture-search", "--t", "5", "--n", "4", "--samples", "-1"],
             "samples must be >= 0, got -1"),
            (["gen", "path", "5", "--count", "-1"], "count must be >= 0, got -1"),
        ],
        ids=["check-t0", "lip-cap0", "search-n0", "search-n63", "search-samples-1", "gen-count-1"],
    )
    def test_plain_error_record(self, capsys, c5_file, argv, message):
        rc, records = run_cli(capsys, *(a.replace("{file}", c5_file) for a in argv))
        assert rc == 2
        assert records == [{"type": "error", "error": message}]


class TestParserReuse:
    def test_rejected_call_then_valid_call_matches_fresh_process(self, capsys, c5_file):
        def fresh(*argv):
            return subprocess.run(
                [sys.executable, "-m", "copslab.cli", *argv], capture_output=True, env=cli_env()
            )

        with pytest.raises(SystemExit) as info:
            main(["lip", c5_file, "--cap", "x"])
        rejected = capsys.readouterr()
        assert info.value.code == 2
        assert (rejected.out, rejected.err.encode()) == ("", fresh("lip", c5_file, "--cap", "x").stderr)
        rc = main(["check", c5_file, "--t", "4"])
        expected = fresh("check", c5_file, "--t", "4")
        assert (rc, capsys.readouterr().out.encode()) == (expected.returncode, expected.stdout)

    def test_help_goes_to_current_stdout(self, capsys):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "path", "3"]) == 0
        with pytest.raises(SystemExit) as info:
            main(["check", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: copslab check")


def _options(draw, **values) -> list[str]:
    """Each option drawn from its strategy, or left out where it draws None."""
    argv = []
    for name, strategy in values.items():
        value = draw(strategy)
        if value is not None:
            argv += [f"--{name}", str(value)]
    return argv


SMALL = st.integers(-3, 9)
SEED = st.none() | st.integers(-(2**70), 2**70)


@st.composite
def search_argv(draw):
    """conjecture-search with small or negative --t/--n/--samples, now and then one left out."""
    missing = draw(st.sampled_from([None, None, None, "t", "n", "samples"]))
    # each value is as likely to be out of range as in range
    values = {
        "t": st.integers(-1, 4) | st.integers(5, 8),
        "n": st.integers(-2, 0) | st.integers(1, 9),
        "samples": st.integers(-2, 0) | st.integers(1, 3),
    }
    return ["conjecture-search", *_options(
        draw,
        **{k: st.none() if k == missing else v for k, v in values.items()},
        seed=SEED,
    )]


@st.composite
def gen_argv(draw):
    """gen of every kind with small, negative and out-of-range parameters.

    connected_ptfree keeps n small: its rejection sampling slows down as n grows.
    """
    kind = draw(st.sampled_from(["path", "cycle", "complete", "star", "petersen", "gnp",
                                 "connected_ptfree", "tree"]))
    size = SMALL if kind == "connected_ptfree" else SMALL | st.sampled_from([62, 63, 70])
    params = draw(st.lists(size.map(str) | st.sampled_from(["0.5", "1.5", "-0.5", "x"]),
                           max_size=3))
    return ["gen", kind, *params, *_options(
        draw,
        t=st.none() | SMALL,
        seed=SEED,
        count=st.none() | st.integers(-2, 2),
    )]


@st.composite
def graph6_lines(draw):
    """Two to five graph6 lines with arbitrary bytes between them: several graphs per file."""
    lines = draw(st.lists(graphs(max_n=7).map(lambda g: encode_graph6(g).encode()), min_size=2, max_size=5))
    junk = draw(st.lists(st.binary(max_size=6), min_size=len(lines), max_size=len(lines)))
    return b"\n".join(x for pair in zip(lines, junk) for x in pair)


class TestExitCodeFuzz:
    COMMANDS = [
        ("check", "--t", "4"),
        ("lip", "--cap", "6"),
        ("simulate", "--t", "4"),
        ("solve", "--cops", "1", "--budget", "20000"),
        ("copnumber", "--max-cops", "2", "--budget", "20000"),
        ("verify-theorem", "--budget", "20000"),
    ]

    @given(data=st.binary(max_size=16) | graph6_lines())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes(self, capsys, monkeypatch, tmp_path, data):
        # three forced workers, so multi-graph inputs take the forked path on any machine
        monkeypatch.setattr("copslab.cli._jobs", lambda paths=(): 3)
        path = tmp_path / "input"
        path.write_bytes(data)
        for command, *options in self.COMMANDS:
            rc = main([command, str(path), *options])
            out = capsys.readouterr()
            assert rc in (0, 1, 2), (command, data)
            assert "Traceback" not in out.err
            for line in out.out.splitlines():
                record = json.loads(line)
                assert "internal error" not in record.get("error", ""), (command, data, record)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @given(argv=st.one_of(search_argv(), gen_argv()))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_commands_without_files(self, capsys, monkeypatch, argv):
        # argparse rejections (SystemExit 2) and valid calls share the one parser;
        # conjecture-search runs its samples over three forced workers
        monkeypatch.setattr("copslab.cli._jobs", lambda paths=(): 3)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in out.err
        for line in out.out.splitlines():
            if line.startswith("{"):
                assert "internal error" not in json.loads(line).get("error", ""), (argv, line)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


class TestByteDeterminism:
    def test_standard_corpus_output_digest(self, capsys, monkeypatch, tmp_path):
        # The whole JSONL of the standard corpus, pinned. A change that alters it on
        # purpose updates this digest and says why.
        (tmp_path / "corpus.g6").write_text("".join(encode_graph6(g) + "\n" for _, g in theorem_corpus()))
        monkeypatch.chdir(tmp_path)  # records name the input as it was given
        rc = main(["verify-theorem", "corpus.g6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a7ec610edeb38e58d0049c1ef39f029226b3511c8f3d46b6aa7ac3e4243e0c2c"
        )

    @pytest.mark.parametrize(
        "argv,rc,digest",
        [
            (["lip", "sparse.g6"], 0,
             "346b996ede8c37a4bf240d8344a97c36cc6a6e1afbaeb006aaab5c763968babe"),
            (["check", "sparse.g6", "--t", "6", "--keep-going"], 1,
             "71e37ec27b340e5d7e28593f66401297445bd720eeafb0011152f1a395088092"),
            # 12 free and 8 not-free: past the first path, so the bounds and floods prune
            (["check", "sparse.g6", "--t", "18", "--keep-going"], 1,
             "2966aaa3e081c360768b7d68b0ab2e853816e80ec3fc210790ee81570c449ad3"),
            (["conjecture-search", "--t", "6", "--n", "12", "--samples", "200", "--seed", "1"], 0,
             "307dc5f248557223ae6fef5a3835ab76f190238fadb559f1c89d03c36a0c2b51"),
            # 112 of the 300 samples are settled by a solve, which runs on the core
            (["conjecture-search", "--t", "8", "--n", "14", "--samples", "300", "--seed", "1", "--stats"], 0,
             "bc9527639892a54abdcaacc9572ccffc60fa4215475dee546f3057f10168052d"),
        ],
        ids=["lip", "check", "check-capped", "conjecture-search", "conjecture-search-solves"],
    )
    def test_search_output_digest(self, capsys, monkeypatch, tmp_path, argv, rc, digest):
        # The induced-path search and the sampler, pinned byte for byte on 20 sparse
        # G(n, 4.5/n) graphs with n = 30..36 and on 200 samples.
        graphs6 = [encode_graph6(gnp_random_graph(30 + i % 7, 4.5 / (30 + i % 7), i)) for i in range(20)]
        (tmp_path / "sparse.g6").write_text("".join(line + "\n" for line in graphs6))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == rc
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "calls,digest",
        [
            # n = 1..70, so both graph6 and edge-list output, at four p
            ([["gen", "gnp", str(n), p, "--seed", str(n)]
              for p in ("0.05", "0.3", "0.5", "0.9") for n in range(1, 71)],
             "6093bdc8cb55a34ade4bbfdadbebcdf5759ee2e233da60bf3cda14973cdcaefd"),
            ([["gen", "connected_ptfree", str(n), "--t", str(t), "--seed", str(7 * n + t), "--count", "3"]
              for t in range(4, 8) for n in range(t, t + 9)],
             "e966382b10c3387166d20cf3a6ad8d8251f859f2545f9ff25a590a7ba17f9e4f"),
        ],
        ids=["gnp", "connected_ptfree"],
    )
    def test_gen_output_digest(self, capsys, calls, digest):
        # The seeded generators, pinned byte for byte: each call's exit code, then its stdout.
        out = hashlib.sha256()
        for argv in calls:
            rc = main(argv)
            out.update(f"{rc}\n{capsys.readouterr().out}".encode())
        assert out.hexdigest() == digest

    def test_solve_table_digest(self, capsys, monkeypatch, tmp_path):
        # Whole solver tables, pinned byte for byte: for each call its exit code, its
        # record and its --dump-table file. Petersen is a cop win at k = 3 and a robber
        # win at k = 2, C_12 plays a long game, and the last standard-corpus graph is
        # dominated at ply 1.
        monkeypatch.chdir(tmp_path)
        out = hashlib.sha256()
        for graph6, k in [("IheA@GUAo", 3), ("IheA@GUAo", 2), ("KhCGGC@?G?o@", 2), ("IFeI_znlo", 4)]:
            (tmp_path / "g.g6").write_text(graph6 + "\n")
            rc = main(["solve", "g.g6", "--cops", str(k), "--dump-table", "table.txt"])
            dump = (tmp_path / "table.txt").read_text()
            out.update(f"{rc}\n{capsys.readouterr().out}{dump}".encode())
        assert out.hexdigest() == "5194af2d5943759143344fa10d833c7e6bffedf4c01bb493936629239bc5e943"

    def test_verify_theorem_twice_identical(self, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text(encode_graph6(cycle_graph(5)) + "\n" + encode_graph6(path_graph(4)) + "\n")

        def once():
            return subprocess.run(
                [sys.executable, "-m", "copslab.cli", "verify-theorem", str(corpus)],
                capture_output=True,
                env=cli_env(),
            )

        a, b = once(), once()
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
