from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from copslab.cli import _conjecture_status, _each_graph, main
from copslab.generators import complete_graph, cycle_graph, path_graph, petersen_graph
from copslab.graphs import Graph, encode_graph6, format_edge_list
from copslab.induced import verify_induced_path
from copslab.solver import probe_conjecture

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
        rc, records = run_cli(capsys, "simulate", c5_file, "--t", "2")
        assert rc == 2
        assert records == [{"type": "error", "error": "t must be >= 3, got 2"}]

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

    def test_copnumber(self, capsys, c5_file):
        rc, records = run_cli(capsys, "copnumber", c5_file)
        assert rc == 0 and records[0]["cop_number"] == 2

    def test_copnumber_exceeds_bound(self, capsys, c5_file):
        rc, records = run_cli(capsys, "copnumber", c5_file, "--max-cops", "1")
        assert rc == 0 and records[0]["cop_number"] == "> 1"


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

    def test_budget_unknown_nonstrict_zero(self, capsys, c5_file):
        rc, records = run_cli(capsys, "verify-theorem", c5_file, "--budget", "10")
        assert rc == 0
        assert [r for r in records if r["type"] == "summary"][0]["unknown"] == 1

    def test_budget_unknown_strict_one(self, capsys, c5_file):
        rc, _ = run_cli(capsys, "verify-theorem", c5_file, "--budget", "10", "--strict")
        assert rc == 1

    def test_conjecture_status_matches_probe(self, capsys, tmp_path):
        graphs = [cycle_graph(5), path_graph(6), petersen_graph(), complete_graph(4)]
        path = tmp_path / "mixed.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        rc, records = run_cli(capsys, "verify-theorem", str(path))
        assert rc == 0
        runs = [r for r in records if r["type"] == "run"]
        assert [r["conjecture_status"] for r in runs] == [
            probe_conjecture(g, r["t"])[0] for g, r in zip(graphs, runs)
        ]

    @pytest.mark.parametrize(
        "t,cnum,status",
        [(4, 1, "UNKNOWN"), (5, 2, "HOLDS"), (6, 3, "HOLDS"), (6, 4, "VIOLATED"), (7, None, "VIOLATED")],
    )
    def test_conjecture_status_from_cop_number(self, t, cnum, status):
        assert _conjecture_status(t, cnum) == status

    def test_disconnected_graph_marked_unknown(self, capsys, tmp_path):
        path = tmp_path / "disc.g6"
        path.write_text("A?\n")
        rc, records = run_cli(capsys, "verify-theorem", str(path))
        assert rc == 0
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
            (["conjecture-search", "--t", "5", "--n", "4", "--samples", "-1"],
             "samples must be >= 0, got -1"),
            (["gen", "path", "5", "--count", "-1"], "count must be >= 0, got -1"),
        ],
        ids=["check-t0", "lip-cap0", "search-n0", "search-samples-1", "gen-count-1"],
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
        monkeypatch.setattr("copslab.cli._each_graph", functools.partial(_each_graph, jobs=3))
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
    def test_commands_without_files(self, capsys, argv):
        # argparse rejections (SystemExit 2) and valid calls share the one parser
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


class TestByteDeterminism:
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
