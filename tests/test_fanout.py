"""The ordered fan-out of check, lip, verify-theorem and conjecture-search, and the streaming loader.

Forked workers must give the output of the in-process run, byte for byte,
and leave no child process behind; the loader must number lines as the
previous whole-file loader (tests/reference_loader.py) did.
"""

from __future__ import annotations

import errno
import io
import json
import os
import random
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from copslab import cli
from copslab.corpus import theorem_corpus
from copslab.generators import GenerationError
from copslab.graphs import encode_graph6

from conftest import graphs
from reference_loader import reference_load_graphs

JUNK = ["not graph6!!", "B~", "@", "A_ x", "é", "?", ""]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_with_jobs(capsys, monkeypatch, jobs, *argv) -> tuple[int, str]:
    monkeypatch.setattr(cli, "_jobs", lambda paths=(): jobs)
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    assert_no_child_left()
    return rc, out


@pytest.fixture(scope="module")
def standard_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fanout") / "standard.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for _, g in theorem_corpus(200)))
    return str(path)


@pytest.fixture(scope="module")
def junk_file(tmp_path_factory):
    """Twelve graphs with unparsable lines, blanks and comments between them."""
    lines = [encode_graph6(g) for _, g in theorem_corpus(0)[40:52]]
    for i, junk in enumerate(["not graph6!!", "# comment", "B~", "", "@@@", "A_ x"]):
        lines.insert(2 * i + 3, junk)
    path = tmp_path_factory.mktemp("fanout") / "junk.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


COMMANDS = [
    ("check", "--t", "4"),
    ("check", "--t", "4", "--keep-going"),
    ("lip",),
    ("lip", "--keep-going"),
    ("lip", "--cap", "5"),
    ("lip", "--cap", "5", "--keep-going"),
    ("verify-theorem",),
]


class TestFanOutMatchesInline:
    @pytest.mark.parametrize("command", [c for c in COMMANDS if "--keep-going" not in c],
                             ids=" ".join)
    def test_standard_corpus(self, capsys, monkeypatch, standard_file, command):
        name, *options = command
        inline = run_with_jobs(capsys, monkeypatch, 1, name, standard_file, *options)
        assert run_with_jobs(capsys, monkeypatch, 3, name, standard_file, *options) == inline
        assert inline[1].count("\n") >= 295

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_unparsable_lines(self, capsys, monkeypatch, junk_file, command):
        name, *options = command
        inline = run_with_jobs(capsys, monkeypatch, 1, name, junk_file, *options)
        assert run_with_jobs(capsys, monkeypatch, 3, name, junk_file, *options) == inline
        assert inline[0] == 2

    def test_several_files_and_fewer_graphs_than_jobs(self, capsys, monkeypatch, tmp_path, junk_file):
        two = tmp_path / "two.g6"
        two.write_text("Dhc\nCh\n")
        missing = str(tmp_path / "missing.g6")
        for argv in (["lip", str(two)], ["check", str(two), junk_file, missing, "--t", "5", "--keep-going"]):
            inline = run_with_jobs(capsys, monkeypatch, 1, *argv)
            assert run_with_jobs(capsys, monkeypatch, 3, *argv) == inline

    def test_default_jobs_match_inline(self, capsys, monkeypatch, junk_file):
        inline = run_with_jobs(capsys, monkeypatch, 1, "verify-theorem", junk_file)
        monkeypatch.undo()
        assert cli.main(["verify-theorem", junk_file]) == inline[0]
        assert capsys.readouterr().out == inline[1]
        assert_no_child_left()


class TestWorkerFailures:
    def test_exception_is_the_inline_error_record(self, capsys, monkeypatch, junk_file):
        fifth = theorem_corpus(0)[44][1]  # the junk file's fifth graph
        search = cli.longest_induced_path_order

        def broken(g, cap=None):
            if g == fifth:
                raise RuntimeError("boom")
            return search(g, cap)

        monkeypatch.setattr(cli, "longest_induced_path_order", broken)
        inline = run_with_jobs(capsys, monkeypatch, 1, "lip", junk_file, "--keep-going")
        assert run_with_jobs(capsys, monkeypatch, 3, "lip", junk_file, "--keep-going") == inline
        rc, out = inline
        assert rc == 2
        assert len(out.splitlines()) == 6
        assert out.splitlines()[-1] == '{"error":"internal error: RuntimeError: boom","type":"error"}'

    def test_exception_text_with_tab_and_newline(self, capsys, monkeypatch, junk_file):
        # a worker's message ends at its newline and splits at its first tab, so the
        # exception's text travels JSON-encoded and comes back whole
        def broken(g, cap=None):
            raise RuntimeError("tab\there\nnewline")

        monkeypatch.setattr(cli, "longest_induced_path_order", broken)
        inline = run_with_jobs(capsys, monkeypatch, 1, "lip", junk_file)
        assert run_with_jobs(capsys, monkeypatch, 3, "lip", junk_file) == inline
        assert inline[0] == 2
        last = json.loads(inline[1].splitlines()[-1])
        assert last["error"] == "internal error: RuntimeError: tab\there\nnewline"

    def test_worker_that_dies_is_an_internal_error(self, capsys, monkeypatch, junk_file):
        parent = os.getpid()

        def dies(g, cap=None):
            if os.getpid() == parent:
                raise AssertionError("ran in the test process")
            os._exit(3)

        monkeypatch.setattr(cli, "longest_induced_path_order", dies)
        rc, out = run_with_jobs(capsys, monkeypatch, 3, "lip", junk_file, "--keep-going")
        records = [json.loads(line) for line in out.splitlines()]
        assert rc == 2
        assert records[-1]["type"] == "error"
        assert records[-1]["error"].startswith("internal error: RuntimeError: graph worker")

    def test_broken_pipe_reaps_workers(self, capsys, monkeypatch, standard_file):
        class ClosedPipe(io.StringIO):
            def write(self, s):
                raise BrokenPipeError

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert run_with_jobs(capsys, monkeypatch, 3, "verify-theorem", standard_file)[0] == 2

    def test_early_stop_kills_workers(self, capsys, monkeypatch, tmp_path):
        # without --keep-going the first error ends the run; the workers' slow graphs must not delay it
        def slow(g, cap=None):
            time.sleep(0.5)
            return 1, [0]

        monkeypatch.setattr(cli, "longest_induced_path_order", slow)
        path = tmp_path / "bad-first.g6"
        path.write_text("not graph6!!\n" + "Dhc\n" * 60)
        start = time.perf_counter()
        rc, out = run_with_jobs(capsys, monkeypatch, 3, "lip", str(path))
        assert time.perf_counter() - start < 2.5  # 10 s if the workers ran to the end
        assert rc == 2 and len(out.splitlines()) == 1


def search(t: int, n: int, samples: int, *options: str) -> tuple[str, ...]:
    return ("conjecture-search", "--t", str(t), "--n", str(n), "--samples", str(samples),
            "--seed", str(100 * t + n), *options)


class TestSearchFanOut:
    @pytest.mark.parametrize("t", [5, 6, 7])
    def test_matches_inline(self, capsys, monkeypatch, t):
        fork, forks = os.fork, []

        def counted():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        for n in range(1, 15):
            for samples in (0, 1, 2, 3, 200):
                argv = search(t, n, samples)
                forks.clear()
                inline = run_with_jobs(capsys, monkeypatch, 1, *argv)
                assert not forks
                assert run_with_jobs(capsys, monkeypatch, 3, *argv) == inline, argv
                assert len(forks) == (min(samples, 3) if samples > 1 else 0)
                assert inline[0] == 0 and inline[1].count("\n") == samples + 1

    @pytest.mark.parametrize("budget", ["10", "300"])
    def test_budget_unknown_records(self, capsys, monkeypatch, budget):
        argv = search(6, 12, 60, "--budget", budget)
        inline = run_with_jobs(capsys, monkeypatch, 1, *argv)
        assert run_with_jobs(capsys, monkeypatch, 3, *argv) == inline
        assert '"status":"UNKNOWN"' in inline[1]

    @pytest.mark.parametrize("budget", ["300", "50000000"])
    def test_stats_summary_matches_inline(self, capsys, monkeypatch, budget):
        # the workers send each sample's (status, settled_by) tag over JSON, which makes it a list
        argv = search(6, 12, 60, "--budget", budget, "--stats")
        inline = run_with_jobs(capsys, monkeypatch, 1, *argv)
        assert run_with_jobs(capsys, monkeypatch, 3, *argv) == inline
        assert '"settled":{' in inline[1].splitlines()[-1]

    def test_generation_errors(self, capsys, monkeypatch):
        sample = cli.connected_ptfree_graph

        def sometimes_fails(n, t, seed):
            if seed % 3 == 0:
                raise GenerationError(f"no sample for seed {seed}")
            return sample(n, t, seed)

        monkeypatch.setattr(cli, "connected_ptfree_graph", sometimes_fails)
        inline = run_with_jobs(capsys, monkeypatch, 1, *search(6, 10, 40))
        assert run_with_jobs(capsys, monkeypatch, 3, *search(6, 10, 40)) == inline
        summary = json.loads(inline[1].splitlines()[-1])
        assert summary["generation_failures"] == inline[1].count('"type":"generation_error"') > 0

    def test_default_jobs_match_inline(self, capsys, monkeypatch):
        inline = run_with_jobs(capsys, monkeypatch, 1, *search(7, 11, 30))
        monkeypatch.undo()
        assert cli.main(list(search(7, 11, 30))) == inline[0]
        assert capsys.readouterr().out == inline[1]
        assert_no_child_left()

    def test_exception_at_sample_k_is_the_inline_error_record(self, capsys, monkeypatch):
        sample = cli.connected_ptfree_graph
        seventh = list(cli._sample_seeds(100 * 6 + 9, 7))[-1][1]

        def broken(n, t, seed):
            if seed == seventh:
                raise RuntimeError("boom")
            return sample(n, t, seed)

        monkeypatch.setattr(cli, "connected_ptfree_graph", broken)
        inline = run_with_jobs(capsys, monkeypatch, 1, *search(6, 9, 20))
        assert run_with_jobs(capsys, monkeypatch, 3, *search(6, 9, 20)) == inline
        rc, out = inline
        assert rc == 2
        assert len(out.splitlines()) == 7
        assert out.splitlines()[-1] == '{"error":"internal error: RuntimeError: boom","type":"error"}'

    def test_broken_pipe_stops_slow_workers(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, s):
                raise BrokenPipeError

        probe = cli.conjecture_probe

        def slow(g, t, state_budget):
            time.sleep(0.5)
            return probe(g, t, state_budget)

        monkeypatch.setattr(cli, "conjecture_probe", slow)
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        start = time.perf_counter()
        assert run_with_jobs(capsys, monkeypatch, 3, *search(6, 9, 60))[0] == 2
        assert time.perf_counter() - start < 2.5  # 10 s if the workers ran to the end


class TestForkFailure:
    """A fork that fails (EAGAIN, ENOMEM) stops the workers already started and runs in-process."""

    @pytest.mark.parametrize("which", ["search", "verify"])
    def test_second_fork_fails(self, capsys, monkeypatch, junk_file, which):
        argv = search(6, 10, 50) if which == "search" else ("verify-theorem", junk_file)
        inline = run_with_jobs(capsys, monkeypatch, 1, *argv)
        fork, calls = os.fork, []

        def second_fails():
            calls.append(os.getpid())
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        assert run_with_jobs(capsys, monkeypatch, 3, *argv) == inline  # and no child left
        assert len(calls) == 2


class TestJobs:
    def test_single_cpu_or_unreadable_twice_runs_inline(self, monkeypatch, tmp_path, junk_file):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert cli._jobs([junk_file]) == 3
        assert cli._jobs([junk_file, str(fifo)]) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._jobs([junk_file]) == 1

    def test_other_threads_run_inline(self, monkeypatch, junk_file):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert cli._jobs([junk_file]) == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert cli._jobs([junk_file]) == 3


SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", " "]


@st.composite
def input_texts(draw):
    """graph6 lines, junk, comments, blanks and edge-list lines, split by every kind of line break."""
    pieces = draw(st.lists(st.one_of(
        graphs(max_n=6).map(encode_graph6),
        st.sampled_from(JUNK + ["# note", "  # note", "   ", "3 2", "0 1", "1 2", "-1 4", "2 x"]),
    ), max_size=8))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(pieces), max_size=len(pieces)))
    text = "".join(p + s for p, s in zip(pieces, seps))
    return text if draw(st.booleans()) else text.rstrip("\n")


class TestStreamingLoader:
    @staticmethod
    def same_as_reference(paths):
        assert [cli._parsed(*item) for item in cli._inputs(paths)] == list(reference_load_graphs(paths))

    @given(texts=st.lists(input_texts(), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_whole_file_loader(self, tmp_path, texts):
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"in{i}.txt"
            path.write_bytes(text.encode())
            paths.append(str(path))
        self.same_as_reference(paths + [str(tmp_path / "missing")])

    def test_line_breaks_across_read_chunks(self, tmp_path):
        # the text layer reads 8 KiB at a time; put a \r\n astride every chunk boundary
        rng = random.Random(5)
        corpus = [encode_graph6(g) for _, g in theorem_corpus(20)]
        ascii_junk = [j for j in JUNK if j.isascii()]  # one character per byte
        ascii_separators = [s for s in SEPARATORS if s.isascii()]
        text = ""
        while len(text) < 60_000:
            if len(text) % 8192 > 8150:
                text += "x" * (8191 - len(text) % 8192) + "\r\n"
            text += rng.choice(corpus + ascii_junk) + rng.choice(ascii_separators)
        path = tmp_path / "big.g6"
        path.write_bytes(text.encode())
        self.same_as_reference([str(path)])

    def test_edge_list_after_comments(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\n  # more\n3 2\n# inside\n0 1\n1 2\n")
        self.same_as_reference([str(path)])
        (loc, g, err), = [cli._parsed(*item) for item in cli._inputs([str(path)])]
        assert (loc, g.n, g.m, err) == (str(path), 3, 2, None)

    def test_invalid_utf8_is_unreadable(self, tmp_path):
        path = tmp_path / "bin.g6"
        path.write_bytes(b"Dhc\n\xff\xfe\nCh\n")
        self.same_as_reference([str(path)])
