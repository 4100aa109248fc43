"""Command-line surface: corpus checks, simulations, solving, conjecture search.

Output is JSONL on stdout, one record per graph or event, stable across runs
given identical inputs and seeds (keys sorted, no timestamps). Exit codes
separate the mathematical outcome from operational failure:

  0  everything checked out (or, for searches, the run completed)
  1  a mathematical negative: some graph not free, strategy failed, bound missed
  2  operational error: unparsable input, disconnected graph, exhausted budget

`check`, `lip` and `verify-theorem` exit 2 if any graph's record is an error
or unknown, even when another graph is a negative. The theorem and t-3
verdicts of `verify-theorem` and `conjecture-search` are decided in
`copslab.verify`; this module only builds their records.

`check`, `lip` and `verify-theorem` compute each graph's record on its own,
and `conjecture-search` each sample's, from a seed stepped off --seed. On at
least two graphs (read from regular files) or samples, they fork one worker
per CPU in the process's affinity set (`os.sched_getaffinity`): worker j
makes the items itself, takes items j, j + jobs, ... and sends their records
back over its own pipe, and the parent writes them in order, so the output is
the same, byte for byte, as when one process does all the work. On one item,
one CPU (`taskset -c 0`), a platform without `fork`, or a failed fork, the
same code runs in the process itself.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .engine import CAPTURED, play, trace_to_dot
from .generators import GenerationError, connected_ptfree_graph, generate
from .graphs import Graph, GraphFormatError, encode_graph6, format_edge_list, parse_edge_list, parse_graph6
from .gyarfas import GyarfasCop
from .induced import is_pt_free, longest_induced_path_order
from .rng import SplitMix64
from .robbers import GreedyRobber, OptimalRobber, RandomRobber
from .solver import DEFAULT_STATE_BUDGET, SolverBudgetError, cop_number, solve
from .verify import conjecture_probe, over_work_budget, verify_theorem_bound

OK, NEGATIVE, ERROR = 0, 1, 2


# One encoder for every record: `json.dumps` with these options builds a new one per call.
_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit(record: dict) -> None:
    print(_line(record))


def _error(message: str) -> int:
    _emit({"type": "error", "error": message})
    return ERROR


def _graph_id(g: Graph, fallback: str) -> str:
    return encode_graph6(g) if g.n <= 62 else fallback


def _inputs(paths: list[str]):
    """Yield (location, parser, text) per input graph, without parsing it.

    A file whose first payload line is two integers is one edge-list graph,
    read whole; anything else is graph6, one graph per line, read a line at
    a time and numbered as `str.splitlines` numbers the whole text. A file
    that cannot be read yields parser None and the error as text.
    """
    for path in paths:
        try:
            with Path(path).open() as fh:
                yield from _file_inputs(path, fh)
        except (OSError, UnicodeDecodeError) as exc:
            yield path, None, f"cannot read: {exc}"


def _file_inputs(path: str, fh):
    skipped = []  # the blank and comment lines before the first payload line
    lineno = 0
    for physical in fh:  # universal newlines, as in read_text
        for line in physical.splitlines():  # \v, \f, \x1c-\x1e, \x85, \u2028, \u2029 too
            lineno += 1
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if skipped is not None:
                first = line.split()
                if len(first) == 2 and all(tok.lstrip("-").isdigit() for tok in first):
                    yield path, parse_edge_list, "".join(skipped) + physical + fh.read()
                    return
                skipped = None
            yield f"{path}:{lineno}", parse_graph6, line
        if skipped is not None:
            skipped.append(physical)


def _parsed(loc: str, parser, text: str) -> tuple[str, Graph | None, str | None]:
    """(location, Graph, None), or (location, None, error) for input that does not parse."""
    if parser is None:
        return loc, None, text
    try:
        return loc, parser(text), None
    except GraphFormatError as exc:
        return (loc if parser is parse_graph6 else f"{loc}:{exc.offset}"), None, str(exc)


def _load_single_graph(path: str) -> Graph:
    with contextlib.closing(_inputs([path])) as items:  # closes the file at once
        first, second = next(items, None), next(items, None)
    if first is None:
        raise GraphFormatError(f"no graph found in {path}")
    if second is not None:
        raise GraphFormatError(f"{path} holds more than one graph; this command takes one")
    _, g, err = _parsed(*first)
    if err is not None:
        raise GraphFormatError(err)
    return g


def _make_robber(spec: str, fallback_seed: int, g: Graph, t: int, budget: int):
    if spec == "greedy":
        return GreedyRobber()
    if spec == "optimal":
        reason = over_work_budget(g, t - 2)
        if reason is not None:
            raise ValueError(f"optimal robber unavailable: {reason}")
        table, _ = solve(g, t - 2, state_budget=budget)
        return OptimalRobber(table)
    if spec == "random":
        return RandomRobber(fallback_seed)
    if spec.startswith("random:"):
        with contextlib.suppress(ValueError):
            return RandomRobber(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown robber policy {spec!r} (use optimal|greedy|random:SEED)")


# ---------------------------------------------------------------------------
# the ordered fan-out
# ---------------------------------------------------------------------------

_END, _RAISED = "end", "raised"  # worker messages that carry no record


class _WorkerError(Exception):
    """An exception a worker raised, carried back as its description."""


def _describe(exc: Exception) -> str:
    return str(exc) if isinstance(exc, _WorkerError) else f"{type(exc).__name__}: {exc}"


def _jobs(paths=()) -> int:
    """One worker per CPU in the affinity set; 1 where forking or re-reading the input is unsafe."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1  # a fork copies only this thread, so locks held by the others would stay held
    cpus = len(os.sched_getaffinity(0))
    # every worker opens the files anew, which a pipe or terminal does not allow
    return cpus if cpus > 1 and all(os.path.isfile(p) for p in paths) else 1


def _each(items, run, jobs: int):
    """Yield run(item) for every item of the generator items(), in order.

    run returns (tag, line), where tag is a string or a tuple of strings (or
    None), and must not write anything itself. With at least
    two items and jobs > 1, worker j of min(jobs, items) forked workers makes
    the items itself and runs items j, j + jobs, ...; this process holds no
    item. If a fork fails, the workers already started are stopped and all
    items run here. Either way the same pairs come out in the same order.
    """
    todo = items()
    head = list(itertools.islice(todo, jobs)) if jobs > 1 else []
    if len(head) > 1:
        todo.close()  # the workers make the items themselves; this process holds none
        workers: list = []  # (pid, read end of its pipe) per worker started
        try:
            for j in range(len(head)):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # EAGAIN or ENOMEM; no output was written yet
                    os.close(r)
                    os.close(w)
                    break
                if pid == 0:
                    os.close(r)
                    _worker(items, run, j, len(head), w, [reader.fileno() for _, reader in workers])
                os.close(w)
                workers.append((pid, open(r, "rb")))
            else:
                yield from _gather([reader for _, reader in workers])
                return
        finally:
            for pid, reader in workers:
                os.kill(pid, 9)  # SIGKILL; a worker that already exited is a zombie until reaped
                os.waitpid(pid, 0)
                reader.close()
        head, todo = [], items()
    for item in itertools.chain(head, todo):
        yield run(item)


def _gather(readers: list):
    """Read the workers' messages round-robin; a worker that ends without its end message raises.

    A message is the JSON of its tag, a tab, and the record line as the worker's
    run made it; `_line` escapes every control character, so the first tab and
    the newline are the message's own.
    """
    for j in itertools.cycle(range(len(readers))):
        message = readers[j].readline()
        if not message.endswith(b"\n"):
            raise RuntimeError(f"graph worker {j} of {len(readers)} ended without finishing")
        head, _, line = message[:-1].decode().partition("\t")
        tag = json.loads(head)
        if tag == _END:
            return
        if tag == _RAISED:
            raise _WorkerError(json.loads(line))
        yield (tuple(tag) if isinstance(tag, list) else tag), line  # JSON made a tuple tag a list


def _worker(items, run, j: int, jobs: int, fd: int, inherited: list[int]):
    """The body of forked worker j; it never returns into the caller's code."""
    status = 1
    try:
        for other in inherited:  # the parent's ends of the other workers' pipes
            os.close(other)
        with open(fd, "wb") as out:

            def send(tag, line: str) -> None:
                out.write(f"{json.dumps(tag)}\t{line}\n".encode())
                out.flush()  # the parent may be waiting for this very item

            try:
                for item in itertools.islice(items(), j, None, jobs):
                    send(*run(item))
                send(_END, "")
            except Exception as exc:  # the parent raises it at this item's place in the output
                send(_RAISED, json.dumps(_describe(exc)))  # its text may hold a tab or a newline
        status = 0
    finally:
        os._exit(status)  # never run the caller's clean-up or atexit code


def _write_each(items, run, paths=(), stop: str | None = None) -> Counter:
    """Print run's line for every item in order and count the tags; stop after a `stop` tag."""
    tags: Counter = Counter()
    with contextlib.closing(_each(items, run, _jobs(paths))) as results:
        for tag, line in results:
            sys.stdout.write(line + "\n")
            tags[tag] += 1
            if tag == stop:
                break
    return tags


def _write_graphs(paths: list[str], per_graph, stop: str | None = None) -> Counter:
    """_write_each over the input graphs: per_graph(location, Graph | None, error | None)."""
    return _write_each(functools.partial(_inputs, paths), lambda item: per_graph(*_parsed(*item)),
                       paths, stop)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_graph(t: int, loc: str, g: Graph | None, err: str | None) -> tuple[str, str]:
    if err is not None:
        return "error", _line({"type": "check", "graph": loc, "error": err})
    free, cert = is_pt_free(g, t)
    rec = {"type": "check", "graph": loc, "graph6": _graph_id(g, loc), "n": g.n, "m": g.m, "t": t,
           "pt_free": free}
    if cert is not None:
        rec["certificate"] = cert
    return ("free" if free else "not_free"), _line(rec)


def cmd_check(args: argparse.Namespace) -> int:
    if args.t < 1:
        return _error(f"t must be >= 1, got {args.t}")
    tags = _write_graphs(args.files, functools.partial(_check_graph, args.t),
                       stop=None if args.keep_going else "error")
    if tags["error"]:
        return ERROR
    return NEGATIVE if tags["not_free"] else OK


def _lip_graph(cap: int | None, loc: str, g: Graph | None, err: str | None) -> tuple[str, str]:
    if err is not None:
        return "error", _line({"type": "lip", "graph": loc, "error": err})
    order, witness = longest_induced_path_order(g, cap=cap)
    return "ok", _line({"type": "lip", "graph": loc, "graph6": _graph_id(g, loc), "n": g.n, "m": g.m,
                        "lip_order": order, "witness": witness})


def cmd_lip(args: argparse.Namespace) -> int:
    if args.cap is not None and args.cap < 1:
        return _error(f"cap must be >= 1, got {args.cap}")
    tags = _write_graphs(args.files, functools.partial(_lip_graph, args.cap),
                       stop=None if args.keep_going else "error")
    return ERROR if tags["error"] else OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.t < 3:
        return _error(f"t must be >= 3, got {args.t}")
    g = _load_single_graph(args.file)
    if not g.is_connected() or g.n == 0:
        return _error("simulate requires a connected graph")
    try:
        cop = GyarfasCop(args.t, v0_rule=args.v0)
        robber = _make_robber(args.robber, args.seed, g, args.t, args.budget)
        trace = play(g, cop, robber)
    except ValueError as exc:  # a SolverBudgetError reaches main, which reports required_budget
        return _error(str(exc))
    if args.format == "dot":
        sys.stdout.write(trace_to_dot(trace))
    else:
        for rec in trace.to_records():
            _emit(rec)
        for rec in cop.records:
            _emit(rec)
    captured_in_time = (
        trace.outcome.result == CAPTURED and trace.outcome.cop_moves <= args.t - 1
    )
    return OK if captured_in_time else NEGATIVE


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_single_graph(args.file)
    if args.dump_table:
        try:  # probe the path before the solve, so an unwritable one costs no solve
            created = not os.path.lexists(args.dump_table)
            open(args.dump_table, "a").close()
            if created:
                os.remove(args.dump_table)
        except OSError as exc:
            return _error(f"cannot write {args.dump_table}: {exc.strerror or exc}")
    try:
        table, result = solve(g, args.cops, state_budget=args.budget)
    except ValueError as exc:
        return _error(str(exc))
    _emit(
        {
            "type": "solve",
            "graph6": _graph_id(g, args.file),
            "n": g.n,
            "m": g.m,
            "k": args.cops,
            "cop_win": result.cop_win,
            "optimal_capture_cop_moves": result.optimal_capture_cop_moves,
            "best_initial_placement": (
                list(result.best_initial_placement)
                if result.best_initial_placement is not None
                else None
            ),
        }
    )
    if args.dump_table:
        try:
            with open(args.dump_table, "w") as dump:
                for (T, r, cops_to_move), m in sorted(table.values.items()):
                    side = "C" if cops_to_move else "R"
                    dump.write(f"cops={','.join(map(str, T))} robber={r} side={side} m={m}\n")
        except OSError as exc:
            return _error(f"cannot write {args.dump_table}: {exc.strerror or exc}")
    return OK


def cmd_copnumber(args: argparse.Namespace) -> int:
    g = _load_single_graph(args.file)
    try:
        k = cop_number(g, args.max_cops, state_budget=args.budget)
    except ValueError as exc:
        return _error(str(exc))
    _emit(
        {
            "type": "copnumber",
            "graph6": _graph_id(g, args.file),
            "n": g.n,
            "m": g.m,
            "k_max": args.max_cops,
            "cop_number": k if k is not None else f"> {args.max_cops}",
        }
    )
    return OK


def _verify_graph(budget: int, loc: str, g: Graph | None, err: str | None) -> tuple[str, str]:
    if err is not None:
        return "unknown", _line({"type": "run", "graph": loc, "error": err, "theorem_pass": None,
                                 "conjecture_status": "UNKNOWN"})
    try:
        report = verify_theorem_bound(g, state_budget=budget)
    except (SolverBudgetError, ValueError) as exc:
        return "unknown", _line({"type": "run", "graph": loc, "graph6": _graph_id(g, loc),
                                 "theorem_pass": None, "conjecture_status": "UNKNOWN",
                                 "error": str(exc)})
    rec = {
        "type": "run",
        "graph": loc,
        "graph6": _graph_id(g, loc),
        "n": g.n,
        "m": g.m,
        "lip_order": report.lip_order,
        "t": report.t,
        "cop_number": report.cop_number,
        "strategy_capture_moves": report.strategy_capture_moves,
        "solver_capture_moves": report.solver_capture_moves,
        "theorem_pass": report.passed,
        "conjecture_status": report.conjecture_status,
    }
    if report.solver_skip_reason:
        rec["solver_skip_reason"] = report.solver_skip_reason
    return ("passed" if report.passed else "failed"), _line(rec)


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    tags = _write_graphs(args.files, functools.partial(_verify_graph, args.budget))
    passed, failed, unknown = tags["passed"], tags["failed"], tags["unknown"]
    _emit({"type": "summary", "graphs": passed + failed + unknown, "passed": passed,
           "failed": failed, "unknown": unknown})
    if unknown:
        return ERROR
    return NEGATIVE if failed else OK


def _sample_seeds(seed: int, samples: int):
    stream = SplitMix64(seed)
    for i in range(samples):
        yield i, stream.next_u64()


def _search_sample(t: int, n: int, budget: int, item: tuple[int, int]) -> tuple[tuple, str]:
    """((status, settled_by), JSONL line) for one sample."""
    i, seed = item
    try:
        g = connected_ptfree_graph(n, t, seed)
    except GenerationError as exc:
        return ("generation_error", None), _line({"type": "generation_error", "sample": i,
                                                  "seed": seed, "error": str(exc)})
    status, evidence, settled_by = conjecture_probe(g, t, budget)
    rec = {"type": "conjecture", "sample": i, "seed": seed, "graph6": encode_graph6(g), "n": g.n,
           "m": g.m, "t": t, "status": status}
    if status == "HOLDS":
        rec["cop_number"] = evidence["cop_number"]
    else:
        rec["evidence"] = evidence
    if status == "VIOLATED":
        rec["counterexample_candidate"] = True
    return (status, settled_by), _line(rec)


def cmd_conjecture_search(args: argparse.Namespace) -> int:
    if args.t < 5:
        return _error(f"conjecture search needs t >= 5, got {args.t}")
    if args.n < 1:
        return _error(f"n must be >= 1, got {args.n}")
    if args.n > 62:  # every sample record carries its graph6, short form only
        return _error(f"n must be <= 62, got {args.n}")
    if args.samples < 0:
        return _error(f"samples must be >= 0, got {args.samples}")
    tags = _write_each(functools.partial(_sample_seeds, args.seed, args.samples),
                       functools.partial(_search_sample, args.t, args.n, args.budget))
    statuses: Counter = Counter()
    settled: Counter = Counter()
    for (status, settled_by), count in tags.items():
        statuses[status] += count
        settled[settled_by] += count
    summary = {"type": "summary", "t": args.t, "n": args.n, "samples": args.samples,
               "holds": statuses["HOLDS"], "violated": statuses["VIOLATED"],
               "unknown": statuses["UNKNOWN"], "generation_failures": statuses["generation_error"]}
    if args.stats:
        summary["settled"] = {how: settled[how] for how in ("dismantlability", "domination", "solve")}
    _emit(summary)
    # A counterexample is a research result, not a failure.
    return OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 0:
        return _error(f"count must be >= 0, got {args.count}")
    if (args.kind == "connected_ptfree") != (args.t is not None):
        return _error("connected_ptfree needs --t" if args.t is None else "--t applies only to connected_ptfree")
    spec = " ".join([args.kind, *args.params, *([] if args.t is None else [str(args.t)])])
    for i in range(args.count):
        try:
            g = generate(spec, seed=args.seed + i)
        except (ValueError, GenerationError) as exc:
            return _error(str(exc))
        if g.n > 62 and args.count > 1:  # every graph of a kind has the first one's n
            return _error(f"--count {args.count} needs n <= 62: an edge list holds one graph, got n={g.n}")
        if g.n <= 62:
            print(encode_graph6(g))
        else:
            sys.stdout.write(format_edge_list(g))
    return OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call.

    Parsing leaves the parser as it was, and argparse looks up sys.stdout and
    sys.stderr when it writes, so every call behaves as in a fresh process.
    """
    parser = argparse.ArgumentParser(
        prog="copslab",
        description="Pursuit-evasion lab: freeness checks, strategy simulation, exact solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET,
                       help="solver state-space budget")

    p = sub.add_parser("check", help="test each input graph for induced t-vertex paths")
    p.add_argument("files", nargs="+")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lip", help="longest induced path order per graph")
    p.add_argument("files", nargs="+")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(func=cmd_lip)

    p = sub.add_parser("simulate", help="play the path-hunting cop team on one graph")
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--robber", default="greedy", help="optimal|greedy|random:SEED")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--v0", choices=["lowest", "max_degree"], default="lowest")
    p.add_argument("--format", choices=["jsonl", "dot"], default="jsonl")
    add_budget(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="exact k-cop game value for one graph")
    p.add_argument("file")
    p.add_argument("--cops", type=int, required=True)
    p.add_argument("--dump-table", default=None, metavar="PATH")
    add_budget(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("copnumber", help="smallest winning cop count up to --max-cops")
    p.add_argument("file")
    p.add_argument("--max-cops", type=int, default=4)
    add_budget(p)
    p.set_defaults(func=cmd_copnumber)

    p = sub.add_parser("verify-theorem", help="capture-bound checks over a corpus")
    p.add_argument("files", nargs="+")
    add_budget(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("conjecture-search",
                       help="sample graphs free of induced t-vertex paths; test t-3 cops")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", action="store_true",
                   help="count in the summary how many verdicts dismantlability, domination "
                        "and a solve settled")
    add_budget(p)
    p.set_defaults(func=cmd_conjecture_search)

    p = sub.add_parser("gen", help="emit a generated graph (graph6, or edge list when n > 62)")
    p.add_argument("kind", choices=["path", "cycle", "complete", "star", "petersen",
                                    "gnp", "connected_ptfree"])
    p.add_argument("params", nargs="*", help="kind parameters, e.g. n or n p")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return ERROR
    except GraphFormatError as exc:
        return _error(str(exc))
    except SolverBudgetError as exc:
        _emit({"type": "error", "error": str(exc), "required_budget": exc.required})
        return ERROR
    except Exception as exc:  # the exit-code contract holds for every input
        return _error(f"internal error: {_describe(exc)}")


if __name__ == "__main__":
    sys.exit(main())
