"""Command-line surface: corpus checks, simulations, solving, conjecture search.

Output is JSONL on stdout, one record per graph or event, stable across runs
given identical inputs and seeds (keys sorted, no timestamps). Exit codes
separate the mathematical outcome from operational failure:

  0  everything checked out (or, for searches, the run completed)
  1  a mathematical negative: some graph not free, strategy failed, bound missed
  2  operational error: unparsable input, disconnected graph, exhausted budget
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .engine import CAPTURED, play, trace_to_dot
from .generators import GenerationError, connected_ptfree_graph, generate
from .graphs import Graph, GraphFormatError, encode_graph6, format_edge_list, parse_edge_list, parse_graph6
from .gyarfas import GyarfasCop
from .induced import is_pt_free, longest_induced_path_order
from .rng import SplitMix64
from .robbers import GreedyRobber, OptimalRobber, RandomRobber
from .solver import (
    DEFAULT_STATE_BUDGET,
    DEFAULT_WORK_BUDGET,
    SolverBudgetError,
    cop_number,
    estimate_solver_work,
    probe_conjecture,
    solve,
    verify_theorem_bound,
)

OK, NEGATIVE, ERROR = 0, 1, 2


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _error(message: str) -> int:
    _emit({"type": "error", "error": message})
    return ERROR


def _graph_id(g: Graph, fallback: str) -> str:
    return encode_graph6(g) if g.n <= 62 else fallback


def _load_graphs(paths: list[str]):
    """Yield (location, Graph | None, error | None) over all input files.

    A file whose first payload line is two integers is one edge-list graph;
    anything else is graph6, one graph per line.
    """
    for path in paths:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            yield f"{path}", None, f"cannot read: {exc}"
            continue
        payload = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        first = payload[0].split() if payload else []
        if len(first) == 2 and all(tok.lstrip("-").isdigit() for tok in first):
            try:
                yield f"{path}", parse_edge_list(text), None
            except GraphFormatError as exc:
                yield f"{path}:{exc.offset}", None, str(exc)
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            loc = f"{path}:{lineno}"
            try:
                yield loc, parse_graph6(line), None
            except GraphFormatError as exc:
                yield loc, None, str(exc)


def _load_single_graph(path: str) -> Graph:
    for _, g, err in _load_graphs([path]):
        if err is not None:
            raise GraphFormatError(err)
        return g
    raise GraphFormatError(f"no graph found in {path}")


def _make_robber(spec: str, fallback_seed: int, g: Graph, t: int, budget: int):
    if spec == "greedy":
        return GreedyRobber()
    if spec == "optimal":
        k = t - 2
        work = estimate_solver_work(g, k)
        if work > DEFAULT_WORK_BUDGET:
            raise ValueError(
                f"optimal robber needs a solve with k={k} of ~{work} move enumerations "
                f"(budget {DEFAULT_WORK_BUDGET})"
            )
        table, _ = solve(g, k, state_budget=budget)
        return OptimalRobber(table)
    if spec == "random":
        return RandomRobber(fallback_seed)
    if spec.startswith("random:"):
        return RandomRobber(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown robber policy {spec!r} (use optimal|greedy|random:SEED)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    if args.t < 1:
        return _error(f"t must be >= 1, got {args.t}")
    any_error = False
    any_not_free = False
    for loc, g, err in _load_graphs(args.files):
        if err is not None:
            any_error = True
            _emit({"type": "check", "graph": loc, "error": err})
            if not args.keep_going:
                return ERROR
            continue
        free, cert = is_pt_free(g, args.t)
        rec = {
            "type": "check",
            "graph": loc,
            "graph6": _graph_id(g, loc),
            "n": g.n,
            "m": g.m,
            "t": args.t,
            "pt_free": free,
        }
        if cert is not None:
            rec["certificate"] = cert
        _emit(rec)
        any_not_free = any_not_free or not free
    if any_error:
        return ERROR
    return NEGATIVE if any_not_free else OK


def cmd_lip(args: argparse.Namespace) -> int:
    if args.cap is not None and args.cap < 1:
        return _error(f"cap must be >= 1, got {args.cap}")
    any_error = False
    for loc, g, err in _load_graphs(args.files):
        if err is not None:
            any_error = True
            _emit({"type": "lip", "graph": loc, "error": err})
            if not args.keep_going:
                return ERROR
            continue
        order, witness = longest_induced_path_order(g, cap=args.cap)
        _emit(
            {
                "type": "lip",
                "graph": loc,
                "graph6": _graph_id(g, loc),
                "n": g.n,
                "m": g.m,
                "lip_order": order,
                "witness": witness,
            }
        )
    return ERROR if any_error else OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        g = _load_single_graph(args.file)
    except GraphFormatError as exc:
        return _error(str(exc))
    if not g.is_connected() or g.n == 0:
        return _error("simulate requires a connected graph")
    try:
        cop = GyarfasCop(args.t, v0_rule=args.v0)
        robber = _make_robber(args.robber, args.seed, g, args.t, args.budget)
        trace = play(g, cop, robber)
    except (SolverBudgetError, ValueError) as exc:
        return _error(str(exc))
    if args.format == "dot":
        sys.stdout.write(trace_to_dot(trace))
    else:
        for rec in trace.to_records():
            _emit(rec)
        for rec in cop.state_records():
            _emit(rec)
    captured_in_time = (
        trace.outcome.result == CAPTURED and trace.outcome.cop_moves <= args.t - 1
    )
    return OK if captured_in_time else NEGATIVE


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        g = _load_single_graph(args.file)
        table, result = solve(g, args.cops, state_budget=args.budget)
    except (GraphFormatError, ValueError) as exc:
        return _error(str(exc))
    except SolverBudgetError as exc:
        _emit({"type": "error", "error": str(exc), "required_budget": exc.required})
        return ERROR
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
        with open(args.dump_table, "w") as fh:
            for (T, r, cops_to_move), m in sorted(table.values.items()):
                side = "C" if cops_to_move else "R"
                fh.write(f"cops={','.join(map(str, T))} robber={r} side={side} m={m}\n")
    return OK


def cmd_copnumber(args: argparse.Namespace) -> int:
    try:
        g = _load_single_graph(args.file)
        k = cop_number(g, args.max_cops, state_budget=args.budget)
    except (GraphFormatError, ValueError) as exc:
        return _error(str(exc))
    except SolverBudgetError as exc:
        _emit({"type": "error", "error": str(exc), "required_budget": exc.required})
        return ERROR
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


def _conjecture_status(t: int, cnum: int | None) -> str:
    """probe_conjecture's verdict, read off a cop number already searched up to t-2.

    The cop-number search solved every k <= t-3 under the same state budget,
    so HOLDS iff cop_number <= t-3 is exact, and VIOLATED otherwise.
    """
    if t < 5:
        return "UNKNOWN"
    return "HOLDS" if cnum is not None and cnum <= t - 3 else "VIOLATED"


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    passed = failed = unknown = 0
    for loc, g, err in _load_graphs(args.files):
        if err is not None:
            unknown += 1
            _emit({"type": "run", "graph": loc, "error": err, "theorem_pass": None})
            continue
        try:
            report = verify_theorem_bound(g, state_budget=args.budget)
        except (SolverBudgetError, ValueError) as exc:
            unknown += 1
            _emit(
                {
                    "type": "run",
                    "graph": loc,
                    "graph6": _graph_id(g, loc),
                    "theorem_pass": None,
                    "conjecture_status": "UNKNOWN",
                    "error": str(exc),
                }
            )
            continue
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
            "conjecture_status": _conjecture_status(report.t, report.cop_number),
        }
        if report.solver_skip_reason:
            rec["solver_skip_reason"] = report.solver_skip_reason
        _emit(rec)
        if report.passed:
            passed += 1
        else:
            failed += 1
    _emit(
        {
            "type": "summary",
            "graphs": passed + failed + unknown,
            "passed": passed,
            "failed": failed,
            "unknown": unknown,
        }
    )
    if failed:
        return NEGATIVE
    if unknown and args.strict:
        return NEGATIVE
    return OK


def cmd_conjecture_search(args: argparse.Namespace) -> int:
    if args.t < 5:
        return _error(f"conjecture search needs t >= 5, got {args.t}")
    if args.n < 1:
        return _error(f"n must be >= 1, got {args.n}")
    if args.samples < 0:
        return _error(f"samples must be >= 0, got {args.samples}")
    stream = SplitMix64(args.seed)
    holds = violated = unknown = failures = 0
    for i in range(args.samples):
        sample_seed = stream.next_u64()
        try:
            g = connected_ptfree_graph(args.n, args.t, sample_seed)
        except GenerationError as exc:
            failures += 1
            _emit({"type": "generation_error", "sample": i, "seed": sample_seed, "error": str(exc)})
            continue
        status, evidence = probe_conjecture(g, args.t, state_budget=args.budget)
        rec = {
            "type": "conjecture",
            "sample": i,
            "seed": sample_seed,
            "graph6": encode_graph6(g),
            "n": g.n,
            "m": g.m,
            "t": args.t,
            "status": status,
        }
        if status == "HOLDS":
            holds += 1
            rec["cop_number"] = evidence["cop_number"]
        elif status == "VIOLATED":
            violated += 1
            rec["counterexample_candidate"] = True
            rec["evidence"] = evidence
        else:
            unknown += 1
            rec["evidence"] = evidence
        _emit(rec)
    _emit(
        {
            "type": "summary",
            "t": args.t,
            "n": args.n,
            "samples": args.samples,
            "holds": holds,
            "violated": violated,
            "unknown": unknown,
            "generation_failures": failures,
        }
    )
    # A counterexample is a research result, not a failure.
    return OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 0:
        return _error(f"count must be >= 0, got {args.count}")
    parts = [args.kind, *args.params]
    if args.kind == "connected_ptfree":
        if args.t is None:
            return _error("connected_ptfree needs --t")
        parts = [args.kind, *args.params, str(args.t)]
    spec = " ".join(parts)
    for i in range(args.count):
        try:
            g = generate(spec, seed=args.seed + i)
        except (ValueError, GenerationError) as exc:
            return _error(str(exc))
        if g.n <= 62:
            print(encode_graph6(g))
        else:
            sys.stdout.write(format_edge_list(g))
    return OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--strict", action="store_true",
                   help="treat budget-limited UNKNOWN records as failures")
    add_budget(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("conjecture-search",
                       help="sample graphs free of induced t-vertex paths; test t-3 cops")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call.

    Parsing leaves the parser as it was, and argparse looks up sys.stdout and
    sys.stderr when it writes, so every call behaves as in a fresh process.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return ERROR
    except Exception as exc:  # the exit-code contract holds for every input
        return _error(f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
