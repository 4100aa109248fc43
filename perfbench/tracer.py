"""Spans and counters around the package's layer functions, installed from outside.

Each layer function is wrapped at every module attribute that holds it: the
defining module and each module that imported it with `from ... import`
(for example both `copslab.solver.solve` and `copslab.cli.solve`), so the
callers' global lookups reach the wrapper. Functions are found by name across
the package, so a function that moves to another module is still traced; a
name that is gone is reported as an absent layer and its metrics read 0.

Spans (name, parent span, start, end) and counters stay in memory until the
run ends. Counters come only from the arguments and return values of the
wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
from collections import Counter
from time import perf_counter

FUNCTIONS = (
    "verify_theorem_bound",
    "probe_conjecture",
    "cop_number",
    "solve",
    "joint_cop_moves",
    "estimate_solver_work",
    "longest_induced_path_order",
    "is_pt_free",
    "connected_ptfree_graph",
    "analyze_strategy",
    "cop_turn",
    "play",
    "closed_neighborhood",
    "components_within",
    "shortest_path_within",
    "parse_graph6",
    "parse_edge_list",
)
METHODS = (
    "Graph.from_edges",
    "GreedyRobber.place",
    "GreedyRobber.move",
    "RandomRobber.place",
    "RandomRobber.move",
    "OptimalRobber.place",
    "OptimalRobber.move",
)
REGION = ("closed_neighborhood", "components_within", "shortest_path_within")
PARSE = ("parse_graph6", "parse_edge_list")
ROBBER = tuple(m for m in METHODS if "Robber." in m)
# The caller of a solve decides which of the solver's jobs it served.
SOLVE_CALLERS = {"cop_number": "copnum", "verify_theorem_bound": "timecheck", "probe_conjecture": "probe"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("solver.timecheck_s", "s", "lower"),
    ("solver.copnum_s", "s", "lower"),
    ("solver.probe_s", "s", "lower"),
    ("solver.joint_moves_s", "s", "lower"),
    ("solver.joint_moves_out", "count", "lower"),
    ("solver.states", "count", "lower"),
    ("solver.solve_ms_p50", "ms", "lower"),
    ("solver.solve_calls", "count", "lower"),
    ("solver.solve_distinct", "count", "lower"),
    ("solver.solve_calls.copnum", "count", "lower"),
    ("solver.solve_calls.timecheck", "count", "lower"),
    ("solver.solve_calls.probe", "count", "lower"),
    ("solver.solve_distinct.copnum", "count", "lower"),
    ("solver.solve_distinct.timecheck", "count", "lower"),
    ("solver.solve_distinct.probe", "count", "lower"),
    ("solver.timecheck_edges", "count", "lower"),
    ("solver.gate_skips", "count", "lower"),
    ("solver.gate_overestimate", "ratio", "lower"),
    ("induced.lip_s", "s", "lower"),
    ("induced.lip_calls", "count", "lower"),
    ("induced.ptfree_s", "s", "lower"),
    ("induced.ptfree_calls", "count", "lower"),
    ("induced.ptfree_found_ratio", "ratio", "higher"),
    ("generators.sample_s", "s", "lower"),
    ("generators.samples", "count", "lower"),
    ("generators.attempts_per_sample", "count", "lower"),
    ("generators.density_mean", "ratio", "lower"),
    ("gyarfas.analyze_s", "s", "lower"),
    ("gyarfas.analyze_states", "count", "lower"),
    ("gyarfas.cop_turn_s", "s", "lower"),
    ("gyarfas.cop_turn_calls", "count", "lower"),
    ("engine.play_s", "s", "lower"),
    ("engine.games", "count", "lower"),
    ("engine.cop_moves", "count", "lower"),
    ("robbers.move_s", "s", "lower"),
    ("robbers.move_calls", "count", "lower"),
    ("graphs.region_s", "s", "lower"),
    ("graphs.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
)


def package_modules(package) -> list:
    """The package and its submodules (private ones such as __main__ excluded)."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Wraps the layer functions of one package; `install` and `uninstall` bracket a run."""

    def __init__(self, package, cli_module):
        self.package = package
        self.cli = cli_module
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.solved: dict[tuple[int, int], object] = {}  # (id(graph), k) -> graph, kept alive
        self.moves_out: dict[int, dict] = {}  # solve span -> {cop tuple: joint moves}
        self.densities: list[float] = []
        self.estimate = 0  # estimate_solver_work's value for the next time-consistency solve
        self._patches: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = package_modules(self.package)
        for name in FUNCTIONS:
            owners = [m for m in modules if inspect.isfunction(m.__dict__.get(name))]
            if not owners:
                self.absent.append(name)
                continue
            wrappers: dict[int, object] = {}
            for mod in owners:
                original = mod.__dict__[name]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                self._patch(mod, name, wrappers[id(original)])
        self._patch(self.cli, "main", self._wrap("main", self.cli.main))
        for spec in METHODS:
            cls_name, meth = spec.split(".")
            classes = {id(c): c for m in modules for c in [m.__dict__.get(cls_name)] if inspect.isclass(c)}
            raw = [c.__dict__.get(meth) for c in classes.values()]
            if len(classes) != 1 or raw[0] is None:
                self.absent.append(spec)
                continue
            cls, attr = next(iter(classes.values())), raw[0]
            if isinstance(attr, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(spec, attr.__func__)))
            else:
                self._patch(cls, meth, self._wrap(spec, attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, original):
        spans, stack = self.spans, self.stack
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid][2:] = start, end
            if on_return is not None:
                on_return(sid, args, kwargs, result)
            return result

        return wrapper

    # -- counters from arguments and return values ----------------------

    def _caller(self, sid: int) -> str:
        parent = self.spans[sid][1]
        return SOLVE_CALLERS.get(self.spans[parent][0], "other") if parent >= 0 else "other"

    def _on_solve(self, sid, args, kwargs, result):
        g = args[0]
        k = args[1] if len(args) > 1 else kwargs["k"]
        caller = self._caller(sid)
        # A pair is one graph object (one input graph) and one k; repeats are
        # solves of a pair that an earlier call already solved.
        if (id(g), k) not in self.solved:
            self.solved[id(g), k] = g
            self.counts["solver.solve_distinct." + caller] += 1
        table = result[0]
        values = getattr(table, "values", None)
        self.counts["solver.states"] += len(values) if values is not None else 0
        moves = self.moves_out.pop(sid, {})
        if caller != "timecheck" or not isinstance(values, dict):
            return
        # Predecessor edges the solve relaxed: every valued robber-to-move
        # state was dequeued once and scanned its cop tuple's joint moves.
        # Timed as a tracer span so the caller's self time excludes it.
        start = perf_counter()
        edges = sum(moves.get(key[0], 0) for key in values if not key[2])
        self.counts["solver.timecheck_edges"] += edges
        self.counts["solver.gate_estimate_run"] += self.estimate
        self.spans.append(["tracer", self.spans[sid][1], start, perf_counter()])

    def _on_joint_cop_moves(self, sid, args, kwargs, result):
        self.counts["solver.joint_moves_out"] += len(result)
        parent = self.spans[sid][1]
        if parent >= 0:
            self.moves_out.setdefault(parent, {})[tuple(args[1])] = len(result)

    def _on_estimate_solver_work(self, sid, args, kwargs, result):
        self.estimate = result

    def _on_verify_theorem_bound(self, sid, args, kwargs, result):
        if getattr(result, "solver_skip_reason", None):
            self.counts["solver.gate_skips"] += 1

    def _on_is_pt_free(self, sid, args, kwargs, result):
        self.counts["induced.ptfree_found"] += bool(result[0])

    def _on_connected_ptfree_graph(self, sid, args, kwargs, result):
        pairs = result.n * (result.n - 1) // 2
        self.densities.append(result.m / pairs if pairs else 0.0)

    def _on_analyze_strategy(self, sid, args, kwargs, result):
        self.counts["gyarfas.analyze_states"] += getattr(result, "states_explored", 0)

    def _on_play(self, sid, args, kwargs, result):
        self.counts["engine.cop_moves"] += sum(
            type(ev).__name__ in ("CopPlacement", "CopMove") for ev in result.events
        )

    # -- metrics --------------------------------------------------------

    def metrics(self, bytes_out: int, untraced_s: float, traced_s: float) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        calls: Counter = Counter()
        solve_ms = []
        lip_s = cli_self_s = 0.0
        lip_calls = attempts = 0
        for i, (name, parent, start, end) in enumerate(spans):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "main":
                cli_self_s += dur - child[i]
            elif name == "solve":
                solve_ms.append(dur * 1000)
                caller = SOLVE_CALLERS.get(parent_name, "other")
                total["solve." + caller] += dur
                calls["solve." + caller] += 1
            elif name == "longest_induced_path_order" and parent_name != "is_pt_free":
                lip_s += dur
                lip_calls += 1
            elif name == "Graph.from_edges" and parent_name == "connected_ptfree_graph":
                attempts += 1
        c = self.counts
        samples = calls["connected_ptfree_graph"]
        out = {
            "solver.timecheck_s": total["solve.timecheck"],
            "solver.copnum_s": total["cop_number"],
            "solver.probe_s": total["probe_conjecture"],
            "solver.joint_moves_s": total["joint_cop_moves"],
            "solver.joint_moves_out": c["solver.joint_moves_out"],
            "solver.states": c["solver.states"],
            "solver.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
            "solver.solve_calls": calls["solve"],
            "solver.solve_distinct": len(self.solved),
            "solver.timecheck_edges": c["solver.timecheck_edges"],
            "solver.gate_skips": c["solver.gate_skips"],
            "solver.gate_overestimate": (
                c["solver.gate_estimate_run"] / c["solver.timecheck_edges"]
                if c["solver.timecheck_edges"] else 0.0
            ),
            "induced.lip_s": lip_s,
            "induced.lip_calls": lip_calls,
            "induced.ptfree_s": total["is_pt_free"],
            "induced.ptfree_calls": calls["is_pt_free"],
            "induced.ptfree_found_ratio": (
                c["induced.ptfree_found"] / calls["is_pt_free"] if calls["is_pt_free"] else 0.0
            ),
            "generators.sample_s": total["connected_ptfree_graph"],
            "generators.samples": samples,
            "generators.attempts_per_sample": attempts / samples if samples else 0.0,
            "generators.density_mean": statistics.fmean(self.densities) if self.densities else 0.0,
            "gyarfas.analyze_s": total["analyze_strategy"],
            "gyarfas.analyze_states": c["gyarfas.analyze_states"],
            "gyarfas.cop_turn_s": total["cop_turn"],
            "gyarfas.cop_turn_calls": calls["cop_turn"],
            "engine.play_s": total["play"],
            "engine.games": calls["play"],
            "engine.cop_moves": c["engine.cop_moves"],
            "robbers.move_s": sum(total[m] for m in ROBBER),
            "robbers.move_calls": sum(calls[m] for m in ROBBER),
            "graphs.region_s": sum(total[f] for f in REGION),
            "graphs.parse_s": sum(total[f] for f in PARSE),
            "cli.self_s": cli_self_s,
            "cli.calls": calls["main"],
            "cli.bytes_out": bytes_out,
            "trace.spans": len(spans),
            "trace_overhead_share": traced_s / untraced_s,
        }
        for caller in SOLVE_CALLERS.values():
            out[f"solver.solve_calls.{caller}"] = calls["solve." + caller]
            out[f"solver.solve_distinct.{caller}"] = c["solver.solve_distinct." + caller]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")

