"""Game referee: enforces the cops-and-robbers rules and records full traces.

Rules of play: the cops pick starting vertices, then the robber picks one
knowing where the cops stand, then the sides alternate turns starting with
the cops. On its turn each piece stays put or moves along one edge. The cops
win the moment any cop occupies the robber's vertex.

Move counting: the initial cop placement is cop move 1. A capture after the
robber steps onto a cop is charged to the preceding cop move.

Trace format: `GameTrace.events` holds one JSON-ready dict per event, the
records that `simulate` prints between its header and its outcome, keyed by
"type":

  cop_placement     positions, cop_move (always 1)
  robber_placement  vertex
  cop_move          steps (one [from, to] per cop), cop_move
  robber_move       from, to
  capture           vertex, cop (the capturing cop's index), cop_move
  illegal_action    side ("cops" or "robber"), detail
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .graphs import Graph, encode_graph6

CAPTURED = "captured"
ROBBER_SURVIVED = "robber_survived"
STRATEGY_FAILURE = "strategy_failure"


class StrategyError(Exception):
    """Raised by a strategy that must abort the game (e.g. a failed precondition).

    The engine converts it into a STRATEGY_FAILURE outcome, preserving
    `reason` and, when present, `certificate`.
    """

    def __init__(self, reason: str, certificate: tuple[int, ...] | None = None):
        super().__init__(reason)
        self.reason = reason
        self.certificate = certificate


@dataclass(frozen=True)
class GameState:
    """Snapshot handed to a strategy's move: full information, immutable."""

    cops: tuple[int, ...]
    robber: int


class CopStrategy(Protocol):
    def place(self, g: Graph) -> tuple[int, ...]: ...

    def move(self, g: Graph, state: GameState) -> tuple[int, ...]: ...


class RobberStrategy(Protocol):
    def place(self, g: Graph, cops: tuple[int, ...]) -> int: ...

    def move(self, g: Graph, state: GameState) -> int: ...


@dataclass(frozen=True)
class Outcome:
    result: str  # CAPTURED | ROBBER_SURVIVED | STRATEGY_FAILURE
    cop_moves: int | None = None
    reason: str | None = None
    certificate: tuple[int, ...] | None = None


@dataclass
class GameTrace:
    graph: Graph
    t: int | None
    events: list[dict] = field(default_factory=list)
    outcome: Outcome | None = None

    def to_records(self) -> list[dict]:
        """JSONL-ready dicts: one header, one per event, one outcome."""
        g, o = self.graph, self.outcome
        header = {
            "type": "header",
            "n": g.n,
            "m": g.m,
            "graph6": encode_graph6(g) if g.n <= 62 else None,
            "t": self.t,
        }
        out = {"type": "outcome", "result": o.result, "cop_moves": o.cop_moves, "reason": o.reason,
               "certificate": None if o.certificate is None else list(o.certificate)}
        return [header, *self.events, {key: v for key, v in out.items() if v is not None}]


def play(g: Graph, cop: CopStrategy, robber: RobberStrategy) -> GameTrace:
    """Play one full game and return its trace.

    The graph must be connected. Capture is declared immediately whenever a
    cop and the robber share a vertex: after a cop move, after the robber
    places onto a cop, or after the robber steps onto a cop. Without capture
    the game stops after 4n cop moves, on an n-vertex graph, with outcome
    ROBBER_SURVIVED. An illegal strategy action yields STRATEGY_FAILURE with
    the offending event in the trace, and a StrategyError raised by either
    side yields STRATEGY_FAILURE with its reason and certificate.
    """
    if g.n == 0 or not g.is_connected():
        raise ValueError("play requires a connected, non-empty graph")
    trace = GameTrace(graph=g, t=getattr(cop, "t", None))
    try:
        trace.outcome = _referee(g, cop, robber, trace.events)
    except StrategyError as exc:
        trace.outcome = Outcome(STRATEGY_FAILURE, reason=exc.reason, certificate=exc.certificate)
    return trace


def _referee(g: Graph, cop: CopStrategy, robber: RobberStrategy, events: list[dict]) -> Outcome:
    """Alternate cop and robber turns, placements first, appending each event."""

    def illegal(side: str, detail: str) -> Outcome:
        events.append({"type": "illegal_action", "side": side, "detail": detail})
        return Outcome(STRATEGY_FAILURE, reason=detail)

    cops: tuple[int, ...] = ()
    r: int | None = None
    cop_moves = 0
    while cop_moves < 4 * g.n:
        if cop_moves == 0:
            new_cops = tuple(cop.place(g))
            if not new_cops or any(not 0 <= c < g.n for c in new_cops):
                return illegal("cops", f"illegal cop placement {new_cops}")
            events.append({"type": "cop_placement", "positions": list(new_cops), "cop_move": 1})
        else:
            new_cops = tuple(cop.move(g, GameState(cops, r)))
            if len(new_cops) != len(cops):
                return illegal("cops", f"cop count changed {len(cops)} -> {len(new_cops)}")
            for i, (a, b) in enumerate(zip(cops, new_cops)):
                if not 0 <= b < g.n or (a != b and not g.has_edge(a, b)):
                    return illegal("cops", f"cop {i} illegal step {a} -> {b}")
            steps = [[a, b] for a, b in zip(cops, new_cops)]
            events.append({"type": "cop_move", "steps": steps, "cop_move": cop_moves + 1})
        cops = new_cops
        cop_moves += 1
        if r in cops:
            return _capture(events, cops, r, cop_moves)

        if r is None:
            r = robber.place(g, cops)
            if not 0 <= r < g.n:
                return illegal("robber", f"illegal robber placement {r}")
            events.append({"type": "robber_placement", "vertex": r})
        else:
            r_new = robber.move(g, GameState(cops, r))
            if not 0 <= r_new < g.n or (r_new != r and not g.has_edge(r, r_new)):
                return illegal("robber", f"robber illegal step {r} -> {r_new}")
            events.append({"type": "robber_move", "from": r, "to": r_new})
            r = r_new
        if r in cops:
            return _capture(events, cops, r, cop_moves)
    return Outcome(ROBBER_SURVIVED, cop_moves=cop_moves)


def _capture(events: list[dict], cops: tuple[int, ...], r: int, cop_moves: int) -> Outcome:
    events.append({"type": "capture", "vertex": r, "cop": cops.index(r), "cop_move": cop_moves})
    return Outcome(CAPTURED, cop_moves=cop_moves)


def trace_to_dot(trace: GameTrace) -> str:
    """Render the trace as DOT: the graph with per-move occupancy annotations.

    Vertex labels accumulate tags like c0@2 (cop 0 arrived on cop move 2) and
    r@3 (robber present after the cop move numbered 3).
    """
    g = trace.graph
    tags: dict[int, list[str]] = {v: [] for v in range(g.n)}
    last_cop_move = 1
    for ev in trace.events:
        kind = ev["type"]
        if kind == "cop_placement":
            for i, v in enumerate(ev["positions"]):
                tags[v].append(f"c{i}@1")
        elif kind == "robber_placement":
            tags[ev["vertex"]].append("r@1")
        elif kind == "cop_move":
            last_cop_move = ev["cop_move"]
            for i, (a, b) in enumerate(ev["steps"]):
                if a != b:
                    tags[b].append(f"c{i}@{last_cop_move}")
        elif kind == "robber_move":
            tags[ev["to"]].append(f"r@{last_cop_move}")
        elif kind == "capture":
            tags[ev["vertex"]].append(f"capture@{ev['cop_move']}")
    lines = ["graph trace {"]
    for v in range(g.n):
        label = str(v) if not tags[v] else f"{v} | {' '.join(tags[v])}"
        lines.append(f'  {v} [label="{label}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
