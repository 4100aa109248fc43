"""Cop strategy that hunts along a growing induced path.

With t-2 cops on a connected graph that has no induced t-vertex path, the
strategy guarantees capture within t-1 cop moves (the placement counts as
move 1). All cops start stacked on an anchor v0. Each round either some
anchor's cop can step onto the robber, or the stack's tip advances to a new
anchor chosen inside the robber's shrinking territory: the component of the
old territory minus the tip's closed neighborhood that still contains the
robber. One cop stays behind on every anchor passed.

Because each new anchor lies inside the previous territory, the anchors form
an induced path; once t-2 anchors stand and the robber still avoids all their
closed neighborhoods, those anchors plus a shortest path into the territory
exhibit an induced path on t vertices - so on inputs that are not actually
free of such paths the strategy fails loudly with that certificate instead of
ever returning a silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import GameState, StrategyError
from .graphs import Graph, distances_within, shortest_path_within
from .induced import verify_induced_path

ADVANCING = "advancing"
CAPTURING = "capturing"


class NotPtFreeError(StrategyError):
    """The input graph contains an induced path on t vertices; play cannot continue.

    `certificate` is that path, verifiable with `verify_induced_path`.
    """

    def __init__(self, t: int, certificate: tuple[int, ...]):
        super().__init__(f"graph contains an induced path on {t} vertices", certificate)
        self.t = t


@dataclass(frozen=True)
class GyarfasState:
    """Live strategy state: anchors v_0..v_i, current territory, phase.

    territory is None until the first advance (implicitly: everything beyond
    N[v0]). Cop j stands on anchor min(j, i); the tip hosts all not-yet-parked
    cops.
    """

    t: int
    path: tuple[int, ...]
    territory: frozenset[int] | None
    phase: str

    @property
    def cop_count(self) -> int:
        return self.t - 2

    def cop_positions(self) -> tuple[int, ...]:
        tip = len(self.path) - 1
        return tuple(self.path[min(j, tip)] for j in range(self.cop_count))


def initial_placement(
    g: Graph, t: int, v0_rule: str = "lowest"
) -> tuple[tuple[int, ...], GyarfasState]:
    """Stack all t-2 cops on the starting anchor v0 (cop move 1).

    v0 is the lowest-index vertex, or with v0_rule="max_degree" a
    highest-degree vertex (ties to the lowest index).
    """
    if t < 3:
        raise ValueError(f"t must be >= 3, got {t}")
    if g.n == 0 or not g.is_connected():
        raise ValueError("strategy requires a connected, non-empty graph")
    if v0_rule == "lowest":
        v0 = 0
    elif v0_rule == "max_degree":
        v0 = max(range(g.n), key=lambda v: (g.degree(v), -v))
    else:
        raise ValueError(f"unknown v0_rule {v0_rule!r}")
    state = GyarfasState(t=t, path=(v0,), territory=None, phase=ADVANCING)
    return state.cop_positions(), state


def cop_turn(
    g: Graph, state: GyarfasState, robber: int
) -> tuple[tuple[int, ...], GyarfasState]:
    """One cops' turn given the robber's current vertex.

    Capture beats advancing: if the robber stands in the closed neighborhood
    of any anchor, the lowest such anchor's cop steps onto him. Otherwise the
    robber is inside the territory and the tip advances. Raises
    NotPtFreeError when the path is complete yet the robber escaped every
    anchor's neighborhood (impossible on truly path-free inputs).
    """
    positions = state.cop_positions()

    # Opportunistic capture: only ever shortens the game.
    for j, anchor in enumerate(state.path):
        if robber == anchor or g.has_edge(anchor, robber):
            new_positions = list(positions)
            new_positions[j] = robber
            return tuple(new_positions), replace(state, phase=CAPTURING)

    if len(state.path) == state.t - 2:
        raise NotPtFreeError(state.t, _escape_certificate(g, state, robber))

    tip = state.path[-1]
    territory = frozenset(range(g.n)) if state.territory is None else state.territory
    if robber not in territory:
        raise AssertionError(
            f"invariant violation: robber {robber} outside territory and all "
            f"anchor neighborhoods (path {state.path})"
        )
    new_territory = frozenset(distances_within(g, [robber], territory - g.adj[tip] - {tip}))
    viable = [w for w in sorted(g.adj[tip] & territory) if g.adj[w] & new_territory]
    if not viable:
        # Connectivity of the territory guarantees a viable next anchor exists.
        raise AssertionError(
            f"invariant violation: no next anchor from tip {tip} toward "
            f"component {sorted(new_territory)}"
        )
    new_state = GyarfasState(
        t=state.t,
        path=state.path + (viable[0],),
        territory=new_territory,
        phase=ADVANCING,
    )
    return new_state.cop_positions(), new_state


def _escape_certificate(g: Graph, state: GyarfasState, robber: int) -> tuple[int, ...]:
    # Anchors plus a shortest path from the tip through the territory to the
    # robber: induced (territory avoids every earlier anchor's neighborhood)
    # and at least t vertices long since the robber is two or more steps away.
    tip = state.path[-1]
    if state.territory is None:
        region = frozenset(range(g.n))
    else:
        region = state.territory | {tip}
    tail = shortest_path_within(g, region, tip, robber)
    assert tail is not None and len(tail) >= 3
    cert = list(state.path[:-1]) + tail
    cert = cert[: state.t]
    assert verify_induced_path(g, cert), f"bad escape certificate {cert}"
    return tuple(cert)


class GyarfasCop:
    """Engine-facing adapter; owns one game's strategy state and its history."""

    def __init__(self, t: int, v0_rule: str = "lowest"):
        self.t = t
        self.v0_rule = v0_rule
        self.state: GyarfasState | None = None
        self.history: list[GyarfasState] = []

    def place(self, g: Graph) -> tuple[int, ...]:
        positions, self.state = initial_placement(g, self.t, self.v0_rule)
        self.history = [self.state]
        return positions

    def move(self, g: Graph, state: GameState) -> tuple[int, ...]:
        assert self.state is not None
        positions, self.state = cop_turn(g, self.state, state.robber)
        self.history.append(self.state)
        return positions

    def state_records(self) -> list[dict]:
        """Audit snapshots of the strategy state, JSONL-ready."""
        out = []
        for st in self.history:
            out.append(
                {
                    "type": "strategy_state",
                    "phase": st.phase,
                    "path": list(st.path),
                    "territory": sorted(st.territory) if st.territory is not None else None,
                    "cop_positions": list(st.cop_positions()),
                }
            )
        return out


@dataclass(frozen=True)
class StrategyAnalysis:
    """Exhaustive worst case of the strategy over every legal robber."""

    t: int
    captured_all: bool
    max_cop_moves: int | None
    certificate: tuple[int, ...] | None
    states_explored: int


def analyze_strategy(g: Graph, t: int, v0_rule: str = "lowest") -> StrategyAnalysis:
    """Max capture time of the strategy against all robber play, by full search.

    Explores every robber placement and every robber reply against the
    (deterministic) cop strategy, memoizing on (path, robber): a robber next
    to an anchor is captured whatever the territory, and one that is not lies
    in the component of G - N[v_0..v_(i-1)] that holds him, which is the
    territory (each territory is a component of the one before less N[tip]).
    Either every line ends in capture - then max_cop_moves is the exact
    worst-case count, and on genuinely path-free inputs it is at most t-1 -
    or some line uncovers an induced t-vertex path, which is returned as a
    certificate.
    """
    positions0, state0 = initial_placement(g, t, v0_rule)
    memo: dict[tuple, int] = {}
    paths: dict[tuple, tuple] = {}  # one copy of each anchor path, which its keys share
    # Depth first over frames [key, cops' next state, robber replies left, most cop
    # moves so far], kept in a list rather than on the call stack, so no game is too
    # long to search. The bottom frame is the placement (cop move 1); its replies
    # are the robber's starting vertices. A frame starts at 1, the robber's forced
    # suicide when every reply is occupied.
    stack = [[None, state0, iter(sorted(set(range(g.n)) - set(positions0))), 1]]
    value = None  # cop moves still needed from the state just searched, cops to move
    try:
        while stack:
            frame = stack[-1]
            if value is not None:
                frame[3] = max(frame[3], 1 + value)
            r = next(frame[2], None)
            if r is None:  # every reply searched
                value = stack.pop()[3]
                if stack:
                    memo[frame[0]] = value
                continue
            key = (paths.setdefault(frame[1].path, frame[1].path), r)
            value = memo.get(key)
            if value is None:
                moves, nxt = cop_turn(g, frame[1], r)
                if r in moves:
                    memo[key] = value = 1
                else:
                    stack.append([key, nxt, iter(sorted(({r} | g.adj[r]) - set(moves))), 1])
    except NotPtFreeError as exc:
        return StrategyAnalysis(t, False, None, exc.certificate, len(memo))
    return StrategyAnalysis(t, True, value, None, len(memo))
