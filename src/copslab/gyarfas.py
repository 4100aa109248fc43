"""Cop strategy that hunts along a growing induced path.

With t-2 cops on a connected graph that has no induced t-vertex path, the
strategy guarantees capture within t-1 cop moves (the placement counts as
move 1). All cops start stacked on an anchor v0. Each round either some
anchor's cop can step onto the robber, or the stack's tip v_i advances to a
new anchor toward the robber's territory: the component of G - N[v_0..v_i]
that holds him. The territory is derived from the anchor path and the robber
each turn, so the anchor path is the strategy's whole state. One cop stays
behind on every anchor passed.

Because each new anchor lies outside the closed neighborhoods of the anchors
before the tip, the anchors form an induced path; once t-2 anchors stand and
the robber still avoids all their closed neighborhoods, those anchors plus a
shortest path from the tip to the robber exhibit an induced path on t
vertices - so on inputs that are not actually free of such paths the
strategy fails loudly with that certificate instead of ever returning a
silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import GameState, StrategyError
from .graphs import Graph, distances_within, shortest_path_within
from .induced import verify_induced_path


class NotPtFreeError(StrategyError):
    """The input graph contains an induced path on t vertices; play cannot continue.

    `certificate` is that path, verifiable with `verify_induced_path`.
    """

    def __init__(self, t: int, certificate: tuple[int, ...]):
        super().__init__(f"graph contains an induced path on {t} vertices", certificate)
        self.t = t


def cop_positions(t: int, path: tuple[int, ...]) -> tuple[int, ...]:
    """Where the t-2 cops stand: one on each anchor, and every cop not yet parked on the tip."""
    return path + path[-1:] * (t - 2 - len(path))


def _beyond(g: Graph, anchors: tuple[int, ...]) -> set[int]:
    """The vertices outside every anchor's closed neighborhood."""
    return set(range(g.n)).difference(anchors, *(g.adj[a] for a in anchors))


def initial_placement(g: Graph, t: int, v0_rule: str = "lowest") -> tuple[int, ...]:
    """The anchor path (v0,): all t-2 cops stacked on v0 (cop move 1).

    v0 is the lowest-index vertex, or with v0_rule="max_degree" a
    highest-degree vertex (ties to the lowest index).
    """
    if t < 3:
        raise ValueError(f"t must be >= 3, got {t}")
    if g.n == 0 or not g.is_connected():
        raise ValueError("strategy requires a connected, non-empty graph")
    if v0_rule == "lowest":
        return (0,)
    if v0_rule == "max_degree":
        return (max(range(g.n), key=lambda v: (g.degree(v), -v)),)
    raise ValueError(f"unknown v0_rule {v0_rule!r}")


def cop_turn(
    g: Graph, t: int, path: tuple[int, ...], robber: int
) -> tuple[tuple[int, ...], tuple[int, ...], frozenset[int] | None]:
    """One cops' turn given the robber's vertex: (cop positions, anchor path, territory).

    Capture beats advancing: if the robber stands in the closed neighborhood
    of any anchor, the lowest such anchor's cop steps onto him, the path stays
    and the territory is None. Otherwise the territory is the component of
    G - N[path] that holds the robber, and the tip advances to its lowest
    neighbor outside the earlier anchors' closed neighborhoods that touches
    the territory. Raises NotPtFreeError when the path is complete yet the
    robber escaped every anchor's neighborhood (impossible on truly path-free
    inputs).
    """
    # Opportunistic capture: only ever shortens the game.
    for j, anchor in enumerate(path):
        if robber == anchor or g.has_edge(anchor, robber):
            positions = cop_positions(t, path)
            return positions[:j] + (robber,) + positions[j + 1:], path, None

    if len(path) == t - 2:
        raise NotPtFreeError(t, _escape_certificate(g, t, path, robber))

    tip = path[-1]
    earlier = _beyond(g, path[:-1])
    territory = frozenset(distances_within(g, [robber], earlier - g.adj[tip] - {tip}))
    nxt = min((w for w in g.adj[tip] & earlier if g.adj[w] & territory), default=None)
    if nxt is None:
        # The territory is a component of G - N[v_0..v_(i-1)] next to the tip.
        raise AssertionError(
            f"invariant violation: no next anchor from tip {tip} toward "
            f"component {sorted(territory)}"
        )
    path += (nxt,)
    return cop_positions(t, path), path, territory


def _escape_certificate(g: Graph, t: int, path: tuple[int, ...], robber: int) -> tuple[int, ...]:
    # Anchors plus a shortest path from the tip to the robber through the
    # vertices outside the earlier anchors' neighborhoods: induced, and at least
    # t vertices long since the robber is two or more steps away.
    tip = path[-1]
    tail = shortest_path_within(g, _beyond(g, path[:-1]) | {tip}, tip, robber)
    assert tail is not None and len(tail) >= 3
    cert = (list(path[:-1]) + tail)[:t]
    assert verify_induced_path(g, cert), f"bad escape certificate {cert}"
    return tuple(cert)


class GyarfasCop:
    """Engine-facing adapter; owns one game's anchor path and its strategy_state records."""

    def __init__(self, t: int, v0_rule: str = "lowest"):
        self.t = t
        self.v0_rule = v0_rule
        self.path: tuple[int, ...] = ()
        self.records: list[dict] = []

    def place(self, g: Graph) -> tuple[int, ...]:
        self.path = initial_placement(g, self.t, self.v0_rule)
        self.records = []
        return self._record("advancing", None)

    def move(self, g: Graph, state: GameState) -> tuple[int, ...]:
        positions, self.path, territory = cop_turn(g, self.t, self.path, state.robber)
        if territory is None:  # a capture, recorded with the positions it started from
            self._record("capturing", self.records[-1]["territory"])
        else:
            self._record("advancing", sorted(territory))
        return positions

    def _record(self, phase: str, territory: list[int] | None) -> tuple[int, ...]:
        positions = cop_positions(self.t, self.path)
        self.records.append({"type": "strategy_state", "phase": phase, "path": list(self.path),
                             "territory": territory, "cop_positions": list(positions)})
        return positions


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
    (deterministic) cop strategy, memoizing on (anchor path, robber), the
    whole state of a cops' turn. Either every line ends in capture - then
    max_cop_moves is the exact worst-case count, and on genuinely path-free
    inputs it is at most t-1 - or some line uncovers an induced t-vertex path,
    which is returned as a certificate.
    """
    path0 = initial_placement(g, t, v0_rule)
    memo: dict[tuple, int] = {}
    paths: dict[tuple, tuple] = {}  # one copy of each anchor path, which its keys share
    # Depth first over frames [key, cops' anchor path, robber replies left, most cop
    # moves so far], kept in a list rather than on the call stack, so no game is too
    # long to search. The bottom frame is the placement (cop move 1); its replies
    # are the robber's starting vertices. A frame starts at 1, the robber's forced
    # suicide when every reply is occupied.
    stack = [[None, path0, iter(sorted(set(range(g.n)) - set(path0))), 1]]
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
            key = (frame[1], r)
            value = memo.get(key)
            if value is None:
                moves, nxt, _ = cop_turn(g, t, frame[1], r)
                if r in moves:
                    memo[key] = value = 1
                else:
                    nxt = paths.setdefault(nxt, nxt)
                    stack.append([key, nxt, iter(sorted(({r} | g.adj[r]) - set(moves))), 1])
    except NotPtFreeError as exc:
        return StrategyAnalysis(t, False, None, exc.certificate, len(memo))
    return StrategyAnalysis(t, True, value, None, len(memo))
