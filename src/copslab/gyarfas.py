"""Cop strategy that hunts along a growing induced path.

With t-2 cops on a connected graph that has no induced t-vertex path, the
strategy captures within t-1 cop moves (the placement is move 1). All cops
start stacked on an anchor v0. Each round either some anchor's cop steps onto
the robber, or the stack's tip v_i advances to a new anchor toward the
robber's territory, the component of G - N[v_0..v_i] that holds him, leaving
one cop on the anchor passed. The paths met form a tree from (v0,); each node,
an `AnchorPath`, fixes and keeps its territories and the next anchor toward each.

The anchors form an induced path, since each new one lies outside the closed
neighborhoods of those before the tip. Once t-2 anchors stand and the robber
still avoids their closed neighborhoods, the anchors plus a shortest path from
the tip to the robber are an induced t-vertex path: on inputs that are not
free of such paths the strategy fails loudly with that certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import GameState, StrategyError
from .graphs import Graph, flood, members, shortest_path_within
from .induced import verify_induced_path


class NotPtFreeError(StrategyError):
    """The graph has an induced path on t vertices, the `certificate`; play cannot continue."""

    def __init__(self, t: int, certificate: tuple[int, ...]):
        super().__init__(f"graph contains an induced path on {t} vertices", certificate)
        self.t = t


def cop_positions(t: int, path: tuple[int, ...]) -> tuple[int, ...]:
    """Where the t-2 cops stand: one on each anchor, and every cop not yet parked on the tip."""
    return path + path[-1:] * (t - 2 - len(path))


def initial_placement(g: Graph, t: int, v0_rule: str = "lowest") -> tuple[int, ...]:
    """The anchor path (v0,), all t-2 cops stacked on v0 (cop move 1): v0 is vertex 0, or
    with v0_rule="max_degree" the lowest-index vertex of highest degree."""
    if t < 3:
        raise ValueError(f"t must be >= 3, got {t}")
    if g.n == 0 or not g.is_connected():
        raise ValueError("strategy requires a connected, non-empty graph")
    if v0_rule == "lowest":
        return (0,)
    if v0_rule == "max_degree":
        return (max(range(g.n), key=lambda v: (g.degree(v), -v)),)
    raise ValueError(f"unknown v0_rule {v0_rule!r}")


class AnchorPath:
    """A node of the anchor-path tree: the path, the masks of N[path[:-1]] and N[path],
    and each territory met, as a mask, with the node its next anchor leads to."""

    __slots__ = ("path", "before", "reach", "territories")

    def __init__(self, g: Graph, path: tuple[int, ...], before: int = 0):
        self.path, self.before = path, before
        self.reach = before | g.closed_masks[path[-1]]
        self.territories: list[tuple[int, AnchorPath]] = []


def cop_turn(g: Graph, t: int, node: AnchorPath, robber: int) -> tuple[AnchorPath, int | None]:
    """One cops' turn given the robber's vertex: (anchor path node, territory mask).

    Capture beats advancing: if the robber is in the closed neighborhood of an
    anchor, the node stays and the territory is None (the lowest such anchor's
    cop steps onto him). Otherwise the territory is the robber's component of
    G - N[path], and the tip advances to its lowest neighbor outside the
    earlier anchors' closed neighborhoods that touches the territory. Raises
    NotPtFreeError when the path is complete yet the robber escaped every
    anchor's neighborhood (impossible on truly path-free inputs). Each territory
    is flooded once, and territories toward one next anchor share its node.
    """
    if node.reach >> robber & 1:  # opportunistic capture: only ever shortens the game
        return node, None
    if len(node.path) == t - 2:
        raise NotPtFreeError(t, _escape_certificate(g, t, node.path, robber, node.before))
    for territory, nxt in node.territories:
        if territory >> robber & 1:
            return nxt, territory
    territory, near = flood(g.nbr_masks, robber, node.reach)
    ahead = g.nbr_masks[node.path[-1]] & near & ~node.before
    if not ahead:  # the territory is a component of G - N[v_0..v_(i-1)] next to the tip
        raise AssertionError(f"invariant violation: no next anchor from tip {node.path[-1]} "
                             f"toward component {territory:#x}")
    tip = (ahead & -ahead).bit_length() - 1
    nxt = next((n for _, n in node.territories if n.path[-1] == tip), None)
    node.territories.append((territory, nxt or AnchorPath(g, node.path + (tip,), node.reach)))
    return node.territories[-1][1], territory


def _escape_certificate(g: Graph, t: int, path: tuple[int, ...], robber: int, before: int) -> tuple[int, ...]:
    # The earlier anchors, then a shortest tip-robber path outside their N[]: induced, >= t vertices.
    tip = path[-1]
    tail = shortest_path_within(g, ~before | 1 << tip, tip, robber)
    assert tail is not None and len(tail) >= 3
    cert = (list(path[:-1]) + tail)[:t]
    assert verify_induced_path(g, cert), f"bad escape certificate {cert}"
    return tuple(cert)


class GyarfasCop:
    """Engine-facing adapter owning one game's anchor-path node and strategy_state records."""

    def __init__(self, t: int, v0_rule: str = "lowest"):
        self.t = t
        self.v0_rule = v0_rule
        self.node: AnchorPath | None = None
        self.records: list[dict] = []

    def place(self, g: Graph) -> tuple[int, ...]:
        self.node = AnchorPath(g, initial_placement(g, self.t, self.v0_rule))
        self.records = []
        return self._record("advancing", None)

    def move(self, g: Graph, state: GameState) -> tuple[int, ...]:
        self.node, territory = cop_turn(g, self.t, self.node, state.robber)
        if territory is not None:
            return self._record("advancing", list(members(territory)))
        # a capture, recorded with the positions it starts from; the lowest anchor whose N[] holds him moves
        positions = self._record("capturing", self.records[-1]["territory"])
        j = next(j for j, a in enumerate(self.node.path) if g.closed_masks[a] >> state.robber & 1)
        return positions[:j] + (state.robber,) + positions[j + 1:]

    def _record(self, phase: str, territory: list[int] | None) -> tuple[int, ...]:
        positions = cop_positions(self.t, self.node.path)
        self.records.append({"type": "strategy_state", "phase": phase, "path": list(self.node.path),
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

    Explores every robber placement and reply against the (deterministic) cop
    strategy, memoizing on (anchor path node, robber), the whole state of a cops'
    turn, hashed by the node's identity. Either every line ends in capture - then
    max_cop_moves is the exact worst case, at most t-1 on path-free inputs - or
    some line uncovers an induced t-vertex path, which is returned as a certificate.
    """
    root = AnchorPath(g, initial_placement(g, t, v0_rule))
    memo: dict[tuple, int] = {}
    # Depth first over frames [key, cops' anchor path node, robber replies left, most cop
    # moves so far], kept in a list, not on the call stack, so no game is too long to
    # search. The bottom frame is the placement (cop move 1), replied to by the robber's
    # start. A frame starts at 1, the robber's forced suicide if every reply is occupied.
    stack = [[None, root, iter(sorted(set(range(g.n)) - set(root.path))), 1]]
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
                nxt, territory = cop_turn(g, t, frame[1], r)
                if territory is None:  # a capture
                    memo[key] = value = 1
                else:  # r is outside N[path], so of the cops' anchors only the new tip can be in N[r]
                    stack.append([key, nxt, members(g.closed_masks[r] & ~(1 << nxt.path[-1])), 1])
    except NotPtFreeError as exc:
        return StrategyAnalysis(t, False, None, exc.certificate, len(memo))
    return StrategyAnalysis(t, True, value, None, len(memo))
