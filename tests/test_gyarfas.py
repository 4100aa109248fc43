from __future__ import annotations

import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copslab.corpus import theorem_corpus
from copslab.engine import CAPTURED, STRATEGY_FAILURE, GameState, play
from copslab.generators import (
    complete_graph,
    connected_ptfree_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from copslab.graphs import Graph, distances_within
from copslab.gyarfas import (
    AnchorPath,
    GyarfasCop,
    NotPtFreeError,
    analyze_strategy,
    cop_positions,
    cop_turn,
    initial_placement,
)
from copslab.induced import longest_induced_path_order, verify_induced_path
from copslab.robbers import GreedyRobber, RandomRobber

from conftest import ScriptedRobber, neighbours, sparse_graphs


class TestInitialPlacement:
    def test_c5_t5_stacks_three_cops(self):
        path = initial_placement(cycle_graph(5), 5)
        assert path == (0,) and cop_positions(5, path) == (0, 0, 0)
        cop = GyarfasCop(5)
        assert cop.place(cycle_graph(5)) == (0, 0, 0)
        assert cop.records == [{"type": "strategy_state", "phase": "advancing", "path": [0],
                                "territory": None, "cop_positions": [0, 0, 0]}]

    def test_k4_t3_single_cop(self):
        assert cop_positions(3, initial_placement(complete_graph(4), 3)) == (0,)

    def test_p4_t4_two_cops(self):
        assert cop_positions(4, initial_placement(path_graph(4), 4)) == (0, 0)

    def test_max_degree_rule(self):
        assert initial_placement(path_graph(3), 4, v0_rule="max_degree") == (1,)

    def test_t_below_three_rejected(self):
        with pytest.raises(ValueError):
            initial_placement(path_graph(3), 2)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            initial_placement(Graph.from_edges(4, [(0, 1), (2, 3)]), 4)


class TestGoldenTrace:
    def test_c5_t5_vs_greedy(self):
        trace = play(cycle_graph(5), GyarfasCop(5), GreedyRobber())
        records = trace.to_records()
        assert [r for r in records if r["type"] != "header"] == [
            {"type": "cop_placement", "positions": [0, 0, 0], "cop_move": 1},
            {"type": "robber_placement", "vertex": 2},
            {"type": "cop_move", "steps": [[0, 0], [0, 1], [0, 1]], "cop_move": 2},
            {"type": "robber_move", "from": 2, "to": 3},
            {"type": "cop_move", "steps": [[0, 0], [1, 1], [1, 2]], "cop_move": 3},
            {"type": "robber_move", "from": 3, "to": 3},
            {"type": "cop_move", "steps": [[0, 0], [1, 1], [2, 3]], "cop_move": 4},
            {"type": "capture", "vertex": 3, "cop": 2, "cop_move": 4},
            {"type": "outcome", "result": "captured", "cop_moves": 4},
        ]


class TestCaptureBound:
    def test_c5_worst_case_is_t_minus_one(self):
        a = analyze_strategy(cycle_graph(5), 5)
        assert a.captured_all and a.max_cop_moves == 4

    def test_clique_t3_capture_on_move_two(self):
        for n in (2, 4, 7):
            a = analyze_strategy(complete_graph(n), 3)
            assert a.captured_all and a.max_cop_moves == 2

    def test_c4_t4(self):
        a = analyze_strategy(cycle_graph(4), 4)
        assert a.captured_all and a.max_cop_moves == 3

    @pytest.mark.parametrize("n", range(4, 13))
    def test_bound_is_tight_on_cycles(self, n):
        # C_n forces the full approach: worst case exactly t-1 moves
        a = analyze_strategy(cycle_graph(n), n)
        assert a.captured_all and a.max_cop_moves == n - 1

    def test_stars_capture_in_two(self):
        a = analyze_strategy(star_graph(7), 4)
        assert a.captured_all and a.max_cop_moves == 2

    def test_single_vertex(self):
        a = analyze_strategy(path_graph(1), 3)
        assert a.captured_all and a.max_cop_moves == 1

    def test_long_path_needs_no_recursion(self):
        # a game on P_150 lasts 150 cop moves, deeper than the headroom left here
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            a = analyze_strategy(path_graph(150), 151)
        finally:
            sys.setrecursionlimit(limit)
        assert (a.captured_all, a.max_cop_moves, a.states_explored) == (True, 150, 11175)

    def test_robber_placed_in_first_neighborhood(self):
        trace = play(cycle_graph(5), GyarfasCop(5), ScriptedRobber(1))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves == 2

    def test_c5_vs_table_optimal_robber(self):
        from copslab.robbers import OptimalRobber
        from copslab.solver import solve

        g = cycle_graph(5)
        table, _ = solve(g, 3)
        trace = play(g, GyarfasCop(5), OptimalRobber(table))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves <= 4

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_seeded_ptfree_graphs_capture_within_bound(self, seed):
        g = connected_ptfree_graph(8, 5, seed)
        a = analyze_strategy(g, 5)
        assert a.captured_all
        assert a.max_cop_moves <= 4

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_worst_case_dominates_realized_games(self, seed):
        # the exhaustive maximum can never be beaten by a concrete robber
        g = connected_ptfree_graph(8, 5, seed)
        a = analyze_strategy(g, 5)
        for robber in (GreedyRobber(), RandomRobber(seed), RandomRobber(seed + 1)):
            trace = play(g, GyarfasCop(5), robber)
            assert trace.outcome.result == CAPTURED
            assert trace.outcome.cop_moves <= a.max_cop_moves


def reference_analysis(g, t, v0_rule):
    """The analysis as a recursive search memoized on (path, territory, robber).

    It carries its own territory by the incremental rule - all of V at first, then
    the robber's component of the previous territory less N[tip] - and checks that
    cop_turn's node gives the same territory, and advances to the same anchor, from
    the path alone, at every (path, robber) the search reaches.
    """
    root = AnchorPath(g, initial_placement(g, t, v0_rule))
    memo = {}

    def needed(node, territory, r):  # cop moves still needed with the cops to move
        path = node.path
        key = (path, territory, r)
        if key not in memo:
            nxt, derived = cop_turn(g, t, node, r)
            if any(r == a or r in neighbours(g, a) for a in path):  # some anchor's cop steps onto r
                assert derived is None and nxt is node, (path, r)
                memo[key] = 1
            else:
                tip = path[-1]
                own = frozenset(distances_within(g, [r], sum(1 << v for v in territory - neighbours(g, tip) - {tip})))
                assert derived == sum(1 << v for v in own), (path, r)
                assert nxt.path == path + (min(w for w in neighbours(g, tip) & territory if neighbours(g, w) & own),)
                replies = sorted(({r} | neighbours(g, r)) - set(cop_positions(t, nxt.path)))
                memo[key] = max([1] + [1 + needed(nxt, own, reply) for reply in replies])
        return memo[key]

    everything = frozenset(range(g.n))
    try:
        worst = max([1] + [1 + needed(root, everything, r) for r in sorted(everything - set(root.path))])
    except NotPtFreeError as exc:
        return False, None, exc.certificate, len(memo)
    return True, worst, None, len(memo)


def oracle_cases():
    for name, g in theorem_corpus():
        order = longest_induced_path_order(g)[0]
        for t in range(max(3, order - 1), order + 2):
            yield name, g, t
    for n in range(3, 13):  # every t, so also the lines that end in a certificate
        for t in range(3, n + 2):
            yield f"cycle-{n}", cycle_graph(n), t
            yield f"path-{n}", path_graph(n), t


class TestMemoKeyOracle:
    @pytest.mark.parametrize("v0_rule", ["lowest", "max_degree"])
    def test_matches_search_keyed_on_territory(self, v0_rule):
        # the territory follows from the anchor path and the robber, so keying
        # on it changes no answer, and can only keep more states apart
        for name, g, t in oracle_cases():
            a = analyze_strategy(g, t, v0_rule)
            captured, worst, cert, states = reference_analysis(g, t, v0_rule)
            assert (a.captured_all, a.max_cop_moves, a.certificate) == (captured, worst, cert), (name, t)
            assert a.states_explored <= states, (name, t)
            # territories at one depth are disjoint, so each depth has at most n nodes
            assert a.states_explored <= (t - 2) * g.n ** 2, (name, t)

    @given(sparse_graphs(max_n=12).filter(Graph.is_connected))
    @settings(max_examples=40, deadline=None)
    def test_table_matches_incremental_territory(self, g):
        # every t from 3 to n+1, so lines that end in capture and in a certificate
        for t in range(3, g.n + 2):
            for v0_rule in ("lowest", "max_degree"):
                a = analyze_strategy(g, t, v0_rule)
                captured, worst, cert, _ = reference_analysis(g, t, v0_rule)
                assert (a.captured_all, a.max_cop_moves, a.certificate) == (captured, worst, cert), t
                assert a.states_explored <= (t - 2) * g.n ** 2, t


class TestNotPtFree:
    def test_p6_with_t5_yields_certificate(self):
        a = analyze_strategy(path_graph(6), 5)
        assert not a.captured_all
        assert a.certificate is not None and len(a.certificate) == 5
        assert verify_induced_path(path_graph(6), list(a.certificate))

    def test_failure_surfaces_through_engine(self):
        trace = play(path_graph(6), GyarfasCop(5), GreedyRobber())
        assert trace.outcome.result == STRATEGY_FAILURE
        assert trace.outcome.certificate is not None
        assert verify_induced_path(path_graph(6), list(trace.outcome.certificate))

    def test_t3_on_noncomplete_graph(self):
        # a connected graph that is not a clique admits an induced 3-path
        a = analyze_strategy(path_graph(3), 3)
        assert not a.captured_all
        assert verify_induced_path(path_graph(3), list(a.certificate))


class TestStateInvariants:
    def _drive(self, g, t, robber):
        cop = GyarfasCop(t)
        trace = play(g, cop, robber)
        return trace, cop.records

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariants_along_play(self, seed):
        g = connected_ptfree_graph(9, 6, seed)
        trace, records = self._drive(g, 6, RandomRobber(seed))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves <= 5
        prev = None
        for rec in records:
            path, positions = tuple(rec["path"]), tuple(rec["cop_positions"])
            assert verify_induced_path(g, list(path))
            assert positions == cop_positions(6, path)
            k = 6 - 2
            assert len(positions) == k
            # every anchor hosts at least one cop; the tip hosts the movers
            assert set(positions) == set(path)
            if rec["phase"] == "advancing":
                # movers pile on the tip: one parked cop per earlier anchor
                tip_index = len(path) - 1
                assert positions.count(path[-1]) == k - tip_index
            if rec["territory"] is not None:
                territory = frozenset(rec["territory"])
                tip = path[-1]
                assert tip not in territory
                assert neighbours(g, tip) & territory
                if prev is not None and prev["territory"] is not None and rec["phase"] == "advancing":
                    prev_tip = prev["path"][-1]
                    assert territory <= frozenset(prev["territory"]) - (neighbours(g, prev_tip) | {prev_tip})
            prev = rec

    def test_anchor_cop_accounting_on_c5(self):
        cop = GyarfasCop(5)
        play(cycle_graph(5), cop, GreedyRobber())
        sizes = [len(rec["path"]) for rec in cop.records if rec["phase"] == "advancing"]
        assert sizes == sorted(sizes)  # path only grows
        final = cop.records[-1]
        assert final["phase"] == "capturing"
        # a capture is recorded with the positions the capturing cop moved from
        assert final["cop_positions"] == cop.records[-2]["cop_positions"] == [0, 1, 2]


class TestCopTurnDirect:
    def test_capture_prefers_lowest_anchor(self):
        # on the diamond (C_4 0-1-2-3 plus the chord 1-3) vertex 3 sees both anchors 0
        # and 1: the lower-indexed anchor's cop moves
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        node, territory = cop_turn(g, 4, AnchorPath(g, initial_placement(g, 4)), 2)  # advance toward the robber
        assert node.path == (0, 1) and territory == 1 << 2
        node2, territory = cop_turn(g, 4, node, 3)
        assert node2 is node and territory is None  # a capture
        cop = GyarfasCop(4)
        cop.place(g)
        assert cop.move(g, GameState((0, 0), 2)) == (0, 1)
        assert cop.move(g, GameState((0, 1), 3)) == (3, 1)

    def test_not_pt_free_raised_directly(self):
        g = path_graph(6)
        node = AnchorPath(g, initial_placement(g, 5))
        robber = 5
        with pytest.raises(NotPtFreeError) as info:
            for _ in range(5):
                node, _ = cop_turn(g, 5, node, robber)
        assert verify_induced_path(g, list(info.value.certificate))

    def test_one_territory_shares_its_next_path(self):
        # on C_6 with v0 = 0, G - N[0] is the one territory {2, 3, 4}
        g = cycle_graph(6)
        root = AnchorPath(g, initial_placement(g, 6))
        first = cop_turn(g, 6, root, 2)
        second = cop_turn(g, 6, root, 4)
        assert first[0].path == (0, 1) and first[1] == second[1] == 0b11100
        assert first[0] is second[0]  # one node, which the analysis memo keys share
        assert len(root.territories) == 1

    def test_each_territory_gets_its_own_next_anchor(self):
        # the spider with legs 0-1-2, 0-3-4 and 0-5-6: G - N[0] is {2}, {4} and {6}
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        root = AnchorPath(g, initial_placement(g, 5))
        nexts = [cop_turn(g, 5, root, r) for r in (6, 2, 4, 2)]
        assert [(node.path, territory) for node, territory in nexts] == [
            ((0, 5), 1 << 6), ((0, 1), 1 << 2), ((0, 3), 1 << 4), ((0, 1), 1 << 2)]
        assert nexts[1][0] is nexts[3][0]
        assert len(root.territories) == 3

    def test_territories_toward_one_anchor_share_its_node(self):
        # edges 0-1, 1-2 and 1-3: G - N[0] is {2} and {3}, both next to anchor 1
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        root = AnchorPath(g, initial_placement(g, 4))
        (via2, territory2), (via3, territory3) = cop_turn(g, 4, root, 2), cop_turn(g, 4, root, 3)
        assert (via2.path, territory2, territory3) == ((0, 1), 1 << 2, 1 << 3)
        assert via2 is via3
        assert len(root.territories) == 2
        assert (via2.before, via2.reach) == (root.reach, 0b1111)


class TestPathStates:
    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_one_state_per_tip_and_robber_beyond_it(self, n):
        # on P_n at t = n+1 the anchor path is 0..i and the robber stands on some r > i:
        # one (node, robber) state per pair of vertices i < r
        a = analyze_strategy(path_graph(n), n + 1)
        assert (a.captured_all, a.max_cop_moves, a.states_explored) == (True, n, n * (n - 1) // 2)
