from __future__ import annotations

import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copslab.corpus import theorem_corpus
from copslab.engine import CAPTURED, STRATEGY_FAILURE, play
from copslab.generators import (
    complete_graph,
    connected_ptfree_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from copslab.gyarfas import (
    ADVANCING,
    CAPTURING,
    GyarfasCop,
    NotPtFreeError,
    analyze_strategy,
    cop_turn,
    initial_placement,
)
from copslab.induced import longest_induced_path_order, verify_induced_path
from copslab.robbers import GreedyRobber, RandomRobber

from conftest import ScriptedRobber


class TestInitialPlacement:
    def test_c5_t5_stacks_three_cops(self):
        positions, state = initial_placement(cycle_graph(5), 5)
        assert positions == (0, 0, 0)
        assert state.path == (0,) and state.phase == ADVANCING

    def test_k4_t3_single_cop(self):
        assert initial_placement(complete_graph(4), 3)[0] == (0,)

    def test_p4_t4_two_cops(self):
        assert initial_placement(path_graph(4), 4)[0] == (0, 0)

    def test_max_degree_rule(self):
        positions, state = initial_placement(path_graph(3), 4, v0_rule="max_degree")
        assert state.path == (1,)

    def test_t_below_three_rejected(self):
        with pytest.raises(ValueError):
            initial_placement(path_graph(3), 2)

    def test_disconnected_rejected(self):
        from copslab.graphs import Graph

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
    """The analysis as a recursive search memoized on (path, territory, robber)."""
    positions0, state0 = initial_placement(g, t, v0_rule)
    memo = {}

    def needed(state, r):  # cop moves still needed with the cops to move at state
        key = (state.path, state.territory, r)
        if key not in memo:
            moves, nxt = cop_turn(g, state, r)
            replies = sorted(({r} | g.adj[r]) - set(moves)) if r not in moves else []
            memo[key] = max([1] + [1 + needed(nxt, reply) for reply in replies])
        return memo[key]

    try:
        worst = max([1] + [1 + needed(state0, r) for r in sorted(set(range(g.n)) - set(positions0))])
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
        return trace, cop.history

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariants_along_play(self, seed):
        g = connected_ptfree_graph(9, 6, seed)
        trace, history = self._drive(g, 6, RandomRobber(seed))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves <= 5
        prev = None
        for state in history:
            assert verify_induced_path(g, list(state.path))
            k = state.cop_count
            positions = state.cop_positions()
            assert len(positions) == k
            # every anchor hosts at least one cop; the tip hosts the movers
            assert set(positions) == set(state.path)
            if state.phase == ADVANCING:
                # movers pile on the tip: one parked cop per earlier anchor
                tip_index = len(state.path) - 1
                assert positions.count(state.path[-1]) == k - tip_index
            if state.territory is not None:
                tip = state.path[-1]
                assert tip not in state.territory
                assert g.adj[tip] & state.territory
                if prev is not None and prev.territory is not None and state.phase == ADVANCING:
                    prev_tip = prev.path[-1]
                    assert state.territory <= prev.territory - (g.adj[prev_tip] | {prev_tip})
            prev = state

    def test_anchor_cop_accounting_on_c5(self):
        cop = GyarfasCop(5)
        play(cycle_graph(5), cop, GreedyRobber())
        sizes = [len(st.path) for st in cop.history if st.phase == ADVANCING]
        assert sizes == sorted(sizes)  # path only grows
        final = cop.history[-1]
        assert final.phase == CAPTURING


class TestCopTurnDirect:
    def test_capture_prefers_lowest_anchor(self):
        # both anchors see the robber: the lower-indexed anchor's cop moves
        g = cycle_graph(4)
        _, state = initial_placement(g, 4)
        moves, state = cop_turn(g, state, 2)  # advance toward the robber
        assert state.path == (0, 1)
        moves, state2 = cop_turn(g, state, 2)
        assert state2.phase == CAPTURING
        assert moves.count(2) == 1

    def test_not_pt_free_raised_directly(self):
        g = path_graph(6)
        _, state = initial_placement(g, 5)
        robber = 5
        with pytest.raises(NotPtFreeError) as info:
            for _ in range(5):
                moves, state = cop_turn(g, state, robber)
        assert verify_induced_path(g, list(info.value.certificate))
