from __future__ import annotations

import pytest

from copslab.engine import (
    CAPTURED,
    ROBBER_SURVIVED,
    STRATEGY_FAILURE,
    GameTrace,
    Outcome,
    StrategyError,
    play,
    trace_to_dot,
)
from copslab.generators import complete_graph, cycle_graph, path_graph
from copslab.robbers import GreedyRobber, RandomRobber

from conftest import ScriptedCop, ScriptedRobber


def replay_legal(trace: GameTrace) -> None:
    """Re-check every step of a trace against the graph."""
    g = trace.graph
    cops = None
    robber = None
    for ev in trace.events:
        kind = ev["type"]
        if kind == "cop_placement":
            cops = tuple(ev["positions"])
            assert all(0 <= c < g.n for c in cops)
        elif kind == "robber_placement":
            robber = ev["vertex"]
            assert 0 <= robber < g.n
        elif kind == "cop_move":
            assert len(ev["steps"]) == len(cops)
            for (a, b), prev in zip(ev["steps"], cops):
                assert a == prev
                assert a == b or g.has_edge(a, b)
            cops = tuple(b for _, b in ev["steps"])
        elif kind == "robber_move":
            assert ev["from"] == robber
            assert ev["from"] == ev["to"] or g.has_edge(ev["from"], ev["to"])
            robber = ev["to"]
        elif kind == "capture":
            assert robber == ev["vertex"]
            assert cops[ev["cop"]] == ev["vertex"]
    if trace.outcome.result == CAPTURED:
        assert robber in cops
        assert trace.outcome.cop_moves == sum(
            1 for ev in trace.events if ev["type"] in ("cop_placement", "cop_move")
        )
    else:
        assert robber is None or robber not in (cops or ())


class TestPlayBasics:
    def test_clique_capture_in_two(self):
        trace = play(complete_graph(3), ScriptedCop((0,), [(1,), (2,)]), GreedyRobber())
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves == 2
        replay_legal(trace)

    def test_p2_forced_capture_on_move_two(self):
        trace = play(path_graph(2), ScriptedCop((0,), [(1,)]), ScriptedRobber(1))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves == 2
        replay_legal(trace)

    def test_robber_placing_on_cop_is_move_one_capture(self):
        trace = play(path_graph(3), ScriptedCop((1,)), ScriptedRobber(1))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves == 1

    def test_robber_stepping_onto_cop(self):
        # robber walks into the stationary cop: capture charged to move 1
        trace = play(path_graph(2), ScriptedCop((0,)), ScriptedRobber(1, moves=[0]))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves == 2  # placement + the cops' stay turn
        replay_legal(trace)

    def test_disconnected_graph_rejected(self):
        from copslab.graphs import Graph

        with pytest.raises(ValueError, match="connected"):
            play(Graph.from_edges(4, [(0, 1), (2, 3)]), ScriptedCop((0,)), ScriptedRobber(2))

    def test_move_limit_survival(self):
        # without capture the game stops after 4n cop moves
        trace = play(cycle_graph(4), ScriptedCop((0,)), GreedyRobber())
        assert trace.outcome.result == ROBBER_SURVIVED
        assert trace.outcome.cop_moves == 16
        replay_legal(trace)


class TestIllegalActions:
    def test_illegal_cop_step(self):
        trace = play(path_graph(4), ScriptedCop((0,), [(2,)]), ScriptedRobber(3))
        assert trace.outcome.result == STRATEGY_FAILURE
        assert any(ev["type"] == "illegal_action" for ev in trace.events)
        assert "cop 0" in trace.outcome.reason

    def test_illegal_cop_count_change(self):
        trace = play(path_graph(4), ScriptedCop((0, 0), [(1,)]), ScriptedRobber(3))
        assert trace.outcome.result == STRATEGY_FAILURE
        assert "count" in trace.outcome.reason

    def test_illegal_robber_step(self):
        trace = play(path_graph(4), ScriptedCop((0,)), ScriptedRobber(3, moves=[1]))
        assert trace.outcome.result == STRATEGY_FAILURE
        assert "robber" in trace.outcome.reason

    def test_illegal_placement(self):
        trace = play(path_graph(4), ScriptedCop((9,)), ScriptedRobber(3))
        assert trace.outcome.result == STRATEGY_FAILURE

    @pytest.mark.parametrize("at_placement", [True, False], ids=["place", "move"])
    def test_robber_strategy_error(self, at_placement):
        def give_up(*args):
            raise StrategyError("gave up", (2, 3))

        robber = ScriptedRobber(3)
        setattr(robber, "place" if at_placement else "move", give_up)
        trace = play(path_graph(4), ScriptedCop((0,)), robber)
        assert trace.outcome == Outcome(STRATEGY_FAILURE, reason="gave up", certificate=(2, 3))
        kinds = ["cop_placement"] if at_placement else ["cop_placement", "robber_placement", "cop_move"]
        assert [ev["type"] for ev in trace.events] == kinds


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def one():
            return play(cycle_graph(6), ScriptedCop((0,), [(1,), (2,), (3,)]), RandomRobber(42))

        a, b = one(), one()
        assert a.events == b.events
        assert a.outcome == b.outcome

    def test_different_seeds_can_differ(self):
        a = play(cycle_graph(6), ScriptedCop((0,)), RandomRobber(1))
        b = play(cycle_graph(6), ScriptedCop((0,)), RandomRobber(2))
        assert (a.events != b.events) or (a.events == b.events)  # both legal
        replay_legal(a)
        replay_legal(b)


class TestTraceSerialization:
    def test_records_shape(self):
        trace = play(complete_graph(3), ScriptedCop((0,), [(1,)]), ScriptedRobber(1))
        records = trace.to_records()
        assert records[0]["type"] == "header"
        assert records[0]["n"] == 3
        assert records[-1]["type"] == "outcome"
        kinds = [r["type"] for r in records]
        assert "cop_placement" in kinds and "robber_placement" in kinds

    def test_dot_export(self):
        trace = play(complete_graph(3), ScriptedCop((0,), [(1,)]), ScriptedRobber(1))
        dot = trace_to_dot(trace)
        assert dot.startswith("graph trace {")
        assert "0 -- 1;" in dot
        assert "c0@1" in dot
