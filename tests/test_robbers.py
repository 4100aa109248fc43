from __future__ import annotations

import pytest

from copslab.engine import CAPTURED, ROBBER_SURVIVED, GameState, play
from copslab.generators import complete_graph, cycle_graph, path_graph, petersen_graph
from copslab.robbers import GreedyRobber, OptimalRobber, RandomRobber
from copslab.solver import solve

from conftest import ScriptedCop, neighbours
from reference_solver import OptimalCop


class TestGreedy:
    def test_place_at_far_endpoint(self):
        assert GreedyRobber().place(path_graph(5), (0,)) == 4

    def test_place_ties_to_lowest(self):
        assert GreedyRobber().place(complete_graph(4), (0,)) == 1

    def test_stay_when_already_farthest(self):
        state = GameState(cops=(0,), robber=2)
        assert GreedyRobber().move(path_graph(3), state) == 2

    def test_runs_away_on_cycle(self):
        state = GameState(cops=(1,), robber=2)
        assert GreedyRobber().move(cycle_graph(6), state) == 3

    def test_all_vertices_covered_forces_capture(self):
        trace = play(path_graph(2), ScriptedCop((0, 1)), GreedyRobber())
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves == 1


class TestRandom:
    def test_seed_determinism(self):
        a = RandomRobber(7)
        b = RandomRobber(7)
        g = cycle_graph(8)
        assert a.place(g, (0,)) == b.place(g, (0,))
        state = GameState((0,), 4)
        assert [a.move(g, state) for _ in range(10)] == [b.move(g, state) for _ in range(10)]

    def test_never_places_on_cop_when_avoidable(self):
        g = cycle_graph(6)
        for seed in range(30):
            assert RandomRobber(seed).place(g, (0, 2)) not in (0, 2)

    def test_moves_are_legal_and_avoid_cops(self):
        g = cycle_graph(6)
        state = GameState((3,), 4)
        for seed in range(30):
            v = RandomRobber(seed).move(g, state)
            assert v in {4} | neighbours(g, 4)
            assert v != 3

    def test_forced_onto_cop_at_placement(self):
        trace = play(path_graph(2), ScriptedCop((0, 1)), RandomRobber(3))
        assert trace.outcome.result == CAPTURED


class TestOptimal:
    def test_c4_single_cop_escapes_forever(self):
        g = cycle_graph(4)
        table, result = solve(g, 1)
        assert not result.cop_win
        robber = OptimalRobber(table)
        start = robber.place(g, (0,))
        assert table.values.get(((0,), start, True)) is None
        trace = play(g, ScriptedCop((0,), [(1,), (2,), (3,), (0,)]), robber)
        assert trace.outcome.result == ROBBER_SURVIVED

    def test_c5_single_cop_survives_move_limit(self):
        g = cycle_graph(5)
        table, result = solve(g, 1)
        assert not result.cop_win
        trace = play(g, ScriptedCop((0,), [(1,), (2,)]), OptimalRobber(table))
        assert trace.outcome.result == ROBBER_SURVIVED

    def test_cop_count_mismatch_rejected(self):
        table, _ = solve(cycle_graph(4), 1)
        with pytest.raises(ValueError, match="k=1"):
            OptimalRobber(table).place(cycle_graph(4), (0, 1))

    @pytest.mark.parametrize(
        "g,k",
        [
            (path_graph(2), 1),
            (path_graph(5), 1),
            (path_graph(7), 1),
            (cycle_graph(4), 2),
            (cycle_graph(5), 2),
            (cycle_graph(7), 2),
            (complete_graph(5), 1),
            (petersen_graph(), 3),
        ],
    )
    def test_optimal_play_realizes_solver_capture_time(self, g, k):
        table, result = solve(g, k)
        assert result.cop_win
        trace = play(g, OptimalCop(g, table, result), OptimalRobber(table))
        assert trace.outcome.result == CAPTURED
        assert trace.outcome.cop_moves == result.optimal_capture_cop_moves

    def test_weaker_robbers_never_outlast_optimal(self):
        g = cycle_graph(7)
        table, result = solve(g, 2)
        cop_args = (g, table, result)
        optimal_moves = play(g, OptimalCop(*cop_args), OptimalRobber(table)).outcome.cop_moves
        for weaker in (GreedyRobber(), RandomRobber(11), RandomRobber(99)):
            trace = play(g, OptimalCop(*cop_args), weaker)
            assert trace.outcome.result == CAPTURED
            assert trace.outcome.cop_moves <= optimal_moves
