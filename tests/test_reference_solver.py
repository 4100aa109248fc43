from __future__ import annotations

from copslab.generators import complete_graph, cycle_graph

from reference_solver import joint_cop_moves


class TestJointMoves:
    def test_stacked_cops_split(self):
        g = complete_graph(3)
        moves = joint_cop_moves(g, (0, 0))
        assert moves == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def test_moves_are_sorted_unique(self):
        g = cycle_graph(5)
        moves = joint_cop_moves(g, (0, 2))
        assert moves == sorted(set(moves))
        assert all(m == tuple(sorted(m)) for m in moves)
