"""Robber strategies of graded strength.

GREEDY keeps its distance, RANDOM drifts (seeded), OPTIMAL plays from a
solved table: it survives forever whenever any escape exists and otherwise
maximizes the distance to capture. The table's guarantee is against optimal
cops; against other cop play OPTIMAL degrades to solver-guided heuristic
play, which can only under-, never overstate how long a best robber lasts.
"""

from __future__ import annotations

from math import inf

from .engine import GameState
from .graphs import Graph, distances_within, members
from .rng import SplitMix64
from .solver import SolverTable


class GreedyRobber:
    """Maximizes the minimum graph distance to any cop (none reaching it: infinite); ties to the lowest vertex."""

    def place(self, g: Graph, cops: tuple[int, ...]) -> int:
        dist = distances_within(g, cops)
        return max(range(g.n), key=lambda v: dist.get(v, inf))

    def move(self, g: Graph, state: GameState) -> int:
        dist = distances_within(g, state.cops)
        return max(members(g.closed_masks[state.robber]), key=lambda v: dist.get(v, inf))


class RandomRobber:
    """Uniform over cop-free options (seeded); steps onto a cop only when forced."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = SplitMix64(seed)

    def place(self, g: Graph, cops: tuple[int, ...]) -> int:
        free = [v for v in range(g.n) if v not in cops]
        pool = free if free else list(range(g.n))
        return pool[self._rng.below(len(pool))]

    def move(self, g: Graph, state: GameState) -> int:
        options = list(members(g.closed_masks[state.robber]))
        free = [v for v in options if v not in state.cops]
        pool = free if free else options
        return pool[self._rng.below(len(pool))]


class OptimalRobber:
    """Plays the exact game values from a solved table for this cop count.

    Placement: any start the table scores as a robber win (lowest index), else
    the start with the largest capture distance. Moves: same preference over
    stay/step successors. Distance-to-mate tie-breaking by lowest vertex makes
    the policy deterministic.
    """

    def __init__(self, table: SolverTable):
        self.table = table

    def place(self, g: Graph, cops: tuple[int, ...]) -> int:
        if len(cops) != self.table.k:
            raise ValueError(f"table solved for k={self.table.k}, game has {len(cops)} cops")
        return self._best(cops, range(g.n))

    def move(self, g: Graph, state: GameState) -> int:
        return self._best(state.cops, members(g.closed_masks[state.robber]))

    def _best(self, cops: tuple[int, ...], options) -> int:
        """The first option scored a robber win, else the first with the longest capture time."""
        T = tuple(sorted(cops))
        best = None
        best_val = -1
        for v in options:
            val = self.table.values.get((T, v, True))
            if val is None:
                return v
            if val > best_val:
                best, best_val = v, val
        return best
