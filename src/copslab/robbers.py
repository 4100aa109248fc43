"""Robber strategies of graded strength.

GREEDY keeps its distance, RANDOM drifts (seeded), OPTIMAL plays from a
solved table: it survives forever whenever any escape exists and otherwise
maximizes the distance to capture. The table's guarantee is against optimal
cops; against other cop play OPTIMAL degrades to solver-guided heuristic
play, which can only under-, never overstate how long a best robber lasts.
"""

from __future__ import annotations

from collections import deque

from .engine import GameState
from .graphs import Graph
from .rng import SplitMix64
from .solver import SolverTable


def _distances(g: Graph, sources) -> list[float]:
    dist: list[float] = [float("inf")] * g.n
    queue = deque()
    for s in set(sources):
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == float("inf"):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


class GreedyRobber:
    """Maximizes the minimum graph distance to any cop; ties to the lowest vertex."""

    def place(self, g: Graph, cops: tuple[int, ...]) -> int:
        return max(range(g.n), key=_distances(g, cops).__getitem__)

    def move(self, g: Graph, state: GameState) -> int:
        options = sorted({state.robber} | g.adj[state.robber])
        return max(options, key=_distances(g, state.cops).__getitem__)


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
        r = state.robber
        options = sorted({r} | g.adj[r])
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
        return self._best(state.cops, sorted({state.robber} | g.adj[state.robber]))

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
