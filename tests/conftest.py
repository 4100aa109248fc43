"""Shared test helpers: independent oracles and scripted strategies."""

from __future__ import annotations

import os
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from copslab.graphs import Graph

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def cli_env() -> dict[str, str]:
    """Environment for CLI subprocesses: the package importable from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 10):
    """Arbitrary simple graphs with n in [min_n, max_n]."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def sparse_graphs(draw, max_n: int = 16):
    """Simple graphs with n in [1, max_n] and average degree in [2, 5] where n allows."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = min(len(pairs), round(draw(st.floats(2.0, 5.0)) * n / 2))
    return Graph.from_edges(n, draw(st.permutations(pairs))[:m])


def neighbours(g: Graph, v: int) -> frozenset[int]:
    """N(v), read bit by bit from g's mask: the oracles' own neighbour walk."""
    return frozenset(u for u in range(g.n) if g.nbr_masks[v] >> u & 1)


def uf_components(g: Graph, region) -> list[frozenset[int]]:
    """Union-find oracle for components of the induced subgraph on region."""
    parent = {v: v for v in region}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in region:
        for w in neighbours(g, u):
            if w in parent:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[ru] = rw
    groups: dict[int, set[int]] = {}
    for v in region:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(s) for s in groups.values()), key=min)


def subset_induces_path(g: Graph, subset) -> bool:
    # connected + |S|-1 edges + max degree 2 within S <=> induced path
    k = len(subset)
    if k == 0:
        return False
    if k == 1:
        return True
    sub = set(subset)
    degs = [sum(1 for u in neighbours(g, v) if u in sub) for v in subset]
    if sum(degs) // 2 != k - 1 or max(degs) > 2:
        return False
    return len(uf_components(g, sub)) == 1


def brute_longest_induced_path(g: Graph) -> int:
    """Exhaustive subset-enumeration oracle for the longest induced path order."""
    for k in range(g.n, 0, -1):
        for subset in combinations(range(g.n), k):
            if subset_induces_path(g, subset):
                return k
    return 0


class ScriptedCop:
    """Plays a fixed placement, then scripted position tuples, then stays."""

    def __init__(self, placement, moves=()):
        self.placement = tuple(placement)
        self.moves = [tuple(m) for m in moves]
        self._i = 0

    def place(self, g):
        return self.placement

    def move(self, g, state):
        if self._i < len(self.moves):
            out = self.moves[self._i]
            self._i += 1
            return out
        return state.cops


class ScriptedRobber:
    """Places at a fixed vertex, then plays scripted vertices, then stays."""

    def __init__(self, placement, moves=()):
        self.placement = placement
        self.moves = list(moves)
        self._i = 0

    def place(self, g, cops):
        return self.placement

    def move(self, g, state):
        if self._i < len(self.moves):
            out = self.moves[self._i]
            self._i += 1
            return out
        return state.robber


@pytest.fixture
def c5():
    from copslab.generators import cycle_graph

    return cycle_graph(5)
