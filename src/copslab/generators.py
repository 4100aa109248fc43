"""Seeded graph generators for test corpora.

All randomness flows through SplitMix64 (see rng.py) so that a (kind, args,
seed) triple identifies one graph forever. G(n,p) scans vertex pairs (i,j),
i < j, in lexicographic order and keeps an edge when the next 53-bit float
is below p.
"""

from __future__ import annotations

from .graphs import Graph
from .induced import is_pt_free
from .rng import SplitMix64


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


def path_graph(n: int) -> Graph:
    _check_n(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n for n >= 3; degenerates to K_1 / one edge for n = 1, 2."""
    _check_n(n)
    if n <= 2:
        return path_graph(n)
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    _check_n(n)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen_graph() -> Graph:
    # outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to all others."""
    _check_n(n)
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def connected_ptfree_graph(
    n: int, t: int, seed: int, max_attempts: int = 10_000
) -> Graph:
    """Rejection-sample G(n,p) until connected and free of induced t-vertex paths.

    p starts at 1.5/n and adapts: any rejection doubles p (capped at 0.9),
    since at small n denser graphs are both better connected and poorer in
    long induced paths; after 50 consecutive rejections at the cap, p is
    halved to restart the climb. One SplitMix64 stream (from `seed`) drives
    every attempt, so the outcome is a pure function of (n, t, seed).

    At t = 3 the answer is K_n without sampling: a connected graph with no
    induced P_3 is complete, so K_n is the only graph the sampler could accept.
    """
    _check_n(n)
    if t < 3:
        raise ValueError(f"t must be >= 3, got {t}")
    if t == 3:
        return complete_graph(n)
    rng = SplitMix64(seed)
    p = min(1.5 / n, 0.9)
    stuck = 0
    for _ in range(max_attempts):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j))
        g = Graph.from_edges(n, edges)
        if g.is_connected() and is_pt_free(g, t)[0]:
            return g
        if p >= 0.9:
            stuck += 1
            if stuck >= 50:
                p, stuck = p / 2, 0
        else:
            p = min(p * 2, 0.9)
    raise GenerationError(
        f"no connected graph without induced {t}-vertex paths found on n={n} "
        f"in {max_attempts} attempts; try different n or t"
    )


def generate(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a kind string, e.g. 'path 5' or 'gnp 10 0.3'.

    Kinds: path n | cycle n | complete n | star n | petersen |
    gnp n p | connected_ptfree n t.  The seeded kinds take `seed`.
    """
    parts = spec.split()
    if not parts:
        raise ValueError("empty generator spec")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "path":
            return path_graph(int(args[0]))
        if kind == "cycle":
            return cycle_graph(int(args[0]))
        if kind == "complete":
            return complete_graph(int(args[0]))
        if kind == "star":
            return star_graph(int(args[0]))
        if kind == "petersen":
            return petersen_graph()
        if kind == "gnp":
            return gnp_random_graph(int(args[0]), float(args[1]), seed)
        if kind == "connected_ptfree":
            return connected_ptfree_graph(int(args[0]), int(args[1]), seed)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown generator kind {kind!r}")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
