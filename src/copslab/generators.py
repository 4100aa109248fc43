"""Seeded graph generators for test corpora.

All randomness flows through SplitMix64 (see rng.py) so that a (kind, args,
seed) triple identifies one graph forever. G(n,p) scans vertex pairs (i,j),
i < j, in lexicographic order and keeps an edge when the next 53-bit float
is below p. The draws of one graph are decided in one packed pass
(`SplitMix64.bernoulli_mask`) and become neighbour masks row by row.
"""

from __future__ import annotations

from .graphs import Graph
from .induced import is_pt_free
from .rng import SplitMix64


MAX_ATTEMPTS = 10_000  # G(n, p) draws `connected_ptfree_graph` makes before it gives up


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
    return Graph(n, tuple(_gnp(n, p, SplitMix64(seed))))


def _gnp(n: int, p: float, rng: SplitMix64) -> list[int]:
    """Neighbour masks of G(n, p) from the next n(n-1)/2 draws of `rng`, one per pair in lexicographic order."""
    bits = rng.bernoulli_mask(n * (n - 1) // 2, p)
    masks = [0] * n
    for i in range(n - 1):
        width = n - 1 - i  # row i: the pairs (i, i+1) .. (i, n-1)
        row = bits & ((1 << width) - 1)
        bits >>= width
        masks[i] |= row << (i + 1)
        while row:
            low = row & -row
            masks[i + low.bit_length()] |= 1 << i
            row ^= low
    return masks


def connected_ptfree_graph(n: int, t: int, seed: int) -> Graph:
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
    for _ in range(MAX_ATTEMPTS):
        g = Graph(n, tuple(_gnp(n, p, rng)))
        # the Graph keeps the flood's answer, so `cop_number` does not flood again
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
        f"in {MAX_ATTEMPTS} attempts; try different n or t"
    )


# kind -> (builder, parameter types, seeded); a seeded builder takes the seed last
_KINDS = {
    "path": (path_graph, (int,), False),
    "cycle": (cycle_graph, (int,), False),
    "complete": (complete_graph, (int,), False),
    "star": (star_graph, (int,), False),
    "petersen": (petersen_graph, (), False),
    "gnp": (gnp_random_graph, (int, float), True),
    "connected_ptfree": (connected_ptfree_graph, (int, int), True),
}


def generate(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a kind string, e.g. 'path 5' or 'gnp 10 0.3'.

    Kinds: path n | cycle n | complete n | star n | petersen |
    gnp n p | connected_ptfree n t.  The seeded kinds take `seed`.
    """
    parts = spec.split()
    if not parts:
        raise ValueError("empty generator spec")
    kind, params = parts[0], parts[1:]
    if kind not in _KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    builder, types, seeded = _KINDS[kind]
    try:
        if len(params) != len(types):
            raise ValueError(f"{kind} takes {len(types)} parameter(s), got {len(params)}")
        args = [convert(p) for convert, p in zip(types, params)]
        return builder(*args, seed) if seeded else builder(*args)
    except ValueError as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from None


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
