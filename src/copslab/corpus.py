"""The deterministic graph corpus for capture-bound verification and oracle tests.

The corpus is a pure function of its one argument: the seeds below are part of
the repo's reproducibility contract and appear in recorded results.
"""

from __future__ import annotations

from .generators import complete_graph, cycle_graph, gnp_random_graph, path_graph, petersen_graph
from .graphs import Graph, encode_graph6
from .rng import SplitMix64

TREE_SEED = 0x5EED_7EE5
RANDOM_SEED = 0x5EED_6A55


def theorem_corpus(random_count: int = 200) -> list[tuple[str, Graph]]:
    """The fixed verification corpus, named by kind.

    - trees: the paths P_1..P_9 plus every G(n, 1.5/n) sample, 200 per n in
      2..9 from TREE_SEED, that came out connected with n-1 edges,
      deduplicated and sorted by their labeled graph6 string;
    - the cycles C_4..C_12, the cliques K_2..K_8 and the Petersen graph;
    - `random_count` connected G(n, p) samples from RANDOM_SEED, with n
      uniform in [4, 10] and p uniform in [0.2, 0.8).
    """
    trees = {encode_graph6(g): g for g in map(path_graph, range(1, 10))}
    stream = SplitMix64(TREE_SEED)
    for n in range(2, 10):
        for _ in range(200):
            g = gnp_random_graph(n, min(1.5 / n, 0.9), stream.next_u64())
            if g.is_connected() and g.m == g.n - 1:
                trees.setdefault(encode_graph6(g), g)
    named = [(f"tree-{key}", trees[key]) for key in sorted(trees, key=lambda s: (len(s), s))]
    named += [(f"cycle-{n}", cycle_graph(n)) for n in range(4, 13)]
    named += [(f"complete-{n}", complete_graph(n)) for n in range(2, 9)]
    named.append(("petersen", petersen_graph()))
    randoms: list[Graph] = []
    stream = SplitMix64(RANDOM_SEED)
    while len(randoms) < random_count:
        n = 4 + stream.below(7)
        p = 0.2 + 0.6 * stream.random()
        g = gnp_random_graph(n, p, stream.next_u64())
        if g.is_connected():
            randoms.append(g)
    return named + [(f"random-{i}", g) for i, g in enumerate(randoms)]
