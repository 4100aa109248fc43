"""Benchmark inputs, read from fixed base corpora and relabeled by the workload seed.

The program sees only the graph6 files and argv built from these. The base
corpora are stored under data/, one graph per line as `<tag> <graph6>`:

- `standard.txt`: the package's 295-graph standard corpus
  (`copslab.corpus.theorem_corpus()`), tagged with each graph's kind
  (tree, cycle, complete, petersen, random). `selftest.py` checks that it
  still equals the package's corpus.
- `hunt.txt`: 120 connected sparse G(n, c/n), n in [30, 36], c in [4, 5),
  drawn once with the package's SplitMix64 and G(n, p) conventions from
  seed 0x5EED4B17, tagged with the order of a longest induced path.
  `selftest.py` recomputes every tag with the oracle.

A workload seed picks vertex relabelings of a base corpus (and, for the
conjecture search, the per-cell sampler seeds). Relabeling changes every input
file while keeping the work of the label-invariant parts (solver state spaces,
induced-path enumeration) the same, which keeps runs at different seeds
comparable; the label-dependent parts (the strategy's lowest-vertex anchor,
DFS order, robber play) still vary.
"""

from __future__ import annotations

from pathlib import Path

from oracles import decode_graph6

DATA = Path(__file__).resolve().parent / "data"
MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def base_corpus(name: str) -> list[tuple[str, str]]:
    """(tag, graph6) for every line of data/<name>.txt."""
    lines = (DATA / f"{name}.txt").read_text().splitlines()
    return [tuple(line.split(" ", 1)) for line in lines]


def encode_graph6(adj: list[set[int]]) -> str:
    n = len(adj)
    out = [n + 63]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (i in adj[j])
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def unit_stream(seed: int, unit: int) -> SplitMix64:
    """The random stream of one measured unit of a workload run."""
    return SplitMix64(SplitMix64(seed).next_u64() ^ (unit * 0xD1B54A32D192ED03))


def permutation(n: int, rng: SplitMix64) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabeled(lines: list[str], seed: int, unit: int) -> list[str]:
    """The graph6 lines under per-graph relabelings; seed 0, unit 0 is the identity."""
    if seed == 0 and unit == 0:
        return list(lines)
    rng = unit_stream(seed, unit)
    out = []
    for s in lines:
        adj = decode_graph6(s)
        perm = permutation(len(adj), rng)
        new = [set() for _ in adj]
        for v, nbrs in enumerate(adj):
            new[perm[v]] = {perm[w] for w in nbrs}
        out.append(encode_graph6(new))
    return out
