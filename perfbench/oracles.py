"""Independent checks of the program's answers: graph6 decoding and induced paths.

Written from the definitions, sharing no code with the package under test.
"""

from __future__ import annotations


def decode_graph6(s: str) -> list[set[int]]:
    """Adjacency sets of a short-form graph6 string."""
    data = s.encode("ascii")
    n = data[0] - 63
    adj = [set() for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (data[1 + k // 6] - 63) >> (5 - k % 6) & 1:
                adj[i].add(j)
                adj[j].add(i)
            k += 1
    return adj


def is_connected(adj: list[set[int]]) -> bool:
    seen = {0} if adj else set()
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def is_induced_path(adj: list[set[int]], vs) -> bool:
    """vs is a nonempty sequence of distinct vertices where exactly consecutive ones are adjacent."""
    if not vs or len(set(vs)) != len(vs) or not all(0 <= v < len(adj) for v in vs):
        return False
    return all(
        (vs[j] in adj[vs[i]]) == (j == i + 1)
        for i in range(len(vs)) for j in range(i + 1, len(vs))
    )


def longest_induced_path(adj: list[set[int]], stop_at: int | None = None) -> int:
    """Vertex count of a longest induced path (or `stop_at` once one that long exists)."""
    best = 1 if adj else 0

    def extend(path: list[int], blocked: set[int]) -> bool:
        nonlocal best
        tip = path[-1]
        for w in adj[tip]:
            if w in blocked:
                continue
            path.append(w)
            best = max(best, len(path))
            if stop_at is not None and best >= stop_at:
                return True
            if extend(path, blocked | adj[tip] | {w}):
                return True
            path.pop()
        return False

    for v in range(len(adj)):
        if extend([v], {v}):
            break
    return best
