"""Reference induced-path search: the unpruned recursive bitset DFS.

This is an earlier `copslab.induced.longest_induced_path_order`, kept as the
oracle for the order in differential tests of the package's pruned vertex
elimination. It visits every induced path (starts ascending, extensions
ascending) and records each strictly longer one, so its order is exact for
every cap. Its witness is the first such path in DFS order, which the package
does not promise to match: tests check the package's witness with
`verify_induced_path` instead. Recursion depth grows with the path order.
"""

from __future__ import annotations

from copslab.graphs import Graph


def reference_longest_induced_path_order(
    g: Graph, cap: int | None = None
) -> tuple[int, list[int]]:
    """(order, witness) of the first maximum-order induced path in DFS order."""
    n = g.n
    if n == 0:
        return 0, []
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    nbr = g.nbr_masks
    best_order = 1
    best_path = [0]
    if cap == 1:
        return 1, [0]
    path: list[int] = []

    def extend(tip: int, blocked: int) -> bool:
        # blocked = path vertices plus everything adjacent to a non-tip path
        # vertex; a legal extension is a neighbor of the tip outside it.
        nonlocal best_order, best_path
        cand = nbr[tip] & ~blocked
        new_blocked = blocked | nbr[tip]
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            path.append(w)
            if len(path) > best_order:
                best_order = len(path)
                best_path = list(path)
                if cap is not None and best_order >= cap:
                    return True
            if extend(w, new_blocked | low):
                return True
            path.pop()
        return False

    for start in range(n):
        path = [start]
        if extend(start, 1 << start):
            break
    return best_order, best_path
