"""Reference retrograde solver: a BFS over (cop tuple, robber, side) dictionary keys.

This is the package's previous `copslab.solver.solve`, kept as an independent
oracle for differential tests of the ranked bitset solver. It shares only
`joint_cop_moves` and the result type with the package.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations_with_replacement

from copslab.graphs import Graph
from copslab.solver import SolveResult, joint_cop_moves


def reference_solve(
    g: Graph, k: int
) -> tuple[dict[tuple[tuple[int, ...], int, bool], int], SolveResult]:
    """Full value map (plies to capture; missing = robber wins) and the placement verdict."""
    n = g.n
    cop_tuples = list(combinations_with_replacement(range(n), k))
    values: dict[tuple[tuple[int, ...], int, bool], int] = {}
    pending: dict[tuple[tuple[int, ...], int], int] = {}
    queue: deque[tuple[tuple[int, ...], int, bool]] = deque()

    for T in cop_tuples:
        occupied = set(T)
        for r in range(n):
            if r in occupied:
                values[(T, r, True)] = 0
                values[(T, r, False)] = 0
                queue.append((T, r, True))
                queue.append((T, r, False))
            else:
                # escapes left for the robber-to-move state (T, r)
                pending[(T, r)] = g.degree(r) + 1

    moves_cache: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    while queue:
        state = queue.popleft()
        T, r, cops_to_move = state
        m = values[state]
        if cops_to_move:
            # Predecessors: robber-to-move states that could step into this one.
            for r_prev in (r, *g.adj[r]):
                key = (T, r_prev)
                cnt = pending.get(key)
                if cnt is None:
                    continue
                if cnt == 1:
                    del pending[key]
                    values[(T, r_prev, False)] = m + 1
                    queue.append((T, r_prev, False))
                else:
                    pending[key] = cnt - 1
        else:
            # Predecessors: cops-to-move states one joint move away (the
            # stay-or-step relation on sorted multisets is symmetric).
            moves = moves_cache.get(T)
            if moves is None:
                moves = joint_cop_moves(g, T)
                moves_cache[T] = moves
            for T_prev in moves:
                key = (T_prev, r, True)
                if key not in values:
                    values[key] = m + 1
                    queue.append(key)

    best_T = None
    best_worst = None
    for T in cop_tuples:
        worst = 0
        for r in range(n):
            m = values.get((T, r, True))
            if m is None:
                worst = None
                break
            worst = max(worst, m)
        if worst is not None and (best_worst is None or worst < best_worst):
            best_worst = worst
            best_T = T  # lex iteration: first minimum is the smallest tuple
    if best_T is None:
        return values, SolveResult(False, None, None)
    return values, SolveResult(True, 1 + (best_worst + 1) // 2, best_T)
