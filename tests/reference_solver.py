"""Reference retrograde solvers and a table-guided cop team, all for tests only.

`reference_solve` is an early `copslab.solver.solve`: a BFS over (cop tuple,
robber, side) dictionary keys, kept as an independent oracle for differential
tests of the ranked bitset solver. With `joint_cop_moves`, its explicit
enumeration of one joint cop move, it shares only the result type with the
package.

`ranked_push_solve` is the bitset solver as it was before it pulled cop plies
into open placements: it builds every joint-move list up front and pushes each
grown robber mask along its list. It reaches the sizes that `reference_solve`
cannot, and its growth record is the one the package's must reproduce.

`OptimalCop` plays a solved table's moves for the cops.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations_with_replacement, product
from math import comb

from copslab.engine import GameState
from copslab.graphs import Graph, members
from copslab.solver import Growth, SolveResult, SolverTable

from conftest import neighbours


def joint_cop_moves(g: Graph, cops: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All sorted cop multisets reachable in one joint move (each cop stays or steps).

    Enumeration groups cops sharing a vertex to avoid the k! blowup of naive
    products; output is sorted and duplicate-free.
    """
    groups = Counter(cops)
    per_group = []
    for v, c in sorted(groups.items()):
        opts = sorted(neighbours(g, v) | {v})
        per_group.append(list(combinations_with_replacement(opts, c)))
    out = set()
    for parts in product(*per_group):
        merged: list[int] = []
        for part in parts:
            merged.extend(part)
        merged.sort()
        out.add(tuple(merged))
    return sorted(out)


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
            for r_prev in (r, *neighbours(g, r)):
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


def _ranked_joint_moves(g: Graph, k: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The size-k cop multisets in lexicographic order, and each one's joint moves as ranks.

    joint(T) = {v + S : v in N[T[0]], S in joint(T[1:])}, built size by size;
    an add-vertex table maps (rank of S among the size j-1 multisets, v) to
    the rank of S + v among the size j multisets.
    """
    n = g.n
    closed = [list(members(mask)) for mask in g.closed_masks]
    multisets = [(v,) for v in range(n)]
    moves = closed  # size 1: a multiset's rank is its vertex
    for j in range(2, k + 1):
        shorter, shorter_moves = multisets, moves
        multisets = list(combinations_with_replacement(range(n), j))
        rank = {T: i for i, T in enumerate(multisets)}
        add = [[rank[tuple(sorted(S + (v,)))] for S in shorter] for v in range(n)]
        moves = []
        for a in range(n):
            rows = [add[v] for v in closed[a]]
            # The tails of the multisets with head a are the shorter multisets
            # with minimum >= a: the last C(n-a+j-2, j-1) of them, in order.
            first = len(shorter) - comb(n - a + j - 2, j - 1)
            for tail_moves in shorter_moves[first:]:
                moves.append(list({row[s] for row in rows for s in tail_moves}))
    return multisets, moves


def ranked_push_solve(g: Graph, k: int) -> tuple[SolverTable, SolveResult]:
    """The k-cop game on the connected graph g, solved with every joint-move list built first.

    Each cop ply sends the robber masks that grew in the ply before along their
    joint-move lists; otherwise the plies, the growth record and the verdict
    are those of `copslab.solver.solve`.
    """
    n = g.n
    multisets, moves = _ranked_joint_moves(g, k)
    ranks = range(len(multisets))
    full = (1 << n) - 1
    reach = g.closed_masks
    occ = []
    C = []  # ply 1: every cop stays or steps, so the cops cover N[T]
    for T in multisets:
        o = c = 0
        for v in T:
            o |= 1 << v
            c |= reach[v]
        occ.append(o)
        C.append(c)
    R = occ[:]
    growth: list[Growth] = [(0, True, ranks, occ), (0, False, ranks, occ)]
    best = (0, occ.index(full)) if full in occ else None  # (ply, rank) of the first full C[T]
    trapped: dict[int, int] = {}  # C mask -> robber vertices whose closed neighbourhood it holds
    before = occ
    ply = 1
    while True:
        cops_grown = [T for T in ranks if C[T] != before[T]]
        if not cops_grown:
            break
        masks = [C[T] for T in cops_grown]
        growth.append((ply, True, cops_grown, masks))
        if best is None and full in masks:
            best = (ply, cops_grown[masks.index(full)])

        ply += 1  # the robber moves
        robber_grown = []
        for T in cops_grown:
            c = C[T]
            won = trapped.get(c)
            if won is None:
                free = full ^ c
                near = 0
                while free:
                    low = free & -free
                    near |= reach[low.bit_length() - 1]
                    free ^= low
                won = trapped[c] = full ^ near
            r = R[T]
            if r | won != r:
                R[T] = r | won
                robber_grown.append(T)
        if not robber_grown:
            break
        growth.append((ply, False, robber_grown, [R[T] for T in robber_grown]))

        ply += 1  # the cops move
        before = C[:]
        for T2 in robber_grown:
            m = R[T2]
            for T in moves[T2]:
                C[T] |= m

    table = SolverTable(k=k, n=n, multisets=multisets, growth=growth)
    if best is None:
        return table, SolveResult(False, None, None)
    best_ply, best_T = best
    return table, SolveResult(True, 1 + (best_ply + 1) // 2, multisets[best_T])


class OptimalCop:
    """Table-guided cop team: minimax placement, then moves that shrink the value.

    Against the table's own optimal robber this realizes exactly the solver's
    reported capture time. Deterministic: ties go to the lexicographically
    smallest cop multiset, and step assignment picks the lowest legal targets.
    """

    def __init__(self, g: Graph, table: SolverTable, result: SolveResult):
        if not result.cop_win:
            raise ValueError("no winning placement exists for this cop count")
        self._g = g
        self.table = table
        self.result = result

    def place(self, g: Graph) -> tuple[int, ...]:
        return self.result.best_initial_placement

    def move(self, g: Graph, state: GameState) -> tuple[int, ...]:
        T = tuple(sorted(state.cops))
        r = state.robber
        best_T2 = None
        best_val = None
        for T2 in joint_cop_moves(g, T):
            val = self.table.values.get((T2, r, False))
            if val is None:
                continue
            if best_val is None or val < best_val:
                best_val = val
                best_T2 = T2
        if best_T2 is None:
            raise AssertionError(f"cop-win state {T},{r} has no winning joint move")
        return _assign_steps(g, state.cops, best_T2)


def _assign_steps(
    g: Graph, current: tuple[int, ...], target: tuple[int, ...]
) -> tuple[int, ...]:
    # Map per-cop positions onto a target multiset with stay-or-edge steps.
    remaining = Counter(target)
    out: list[int | None] = [None] * len(current)

    def backtrack(i: int) -> bool:
        if i == len(current):
            return True
        a = current[i]
        for b in sorted(remaining):
            if remaining[b] and (b == a or g.has_edge(a, b)):
                remaining[b] -= 1
                out[i] = b
                if backtrack(i + 1):
                    return True
                remaining[b] += 1
                out[i] = None
        return False

    if not backtrack(0):
        raise AssertionError(f"no legal step assignment {current} -> {target}")
    return tuple(out)
