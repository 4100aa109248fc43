"""Ground-truth game solving by retrograde analysis over the full state space.

The game's states are (sorted cop multiset, robber vertex, side to move); cops
are interchangeable, which shrinks the space by up to k!. Values count plies
(half-moves) until capture under optimal play from both sides; a missing
value means the robber survives forever.

The solve ranks the size-k cop multisets in `combinations_with_replacement`
(lexicographic) order and builds each multiset's joint moves once, as a list
of ranks. The robber dimension is a bitset: for each multiset T, `C[T]` holds
the robber vertices already won with the cops to move and `R[T]` those won
with the robber to move, both starting as the occupied vertices. Plies then
alternate until one grows no mask:

  cop ply     C[T] |= R[T'] for every T' one joint move from T
  robber ply  R[T] |= {r : N[r] is inside C[T]}

The first ply at which `C[T]` (or `R[T]`) holds r is the value of the state
(T, r, cops to move) (or robber to move), and the ply at which `C[T]` becomes
full is placement T's worst case. The per-state value dictionary is rebuilt
from the recorded growth only when a caller asks for it.

Reporting converts plies into "cop moves including the initial placement"
(placement is cop move 1), the single currency shared with the engine and
the path-hunting strategy. Large cop counts explode the joint-move lists:
the solver only enforces the state budget, so callers gate on
`estimate_solver_work` before committing to anything past k = 4 or so.

`cop_number` only needs to know whether k cops win, so it solves a k only
when no theorem decides it: k = 1 is decided by dismantlability, and a k >= 2
is a win when k vertices dominate the graph. Each k must still fit the state
budget, as if it were solved.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import or_

from .engine import GameState
from .graphs import Graph
from .gyarfas import analyze_strategy
from .induced import longest_induced_path_order

DEFAULT_STATE_BUDGET = 50_000_000
# Joint-cop-move enumeration volume a solve is allowed before callers that
# gate on feasibility (theorem verification, optimal-robber construction)
# should skip it. Calibrated so a gated solve stays under a second.
DEFAULT_WORK_BUDGET = 10_000_000


class SolverBudgetError(RuntimeError):
    """State space exceeds the configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"instance needs {required} states but the budget is {budget}; "
            f"rerun with a budget of at least {required}"
        )
        self.required = required
        self.budget = budget


# One ply's growth: (ply, cops_to_move, ranks of the multisets that grew, their masks after it).
Growth = tuple[int, bool, Sequence[int], list[int]]


@dataclass
class SolverTable:
    """Value map: (sorted cop tuple, robber vertex, cops_to_move) -> plies to capture.

    Missing keys are robber wins. States with the robber on a cop hold 0. The
    map is built from the solve's growth record on first access.
    """

    k: int
    n: int
    multisets: list[tuple[int, ...]] = field(repr=False)
    growth: list[Growth] = field(repr=False)

    @cached_property
    def values(self) -> dict[tuple[tuple[int, ...], int, bool], int]:
        out: dict[tuple[tuple[int, ...], int, bool], int] = {}
        seen = {True: [0] * len(self.multisets), False: [0] * len(self.multisets)}
        for ply, cops_to_move, ranks, masks in self.growth:
            prev = seen[cops_to_move]
            for T, mask in zip(ranks, masks):
                new = mask & ~prev[T]
                prev[T] = mask
                cops = self.multisets[T]
                while new:
                    low = new & -new
                    out[(cops, low.bit_length() - 1, cops_to_move)] = ply
                    new ^= low
        return out

    def value(self, cops, robber: int, cops_to_move: bool) -> int | None:
        return self.values.get((tuple(sorted(cops)), robber, cops_to_move))


@dataclass(frozen=True)
class SolveResult:
    cop_win: bool
    optimal_capture_cop_moves: int | None
    best_initial_placement: tuple[int, ...] | None


def state_space_size(n: int, k: int) -> int:
    return comb(n + k - 1, k) * n * 2


def estimate_solver_work(g: Graph, k: int) -> int:
    """Joint-move enumeration volume: sum over cop multisets of per-cop options.

    This is the complete homogeneous symmetric sum h_k over (deg(v)+1) times
    the robber-position count, an upper bound on the solver's dominant cost.
    With no cops (k = 0) it is the robber-position count alone.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    h = [0] * (k + 1)
    h[0] = 1
    for v in range(g.n):
        w = g.degree(v) + 1
        for i in range(1, k + 1):
            h[i] += h[i - 1] * w
    return h[k] * max(g.n, 1)


def joint_cop_moves(g: Graph, cops: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All sorted cop multisets reachable in one joint move (each cop stays or steps).

    Enumeration groups cops sharing a vertex to avoid the k! blowup of naive
    products; output is sorted and duplicate-free.
    """
    groups = Counter(cops)
    per_group = []
    for v, c in sorted(groups.items()):
        opts = sorted(g.adj[v] | {v})
        per_group.append(list(combinations_with_replacement(opts, c)))
    out = set()
    for parts in product(*per_group):
        merged: list[int] = []
        for part in parts:
            merged.extend(part)
        merged.sort()
        out.add(tuple(merged))
    return sorted(out)


def _ranked_joint_moves(g: Graph, k: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The size-k cop multisets in lexicographic order, and each one's joint moves as ranks.

    joint(T) = {v + S : v in N[T[0]], S in joint(T[1:])}, built size by size;
    an add-vertex table maps (rank of S among the size j-1 multisets, v) to
    the rank of S + v among the size j multisets.
    """
    n = g.n
    closed = [sorted(g.adj[v] | {v}) for v in range(n)]
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


def solve(
    g: Graph, k: int, state_budget: int = DEFAULT_STATE_BUDGET
) -> tuple[SolverTable, SolveResult]:
    """Solve the k-cop game on g exactly.

    Returns the full table plus the placement-level verdict: the cops win iff
    some placement beats every robber start; the reported capture time counts
    the placement as cop move 1 and assumes value-maximizing robber starts.
    """
    if g.n == 0 or not g.is_connected():
        raise ValueError("solver requires a connected, non-empty graph")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = g.n
    required = state_space_size(n, k)
    if required > state_budget:
        raise SolverBudgetError(required, state_budget)

    multisets, moves = _ranked_joint_moves(g, k)
    ranks = range(len(multisets))
    full = (1 << n) - 1
    reach = [(1 << v) | sum(1 << u for u in g.adj[v]) for v in range(n)]  # N[v] as a bitmask
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


def _closed_masks(g: Graph) -> list[int]:
    """N[v] as a bitmask, for every vertex v."""
    masks = []
    for v, near in enumerate(g.adj):
        mask = 1 << v
        for u in near:
            mask |= 1 << u
        masks.append(mask)
    return masks


def is_dismantlable(g: Graph) -> bool:
    """Whether one cop wins on the connected graph g (Nowakowski-Winkler; Quilliot).

    A corner u has N[u] inside N[v] for some other vertex v; removing it
    leaves a retract of the graph, which is one-cop-win iff the graph is, so
    corners are peeled off in any order until one vertex is left or none is
    a corner. Since u is in N[u], its dominator v is one of its neighbours.
    """
    closed = _closed_masks(g)
    alive, left = (1 << g.n) - 1, g.n
    peeled = True
    while peeled and left > 1:
        peeled = False
        for u in range(g.n):
            if not alive >> u & 1:
                continue
            near = closed[u] & alive
            others = near ^ (1 << u)
            while others:
                low = others & -others
                if near & ~closed[low.bit_length() - 1] == 0:
                    alive ^= 1 << u
                    left -= 1
                    peeled = True
                    break
                others ^= low
    return left <= 1


def has_dominating_set(g: Graph, k: int) -> bool:
    """Whether some k distinct vertices have closed neighbourhoods covering g.

    k cops placed on them capture any robber on their next move, so they win.
    The scan tries C(n, k) sets, fewer than the C(n+k-1, k) cop multisets a
    k-cop solve ranks.
    """
    full = (1 << g.n) - 1
    return any(reduce(or_, sets) == full for sets in combinations(_closed_masks(g), k))


def cop_number(
    g: Graph,
    k_max: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    results: dict[int, SolveResult] | None = None,
    settled: dict[int, str] | None = None,
) -> int | None:
    """Smallest k <= k_max with a cop win, or None meaning "> k_max".

    k = 1 is settled by `is_dismantlable`, and a k >= 2 is a win without a
    solve when `has_dominating_set` finds k dominating vertices; every other
    k is solved. Every k is held to the state budget all the same, so a
    budget stop raises SolverBudgetError at the same k as a solve would.

    When `results` is given, the SolveResult of each k that was solved is
    stored in it; when `settled` is given, each k decided is mapped, in
    order, to how: "dismantlability", "domination" or "solve".
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if g.n == 0 or not g.is_connected():
        raise ValueError("solver requires a connected, non-empty graph")
    for k in range(1, k_max + 1):
        required = state_space_size(g.n, k)
        if required > state_budget:
            raise SolverBudgetError(required, state_budget)
        if k == 1:
            how, win = "dismantlability", is_dismantlable(g)
        elif has_dominating_set(g, k):
            how, win = "domination", True
        else:
            _, result = solve(g, k, state_budget)
            how, win = "solve", result.cop_win
            if results is not None:
                results[k] = result
        if settled is not None:
            settled[k] = how
        if win:
            return k
    return None


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


@dataclass(frozen=True)
class TheoremBoundReport:
    """Checks that t-2 cops suffice on a graph whose longest induced path has t-1 vertices.

    (a) some placement of t-2 cops wins; (b) the path-hunting strategy
    captures every robber within t-1 cop moves; (c) its capture time is no
    better than optimal play with the same cop count (skipped with a reason
    when the full solve exceeds the work budget).
    """

    n: int
    m: int
    lip_order: int
    t: int
    cop_number: int | None
    strategy_capture_moves: int | None
    solver_capture_moves: int | None
    solver_skip_reason: str | None
    check_copwin: bool
    check_strategy_bound: bool
    check_time_consistency: bool | None

    @property
    def passed(self) -> bool:
        return (
            self.check_copwin
            and self.check_strategy_bound
            and self.check_time_consistency is not False
        )


def verify_theorem_bound(
    g: Graph,
    state_budget: int = DEFAULT_STATE_BUDGET,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> TheoremBoundReport:
    """Run all three capture-bound checks on one connected graph."""
    lip, _ = longest_induced_path_order(g)
    t = max(lip + 1, 3)
    k = t - 2
    solved: dict[int, SolveResult] = {}
    cnum = cop_number(g, k_max=k, state_budget=state_budget, results=solved)
    analysis = analyze_strategy(g, t)
    strategy_moves = analysis.max_cop_moves
    check_b = analysis.captured_all and strategy_moves is not None and strategy_moves <= t - 1

    solver_moves = None
    skip_reason = None
    check_c: bool | None = None
    work = estimate_solver_work(g, k)
    if work > work_budget:
        skip_reason = f"solve with k={k} needs ~{work} move enumerations (budget {work_budget})"
    elif state_space_size(g.n, k) > state_budget:
        skip_reason = f"solve with k={k} exceeds the state budget"
    else:
        result = solved[k] if k in solved else solve(g, k, state_budget)[1]
        solver_moves = result.optimal_capture_cop_moves
        check_c = (
            result.cop_win
            and strategy_moves is not None
            and strategy_moves >= solver_moves
        )

    return TheoremBoundReport(
        n=g.n,
        m=g.m,
        lip_order=lip,
        t=t,
        cop_number=cnum,
        strategy_capture_moves=strategy_moves,
        solver_capture_moves=solver_moves,
        solver_skip_reason=skip_reason,
        check_copwin=cnum is not None,
        check_strategy_bound=check_b,
        check_time_consistency=check_c,
    )

