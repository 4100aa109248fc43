"""Ground-truth game solving by retrograde analysis over the full state space.

The game's states are (sorted cop multiset, robber vertex, side to move); cops
are interchangeable, which shrinks the space by up to k!. Values count plies
(half-moves) until capture under optimal play from both sides; a missing
value means the robber survives forever.

The solve ranks the size-k cop multisets in `combinations_with_replacement`
(lexicographic) order. The robber dimension is a bitset: for each multiset T,
`C[T]` holds the robber vertices already won with the cops to move and `R[T]`
those won with the robber to move, both starting as the occupied vertices.
Plies then alternate until one grows no mask:

  cop ply     C[T] |= R[T'] for every T' one joint move from T
  robber ply  R[T] |= {r : N[r] is inside C[T]}

The first ply at which `C[T]` (or `R[T]`) holds r is the value of the state
(T, r, cops to move) (or robber to move), and the ply at which `C[T]` becomes
full is placement T's worst case. The per-state value dictionary is rebuilt
from the recorded growth only when a caller asks for it.

A cop ply runs from its smaller side, as a direction-optimizing BFS does
(Beamer, Asanovic and Patterson, SC 2012). The open placements are those
whose `C[T]` is not yet full. When fewer placements grew in the robber ply
than are open, the ply pushes: it ORs each grown `R[T']` into `C[T]` along
the joint moves of T'. Otherwise it pulls: each open T ORs `R[T']` over its
own joint moves and stops at the first that fills `C[T]`. The joint-move
relation is symmetric, and each `C[T]` already holds the `R[T']` of the ply
before, so both directions leave the same masks and the same growth record.
A joint-move list is a list of ranks, built the first time a ply needs it
and then kept, so a placement that wins everywhere before its list is needed
never gets one.

Reporting converts plies into "cop moves including the initial placement"
(placement is cop move 1), the single currency shared with the engine and
the path-hunting strategy. Large cop counts explode the joint-move lists:
the solver only enforces the state budget, so callers ask the one gate on
`estimate_solver_work`, `verify.over_work_budget`, before committing to
anything past k = 4 or so.

`cop_number` only needs to know whether k cops win, so it solves a k only
when no theorem decides it: k = 1 is decided by dismantlability, and a k >= 2
is a win when k vertices dominate the graph. The peeling that decides k = 1
leaves the core, and a retract keeps the cop number, so any k still open is
solved on the core, not on the graph. Each k must still fit the state budget
of the whole graph, as if it were solved.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import or_

from .graphs import Graph, members

DEFAULT_STATE_BUDGET = 50_000_000


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


def _joint_moves(
    g: Graph, k: int
) -> tuple[list[tuple[int, ...]], list[list[int] | None], Callable[[int], list[int]]]:
    """The size-k cop multisets in lexicographic order, their joint-move lists, and the list builder.

    joint(T) = {v + S : v in N[T[0]], S in joint(T[1:])}. An add-vertex table
    maps (rank of S among the size j-1 multisets, v) to the rank of S + v
    among the size j multisets. A list is None until `build(T)` makes and
    keeps it, along with the shorter tail lists it needs. `build` does not
    call itself, so the lists are freed with the last reference to it.
    """
    n = g.n
    closed = [list(members(mask)) for mask in g.closed_masks]
    multisets = [(v,) for v in range(n)]
    # Indexed by size j: the lists built so far and, per rank, the rank of its
    # tail and the add-table rows of its head's closed neighbourhood.
    lists: list[list[list[int] | None]] = [[], closed]
    tails: list[list[int]] = [[], []]
    head_rows: list[list[list[list[int]]]] = [[], []]
    for j in range(2, k + 1):
        shorter = multisets
        multisets = list(combinations_with_replacement(range(n), j))
        rank = {T: i for i, T in enumerate(multisets)}
        add = [[rank[tuple(sorted(S + (v,)))] for S in shorter] for v in range(n)]
        tail: list[int] = []
        rows: list[list[list[int]]] = []
        for a in range(n):
            # The tails of the multisets with head a are the shorter multisets
            # with minimum >= a: the last C(n-a+j-2, j-1) of them, in order.
            first = len(shorter) - comb(n - a + j - 2, j - 1)
            tail += range(first, len(shorter))
            rows += [[add[v] for v in closed[a]]] * (len(shorter) - first)
        lists.append([None] * len(multisets))
        tails.append(tail)
        head_rows.append(rows)

    def build(T: int) -> list[int]:
        missing = []  # (size, rank) down the chain of tails, to the first list already built
        j = k
        while lists[j][T] is None:
            missing.append((j, T))
            T = tails[j][T]
            j -= 1
        moves = lists[j][T]
        for j, T in reversed(missing):
            moves = lists[j][T] = list({row[x] for row in head_rows[j][T] for x in moves})
        return moves

    return multisets, lists[k], build


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

    multisets, moves, build = _joint_moves(g, k)
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
    unfilled = [T for T in ranks if C[T] != full]  # the open placements, in rank order
    cops_grown = [T for T in ranks if C[T] != occ[T]]
    ply = 1
    while cops_grown:
        masks = [C[T] for T in cops_grown]
        growth.append((ply, True, cops_grown, masks))
        if full in masks:
            if best is None:
                best = (ply, cops_grown[masks.index(full)])
            unfilled = [T for T in unfilled if C[T] != full]

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
        if len(robber_grown) < len(unfilled):
            # push: send each grown R[T2] along T2's joint moves
            before = C[:]
            for T2 in robber_grown:
                m = R[T2]
                for T in moves[T2] or build(T2):
                    C[T] |= m
            cops_grown = [T for T in unfilled if C[T] != before[T]]
        else:
            # pull: each open T ORs R over its joint moves, up to the first that fills C[T]
            cops_grown = []
            for T in unfilled:
                c = C[T]
                for T2 in moves[T] or build(T):
                    c |= R[T2]
                    if c == full:
                        break
                if c != C[T]:
                    C[T] = c
                    cops_grown.append(T)

    table = SolverTable(k=k, n=n, multisets=multisets, growth=growth)
    if best is None:
        return table, SolveResult(False, None, None)
    best_ply, best_T = best
    return table, SolveResult(True, 1 + (best_ply + 1) // 2, multisets[best_T])


def is_dismantlable(g: Graph) -> bool:
    """Whether one cop wins on the connected graph g (Nowakowski-Winkler; Quilliot).

    A corner u has N[u] inside N[v] for some other vertex v; removing it
    leaves a retract of the graph, which is one-cop-win iff the graph is, so
    corners are peeled off in any order until one vertex is left or none is
    a corner (see `core`).
    """
    return core(g).bit_count() <= 1


def core(g: Graph) -> int:
    """The vertex mask left once corners are peeled off g until one vertex is left or none is a corner.

    Corners are peeled in passes, lowest label first. Since u is in N[u], the
    dominator v of a corner u is one of its neighbours. Each step is a retract,
    so for every k >= 1, k cops win on g iff they win on the subgraph induced
    on the core (Berarducci-Intrigila): a cop team on the retract catches the
    image of the robber, and then the robber itself one move later.
    """
    closed = g.closed_masks
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
    return alive


def has_dominating_set(g: Graph, k: int) -> bool:
    """Whether some k distinct vertices have closed neighbourhoods covering g.

    k cops placed on them capture any robber on their next move, so they win.
    The scan tries C(n, k) sets, fewer than the C(n+k-1, k) cop multisets a
    k-cop solve ranks.
    """
    full = (1 << g.n) - 1
    return any(reduce(or_, sets) == full for sets in combinations(g.closed_masks, k))


def cop_number(
    g: Graph,
    k_max: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    settled: dict[int, str] | None = None,
) -> int | None:
    """Smallest k <= k_max with a cop win, or None meaning "> k_max".

    k = 1 is settled by `is_dismantlable`, and a k >= 2 is a win without a
    solve when `has_dominating_set` finds k dominating vertices on g; every
    other k is solved on the subgraph induced on g's `core`, which k cops win
    iff they win g. Every k is held to the state budget of g, as if g itself
    were solved, so a budget stop raises SolverBudgetError at the same k
    whatever the core.

    When `settled` is given, each k decided is mapped, in order, to how:
    "dismantlability", "domination" or "solve".
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if g.n == 0 or not g.is_connected():
        raise ValueError("solver requires a connected, non-empty graph")
    reduced = None  # the subgraph induced on the core, built for the first solve
    for k in range(1, k_max + 1):
        required = state_space_size(g.n, k)
        if required > state_budget:
            raise SolverBudgetError(required, state_budget)
        if k == 1:
            kept = core(g)
            how, win = "dismantlability", kept.bit_count() <= 1
        elif has_dominating_set(g, k):
            how, win = "domination", True
        else:
            if reduced is None:
                reduced = g.induced(kept)
            how, win = "solve", solve(reduced, k, state_budget)[1].cop_win
        if settled is not None:
            settled[k] = how
        if win:
            return k
    return None
