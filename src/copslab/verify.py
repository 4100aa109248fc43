"""Per-graph verdicts: the paper's capture bound and the open t-3 question.

A connected graph whose longest induced path has t-1 vertices is P_t-free.
`verify_theorem_bound` checks the paper's result on it: t-2 cops win, and the
path-hunting strategy captures every robber within t-1 cop moves; it also
holds the strategy to optimal play with the same cop count. That optimum comes
from a full solve where the work budget admits one; past it, a theorem settles
it when k vertices dominate the graph. The t-3 question
(do t-3 cops already suffice?) is open, so its status is recorded and never
counted as a failure: `TheoremBoundReport.conjecture_status` reads it off the
cop number the report already has, and `conjecture_probe` searches the cop
number only up to t-3.

This is the only module that decides a verdict; the CLI turns them into
records, and the solver knows nothing of the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .gyarfas import analyze_strategy
from .induced import longest_induced_path_order
from .solver import (
    DEFAULT_STATE_BUDGET,
    SolverBudgetError,
    cop_number,
    estimate_solver_work,
    has_dominating_set,
    solve,
    state_space_size,
)

# Joint-cop-move enumeration volume a solve is allowed before `over_work_budget`
# turns it away. Calibrated so a gated solve stays under a second.
DEFAULT_WORK_BUDGET = 10_000_000


def over_work_budget(g: Graph, k: int) -> str | None:
    """Why a solve of g with k cops is too much work to start, or None when it is not.

    The package's one gate on `estimate_solver_work`: theorem verification and
    the optimal robber both ask it before they solve.
    """
    work = estimate_solver_work(g, k)
    if work > DEFAULT_WORK_BUDGET:
        return f"solve with k={k} needs ~{work} move enumerations (budget {DEFAULT_WORK_BUDGET})"
    return None


def conjecture_status(t: int, cnum: int | None) -> str:
    """`conjecture_probe`'s verdict, read off a cop number already searched up to t-3 or beyond.

    The cop-number search decided every k <= t-3 under the same state budget,
    so HOLDS iff cop_number <= t-3 is exact, and VIOLATED otherwise.
    """
    if t < 5:
        return "UNKNOWN"
    return "HOLDS" if cnum is not None and cnum <= t - 3 else "VIOLATED"


@dataclass(frozen=True)
class TheoremBoundReport:
    """Checks that t-2 cops suffice on a graph whose longest induced path has t-1 vertices.

    (a) some placement of t-2 cops wins; (b) the path-hunting strategy
    captures every robber within t-1 cop moves; (c) its capture time is no
    better than optimal play with the same cop count. A full solve gives the
    optimum; when it exceeds the work budget, k < n cops need exactly 2 moves
    if k vertices dominate the graph. (c) is skipped with a reason only when
    neither the solve nor domination settles it.
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

    @property
    def conjecture_status(self) -> str:
        return conjecture_status(self.t, self.cop_number)


def verify_theorem_bound(g: Graph, state_budget: int = DEFAULT_STATE_BUDGET) -> TheoremBoundReport:
    """Run all three capture-bound checks on one connected graph."""
    lip, _ = longest_induced_path_order(g)
    t = max(lip + 1, 3)
    k = t - 2
    cnum = cop_number(g, k_max=k, state_budget=state_budget)
    analysis = analyze_strategy(g, t)
    strategy_moves = analysis.max_cop_moves
    check_b = analysis.captured_all and strategy_moves is not None and strategy_moves <= t - 1

    solver_moves = None
    check_c: bool | None = None
    skip_reason = over_work_budget(g, k)
    if state_space_size(g.n, k) > state_budget:
        skip_reason = skip_reason or f"solve with k={k} exceeds the state budget"
    elif skip_reason is None:
        _, result = solve(g, k, state_budget)
        solver_moves = result.optimal_capture_cop_moves
        check_c = (
            result.cop_win
            and strategy_moves is not None
            and strategy_moves >= solver_moves
        )
    elif k < g.n and has_dominating_set(g, k):
        # Over the work budget, a theorem: fewer cops than vertices leave a robber start
        # free, so the optimum is 2 exactly when k vertices dominate g (C(n, k) sets,
        # within the state budget's C(n+k-1, k) multisets).
        skip_reason, solver_moves = None, 2
        check_c = strategy_moves is not None and strategy_moves >= 2

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


def conjecture_probe(g: Graph, t: int,
                     state_budget: int = DEFAULT_STATE_BUDGET) -> tuple[str, dict, str | None]:
    """Whether t-3 cops already suffice on a connected graph, read off cop_number(g, t-3).

    Returns (status, evidence, settled_by): HOLDS when cop_number <= t-3,
    VIOLATED when every k <= t-3 loses (a counterexample candidate; never
    asserted as a failure - the question is open), UNKNOWN when t < 5 or the
    budget stops the search. Evidence carries the per-k verdicts needed to
    replay the claim: every k the search decided before the winning or
    budget-stopped one lost. settled_by names how the k that decided the
    verdict was settled ("dismantlability", "domination" or "solve"), and is
    None for UNKNOWN.
    """
    if t < 5:
        return "UNKNOWN", {"reason": f"probe needs t >= 5, got t={t}"}, None
    settled: dict[int, str] = {}
    cnum = None
    try:
        cnum = cop_number(g, t - 3, state_budget, settled=settled)
    except SolverBudgetError as exc:
        status, evidence, settled_by = "UNKNOWN", {"reason": str(exc)}, None
    else:
        status, settled_by = conjecture_status(t, cnum), settled[max(settled)]
        evidence = ({"k_max": t - 3, "cop_number": cnum} if cnum is not None
                    else {"k_max": t - 3, "states": state_space_size(g.n, t - 3)})
    evidence["per_k"] = [{"k": k, "cop_win": k == cnum} for k in settled]
    return status, evidence, settled_by
