from __future__ import annotations

import gc
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import copslab.solver as solver_module
import copslab.verify as verify_module
from copslab.corpus import theorem_corpus
from copslab.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from copslab.graphs import Graph
from copslab.induced import longest_induced_path_order
from copslab.solver import (
    SolverBudgetError,
    cop_number,
    estimate_solver_work,
    has_dominating_set,
    is_dismantlable,
    solve,
    state_space_size,
)
from copslab.verify import conjecture_probe, verify_theorem_bound

from conftest import cli_env, graphs, neighbours
from reference_solver import joint_cop_moves, ranked_push_solve, reference_solve


class TestSolveKnownValues:
    def test_path5_one_cop_wins(self):
        _, result = solve(path_graph(5), 1)
        assert result.cop_win
        assert result.best_initial_placement == (2,)
        assert result.optimal_capture_cop_moves == 3

    def test_p2_capture_time_two(self):
        _, result = solve(path_graph(2), 1)
        assert result.cop_win and result.optimal_capture_cop_moves == 2

    def test_c4_one_cop_loses(self):
        _, result = solve(cycle_graph(4), 1)
        assert not result.cop_win
        assert result.optimal_capture_cop_moves is None
        assert result.best_initial_placement is None

    def test_c4_two_cops_win_in_two(self):
        _, result = solve(cycle_graph(4), 2)
        assert result.cop_win and result.optimal_capture_cop_moves == 2

    def test_clique_capture_in_two(self):
        _, result = solve(complete_graph(6), 1)
        assert result.cop_win and result.optimal_capture_cop_moves == 2

    def test_petersen_needs_three(self):
        p = petersen_graph()
        assert not solve(p, 2)[1].cop_win
        result = solve(p, 3)[1]
        assert result.cop_win
        # three cops on a dominating set finish on move 2
        assert result.optimal_capture_cop_moves == 2

    def test_single_vertex(self):
        _, result = solve(path_graph(1), 1)
        assert result.cop_win and result.optimal_capture_cop_moves == 1


class TestCopNumber:
    def test_trees_are_one_cop_win(self):
        trees = [g for name, g in theorem_corpus(0) if name.startswith("tree-")]
        assert len(trees) > 12
        for g in trees[:12]:
            assert cop_number(g, 2) == 1

    def test_long_path_tree(self):
        assert cop_number(path_graph(12), 2) == 1

    def test_cycles_need_two(self):
        for n in (4, 7, 12):
            assert cop_number(cycle_graph(n), 3) == 2

    def test_petersen_is_three(self):
        assert cop_number(petersen_graph(), 4) == 3

    def test_bound_exceeded_returns_none(self):
        assert cop_number(petersen_graph(), 2) is None


class TestMonotonicityAndAudit:
    @pytest.mark.parametrize("g,k", [(cycle_graph(5), 2), (petersen_graph(), 3)])
    def test_extra_cop_preserves_win(self, g, k):
        assert solve(g, k)[1].cop_win
        assert solve(g, k + 1)[1].cop_win

    @pytest.mark.parametrize(
        "g,k",
        [
            (cycle_graph(5), 2),
            (path_graph(6), 1),
            (complete_graph(4), 2),
            (petersen_graph(), 2),
            (petersen_graph(), 3),  # a cop win
            (cycle_graph(12), 2),  # a long game
            (star_graph(7), 3),  # every placement with a cop on the centre wins at ply 1
        ],
    )
    def test_local_fixpoint(self, g, k):
        # recompute every state's value from its successors
        table, _ = solve(g, k)
        values = table.values
        from itertools import combinations_with_replacement

        for T in combinations_with_replacement(range(g.n), k):
            for r in range(g.n):
                if r in T:
                    assert values[(T, r, True)] == 0
                    assert values[(T, r, False)] == 0
                    continue
                succ_cops = [values.get((T2, r, False)) for T2 in joint_cop_moves(g, T)]
                expect = (
                    None
                    if all(s is None for s in succ_cops)
                    else 1 + min(s for s in succ_cops if s is not None)
                )
                assert values.get((T, r, True)) == expect
                succ_rob = [values.get((T, v, True)) for v in ({r} | neighbours(g, r))]
                expect = None if any(s is None for s in succ_rob) else 1 + max(succ_rob)
                assert values.get((T, r, False)) == expect


CORPUS = theorem_corpus(random_count=200)


def dismantlable(g) -> bool:
    """Nowakowski-Winkler / Quilliot: one cop wins iff dominated vertices peel the graph away.

    u is dominated when N[u] lies inside N[v] for another live vertex v; each
    removal costs O(n^2) subset tests on bitmasks, so the whole check is O(n^3).
    """
    closed = [sum(1 << u for u in neighbours(g, v)) | (1 << v) for v in range(g.n)]
    alive = (1 << g.n) - 1
    for _ in range(g.n - 1):
        live = [v for v in range(g.n) if alive >> v & 1]
        dominated = next(
            (u for u in live for v in live
             if u != v and closed[u] & alive & ~closed[v] == 0),
            None,
        )
        if dominated is None:
            return False
        alive &= ~(1 << dominated)
    return True


class TestAgainstOracles:
    def test_differential_against_reference_solver(self):
        compared = 0
        for _, g in CORPUS:
            for k in (1, 2, 3):
                if state_space_size(g.n, k) > 1200:
                    continue
                table, result = solve(g, k)
                ref_values, ref_result = reference_solve(g, k)
                assert result == ref_result, (g.edges(), k)
                assert table.values == ref_values, (g.edges(), k)
                compared += 1
        assert compared > 600

    def test_matches_ranked_push_solver_on_the_standard_corpus(self):
        # The k = t-2 solves that verify-theorem runs. Most of them exceed the
        # reach of reference_solve; a seeded 150 of the 251 keep the test short.
        admitted = []
        for _, g in CORPUS:
            k = max(longest_induced_path_order(g)[0] + 1, 3) - 2
            if verify_module.over_work_budget(g, k) is None:
                admitted.append((g, k))
        assert len(admitted) == 251
        for g, k in random.Random(0).sample(admitted, 150):
            table, result = solve(g, k)
            ref_table, ref_result = ranked_push_solve(g, k)
            assert result == ref_result, (g.edges(), k)
            assert table.values == ref_table.values, (g.edges(), k)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(graphs(max_n=9), st.integers(1, 4))
    def test_matches_ranked_push_solver_on_random_graphs(self, g, k):
        assume(g.is_connected())
        table, result = solve(g, k)
        ref_table, ref_result = ranked_push_solve(g, k)
        assert result == ref_result
        assert table.values == ref_table.values

    def test_one_cop_wins_iff_dismantlable(self):
        for name, g in CORPUS:
            assert solve(g, 1)[1].cop_win == dismantlable(g) == is_dismantlable(g), name

    def test_dismantlability_oracle_on_known_graphs(self):
        assert dismantlable(path_graph(6)) and dismantlable(complete_graph(5))
        assert not dismantlable(cycle_graph(4)) and not dismantlable(petersen_graph())

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(graphs(max_n=12))
    def test_src_dismantlability_matches_oracle_on_random_graphs(self, g):
        assume(g.is_connected())
        assert is_dismantlable(g) == dismantlable(g)


def kneser(n: int, k: int):
    """K(n, k): the k-subsets of range(n), adjacent when disjoint; K(5, 2) is the Petersen graph."""
    subsets = list(combinations(range(n), k))
    return Graph.from_edges(len(subsets), [(i, j) for i, j in combinations(range(len(subsets)), 2)
                                           if not set(subsets[i]) & set(subsets[j])])


def solve_only_cop_number(g, k_max):
    for k in range(1, k_max + 1):
        if solve(g, k)[1].cop_win:
            return k
    return None


def corona(h: Graph) -> Graph:
    """H o K1: a pendant vertex n + v hung on every vertex v of H; every pendant is a corner."""
    return Graph.from_edges(2 * h.n, h.edges() + [(v, h.n + v) for v in range(h.n)])


def has_corner(g: Graph) -> bool:
    """Whether some vertex u has a neighbour v with N[u] inside N[v], read pair by pair."""
    return any(neighbours(g, u) | {u} <= neighbours(g, v) | {v} for u in range(g.n) for v in neighbours(g, u))


@st.composite
def corner_rich_graphs(draw):
    """Connected graphs on at most 14 vertices with many corners: coronas H o K1 of
    connected H on 2-7 vertices, and cycles C_m (m = 4..8) with trees hung on them."""
    if draw(st.booleans()):
        h = draw(graphs(min_n=2, max_n=7))
        assume(h.is_connected())
        return corona(h)
    m = draw(st.integers(4, 8))
    edges = [(i, (i + 1) % m) for i in range(m)]
    n = draw(st.integers(m, 14))
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(m, n)]
    return Graph.from_edges(n, edges)


PETERSEN_WITH_TAIL = Graph.from_edges(12, petersen_graph().edges() + [(0, 10), (10, 11)])


class TestCopNumberShortcuts:
    """cop_number settles k = 1 by dismantlability and k >= 2 by domination; a solve-only loop agrees."""

    def test_corpus_matches_solve_only(self):
        for name, g in CORPUS:
            for k_max in (1, 2, 3):
                assert cop_number(g, k_max) == solve_only_cop_number(g, k_max), (name, k_max)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(graphs(max_n=9))
    def test_random_connected_graphs_match_solve_only(self, g):
        assume(g.is_connected())
        assert cop_number(g, 3) == solve_only_cop_number(g, 3)

    @pytest.mark.parametrize("g,k_max,expected", [
        *((cycle_graph(n), 2, 2) for n in (4, 5, 6, 9)),
        (petersen_graph(), 3, 3),
        (kneser(6, 2), 3, 3),
        (kneser(7, 2), 3, 3),
    ], ids=["C4", "C5", "C6", "C9", "petersen", "K(6,2)", "K(7,2)"])
    def test_known_graphs_match_solve_only(self, g, k_max, expected):
        assert cop_number(g, k_max) == solve_only_cop_number(g, k_max) == expected

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(corner_rich_graphs())
    def test_corner_rich_graphs_match_solve_only(self, g):
        assert cop_number(g, 3) == solve_only_cop_number(g, 3)

    @pytest.mark.parametrize("g,core_n", [
        *((corona(cycle_graph(n)), n) for n in (4, 5, 6, 7)),
        (PETERSEN_WITH_TAIL, 10),
        (cycle_graph(7), 7),
    ], ids=["C4oK1", "C5oK1", "C6oK1", "C7oK1", "petersen+tail", "C7"])
    def test_solves_only_the_core(self, monkeypatch, g, core_n):
        # every k that domination leaves open is solved on the core: a graph with no corner
        solved = []
        real_solve = solver_module.solve

        def checked_solve(h, k, *args):
            assert not has_corner(h)
            solved.append(h.n)
            return real_solve(h, k, *args)

        monkeypatch.setattr(solver_module, "solve", checked_solve)
        assert cop_number(g, 3) == solve_only_cop_number(g, 3)
        assert solved and set(solved) == {core_n}

    def test_core_keeps_the_budget_and_labels_of_the_graph(self):
        # k = 2 and 3 are solved on the 10-vertex Petersen core, yet held to the
        # 12-vertex state budget; the tail's two vertices need a third dominator
        g = PETERSEN_WITH_TAIL
        settled = {}
        assert cop_number(g, 3, settled=settled) == 3
        assert settled == {1: "dismantlability", 2: "solve", 3: "solve"}
        assert solver_module.core(g) == (1 << 10) - 1
        for budget in (state_space_size(g.n, 2) - 1, state_space_size(10, 2)):
            with pytest.raises(SolverBudgetError) as info:
                cop_number(g, 3, state_budget=budget)
            assert info.value.required == state_space_size(g.n, 2)

    def test_domination_needs_k_distinct_vertices(self):
        assert has_dominating_set(cycle_graph(6), 2)  # N[0] and N[3]
        assert not has_dominating_set(cycle_graph(7), 2)
        assert has_dominating_set(petersen_graph(), 3) and not has_dominating_set(petersen_graph(), 2)

    @pytest.mark.parametrize("g,k", [(complete_graph(3), 1), (cycle_graph(4), 2), (petersen_graph(), 2)],
                             ids=["dismantlability", "domination", "solve"])
    def test_budget_is_checked_for_every_k_however_settled(self, g, k):
        with pytest.raises(SolverBudgetError) as info:
            cop_number(g, 3, state_budget=state_space_size(g.n, k) - 1)
        assert info.value.required == state_space_size(g.n, k)

    def test_disconnected_graph_rejected_before_any_k(self):
        with pytest.raises(ValueError, match="connected, non-empty"):
            cop_number(Graph.from_edges(2, []), 2, state_budget=1)


class TestBudgets:
    def test_state_budget_error_reports_requirement(self):
        with pytest.raises(SolverBudgetError) as info:
            solve(cycle_graph(6), 3, state_budget=100)
        assert info.value.required == state_space_size(6, 3)
        assert "budget" in str(info.value)

    def test_work_estimate_monotone_in_k(self):
        g = gnp_random_graph(9, 0.4, 5)
        works = [estimate_solver_work(g, k) for k in (1, 2, 3, 4)]
        assert works == sorted(works) and works[0] > 0

    def test_work_estimate_without_cops_is_robber_positions(self):
        assert estimate_solver_work(gnp_random_graph(9, 0.4, 5), 0) == 9

    def test_work_estimate_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            estimate_solver_work(cycle_graph(5), -1)


def test_solve_leaves_no_reference_cycles():
    # A solve's joint-move lists must be freed when it returns, not at the next
    # cyclic collection: a batch of solves in one process would pile them up.
    gc.collect()
    gc.disable()
    try:
        solve(petersen_graph(), 3)
        solve(cycle_graph(12), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solver_loads_no_strategy_code():
    code = "import sys, copslab.solver; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(),
                          check=True)
    loaded = set(proc.stdout.split())
    assert "copslab.solver" in loaded
    assert not loaded & {"copslab.gyarfas", "copslab.induced", "copslab.engine"}


class TestTheoremBound:
    def test_c5(self):
        report = verify_theorem_bound(cycle_graph(5))
        assert (report.lip_order, report.t) == (4, 5)
        assert report.cop_number == 2
        assert report.strategy_capture_moves == 4
        assert report.solver_capture_moves == 2
        assert report.passed

    def test_complete6(self):
        report = verify_theorem_bound(complete_graph(6))
        assert report.t == 3
        assert report.cop_number == 1
        assert report.strategy_capture_moves <= 2
        assert report.passed

    def test_petersen(self):
        report = verify_theorem_bound(petersen_graph())
        assert (report.lip_order, report.t) == (5, 6)
        assert report.cop_number == 3
        assert report.check_time_consistency is True
        assert report.passed

    def test_star(self):
        report = verify_theorem_bound(star_graph(7))
        assert report.t == 4  # longest induced path in a star has 3 vertices
        assert report.cop_number == 1
        assert report.passed

    def test_time_consistency_solve_calls(self, monkeypatch):
        calls = []
        real_solve = solver_module.solve

        def counting_solve(g, k, *args):
            calls.append(k)
            return real_solve(g, k, *args)

        monkeypatch.setattr(solver_module, "solve", counting_solve)  # the cop-number search's
        monkeypatch.setattr(verify_module, "solve", counting_solve)  # the capture-time check's
        # K_6: t = 3; dismantlability settles k = t-2 = 1, so it is solved once for its capture time
        report = verify_theorem_bound(complete_graph(6))
        assert calls == [1] and report.solver_capture_moves == 2
        calls.clear()
        # C_5: k = 1 by dismantlability, k = 2 by domination, and k = t-2 = 3 solved once
        verify_theorem_bound(cycle_graph(5))
        assert calls == [3]
        calls.clear()
        # C_4: t = 4; with domination off, the cop-number search solves k = t-2 = 2 for its
        # verdict and the capture-time check solves it again for its time
        monkeypatch.setattr(solver_module, "has_dominating_set", lambda g, k: False)
        report = verify_theorem_bound(cycle_graph(4))
        assert calls == [2, 2] and report.cop_number == 2 and report.solver_capture_moves == 2

    def test_cop_number_records_results(self):
        settled = {}
        assert cop_number(cycle_graph(5), 3, settled=settled) == 2
        assert settled == {1: "dismantlability", 2: "domination"}
        settled = {}
        assert cop_number(petersen_graph(), 3, settled=settled) == 3
        assert settled == {1: "dismantlability", 2: "solve", 3: "domination"}

    def test_work_budget_skips_solver_check(self, monkeypatch):
        monkeypatch.setattr(verify_module, "DEFAULT_WORK_BUDGET", 10)
        report = verify_theorem_bound(cycle_graph(12))
        assert report.solver_capture_moves is None
        assert report.solver_skip_reason is not None
        assert report.check_time_consistency is None
        assert report.passed  # (a) and (b) still verified


class TestConjectureProbe:
    def test_holds_on_c5(self):
        status, evidence, _ = conjecture_probe(cycle_graph(5), 5)
        assert status == "HOLDS"
        assert evidence["cop_number"] == 2

    def test_holds_trivially_on_cliques(self):
        status, evidence, _ = conjecture_probe(complete_graph(6), 5)
        assert status == "HOLDS"
        assert evidence["cop_number"] == 1

    def test_unknown_below_t5(self):
        status, evidence, _ = conjecture_probe(complete_graph(4), 4)
        assert status == "UNKNOWN"

    def test_unknown_on_budget(self):
        status, evidence, _ = conjecture_probe(petersen_graph(), 6, state_budget=10)
        assert status == "UNKNOWN"
        assert "budget" in evidence["reason"]

    def test_violated_shape_is_replayable(self):
        # C_4 is one cop short of capture: with t=5 forced, k_max=2 holds;
        # fabricate a VIOLATED by probing a cycle long enough to need 2 cops
        # against k_max=1 via t=4 - not a real conjecture case (t<5 guards),
        # so instead check the evidence dict of a HOLDS run replays.
        g = cycle_graph(6)
        status, evidence, _ = conjecture_probe(g, 6)
        assert status == "HOLDS"
        for entry in evidence["per_k"]:
            assert solve(g, entry["k"])[1].cop_win == entry["cop_win"]
