from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copslab.corpus import theorem_corpus
from copslab.generators import complete_graph, cycle_graph, path_graph, petersen_graph
from copslab.graphs import Graph, parse_graph6
from copslab.induced import _order, is_pt_free, longest_induced_path_order, verify_induced_path

from conftest import brute_longest_induced_path, graphs, sparse_graphs
from reference_induced import reference_longest_induced_path_order

HUNT = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "hunt.txt"


class TestVerifyInducedPath:
    def test_c5_arc(self):
        assert verify_induced_path(cycle_graph(5), [0, 1, 2, 3])

    def test_whole_cycle_is_not_a_path(self):
        assert not verify_induced_path(cycle_graph(5), [0, 1, 2, 3, 4])

    def test_single_vertex(self):
        assert verify_induced_path(complete_graph(3), [2])

    def test_empty(self):
        assert not verify_induced_path(path_graph(2), [])

    def test_repeat_vertex(self):
        assert not verify_induced_path(path_graph(3), [0, 1, 0])

    def test_nonadjacent_consecutive(self):
        assert not verify_induced_path(path_graph(4), [0, 2])

    def test_chord_breaks_it(self):
        assert not verify_induced_path(complete_graph(3), [0, 1, 2])


class TestLongestInducedPath:
    def test_clique_has_order_two(self):
        assert longest_induced_path_order(complete_graph(5))[0] == 2

    def test_path_is_its_own_witness(self):
        order, witness = longest_induced_path_order(path_graph(6))
        assert order == 6
        assert witness == [0, 1, 2, 3, 4, 5]

    def test_c5_order_four(self):
        # frozen from the subset-enumeration oracle
        assert brute_longest_induced_path(cycle_graph(5)) == 4
        assert longest_induced_path_order(cycle_graph(5))[0] == 4

    def test_petersen_order_five(self):
        assert brute_longest_induced_path(petersen_graph()) == 5
        assert longest_induced_path_order(petersen_graph())[0] == 5

    def test_cap_truncates(self):
        order, witness = longest_induced_path_order(cycle_graph(5), cap=3)
        assert order == 3 and len(witness) == 3
        assert verify_induced_path(cycle_graph(5), witness)

    def test_cap_above_optimum(self):
        assert longest_induced_path_order(complete_graph(4), cap=10)[0] == 2

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            longest_induced_path_order(path_graph(2), cap=0)

    @given(st.one_of(graphs(max_n=9), sparse_graphs(max_n=12)))
    @settings(max_examples=80, deadline=None)
    def test_matches_subset_enumeration(self, g):
        order, witness = longest_induced_path_order(g)
        assert order == brute_longest_induced_path(g)
        assert verify_induced_path(g, witness)
        assert len(witness) == order


def assert_matches_reference(g, brute=False):
    """Same orders as the unpruned search, uncapped and at every cap or t up to order + 1.

    `longest_induced_path_order` gives the reference order with a verified
    witness of exactly that many vertices, and the elimination search alone a
    verified path of that order; `is_pt_free` gives (free, certificate) with
    the capped search's witness as certificate. With `brute`, the order is
    also checked against subset enumeration.
    """
    order, _ = reference_longest_induced_path_order(g)
    if brute:
        assert brute_longest_induced_path(g) == order
    for cap in [None, *range(1, order + 2)]:
        expected, _ = reference_longest_induced_path_order(g, cap)
        found, witness = longest_induced_path_order(g, cap)
        assert found == expected, cap
        assert len(witness) == found and verify_induced_path(g, witness), cap
        path = _order(g, g.n if cap is None else min(cap, g.n), [0])
        assert len(path) == expected and verify_induced_path(g, path), cap
    for t in range(1, order + 2):
        found, witness = longest_induced_path_order(g, t)
        assert is_pt_free(g, t) == ((True, None) if found < t else (False, witness)), t


@st.composite
def tied_graphs(draw):
    """Disjoint unions of up to three circulants on 1-6 vertices, relabelled at random.

    Every vertex of a circulant has the same degree, so the elimination order
    rests on its tie-break, and most draws are disconnected.
    """
    edges: set[tuple[int, int]] = set()
    n = 0
    for size, jumps in draw(st.lists(st.tuples(st.integers(1, 6), st.sets(st.integers(1, 3))), min_size=1, max_size=3)):
        edges |= {(n + i, n + (i + j) % size) for i in range(size) for j in jumps if j % size}
        n += size
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


class TestMatchesReferenceSearch:
    def test_theorem_corpus(self):
        for _, g in theorem_corpus():
            assert_matches_reference(g)

    @given(sparse_graphs(max_n=16))
    @settings(max_examples=150, deadline=None)
    def test_sparse_graphs(self, g):
        assert_matches_reference(g)

    @given(st.one_of(tied_graphs(), graphs(max_n=9)))
    @settings(max_examples=150, deadline=None)
    def test_elimination_on_ties_and_components(self, g):
        assert_matches_reference(g, brute=True)

    def test_hunt_corpus_orders(self):
        # the 120 benchmark graphs with their stored order L (tag, graph6): the
        # order and a verified witness, P_{L+1}-free, and for t = L-2 .. L the
        # certificate of P_t is the witness capped at t
        lines = HUNT.read_text().splitlines()
        assert len(lines) == 120
        for line in lines:
            tag, text = line.split()
            g, L = parse_graph6(text), int(tag)
            order, witness = longest_induced_path_order(g)
            assert order == L and verify_induced_path(g, witness), text
            assert is_pt_free(g, L + 1) == (True, None), text
            for t in range(L - 2, L + 1):
                assert is_pt_free(g, t) == (False, longest_induced_path_order(g, cap=t)[1]), (text, t)


class TestPtFree:
    def test_c5_is_p5_free(self):
        assert is_pt_free(cycle_graph(5), 5) == (True, None)

    def test_p6_is_not_p5_free(self):
        free, cert = is_pt_free(path_graph(6), 5)
        assert not free
        assert len(cert) == 5
        assert verify_induced_path(path_graph(6), cert)

    def test_triangle_is_p3_free(self):
        assert is_pt_free(complete_graph(3), 3)[0]

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            is_pt_free(path_graph(2), 0)

    @given(graphs(max_n=9), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_t(self, g, t):
        if is_pt_free(g, t)[0]:
            assert is_pt_free(g, t + 1)[0]

    @given(st.one_of(graphs(max_n=9), sparse_graphs(max_n=12)), st.data())
    @settings(max_examples=120, deadline=None)
    def test_decision_matches_brute_force_and_capped_witness(self, g, data):
        # The decision search: free iff subset enumeration finds no t-vertex path,
        # and the certificate is the capped search's witness, at t = 1, 2, up to
        # the order and past n
        order = brute_longest_induced_path(g)
        t = data.draw(st.one_of(st.sampled_from([1, 2, order, order + 1, g.n + 1]), st.integers(1, g.n + 2)))
        free, cert = is_pt_free(g, t)
        assert free == (order < t)
        assert cert == (None if free else longest_induced_path_order(g, cap=t)[1])

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_small_t(self, t):
        # every vertex is a P_1; every edge a P_2; a clique has no P_3
        assert is_pt_free(Graph.from_edges(0, []), t) == (True, None)
        assert is_pt_free(Graph.from_edges(3, []), t) == ((False, [0]) if t == 1 else (True, None))
        assert is_pt_free(complete_graph(4), t)[0] == (t == 3)

    @given(graphs(max_n=9), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_certificate_is_sound(self, g, t):
        free, cert = is_pt_free(g, t)
        if not free:
            assert len(cert) == t
            assert verify_induced_path(g, cert)
