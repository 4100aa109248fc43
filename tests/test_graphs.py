from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copslab.generators import (
    complete_graph,
    connected_ptfree_graph,
    cycle_graph,
    generate,
    gnp_random_graph,
    path_graph,
    petersen_graph,
    star_graph,
    GenerationError,
)
from copslab.graphs import (
    MAX_EDGE_LIST_VERTICES,
    Graph,
    GraphFormatError,
    closed_neighborhood,
    components_within,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    shortest_path_within,
)
from copslab.induced import is_pt_free

from conftest import graphs, uf_components
from reference_graph6 import reference_encode_graph6, reference_parse_graph6


def _bfs_distances(g: Graph, src: int) -> dict[int, int]:
    from collections import deque

    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _all_shortest_paths(g: Graph, src: int, dst: int) -> list[list[int]]:
    dist = _bfs_distances(g, src)
    if dst not in dist:
        return []
    out: list[list[int]] = []

    def walk(prefix: list[int]) -> None:
        tip = prefix[-1]
        if tip == dst:
            out.append(list(prefix))
            return
        for w in g.adj[tip]:
            if dist.get(w) == dist[tip] + 1 and dist[w] <= dist[dst]:
                walk(prefix + [w])

    walk([src])
    return [p for p in out if len(p) - 1 == dist[dst]]


class TestGraphBasics:
    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(0, 0)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_edges_sorted_and_counted(self):
        g = Graph.from_edges(4, [(2, 1), (0, 3), (1, 0)])
        assert g.edges() == [(0, 1), (0, 3), (1, 2)]
        assert g.m == 3

    @given(graphs(max_n=8))
    def test_adjacency_symmetric_no_loops(self, g):
        for v in range(g.n):
            assert v not in g.adj[v]
            for u in g.adj[v]:
                assert v in g.adj[u]


class TestClosedNeighborhood:
    def test_center_of_p3(self):
        assert closed_neighborhood(path_graph(3), 1) == {0, 1, 2}

    def test_complete_graph(self):
        assert closed_neighborhood(complete_graph(4), 0) == {0, 1, 2, 3}

    def test_cycle_wraparound(self):
        assert closed_neighborhood(cycle_graph(5), 0) == {0, 1, 4}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_neighborhood(path_graph(3), 3)


class TestComponentsWithin:
    def test_connected_arc(self):
        assert components_within(cycle_graph(5), frozenset({1, 2, 3, 4})) == [
            frozenset({1, 2, 3, 4})
        ]

    def test_isolated_vertices(self):
        assert components_within(path_graph(5), frozenset({0, 2, 4})) == [
            frozenset({0}),
            frozenset({2}),
            frozenset({4}),
        ]

    def test_two_arcs(self):
        assert components_within(cycle_graph(6), frozenset({0, 1, 3, 4})) == [
            frozenset({0, 1}),
            frozenset({3, 4}),
        ]

    def test_empty_region(self):
        assert components_within(path_graph(3), frozenset()) == []

    @given(graphs(max_n=9), st.data())
    def test_matches_union_find(self, g, data):
        region = frozenset(
            v for v in range(g.n) if data.draw(st.booleans(), label=f"keep{v}")
        )
        assert components_within(g, region) == uf_components(g, region)

    @given(graphs(max_n=9))
    def test_single_component_iff_connected(self, g):
        comps = components_within(g, frozenset(range(g.n)))
        assert (len(comps) == 1) == (g.n > 0 and g.is_connected())


class TestShortestPathWithin:
    def test_unique_shortest_on_cycle(self):
        g = cycle_graph(5)
        assert shortest_path_within(g, frozenset(range(5)), 0, 2) == [0, 1, 2]

    def test_zero_length(self):
        g = cycle_graph(5)
        assert shortest_path_within(g, frozenset(range(5)), 3, 3) == [3]

    def test_region_removes_chord(self):
        g = cycle_graph(6)
        assert shortest_path_within(g, frozenset({0, 1, 2, 3}), 0, 3) == [0, 1, 2, 3]

    def test_disconnected_region(self):
        g = path_graph(5)
        assert shortest_path_within(g, frozenset({0, 4}), 0, 4) is None

    def test_endpoint_outside_region(self):
        with pytest.raises(ValueError):
            shortest_path_within(path_graph(3), frozenset({0, 1}), 0, 2)

    def test_lexicographically_smallest(self):
        # two shortest routes 0-1-3 and 0-2-3: must take the one through 1
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path_within(g, frozenset(range(4)), 0, 3) == [0, 1, 3]

    @given(graphs(min_n=2, max_n=9))
    def test_path_is_valid_and_minimal(self, g):
        region = frozenset(range(g.n))
        comps = components_within(g, region)
        by_vertex = {v: c for c in comps for v in c}
        for src in range(g.n):
            dist = _bfs_distances(g, src)
            for dst in range(g.n):
                path = shortest_path_within(g, region, src, dst)
                if by_vertex[src] is not by_vertex[dst]:
                    assert path is None
                    continue
                assert path[0] == src and path[-1] == dst
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
                assert len(set(path)) == len(path)
                assert len(path) - 1 == dist[dst]

    @given(graphs(min_n=2, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_lexicographic_minimum_among_shortest(self, g):
        region = frozenset(range(g.n))
        for src in range(g.n):
            for dst in range(g.n):
                path = shortest_path_within(g, region, src, dst)
                brute = _all_shortest_paths(g, src, dst)
                assert path == (min(brute) if brute else None)


class TestGraph6:
    def test_k2(self):
        g = parse_graph6("A_")
        assert (g.n, g.edges()) == (2, [(0, 1)])

    def test_two_isolated(self):
        g = parse_graph6("A?")
        assert (g.n, g.edges()) == (2, [])

    def test_single_vertex(self):
        assert parse_graph6("@").n == 1

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")

    def test_known_encoding(self):
        # hand-encoded: P_4 pairs (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) give bits
        # 101001 = 41, so bytes are (4+63, 41+63) = "Ch"
        assert encode_graph6(path_graph(4)) == "Ch"
        assert parse_graph6("Ch") == path_graph(4)

    def test_byte_out_of_range(self):
        with pytest.raises(GraphFormatError, match="range"):
            parse_graph6("A!")
        with pytest.raises(GraphFormatError) as info:
            parse_graph6("A\x1f")
        assert info.value.offset == 1

    def test_truncated(self):
        with pytest.raises(GraphFormatError, match="truncated"):
            parse_graph6("D")  # n=5 needs adjacency bytes

    def test_trailing_garbage(self):
        with pytest.raises(GraphFormatError, match="trailing"):
            parse_graph6("A__")

    def test_nonzero_padding_rejected(self):
        # n=3 uses 3 of the 6 bits: "w" pads with 000, "~" with 111
        assert parse_graph6("Bw") == Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(GraphFormatError, match="padding") as info:
            parse_graph6("B~")
        assert info.value.offset == 1

    def test_long_form_rejected(self):
        with pytest.raises(GraphFormatError, match="long-form"):
            parse_graph6("~??")

    @given(graphs(max_n=20))
    def test_round_trip(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    @given(graphs(max_n=16))
    @settings(max_examples=50, deadline=None)
    def test_interop_with_networkx(self, g):
        # independent oracle for the byte layout, where networkx is around
        nx = pytest.importorskip("networkx")
        theirs = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert set(theirs.nodes) == set(range(g.n))
        assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges())
        ours = parse_graph6(nx.to_graph6_bytes(theirs, header=False).decode().strip())
        assert ours == g

    def test_round_trip_n62(self):
        g = gnp_random_graph(62, 0.3, 123)
        assert parse_graph6(encode_graph6(g)) == g

    def test_n63_unencodable(self):
        with pytest.raises(ValueError):
            encode_graph6(path_graph(63))


@st.composite
def graph6_graphs(draw):
    """Graphs with n in [0, 62] and edge density about 2^-1 down to 2^-5."""
    n = draw(st.integers(0, 62))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    mask = (1 << len(pairs)) - 1
    for _ in range(draw(st.integers(1, 5))):
        mask &= draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc), exc.offset


class TestMatchesReferenceCodec:
    @given(graph6_graphs())
    @settings(max_examples=150, deadline=None)
    def test_graphs(self, g):
        s = encode_graph6(g)
        assert s == reference_encode_graph6(g)
        ours, theirs = parse_graph6(s), reference_parse_graph6(s)
        assert ours == theirs == g
        # the same neighbour sets, built alike: every iteration order matches
        assert [list(a) for a in ours.adj] == [list(a) for a in theirs.adj]

    @given(
        st.sampled_from(["", ">>graph6<<", " "]),
        st.one_of(
            st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=12),
            st.text(max_size=12),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_strings(self, prefix, body):
        text = prefix + body
        assert _parse_outcome(parse_graph6, text) == _parse_outcome(reference_parse_graph6, text)


class TestEdgeList:
    def test_round_trip(self):
        g = petersen_graph()
        assert parse_edge_list(format_edge_list(g)) == g

    def test_header_mismatch(self):
        with pytest.raises(GraphFormatError, match="m=2"):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_edge(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 1\n0 3\n")

    def test_comments_ignored(self):
        g = parse_edge_list("# corpus\n2 1\n0 1\n")
        assert g.edges() == [(0, 1)]

    @pytest.mark.parametrize("n", [-1, MAX_EDGE_LIST_VERTICES + 1])
    def test_vertex_count_out_of_range(self, n):
        # rejected from the header, before any adjacency set is built
        with pytest.raises(GraphFormatError, match="vertex count"):
            parse_edge_list(f"{n} 0\n")


class TestGenerators:
    def test_path_single_vertex(self):
        g = path_graph(1)
        assert (g.n, g.m) == (1, 0)

    def test_cycle4(self):
        g = cycle_graph(4)
        assert (g.n, g.m) == (4, 4)
        assert all(g.degree(v) == 2 for v in range(4))

    def test_petersen_is_cubic(self):
        g = petersen_graph()
        assert (g.n, g.m) == (10, 15)
        assert all(g.degree(v) == 3 for v in range(10))

    def test_star(self):
        g = star_graph(5)
        assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))

    def test_gnp_deterministic(self):
        assert gnp_random_graph(12, 0.4, 99) == gnp_random_graph(12, 0.4, 99)
        assert gnp_random_graph(12, 0.4, 99) != gnp_random_graph(12, 0.4, 100)

    def test_gnp_extremes(self):
        assert gnp_random_graph(6, 0.0, 1).m == 0
        assert gnp_random_graph(6, 1.0, 1).m == 15

    def test_connected_ptfree_contract(self):
        g = connected_ptfree_graph(9, 5, 2026)
        assert g.is_connected()
        assert is_pt_free(g, 5)[0]
        assert g == connected_ptfree_graph(9, 5, 2026)

    def test_connected_ptfree_exhaustion(self):
        # a connected cograph (no induced P_4) on 40 vertices: G(n, p <= 0.9) all but never gives one
        with pytest.raises(GenerationError, match="attempts"):
            connected_ptfree_graph(40, 4, 7, max_attempts=25)

    def test_connected_ptfree_t3_is_complete(self):
        # connected without induced P_3 means complete, so no sampling is needed
        start = time.perf_counter()
        graphs = [connected_ptfree_graph(n, 3, seed=n) for n in range(1, 41)]
        assert time.perf_counter() - start < 0.1
        assert graphs == [complete_graph(n) for n in range(1, 41)]

    def test_generate_dispatch(self):
        assert generate("path 4") == path_graph(4)
        assert generate("petersen") == petersen_graph()
        assert generate("gnp 8 0.5", seed=5) == gnp_random_graph(8, 0.5, 5)
        with pytest.raises(ValueError, match="unknown"):
            generate("hypercube 3")
        with pytest.raises(ValueError, match="bad generator spec"):
            generate("path")
