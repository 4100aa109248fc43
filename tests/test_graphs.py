from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
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
    distances_within,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    shortest_path_within,
)
from copslab.induced import is_pt_free
from copslab.rng import SplitMix64

from conftest import graphs, neighbours, uf_components
from reference_graph6 import reference_encode_graph6, reference_parse_graph6


def _bfs_distances(g: Graph, src: int) -> dict[int, int]:
    from collections import deque

    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in neighbours(g, u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _induced(g: Graph, region: frozenset[int]) -> Graph:
    """g with every edge that leaves `region` removed, so a search from inside stays inside."""
    return Graph.from_edges(g.n, [(u, v) for u, v in g.edges() if u in region and v in region])


def _draw_region(g: Graph, data) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if data.draw(st.booleans(), label=f"keep{v}"))


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
        for w in neighbours(g, tip):
            if dist.get(w) == dist[tip] + 1 and dist[w] <= dist[dst]:
                walk(prefix + [w])

    walk([src])
    return [p for p in out if len(p) - 1 == dist[dst]]


@st.composite
def _edge_sets(draw, max_n: int = 130):
    """(n, edges) with n in [0, max_n], about half of them beyond one 64-bit word, and up to 3n edges (u, v), u < v."""
    n = draw(st.integers(0, max_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ends = [sorted(rng.sample(range(n), 2)) for _ in range(draw(st.integers(0, 3 * n)) if n >= 2 else 0)]
    return n, {(u, v) for u, v in ends}


def _reached(near: dict[int, set[int]], source: int) -> set[int]:
    seen, todo = {source}, [source]
    while todo:
        for u in near[todo.pop()] - seen:
            seen.add(u)
            todo.append(u)
    return seen


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
            assert v not in neighbours(g, v)
            for u in neighbours(g, v):
                assert v in neighbours(g, u)


def _bits(mask: int) -> set[int]:
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


class TestClosedNeighborhood:
    """N[v], read as `Graph.closed_masks[v]`."""

    def test_center_of_p3(self):
        assert _bits(path_graph(3).closed_masks[1]) == {0, 1, 2}

    def test_complete_graph(self):
        assert _bits(complete_graph(4).closed_masks[0]) == {0, 1, 2, 3}

    def test_cycle_wraparound(self):
        assert _bits(cycle_graph(5).closed_masks[0]) == {0, 1, 4}


class TestComponentsWithin:
    """The component of a region that holds a vertex: what `distances_within` reaches from it."""

    @staticmethod
    def component(g: Graph, region: frozenset[int], v: int) -> frozenset[int]:
        return frozenset(distances_within(g, [v], _mask(region)))

    def test_connected_arc(self):
        region = frozenset({1, 2, 3, 4})
        assert self.component(cycle_graph(5), region, 3) == region

    def test_isolated_vertices(self):
        g = path_graph(5)
        assert [self.component(g, frozenset({0, 2, 4}), v) for v in (0, 2, 4)] == [{0}, {2}, {4}]

    def test_two_arcs(self):
        g, region = cycle_graph(6), frozenset({0, 1, 3, 4})
        assert [self.component(g, region, v) for v in (1, 3)] == [{0, 1}, {3, 4}]

    def test_empty_region(self):
        assert distances_within(path_graph(3), [], 0) == {}

    @given(graphs(max_n=9), st.data())
    def test_matches_union_find(self, g, data):
        region = _draw_region(g, data)
        for comp in uf_components(g, region):
            for v in comp:
                assert self.component(g, region, v) == comp

    @given(graphs(max_n=9))
    def test_single_component_iff_connected(self, g):
        comps = uf_components(g, frozenset(range(g.n)))
        assert (len(comps) == 1) == (g.n > 0 and g.is_connected())


@st.composite
def _disjoint_unions(draw):
    """Two graphs side by side: disconnected unless one of them is empty."""
    a, b = draw(graphs(min_n=0, max_n=6)), draw(graphs(min_n=0, max_n=6))
    return Graph.from_edges(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()])


class TestIsConnected:
    """`Graph.is_connected` floods neighbour masks; the breadth-first search is the oracle."""

    @given(st.one_of(graphs(min_n=0, max_n=10), _disjoint_unions()))
    def test_matches_breadth_first_search(self, g):
        assert g.is_connected() == (g.n == 0 or len(distances_within(g, [0])) == g.n)

    def test_small_cases(self):
        assert Graph.from_edges(0, []).is_connected()
        assert Graph.from_edges(1, []).is_connected()
        assert not Graph.from_edges(2, []).is_connected()
        assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
        assert cycle_graph(70).is_connected() and not Graph.from_edges(70, path_graph(69).edges()).is_connected()


class TestInducedSubgraph:
    @given(graphs(max_n=9), st.data())
    def test_relabels_the_region_in_order(self, g, data):
        region = sorted(_draw_region(g, data))
        h = g.induced(_mask(region))
        assert h.n == len(region)
        assert h.edges() == [(i, j) for i, j in itertools.combinations(range(h.n), 2) if g.has_edge(region[i], region[j])]

    def test_whole_graph_is_itself(self):
        g = petersen_graph()
        assert g.induced((1 << 10) - 1) is g


class TestDistancesWithin:
    def test_nearest_of_two_sources(self):
        assert distances_within(path_graph(5), [0, 4]) == {0: 0, 4: 0, 1: 1, 3: 1, 2: 2}

    def test_region_cuts_the_cycle(self):
        assert distances_within(cycle_graph(6), [0], _mask({0, 1, 2, 4})) == {0: 0, 1: 1, 2: 2}

    def test_no_sources(self):
        assert distances_within(path_graph(3), []) == {}

    @pytest.mark.parametrize("source,region", [(3, None), (-1, None), (2, frozenset({0, 1}))])
    def test_source_outside_region(self, source, region):
        region_arg = () if region is None else (_mask(region),)  # None: the default region, all of g
        with pytest.raises(ValueError, match="source"):
            distances_within(path_graph(3), [source], *region_arg)

    @given(st.one_of(graphs(min_n=1, max_n=9), _edge_sets().map(lambda case: Graph.from_edges(*case))), st.data())
    @settings(deadline=None)
    def test_nearest_source_within_random_region(self, g, data):
        region = _draw_region(g, data)
        if not region:
            return
        sources = data.draw(st.lists(st.sampled_from(sorted(region)), min_size=1, max_size=4))
        sub = _induced(g, region)
        singles = [_bfs_distances(sub, s) for s in sources]
        expected = {
            v: min(d[v] for d in singles if v in d) for v in range(g.n) if any(v in d for d in singles)
        }
        assert distances_within(g, sources, _mask(region)) == expected
        if region == frozenset(range(g.n)):
            assert distances_within(g, sources) == expected


class TestMaskViews:
    """Every view of the masks against the edge set they were built from."""

    @given(_edge_sets())
    @example((0, set()))
    @settings(deadline=None)
    def test_masks_match_adjacency(self, case):
        n, edges = case
        g = Graph.from_edges(n, sorted(edges, reverse=True))
        near = {v: set() for v in range(n)}
        for u, v in edges:
            near[u].add(v)
            near[v].add(u)
        assert g.n == len(g.nbr_masks) == len(g.closed_masks) == n
        assert g.m == len(edges)
        assert g.edges() == sorted(edges)
        for v in range(n):
            assert g.degree(v) == len(near[v])
            assert g.nbr_masks[v] == _mask(near[v])
            assert g.closed_masks[v] == _mask(near[v] | {v})
            assert [u for u in range(n) if g.has_edge(v, u)] == sorted(near[v])
        assert g.is_connected() == (n == 0 or len(_reached(near, 0)) == n)
        twin = Graph.from_edges(n, [(v, u) for u, v in edges])
        assert g == twin and hash(g) == hash(twin)
        assert g != Graph.from_edges(n + 1, edges)
        if edges:
            assert g != Graph.from_edges(n, sorted(edges)[1:])

    @given(graphs(max_n=12))
    def test_reading_masks_leaves_equality_and_hash(self, g):
        twin = Graph.from_edges(g.n, g.edges())
        before = (hash(g), repr(g))
        assert g.closed_masks is g.closed_masks  # built once
        assert (hash(g), repr(g)) == before
        assert g == twin and hash(g) == hash(twin)
        assert {g, twin} == {twin}


class TestShortestPathWithin:
    def test_unique_shortest_on_cycle(self):
        g = cycle_graph(5)
        assert shortest_path_within(g, -1, 0, 2) == [0, 1, 2]

    def test_zero_length(self):
        g = cycle_graph(5)
        assert shortest_path_within(g, -1, 3, 3) == [3]

    def test_region_removes_chord(self):
        g = cycle_graph(6)
        assert shortest_path_within(g, _mask({0, 1, 2, 3}), 0, 3) == [0, 1, 2, 3]

    def test_disconnected_region(self):
        g = path_graph(5)
        assert shortest_path_within(g, _mask({0, 4}), 0, 4) is None

    def test_endpoint_outside_region(self):
        with pytest.raises(ValueError):
            shortest_path_within(path_graph(3), _mask({0, 1}), 0, 2)
        with pytest.raises(ValueError):
            shortest_path_within(path_graph(3), -1, 0, 3)

    def test_lexicographically_smallest(self):
        # two shortest routes 0-1-3 and 0-2-3: must take the one through 1
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path_within(g, -1, 0, 3) == [0, 1, 3]

    @given(graphs(min_n=2, max_n=9), st.data())
    def test_path_is_valid_and_minimal(self, g, data):
        region = _draw_region(g, data)
        comps = uf_components(g, region)
        by_vertex = {v: c for c in comps for v in c}
        sub = _induced(g, region)
        for src in sorted(region):
            dist = _bfs_distances(sub, src)
            for dst in sorted(region):
                path = shortest_path_within(g, _mask(region), src, dst)
                if by_vertex[src] is not by_vertex[dst]:
                    assert path is None
                    continue
                assert path[0] == src and path[-1] == dst
                assert set(path) <= region
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
                assert len(set(path)) == len(path)
                assert len(path) - 1 == dist[dst]

    @given(graphs(min_n=2, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_lexicographic_minimum_among_shortest(self, g):
        for src in range(g.n):
            for dst in range(g.n):
                path = shortest_path_within(g, -1, src, dst)
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

    @pytest.mark.parametrize("text,line", [
        ("3 3\n0 1\n0 1\n1 2\n", 3),  # the same orientation
        ("# c\n3 3\n0 1\n1 2\n\n2 1\n", 6),  # reversed, after a blank line
    ])
    def test_repeated_edge_rejected_at_its_line(self, text, line):
        # m counts edge lines, so a repeat would otherwise load a graph with m - 1 edges
        with pytest.raises(GraphFormatError, match="repeated edge") as info:
            parse_edge_list(text)
        assert info.value.offset == line

    @pytest.mark.parametrize("n", [-1, MAX_EDGE_LIST_VERTICES + 1])
    def test_vertex_count_out_of_range(self, n):
        # rejected from the header, before any neighbour mask is built
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

    @given(st.integers(1, 70), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
    def test_gnp_matches_one_draw_per_pair(self, n, p, seed):
        rng = SplitMix64(seed)
        expected = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        g = gnp_random_graph(n, p, seed)
        assert g == expected and g.nbr_masks == expected.nbr_masks

    def test_gnp_extremes(self):
        assert gnp_random_graph(6, 0.0, 1).m == 0
        assert gnp_random_graph(6, 1.0, 1).m == 15

    def test_connected_ptfree_contract(self):
        g = connected_ptfree_graph(9, 5, 2026)
        assert g.is_connected()
        assert is_pt_free(g, 5)[0]
        assert g == connected_ptfree_graph(9, 5, 2026)

    def test_connected_ptfree_exhaustion(self, monkeypatch):
        # a connected cograph (no induced P_4) on 40 vertices: G(n, p <= 0.9) all but never gives one
        monkeypatch.setattr("copslab.generators.MAX_ATTEMPTS", 25)
        with pytest.raises(GenerationError, match="in 25 attempts"):
            connected_ptfree_graph(40, 4, 7)

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
