"""Simple undirected graphs as neighbour bitmasks: region queries, text formats.

Vertices are dense integers 0..n-1, and a `Graph` holds one bitmask per
vertex, N(v), with bit u set iff u is a neighbour of v. Graphs are immutable
after construction and safe to share between workers. Every tie-break in this
repo is "lowest vertex index first" so that downstream strategies and traces
are fully deterministic; `members(mask)` lists a mask's vertices in that order.

This module owns the distance searches (`distances_within`, which the robbers
and `shortest_path_within` use) and the reachability flood over neighbour masks
(`flood`, which tests the connectivity of a `Graph` and of the G(n, p)
sampler's masks, and finds the strategy's territories). Regions are vertex
masks too. One search keeps its own flood: `induced._Flood`, which stops at a
size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class GraphFormatError(ValueError):
    """Parse failure in graph6 or edge-list text; `offset` locates the bad byte/line."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Finite simple graph. `nbr_masks[v]` is N(v), the open neighbourhood of v, as a bitmask.

    Invariants (enforced by `from_edges`, kept by every builder of
    `Graph(n, nbr_masks)`): n masks, no self-loops, symmetric adjacency, all
    neighbour bits in [0, n).
    """

    n: int
    nbr_masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, tuple(masks))

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.nbr_masks) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted."""
        # -(2 << u) keeps the bits above u
        return [(u, v) for u, mask in enumerate(self.nbr_masks) for v in members(mask & -(2 << u))]

    def has_edge(self, u: int, v: int) -> bool:
        return self.nbr_masks[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        return self.nbr_masks[v].bit_count()

    def induced(self, region: int) -> "Graph":
        """The subgraph induced on the vertex mask `region`, its vertices relabelled 0, 1, ... in label order."""
        if region == (1 << self.n) - 1:
            return self
        kept = list(members(region))
        label = {v: i for i, v in enumerate(kept)}
        return Graph(len(kept), tuple(
            sum(1 << label[u] for u in members(self.nbr_masks[v] & region)) for v in kept
        ))

    def is_connected(self) -> bool:
        return self._connected

    # Cached outside the dataclass fields, so `==`, `hash` and `repr` ignore them.
    @cached_property
    def _connected(self) -> bool:
        """One flood per graph, however many callers ask."""
        return masks_connected(self.nbr_masks)

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """N[v] as a bitmask, for every vertex v."""
        return tuple(mask | 1 << v for v, mask in enumerate(self.nbr_masks))


def members(mask: int):
    """The vertices of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def flood(masks, source: int, blocked: int = 0) -> tuple[int, int]:
    """Masks of the component of `source` once the vertices in `blocked` are removed, and of its neighbours.

    `masks[v]` is N(v) as a bitmask; `source` must not be blocked.
    """
    component, near, todo = 0, 0, 1 << source
    while todo:
        low = todo & -todo
        component |= low
        near |= masks[low.bit_length() - 1]
        todo = near & ~(blocked | component)
    return component, near


def masks_connected(masks) -> bool:
    """Whether the graph whose N(v) is masks[v] is connected (true for 0 or 1 vertices)."""
    return len(masks) <= 1 or flood(masks, 0)[0] == (1 << len(masks)) - 1


def distances_within(g: Graph, sources, region: int = -1) -> dict[int, int]:
    """Distance from the nearest source of each vertex it reaches, inside the vertex mask `region` (-1: all of g).

    The sources come first, in the order given; then each level of the search, highest vertex first.
    """
    nbr = g.nbr_masks
    dist = dict.fromkeys(sources, 0)
    reached = near = 0
    for s in dist:
        if not 0 <= s < g.n or not region >> s & 1:
            raise ValueError(f"source {s} is not a vertex of the region")
        reached |= 1 << s
        near |= nbr[s]
    unreached, d = region & ~reached, 1
    while level := near & unreached:
        unreached ^= level
        near = 0
        while level:  # walked inline and highest first: the fewest big-integer operations
            v = level.bit_length() - 1
            dist[v] = d
            near |= nbr[v]
            level ^= 1 << v
        d += 1
    return dist


def shortest_path_within(g: Graph, region: int, src: int, dst: int) -> list[int] | None:
    """Minimum-length path from src to dst inside the subgraph induced on the vertex mask `region` (-1: all of g).

    Among equal-length paths returns the lexicographically smallest vertex
    sequence. None if dst is unreachable from src within the region.
    """
    for v in (src, dst):
        if not 0 <= v < g.n or not region >> v & 1:
            raise ValueError(f"endpoints {src},{dst} must lie in the region")
    # BFS from dst gives distances; a greedy lowest-index walk from src along
    # strictly decreasing distances is the lexicographically smallest optimum.
    dist = distances_within(g, [dst], region)
    if src not in dist:
        return None
    path = [src]
    cur = src
    while cur != dst:
        cur = next(w for w in members(g.nbr_masks[cur]) if dist.get(w, -1) == dist[cur] - 1)
        path.append(cur)
    return path


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62)
#
# Byte 0: n + 63.  Then ceil(n(n-1)/2 / 6) bytes, each encoding 6 bits of the
# upper adjacency triangle in column order (0,1),(0,2),(1,2),(0,3),...; the
# first bit of each group is the most significant of (byte - 63). The bits
# after the last pair must be zero.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# The 6-bit values with their bits in reverse order; the map is its own inverse.
_REVERSED6 = bytes(int(f"{b:06b}"[::-1], 2) for b in range(64))


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 string (optionally prefixed '>>graph6<<')."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 string", offset=0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("non-ASCII byte in graph6 string", offset=exc.start) from None
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise GraphFormatError(f"byte {b} outside graph6 range [63,126]", offset=i)
    n = data[0] - 63
    if n == 63:
        raise GraphFormatError("long-form graph6 (n > 62) is not supported", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 < nbytes:
        raise GraphFormatError(
            f"truncated graph6: need {nbytes} adjacency bytes, got {len(data) - 1}",
            offset=len(data),
        )
    if len(data) - 1 > nbytes:
        raise GraphFormatError("trailing data after graph6 adjacency bytes", offset=1 + nbytes)
    padding = 6 * nbytes - nbits
    if padding and (data[nbytes] - 63) & ((1 << padding) - 1):
        raise GraphFormatError("nonzero padding bits in the last graph6 byte", offset=nbytes)
    # Pair p of the order above is bit 5 - p % 6 of byte p // 6, so each byte
    # read through `_REVERSED6` puts pair p at bit p of `bits`: bit
    # j(j-1)/2 + i is the pair (i, j).
    bits = 0
    for b in data[:0:-1]:  # last byte first, so that the first ends lowest
        bits = bits << 6 | _REVERSED6[b - 63]
    masks = [0] * n
    for j in range(1, n):
        col = bits & ((1 << j) - 1)
        bits >>= j
        masks[j] |= col
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << j
            col ^= low
    return Graph(n, tuple(masks))


def encode_graph6(g: Graph) -> str:
    """Encode a graph with n <= 62 as a short-form graph6 string."""
    if g.n > 62:
        raise ValueError(f"graph6 short form requires n <= 62, got n={g.n}")
    n = g.n
    nbr = g.nbr_masks
    # Column j is N(j) below j: bit j(j-1)/2 + i of `bits` is the pair (i, j).
    bits = 0
    shift = 0
    for j in range(1, n):
        bits |= (nbr[j] & ((1 << j) - 1)) << shift
        shift += j
    nbytes = (shift + 5) // 6
    out = bytearray(nbytes + 1)
    out[0] = n + 63
    for q in range(1, nbytes + 1):
        out[q] = _REVERSED6[bits & 63] + 63
        bits >>= 6
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# Plain edge-list text: "n m" header, then m lines "u v".  One graph per file;
# used for corpora beyond graph6's n <= 62.
# ---------------------------------------------------------------------------

# Every vertex costs a neighbour mask before any edge is read, so the header
# alone must not be able to ask for more memory than any exact check can use.
MAX_EDGE_LIST_VERTICES = 100_000


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not rows:
        raise GraphFormatError("empty edge-list input", offset=1)
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError("edge-list header must be 'n m'", offset=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("edge-list header must be two integers", offset=lineno) from None
    if not 0 <= n <= MAX_EDGE_LIST_VERTICES:
        raise GraphFormatError(
            f"edge-list vertex count must be in [0, {MAX_EDGE_LIST_VERTICES}], got {n}", offset=lineno
        )
    if len(rows) - 1 != m:
        raise GraphFormatError(
            f"edge-list declares m={m} but has {len(rows) - 1} edge lines", offset=lineno
        )
    edges = []
    seen = set()
    for lineno, ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", offset=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge line must be two integers", offset=lineno) from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"invalid edge ({u},{v}) for n={n}", offset=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:  # the header's m counts lines, so a repeat would leave the graph one edge short
            raise GraphFormatError(f"repeated edge ({u},{v})", offset=lineno)
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
