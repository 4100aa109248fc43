"""Reference graph6 codec: one bit per vertex pair.

This is the package's previous `copslab.graphs.parse_graph6` and
`encode_graph6`, kept as an oracle for differential tests of the
column-at-a-time codec. It walks the upper triangle pair by pair, in column
order (0,1),(0,2),(1,2),(0,3),..., reading or writing one bit per pair.
"""

from __future__ import annotations

from copslab.graphs import Graph, GraphFormatError

_G6_HEADER = ">>graph6<<"


def reference_parse_graph6(text: str) -> Graph:
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
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[1 + k // 6] - 63
            if (byte >> (5 - k % 6)) & 1:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def reference_encode_graph6(g: Graph) -> str:
    """Encode a graph with n <= 62 as a short-form graph6 string."""
    if g.n > 62:
        raise ValueError(f"graph6 short form requires n <= 62, got n={g.n}")
    out = [g.n + 63]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")
