"""Induced-path detection: verification, exact longest-path search, freeness tests.

The search is an exact branch-and-bound DFS over bitsets with an explicit
stack, so no path order runs into the recursion limit. It visits starts and
extensions in ascending order and skips only subtrees that cannot hold a path
strictly longer than the best found so far, so it reports the same path as
the unpruned DFS. The bound, cheapest first: the free vertices (outside the
path and its neighbourhood), then those a flood from the tip's candidates
reaches through them, then, close to the cut-off, that count less all but one
of the reached vertices that could only end the path. `is_pt_free(g, t)`
runs the same search as if a path of t-1 vertices were already known, so
every subtree that cannot reach t vertices is skipped from the first node on,
and the first t-vertex path in DFS order is still its certificate. Sized for
desk-scale corpora: uncapped on sparse G(n, c/n) (c ~ 4-5) up to n = 36,
capped P_t-freeness checks to n ~ 30, and paths and cycles such as P_1500 and
C_1500.
Heuristics are deliberately out of scope: downstream checks need the true
induced-path order.
"""

from __future__ import annotations

from .graphs import Graph


def verify_induced_path(g: Graph, vs: list[int]) -> bool:
    """True iff vs is a nonempty induced path of g.

    Exactly the consecutive pairs may be adjacent; all vertices distinct.
    """
    if not vs:
        return False
    if len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    for i in range(len(vs) - 1):
        if not g.has_edge(vs[i], vs[i + 1]):
            return False
    for i in range(len(vs)):
        for j in range(i + 2, len(vs)):
            if g.has_edge(vs[i], vs[j]):
                return False
    return True


def longest_induced_path_order(
    g: Graph, cap: int | None = None
) -> tuple[int, list[int]]:
    """Number of vertices in a maximum-order induced path, with a witness.

    With `cap`, the search stops as soon as any induced path of `cap` vertices
    is found and reports (cap, witness). The witness is the first optimum in
    DFS order (start vertices ascending, extensions ascending); that order is
    deterministic but not promised to be the lexicographic minimum. Pruning
    skips only subtrees without a strictly longer path, so it never changes
    which path is reported.
    """
    if g.n == 0:
        return 0, []
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    path = _search(g, 1, cap) if cap != 1 else None
    return (1, [0]) if path is None else (len(path), path)


def _search(g: Graph, known: int, cap: int | None) -> list[int] | None:
    """The last of the successively longer induced paths found, or None.

    The DFS starts as if a path of `known` >= 1 vertices had already been
    found, so it records, and bounds against, only paths with more vertices;
    with `cap` it returns the first path of `cap` vertices.
    """
    n = g.n
    nbr = g.nbr_masks
    best_order = known
    best_path = None
    full = (1 << n) - 1
    path: list[int] = []
    # One frame per path vertex: the extensions not yet tried, the vertices
    # closed to every extension (path vertices and their neighbours), and for
    # a node with a single extension its flood (see _Flood).
    cands: list[int] = []
    closed: list[int] = []
    floods: list[_Flood | None] = []
    for start in range(n):
        tip, blocked = start, 1 << start
        path.append(start)
        flood = None
        while True:
            # Open the node whose path ends at tip; blocked = path vertices plus
            # everything adjacent to a non-tip path vertex.
            cand = nbr[tip] & ~blocked
            blocked |= nbr[tip]
            # The subtree matters only if it can add more than `room` vertices:
            # one candidate, then free vertices (outside the path and its
            # neighbourhood). With room <= 0 any extension is an improvement.
            room = best_order - len(path)
            if cand and room > 0:
                free = full ^ blocked
                if free.bit_count() < room:
                    cand = 0
                else:
                    # A flood holding room + 2 vertices cannot prune, so one
                    # inherited from the parent that is that large is not redone.
                    if flood is None or (not flood.whole and flood.size < room + 2):
                        flood = _Flood(nbr, cand, free, room + 2)
                    if flood.whole and flood.cannot_improve(nbr, cand, room, path[0]):
                        cand = 0
            if cand:
                cands.append(cand)
                closed.append(blocked)
                floods.append(flood if cand & (cand - 1) == 0 else None)
            else:
                path.pop()
            while cands and not cands[-1]:
                cands.pop()
                closed.pop()
                floods.pop()
                path.pop()
            if not cands:
                break
            cand = cands[-1]
            low = cand & -cand
            cands[-1] = cand ^ low
            tip = low.bit_length() - 1
            path.append(tip)
            if len(path) > best_order:
                best_order = len(path)
                best_path = path.copy()
                if cap is not None and best_order >= cap:
                    return best_path
            blocked = closed[-1] | low
            flood = floods[-1]
            if flood is not None:
                flood = flood.after(nbr[tip])
    return best_path


class _Flood:
    """The free vertices reachable from a node's extensions through free vertices.

    An extension of the path is one candidate vertex followed by free vertices
    (outside the path and its neighbourhood) along a path through them, so it
    lies in `reach`. The flood stops once it holds `limit` vertices, so it
    costs O(limit) set operations, not O(n); `whole` says whether it finished.
    `ends`, filled in on demand, holds the reached vertices with at most one
    neighbour in reach | candidates.
    """

    __slots__ = ("reach", "size", "whole", "ends")

    def __init__(self, nbr: tuple[int, ...], cand: int, free: int, limit: int):
        layer = 0
        todo = cand
        while todo:
            low = todo & -todo
            todo ^= low
            layer |= nbr[low.bit_length() - 1]
        layer &= free
        reach = layer
        size = reach.bit_count()
        while layer and size < limit:
            free ^= layer
            grown = 0
            while layer:
                low = layer & -layer
                layer ^= low
                grown |= nbr[low.bit_length() - 1]
            layer = grown & free
            reach |= layer
            size = reach.bit_count()
        self.reach = reach
        self.size = size
        self.whole = not layer
        self.ends: int | None = None

    def after(self, tip_nbr: int) -> "_Flood":
        """The flood of this node's only child, whose tip has neighbourhood `tip_nbr`.

        The child's candidates are the tip's free neighbours, which make up
        this flood's first layer, and its free vertices are this node's less
        those. Every other reached vertex connects to that layer through free
        vertices outside it, so the child's flood is this one less the child's
        candidates; a partial flood stays a lower bound. The vertices that
        stay are not adjacent to the tip, so their degrees within
        reach | candidates, and with them the ends, carry over.
        """
        child = _Flood.__new__(_Flood)
        child.reach = self.reach & ~tip_nbr
        child.size = child.reach.bit_count()
        child.whole = self.whole
        child.ends = None if self.ends is None else self.ends & ~tip_nbr
        return child

    def cannot_improve(self, nbr: tuple[int, ...], cand: int, room: int, first: int) -> bool:
        """Whether no extension by more than `room` vertices fits in the whole flood.

        An extension has at most 1 + size vertices. Within 2 of `room` the
        bound is tightened: a reached vertex with at most one neighbour in
        reach | cand can only end the extension, so at most one of them counts,
        and none labelled below `first`: such a path was already searched from
        that end, as a start vertex below `first`.
        """
        if self.size < room:
            return True
        if self.size >= room + 2:
            return False
        if self.ends is None:
            region = self.reach | cand
            ends = 0
            rest = self.reach
            while rest:
                low = rest & -rest
                rest ^= low
                if (nbr[low.bit_length() - 1] & region).bit_count() <= 1:
                    ends |= low
            self.ends = ends
        late = self.ends >> (first + 1) != 0
        return self.size - self.ends.bit_count() + late < room


def is_pt_free(g: Graph, t: int) -> tuple[bool, list[int] | None]:
    """Whether g has no induced path on t vertices.

    When it does, also returns one such path (exactly t vertices) as a
    certificate; the certificate always passes `verify_induced_path`. It is
    the first t-vertex path in DFS order, the witness of
    `longest_induced_path_order(g, cap=t)`.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t == 1:
        return (True, None) if g.n == 0 else (False, [0])
    # Searching as if a path of t-1 vertices were known prunes, from the
    # first node on, every subtree that cannot reach t vertices.
    path = _search(g, t - 1, t)
    return (True, None) if path is None else (False, path)
