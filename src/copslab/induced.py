"""Induced-path detection: verification, exact longest-path search, freeness tests.

`longest_induced_path_order` runs one search, a vertex elimination: vertices
are taken by degree, highest first, and each gets one branch-and-bound search
for the longest induced path through it among the vertices not yet deleted,
built as two arms from it, longer arm first; then it is deleted. Each search
sees a sparser graph than the last, which is what makes showing that no longer
path exists cheap. The elimination keeps the path behind its best order, and
that path is the witness. Its first lower bound is the lowest descent from
vertex 0, grown at vertex 0 as well, which stands as the witness until a
longer path is found. `is_pt_free(g, t)` is the same search capped at t and
run as a decision: its bar starts at t-1, so it searches only for a t-vertex
path, and its certificate is the path the capped search would return.

The search runs over bitsets with an explicit stack, so no path order runs
into the recursion limit. Its bounds, cheapest first: one candidate per arm
that can still grow, then the free vertices (outside the path and its
neighbourhood), then those a flood from the candidates reaches through them.
Sized for desk-scale corpora: uncapped on sparse G(n, c/n) (c ~ 4-5) up to n = 36,
capped P_t-freeness checks to n ~ 30, and paths and cycles such as P_1500
and C_1500.
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

    With `cap`, the order reported is min(optimum, cap), and the witness is a
    path of exactly that many vertices. The witness is the path the vertex
    elimination found (see `_order`); it is deterministic from the input but
    not promised to be the first such path in label order.
    """
    if g.n == 0:
        return 0, []
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    target = g.n if cap is None else min(cap, g.n)
    path = _order(g, target, _first_path(g.nbr_masks, target))
    return len(path), path


def _first_path(nbr: tuple[int, ...], target: int) -> list[int]:
    """The elimination's first known path: the lowest descent from vertex 0, grown at vertex 0 as well.

    It is arm B reversed, vertex 0, arm A, as the elimination keeps its paths,
    with at most `target` vertices.
    """
    descent = _descend(nbr, [0], 1, target)
    closed = 1
    for v in descent[1:]:
        closed |= 1 << v | nbr[v]
    grown = _descend(nbr, [0], closed, target - len(descent) + 1)
    return grown[::-1] + descent[1:]


def _descend(nbr: tuple[int, ...], path: list[int], closed: int, most: int) -> list[int]:
    """`path` extended at its last vertex along the lowest extensions, to at most `most` vertices.

    `closed` holds the path's vertices and the neighbours of all but its last.
    """
    tip = path[-1]
    while len(path) < most:
        cand = nbr[tip] & ~closed
        if not cand:
            break
        closed |= nbr[tip]
        low = cand & -cand
        closed |= low
        tip = low.bit_length() - 1
        path.append(tip)
    return path


def _order(g: Graph, target: int, path: list[int], floor: int = 0) -> list[int]:
    """A longest induced path of a nonempty g, capped at `target` vertices, by vertex elimination.

    `path` is an induced path already known, of at most `target` vertices.
    `best`, the bar a path must beat, starts at the larger of its order and
    `floor`. Vertices are taken by degree, highest first (ties by label). Each
    gets one search for the longest induced path through it among the
    vertices still alive, and is then deleted; the elimination stops once
    `best` reaches `target` or the number of live vertices. Each longer path
    the search finds (arm B reversed, v, arm A) replaces `path`; `best` rises
    one vertex at a time, so `path` is copied at most `target` times.

    With floor = target - 1 the search is a decision: it prunes every subtree
    that cannot reach `target` vertices, and returns `path` itself when no
    target-vertex path exists, and otherwise the one the search with floor 0
    returns (the DFS order does not depend on the bar, and no pruned subtree
    holds such a path).

    The path through v is two arms from v. The DFS grows arm A from v; once a
    node's A-extensions are all tried, it opens again as the root of arm B,
    which grows from v's other side by at most as many vertices as A has, so
    each path is searched with its longer arm as A. A node is skipped when its
    arms cannot add more than best - size vertices between them (size: the
    vertices on its path): one candidate for each arm that can still grow (A's
    from the tip, B's from v), then free vertices, which a flood from both
    arms' candidates bounds (see _Flood). The root floods, so a vertex whose
    component holds fewer than `best` vertices is skipped there.

    Each bound over-counts what a subtree can add, so no skipped subtree
    holds a path longer than `best`. A weaker bound only opens more nodes:
    the DFS order does not depend on the bar, so `best` rises at the same
    nodes and the same path is returned.
    """
    n = g.n
    nbr = g.nbr_masks
    full = (1 << n) - 1
    alive = full
    best = max(len(path), floor)
    # The current path, as v, arm A and then arm B from v, in its first `size` slots.
    trail = [0] * target
    # One frame per node with extensions: those not yet tried in `cands`; in
    # `frames` the vertices closed to every extension (path vertices, their
    # neighbours and the vertices not alive), the candidates for B's first
    # vertex (v's neighbours outside the rest of that set; 0 on arm B), for a
    # node with a single extension its flood, the most vertices a path in the
    # subtree may have, and on arm B the number of vertices on v and arm A (0
    # on arm A).
    cands: list[int] = []
    frames: list[tuple[int, int, _Flood | None, int, int]] = []
    degree = [mask.bit_count() for mask in nbr]
    for v in sorted(range(n), key=degree.__getitem__, reverse=True):
        if best >= target or best >= alive.bit_count():
            break
        alive ^= 1 << v
        cand = turn = nbr[v] & alive
        # v alone cannot beat `best`, which is at least 1.
        if not cand:
            continue
        size = 1  # vertices on the path
        trail[0] = v
        blocked = full ^ alive | nbr[v]
        flood = None
        most = target
        split = 0
        while True:
            if not cand:
                # Arm A ends here: open the node as the root of arm B.
                cand, turn, flood, most, split = turn, 0, None, 2 * size - 1, size
            # The subtree matters only if its arms can add more than best -
            # size vertices: one candidate on each arm that can still grow (B
            # while `turn` is nonzero), then at least `room` free vertices
            # (outside the path and its neighbourhood).
            room = best - size
            if room > 0 and turn:
                room -= 1
            if room > 0:
                free = full ^ blocked
                spare = free.bit_count() - room
                if spare < 0:
                    cand = 0
                elif size == 1 or spare < 3 and room > 2:
                    # A flood prunes only by leaving out more than `spare` free
                    # vertices, and near the leaves the subtree costs less than
                    # the flood; at the root it bounds v's component.
                    if flood is None or (not flood.whole and flood.size < room):
                        flood = _Flood(nbr, cand | turn, free, room)
                    if flood.whole and flood.size < room:
                        cand = 0
            if cand:
                cands.append(cand)
                frames.append((blocked, turn, flood if cand & (cand - 1) == 0 else None, most, split))
            else:
                size -= 1
            # Move on to the next node to open; a leaf needs no opening.
            while cands:
                cand = cands[-1]
                if not cand:
                    cands.pop()
                    blocked, turn, _, most, _ = frames.pop()
                    if turn and 2 * size - 1 > best:
                        # Open the node again as the root of arm B.
                        cand, turn, flood, most, split = turn, 0, None, 2 * size - 1, size
                        break
                    size -= 1
                    continue
                low = cand & -cand
                cands[-1] = cand ^ low
                tip = low.bit_length() - 1
                trail[size] = tip
                size += 1
                blocked, turn, flood, most, split = frames[-1]
                if size > best:
                    best = size
                    path = trail[size - 1:split - 1:-1] + trail[:split] if split else trail[:size]
                    if best >= target:
                        return path
                turn &= ~nbr[tip] & ~low
                blocked |= low
                cand = nbr[tip] & ~blocked
                if cand and most > best or turn and 2 * size - 1 > best:
                    blocked |= nbr[tip]
                    if flood is not None:
                        flood = flood.after(nbr[tip])
                    break
                size -= 1
            else:
                break
    return path


class _Flood:
    """The free vertices reachable from a node's extensions through free vertices.

    An extension of the path is one candidate vertex followed by free vertices
    (outside the path and its neighbourhood) along a path through them, so it
    lies in `reach`. The flood stops once it holds `limit` vertices, so it
    costs O(limit) set operations, not O(n); `whole` says whether it finished.
    """

    __slots__ = ("reach", "size", "whole")

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

    def after(self, tip_nbr: int) -> "_Flood":
        """The flood of this node's only child, whose tip has neighbourhood `tip_nbr`.

        The child's candidates on the tip's arm are the tip's free neighbours,
        which this flood reached first, and its free vertices are this node's
        less those. Every other reached vertex connects to them through free
        vertices outside them, so with one arm the child's flood is this one
        less the child's candidates, and a partial flood stays a lower bound.
        With two arms, B's candidates can only shrink, so a whole flood carried
        over is an upper bound, which is all pruning needs.
        """
        child = _Flood.__new__(_Flood)
        child.reach = self.reach & ~tip_nbr
        child.size = child.reach.bit_count()
        child.whole = self.whole
        return child


def is_pt_free(g: Graph, t: int) -> tuple[bool, list[int] | None]:
    """Whether g has no induced path on t vertices.

    It decides what `longest_induced_path_order(g, cap=t)` would read as a
    verdict, by the same vertex elimination with its bar raised to t-1 (see
    `_order`), so no subtree is searched that cannot hold t vertices. When g is
    not free, the certificate is the capped search's witness: exactly t
    vertices, so it passes `verify_induced_path`.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t > g.n:
        return True, None
    path = _order(g, t, _first_path(g.nbr_masks, t), floor=t - 1)
    return (True, None) if len(path) < t else (False, path)
