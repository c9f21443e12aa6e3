"""Exhaustive enumeration of small connected graphs up to isomorphism.

The search grows graphs one vertex at a time over the adjacency upper
triangle in column order: vertex k's column is a nonempty neighbor subset
of the k vertices before it, added to a connected parent, so every level
holds connected graphs only, one per class.  Graphs are neighbour
bitmasks on Python ints throughout.  Of the columns a parent's
automorphisms map onto each other only one is judged, and its row is
built only if the new vertex is a non-cut vertex of largest key, which
the parent's own degrees and components decide: kept as built if it is
the only one, and otherwise deduplicated by the canonical code
_canon.min_codes gives its bit row, written by _canon.bit_rows: the
pair layout is _canon's alone.  Hereditary constraints (bipartite, no
short cycles) prune columns by the parents' distances in
_children_rows; the non-hereditary filters (nonbipartite, edge count)
run on the last level's representatives.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from . import _canon
from .errors import TooLarge
from .graphs import Graph, girth, is_bipartite, is_connected

MAX_N = 8
MAX_N_PRUNED = 9  # girth-pruned lanes stay tiny one level further

BIPARTITE_CHOICES = ("yes", "no", "any")


class _UniverseFields(NamedTuple):
    """UniverseFilter's fields, unchecked; UniverseFilter checks them."""

    n: int
    bipartite: str = "any"
    min_girth: int | None = None
    min_edges: int | None = None


class UniverseFilter(_UniverseFields):
    """Hypothesis set of one enumeration universe.

    bipartite is "yes", "no", or "any"; min_girth excludes graphs with any
    cycle shorter than it (forests pass vacuously); min_edges keeps graphs
    with m at or above it.  Only connected universes are supported.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.bipartite not in BIPARTITE_CHOICES:
            raise ValueError(f"bipartite must be one of {BIPARTITE_CHOICES}")
        if self.min_girth is not None and self.min_girth < 3:
            raise ValueError("min_girth below 3 is meaningless")
        return self

    def admits(self, g: Graph) -> bool:
        """Whether g, in any labeling, belongs to this universe."""
        if g.n != self.n or not is_connected(g):
            return False
        if self.bipartite == "yes" and not is_bipartite(g):
            return False
        if self.min_girth is not None:
            length = girth(g).length
            if length is not None and length < self.min_girth:
                return False
        return _passes(self, g)


def _lane(filt: UniverseFilter) -> tuple[int, bool]:
    """Hereditary prune parameters: (girth threshold or 0, bipartite-only)."""
    g = filt.min_girth if filt.min_girth is not None and filt.min_girth >= 4 else 0
    return (g, filt.bipartite == "yes")


def check_scope(filt: UniverseFilter) -> None:
    """Raise TooLarge if the filter's n is beyond its enumeration cap."""
    limit = MAX_N_PRUNED if (filt.min_girth or 0) >= 5 else MAX_N
    if filt.n > limit:
        raise TooLarge(f"enumeration capped at n = {limit} for this filter")


@lru_cache(maxsize=None)
def _members(n: int) -> tuple[tuple[int, ...], ...]:
    """The vertices of every bitmask over n vertices, lowest first, by mask."""
    return tuple(tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n))


def _components(nbrs, rest: int, members) -> tuple[int, ...]:
    """The components, as bitmasks, of the subgraph the bitmask rest induces."""
    comps = []
    while rest:
        reach = front = rest & -rest
        while front:
            grown = 0
            for u in members[front]:
                grown |= nbrs[u]
            front = grown & rest & ~reach
            reach |= front
        comps.append(reach)
        rest ^= reach
    return tuple(comps)


def _allowed_columns(nbrs: tuple[int, ...], lane: tuple[int, bool]) -> list[bool]:
    """Per column (a bitmask of the parent's vertices), whether the lane allows it.

    Joining the new vertex to two old ones at distance d closes a cycle of
    length d + 2, so no column may hold a pair at d <= girth_k - 3, nor, in
    the bipartite lane, at odd d.  Distances come from one bitmask BFS per
    vertex.
    """
    girth_k, bip = lane
    k = len(nbrs)
    depth = k - 1 if bip else girth_k - 3
    members = _members(k)
    forbid = [0] * k
    for v in range(k):
        seen = front = 1 << v
        for d in range(1, depth + 1):
            grown = 0
            for u in members[front]:
                grown |= nbrs[u]
            front = grown & ~seen
            if not front:
                break
            seen |= front
            if d <= girth_k - 3 or (bip and d % 2):
                forbid[v] |= front
    allowed = [True] * (1 << k)
    for col in range(1, 1 << k):  # a column adds its top vertex to a smaller one
        top = col.bit_length() - 1
        rest = col ^ 1 << top
        allowed[col] = allowed[rest] and not forbid[top] & rest
    return allowed


@lru_cache(maxsize=None)
def _columns_by_size(k: int) -> tuple[tuple[int, ...], ...]:
    """The nonempty subsets of k vertices as bitmasks, by size."""
    by_size = [[] for _ in range(k + 1)]
    for col in range(1, 1 << k):
        by_size[col.bit_count()].append(col)
    return tuple(map(tuple, by_size))


def _children_rows(parents, child_n: int,
                   lane: tuple[int, bool]) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Yield (neighbour bitmasks, tie) for the one-vertex extensions of
    the parents (each its neighbour bitmasks) that the lane permits and
    McKay's mask keeps, one per orbit of the parent's automorphism group
    on the columns.

    The new vertex k = child_n - 1 is joined to a nonempty column col of
    the parent P's vertices.  A column _allowed_columns refuses is never
    judged.  Nor is a column smaller than the parent degree of some
    non-cut vertex w other than the column itself: w stays non-cut in the
    child (the new vertex hangs on a vertex of the connected P - w) and
    its degree does not fall, so its key beats the new vertex's.  The
    largest non-cut degree bounds every column; a one-vertex column may
    be that w, so it takes the second largest.  Of the columns an
    automorphism of P maps onto each other, only the first in by-size
    order is judged: the automorphism, fixing the new vertex, maps one
    child onto the other.  Orbits are closed over the generators
    _canon.automorphisms gives, on each column's vertices.

    The mask reads only facts of P, found once per parent: its degrees,
    its neighbour-degree sums and the components of each P - w.  A
    vertex's key is (degree, sum of its neighbours' degrees).  In the
    child the new vertex has key (|col|, |col| + the degrees of col); a
    parent vertex w gains [w in col] in degree, and in its sum its
    neighbours in col and [w in col]·|col|.  The new vertex is non-cut,
    as P is connected; w is non-cut iff col meets every component of
    P - w, vacuously so when P is one vertex.  A row is built only if no
    non-cut vertex has a larger key than the new one, and is tied if
    another non-cut vertex has the same key.
    """
    k = child_n - 1
    new = 1 << k
    constrained = lane != (0, False)
    by_size, members = _columns_by_size(k), _members(k)
    for nbrs in parents:
        allowed = _allowed_columns(nbrs, lane) if constrained else None
        # Per generator, the bit of each vertex's image.
        gens = [[1 << w for w in image] for image in _canon.automorphisms(nbrs)]
        seen = set()
        deg = [b.bit_count() for b in nbrs]
        nsum = [sum([deg[u] for u in members[b]]) for b in nbrs]
        comps = [_components(nbrs, (new - 1) ^ 1 << w, members) for w in range(k)]
        noncut = sorted((deg[w] for w in range(k) if len(comps[w]) < 2), reverse=True) + [0, 0]
        for size in range(1, k + 1):
            if size < noncut[size == 1]:
                continue
            for col in by_size[size]:
                if allowed and not allowed[col]:
                    continue
                if gens:
                    if col in seen:
                        continue
                    orbit = [col]
                    seen.add(col)
                    for c in orbit:  # grows while it is walked
                        for image in gens:
                            d = 0
                            for v in members[c]:
                                d |= image[v]
                            if d not in seen:
                                seen.add(d)
                                orbit.append(d)
                key = (size, size + sum([deg[u] for u in members[col]]))
                tie = False
                for w in range(k):
                    inw = col >> w & 1
                    if deg[w] + inw < size:
                        continue
                    kw = (deg[w] + inw, nsum[w] + (nbrs[w] & col).bit_count() + inw * size)
                    if kw >= key and all(col & c for c in comps[w]):
                        if kw > key:
                            break
                        tie = True
                else:  # no non-cut vertex beats the new one
                    child = list(nbrs)
                    for v in members[col]:
                        child[v] |= new
                    child.append(col)
                    yield tuple(child), tie


@lru_cache(maxsize=None)
def _level(n: int, lane: tuple[int, bool]) -> tuple[tuple[int, ...], ...]:
    """Neighbour bitmasks of one graph per isomorphism class of the
    connected lane-surviving n-vertex graphs.

    Every connected graph has a vertex whose removal leaves it connected
    (a leaf of a spanning tree), and the graph left keeps girth and
    bipartiteness: so each graph of the level is a connected parent of
    the level below plus one nonempty column the lane allows.

    Only rows whose new vertex is a non-cut vertex of largest key are
    built, by the mask of _children_rows (McKay's canonical deletion, J.
    Algorithms 26, 1998).  No class is lost: take any graph G of the
    level and a non-cut vertex v* of largest key.  G - v* is connected
    and stays in the lane, so a graph isomorphic to it is in the level
    below, and the lane's conflict rule is exact.  The column adding the
    image of v*'s neighbourhood to it gives G up to isomorphism, and its
    new vertex has v*'s key, which no non-cut vertex beats: so the column
    bound, which skips only columns whose new vertex a non-cut vertex
    beats, would pass it, and the mask keeps it.  If it is not the column
    judged for its orbit under the parent's automorphisms, an
    automorphism maps it onto the judged column; fixing the new vertex,
    that automorphism maps G onto the judged child, new vertex onto new
    vertex.  The lane's rule, the column bound and the mask depend only
    on the child and its new vertex, so the judged column passes all
    three, and its row is built and is G up to isomorphism.

    A built row is untied when its new vertex is the only non-cut vertex
    of largest key, and is then kept as built, with no search; only the
    tied rows are canonized, their bit rows written by _canon.bit_rows
    and searched by _canon.min_codes, one kept per code.  No
    class is kept twice.  The number of non-cut vertices of largest key
    is an isomorphism invariant, so no tied row is isomorphic to an
    untied one, and an isomorphism between two untied rows maps new
    vertex onto new vertex.  It then restricts to an isomorphism between
    their parents, which are one parent since the level below holds one
    graph per class, and is an automorphism of it that maps one built
    column onto the other: the same column, as one is judged per orbit.
    """
    if n == 1:
        return ((0,),)
    rows, tied = [], []
    for nbrs, tie in _children_rows(_level(n - 1, lane), n, lane):
        (tied if tie else rows).append(nbrs)
    by_code = {}
    for nbrs, code in zip(tied, _canon.min_codes(_canon.bit_rows(tied, n), n)):
        by_code.setdefault(code, nbrs)
    return (*rows, *by_code.values())


def _passes(filt: UniverseFilter, g: Graph) -> bool:
    """Final, non-hereditary part of the filter."""
    if filt.bipartite == "no" and is_bipartite(g):
        return False
    if filt.min_edges is not None and g.m < filt.min_edges:
        return False
    return True


def enumerate_connected(filt: UniverseFilter):
    """Yield one representative per isomorphism class matching the filter.

    Graphs come out in the labeling they were built in, which is not a
    canonical one, in an order fixed by the build, so two runs always
    agree.
    """
    check_scope(filt)
    n = filt.n
    members = _members(n)
    for nbrs in _level(n, _lane(filt)):
        g = Graph(n, tuple((u, v) for u in range(n) for v in members[nbrs[u]] if v > u))
        if _passes(filt, g):
            yield g
