"""Exhaustive enumeration of small connected graphs up to isomorphism.

The search grows graphs one vertex at a time over the adjacency upper
triangle in column order: vertex k's column is a nonempty neighbor subset
of the k vertices before it, added to a connected parent, so every level
holds connected graphs only, deduplicated by canonical form.  Hereditary
constraints (bipartite, no short cycles) prune columns by the parents'
distances in _children_rows; the non-hereditary filters (nonbipartite,
edge count) run on the last level's representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from . import _canon
from .errors import TooLarge
from .graphs import Graph, girth, graph_from_slots, is_bipartite, is_connected

if TYPE_CHECKING:
    import numpy as np

MAX_N = 8
MAX_N_PRUNED = 9  # girth-pruned lanes stay tiny one level further

BIPARTITE_CHOICES = ("yes", "no", "any")


@dataclass(frozen=True)
class UniverseFilter:
    """Hypothesis set of one enumeration universe.

    bipartite is "yes", "no", or "any"; min_girth excludes graphs with any
    cycle shorter than it (forests pass vacuously); min_edges keeps graphs
    with m at or above it.  Only connected universes are supported.
    """

    n: int
    bipartite: str = "any"
    min_girth: int | None = None
    min_edges: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.bipartite not in BIPARTITE_CHOICES:
            raise ValueError(f"bipartite must be one of {BIPARTITE_CHOICES}")
        if self.min_girth is not None and self.min_girth < 3:
            raise ValueError("min_girth below 3 is meaningless")

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


def graph_from_code(n: int, code: int) -> Graph:
    """Graph in canonical labeling from its m-bit canonical code."""
    return graph_from_slots(n, _canon.code_slots(code, n))


def _adjacency(rows: np.ndarray, n: int) -> np.ndarray:
    """(R, n, n) uint8 adjacency tensor of column-order bit rows."""
    import numpy as np

    i, j = np.array(_canon.pair_list(n), dtype=np.intp).reshape(-1, 2).T
    adj = np.zeros((len(rows), n, n), dtype=np.uint8)
    adj[:, i, j] = adj[:, j, i] = rows
    return adj


def _children_rows(parent_codes, child_n: int, lane: tuple[int, bool]) -> np.ndarray:
    """Bit rows of all one-vertex extensions the lane permits.

    The new vertex's column occupies the last k slots: pair (i, child_n - 1)
    sits at index num_pairs(k) + i.  The lane's conflict rule lives here:
    joining the new vertex to two old ones at distance d closes a cycle of
    length d + 2, so no column may hold a pair at d <= girth_k - 3, nor, in
    the bipartite lane, at odd d.
    """
    import numpy as np

    k = child_n - 1
    girth_k, bip = lane
    i, j = np.array(_canon.pair_list(k), dtype=np.intp).reshape(-1, 2).T
    shifts = np.arange(len(i) - 1, -1, -1)  # the first pair is the top bit
    parents = ((np.array(parent_codes, np.int64)[:, None] >> shifts) & 1).astype(np.uint8)
    adj = _adjacency(parents, k).astype(bool)
    front, seen = adj, adj | np.eye(k, dtype=bool)
    forbid = np.zeros_like(adj)
    for d in range(1, min(k - 1 if bip else girth_k - 3, k - 1) + 1):
        if d > 1:  # front: the pairs at distance d, one product per d
            front = (front @ adj) & ~seen
            seen |= front
        if d <= girth_k - 3 or (bip and d % 2):
            forbid |= front
    cols = ((np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    clash = forbid[:, i, j] @ (cols[:, i] & cols[:, j]).T.astype(bool)
    p, c = np.nonzero(~clash)
    return np.hstack([parents[p], cols[c]])


def _deletion_candidates(rows: np.ndarray, n: int) -> np.ndarray:
    """Mask of the child rows whose new vertex n - 1 is a deletion candidate.

    A vertex's key is (degree, sum of its neighbours' degrees).  The new
    vertex is a candidate unless some non-cut vertex (one whose removal
    leaves the graph connected) has a larger key.  The new vertex is
    itself non-cut, since its parent is connected.  Only the vertices
    that beat the new one are tested for being non-cut: a bitmask
    closure of G - w from the lowest vertex other than w.
    """
    import numpy as np

    adj = _adjacency(rows, n)
    deg = adj.sum(axis=2, dtype=np.int16)
    # Neighbour-degree sums stay below n * n, so this orders keys
    # lexicographically.
    key = deg * (n * n) + np.einsum("rvu,ru->rv", adj, deg)
    row, w = np.nonzero(key[:, :-1] > key[:, -1:])
    nbrs = np.zeros((len(rows), n), dtype=np.int32)
    for u in range(n):
        nbrs |= adj[:, :, u].astype(np.int32) << u
    nbrs = nbrs[row]
    rest = ((1 << n) - 1) ^ (1 << w).astype(np.int32)  # vertices of G - w
    reach = np.where(w == 0, 2, 1).astype(np.int32)
    while True:
        grown = reach.copy()
        for v in range(n):
            grown |= nbrs[:, v] & -((reach >> v) & 1)
        grown &= rest
        if (grown == reach).all():
            break
        reach = grown
    mask = np.ones(len(rows), dtype=bool)
    mask[row[reach == rest]] = False
    return mask


@lru_cache(maxsize=None)
def _level_codes(n: int, lane: tuple[int, bool]) -> tuple[int, ...]:
    """Canonical codes, sorted, of the connected lane-surviving n-vertex graphs.

    Every connected graph has a vertex whose removal leaves it connected
    (a leaf of a spanning tree), and the graph left keeps girth and
    bipartiteness: so each graph of the level is a connected parent of
    the level below plus one nonempty column the lane allows.  The rows
    are distinct (distinct parents times distinct columns).

    Only rows whose new vertex is a deletion candidate are canonized
    (McKay's canonical deletion, J. Algorithms 26, 1998).  No class is
    lost: take any graph G of the level and a non-cut vertex v* of
    largest key.  G - v* is connected and stays in the lane, so its
    canonical code is in the level below; the lane's conflict rule is
    exact, so the row adding v*'s neighbourhood to it is generated.  That
    row is G, and its new vertex has v*'s key, which no non-cut vertex
    beats, so the row survives the mask.
    """
    if n == 1:
        return (0,)
    rows = _children_rows(_level_codes(n - 1, lane), n, lane)
    rows = rows[_deletion_candidates(rows, n)]
    return tuple(sorted(set(_canon.min_codes(rows, n).tolist())))


def _passes(filt: UniverseFilter, g: Graph) -> bool:
    """Final, non-hereditary part of the filter."""
    if filt.bipartite == "no" and is_bipartite(g):
        return False
    if filt.min_edges is not None and g.m < filt.min_edges:
        return False
    return True


def enumerate_connected(filt: UniverseFilter):
    """Yield one representative per isomorphism class matching the filter.

    Graphs come out in canonical labeling, ordered by canonical code, so
    two runs always agree.
    """
    check_scope(filt)
    for code in _level_codes(filt.n, _lane(filt)):
        g = graph_from_code(filt.n, code)
        if _passes(filt, g):
            yield g
