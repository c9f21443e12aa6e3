"""Exhaustive enumeration of small connected graphs up to isomorphism.

The search grows graphs one vertex at a time over the adjacency upper
triangle in column order: vertex k's column is a nonempty neighbor subset
of the k vertices before it, added to a connected parent, so every level
holds connected graphs only, deduplicated by canonical form.  Hereditary
constraints (bipartite, no short cycles) prune subsets before they are
generated; the non-hereditary filters (nonbipartite, edge count) run on
the last level's representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _canon
from .errors import TooLarge
from .graphs import Graph, apsp, graph_from_bits, is_bipartite

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
    return graph_from_bits(n, _canon.unpack_code(code, n))


def _valid_columns(parent: Graph, lane: tuple[int, bool]) -> list[int]:
    """Nonempty neighbor subsets (bitmasks, ascending) the lane allows."""
    girth_k, bip = lane
    # Joining the new vertex to two old ones at distance d closes a cycle
    # of length d + 2: the girth lane forbids d <= girth_k - 3, the
    # bipartite lane odd d.
    conflict = [
        sum(1 << v for v, d in enumerate(row)
            if d and (d <= girth_k - 3 or (bip and d % 2)))
        for row in apsp(parent).d
    ]
    # Grow the allowed subsets one vertex at a time; each new subset has
    # bit u set and is checked against its lower vertices only.
    out = [0]
    for u, clash in enumerate(conflict):
        out += [s | 1 << u for s in out if not s & clash]
    return out[1:]


def _children_rows(parent_codes, child_n: int, lane: tuple[int, bool]) -> np.ndarray:
    """Bit rows of all one-vertex extensions the lane permits.

    The new vertex's column occupies the last k slots: pair (i, child_n - 1)
    sits at index num_pairs(k) + i.
    """
    k = child_n - 1
    shifts = np.arange(k)
    blocks = []
    for code in parent_codes:
        pbits = _canon.unpack_code(code, k)
        cols = np.array(_valid_columns(graph_from_bits(k, pbits), lane))
        new = ((cols[:, None] >> shifts) & 1).astype(np.uint8)
        blocks.append(np.hstack([np.tile(pbits, (len(cols), 1)), new]))
    return np.vstack(blocks)


@lru_cache(maxsize=None)
def _level_codes(n: int, lane: tuple[int, bool]) -> tuple[int, ...]:
    """Canonical codes, sorted, of the connected lane-surviving n-vertex graphs.

    Complete because every connected graph has a vertex whose removal
    leaves it connected (a leaf of a spanning tree), and the graph left
    keeps girth and bipartiteness: so each graph of the level is a
    connected parent of the level below plus one nonempty column the lane
    allows.  The rows are distinct (distinct parents times distinct
    columns), so they go to the canonizer as they are.
    """
    if n == 1:
        return (0,)
    rows = _children_rows(_level_codes(n - 1, lane), n, lane)
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
