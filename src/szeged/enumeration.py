"""Exhaustive enumeration of small connected graphs up to isomorphism.

The search is an incremental edge-set search over the adjacency upper
triangle in column order: vertex k's column is a neighbor subset of the
k vertices before it.  After each column the partials are deduplicated by
canonical form, hereditary constraints (bipartite, no short cycles) prune
subsets before they are generated, and the non-hereditary filters
(connectivity, nonbipartite, edge count) run on the completed graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _canon
from .errors import TooLarge
from .graphs import Graph, apsp, build_graph, is_bipartite, is_connected

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


def _graph_from_bits(n: int, bits) -> Graph:
    edges = [pair for pair, bit in zip(_canon.pair_list(n), bits) if bit]
    return build_graph(n, edges)


def graph_from_code(n: int, code: int) -> Graph:
    """Graph in canonical labeling from its m-bit canonical code."""
    return _graph_from_bits(n, _canon.unpack_code(code, n))


def _subset_bits(k: int) -> np.ndarray:
    """All 2^k subsets of [0, k) as uint8 rows, subset s in row s."""
    s = np.arange(2 ** k, dtype=np.uint32)
    return ((s[:, None] >> np.arange(k, dtype=np.uint32)) & 1).astype(np.uint8)


def _valid_columns(parent: Graph, lane: tuple[int, bool]) -> list[int]:
    """Neighbor subsets (bitmasks, ascending) the lane allows a new vertex."""
    girth_k, bip = lane
    # Joining the new vertex to two old ones at distance d closes a cycle
    # of length d + 2: the girth lane forbids d <= girth_k - 3, the
    # bipartite lane odd d.  Vertices in different components never clash.
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
    return out


def _children_rows(parent_codes, child_n: int, lane: tuple[int, bool]) -> np.ndarray:
    """Bit rows of all one-vertex extensions the lane permits."""
    k = child_n - 1
    mp = _canon.num_pairs(k)
    mc = _canon.num_pairs(child_n)
    girth_k, bip = lane
    if not girth_k and not bip:
        # Unrestricted lane: tile every parent against every subset.
        parents = np.stack([_canon.unpack_code(c, k) for c in parent_codes])
        cols = _subset_bits(k)
        left = np.repeat(parents, len(cols), axis=0)
        right = np.tile(cols, (len(parents), 1))
        return np.hstack([left, right])
    rows = []
    for code in parent_codes:
        pbits = _canon.unpack_code(code, k)
        parent = _graph_from_bits(k, pbits)
        for s in _valid_columns(parent, lane):
            # The new vertex's column occupies slots mp..mc-1: pair
            # (i, child) sits at index mp + i.
            row = np.zeros(mc, dtype=np.uint8)
            row[:mp] = pbits
            for i in range(k):
                if (s >> i) & 1:
                    row[mp + i] = 1
            rows.append(row)
    if not rows:
        return np.zeros((0, mc), dtype=np.uint8)
    return np.stack(rows)


def _dedup_codes(rows: np.ndarray, n: int) -> tuple[int, ...]:
    """Canonical codes of the given bit rows, sorted and unique."""
    if len(rows) == 0:
        return ()
    rows = np.unique(rows, axis=0)
    codes = _canon.min_codes(rows, n)
    return tuple(sorted({int(c) for c in codes.tolist()}))


@lru_cache(maxsize=None)
def _level_codes(n: int, lane: tuple[int, bool]) -> tuple[int, ...]:
    """All lane-surviving graphs on n vertices, connected or not."""
    if n == 1:
        return (0,)
    rows = _children_rows(_level_codes(n - 1, lane), n, lane)
    return _dedup_codes(rows, n)


def _passes(filt: UniverseFilter, g: Graph) -> bool:
    """Final, non-hereditary part of the filter."""
    if not is_connected(g):
        return False
    if filt.bipartite == "yes" and not is_bipartite(g):
        return False
    if filt.bipartite == "no" and is_bipartite(g):
        return False
    if filt.min_edges is not None and g.m < filt.min_edges:
        return False
    return True


def _finalize(filt: UniverseFilter, rows: np.ndarray) -> tuple[int, ...]:
    """Filter completed labeled graphs, then canonicalize the survivors."""
    if len(rows) == 0:
        return ()
    rows = np.unique(rows, axis=0)
    keep = [row for row in rows if _passes(filt, _graph_from_bits(filt.n, row))]
    if not keep:
        return ()
    codes = _canon.min_codes(np.stack(keep), filt.n)
    return tuple(sorted({int(c) for c in codes.tolist()}))


@lru_cache(maxsize=None)
def _universe_codes(filt: UniverseFilter) -> tuple[int, ...]:
    if filt.n == 1:
        return (0,) if _passes(filt, _graph_from_bits(1, ())) else ()
    lane = _lane(filt)
    rows = _children_rows(_level_codes(filt.n - 1, lane), filt.n, lane)
    return _finalize(filt, rows)


def enumerate_connected(filt: UniverseFilter):
    """Yield one representative per isomorphism class matching the filter.

    Graphs come out in canonical labeling, ordered by canonical code, so
    two runs always agree.
    """
    check_scope(filt)
    for code in _universe_codes(filt):
        yield graph_from_code(filt.n, code)
