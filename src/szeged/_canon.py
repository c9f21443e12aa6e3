"""Bit-level canonical labeling machinery.

A labeled graph on n vertices is a 0/1 vector over the C(n,2) vertex pairs in
column order (0,1), (0,2), (1,2), (0,3), ... — the same order graph6 uses.
Read as an m-bit integer with the first pair as the top bit, it is the graph's
code; the canonical code is the smallest code over all vertex relabelings.

Two functions find it.  min_code names one graph by a prefix search on
Python ints, without numpy.  min_codes canonizes whole batches of rows,
sweeping them through all n! relabelings in blocks of at most MAX_TABLE_N!:
each block's relabeled codes are one exact float64 matrix product of the
gathered bit rows with a table of powers of two.  numpy is imported by the
batch functions themselves, on the first batch, so a process that only
names graphs never loads it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

# Weight tables cover at most MAX_TABLE_N! = 5,040 permutations (1.8 MB at
# n = 10); larger n sweeps n!/MAX_TABLE_N! blocks of them, one per choice of
# the first n - MAX_TABLE_N images.
MAX_TABLE_N = 7
# Codes are sums of distinct powers of two below 2^m, exact in float64 only
# while m fits its 53-bit significand.
MAX_EXACT_BITS = 53
_BATCH_BYTES = 2**24  # float64 codes one (rows, permutations) product may hold


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Position of pair {i, j} (i < j) in column order."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def pair_at(slot: int) -> tuple[int, int]:
    """Pair (i, j), i < j, at a column-order position; inverse of pair_index."""
    j = (1 + isqrt(8 * slot + 1)) // 2
    return slot - j * (j - 1) // 2, j


def code_slots(code: int, n: int) -> list[int]:
    """Column-order positions of the set bits of an m-bit code, ascending."""
    m = num_pairs(n)
    return [s for s in range(m) if code >> (m - 1 - s) & 1]


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), i < j, in column order."""
    return tuple((i, j) for j in range(n) for i in range(j))


def min_code(nbrs: Sequence[int]) -> int:
    """Canonical code of the graph with neighbour bitmasks nbrs, the code
    min_codes gives, by a breadth-first prefix search.

    Relabeled, the code is the columns of the vertices in their new order,
    each the vertex's adjacency to those placed before it.  Columns have
    fixed widths, so the smallest code places, at each depth, a vertex whose
    column is the smallest over every placement still tied.  A state holds
    the tied placements of one placed set as an ordered partition: each cell
    is a clique or an independent set, and every other placed vertex is
    adjacent to all of it or to none, so any order inside a cell gives the
    same prefix (the ordered partitions of McKay and Piperno, J. Symb.
    Comput. 60, 2014, searched here for the lex-min code).  Placing u splits every cell into its non-neighbours of u,
    then its neighbours: that order is the one that gives u's column its
    minimum, read off the cell sizes.  u joins the last cell if it is a twin
    of its members on the placed set, and otherwise starts a cell of its
    own.  States with the same cells are one state, and of the unplaced
    vertices that are twins of each other (swapping them is an automorphism
    fixing every placed vertex) only the first is tried.
    """
    n = len(nbrs)
    earlier_twins = [sum(1 << w for w in range(u)
                         if not (nbrs[u] ^ nbrs[w]) & ~(1 << u | 1 << w))
                     for u in range(n)]
    # cells -> the placed set, their union; the first column is empty.
    states = {(1 << u,): 1 << u for u in range(n) if not earlier_twins[u]}
    code = 0
    for depth in range(1, n):
        best, tied = 1 << depth, []  # above every column of depth bits
        for cells, placed in states.items():
            free = ~placed & (1 << n) - 1
            while free:
                u = (free & -free).bit_length() - 1
                free &= free - 1
                if earlier_twins[u] & ~placed:
                    continue
                row, col = nbrs[u], 0
                for cell in cells:  # non-neighbours, the zeros, first
                    col = col << cell.bit_count() | (1 << (cell & row).bit_count()) - 1
                if col < best:
                    best, tied = col, []
                if col == best:
                    tied.append((cells, placed, u))
        code = code << depth | best
        states = {}
        for cells, placed, u in tied:
            row = nbrs[u]
            split = []
            for cell in cells:
                inside = cell & row
                if inside != cell:
                    split.append(cell ^ inside)
                if inside:
                    split.append(inside)
            x = (split[-1] & -split[-1]).bit_length() - 1  # in the last cell
            # u and x twins on the placed set: u sees the other cells as the
            # cell does, and its members as x does, so the cell stays whole.
            if not (row ^ nbrs[x]) & placed & ~(1 << x):
                split[-1] |= 1 << u
            else:
                split.append(1 << u)
            states[tuple(split)] = placed | 1 << u
    return code


def _pair_slots(images: np.ndarray, n: int) -> np.ndarray:
    """Slot of the pair {images[i], images[j]} for each column-order pair (i, j).

    images is (n, P) int8, one vertex map per column; the result is (m, P)
    int16, the slot of {hi, lo} (hi > lo) being hi*(hi-1)//2 + lo.
    """
    import numpy as np

    pairs = np.array(pair_list(n), dtype=np.intp).reshape(-1, 2)
    a, b = images[pairs[:, 0]], images[pairs[:, 1]]
    slot = np.maximum(a, b, dtype=np.int16)
    np.minimum(a, b, out=a)
    slot *= slot - 1
    slot //= 2
    slot += a
    return slot


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """Wt (m, P) over the permutations fixing vertices below n - MAX_TABLE_N.

    P = min(n, MAX_TABLE_N)!, all n! permutations when n <= MAX_TABLE_N.
    Wt[s, p] = 2^(m-1-t) where permutation p moves source slot s to target
    slot t, so bits @ Wt holds every such relabeled code of every row.
    """
    import numpy as np

    k = max(0, n - MAX_TABLE_N)
    images = [tuple(range(k)) + tail for tail in itertools.permutations(range(k, n))]
    m = num_pairs(n)
    slots = _pair_slots(np.array(images, dtype=np.int8).T, n)
    return (2.0 ** np.arange(m - 1, -1, -1))[slots]


@lru_cache(maxsize=None)
def _block_sources(n: int) -> np.ndarray:
    """Source slot maps, one row per block of the n! relabelings.

    Each row fixes the first n - MAX_TABLE_N images and gives the source
    slot feeding every target slot; composing it with the permutations of
    _weights(n) yields every one of the n! relabelings exactly once.  Up
    to MAX_TABLE_N there is one block, the identity.
    """
    import numpy as np

    k = max(0, n - MAX_TABLE_N)
    images = [head + tuple(v for v in range(n) if v not in head)
              for head in itertools.permutations(range(n), k)]
    return _pair_slots(np.array(images, dtype=np.int8).T, n).T


def min_codes(bits: np.ndarray, n: int) -> np.ndarray:
    """Canonical (minimal) code of each bit row under all vertex relabelings.

    bits has shape (B, C(n,2)); the returned int64 array has shape (B,).
    Every n runs the same loop over the blocks of _block_sources(n); rows
    are chunked so that no (rows, permutations) product exceeds roughly
    _BATCH_BYTES.
    """
    import numpy as np

    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    b, m = bits.shape
    if m != num_pairs(n):
        raise ValueError("bit row length does not match n")
    if m > MAX_EXACT_BITS:
        raise ValueError(f"codes of {m} bits are not exact in float64 (n={n})")
    wt = _weights(n)
    rows_per_pass = max(1, _BATCH_BYTES // (wt.shape[1] * 8))
    best = np.full(b, np.inf)
    for src in _block_sources(n):
        for start in range(0, b, rows_per_pass):
            chunk = bits[start:start + rows_per_pass, src].astype(np.float64)
            codes = (chunk @ wt).min(axis=1)
            np.minimum(best[start:start + rows_per_pass], codes,
                       out=best[start:start + rows_per_pass])
    return best.astype(np.int64)
