"""Bit-level canonical labeling machinery, on Python ints.

A labeled graph on n vertices is a 0/1 vector over the C(n,2) vertex pairs in
column order (0,1), (0,2), (1,2), (0,3), ... — the same order graph6 uses.
Read as an m-bit integer with the first pair as the top bit, it is the graph's
code under that labeling.

Two canonizers give two canonical codes.  min_code finds the lex-min code,
the smallest over all n! relabelings, by a prefix search; it names graphs.
min_codes canonizes the tied rows of enumeration's levels by
individualization-refinement: its code is the smallest over the leaves
of a search tree that every labeling of a graph grows alike, so it is
canonical and complete but in general not the lex-min code.  The same search, through automorphisms,
gives generators of a graph's automorphism group.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, Sequence


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
    """Lex-min code of the graph with neighbour bitmasks nbrs, the smallest
    over all n! relabelings, by a breadth-first prefix search.

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


def _equitable(nbrs: Sequence[int], cells: list[int]) -> list[int]:
    """Refine an ordered partition (cells as bitmasks) until it is equitable.

    Each round splits every cell by the vertices' signatures, their
    neighbour counts in each cell of the round's partition, and orders the
    pieces by signature, so the result does not depend on the labeling.
    """
    n = len(nbrs)
    width = n.bit_length()  # a count below n fits in width bits
    while True:
        split = []
        for cell in cells:
            if not cell & cell - 1:
                split.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row, sig = nbrs[low.bit_length() - 1], 0
                for other in cells:
                    sig = sig << width | (row & other).bit_count()
                if sig in groups:
                    groups[sig] |= low
                else:
                    groups[sig] = low
            if len(groups) == 1:
                split.append(cell)
            else:
                split += [groups[sig] for sig in sorted(groups)]
        if len(split) == len(cells) or len(split) == n:
            return split
        cells = split


def _leaf_code(nbrs: Sequence[int], cells: list[int]) -> int:
    """Code of the labeling that puts the vertex of the k-th singleton cell at k."""
    order = [cell.bit_length() - 1 for cell in cells]
    code = 0
    for j in range(1, len(order)):
        row = nbrs[order[j]]
        for i in order[:j]:
            code = code << 1 | row >> i & 1
    return code


def _search(nbrs: Sequence[int], gens: list[tuple[int, ...]] | None) -> int:
    """Canonical code of the graph with neighbour bitmasks nbrs, by
    individualization-refinement (McKay and Piperno, J. Symb. Comput. 60,
    2014); with a list gens, also generators of its automorphism group.

    The unit partition is refined to equitable.  While a cell is not a
    singleton, each vertex of the first such cell is individualized in
    turn (placed in a cell of its own before the rest of the cell) and the
    partition refined again; a discrete partition is a leaf, a labeling.
    The code is the smallest leaf code.  Every step is labeling-free, so
    isomorphic graphs grow the same leaf codes; of the vertices of the
    cell that are twins of each other only the first is tried, since
    swapping twins maps one subtree onto the other with the same codes.
    A cell of twins only is thus one path, and no refinement splits it
    (every other vertex sees all of it or none): it is laid out at once,
    lowest vertex first.

    gens receives, as image tuples, the transposition (v w) of each vertex
    v skipped as a twin of a tried w, and the map from the first leaf's
    order to the order of each later leaf with the first leaf's code.
    They generate Aut(G): an automorphism g maps the first leaf to a leaf
    of the unpruned tree with the same code, and the twin swaps, which fix
    every vertex individualized above them, carry that leaf step by step
    into the tree searched, onto a leaf whose map is recorded.
    """
    n = len(nbrs)
    best = first = -1
    stack = [_equitable(nbrs, [(1 << n) - 1])] if n else [[]]
    while stack:
        cells = stack.pop()
        for at, cell in enumerate(cells):
            if cell & cell - 1:
                break
        else:
            code = _leaf_code(nbrs, cells)
            if best < 0 or code < best:
                best = code
            if gens is not None:
                order = [cell.bit_length() - 1 for cell in cells]
                if first < 0:
                    first, origin = code, order
                elif code == first:
                    image = [0] * n
                    for v, w in zip(origin, order):
                        image[v] = w
                    gens.append(tuple(image))
            continue
        tried, rest = [], cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            row = nbrs[v]
            for w in tried:
                if not (row ^ nbrs[w]) & ~(low | 1 << w):  # v a twin of w
                    if gens is not None:
                        image = list(range(n))
                        image[v], image[w] = w, v
                        gens.append(tuple(image))
                    break
            else:
                tried.append(v)
        if len(tried) == 1:  # all twins: the tree is one path, the cell in order
            rest, cell = cell, []
            while rest:
                cell.append(rest & -rest)
                rest &= rest - 1
            stack.append(cells[:at] + cell + cells[at + 1:])
            continue
        for v in tried:
            low = 1 << v
            stack.append(_equitable(nbrs, cells[:at] + [low, cell ^ low] + cells[at + 1:]))
    return best


def automorphisms(nbrs: Sequence[int]) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of the graph with neighbour
    bitmasks nbrs, each the tuple of vertex images; none if it is trivial.

    They come from the search min_codes runs, as _search records them,
    without repeats.
    """
    gens: list[tuple[int, ...]] = []
    _search(nbrs, gens)
    return list(dict.fromkeys(gens))


def min_codes(rows: Iterable[Sequence[int]], n: int) -> list[int]:
    """Canonical code of each bit row, the one _search gives.

    A row is any sequence of C(n,2) zeros and ones in column order (a
    tuple, bytes, or a numpy row).  The code is the minimum over the
    leaves of the refinement search, not over all n! relabelings: equal
    codes iff isomorphic, but it is min_code's lex-min code only by chance.
    """
    pairs = pair_list(n)
    m = len(pairs)
    codes = []
    for row in rows:
        if len(row) != m:
            raise ValueError("bit row length does not match n")
        nbrs = [0] * n
        for (i, j), bit in zip(pairs, row):
            if bit:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
        codes.append(_search(nbrs, None))
    return codes
