"""Equality families, closed-form bounds, and structural achiever tests.

The bound here for a graph on n vertices:
  gap_sz >= 2n - 5        (connected nonbipartite, girth >= 5, n >= 5)
  gap_sz >= 4n - 8        (connected bipartite, m >= n, n >= 4)
  gap_rsz_x4 >= n^2+4n-6  (connected nonbipartite, n >= 4)
with equality exactly on cycle-plus-tree families built below.  Each
result is one row of _THEOREMS; its universe filter, bound and equality
predicate are all read from that row.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .enumeration import UniverseFilter
from .errors import GraphError, HypothesisViolated, InvalidTreeSpec
from .graphs import Graph, build_graph, girth


class _TreeFields(NamedTuple):
    """TreeSpec's fields, unchecked; TreeSpec checks them."""

    size: int
    parent: tuple[int, ...]


class TreeSpec(_TreeFields):
    """Rooted tree on vertices 0..size-1 encoded by a parent array.

    parent[i] < i is the parent of vertex i for i >= 1; parent[0] is 0 by
    convention and carries no edge.  size 1 is the bare root.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.size < 1:
            raise InvalidTreeSpec(f"tree size must be >= 1, got {self.size}")
        if len(self.parent) != self.size:
            raise InvalidTreeSpec("parent array length must equal size")
        if self.size >= 1 and self.parent[0] != 0:
            raise InvalidTreeSpec("parent[0] must be 0 (root convention)")
        for i in range(1, self.size):
            if not 0 <= self.parent[i] < i:
                raise InvalidTreeSpec(
                    f"parent[{i}] = {self.parent[i]} not in [0, {i})")
        return self

    @classmethod
    def trivial(cls) -> "TreeSpec":
        return cls(1, (0,))

    @classmethod
    def path(cls, size: int) -> "TreeSpec":
        return cls(size, tuple(max(i - 1, 0) for i in range(size)))

    @classmethod
    def star(cls, size: int) -> "TreeSpec":
        return cls(size, (0,) * size)

    @classmethod
    def random(cls, size: int, rng: random.Random) -> "TreeSpec":
        """Uniform draw over parent arrays: parent[i] ~ [0, i-1]."""
        if size < 1:
            raise InvalidTreeSpec(f"tree size must be >= 1, got {size}")
        return cls(size, (0,) + tuple(rng.randint(0, i - 1)
                                      for i in range(1, size)))


def _graft(t: TreeSpec, at: int, base: int) -> list[tuple[int, int]]:
    """Edges of t hung at graph vertex at; tree vertex i > 0 becomes base + i."""
    return [(at if p == 0 else base + p, base + i)
            for i, p in enumerate(t.parent[1:], 1)]


def cycle_with_tree(g_len: int, t: TreeSpec) -> Graph:
    """Cycle on vertices 0..g_len-1 with t grafted at cycle vertex 0.

    Tree vertex i > 0 becomes graph vertex g_len - 1 + i, so
    n = g_len + t.size - 1.
    """
    if g_len < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {g_len}")
    edges = [(i, (i + 1) % g_len) for i in range(g_len)]
    edges += _graft(t, 0, g_len - 1)
    return build_graph(g_len + t.size - 1, edges)


def c5_two_trees(t1: TreeSpec, t2: TreeSpec) -> Graph:
    """C5 with t1 grafted at cycle vertex 0 and t2 at the adjacent vertex 1.

    n = 3 + t1.size + t2.size.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += _graft(t1, 0, 4)
    edges += _graft(t2, 1, 3 + t1.size)
    return build_graph(3 + t1.size + t2.size, edges)


class BoundValue(NamedTuple):
    """Exact bound as numerator over denominator 1 or 4."""

    numerator: int
    denominator: int


class _Theorem(NamedTuple):
    """One result: hypotheses, bound, and the family attaining it."""

    min_n: int
    bipartite: str  # "yes" or "no", as in UniverseFilter
    min_girth: int | None
    edges_at_least_n: bool  # min_edges = n
    numerator: Callable[[int], int]
    denominator: int
    cycle: int  # the one cycle of every equality graph
    two_adjacent: bool  # trees may hang at two adjacent cycle vertices


_THEOREMS = {
    "thm1": _Theorem(5, "no", 5, False, lambda n: 2 * n - 5, 1, 5, True),
    "thm2": _Theorem(4, "yes", None, True, lambda n: 4 * n - 8, 1, 4, False),
    "thm3": _Theorem(4, "no", None, False, lambda n: n * n + 4 * n - 6, 4, 3, False),
}
THEOREMS = tuple(_THEOREMS)


def universe_filter(which: str, n: int) -> UniverseFilter:
    """The enumeration universe matching one theorem's hypotheses."""
    t = _THEOREMS.get(which)
    if t is None:
        raise ValueError(f"unknown theorem {which!r}, expected one of {THEOREMS}")
    if n < t.min_n:
        raise HypothesisViolated(f"{which} needs n >= {t.min_n}, got {n}")
    return UniverseFilter(n, bipartite=t.bipartite, min_girth=t.min_girth,
                          min_edges=n if t.edges_at_least_n else None)


def theorem_bound(which: str, n: int) -> BoundValue:
    """One theorem's bound at n, read from its row of _THEOREMS: 2n - 5,
    4n - 8 or (n^2 + 4n - 6)/4.  ValueError for an unknown theorem,
    HypothesisViolated below its minimum n."""
    universe_filter(which, n)
    t = _THEOREMS[which]
    return BoundValue(t.numerator(n), t.denominator)


def _is_equality(which: str, g: Graph) -> bool:
    """Whether g is in the theorem's equality family.

    Raises HypothesisViolated unless g lies in the theorem's universe.
    Every family member is unicyclic (connected with m = n) with the row's
    cycle length, and its trees hang at one cycle vertex, or at two
    adjacent ones where the row allows it.
    """
    filt = universe_filter(which, g.n)
    if not filt.admits(g):
        raise HypothesisViolated(f"{which} needs a graph in {filt}")
    if g.m != g.n:
        return False
    t = _THEOREMS[which]
    cycle = girth(g).witness
    if len(cycle) != t.cycle:
        return False
    attach = [v for v in cycle if g.degree(v) > 2]
    return len(attach) <= 1 or (t.two_adjacent and len(attach) == 2
                                and g.has_edge(*attach))


def is_equality_thm1(g: Graph) -> bool:
    """Unicyclic with a 5-cycle and trees at one vertex or two adjacent ones.

    Requires g connected, nonbipartite, girth >= 5, n >= 5.
    """
    return _is_equality("thm1", g)


def is_equality_thm2(g: Graph) -> bool:
    """Unicyclic with a 4-cycle and all tree growth at one cycle vertex.

    Requires g connected, bipartite, n >= 4, m >= n.
    """
    return _is_equality("thm2", g)


def is_equality_thm3(g: Graph) -> bool:
    """Unicyclic with a triangle and all tree growth at one cycle vertex.

    Requires g connected, nonbipartite, n >= 4.
    """
    return _is_equality("thm3", g)
