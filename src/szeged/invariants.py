"""Wiener, Szeged, and revised Szeged indices, with the pairwise oracle.

The revised index is handled as the integer 4*Sz(G)* throughout: each edge
term (n_u + n_0/2)(n_v + n_0/2) has denominator exactly 4, so
(2*n_u + n_0)(2*n_v + n_0) is exact and no floats ever appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt

from .errors import Disconnected, NotAnEdge, SamePair
from .graphs import (
    BlockDecomposition,
    DistanceMatrix,
    Graph,
    apsp,
    girth,
    is_bipartite,
    odd_girth,
)


@dataclass(frozen=True)
class EdgePartition:
    """Vertex counts by distance comparison against one edge's endpoints."""

    edge: tuple[int, int]
    n_u: int
    n_v: int
    n_0: int


@dataclass(frozen=True)
class PairContribution:
    """Edges straddled by one vertex pair, and the resulting slack pi."""

    pair: tuple[int, int]
    mu_edges: tuple[tuple[int, int], ...]
    pi: int


@dataclass(frozen=True)
class IndexReport:
    """All three indices of one connected graph, plus the gaps to Wiener."""

    n: int
    m: int
    wiener: int
    szeged: int
    revised_szeged_x4: int
    gap_sz: int
    gap_rsz_x4: int
    bipartite: bool
    girth: int | None
    odd_girth: int | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "wiener": self.wiener,
            "szeged": self.szeged,
            "revised_szeged_x4": self.revised_szeged_x4,
            "gap_sz": self.gap_sz,
            "gap_rsz_x4": self.gap_rsz_x4,
            "bipartite": self.bipartite,
            "girth": self.girth,
            "odd_girth": self.odd_girth,
        }


def _require_connected(dm: DistanceMatrix) -> None:
    if not dm.connected:
        raise Disconnected("indices are defined for connected graphs only")


def _require_edge(g: Graph, e) -> tuple[int, int]:
    u, v = e
    if not g.has_edge(u, v):
        raise NotAnEdge(f"({u}, {v}) is not an edge")
    return (u, v) if u < v else (v, u)


def _split(du, dv) -> tuple[int, int, int]:
    """(n_u, n_v, n_0) from the distance rows of an edge's endpoints."""
    n_u = sum(map(lt, du, dv))
    n_v = sum(map(lt, dv, du))
    return n_u, n_v, len(du) - n_u - n_v


def edge_partition(g: Graph, dm: DistanceMatrix, e) -> EdgePartition:
    """Counts of vertices strictly closer to u, strictly closer to v, tied."""
    _require_connected(dm)
    u, v = _require_edge(g, e)
    return EdgePartition((u, v), *_split(dm[u], dm[v]))


def wiener(g: Graph, dm: DistanceMatrix) -> int:
    """Sum of distances over unordered vertex pairs."""
    _require_connected(dm)
    return sum(map(sum, dm.d)) // 2


def _szeged_pair(g: Graph, dm: DistanceMatrix) -> tuple[int, int]:
    """(Sz, 4*Sz*) from one pass over the edges."""
    _require_connected(dm)
    sz = rsz4 = 0
    for u, v in g.edges:
        n_u, n_v, n_0 = _split(dm[u], dm[v])
        sz += n_u * n_v
        rsz4 += (2 * n_u + n_0) * (2 * n_v + n_0)
    return sz, rsz4


def szeged(g: Graph, dm: DistanceMatrix) -> int:
    """Sum over edges of n_u * n_v."""
    return _szeged_pair(g, dm)[0]


def revised_szeged_x4(g: Graph, dm: DistanceMatrix) -> int:
    """Sum over edges of (2*n_u + n_0)(2*n_v + n_0); equals 4*Sz*."""
    return _szeged_pair(g, dm)[1]


def mu(g: Graph, dm: DistanceMatrix, x: int, y: int, e) -> int:
    """1 iff x and y are strictly closer to opposite endpoints of e."""
    if x == y:
        raise SamePair(f"pair needs two distinct vertices, got {x} twice")
    u, v = _require_edge(g, e)
    xu, xv = dm[x][u], dm[x][v]
    yu, yv = dm[y][u], dm[y][v]
    if xu < xv and yv < yu:
        return 1
    if xv < xu and yu < yv:
        return 1
    return 0


def szeged_via_mu(g: Graph, dm: DistanceMatrix) -> int:
    """Szeged index as the double sum of mu over edges and pairs.

    Deliberately naive and independent of edge_partition; this is the
    cross-check path.
    """
    _require_connected(dm)
    total = 0
    for e in g.edges:
        for x in range(g.n):
            for y in range(x + 1, g.n):
                total += mu(g, dm, x, y, e)
    return total


def pi(g: Graph, dm: DistanceMatrix, x: int, y: int) -> PairContribution:
    """Edges straddled by {x, y}, and their count minus d(x, y)."""
    _require_connected(dm)
    if x == y:
        raise SamePair(f"pair needs two distinct vertices, got {x} twice")
    straddled = tuple(e for e in g.edges if mu(g, dm, x, y, e))
    return PairContribution((x, y), straddled, len(straddled) - dm[x][y])


def n0_sum(g: Graph, dm: DistanceMatrix) -> int:
    """Total count of endpoint-equidistant vertices over all edges."""
    _require_connected(dm)
    return sum(_split(dm[u], dm[v])[2] for u, v in g.edges)


def blocks_all_complete(g: Graph, bd: BlockDecomposition) -> bool:
    """True iff every block induces a complete subgraph."""
    for block in bd.blocks:
        members = sorted(block)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if not g.has_edge(u, v):
                    return False
    return True


def index_report(g: Graph, dm: DistanceMatrix | None = None) -> IndexReport:
    """Bundle all indices and gaps for one connected graph."""
    if dm is None:
        dm = apsp(g)
    _require_connected(dm)
    w = wiener(g, dm)
    sz, rsz4 = _szeged_pair(g, dm)
    return IndexReport(
        n=g.n,
        m=g.m,
        wiener=w,
        szeged=sz,
        revised_szeged_x4=rsz4,
        gap_sz=sz - w,
        gap_rsz_x4=rsz4 - 4 * w,
        bipartite=bool(is_bipartite(g)),
        girth=girth(g).length,
        odd_girth=odd_girth(g).length,
    )
