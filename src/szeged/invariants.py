"""Wiener, Szeged, and revised Szeged indices, and the pair slack pi.

_indices computes all three indices of a connected graph, and the tie
total and untied cover the lemma suite reads, from one all-sources sweep
and one pass over the edges; index_report packs its indices.  pi lists
the edges one vertex pair straddles, read from apsp's plain distance
rows, and blocks_all_complete counts the edges that graphs.blocks' vertex
sets can hold.  The revised index is handled as the integer 4*Sz(G)*
throughout: each edge term (n_u + n_0/2)(n_v + n_0/2) has denominator
exactly 4, so (2*n_u + n_0)(2*n_v + n_0) is exact and no floats ever
appear.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Disconnected, GraphError, SamePair, TooLarge, VertexOutOfRange
from .graphs import Graph

# Nothing here calls these; perfbench/child.py spans them on this module
# when it traces a run.
from .graphs import apsp, girth, is_bipartite, odd_girth  # noqa: F401

# index_report refuses larger graphs.  Its sweep does about
# deg(v) * ecc(v) n-bit operations per vertex v of the 2-core, and none
# for the pendant trees, so a long cycle is the worst shape: a cold
# `compute` on a 5000-vertex cycle takes 10-11 s on 2 vCPUs, and on a
# 5000-vertex path, which is all tree, 0.1 s.
INDEX_MAX_N = 5000


class PairContribution(NamedTuple):
    """Edges straddled by one vertex pair, and the resulting slack pi."""

    pair: tuple[int, int]
    mu_edges: tuple[tuple[int, int], ...]
    pi: int


class IndexReport(NamedTuple):
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
        return self._asdict()


def _straddled(g: Graph, dx, dy) -> tuple[tuple[int, int], ...]:
    """Edges across which the distance rows dx and dy change in opposite
    strict directions: those that the pair of their sources straddles."""
    return tuple((u, v) for u, v in g.edges
                 if (dx[u] - dx[v]) * (dy[u] - dy[v]) < 0)


def pi(g: Graph, dm, x: int, y: int) -> PairContribution:
    """Edges straddled by {x, y}, and their count minus d(x, y), read
    from dm, the distance rows apsp(g) returns.

    Raises VertexOutOfRange for an end outside 0..n-1 before any other
    check, then GraphError for a matrix whose order is not n, then
    Disconnected, then SamePair.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise VertexOutOfRange(f"pair ({x}, {y}) outside 0..{g.n - 1}")
    if len(dm) != g.n:
        raise GraphError(f"distance matrix of order {len(dm)} for a graph with n = {g.n}")
    if None in dm[0]:
        raise Disconnected("indices are defined for connected graphs only")
    if x == y:
        raise SamePair(f"pair needs two distinct vertices, got {x} twice")
    straddled = _straddled(g, dm[x], dm[y])
    return PairContribution((x, y), straddled, len(straddled) - dm[x][y])


def blocks_all_complete(g: Graph, blocks) -> bool:
    """True iff every block of g induces a complete subgraph; blocks must
    be graphs.blocks(g), since only their sizes are read.

    Every edge lies in exactly one block, and a block B holds at most
    C(|B|, 2) of them, so the blocks are all complete iff those counts
    sum to m.
    """
    return sum(len(b) * (len(b) - 1) // 2 for b in blocks) == g.m


def _sweep(g: Graph):
    """Bit-parallel BFS from every vertex (Akiba, Iwata & Yoshida 2013),
    with only the 2-core's vertices as targets.

    Returns (trans, odd, odd_level, even_level).  trans[v] is the
    transmission of v, the sum of its distances.  odd[v] is the bitset of
    the sources at odd distance from v for a core vertex v, and None for
    a peeled one.  odd_level is the first depth k at which two adjacent
    vertices share a source at distance k, and even_level the first depth
    k at which a source reaches some vertex through two different
    neighbours; None where not found or not looked for.  Raises
    Disconnected unless every vertex reaches every source.

    Leaves are peeled until none is left.  Each component keeps at least
    one vertex: what remains is the 2-core, and one vertex of each tree.
    A peeled vertex s hangs at height h(s) below its root r(s), a core
    vertex, and every path from s leaves through r(s).  So s takes part
    as a source that reaches r(s) at depth h(s), and its own distances
    come from rerooting.  Across the bridge from a vertex p down to its
    peeled child x nothing is tied: the size(x) vertices below x are one
    step nearer to x than to p, the other n - size(x) one step farther.
    So D(x) = D(p) + n - 2 size(x).

    Bit s of front[v] is set iff d(s, v) is the current depth k, and bit s
    of unreached[v] iff d(s, v) > k.  The next fronts are the unions of
    the core neighbours' fronts minus the sources already reached, plus
    the peeled sources arriving at that depth.  A step costs one
    big-integer OR per core edge end, and only vertices with a nonempty
    front (those whose eccentricity is at least k) are visited.

    The cycle tests rest on a shortest cycle, and a shortest odd cycle,
    being isometric.  An odd one of length 2k + 1 puts some source at
    distance k from both ends of an edge, and no shorter odd closed walk
    exists; an even one of length 2k gives some vertex two neighbours at
    distance k - 1 from a source at distance k from it.  The step to depth
    k tests depth k - 1 for the odd case and depth k for the even one, so
    once the odd test has fired no even cycle found later is shorter:
    the even test runs only while neither has fired.  A forest peels to
    one vertex per tree, with no core edge, so neither test can fire.
    Peeling changes neither level: a peeled source fires a test at depth
    k only if its root fired it at depth k - h(s), and a peeled target,
    all of whose edges are bridges, fires neither.
    """
    n, adj = g.n, g.adj
    degree = [len(row) for row in adj]
    # The sum of a vertex's unpeeled neighbours is the neighbour itself
    # once only one is left.
    link = [sum(row) for row in adj]
    parent = [None] * n
    size = [1] * n
    peeled = []
    leaves = [v for v in range(n) if degree[v] == 1]
    for s in leaves:
        if degree[s] != 1:  # the last vertex of a tree
            continue
        degree[s] = 0
        p = parent[s] = link[s]
        link[p] -= s
        size[p] += size[s]
        degree[p] -= 1
        if degree[p] == 1:
            leaves.append(p)
        peeled.append(s)
    # arrivals[k][r]: the peeled sources at height k below core vertex r.
    arrivals = [{}]
    root = list(range(n))
    height = [0] * n
    for s in reversed(peeled):
        p = parent[s]
        r = root[s] = root[p]
        k = height[s] = height[p] + 1
        if k == len(arrivals):
            arrivals.append({})
        arrivals[k][r] = arrivals[k].get(r, 0) | 1 << s
    full = (1 << n) - 1
    core = [v for v in range(n) if parent[v] is None]
    if peeled:  # the BFS walks core edges only
        adj = list(adj)
        for v in core:
            if degree[v] < len(adj[v]):
                adj[v] = tuple(u for u in adj[v] if parent[u] is None)
    front = [0] * n
    unreached = [0] * n
    odd = [None] * n
    for v in core:
        front[v] = 1 << v
        unreached[v] = full ^ front[v]
        odd[v] = 0
    trans = [0] * n
    odd_level = even_level = None
    # A root whose neighbours were all peeled has no core edge, but takes
    # arrivals.
    active = [v for v in core if g.adj[v]]
    k = 0
    while active:
        k += 1
        test_odd = odd_level is None
        test_even = test_odd and even_level is None
        depth_is_odd = k & 1
        nxt = [0] * n
        still = []
        for v in active:
            seen = 0
            if test_even:
                twice = 0
                for u in adj[v]:
                    f = front[u]
                    twice |= seen & f
                    seen |= f
                if twice & unreached[v]:
                    even_level = k
            else:
                for u in adj[v]:
                    seen |= front[u]
            if test_odd and seen & front[v]:
                odd_level = k - 1
            new = seen & unreached[v]
            if new:
                nxt[v] = new
                unreached[v] ^= new
                trans[v] += k * new.bit_count()
                if depth_is_odd:
                    odd[v] |= new
                still.append(v)
        if k < len(arrivals):
            # The heights below a root run 1, 2, ... with no gap, so a root
            # stays active until its last peeled source has arrived.
            for v, new in arrivals[k].items():
                if not nxt[v]:
                    still.append(v)
                nxt[v] |= new
                unreached[v] ^= new
                trans[v] += k * new.bit_count()
                if depth_is_odd:
                    odd[v] |= new
        front, active = nxt, still
    if any(unreached):
        raise Disconnected("indices are defined for connected graphs only")
    for s in reversed(peeled):
        trans[s] = trans[parent[s]] + n - 2 * size[s]
    return trans, odd, odd_level, even_level


def _indices(g: Graph):
    """(W, Sz, n_0 total, untied, 4Sz*, girth, odd girth) of a connected graph.

    Everything comes from one _sweep, bipartiteness from its odd test, and
    one pass over the edges.  Across an edge uv every distance changes by
    at most one, so n_u - n_v = D(v) - D(u) for the transmissions D, and
    the vertices that are not tied are those at distances of opposite parity:
    n_u + n_v = |odd[u] ^ odd[v]|.  An edge into a pendant tree is a
    bridge, so nothing is tied and n_u + n_v = n there, as odd is kept
    for core vertices only.  Writing a and b for these two,
    4 n_u n_v = a^2 - b^2 and (2 n_u + n_0)(2 n_v + n_0) = n^2 - b^2, and
    the edge has n - a ties.  untied, the bitmask of the vertices tied on
    no edge, is the AND of odd[u] ^ odd[v] over the core edges.
    """
    n = g.n
    if n > INDEX_MAX_N:
        raise TooLarge(f"index report is capped at n = {INDEX_MAX_N}, got n = {n}")
    trans, odd, odd_level, even_level = _sweep(g)
    sz4 = b2 = a_sum = 0
    untied = (1 << n) - 1
    for u, v in g.edges:
        if odd[u] is None or odd[v] is None:
            a = n
        else:
            split = odd[u] ^ odd[v]
            untied &= split
            a = split.bit_count()
        b = trans[v] - trans[u]
        sz4 += a * a
        b2 += b * b
        a_sum += a
    w = sum(trans) // 2
    odd_len = None if odd_level is None else 2 * odd_level + 1
    even_len = None if even_level is None else 2 * even_level
    length = min((x for x in (odd_len, even_len) if x is not None), default=None)
    return (w, (sz4 - b2) // 4, g.m * n - a_sum, untied,
            g.m * n * n - b2, length, odd_len)


def index_report(g: Graph) -> IndexReport:
    """Bundle all indices and gaps for one connected graph, from _indices."""
    w, sz, _, _, rsz4, length, odd_len = _indices(g)
    return IndexReport(
        n=g.n,
        m=g.m,
        wiener=w,
        szeged=sz,
        revised_szeged_x4=rsz4,
        gap_sz=sz - w,
        gap_rsz_x4=rsz4 - 4 * w,
        bipartite=odd_len is None,
        girth=length,
        odd_girth=odd_len,
    )
