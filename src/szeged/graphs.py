"""Core graph type, shortest-path distances, and structural predicates.

Results are plain values: apsp gives the tuple of BFS distance rows,
is_bipartite a bool, blocks a tuple of vertex sets, and girth and
odd_girth a CycleInfo record of a length and a witness cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from . import _canon
from .errors import DuplicateEdge, GraphError, SelfLoop, VertexOutOfRange


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction.  edges is the sorted tuple of distinct
    pairs (u, v) with u < v, as build_graph returns it.  adj holds sorted
    neighbor tuples, which every traversal walks and has_edge bisects:
    vertex w meets its smaller neighbours in edges (u, w) before its
    larger ones in edges (w, v), each in increasing order, so the rows
    come out sorted.
    """

    __slots__ = ("n", "m", "edges", "adj")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.m = len(edges)
        self.edges = edges
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.adj = tuple(map(tuple, neighbors))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u] if 0 <= u < self.n else ()
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and return the Graph it describes.

    Edges are unordered pairs; each is stored with the smaller endpoint
    first and the edge tuple sorted.  Raises SelfLoop, DuplicateEdge, or
    VertexOutOfRange on bad input.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    seen = set()
    normalized = []
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) given twice")
        seen.add((u, v))
        normalized.append((u, v))
    return Graph(n, tuple(sorted(normalized)))


def cycle_graph(k: int) -> Graph:
    """C_k for k >= 3."""
    if k < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {k}")
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    """P_k: path on k vertices."""
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k: int) -> Graph:
    """K_k."""
    return build_graph(k, [(i, j) for j in range(k) for i in range(j)])


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex map i -> perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm is not a permutation of the vertex set")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _bfs(g: Graph, roots, cap: int | None = None):
    """BFS forest depth and parent lists; None where unreached.

    Each root that an earlier root did not reach starts its own tree at
    depth 0.  cap, if given, stops each tree after the layer at that depth.
    """
    depth: list[int | None] = [None] * g.n
    parent: list[int | None] = [None] * g.n
    adj = g.adj
    for root in roots:
        if depth[root] is not None:
            continue
        depth[root] = 0
        frontier = [root]
        d = 0
        while frontier and (cap is None or d < cap):
            d += 1
            layer = []
            for u in frontier:
                for v in adj[u]:
                    if depth[v] is None:
                        depth[v] = d
                        parent[v] = u
                        layer.append(v)
            frontier = layer
    return depth, parent


def apsp(g: Graph) -> tuple[tuple[int | None, ...], ...]:
    """Breadth-first distance rows from every vertex; None where unreached."""
    return tuple(tuple(_bfs(g, (s,))[0]) for s in range(g.n))


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex."""
    return None not in _bfs(g, (0,))[0]


def _tree_cycle(parent: list[int | None], depth: list[int | None],
                u: int, v: int) -> tuple[int, ...]:
    """Simple cycle through edge (u, v) and the BFS-tree paths above it.

    The two tree paths are followed up to their lowest common ancestor;
    below that point they are vertex-disjoint, so the result is a cycle.
    """
    up_u = [u]
    up_v = [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        up_u.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        up_v.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        up_u.append(a)
        up_v.append(b)
    # up_u ends at the common ancestor; splice the v-side path in reverse.
    return tuple(up_u + up_v[-2::-1])


def is_bipartite(g: Graph) -> bool:
    """True iff no edge joins two vertices of one BFS forest depth.

    Adjacent depths differ by at most one, so without such an edge depth
    parity 2-colours g; with one, the edge and the two tree paths above
    it close an odd cycle.
    """
    depth = _bfs(g, range(g.n))[0]
    return all(depth[u] != depth[v] for u, v in g.edges)


class CycleInfo(NamedTuple):
    """Shortest-cycle report: a length and one witness cycle.

    length None is the acyclic marker (no cycle of the requested kind);
    the witness is then empty.
    """

    length: int | None
    witness: tuple[int, ...]


def _shortest_cycle(g: Graph, odd: bool) -> CycleInfo:
    """Shortest cycle, or shortest odd cycle if odd; see girth."""
    if odd:
        if is_bipartite(g):
            return CycleInfo(None, ())  # no odd cycle
    elif g.m < g.n and g.m == g.n - _bfs(g, range(g.n))[0].count(0):
        return CycleInfo(None, ())  # a forest: one edge fewer than vertices per tree
    best_len = g.n + 1  # longer than any cycle
    best: tuple[int, ...] = ()
    for root in range(g.n):
        if best_len == 3:  # nothing is shorter than a triangle
            break
        depth, parent = _bfs(g, (root,), (best_len - 1) // 2)
        for u, v in g.edges:
            du, dv = depth[u], depth[v]
            if du is None or dv is None or du + dv + 1 >= best_len:
                continue
            if parent[u] == v or parent[v] == u or (odd and du != dv):
                continue
            best = _tree_cycle(parent, depth, u, v)
            best_len = len(best)
    return CycleInfo(len(best), best) if best else CycleInfo(None, ())


def girth(g: Graph) -> CycleInfo:
    """Length and witness of a shortest cycle; acyclic marker for forests.

    BFS from every vertex.  A non-tree edge (u, v) closes a cycle through
    the tree of length at most depth[u] + depth[v] + 1, with equality for
    some edge when the root lies on a shortest cycle.  So each BFS stops
    at the depth beyond which no cycle shorter than the best so far can
    close, only edges whose bound beats the best are candidates, and the
    tree cycle is built once per improvement.  A forest is recognised
    first, by one BFS forest, instead of by n searches that find nothing.
    """
    return _shortest_cycle(g, odd=False)


def odd_girth(g: Graph) -> CycleInfo:
    """Length and witness of a shortest odd cycle; acyclic marker if none.

    The same capped scan as girth, restricted to edges joining two
    vertices on one BFS layer: such an edge closes an odd walk, and
    collapsing it through the tree gives a simple odd cycle.  A bipartite
    graph is recognised first, by is_bipartite's one BFS forest, instead
    of by n searches that find nothing.
    """
    return _shortest_cycle(g, odd=True)


def blocks(g: Graph) -> tuple[frozenset[int], ...]:
    """Biconnected components as vertex sets, in order of their sorted
    members; bridges are 2-vertex blocks, isolated vertices singletons.

    Hopcroft and Tarjan (1973): vertices are stacked as the search reaches
    them.  When it backs out of u into its parent p with low[u] >= depth[p],
    p and the vertices stacked from u on form a block.
    """
    adj = g.adj
    depth: list[int | None] = [None] * g.n
    low = [0] * g.n
    found: list[frozenset[int]] = []

    for start in range(g.n):
        if depth[start] is not None:
            continue
        if not adj[start]:
            found.append(frozenset([start]))
            continue
        depth[start] = 0
        stack = [start]
        path = [(start, None, iter(adj[start]))]
        while path:
            u, p, neighbors = path[-1]
            for v in neighbors:
                if depth[v] is None:
                    depth[v] = low[v] = depth[u] + 1
                    stack.append(v)
                    path.append((v, u, iter(adj[v])))
                    break
                # Simple graph: the parent appears once in adj[u], as the
                # tree edge, and is the one visited neighbour to skip.
                if v != p and depth[v] < low[u]:
                    low[u] = depth[v]
            else:
                path.pop()
                if p is None:
                    continue
                low[p] = min(low[p], low[u])
                if low[u] >= depth[p]:
                    # Pop down to u: looking u up in the stack would scan it
                    # from the bottom, quadratic on long paths.
                    members = [p]
                    while members[-1] != u:
                        members.append(stack.pop())
                    found.append(frozenset(members))
    found.sort(key=sorted)
    return tuple(found)


def adjacency_bits(g: Graph) -> list[int]:
    """Upper-triangle adjacency in column order, as a 0/1 list."""
    bits = [0] * _canon.num_pairs(g.n)
    for u, v in g.edges:
        bits[_canon.pair_index(u, v)] = 1
    return bits


def graph_from_slots(n: int, slots) -> Graph:
    """The graph whose set column-order pairs are slots.

    Every set of pairs is a simple graph, so they become its edges without
    build_graph's checks; only the set pairs are visited.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    return Graph(n, tuple(sorted(map(_canon.pair_at, slots))))
