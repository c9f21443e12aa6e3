"""Core graph type, shortest-path distances, and structural predicates."""

from __future__ import annotations

import numpy as np

from . import _canon
from .errors import (
    DuplicateEdge,
    GraphError,
    NotACycle,
    SelfLoop,
    TooLarge,
    VertexOutOfRange,
)

# canonical_form sweeps all n! labelings; beyond this it is refused.
CANON_MAX_N = 10


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction.  adj holds sorted neighbor tuples, which
    every traversal walks; masks holds the same rows as integer bitmasks
    and backs only has_edge.
    """

    __slots__ = ("n", "m", "edges", "adj", "masks")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.m = len(edges)
        self.edges = edges
        neighbors: list[list[int]] = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adj = tuple(tuple(sorted(row)) for row in neighbors)
        self.masks = tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (self.masks[u] >> v) & 1 == 1

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


def _bfs(g: Graph, src: int, cap: int | None = None):
    """BFS depth and parent lists from src; None where unreached.

    cap, if given, stops the search after the layer at that depth.
    """
    depth: list[int | None] = [None] * g.n
    parent: list[int | None] = [None] * g.n
    depth[src] = 0
    adj = g.adj
    frontier = [src]
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


class DistanceMatrix:
    """All-pairs hop distances; entry None marks an unreachable pair."""

    __slots__ = ("n", "d", "connected")

    def __init__(self, n: int, rows: tuple[tuple[int | None, ...], ...]):
        self.n = n
        self.d = rows
        self.connected = all(x is not None for x in rows[0]) if n else True

    def dist(self, u: int, v: int) -> int | None:
        return self.d[u][v]

    def __getitem__(self, u: int) -> tuple[int | None, ...]:
        return self.d[u]


def apsp(g: Graph) -> DistanceMatrix:
    """Breadth-first distances from every vertex."""
    return DistanceMatrix(g.n, tuple(tuple(_bfs(g, s)[0]) for s in range(g.n)))


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex."""
    return None not in _bfs(g, 0)[0]


class BipartiteCheck:
    """Verdict plus certificate: a 2-coloring, or an odd cycle."""

    __slots__ = ("bipartite", "coloring", "odd_cycle")

    def __init__(self, bipartite: bool, coloring, odd_cycle):
        self.bipartite = bipartite
        self.coloring = coloring
        self.odd_cycle = odd_cycle

    def __bool__(self) -> bool:
        return self.bipartite


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


def is_bipartite(g: Graph) -> BipartiteCheck:
    """2-color by BFS; on failure return a simple odd cycle instead."""
    color: list[int | None] = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        depth, parent = _bfs(g, start)
        for v in range(g.n):
            if depth[v] is not None:
                color[v] = depth[v] % 2
        for u, v in g.edges:
            if depth[u] is not None and color[u] == color[v]:
                cycle = _tree_cycle(parent, depth, u, v)
                return BipartiteCheck(False, None, cycle)
    return BipartiteCheck(True, tuple(color), None)


class CycleInfo:
    """Shortest-cycle report: a length and one witness cycle.

    length None is the acyclic marker (no cycle of the requested kind);
    the witness is then empty.
    """

    __slots__ = ("length", "witness")

    def __init__(self, length: int | None, witness: tuple[int, ...]):
        self.length = length
        self.witness = witness

    @property
    def is_acyclic(self) -> bool:
        return self.length is None


def _shortest_cycle(g: Graph, odd: bool) -> CycleInfo:
    """Shortest cycle, or shortest odd cycle if odd; see girth."""
    best_len = g.n + 1  # longer than any cycle
    best: tuple[int, ...] = ()
    for root in range(g.n):
        if best_len == 3:  # nothing is shorter than a triangle
            break
        depth, parent = _bfs(g, root, (best_len - 1) // 2)
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
    tree cycle is built once per improvement.
    """
    return _shortest_cycle(g, odd=False)


def odd_girth(g: Graph) -> CycleInfo:
    """Length and witness of a shortest odd cycle; acyclic marker if none.

    The same capped scan as girth, restricted to edges joining two
    vertices on one BFS layer: such an edge closes an odd walk, and
    collapsing it through the tree gives a simple odd cycle.
    """
    return _shortest_cycle(g, odd=True)


class BlockDecomposition:
    """Biconnected components as vertex sets; bridges are 2-vertex blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[frozenset[int], ...]):
        self.blocks = blocks


def blocks(g: Graph) -> BlockDecomposition:
    """DFS lowpoint decomposition; isolated vertices give singleton blocks."""
    depth: list[int | None] = [None] * g.n
    low = [0] * g.n
    parent: list[int | None] = [None] * g.n
    edge_stack: list[tuple[int, int]] = []
    found: list[frozenset[int]] = []

    for start in range(g.n):
        if depth[start] is not None:
            continue
        if not g.adj[start]:
            found.append(frozenset([start]))
            continue
        depth[start] = 0
        stack = [(start, iter(g.adj[start]))]
        while stack:
            u, neighbors = stack[-1]
            advanced = False
            for v in neighbors:
                if v == parent[u]:
                    # Skip one tree-edge backtrack; simple graph, so the
                    # parent appears exactly once in adj[u].
                    parent[u] = -1
                    continue
                if depth[v] is None:
                    edge_stack.append((u, v))
                    depth[v] = depth[u] + 1
                    low[v] = depth[v]
                    parent[v] = u
                    stack.append((v, iter(g.adj[v])))
                    advanced = True
                    break
                if depth[v] < depth[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], depth[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= depth[p]:
                    members = set()
                    while True:
                        a, b = edge_stack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (p, u):
                            break
                    found.append(frozenset(members))
    found.sort(key=sorted)
    return BlockDecomposition(tuple(found))


def _check_cycle(g: Graph, cycle) -> tuple[int, ...]:
    seq = tuple(cycle)
    k = len(seq)
    if k < 3 or len(set(seq)) != k:
        raise NotACycle("need at least 3 distinct vertices")
    for i, u in enumerate(seq):
        if not 0 <= u < g.n:
            raise NotACycle(f"vertex {u} not in graph")
        v = seq[(i + 1) % k]
        if not g.has_edge(u, v):
            raise NotACycle(f"({u}, {v}) is not an edge")
    return seq


def is_isometric_cycle(g: Graph, cycle) -> bool:
    """True iff distances along the cycle match distances in g.

    cycle is a vertex sequence with consecutive pairs (and the wrap-around
    pair) adjacent; NotACycle otherwise.
    """
    seq = _check_cycle(g, cycle)
    k = len(seq)
    dm = apsp(g)
    for i in range(k):
        for j in range(i + 1, k):
            around = min(j - i, k - (j - i))
            if dm.dist(seq[i], seq[j]) != around:
                return False
    return True


def adjacency_bits(g: Graph) -> np.ndarray:
    """Upper-triangle adjacency in column order, as a uint8 row."""
    bits = np.zeros(_canon.num_pairs(g.n), dtype=np.uint8)
    for u, v in g.edges:
        bits[_canon.pair_index(u, v)] = 1
    return bits


def graph_from_bits(n: int, bits) -> Graph:
    """Inverse of adjacency_bits: the graph whose column-order pairs are set."""
    return build_graph(n, [pair for pair, bit in zip(_canon.pair_list(n), bits) if bit])


def canonical_form(g: Graph) -> bytes:
    """Smallest adjacency-bit string over all relabelings, as graph6 bytes.

    Equal strings iff isomorphic.  Brute force over n! labelings, so
    refused (TooLarge) beyond n = 10.
    """
    if g.n > CANON_MAX_N:
        raise TooLarge(f"canonical form is brute force; n={g.n} > {CANON_MAX_N}")
    code = int(_canon.min_codes(adjacency_bits(g)[None, :], g.n)[0])
    return _canon.graph6_bytes_from_bits(g.n, _canon.unpack_code(code, g.n))
