"""Independent brute-force reference implementations for the tests.

Nothing here imports the package under test.  Distances come from simple-path
enumeration, the indices from formulas over a plain table of distance rows,
cycles from explicit subset search, connectivity and blocks from union-find,
and isomorphism dedup from a full permutation sweep over a row-major bit
encoding (the package uses column-major), so agreement is meaningful.
The lex-min code the package's names follow is refereed by lexmin_codes,
an n! table sweep in the package's column order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


def pairs_rowmajor(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def dist_path_enum(n, edges, s, t):
    """Length of a shortest s-t path by enumerating all simple paths."""
    if s == t:
        return 0
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = [None]

    def walk(v, seen, length):
        if best[0] is not None and length >= best[0]:
            return
        for w in adj[v]:
            if w == t:
                if best[0] is None or length + 1 < best[0]:
                    best[0] = length + 1
            elif w not in seen:
                seen.add(w)
                walk(w, seen, length + 1)
                seen.remove(w)

    walk(s, {s}, 0)
    return best[0]


def dist_table(n, edges):
    """Distance rows d[u][v], every entry by simple-path enumeration."""
    return [[dist_path_enum(n, edges, u, v) for v in range(n)] for u in range(n)]


# The index formulas below read any table of distance rows d[u][v]: the
# path-enumeration table above for small n, or the package's apsp rows for
# large shapes, so one formula set serves both.

def wiener_oracle(d):
    return sum(d[u][v] for u, v in pairs_rowmajor(len(d)))


def edge_split(d, u, v):
    """(n_u, n_v, n_0): the vertices strictly closer to u, strictly closer
    to v, and at equal distance from both, each counted on its own."""
    ws = range(len(d))
    return (sum(d[w][u] < d[w][v] for w in ws),
            sum(d[w][v] < d[w][u] for w in ws),
            sum(d[w][u] == d[w][v] for w in ws))


def szeged_oracle(d, edges):
    return sum(nu * nv for nu, nv, _ in (edge_split(d, u, v) for u, v in edges))


def revised_szeged_x4_oracle(d, edges):
    return sum((2 * nu + n0) * (2 * nv + n0)
               for nu, nv, n0 in (edge_split(d, u, v) for u, v in edges))


def tie_total_oracle(d, edges):
    """n_0 summed over the edges."""
    return sum(edge_split(d, u, v)[2] for u, v in edges)


def untied_oracle(d, edges):
    """Bitmask of the vertices at equal distance from the ends of no edge."""
    return sum(1 << w for w in range(len(d))
               if all(d[w][u] != d[w][v] for u, v in edges))


def mu_oracle(d, x, y, u, v):
    """1 iff x and y are strictly closer to opposite ends of the edge uv."""
    return int(d[x][u] < d[x][v] and d[y][v] < d[y][u]
               or d[x][v] < d[x][u] and d[y][u] < d[y][v])


def szeged_via_mu_oracle(d, edges):
    """Sz as the double sum of mu over edges and vertex pairs, without any
    edge split."""
    return sum(mu_oracle(d, x, y, u, v)
               for u, v in edges for x, y in pairs_rowmajor(len(d)))


def cycle_pairs_oracle(d, edges, cycle):
    """The lemma suite's slack bounds on the pairs of a cycle, a vertex
    sequence, with pi from mu_oracle: on an even cycle every pair needs pi
    at least its distance along the cycle, on an odd one every pair at
    distance 2 or more along it needs pi at least 1."""
    k = len(cycle)
    for i, j in pairs_rowmajor(k):
        x, y = cycle[i], cycle[j]
        slack = sum(mu_oracle(d, x, y, u, v) for u, v in edges) - d[x][y]
        along = min(j - i, k - j + i)
        if slack < (along if k % 2 == 0 else min(along - 1, 1)):
            return False
    return True


def is_isometric_cycle(d, cycle):
    """True iff distances along the cycle, a vertex sequence, equal d.

    Steps along it must then be edges and its vertices distinct, so for
    three or more vertices True also says that it is a cycle of the graph.
    """
    k = len(cycle)
    return all(d[cycle[i]][cycle[j]] == min(j - i, k - j + i)
               for i, j in pairs_rowmajor(k))


def _subset_has_cycle(edge_set, subset):
    """Is there a cycle visiting exactly the vertices of subset?"""
    # Every vertex of such a cycle has two neighbours inside the subset.
    for v in subset:
        if sum((min(v, w), max(v, w)) in edge_set for w in subset) < 2:
            return False
    first, *rest = subset
    for perm in itertools.permutations(rest):
        ring = (first,) + perm
        if all((min(a, b), max(a, b)) in edge_set
               for a, b in zip(ring, ring[1:] + ring[:1])):
            return True
    return False


def girth_cycle_search(n, edges, parity=None):
    """Shortest cycle length by trying every vertex subset, smallest first.

    parity "odd" restricts to odd lengths; returns None if there is none.
    """
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    for k in range(3, n + 1):
        if parity == "odd" and k % 2 == 0:
            continue
        for subset in itertools.combinations(range(n), k):
            if _subset_has_cycle(edge_set, subset):
                return k
    return None


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def blocks_oracle(n, edges):
    """Blocks as vertex frozensets, from edge equivalence by shared cycles.

    Two edges (v, a) and (v, b) lie on a common cycle iff a and b are
    joined in G - v, which a union-find over the other edges tells.  Any
    two edges of a block with a cycle share one (Whitney, 1932), and its
    edges are linked by such adjacent pairs, so the classes these pairs
    generate are the blocks.
    """
    norm = [(min(u, v), max(u, v)) for u, v in edges]
    parent = {e: e for e in norm}
    for v in range(n):
        rest = list(range(n))
        for a, b in norm:
            if v not in (a, b):
                rest[_find(rest, a)] = _find(rest, b)
        at_v = [e for e in norm if v in e]
        for e, f in itertools.combinations(at_v, 2):
            if _find(rest, sum(e) - v) == _find(rest, sum(f) - v):
                parent[_find(parent, e)] = _find(parent, f)
    groups = {}
    for e in norm:
        groups.setdefault(_find(parent, e), set()).update(e)
    blocks = [frozenset(g) for g in groups.values()]
    covered = set().union(*blocks) if blocks else set()
    blocks.extend(frozenset([v]) for v in range(n) if v not in covered)
    return sorted(blocks, key=sorted)


def blocks_complete_oracle(n, edges):
    """True iff every block induces a complete subgraph: each pair of a
    block's vertices is looked up in the edge set."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    return all(pair in edge_set
               for block in blocks_oracle(n, edges)
               for pair in itertools.combinations(sorted(block), 2))


def connected_uf(n, edges):
    parent = list(range(n))
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    return len({_find(parent, v) for v in range(n)}) == 1


def bipartite_2color(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = {}
    for start in range(n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def graph6_oracle(n, edges):
    """graph6 bytes from the format's definition: one bit per vertex pair,
    pairs in column order (0,1), (0,2), (1,2), (0,3), ..., zero-padded to a
    multiple of six, six bits per byte plus 63, after the vertex count."""
    edge_set = {(min(e), max(e)) for e in edges}
    bits = "".join("1" if (i, j) in edge_set else "0" for j in range(n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    count = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    digits = count + [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    return bytes(63 + d for d in digits)


# Malformed graph6 input, each with the one message it is refused with.  A
# byte out of range is named first, wherever it is.
GRAPH6_ERRORS = [
    ("", "empty graph6 string"),
    ("\n \n", "empty graph6 string"),
    (">>graph6<<", "empty graph6 string"),
    ("D", "graph6 body has wrong length"),
    ("Dhc?", "graph6 body has wrong length"),
    ("~?@???????????", "graph6 body has wrong length"),
    ("Dh\x1f", "graph6 byte out of range"),
    ("Dh\x7f", "graph6 byte out of range"),
    ("Dh c", "graph6 byte out of range"),
    ("Dhc \n\n x", "graph6 byte out of range"),
    (">>graph6<< Dhc", "graph6 byte out of range"),
    (">>graph6", "graph6 byte out of range"),
    ("~~???~??\x01", "graph6 byte out of range"),
    ("~??}\x01", "graph6 byte out of range"),
    ("A@", "nonzero graph6 padding bits"),
    ("Bh", "nonzero graph6 padding bits"),
    ("A@ \n", "nonzero graph6 padding bits"),
    ("?", "graph must have at least one vertex"),
    ("~??", "truncated graph6 vertex count"),
    (" ~??\t", "truncated graph6 vertex count"),
    (">>graph6<<~??", "truncated graph6 vertex count"),
    ("~??}", "graph6 long form used for n <= 62"),
    ("~~???~??", "graph6 input supported for n <= 258047 only"),
]


def pairs_colmajor(n):
    """Pairs (i, j), i < j, in column order (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(n) for i in range(j)]


def slot_colmajor(i, j):
    """Column-order position of the pair {i, j}."""
    i, j = min(i, j), max(i, j)
    return j * (j - 1) // 2 + i


# Weight tables cover at most MAX_TABLE_N! = 5,040 permutations (1.8 MB at
# n = 10); larger n sweeps n!/MAX_TABLE_N! blocks of them, one per choice of
# the first n - MAX_TABLE_N images.
MAX_TABLE_N = 7
# Codes are sums of distinct powers of two below 2^m, exact in float64 only
# while m fits its 53-bit significand.
MAX_EXACT_BITS = 53
BATCH_BYTES = 2**24  # float64 codes one (rows, permutations) product may hold


def _pair_slots(images, n):
    """Slot of the pair {images[i], images[j]} for each column-order pair (i, j).

    images is (n, P) int8, one vertex map per column; the result is (m, P)
    int16, the slot of {hi, lo} (hi > lo) being hi*(hi-1)//2 + lo.
    """
    pairs = np.array(pairs_colmajor(n), dtype=np.intp).reshape(-1, 2)
    a, b = images[pairs[:, 0]], images[pairs[:, 1]]
    slot = np.maximum(a, b, dtype=np.int16)
    np.minimum(a, b, out=a)
    slot *= slot - 1
    slot //= 2
    slot += a
    return slot


@lru_cache(maxsize=None)
def weights(n):
    """Wt (m, P) over the permutations fixing vertices below n - MAX_TABLE_N.

    P = min(n, MAX_TABLE_N)!, all n! permutations when n <= MAX_TABLE_N.
    Wt[s, p] = 2^(m-1-t) where permutation p moves source slot s to target
    slot t, so bits @ Wt holds every such relabeled code of every row.
    """
    k = max(0, n - MAX_TABLE_N)
    images = [tuple(range(k)) + tail for tail in itertools.permutations(range(k, n))]
    m = n * (n - 1) // 2
    slots = _pair_slots(np.array(images, dtype=np.int8).T, n)
    return (2.0 ** np.arange(m - 1, -1, -1))[slots]


@lru_cache(maxsize=None)
def block_sources(n):
    """Source slot maps, one row per block of the n! relabelings.

    Each row fixes the first n - MAX_TABLE_N images and gives the source
    slot feeding every target slot; composing it with the permutations of
    weights(n) yields every one of the n! relabelings exactly once.  Up
    to MAX_TABLE_N there is one block, the identity.
    """
    k = max(0, n - MAX_TABLE_N)
    images = [head + tuple(v for v in range(n) if v not in head)
              for head in itertools.permutations(range(n), k)]
    return _pair_slots(np.array(images, dtype=np.int8).T, n).T


def lexmin_codes(bits, n):
    """Lex-min code of each column-order bit row: the smallest m-bit code
    over all n! vertex relabelings, the first pair the top bit.

    bits has shape (B, C(n,2)); the returned int64 array has shape (B,).
    Each block of relabelings is one exact float64 matrix product of the
    gathered bit rows with a table of powers of two; rows are chunked so
    that no (rows, permutations) product exceeds roughly BATCH_BYTES.
    """
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    b, m = bits.shape
    if m != n * (n - 1) // 2:
        raise ValueError("bit row length does not match n")
    if m > MAX_EXACT_BITS:
        raise ValueError(f"codes of {m} bits are not exact in float64 (n={n})")
    wt = weights(n)
    rows_per_pass = max(1, BATCH_BYTES // (wt.shape[1] * 8))
    best = np.full(b, np.inf)
    for src in block_sources(n):
        for start in range(0, b, rows_per_pass):
            chunk = bits[start:start + rows_per_pass, src].astype(np.float64)
            codes = (chunk @ wt).min(axis=1)
            np.minimum(best[start:start + rows_per_pass], codes,
                       out=best[start:start + rows_per_pass])
    return best.astype(np.int64)


def lexmin_graph6(n, edges):
    """graph6 bytes of the lex-min relabeling of a graph: its canonical name."""
    edge_set = {(min(e), max(e)) for e in edges}
    pairs = pairs_colmajor(n)
    code = int(lexmin_codes([[int(p in edge_set) for p in pairs]], n)[0])
    m = len(pairs)
    return graph6_oracle(n, [p for s, p in enumerate(pairs) if code >> (m - 1 - s) & 1])


def _perm_code(n, bits, perm, index_of):
    out = 0
    for k, (i, j) in enumerate(pairs_rowmajor(n)):
        a, b = perm[i], perm[j]
        if bits >> index_of[min(a, b), max(a, b)] & 1:
            out |= 1 << k
    return out


@lru_cache(maxsize=None)
def graph_classes(n):
    """One edge-tuple per isomorphism class of graphs on n vertices.

    Sweeps all 2^C(n,2) labeled graphs and keeps the ones whose row-major
    code is minimal over every vertex permutation.  Pure Python through
    n = 5; a vectorized sweep handles n = 6.
    """
    pairs = pairs_rowmajor(n)
    m = len(pairs)
    index_of = {p: k for k, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    if n <= 5:
        reps = []
        for bits in range(1 << m):
            if all(_perm_code(n, bits, p, index_of) >= bits for p in perms):
                reps.append(tuple(p for p in pairs if bits >> index_of[p] & 1))
        return tuple(reps)
    if n != 6:
        raise ValueError("brute-force class sweep supported up to n = 6")
    # Source-bit table: target slot k of permuted graph reads source slot
    # src[p][k].
    src = np.array([[index_of[min(p[i], p[j]), max(p[i], p[j])]
                     for (i, j) in pairs] for p in perms], dtype=np.int64)
    weights = (1 << np.arange(m, dtype=np.int64))
    codes = np.arange(1 << m, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(m, dtype=np.int64)) & 1).astype(np.int8)
    best = codes.copy()
    chunk = 2048
    for lo in range(0, 1 << m, chunk):
        block = bits[lo:lo + chunk]          # (c, m)
        permuted = block[:, src]             # (c, perms, m)
        vals = permuted @ weights            # (c, perms)
        best[lo:lo + chunk] = vals.min(axis=1)
    keep = np.flatnonzero(best == codes)
    out = []
    for code in keep.tolist():
        out.append(tuple(p for p in pairs if code >> index_of[p] & 1))
    return tuple(out)


def count_classes(n, pred):
    """Number of isomorphism classes on n vertices satisfying pred."""
    return sum(1 for edges in graph_classes(n) if pred(n, edges))


def random_connected_graph(rng, max_n=10, min_n=2):
    """Random spanning tree plus random extra edges; always connected."""
    n = rng.randint(min_n, max_n)
    edges = {(rng.randint(0, i - 1), i) for i in range(1, n)}
    extra = rng.random()
    for i, j in pairs_rowmajor(n):
        if (i, j) not in edges and rng.random() < extra * 0.5:
            edges.add((i, j))
    return n, sorted(edges)


def random_graph_with_components(rng, max_n=8):
    """Random connected pieces of 2-4 vertices and isolated vertices.

    Two pieces at least when max_n >= 8; the labels are shuffled, so the
    pieces interleave.
    """
    n, edges = 0, []
    while n + (size := rng.randint(1, 4)) <= max_n:
        if size > 1:
            _, piece = random_connected_graph(rng, max_n=size, min_n=size)
            edges += [(u + n, v + n) for u, v in piece]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
