"""Seeded input generators for the benchmark workloads.

Everything here is plain Python with no import of the package under test,
so the graphs the program receives are built independently of it.  Sizes
are stratified: the i-th of k draws comes from the i-th of k equal slices
of the size distribution, with only the position inside the slice left to
the seed.  Different seeds therefore give different graphs with the same
spread of sizes, which keeps the timings of two seeds comparable.
"""

from __future__ import annotations

import hashlib
import math
import random


def random_tree_parents(size: int, rng: random.Random) -> list[int]:
    """Random recursive tree: parent[i] uniform on [0, i-1]; parent[0] = 0."""
    return [0] + [rng.randint(0, i - 1) for i in range(1, size)]


def cycle_with_tree(g_len: int, size: int, rng: random.Random) -> tuple[int, list]:
    """C_g with a random tree of `size` vertices grafted at cycle vertex 0."""
    edges = [(i, (i + 1) % g_len) for i in range(g_len)]
    parent = random_tree_parents(size, rng)
    for i in range(1, size):
        p = parent[i]
        edges.append((0 if p == 0 else g_len - 1 + p, g_len - 1 + i))
    return g_len + size - 1, edges


def c5_two_trees(s1: int, s2: int, rng: random.Random) -> tuple[int, list]:
    """C5 with random trees of s1 and s2 vertices at adjacent vertices 0, 1."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    off = 4
    for root, size in ((0, s1), (1, s2)):
        parent = random_tree_parents(size, rng)
        for i in range(1, size):
            p = parent[i]
            edges.append((root if p == 0 else off + p, off + i))
        off += size - 1
    return 3 + s1 + s2, edges


def random_connected(n: int, m: int, rng: random.Random) -> tuple[int, list]:
    """Random spanning tree plus m - (n - 1) further distinct random edges."""
    parent = random_tree_parents(n, rng)
    edges = {(parent[i], i) for i in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def shuffled(n: int, edges, rng: random.Random) -> tuple[int, list]:
    """The same graph under a random vertex relabeling, edges in random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
    rng.shuffle(out)
    return n, out


def edgelist_text(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


# Equality families and the bound each one meets exactly:
# (label, gap key of the index report, bound as a function of n).
FAMILIES = (
    ("c3-tree", "gap_rsz_x4", lambda n: n * n + 4 * n - 6),
    ("c4-tree", "gap_sz", lambda n: 4 * n - 8),
    ("c5-tree", "gap_sz", lambda n: 2 * n - 5),
    ("c5-two-trees", "gap_sz", lambda n: 2 * n - 5),
)


def _stratified(k: int, rng: random.Random) -> list[float]:
    """k points in [0, 1), one uniform draw inside each of k equal slices."""
    return [(i + rng.random()) / k for i in range(k)]


def compute_graphs(count: int, n_lo: int, n_hi: int, seed: int) -> list[dict]:
    """Connected graphs with n log-uniform in [n_lo, n_hi].

    Even strata are random sparse graphs with m = n * 4^f, f in [0, 1);
    odd strata are equality-family members, cycling through FAMILIES.
    Random graphs are taken in blocks of five neighbouring sizes, and each
    block draws f once from each fifth of [0, 1), because the cost of a
    large graph grows with m.  Each item holds the edgelist text the
    program parses, the family label (None for a random graph), n, m and
    the edge list.
    """
    rng = random.Random(seed)
    items = []
    levels: list[int] = []
    for i, u in enumerate(_stratified(count, rng)):
        n = round(math.exp(math.log(n_lo) + u * (math.log(n_hi) - math.log(n_lo))))
        if i % 2 == 0:
            if not levels:
                levels = rng.sample(range(5), 5)
            f = (levels.pop() + rng.random()) / 5
            family = None
            n, edges = random_connected(n, min(round(n * 4 ** f), n * (n - 1) // 2), rng)
        else:
            family = FAMILIES[(i // 2) % len(FAMILIES)][0]
            if family == "c5-two-trees":
                s1 = rng.randint(1, n - 4)
                n, edges = c5_two_trees(s1, n - 3 - s1, rng)
            else:
                g_len = int(family[1])
                n, edges = cycle_with_tree(g_len, n - g_len + 1, rng)
        n, edges = shuffled(n, edges, rng)
        items.append({"text": edgelist_text(n, edges), "family": family,
                      "n": n, "m": len(edges), "edges": edges})
    rng.shuffle(items)
    return items


def canon_graphs(n_small: int, small_count: int, n_big: int, seed: int) -> list[dict]:
    """Graphs for canonical_form: small_count graphs on n_small vertices in
    two random labelings each, then one graph on n_big vertices.

    Each item holds n, the edge list, and `cls`, an index shared by the
    labelings of one graph.  Edge counts are stratified over [n, C(n,2)-n].
    """
    rng = random.Random(seed)
    items = []
    fracs = _stratified(small_count, rng)
    for cls, f in enumerate(fracs):
        top = n_small * (n_small - 1) // 2 - n_small
        m = n_small + round(f * (top - n_small))
        n, edges = random_connected(n_small, m, rng)
        for _ in range(2):
            ln, le = shuffled(n, edges, rng)
            items.append({"n": ln, "edges": le, "cls": cls})
    top = n_big * (n_big - 1) // 2 - n_big
    n, edges = random_connected(n_big, n_big + rng.randint(0, top - n_big), rng)
    ln, le = shuffled(n, edges, rng)
    items.append({"n": ln, "edges": le, "cls": small_count})
    return items


def digest(obj) -> str:
    """Short stable digest of generated inputs (anything repr-stable)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
