"""Distance-based indices, edge partitions, and the pair slack pi.

The package computes the indices in one sweep and edge pass,
invariants._indices, which index_report packs and the lemma suite reads;
the edge-partition and mu formulas are the referees of tests/oracles.py,
fed apsp rows.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from szeged import (
    Disconnected,
    GraphError,
    SamePair,
    TooLarge,
    TreeSpec,
    UniverseFilter,
    VertexOutOfRange,
    apsp,
    blocks_all_complete,
    build_graph,
    complete_graph,
    cycle_graph,
    cycle_with_tree,
    enumerate_connected,
    girth,
    index_report,
    is_bipartite,
    odd_girth,
    path_graph,
    pi,
    relabel,
)
from szeged.invariants import INDEX_MAX_N, _indices

PAW = [(0, 1), (0, 2), (1, 2), (0, 3)]


def indices(g):
    r = index_report(g)
    return r.wiener, r.szeged, r.revised_szeged_x4


def oracle_indices(n, edges):
    """(W, Sz, 4Sz*) by the referee's formulas on path-enumeration distances."""
    d = oracles.dist_table(n, edges)
    return (oracles.wiener_oracle(d), oracles.szeged_oracle(d, edges),
            oracles.revised_szeged_x4_oracle(d, edges))


def random_tree(rng, n):
    return build_graph(n, [(rng.randint(0, i - 1), i) for i in range(1, n)])


def small_connected(max_n, min_n=1):
    for n in range(min_n, max_n + 1):
        yield from enumerate_connected(UniverseFilter(n))


def reference_report(g):
    """index_report's fields by the per-source path: apsp rows feeding the
    referee's formulas, plus the BFS bipartite test and the shortest-cycle
    scans."""
    d = apsp(g)
    w = oracles.wiener_oracle(d)
    sz = oracles.szeged_oracle(d, g.edges)
    rsz4 = oracles.revised_szeged_x4_oracle(d, g.edges)
    return {"n": g.n, "m": g.m, "wiener": w, "szeged": sz,
            "revised_szeged_x4": rsz4, "gap_sz": sz - w,
            "gap_rsz_x4": rsz4 - 4 * w, "bipartite": is_bipartite(g),
            "girth": girth(g).length, "odd_girth": odd_girth(g).length}


class TestSpotValues:
    @pytest.mark.parametrize("n,edges,want", [
        (5, cycle_graph(5).edges, (15, 20, 125)),
        (4, cycle_graph(4).edges, (8, 16, 64)),
        (4, tuple(PAW), (8, 8, 58)),
        (4, complete_graph(4).edges, (6, 6, 96)),
    ])
    def test_frozen_and_oracle(self, n, edges, want):
        got = indices(build_graph(n, edges))
        assert got == want
        assert got == oracle_indices(n, edges)

    def test_path_wiener(self):
        g = path_graph(5)
        w, sz, rsz4 = indices(g)
        assert w == sz == 20 and rsz4 == 80


class TestEdgePartition:
    """The referee's edge split, on apsp rows."""

    @staticmethod
    def split(g, e):
        return oracles.edge_split(apsp(g), *e)

    def test_c5_every_edge(self):
        g = cycle_graph(5)
        for e in g.edges:
            assert self.split(g, e) == (2, 2, 1)

    def test_paw_triangle_base(self):
        assert self.split(build_graph(4, PAW), (1, 2)) == (1, 1, 2)

    def test_star_center_edge(self):
        assert self.split(build_graph(4, [(0, 1), (0, 2), (0, 3)]), (0, 1)) == (3, 1, 0)

    def test_counts_sum_to_n(self):
        for g in small_connected(6, min_n=2):
            d = apsp(g)
            for e in g.edges:
                n_u, n_v, n_0 = oracles.edge_split(d, *e)
                assert n_u + n_v + n_0 == g.n
                assert n_u >= 1 and n_v >= 1


class TestMu:
    """The referee's mu, on apsp rows."""

    def test_p3(self):
        d = apsp(path_graph(3))
        assert oracles.mu_oracle(d, 0, 2, 1, 2) == 1
        assert oracles.mu_oracle(d, 0, 2, 0, 1) == 1
        assert oracles.mu_oracle(d, 0, 1, 1, 2) == 0

    def test_c5_distance_two_pair(self):
        d = apsp(cycle_graph(5))
        assert oracles.mu_oracle(d, 0, 2, 3, 4) == 1
        assert oracles.mu_oracle(d, 0, 2, 2, 3) == 0

    def test_symmetric_in_the_pair(self):
        g = build_graph(4, PAW)
        d = apsp(g)
        for e in g.edges:
            for x in range(4):
                for y in range(4):
                    if x != y:
                        assert oracles.mu_oracle(d, x, y, *e) == oracles.mu_oracle(d, y, x, *e)


class TestPi:
    def test_c5_distance_two_pair(self):
        g = cycle_graph(5)
        p = pi(g, apsp(g), 0, 2)
        assert p.pi == 1
        assert p.mu_edges == ((0, 1), (1, 2), (3, 4))

    def test_c5_adjacent_pair(self):
        p = pi(cycle_graph(5), apsp(cycle_graph(5)), 0, 1)
        assert p.pi == 0 and p.mu_edges == ((0, 1),)

    def test_trees_have_zero_slack(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_tree(rng, rng.randint(2, 10))
            dm = apsp(g)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    p = pi(g, dm, x, y)
                    assert p.pi == 0 and len(p.mu_edges) == dm[x][y]

    def test_nonnegative_and_sums_to_gap(self):
        for g in small_connected(6, min_n=2):
            dm = apsp(g)
            total = 0
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    p = pi(g, dm, x, y)
                    assert p.pi >= 0
                    total += p.pi
            assert total == index_report(g).gap_sz

    def test_same_pair_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(SamePair):
            pi(g, apsp(g), 0, 0)

    @pytest.mark.parametrize("x,y", [(-1, 1), (1, -1), (0, 5), (5, 0), (-1, -1)])
    def test_ends_outside_the_graph_rejected(self, x, y):
        # -1 must not read vertex 4's row, and 5 must not raise IndexError.
        g = cycle_graph(5)
        with pytest.raises(VertexOutOfRange):
            pi(g, apsp(g), x, y)

    def test_range_is_checked_first(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(VertexOutOfRange):
            pi(g, apsp(g), 4, 4)
        with pytest.raises(VertexOutOfRange):
            pi(g, apsp(cycle_graph(3)), 4, 4)

    @pytest.mark.parametrize("n,other,x,y,want", [
        # With the 4-cycle's matrix, the 5-cycle's pair would read past its rows.
        (5, 4, 0, 1, 0),
        # With the 5-cycle's, the 4-cycle's opposite pair would get pi 1, not 2.
        (4, 5, 0, 2, 2),
    ])
    def test_matrix_of_another_order_rejected(self, n, other, x, y, want):
        g = cycle_graph(n)
        assert pi(g, apsp(g), x, y).pi == want
        with pytest.raises(GraphError) as info:
            pi(g, apsp(cycle_graph(other)), x, y)
        assert info.type is GraphError

    def test_order_is_checked_before_connectivity(self):
        with pytest.raises(GraphError) as info:
            pi(cycle_graph(4), apsp(build_graph(5, [])), 0, 0)
        assert info.type is GraphError


def random_graph_of_kind(rng, kind, max_n=10):
    """Random connected graph, n <= max_n, of kind "any", "bipartite" or
    "even-girth".

    Extra edges join vertices of opposite depth parity in a random tree
    unless kind is "any"; their density falls as n grows, so large draws
    keep long shortest cycles.  "even-girth" then adds one edge between two
    vertices at even distance 4 or more: an odd cycle of length 5 or more
    appears, while any 4-cycle stays shortest.
    """
    n = rng.randint(2, max_n)
    parent = [rng.randrange(i) for i in range(1, n)]
    side = [0]
    for p in parent:
        side.append(1 - side[p])
    edges = {(p, i) for i, p in enumerate(parent, 1)}
    density = rng.random() * min(0.5, 3 / n)
    for j in range(n):
        for i in range(j):
            if (kind == "any" or side[i] != side[j]) and rng.random() < density:
                edges.add((i, j))
    g = build_graph(n, edges)
    if kind == "even-girth":
        dm = apsp(g)
        far = [(i, j) for j in range(n) for i in range(j)
               if dm[i][j] >= 4 and dm[i][j] % 2 == 0]
        if far:
            g = build_graph(n, edges | {rng.choice(far)})
    return g


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["any", "bipartite", "even-girth"]))
def test_report_odd_girth_matches_scan(seed, kind):
    # Every field, the odd girth among them, against the reference path.
    g = random_graph_of_kind(random.Random(seed), kind, max_n=40)
    assert index_report(g).to_dict() == reference_report(g)


def test_report_odd_girth_with_even_girth():
    # A 4-cycle and a 5-cycle sharing the edge (0, 1).
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 6), (6, 0)])
    r = index_report(g)
    assert (r.bipartite, r.girth, r.odd_girth) == (False, 4, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pi_matches_mu_definition(seed):
    n, edges = oracles.random_connected_graph(random.Random(seed), max_n=10)
    g = build_graph(n, edges)
    dm = apsp(g)
    for x in range(n):
        for y in range(x + 1, n):
            want = tuple(e for e in g.edges if oracles.mu_oracle(dm, x, y, *e))
            p = pi(g, dm, x, y)
            assert p.pair == (x, y)
            assert p.mu_edges == want and p.pi == len(want) - dm[x][y]


class TestDualFormula:
    """index_report's Sz against the double sum of mu over edges and pairs."""

    def test_exhaustive_small(self):
        for g in small_connected(6, min_n=2):
            assert index_report(g).szeged == oracles.szeged_via_mu_oracle(apsp(g), g.edges)

    def test_random_instances(self):
        rng = random.Random(42)
        for _ in range(300):
            n, edges = oracles.random_connected_graph(rng, max_n=10)
            g = build_graph(n, edges)
            assert index_report(g).szeged == oracles.szeged_via_mu_oracle(apsp(g), g.edges)


class TestNZeroSum:
    """The tie total of the edge pass that the lemma suite reads."""

    def test_examples(self):
        assert _indices(cycle_graph(5))[2] == 5
        assert _indices(cycle_graph(4))[2] == 0
        assert _indices(build_graph(4, PAW))[2] == 4

    def test_bipartite_means_zero(self):
        for g in small_connected(6, min_n=2):
            assert (_indices(g)[2] == 0) == is_bipartite(g)


class TestOrderingAndEquality:
    def test_index_chain(self):
        for g in small_connected(6, min_n=1):
            w, sz, rsz4 = indices(g)
            assert 4 * w <= 4 * sz <= rsz4

    def test_trees_collapse_the_chain(self):
        rng = random.Random(8)
        for _ in range(20):
            w, sz, rsz4 = indices(random_tree(rng, rng.randint(2, 12)))
            assert w == sz and rsz4 == 4 * w

    def test_bipartite_iff_revised_equals_szeged(self):
        for g in small_connected(6, min_n=2):
            w, sz, rsz4 = indices(g)
            assert (rsz4 == 4 * sz) == is_bipartite(g)

    def test_szeged_equals_wiener_iff_complete_blocks(self):
        for g in small_connected(6, min_n=1):
            w, sz, _ = indices(g)
            assert (sz == w) == blocks_all_complete(g)

    def test_block_examples(self):
        assert blocks_all_complete(path_graph(4))
        g = build_graph(4, PAW)
        assert blocks_all_complete(g)
        assert not blocks_all_complete(cycle_graph(5))


class TestBlocksAllComplete:
    """The block-count rule against the referee's pairwise edge lookups."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_connected_class(self, n):
        for g in enumerate_connected(UniverseFilter(n)):
            want = oracles.blocks_complete_oracle(g.n, g.edges)
            assert blocks_all_complete(g) == want

    def test_every_atlas_graph(self):
        # Disconnected graphs too: isolated vertices are singleton blocks.
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():
            n, edges = h.number_of_nodes(), list(h.edges)
            if 1 <= n <= 6:
                g = build_graph(n, edges)
                want = oracles.blocks_complete_oracle(n, edges)
                assert blocks_all_complete(g) == want


class TestIndexReport:
    def test_c5(self):
        r = index_report(cycle_graph(5))
        assert (r.wiener, r.szeged, r.revised_szeged_x4) == (15, 20, 125)
        assert r.gap_sz == 5 and r.gap_rsz_x4 == 65
        assert not r.bipartite and r.girth == 5 and r.odd_girth == 5

    def test_dict_key_order(self):
        r = index_report(cycle_graph(4))
        assert list(r.to_dict()) == [
            "n", "m", "wiener", "szeged", "revised_szeged_x4",
            "gap_sz", "gap_rsz_x4", "bipartite", "girth", "odd_girth",
        ]
        assert r.to_dict()["girth"] == 4 and r.to_dict()["odd_girth"] is None

    def test_tree_report(self):
        r = index_report(path_graph(4))
        assert r.girth is None and r.bipartite and r.gap_sz == 0


# Shapes whose diameter is close to n, and complete graphs (diameter 1).
LARGE_DIAMETER = (
    {f"path-{k}": path_graph(k) for k in (2, 3, 64, 299, 300)}
    | {f"cycle-{k}": cycle_graph(k) for k in (3, 4, 5, 6, 7, 64, 65, 299, 300)}
    | {f"c{c}-path-{k}": cycle_with_tree(c, TreeSpec.path(k))
       for c in (3, 4, 5) for k in (2, 3, 60, 296)}
    | {f"complete-{k}": complete_graph(k) for k in (1, 2, 3, 4, 40)}
)


class TestSweepAgainstReference:
    """index_report's one all-sources sweep against reference_report."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_connected_class(self, n):
        for g in enumerate_connected(UniverseFilter(n)):
            assert index_report(g).to_dict() == reference_report(g)

    @pytest.mark.parametrize("g", LARGE_DIAMETER.values(), ids=list(LARGE_DIAMETER))
    def test_large_diameter_shapes(self, g):
        assert index_report(g).to_dict() == reference_report(g)

    def test_size_cap(self):
        # A star keeps the sweep to three levels, so n = INDEX_MAX_N is quick.
        def star(n):
            return build_graph(n, [(0, i) for i in range(1, n)])
        r = index_report(star(INDEX_MAX_N))
        assert r.wiener == r.szeged == (INDEX_MAX_N - 1) ** 2
        with pytest.raises(TooLarge):
            index_report(star(INDEX_MAX_N + 1))
        with pytest.raises(TooLarge):
            index_report(path_graph(INDEX_MAX_N + 1))


def hang_trees(rng, n, edges, at, sizes):
    """edges plus a random tree of sizes[i] vertices grafted at at[i],
    the new vertices numbered from n on; returns the new n and edges."""
    edges = list(edges)
    for root, size in zip(at, sizes):
        added = [root]
        for _ in range(size):
            edges.append((rng.choice(added), n))
            added.append(n)
            n += 1
    return n, edges


def shuffled_graph(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(build_graph(n, edges), perm)


def spider(legs):
    edges, n = [], 1
    for length in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return build_graph(n, edges)


def caterpillar(spine, leaves):
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, count in enumerate(leaves):
        edges += [(i, n + j) for j in range(count)]
        n += count
    return build_graph(n, edges)


class TestPendantTrees:
    """The sweep peels pendant trees and sweeps the 2-core: every field
    against reference_report, which searches from every vertex."""

    def test_trees_at_several_core_vertices(self):
        rng = random.Random(21)
        cores = [cycle_graph(6), complete_graph(4),
                 build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                             + [(i, i + 5) for i in range(5)])]
        for core in cores:
            for _ in range(10):
                at = rng.sample(range(core.n), rng.randint(2, core.n))
                sizes = [rng.randint(1, 6) for _ in at]
                g = shuffled_graph(rng, *hang_trees(rng, core.n, core.edges, at, sizes))
                assert index_report(g).to_dict() == reference_report(g)

    def test_core_with_bridges(self):
        # A 4-cycle and a 5-cycle joined by a 3-edge path, trees on both
        # cycles and on the path: the core keeps the path's bridges.
        rng = random.Random(22)
        base = ([(i, (i + 1) % 4) for i in range(4)]
                + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
                + [(0, 9), (9, 10), (10, 4)])
        for _ in range(20):
            at = [0, 2, 6, 9, 10]
            sizes = [rng.randint(0, 5) for _ in at]
            g = shuffled_graph(rng, *hang_trees(rng, 11, base, at, sizes))
            assert index_report(g).to_dict() == reference_report(g)

    @pytest.mark.parametrize("legs", [(1,), (1, 1, 1), (3, 3, 3), (1, 2, 5, 9), (7, 1)])
    def test_spiders(self, legs):
        g = spider(legs)
        assert index_report(g).to_dict() == reference_report(g)

    @pytest.mark.parametrize("spine,leaves", [
        (1, (4,)), (2, (1, 1)), (5, (0, 2, 0, 3, 1)), (12, (2,) * 12), (30, (0, 1) * 15)])
    def test_caterpillars(self, spine, leaves):
        g = caterpillar(spine, leaves)
        assert index_report(g).to_dict() == reference_report(g)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_tree(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        trees = [nx.empty_graph(1)] if n == 1 else nx.nonisomorphic_trees(n)
        for t in trees:
            g = shuffled_graph(rng, n, list(t.edges))
            assert index_report(g).to_dict() == reference_report(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_cycle_plus_trees(self, seed):
        rng = random.Random(seed)
        c = rng.randint(3, 10)
        at = [rng.randrange(c) for _ in range(rng.randint(1, 4))]
        sizes = [rng.randint(0, (80 - c) // len(at)) for _ in at]
        g = shuffled_graph(rng, *hang_trees(rng, c, cycle_graph(c).edges, at, sizes))
        assert g.n <= 80
        assert index_report(g).to_dict() == reference_report(g)

    @pytest.mark.parametrize("n,edges", [
        (7, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)]),  # two trees
        (5, [(0, 1), (1, 2), (2, 3)]),  # a tree and an isolated vertex
        (2, []),
        (7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (4, 6)]),  # a cycle and a tree
        (6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),  # a cycle with a tail, and one vertex
    ])
    def test_peeling_keeps_components_apart(self, n, edges):
        with pytest.raises(Disconnected):
            index_report(build_graph(n, edges))


class TestDisconnectedRejected:
    def test_all_entry_points(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            pi(g, apsp(g), 0, 1)
        with pytest.raises(Disconnected):
            index_report(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_partition_identity_random(seed):
    # Every edge splits the vertices in three, and the edge pass that the
    # lemma suite reads totals the splits as the referee does.
    rng = random.Random(seed)
    n, edges = oracles.random_connected_graph(rng, max_n=12)
    g = build_graph(n, edges)
    d = apsp(g)
    for e in g.edges:
        assert sum(oracles.edge_split(d, *e)) == n
    assert _indices(g)[1:4] == (oracles.szeged_oracle(d, g.edges),
                                oracles.tie_total_oracle(d, g.edges),
                                oracles.untied_oracle(d, g.edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_indices_invariant_under_relabeling(seed, data):
    # n <= 8 keeps the path-enumeration oracle fast on dense draws.
    n, edges = oracles.random_connected_graph(random.Random(seed), max_n=8)
    g = build_graph(n, edges)
    perm = data.draw(st.permutations(range(n)))
    r = index_report(g)
    assert index_report(relabel(g, perm)) == r
    assert (r.wiener, r.szeged, r.revised_szeged_x4) == oracle_indices(n, edges)
