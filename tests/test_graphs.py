"""Core graph type, distances, and structural predicates."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from szeged import (
    DuplicateEdge,
    SelfLoop,
    TooLarge,
    UniverseFilter,
    VertexOutOfRange,
    apsp,
    blocks,
    build_graph,
    canonical_form,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    girth,
    is_bipartite,
    is_connected,
    odd_girth,
    path_graph,
    relabel,
)
from szeged import graphs

PAW = [(0, 1), (0, 2), (1, 2), (0, 3)]
PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def small_connected(max_n):
    for n in range(1, max_n + 1):
        yield from enumerate_connected(UniverseFilter(n))


def with_components(count, seed):
    """Seeded random graphs of several components, isolated vertices among them."""
    rng = random.Random(seed)
    for _ in range(count):
        yield build_graph(*oracles.random_graph_with_components(rng))


# Odd cycles in two components, and an isolated vertex: the search reaches
# {0, 5, 6} first, while (2, 3) is the first edge, in edge order, to close one.
TWO_TRIANGLES = build_graph(7, [(0, 5), (0, 6), (5, 6), (1, 2), (1, 3), (2, 3)])


def seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class TestBuildGraph:
    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_c5(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.m == 5
        assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(1, 1)])

    def test_duplicate(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(0, 3)])
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(-1, 2)])

    def test_adjacency_consistent(self):
        g = build_graph(4, PAW)
        assert g.adj[0] == (1, 2, 3)
        assert g.adj[3] == (0,)
        assert g.degree(0) == 3 and g.has_edge(2, 1)

    def test_has_edge_matches_edge_set(self):
        g = build_graph(4, PAW)
        for u, v in itertools.product(range(4), repeat=2):
            assert g.has_edge(u, v) == (tuple(sorted((u, v))) in g.edges)

    @pytest.mark.parametrize("u,v", [(-1, 0), (0, -1), (-1, 4), (5, 0),
                                     (0, 5), (5, 5), (-5, -5)])
    def test_has_edge_out_of_range_is_false(self, u, v):
        # C5: -1 must not wrap around to vertex 4, which is adjacent to 0.
        assert not cycle_graph(5).has_edge(u, v)


class TestApsp:
    def test_path(self):
        dm = apsp(path_graph(3))
        assert dm[0][2] == 2 and dm[0][1] == 1

    def test_c5_against_path_enumeration(self):
        g = cycle_graph(5)
        dm = apsp(g)
        want = oracles.dist_table(5, g.edges)
        for u in range(5):
            for v in range(5):
                assert dm[u][v] == want[u][v]
        assert max(dm[u][v] for u in range(5) for v in range(5)) == 2

    def test_disconnected_marker(self):
        assert apsp(build_graph(2, [])) == ((0, None), (None, 0))

    def test_matches_path_enumeration_exhaustively(self):
        for g in small_connected(5):
            dm = apsp(g)
            want = oracles.dist_table(g.n, g.edges)
            for u in range(g.n):
                for v in range(g.n):
                    assert dm[u][v] == want[u][v]

    def test_symmetry_and_triangle_inequality(self):
        for g in small_connected(7):
            dm = apsp(g)
            for u in range(g.n):
                assert dm[u][u] == 0
                for v in range(g.n):
                    assert dm[u][v] == dm[v][u]
            for u, v in g.edges:
                assert dm[u][v] == 1
            for u, v, w in itertools.permutations(range(g.n), 3):
                assert dm[u][w] <= dm[u][v] + dm[v][w]


class TestConnectivity:
    def test_examples(self):
        assert is_connected(build_graph(1, []))
        assert is_connected(cycle_graph(5))
        assert not is_connected(build_graph(2, []))


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(cycle_graph(4)) is True
        assert is_bipartite(cycle_graph(5)) is False

    def test_tree(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 12)
            edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
            assert is_bipartite(build_graph(n, edges))

    def test_against_two_coloring_exhaustively(self):
        for g in small_connected(6):
            assert is_bipartite(g) == oracles.bipartite_2color(g.n, g.edges)

    def test_several_components_against_two_coloring(self):
        for g in itertools.chain(with_components(60, seed=3), [TWO_TRIANGLES]):
            assert is_bipartite(g) == oracles.bipartite_2color(g.n, g.edges)

    @pytest.mark.parametrize("edges", [[], [(2 * i, 2 * i + 1) for i in range(10_000)]],
                             ids=["empty", "matching"])
    def test_many_components_take_one_pass(self, edges):
        g = build_graph(20_000, edges)
        assert seconds(is_bipartite, g) < 1.0
        assert is_bipartite(g) is True


class TestGirth:
    def test_tree_is_acyclic(self):
        info = girth(build_graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]))
        assert info == (None, ())

    def test_c5_plus_pendant(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
        assert girth(g).length == 5

    def test_petersen(self):
        g = build_graph(10, PETERSEN)
        assert girth(g).length == 5
        assert girth(g).length == oracles.girth_cycle_search(10, PETERSEN)

    def test_against_cycle_search_exhaustively(self):
        for g in small_connected(6):
            assert girth(g).length == oracles.girth_cycle_search(g.n, g.edges)

    def test_witness_is_a_cycle(self):
        for g in small_connected(6):
            info = girth(g)
            if info.length is None:
                continue
            w = info.witness
            assert len(w) == info.length and len(set(w)) == len(w)
            for a, b in zip(w, w[1:] + w[:1]):
                assert g.has_edge(a, b)


class TestOddGirth:
    def test_bipartite_marker(self):
        assert odd_girth(cycle_graph(4)) == (None, ())

    def test_bipartite_graph_takes_one_forest_pass(self, monkeypatch):
        # A bipartite graph with cycles is told apart by is_bipartite's one
        # BFS forest, not by a capped search from every vertex.
        calls = []
        bfs = graphs._bfs
        monkeypatch.setattr(graphs, "_bfs", lambda *a: calls.append(a) or bfs(*a))
        g = build_graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (6, 7)])
        assert odd_girth(g).length is None
        assert len(calls) == 1

    def test_paw(self):
        assert odd_girth(build_graph(4, PAW)).length == 3

    def test_c5_with_two_trees(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6)]
        g = build_graph(7, edges)
        assert odd_girth(g).length == 5
        assert odd_girth(g).length == oracles.girth_cycle_search(
            7, edges, parity="odd")

    def test_against_cycle_search_exhaustively(self):
        for g in small_connected(6):
            want = oracles.girth_cycle_search(g.n, g.edges, parity="odd")
            assert odd_girth(g).length == want

    def test_finite_iff_nonbipartite(self):
        for g in small_connected(6):
            assert is_bipartite(g) == (odd_girth(g).length is None)

    def test_at_least_girth(self):
        for g in small_connected(6):
            gi, oi = girth(g), odd_girth(g)
            if gi.length is not None and oi.length is not None:
                assert gi.length <= oi.length


def _assert_cycle_witness(g, info, want_len):
    assert info.length == want_len
    w = info.witness
    assert len(w) == (want_len or 0) and len(set(w)) == len(w)
    for a, b in zip(w, w[1:] + w[:1]):
        assert g.has_edge(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_shortest_cycles_against_cycle_search(seed):
    n, edges = oracles.random_connected_graph(random.Random(seed), max_n=10)
    g = build_graph(n, edges)
    _assert_cycle_witness(g, girth(g), oracles.girth_cycle_search(n, edges))
    _assert_cycle_witness(g, odd_girth(g),
                          oracles.girth_cycle_search(n, edges, parity="odd"))


def test_shortest_cycles_with_several_components():
    for g in itertools.chain(with_components(60, seed=5), [TWO_TRIANGLES]):
        _assert_cycle_witness(g, girth(g), oracles.girth_cycle_search(g.n, g.edges))
        _assert_cycle_witness(g, odd_girth(g),
                              oracles.girth_cycle_search(g.n, g.edges, parity="odd"))


@pytest.mark.parametrize("shortest", [girth, odd_girth])
def test_forest_is_told_apart_in_linear_time(shortest):
    g = path_graph(5000)
    assert seconds(shortest, g) < 1.0
    assert shortest(g).length is None


def test_girth_against_networkx_on_sparse_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    for i in range(20):
        n = rng.randint(30, 300)
        edges = {(rng.randint(0, v - 1), v) for v in range(1, n)}
        while len(edges) < n - 1 + i % 5:  # i % 5 == 0 leaves a tree
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = build_graph(n, edges)
        want = nx.girth(nx.Graph(list(edges)))
        _assert_cycle_witness(g, girth(g), None if want == float("inf") else want)


class TestBlocks:
    def test_path(self):
        bd = blocks(path_graph(3))
        assert sorted(sorted(b) for b in bd) == [[0, 1], [1, 2]]

    def test_paw(self):
        bd = blocks(build_graph(4, PAW))
        assert sorted(sorted(b) for b in bd) == [[0, 1, 2], [0, 3]]
        assert bd == tuple(oracles.blocks_oracle(4, PAW))

    def test_k4(self):
        bd = blocks(complete_graph(4))
        assert [sorted(b) for b in bd] == [[0, 1, 2, 3]]

    def test_isolated_vertex(self):
        bd = blocks(build_graph(3, [(0, 1)]))
        assert sorted(sorted(b) for b in bd) == [[0, 1], [2]]

    def test_against_cycle_sharing_oracle(self):
        for g in small_connected(5):
            assert list(blocks(g)) == oracles.blocks_oracle(g.n, g.edges)
        rng = random.Random(11)
        for _ in range(25):
            n, edges = oracles.random_connected_graph(rng, max_n=6)
            g = build_graph(n, edges)
            assert list(blocks(g)) == oracles.blocks_oracle(n, edges)

    def test_several_components_against_cycle_sharing_oracle(self):
        for g in itertools.chain(with_components(40, seed=7), [TWO_TRIANGLES]):
            assert list(blocks(g)) == oracles.blocks_oracle(g.n, g.edges)

    def test_long_path_in_linear_time(self):
        # Closing each block must not search the vertex stack from the bottom.
        g = path_graph(20_000)
        assert seconds(blocks, g) < 1.0
        assert blocks(g) == tuple(frozenset((i, i + 1)) for i in range(19_999))


class TestIsometricCycle:
    """The referee's isometry test on apsp rows, and the girth witness."""

    @staticmethod
    def isometric(g, cycle):
        return oracles.is_isometric_cycle(apsp(g), cycle)

    def test_c5(self):
        assert self.isometric(cycle_graph(5), [0, 1, 2, 3, 4])

    def test_chorded_c6_outer_cycle(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                            (0, 3)])
        assert not self.isometric(g, [0, 1, 2, 3, 4, 5])

    def test_unique_cycle_with_tree(self):
        g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5),
                            (5, 6)])
        assert self.isometric(g, [0, 1, 2, 3, 4])

    def test_shortest_cycles_are_isometric(self):
        for g in small_connected(6):
            info = girth(g)
            if info.length is not None:
                assert self.isometric(g, info.witness)


class TestCanonicalForm:
    def test_relabelings_agree(self):
        g = cycle_graph(5)
        h = build_graph(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
        assert canonical_form(g) == canonical_form(h)

    def test_distinguishes_path_from_star(self):
        assert canonical_form(path_graph(4)) != canonical_form(
            build_graph(4, [(0, 1), (0, 2), (0, 3)]))

    def test_paw_all_labelings_one_string(self):
        forms = set()
        for perm in itertools.permutations(range(4)):
            forms.add(canonical_form(build_graph(
                4, [(perm[u], perm[v]) for u, v in PAW])))
        assert len(forms) == 1

    def test_random_relabel_invariance(self):
        rng = random.Random(99)
        for _ in range(30):
            n, edges = oracles.random_connected_graph(rng, max_n=7)
            g = build_graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            canonical_form(path_graph(11))

    def test_separates_all_small_classes(self):
        reps = [build_graph(5, e) for e in oracles.graph_classes(5)]
        forms = {canonical_form(g) for g in reps}
        assert len(forms) == len(reps)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_permutation_invariant(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = oracles.pairs_rowmajor(n)
    edges = [p for p in pairs if data.draw(st.booleans())]
    g = build_graph(n, edges)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(g) == canonical_form(relabel(g, perm))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apsp_triangle_inequality_random(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    n, edges = oracles.random_connected_graph(rng, max_n=9)
    dm = apsp(build_graph(n, edges))
    for u in range(n):
        for v in range(n):
            assert dm[u][v] == dm[v][u]
            for w in range(n):
                assert dm[u][w] <= dm[u][v] + dm[v][w]
