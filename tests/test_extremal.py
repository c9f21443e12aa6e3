"""Extremal family constructors, closed-form bounds, equality predicates."""

from __future__ import annotations

import random

import pytest

from szeged import (
    THEOREMS,
    GraphError,
    HypothesisViolated,
    InvalidTreeSpec,
    TreeSpec,
    UniverseFilter,
    build_graph,
    c5_two_trees,
    complete_graph,
    cycle_graph,
    cycle_with_tree,
    enumerate_connected,
    index_report,
    is_equality_thm1,
    is_equality_thm2,
    is_equality_thm3,
    path_graph,
    theorem_bound,
    universe_filter,
)

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


class TestTreeSpec:
    def test_shapes(self):
        assert TreeSpec.trivial() == TreeSpec(1, (0,))
        assert TreeSpec.path(4) == TreeSpec(4, (0, 0, 1, 2))
        assert TreeSpec.star(4) == TreeSpec(4, (0, 0, 0, 0))

    def test_random_is_seed_deterministic(self):
        a = TreeSpec.random(9, random.Random(5))
        b = TreeSpec.random(9, random.Random(5))
        assert a == b
        for size in range(1, 20):
            TreeSpec.random(size, random.Random(size))  # must validate

    @pytest.mark.parametrize("size,parent", [
        (0, ()),
        (3, (0, 0)),
        (2, (1, 0)),
        (3, (0, 0, 2)),
        (2, (0, -1)),
    ])
    def test_invalid_specs(self, size, parent):
        with pytest.raises(InvalidTreeSpec):
            TreeSpec(size, parent)

    def test_random_invalid_size(self):
        with pytest.raises(InvalidTreeSpec):
            TreeSpec.random(0, random.Random(1))

    def test_a_frozen_record(self):
        t = TreeSpec(size=3, parent=(0, 0, 1))
        assert t == TreeSpec.path(3) and hash(t) == hash(TreeSpec.path(3))
        assert t != TreeSpec.star(3)
        assert repr(t) == "TreeSpec(size=3, parent=(0, 0, 1))"
        with pytest.raises(AttributeError):
            t.size = 4


class TestConstructors:
    def test_bare_cycle(self):
        assert cycle_with_tree(5, TreeSpec.trivial()) == cycle_graph(5)
        assert c5_two_trees(TreeSpec.trivial(), TreeSpec.trivial()) == \
            cycle_graph(5)

    def test_vertex_count_formula(self):
        g = cycle_with_tree(4, TreeSpec.path(3))
        assert g.n == 6 and g.m == 6
        h = c5_two_trees(TreeSpec.path(3), TreeSpec.star(2))
        assert h.n == 8 and h.m == 8

    def test_pendant_placement(self):
        g = cycle_with_tree(5, TreeSpec(2, (0, 0)))
        assert g.degree(0) == 3 and g.degree(5) == 1
        h = c5_two_trees(TreeSpec(2, (0, 0)), TreeSpec(2, (0, 0)))
        assert h.degree(0) == 3 and h.degree(1) == 3
        assert h.has_edge(0, 5) and h.has_edge(1, 6)

    def test_cycle_too_short(self):
        with pytest.raises(GraphError):
            cycle_with_tree(2, TreeSpec.trivial())

    def test_known_gaps(self):
        r = index_report(cycle_with_tree(5, TreeSpec.trivial()))
        assert r.gap_sz == 5
        r = index_report(cycle_with_tree(4, TreeSpec.path(3)))
        assert r.gap_sz == 16
        r = index_report(cycle_with_tree(3, TreeSpec.star(3)))
        assert (r.n, r.gap_rsz_x4) == (5, 39)
        r = index_report(c5_two_trees(TreeSpec(2, (0, 0)), TreeSpec(2, (0, 0))))
        assert (r.n, r.wiener, r.szeged, r.gap_sz) == (7, 40, 49, 9)
        r = index_report(c5_two_trees(TreeSpec.path(4), TreeSpec(2, (0, 0))))
        assert (r.n, r.gap_sz) == (9, 13)


class TestBounds:
    def test_values(self):
        assert THEOREMS == ("thm1", "thm2", "thm3")
        assert theorem_bound("thm1", 5) == (5, 1)
        assert theorem_bound("thm1", 8).numerator == 11
        assert theorem_bound("thm2", 4) == (8, 1)
        assert theorem_bound("thm2", 7).numerator == 20
        assert theorem_bound("thm3", 4) == (26, 4)
        assert theorem_bound("thm3", 7).numerator == 71

    @pytest.mark.parametrize("which,n", zip(THEOREMS, (4, 3, 3)))
    def test_below_hypothesis(self, which, n):
        with pytest.raises(HypothesisViolated):
            theorem_bound(which, n)


class TestEqualityPredicates:
    def test_thm1_positive(self):
        assert is_equality_thm1(cycle_graph(5))
        assert is_equality_thm1(cycle_with_tree(5, TreeSpec.star(4)))
        assert is_equality_thm1(
            c5_two_trees(TreeSpec.path(3), TreeSpec.path(2)))

    def test_thm1_negative(self):
        assert not is_equality_thm1(cycle_graph(7))
        # pendants at two nonadjacent cycle vertices
        g = build_graph(7, C5_EDGES + [(0, 5), (2, 6)])
        assert not is_equality_thm1(g)
        # theta graph, hubs 0 and 1 joined by paths of 1, 4, 4 edges
        theta = build_graph(8, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4),
                                (0, 5), (5, 6), (6, 7), (1, 7)])
        assert not is_equality_thm1(theta)

    def test_thm1_hypothesis_violations(self):
        with pytest.raises(HypothesisViolated):
            is_equality_thm1(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]))
        with pytest.raises(HypothesisViolated):
            is_equality_thm1(cycle_graph(6))  # bipartite
        with pytest.raises(HypothesisViolated):
            is_equality_thm1(complete_graph(5))  # triangles
        with pytest.raises(HypothesisViolated):
            is_equality_thm1(build_graph(8, C5_EDGES + [(5, 6), (6, 7)]))

    def test_thm2_positive(self):
        assert is_equality_thm2(cycle_graph(4))
        assert is_equality_thm2(cycle_with_tree(4, TreeSpec.path(4)))

    def test_thm2_negative(self):
        assert not is_equality_thm2(cycle_graph(6))
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)])
        assert not is_equality_thm2(g)  # growth at two cycle vertices
        k23 = build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert not is_equality_thm2(k23)

    def test_thm2_hypothesis_violations(self):
        with pytest.raises(HypothesisViolated):
            is_equality_thm2(path_graph(4))  # m < n
        with pytest.raises(HypothesisViolated):
            is_equality_thm2(cycle_graph(5))  # nonbipartite
        with pytest.raises(HypothesisViolated):
            is_equality_thm2(cycle_graph(3))  # n < 4

    def test_thm3_positive(self):
        paw = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert is_equality_thm3(paw)
        assert is_equality_thm3(cycle_with_tree(3, TreeSpec.star(5)))

    def test_thm3_negative(self):
        assert not is_equality_thm3(cycle_graph(5))
        assert not is_equality_thm3(complete_graph(4))
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
        assert not is_equality_thm3(g)  # growth at two cycle vertices

    def test_thm3_hypothesis_violations(self):
        with pytest.raises(HypothesisViolated):
            is_equality_thm3(cycle_graph(4))  # bipartite
        with pytest.raises(HypothesisViolated):
            is_equality_thm3(cycle_graph(3))  # n < 4
        with pytest.raises(HypothesisViolated):
            is_equality_thm3(build_graph(4, [(0, 1), (1, 2), (0, 2)]))


def tree_shapes(size, rng):
    shapes = [TreeSpec.path(size), TreeSpec.star(size)]
    if size >= 3:
        shapes.append(TreeSpec.random(size, rng))
    return shapes


class TestFamilyGaps:
    def test_thm1_one_tree_all_sizes(self):
        rng = random.Random(101)
        for n in range(5, 41):
            for t in tree_shapes(n - 4, rng):
                g = cycle_with_tree(5, t)
                r = index_report(g)
                assert r.n == n
                assert r.gap_sz == theorem_bound("thm1", n).numerator == 2 * n - 5
                assert is_equality_thm1(g)

    def test_thm1_two_trees_all_sizes(self):
        rng = random.Random(102)
        for n in range(7, 41):
            s1 = rng.randint(2, n - 5)
            t1 = TreeSpec.random(s1, rng)
            t2 = TreeSpec.random(n - 3 - s1, rng)
            g = c5_two_trees(t1, t2)
            r = index_report(g)
            assert r.n == n and r.gap_sz == 2 * n - 5
            assert is_equality_thm1(g)

    def test_thm2_all_sizes(self):
        rng = random.Random(103)
        for n in range(4, 41):
            for t in tree_shapes(n - 3, rng):
                g = cycle_with_tree(4, t)
                r = index_report(g)
                assert r.n == n and r.bipartite
                assert r.gap_sz == theorem_bound("thm2", n).numerator == 4 * n - 8
                assert r.revised_szeged_x4 == 4 * r.szeged
                assert is_equality_thm2(g)

    def test_thm3_all_sizes(self):
        rng = random.Random(104)
        for n in range(4, 41):
            for t in tree_shapes(n - 2, rng):
                g = cycle_with_tree(3, t)
                r = index_report(g)
                assert r.n == n and not r.bipartite
                assert r.gap_rsz_x4 == theorem_bound("thm3", n).numerator
                assert r.gap_rsz_x4 == n * n + 4 * n - 6
                assert is_equality_thm3(g)


class TestPredicateMatchesGapOnSmallUniverses:
    def test_thm1_n7(self):
        filt = UniverseFilter(7, bipartite="no", min_girth=5)
        for g in enumerate_connected(filt):
            r = index_report(g)
            assert is_equality_thm1(g) == (r.gap_sz == 9)

    def test_thm2_n6(self):
        filt = UniverseFilter(6, bipartite="yes", min_edges=6)
        for g in enumerate_connected(filt):
            r = index_report(g)
            assert is_equality_thm2(g) == (r.gap_sz == 16)

    def test_thm3_n6(self):
        filt = UniverseFilter(6, bipartite="no")
        for g in enumerate_connected(filt):
            r = index_report(g)
            assert is_equality_thm3(g) == (r.gap_rsz_x4 == 54)


PREDICATES = {"thm1": is_equality_thm1, "thm2": is_equality_thm2,
              "thm3": is_equality_thm3}


class TestOneStatementOfTheHypotheses:
    """The universe verify sweeps is exactly the predicates' domain."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_admits_universe_and_predicate_domain_agree(self, n):
        graphs = list(enumerate_connected(UniverseFilter(n)))
        for which in THEOREMS:
            try:
                filt = universe_filter(which, n)
            except HypothesisViolated:
                for g in graphs:
                    with pytest.raises(HypothesisViolated):
                        PREDICATES[which](g)
                continue
            universe = set(enumerate_connected(filt))
            for g in graphs:
                try:
                    PREDICATES[which](g)
                    in_domain = True
                except HypothesisViolated:
                    in_domain = False
                assert filt.admits(g) == (g in universe) == in_domain

    def test_admits_rejects_wrong_n_and_disconnected(self):
        c5_plus_vertex = build_graph(6, C5_EDGES)
        assert UniverseFilter(5).admits(cycle_graph(5))
        assert not UniverseFilter(6).admits(cycle_graph(5))
        assert not UniverseFilter(6).admits(c5_plus_vertex)
        assert not universe_filter("thm1", 6).admits(c5_plus_vertex)
        assert not universe_filter("thm1", 6).admits(cycle_graph(5))
