"""Exhaustive small-graph enumeration and the canonizer behind it."""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

import oracles
from szeged import _canon, enumeration
from szeged import (
    TooLarge,
    UniverseFilter,
    adjacency_bits,
    build_graph,
    canonical_form,
    emit_graph6,
    enumerate_connected,
    girth,
    graph_from_code,
    is_bipartite,
    is_connected,
    relabel,
)


def thm1_pred(n, edges):
    if not oracles.connected_uf(n, edges):
        return False
    if oracles.bipartite_2color(n, edges):
        return False
    g = oracles.girth_cycle_search(n, edges)
    return g is None or g >= 5


def thm2_pred(n, edges):
    return (oracles.connected_uf(n, edges)
            and oracles.bipartite_2color(n, edges)
            and len(edges) >= n)


def thm3_pred(n, edges):
    return (oracles.connected_uf(n, edges)
            and not oracles.bipartite_2color(n, edges))


def universe(filt):
    return list(enumerate_connected(filt))


class TestFilterValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n": 0},
        {"n": 5, "bipartite": "maybe"},
        {"n": 5, "min_girth": 2},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            UniverseFilter(**kwargs)


class TestCountsAgainstOracle:
    def test_all_connected(self):
        want = [1, 1, 2, 6, 21, 112]
        for n, count in zip(range(1, 7), want):
            got = universe(UniverseFilter(n))
            assert len(got) == count
            assert len(got) == oracles.count_classes(n, oracles.connected_uf)

    def test_nonbipartite_girth5(self):
        for n, count in [(5, 1), (6, 1)]:
            filt = UniverseFilter(n, bipartite="no", min_girth=5)
            got = universe(filt)
            assert len(got) == count == oracles.count_classes(n, thm1_pred)

    def test_bipartite_with_cycle(self):
        for n, count in [(4, 1), (5, 2), (6, 11)]:
            filt = UniverseFilter(n, bipartite="yes", min_edges=n)
            got = universe(filt)
            assert len(got) == count == oracles.count_classes(n, thm2_pred)

    def test_nonbipartite(self):
        for n, count in [(4, 3), (5, 16), (6, 95)]:
            filt = UniverseFilter(n, bipartite="no")
            got = universe(filt)
            assert len(got) == count == oracles.count_classes(n, thm3_pred)

    def test_classes_match_exactly_small(self):
        for n in range(1, 6):
            mine = {canonical_form(g) for g in universe(UniverseFilter(n))}
            want = {canonical_form(build_graph(n, edges))
                    for edges in oracles.graph_classes(n)
                    if oracles.connected_uf(n, edges)}
            assert mine == want


class TestFrozenCounts:
    def test_n7(self):
        assert len(universe(UniverseFilter(7))) == 853
        assert len(universe(
            UniverseFilter(7, bipartite="no", min_girth=5))) == 6
        assert len(universe(
            UniverseFilter(7, bipartite="yes", min_edges=7))) == 33
        assert len(universe(UniverseFilter(7, bipartite="no"))) == 809

    def test_n8_girth5(self):
        filt = UniverseFilter(8, bipartite="no", min_girth=5)
        got = universe(filt)
        assert len(got) == 17
        by_m = {}
        for g in got:
            by_m[g.m] = by_m.get(g.m, 0) + 1
        assert by_m == {8: 11, 9: 5, 10: 1}

    def test_n8_connected(self):
        # OEIS A001349 (connected graphs) and A005142 (connected bipartite).
        assert len(universe(UniverseFilter(8))) == 11117
        assert len(universe(UniverseFilter(8, bipartite="yes"))) == 182


class TestSoundness:
    FILTERS = [
        UniverseFilter(6),
        UniverseFilter(6, bipartite="no", min_girth=5),
        UniverseFilter(6, bipartite="yes", min_edges=6),
        UniverseFilter(6, bipartite="no"),
        UniverseFilter(7, min_girth=4),
    ]

    @pytest.mark.parametrize("filt", FILTERS)
    def test_yields_satisfy_filter(self, filt):
        for g in universe(filt):
            assert g.n == filt.n
            assert is_connected(g)
            if filt.bipartite == "yes":
                assert is_bipartite(g)
            if filt.bipartite == "no":
                assert not is_bipartite(g)
            if filt.min_girth is not None:
                info = girth(g)
                assert info.length is None or info.length >= filt.min_girth
            if filt.min_edges is not None:
                assert g.m >= filt.min_edges

    @pytest.mark.parametrize("filt", FILTERS)
    def test_no_isomorphic_duplicates(self, filt):
        got = universe(filt)
        assert len({canonical_form(g) for g in got}) == len(got)

    def test_yields_are_canonically_labeled(self):
        for g in universe(UniverseFilter(6)):
            assert emit_graph6(g) == canonical_form(g)

    def test_deterministic(self):
        filt = UniverseFilter(6, bipartite="no")
        assert universe(filt) == universe(filt)


def test_bipartite_lane_keeps_exactly_the_bipartite_partials():
    # Levels hold the connected graphs the lane's pruning lets through;
    # this checks the pruning itself, before any final filter runs.
    for k in range(1, 8):
        every = enumeration._level_codes(k, (0, False))
        want = tuple(c for c in every
                     if is_bipartite(graph_from_code(k, c)))
        assert enumeration._level_codes(k, (0, True)) == want


@pytest.mark.parametrize("lane", [(0, False), (0, True), (4, False), (5, False)])
def test_children_rows_are_distinct(lane):
    # Levels are canonized without deduplicating the labeled rows first.
    for k in range(1, 8):
        parents = enumeration._level_codes(k, lane)
        rows = enumeration._children_rows(parents, k + 1, lane)
        assert len(np.unique(rows, axis=0)) == len(rows)


ATLAS_FILTERS = {
    "any": lambda n: UniverseFilter(n),
    "bipartite": lambda n: UniverseFilter(n, bipartite="yes"),
    "nonbipartite": lambda n: UniverseFilter(n, bipartite="no"),
    "girth4": lambda n: UniverseFilter(n, min_girth=4),
    "girth5": lambda n: UniverseFilter(n, min_girth=5),
    "thm1": lambda n: UniverseFilter(n, bipartite="no", min_girth=5),
    "thm2": lambda n: UniverseFilter(n, bipartite="yes", min_edges=n),
}


def atlas_wanted(nx, h, filt):
    """filt's membership test, in networkx predicates only."""
    if h.number_of_nodes() != filt.n or not nx.is_connected(h):
        return False
    if filt.bipartite != "any" and nx.is_bipartite(h) != (filt.bipartite == "yes"):
        return False
    if filt.min_girth is not None and nx.girth(h) < filt.min_girth:
        return False
    return filt.min_edges is None or h.number_of_edges() >= filt.min_edges


def wl_buckets(nx, graphs):
    buckets = {}
    for h in graphs:
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
    return buckets


@pytest.mark.filterwarnings("ignore:The hashes produced")
@pytest.mark.parametrize("make", ATLAS_FILTERS.values(), ids=ATLAS_FILTERS.keys())
def test_matches_graph_atlas(make):
    # An outside referee: networkx's atlas of every graph on at most 7
    # vertices, selected with networkx predicates only.
    nx = pytest.importorskip("networkx")
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
    for n in range(1, 8):
        filt = make(n)
        mine = []
        for g in universe(filt):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            mine.append(h)
        got = wl_buckets(nx, mine)
        want = wl_buckets(nx, (h for h in atlas if atlas_wanted(nx, h, filt)))
        assert ({k: len(v) for k, v in got.items()}
                == {k: len(v) for k, v in want.items()})
        # The WL hash merges some classes, so match graphs within a bucket.
        for key, ours in got.items():
            left = want[key]
            for h in ours:
                match = [i for i, a in enumerate(left) if nx.is_isomorphic(h, a)]
                assert match, f"n={n}: no atlas graph matches {sorted(h.edges)}"
                left.pop(match[0])


class TestScopeCaps:
    def test_plain_capped_at_8(self):
        with pytest.raises(TooLarge):
            universe(UniverseFilter(9))

    def test_weak_girth_prune_capped_at_8(self):
        with pytest.raises(TooLarge):
            universe(UniverseFilter(9, min_girth=4))

    def test_girth5_lane_capped_at_9(self):
        with pytest.raises(TooLarge):
            universe(UniverseFilter(10, bipartite="no", min_girth=5))


class TestGraphFromCode:
    def test_inverts_bit_packing(self):
        for g in universe(UniverseFilter(5)):
            code = int("".join(map(str, adjacency_bits(g))), 2)
            assert graph_from_code(5, code) == g


def naive_min_code(bits, n):
    """Smallest m-bit code over every relabeling, one permutation at a time."""
    pairs = [(i, j) for j in range(n) for i in range(j)]  # column order
    slot = {pair: k for k, pair in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(n)):
        code = 0
        for i, j in pairs:
            code = 2 * code + int(bits[slot[tuple(sorted((perm[i], perm[j])))]])
        best = code if best is None else min(best, code)
    return best


def random_rows(rng, count, n):
    """count bit rows on n vertices, each with its own edge density."""
    m = n * (n - 1) // 2
    rows = []
    for _ in range(count):
        p = rng.random()
        rows.append([int(rng.random() < p) for _ in range(m)])
    return np.array(rows, dtype=np.uint8).reshape(count, m)


class TestMinCodes:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 8), (4, 40),
                                         (5, 30), (6, 12), (7, 4)])
    def test_matches_naive_minimum(self, n, count):
        rows = random_rows(random.Random(n), count, n)
        got = _canon.min_codes(rows, n)
        assert [int(c) for c in got] == [naive_min_code(r, n) for r in rows]

    def test_row_chunking_does_not_change_codes(self):
        rows = random_rows(random.Random(7), 50, 7)
        assert (_canon.min_codes(rows, 7, batch_limit=1)
                == _canon.min_codes(rows, 7)).all()

    def test_block_sweep_beyond_table_size(self):
        nx = pytest.importorskip("networkx")
        n = 9
        rng = random.Random(9)
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        g = build_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = np.stack([adjacency_bits(g), adjacency_bits(relabel(g, perm))])
        a, b = _canon.min_codes(rows, n)
        assert a == b
        back = graph_from_code(n, int(a))
        assert nx.is_isomorphic(*(nx.Graph(list(h.edges)) for h in (back, g)))
        assert back.n == g.n and back.m == g.m

    def test_codes_beyond_float64_rejected_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            _canon.min_codes(np.zeros((1, _canon.num_pairs(11)), np.uint8), 11)
        assert time.perf_counter() - t0 < 1
