"""Exhaustive small-graph enumeration: counts, soundness, partitioning."""

from __future__ import annotations

import pytest

import oracles
from szeged import enumeration
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


def universe(filt, prefix=()):
    return list(enumerate_connected(filt, prefix))


class TestFilterValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n": 0},
        {"n": 5, "bipartite": "maybe"},
        {"n": 5, "min_girth": 2},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            UniverseFilter(**kwargs)

    def test_bad_prefix_entries(self):
        with pytest.raises(ValueError):
            universe(UniverseFilter(4), prefix=(0, 2))


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
    # Level partials may be disconnected, which no universe count sees.
    for k in range(1, 8):
        every = enumeration._level_codes(k, (0, False))
        want = tuple(c for c in every
                     if is_bipartite(graph_from_code(k, c)))
        assert enumeration._level_codes(k, (0, True)) == want


class TestPrefixPartition:
    CASES = [
        (UniverseFilter(5), 1),
        (UniverseFilter(5), 3),
        (UniverseFilter(5), 6),
        (UniverseFilter(5, bipartite="yes", min_edges=5), 3),
        (UniverseFilter(6, bipartite="no", min_girth=5), 6),
        (UniverseFilter(6, min_girth=4, min_edges=7), 4),
    ]

    @pytest.mark.parametrize("filt,k", CASES)
    def test_union_reproduces_full_run(self, filt, k):
        full = {canonical_form(g) for g in universe(filt)}
        merged = set()
        for s in range(2 ** k):
            prefix = tuple((s >> i) & 1 for i in range(k))
            part = universe(filt, prefix)
            for g in part:
                assert is_connected(g) and g.n == filt.n
            merged |= {canonical_form(g) for g in part}
        assert merged == full

    def test_prefix_equals_all_pair_slots(self):
        # n = 3 has exactly 3 slots; fixing all of them pins one labeled graph
        filt = UniverseFilter(3)
        got = universe(filt, (1, 1, 0))
        assert len(got) == 1 and got[0].m == 2

    def test_prefix_cap(self):
        with pytest.raises(TooLarge):
            universe(UniverseFilter(5), prefix=(0,) * 7)

    def test_prefix_longer_than_graph(self):
        with pytest.raises(TooLarge):
            universe(UniverseFilter(2), prefix=(0, 0, 0, 0))


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
        from szeged._canon import pack_codes

        for g in universe(UniverseFilter(5)):
            code = int(pack_codes(adjacency_bits(g)[None, :], 5)[0])
            assert graph_from_code(5, code) == g
