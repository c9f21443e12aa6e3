"""Exhaustive small-graph enumeration and the canonizer behind it."""

from __future__ import annotations

import functools
import itertools
import math
import random
import time

import numpy as np
import pytest

import oracles
from szeged import _canon, enumeration
from szeged.formats import CANON_MAX_N
from szeged.graphs import graph_from_slots
from szeged import (
    TooLarge,
    UniverseFilter,
    adjacency_bits,
    build_graph,
    canonical_form,
    enumerate_connected,
    girth,
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

    def test_a_frozen_record(self):
        f = UniverseFilter(5, bipartite="no", min_girth=5)
        assert f == UniverseFilter(5, "no", 5) and hash(f) == hash(UniverseFilter(5, "no", 5))
        assert f != UniverseFilter(5, "no")
        # Error messages show the filter by its repr.
        assert repr(f) == "UniverseFilter(n=5, bipartite='no', min_girth=5, min_edges=None)"
        with pytest.raises(AttributeError):
            f.n = 6


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

    def test_yield_names_are_lex_min(self):
        # Yields come in the labeling they were built in, not a canonical
        # one; each has its class's refined code in every relabeling, and
        # its name is still the lex-min one.
        rng = random.Random(6)
        for g in universe(UniverseFilter(6)):
            perm = list(range(6))
            rng.shuffle(perm)
            assert len(set(_canon.min_codes([adjacency_bits(g),
                                             adjacency_bits(relabel(g, perm))], 6))) == 1
            assert canonical_form(g) == oracles.lexmin_graph6(6, g.edges)

    def test_deterministic(self):
        filt = UniverseFilter(6, bipartite="no")
        assert universe(filt) == universe(filt)


def bit_row(nbrs):
    """Column-order bit row, as a tuple, of a graph given by neighbour masks."""
    return tuple(nbrs[j] >> i & 1 for j in range(1, len(nbrs)) for i in range(j))


def mask_edges(nbrs):
    """Edges (i, j), i < j, in column order, of a graph given by neighbour masks."""
    return [(i, j) for j in range(1, len(nbrs)) for i in range(j) if nbrs[j] >> i & 1]


def level_codes(n, lane):
    """The min_codes code of each row of a level, in the level's order."""
    return _canon.min_codes([bit_row(nbrs) for nbrs in enumeration._level(n, lane)], n)


def test_bipartite_lane_keeps_exactly_the_bipartite_partials():
    # Levels hold the connected graphs the lane's pruning lets through;
    # this checks the pruning itself, before any final filter runs.
    for k in range(1, 8):
        want = {code for nbrs, code in zip(enumeration._level(k, (0, False)),
                                           level_codes(k, (0, False)))
                if oracles.bipartite_2color(k, mask_edges(nbrs))}
        got = level_codes(k, (0, True))
        assert len(got) == len(want) and set(got) == want


ALL_LANES = [(0, False), (0, True), (4, False), (5, False), (6, False), (6, True)]


def row_nbrs(row, n):
    """Neighbour masks of a column-order bit row."""
    nbrs = [0] * n
    for (i, j), bit in zip(oracles.pairs_colmajor(n), row):
        if bit:
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
    return tuple(nbrs)


@pytest.mark.parametrize("lane", ALL_LANES)
def test_children_rows_are_distinct(lane):
    # Untied rows are kept, and tied ones canonized, without deduplicating
    # the labeled rows first.
    for k in range(1, 8):
        rows = [nbrs for nbrs, _ in child_rows(k + 1, lane)]
        assert len(set(rows)) == len(rows)


def referee_children(parents, k, lane):
    """Every (parent, nonempty column) row whose child graph stays in the lane,
    mapped to whether the parent-side column bound skips it; parents are
    neighbour masks.

    On a pruned lane each child is built as a Graph and judged by girth
    and is_bipartite; on the unrestricted lane every child stays.
    The bound: a column is skipped if it is smaller than the largest degree
    of a vertex of the parent that is no cut vertex (union-find on the
    parent - w), or, for a one-vertex column, the second largest.
    """
    girth_k, bip = lane
    m = _canon.num_pairs(k)
    out = {}
    for nbrs in parents:
        parent = [s for s, bit in enumerate(bit_row(nbrs)) if bit]
        edges = [oracles.pairs_colmajor(k)[s] for s in parent]
        relabeled = {w: [(u - (u > w), v - (v > w)) for u, v in edges if w not in (u, v)]
                     for w in range(k)}
        noncut = sorted((sum(w in e for e in edges) for w in range(k)
                         if oracles.connected_uf(k - 1, relabeled[w])), reverse=True)
        first, second = (noncut + [0, 0])[:2]
        for col in range(1, 1 << k):
            slots = parent + [m + i for i in range(k) if col >> i & 1]
            if girth_k or bip:
                child = graph_from_slots(k + 1, slots)
                length = girth(child).length
                if girth_k and length is not None and length < girth_k:
                    continue
                if bip and not is_bipartite(child):
                    continue
            size = bin(col).count("1")
            row = [0] * (m + k)
            for s in slots:
                row[s] = 1
            out[tuple(row)] = size < (second if size == 1 else first)
    return out


def referee_mask(n, edges, noncut):
    """McKay's mask on a child: None if a vertex for which noncut(w) holds
    has a larger key than the new vertex n - 1, else whether another such
    vertex has its key.  A key is (degree, sum of neighbour degrees);
    noncut is asked only of vertices whose key is at least the new one's."""
    deg, nsum = [0] * n, [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for u, v in edges:
        nsum[u] += deg[v]
        nsum[v] += deg[u]
    key = list(zip(deg, nsum))
    tie = False
    for w in range(n - 1):
        if key[w] >= key[-1] and noncut(w):
            if key[w] > key[-1]:
                return None
            tie = True
    return tie


def uf_mask(row, n):
    """referee_mask on a column-order bit row, with a vertex non-cut when
    union-find finds G - w connected."""
    edges = [e for e, bit in zip(oracles.pairs_colmajor(n), row) if bit]

    def noncut(w):
        rest = [(u - (u > w), v - (v > w)) for u, v in edges if w not in (u, v)]
        return oracles.connected_uf(n - 1, rest)

    return referee_mask(n, edges, noncut)


def nx_mask(nbrs):
    """referee_mask on neighbour masks, with the vertices that are no
    articulation point of networkx non-cut."""
    nx = pytest.importorskip("networkx")
    n, edges = len(nbrs), mask_edges(nbrs)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    cut = set(nx.articulation_points(h))
    return referee_mask(n, edges, lambda w: w not in cut)


def vf2_automorphisms(n, edges):
    """Every automorphism, as vertex images, of a graph, by networkx VF2."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return {tuple(a[v] for v in range(n))
            for a in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter()}


@functools.lru_cache(maxsize=None)
def parent_automorphisms(nbrs):
    """vf2_automorphisms of the parent with these neighbour masks."""
    return vf2_automorphisms(len(nbrs), mask_edges(nbrs))


def column_orbit(col, auts):
    """The images of a column (a bitmask of parent vertices) under auts."""
    return {sum(1 << a[v] for v in range(len(a)) if col >> v & 1) for a in auts}


def row_column(row, k):
    """The new vertex's column, a bitmask of parent vertices, of a child bit row."""
    m = _canon.num_pairs(k)
    return sum(bit << i for i, bit in enumerate(row[m:]))


def built_orbits(parents, k, rows):
    """Per parent's bit row, the Aut(parent)-orbit of each column built for it."""
    m = _canon.num_pairs(k)
    columns = {}
    for nbrs in rows:
        columns.setdefault(bit_row(nbrs)[:m], []).append(nbrs[k])
    return {bit_row(nbrs): [column_orbit(col, parent_automorphisms(nbrs))
                            for col in columns.get(bit_row(nbrs), [])]
            for nbrs in parents}


@pytest.mark.parametrize("lane", ALL_LANES)
def test_children_rows_match_referee(lane):
    # Built rows are rows the bound and the networkx mask keep.  Every
    # lane row the mask keeps has its column in the orbit of exactly one
    # built column of its parent, and every row it drops in none.
    for k in range(1, 7):
        parents = enumeration._level(k, lane)
        rows = [nbrs for nbrs, _ in child_rows(k + 1, lane)]
        every = referee_children(parents, k, lane)
        kept = {row for row in every if nx_mask(row_nbrs(row, k + 1)) is not None}
        assert set(map(bit_row, rows)) <= {row for row in kept if not every[row]}
        orbits = built_orbits(parents, k, rows)
        m = _canon.num_pairs(k)
        for row in every:
            col = row_column(row, k)
            assert sum(col in orbit for orbit in orbits[row[:m]]) == (row in kept)


def judged_sizes(parents, n, lane, monkeypatch):
    """Per parent's bit row, the column sizes _children_rows walks for it:
    the sizes the column bound lets through."""
    by_size = enumeration._columns_by_size(n - 1)
    walked = []

    class Recorder:
        def __getitem__(self, size):
            walked.append(size)
            return by_size[size]

    monkeypatch.setattr(enumeration, "_columns_by_size", lambda k: Recorder())
    out = {}
    for nbrs in parents:
        walked.clear()
        list(enumeration._children_rows([nbrs], n, lane))
        out[bit_row(nbrs)] = set(walked)
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("lane", ALL_LANES)
def test_column_bound_matches_referee(lane, monkeypatch):
    # The column bound lets through exactly the sizes of the lane rows
    # the referee's bound does not skip: a looser bound judges columns
    # the mask then drops, so no built row would show it.
    for k in range(1, 7):
        parents = enumeration._level(k, lane)
        sizes = judged_sizes(parents, k + 1, lane, monkeypatch)
        m = _canon.num_pairs(k)
        for row, skip in referee_children(parents, k, lane).items():
            assert (row_column(row, k).bit_count() in sizes[row[:m]]) is not skip


@pytest.mark.parametrize("lane", ALL_LANES)
def test_rows_the_bound_skips_fail_the_mask(lane):
    # The column bound and the orbit rule are shortcuts of the mask: every
    # lane row the bound skips lies outside the orbits of the built rows,
    # and the union-find mask drops every row that does.
    for k in range(1, 8):
        parents = enumeration._level(k, lane)
        rows = [nbrs for nbrs, _ in child_rows(k + 1, lane)]
        every = referee_children(parents, k, lane)
        assert set(map(bit_row, rows)) <= set(every)
        covered = {p: set().union(*orbits) for p, orbits in built_orbits(parents, k, rows).items()}
        m = _canon.num_pairs(k)
        left = {row for row in every if row_column(row, k) not in covered[row[:m]]}
        assert all(row in left for row, skip in every.items() if skip)
        assert all(uf_mask(row, k + 1) is None for row in left)


# OEIS A001349: the connected graphs on n = 1..8 vertices.
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112, 853, 11117]


@pytest.mark.parametrize("lane", ALL_LANES)
def test_level_holds_one_row_per_class(lane):
    # No code deduplicates the untied rows, so each level is refereed
    # whole, up to the lane's cap: its rows have pairwise distinct codes,
    # and it has one per class.  The unrestricted lane is counted by
    # A001349; any other lane's codes are those of every child the lane
    # allows of the level below.
    top = enumeration.MAX_N_PRUNED if lane[0] >= 5 else enumeration.MAX_N
    for n in range(1, top + 1):
        codes = level_codes(n, lane)
        assert len(set(codes)) == len(codes)
        if lane == (0, False):
            assert len(codes) == CONNECTED_CLASSES[n - 1]
        elif n > 1:
            every = referee_children(enumeration._level(n - 1, lane), n - 1, lane)
            assert set(codes) == set(_canon.min_codes(every, n))


LANES = [(0, False), (0, True), (4, False), (5, False)]


def child_rows(n, lane):
    """The (neighbour masks, tie) pairs _children_rows builds for level n."""
    return list(enumeration._children_rows(enumeration._level(n - 1, lane), n, lane))


def kept_rows(n, lane):
    """Bit rows of the children the mask keeps, tied or not."""
    return [bit_row(nbrs) for nbrs, _ in child_rows(n, lane)]


class TestDeletionCandidates:
    @pytest.mark.parametrize("lane", LANES)
    def test_filtered_rows_reach_every_class(self, lane):
        # The rows kept by the column bound and the mask reach the same
        # classes as every child row the lane allows; the bipartite and
        # girth-5 lanes are checked one level further.
        top = 8 if lane in ((0, True), (5, False)) else 7
        for n in range(2, top + 1):
            every = list(referee_children(enumeration._level(n - 1, lane), n - 1, lane))
            assert (set(_canon.min_codes(kept_rows(n, lane), n))
                    == set(_canon.min_codes(every, n)))

    def test_mask_matches_networkx(self):
        # Every built (row, tie) pair of four lanes: the new vertex n - 1
        # is kept, so no vertex that is no articulation point has a larger
        # key, and the row is tied iff another such vertex has its key.
        # That the rows the mask drops are not built is
        # test_children_rows_match_referee.
        built = [pair for lane in LANES for n in range(2, 8) for pair in child_rows(n, lane)]
        assert len(built) == 1249
        for nbrs, tie in built:
            assert nx_mask(nbrs) is tie

    def test_rows_left_for_the_sweep(self, monkeypatch):
        # (columns judged, rows built, which are the rows the mask keeps,
        # built rows that are tied); only the tied rows are canonized.  A
        # judged column is one orbit of the parent's lane columns in a
        # size the column bound lets through.
        counts = {(7, (0, False)): (2033, 905, 448),
                  (8, (0, True)): (371, 194, 138),
                  (8, (5, False)): (109, 52, 43),
                  (8, (0, False)): (30096, 12106, 4610)}
        for (n, lane), want in counts.items():
            parents = enumeration._level(n - 1, lane)
            sizes = judged_sizes(parents, n, lane, monkeypatch)
            m = _canon.num_pairs(n - 1)
            judged = set()
            for row in referee_children(parents, n - 1, lane):
                col = row_column(row, n - 1)
                if col.bit_count() in sizes[row[:m]]:
                    auts = parent_automorphisms(row_nbrs(row[:m], n - 1))
                    judged.add((row[:m], frozenset(column_orbit(col, auts))))
            rows = child_rows(n, lane)
            assert (len(judged), len(rows), sum(tie for _, tie in rows)) == want


ATLAS_FILTERS = {
    "any": lambda n: UniverseFilter(n),
    "bipartite": lambda n: UniverseFilter(n, bipartite="yes"),
    "nonbipartite": lambda n: UniverseFilter(n, bipartite="no"),
    "girth4": lambda n: UniverseFilter(n, min_girth=4),
    "girth5": lambda n: UniverseFilter(n, min_girth=5),
    "thm1": lambda n: UniverseFilter(n, bipartite="no", min_girth=5),
    "thm2": lambda n: UniverseFilter(n, bipartite="yes", min_edges=n),
    "girth6": lambda n: UniverseFilter(n, min_girth=6),
    "bipartite-girth6": lambda n: UniverseFilter(n, bipartite="yes", min_girth=6),
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
    """The test-side n! sweep, oracles.lexmin_codes, against the naive minimum."""

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 8), (4, 40),
                                         (5, 30), (6, 12), (7, 4), (8, 3)])
    def test_matches_naive_minimum(self, n, count):
        rows = random_rows(random.Random(n), count, n)
        got = oracles.lexmin_codes(rows, n)
        assert [int(c) for c in got] == [naive_min_code(r, n) for r in rows]

    def test_row_chunking_does_not_change_codes(self):
        # 1,200 rows span several passes at n = 7 (416 rows each).
        rows = random_rows(random.Random(7), 1200, 7)
        per_pass = oracles.BATCH_BYTES // (math.factorial(7) * 8)
        assert len(rows) > 2 * per_pass
        batch = oracles.lexmin_codes(rows, 7)
        assert batch.tolist() == [int(oracles.lexmin_codes(r, 7)[0]) for r in rows]

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
        a, b = oracles.lexmin_codes(rows, n)
        assert a == b
        back = graph_from_slots(n, _canon.code_slots(int(a), n))
        assert nx.is_isomorphic(*(nx.Graph(list(h.edges)) for h in (back, g)))
        assert back.n == g.n and back.m == g.m

    def test_codes_beyond_float64_rejected_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            oracles.lexmin_codes(np.zeros((1, _canon.num_pairs(11)), np.uint8), 11)
        assert time.perf_counter() - t0 < 1


def neighbour_masks(g):
    return [sum(1 << v for v in row) for row in g.adj]


def labeled(rng, n, edges):
    """The graph with these edges, in a random labeling."""
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(build_graph(n, edges), perm)


def bit_rows(graphs, n):
    return np.array([adjacency_bits(g) for g in graphs], np.uint8).reshape(len(graphs), -1)


def assert_min_code_matches_sweep(graphs, n):
    want = oracles.lexmin_codes(bit_rows(graphs, n), n).tolist()
    assert [_canon.min_code(neighbour_masks(g)) for g in graphs] == want


# Symmetric 10-vertex graphs: many tied prefixes, and (but for Petersen and
# C10) many twins.
SYMMETRIC_TEN = {
    "K10": [(i, j) for j in range(10) for i in range(j)],
    "empty": [],
    "5K2": [(2 * i, 2 * i + 1) for i in range(5)],
    "K5,5": [(i, j) for i in range(5) for j in range(5, 10)],
    "Petersen": [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)],
    "C10": [(i, (i + 1) % 10) for i in range(10)],
}


class TestMinCode:
    """The prefix search against the test-side n! sweep, its referee."""

    def test_matches_sweep_on_atlas(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1)
        atlas = nx.graph_atlas_g()
        for n in range(1, 8):
            graphs = [labeled(rng, n, h.edges) for h in atlas if h.number_of_nodes() == n]
            assert_min_code_matches_sweep(graphs, n)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_matches_sweep_on_random_graphs(self, n):
        # 150 graphs with densities spread evenly over (0, 1).
        rng = random.Random(n)
        graphs = [build_graph(n, [p for p in itertools.combinations(range(n), 2)
                                  if rng.random() < (k + 0.5) / 150])
                  for k in range(150)]
        assert_min_code_matches_sweep(graphs, n)

    @pytest.mark.parametrize("edges", SYMMETRIC_TEN.values(), ids=SYMMETRIC_TEN.keys())
    def test_matches_sweep_on_symmetric_graphs(self, edges):
        rng = random.Random(10)
        assert_min_code_matches_sweep([labeled(rng, 10, edges) for _ in range(2)], 10)


def assert_refined_codes_canonical(graphs, n, rng, labelings=3):
    """min_codes gives every labeling of a graph one code, a code of that
    graph (same lex-min code), and distinct graphs distinct codes."""
    codes = []
    for g in graphs:
        relabeled = [g] + [labeled(rng, n, g.edges) for _ in range(labelings - 1)]
        got = _canon.min_codes(bit_rows(relabeled, n), n)
        assert len(set(got)) == 1
        back = graph_from_slots(n, _canon.code_slots(got[0], n))
        assert _canon.min_code(neighbour_masks(back)) == _canon.min_code(neighbour_masks(g))
        codes.append(got[0])
    lexmin = {_canon.min_code(neighbour_masks(g)) for g in graphs}
    assert len(set(codes)) == len(lexmin)


def same_partition(a, b):
    """Whether two labelings of the same items group them alike."""
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


class TestRefinedCodes:
    """The level canonizer: individualization-refinement on Python ints."""

    @pytest.mark.parametrize("lane", LANES)
    def test_partition_matches_lexmin_on_levels(self, lane):
        # The rows each level canonizes, grouped by min_codes and by the
        # lex-min sweep; the girth-5 lane one level further.
        top = 9 if lane == (5, False) else 8
        for n in range(2, top + 1):
            rows = kept_rows(n, lane)
            assert same_partition(_canon.min_codes(rows, n),
                                  oracles.lexmin_codes(rows, n).tolist())

    def test_canonical_on_atlas(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2)
        atlas = nx.graph_atlas_g()
        for n in range(1, 8):
            graphs = [build_graph(n, list(h.edges)) for h in atlas if h.number_of_nodes() == n]
            assert_refined_codes_canonical(graphs, n, rng)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_canonical_on_random_graphs(self, n):
        # 150 graphs with densities spread evenly over (0, 1).
        rng = random.Random(100 + n)
        graphs = [build_graph(n, [p for p in itertools.combinations(range(n), 2)
                                  if rng.random() < (k + 0.5) / 150])
                  for k in range(150)]
        assert_refined_codes_canonical(graphs, n, rng)

    @pytest.mark.parametrize("edges", SYMMETRIC_TEN.values(), ids=SYMMETRIC_TEN.keys())
    def test_canonical_on_symmetric_graphs(self, edges):
        rng = random.Random(11)
        assert_refined_codes_canonical([build_graph(10, edges)], 10, rng, labelings=4)

    def test_rows_of_any_sequence_type(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        bits = adjacency_bits(g)
        got = _canon.min_codes([bits, tuple(bits), bytes(bits), np.array(bits, np.uint8)], 5)
        assert len(set(got)) == 1 and all(type(c) is int for c in got)

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError):
            _canon.min_codes([[0, 1, 0]], 4)


def generated_group(gens, n):
    """Every product of the permutations gens (vertex images), by BFS."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        grown = []
        for g in frontier:
            for s in gens:
                h = tuple(s[g[v]] for v in range(n))
                if h not in group:
                    group.add(h)
                    grown.append(h)
        frontier = grown
    return group


def assert_generates_automorphisms(n, edges):
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    assert generated_group(_canon.automorphisms(nbrs), n) == vf2_automorphisms(n, edges)


class TestAutomorphisms:
    """The generators the refinement search records, against networkx VF2."""

    def test_atlas_to_six_vertices(self):
        # Disconnected graphs included.
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() <= 6:
                assert_generates_automorphisms(h.number_of_nodes(), h.edges)

    def test_level_seven(self):
        for nbrs in enumeration._level(7, (0, False)):
            assert_generates_automorphisms(7, mask_edges(nbrs))

    @pytest.mark.parametrize("lane", ALL_LANES[1:])
    def test_every_parent_of_a_capped_lane(self, lane):
        # An untied row is one per class only if the generators give all of
        # Aut(parent), so every parent a lane extends up to its cap is
        # checked in the labeling its level holds it: for thm1's lane the
        # girth-5 level at n = 8, for thm2's the bipartite level at n = 7.
        top = enumeration.MAX_N_PRUNED if lane[0] >= 5 else enumeration.MAX_N
        for k in range(1, top):
            for nbrs in enumeration._level(k, lane):
                assert_generates_automorphisms(k, mask_edges(nbrs))

    @pytest.mark.parametrize("n,edges", [
        (7, list(itertools.combinations(range(7), 2))),
        (7, [(0, v) for v in range(1, 7)]),
        (10, SYMMETRIC_TEN["5K2"]),
        (6, [(i, j) for i in range(3) for j in range(3, 6)]),
        (10, SYMMETRIC_TEN["C10"]),
        (10, SYMMETRIC_TEN["Petersen"]),
    ], ids=["K7", "K1,6", "5K2", "K3,3", "C10", "Petersen"])
    def test_symmetric_graphs(self, n, edges):
        assert_generates_automorphisms(n, edges)

    def test_trivial_group_gives_none(self):
        # The smallest asymmetric graphs have 6 vertices.
        g = build_graph(6, [(0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 5)])
        assert _canon.automorphisms(neighbour_masks(g)) == []


def naive_weight_columns(n):
    """Columns of the weight table, one per relabeling, built pair by pair."""
    m = n * (n - 1) // 2
    return {tuple(2.0 ** (m - 1 - oracles.slot_colmajor(perm[i], perm[j]))
                  for i, j in oracles.pairs_colmajor(n))
            for perm in itertools.permutations(range(n))}


class TestWeightTable:
    """The tables of the test-side sweep cover every relabeling once."""

    @pytest.mark.parametrize("n", range(1, oracles.MAX_TABLE_N + 1))
    def test_columns_are_all_relabelings(self, n):
        wt = oracles.weights(n)
        m = n * (n - 1) // 2
        assert wt.shape == (m, math.factorial(n))
        assert set(map(tuple, wt.T.tolist())) == naive_weight_columns(n)
        # Exactness: each column holds m distinct powers of two.
        assert (np.sort(wt, axis=0) == 2.0 ** np.arange(m)[:, None]).all()

    @pytest.mark.parametrize("n", range(oracles.MAX_TABLE_N + 1, CANON_MAX_N + 1))
    def test_block_tables_fix_the_leading_vertices(self, n):
        wt = oracles.weights(n)
        m = n * (n - 1) // 2
        assert wt.shape == (m, math.factorial(oracles.MAX_TABLE_N))
        assert (np.sort(wt, axis=0) == 2.0 ** np.arange(m)[:, None]).all()
        assert len(set(map(tuple, wt.T.tolist()))) == wt.shape[1]
        pairs = np.array(oracles.pairs_colmajor(n))
        targets = (m - 1 - np.log2(wt)).astype(np.intp)  # entry 2^(m-1-t)
        for v in range(n - oracles.MAX_TABLE_N):
            # v is fixed iff every pair at v lands on a pair at v.
            at_v = (pairs == v).any(axis=1)
            assert (pairs[targets[at_v]] == v).any(axis=-1).all()

    @pytest.mark.parametrize("n", range(1, oracles.MAX_TABLE_N + 1))
    def test_one_identity_block_up_to_table_size(self, n):
        blocks = list(oracles.block_sources(n))
        assert len(blocks) == 1
        assert blocks[0].tolist() == list(range(n * (n - 1) // 2))

    @pytest.mark.parametrize("n", range(oracles.MAX_TABLE_N + 1, CANON_MAX_N + 1))
    def test_blocks_and_table_cover_every_relabeling_once(self, n):
        # One slot map per choice of the fixed leading images, each a
        # permutation of the slots.
        blocks = {tuple(src.tolist()) for src in oracles.block_sources(n)}
        assert len(blocks) == math.factorial(n) // math.factorial(oracles.MAX_TABLE_N)
        assert all(sorted(src) == list(range(n * (n - 1) // 2)) for src in blocks)
