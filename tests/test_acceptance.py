"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured counts and runtime."""

from __future__ import annotations

import contextlib
import itertools
import random
import time

import oracles
from szeged import (
    TreeSpec,
    apsp,
    build_graph,
    c5_two_trees,
    canonical_form,
    complete_graph,
    cycle_graph,
    cycle_with_tree,
    enumerate_connected,
    index_report,
    pi,
    universe_filter,
    verify_lemmas,
    verify_theorem,
)

PAW_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3))


@contextlib.contextmanager
def criterion(capsys, num, label_parts):
    """Print one PASS/FAIL line per criterion, visible outside capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num}: {label_parts[0]}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num}: {'; '.join(label_parts)}")


def all_tree_specs(size):
    if size == 1:
        return [TreeSpec.trivial()]
    return [TreeSpec(size, (0,) + parents)
            for parents in itertools.product(*(range(i)
                                               for i in range(1, size)))]


def family_forms(cycle_len, total_n):
    return {canonical_form(cycle_with_tree(cycle_len, t)).decode("ascii")
            for t in all_tree_specs(total_n - cycle_len + 1)}


def two_tree_forms(total_n):
    out = set()
    for s1 in range(2, total_n - 4):
        for t1 in all_tree_specs(s1):
            for t2 in all_tree_specs(total_n - 3 - s1):
                out.add(canonical_form(c5_two_trees(t1, t2)).decode("ascii"))
    return out


def test_criterion_1_thm1_equality_family(capsys):
    label = ["thm1 family gap = 2n-5 on 200 seeded instances"]
    with criterion(capsys, 1, label):
        rng = random.Random(101)
        t0 = time.perf_counter()
        for _ in range(200):
            n = rng.randint(5, 40)
            if n >= 7 and rng.random() < 0.5:
                s1 = rng.randint(2, n - 5)
                g = c5_two_trees(TreeSpec.random(s1, rng),
                                 TreeSpec.random(n - 3 - s1, rng))
            else:
                g = cycle_with_tree(5, TreeSpec.random(n - 4, rng))
            r = index_report(g)
            assert r.n == n
            assert r.gap_sz == 2 * n - 5
        dt = time.perf_counter() - t0
        assert dt < 5.0
        label.append(f"{dt:.2f}s < 5s")


def test_criterion_2_thm2_equality_family(capsys):
    label = ["thm2 family gap = 4n-8 and 4Sz* = 4Sz on 200 seeded instances"]
    with criterion(capsys, 2, label):
        rng = random.Random(202)
        t0 = time.perf_counter()
        for _ in range(200):
            n = rng.randint(4, 40)
            g = cycle_with_tree(4, TreeSpec.random(n - 3, rng))
            r = index_report(g)
            assert r.n == n
            assert r.gap_sz == 4 * n - 8
            assert r.revised_szeged_x4 == 4 * r.szeged
        dt = time.perf_counter() - t0
        assert dt < 5.0
        label.append(f"{dt:.2f}s < 5s")


def test_criterion_3_thm3_equality_family(capsys):
    label = ["thm3 family 4(Sz*-W) = n^2+4n-6 on 200 seeded instances"]
    with criterion(capsys, 3, label):
        rng = random.Random(303)
        t0 = time.perf_counter()
        for _ in range(200):
            n = rng.randint(4, 40)
            g = cycle_with_tree(3, TreeSpec.random(n - 2, rng))
            r = index_report(g)
            assert r.n == n
            assert r.gap_rsz_x4 == n * n + 4 * n - 6
        dt = time.perf_counter() - t0
        assert dt < 5.0
        label.append(f"{dt:.2f}s < 5s")


def test_criterion_4_thm1_exhaustive(capsys):
    label = ["thm1 exhaustive n=5..8"]
    with criterion(capsys, 4, label):
        t0 = time.perf_counter()
        sizes = {}
        for n in range(5, 9):
            r = verify_theorem("thm1", n)
            sizes[n] = r.universe_size
            assert r.min_gap == 2 * n - 5
            assert r.counterexamples == ()
            # empty mismatch list means achiever set == predicate set,
            # both inclusions
            assert r.predicate_mismatches == ()
            assert set(r.achievers) == family_forms(5, n) | two_tree_forms(n)

        def oracle_pred(n, edges):
            if not oracles.connected_uf(n, edges):
                return False
            if oracles.bipartite_2color(n, edges):
                return False
            g = oracles.girth_cycle_search(n, edges)
            return g is None or g >= 5

        for n in (5, 6):
            assert sizes[n] == 1 == oracles.count_classes(n, oracle_pred)
        dt = time.perf_counter() - t0
        assert dt < 120.0
        label.append(f"universes {sizes}")
        label.append(f"{dt:.1f}s < 120s")


def test_criterion_5_thm2_exhaustive(capsys):
    label = ["thm2 exhaustive n=4..7, achievers = C4-plus-tree family"]
    with criterion(capsys, 5, label):
        t0 = time.perf_counter()
        sizes = {}
        for n in range(4, 8):
            r = verify_theorem("thm2", n)
            sizes[n] = r.universe_size
            assert r.min_gap == 4 * n - 8
            assert r.counterexamples == ()
            assert r.predicate_mismatches == ()
            assert set(r.achievers) == family_forms(4, n)
        dt = time.perf_counter() - t0
        assert dt < 300.0
        label.append(f"universes {sizes}")
        label.append(f"{dt:.1f}s < 300s")


def test_criterion_6_thm3_exhaustive(capsys):
    label = ["thm3 exhaustive n=4..7, achievers = C3-plus-tree family"]
    with criterion(capsys, 6, label):
        t0 = time.perf_counter()
        sizes = {}
        for n in range(4, 8):
            r = verify_theorem("thm3", n)
            sizes[n] = r.universe_size
            assert r.min_gap == n * n + 4 * n - 6
            assert r.counterexamples == ()
            assert r.predicate_mismatches == ()
            assert set(r.achievers) == family_forms(3, n)
            if n == 4:
                paw = build_graph(4, PAW_EDGES)
                assert r.achievers == (
                    canonical_form(paw).decode("ascii"),)
                assert r.min_gap == 26
        dt = time.perf_counter() - t0
        assert dt < 300.0
        label.append(f"universes {sizes}")
        label.append(f"{dt:.1f}s < 300s")


def test_criterion_7_oracle_equivalence(capsys):
    label = ["Sz = mu double sum and sum(pi) = Sz - W"]
    with criterion(capsys, 7, label):
        checked = 0
        for which, lo, hi in (("thm1", 5, 8), ("thm2", 4, 7), ("thm3", 4, 7)):
            for n in range(lo, hi + 1):
                for g in enumerate_connected(universe_filter(which, n)):
                    dm = apsp(g)
                    r = index_report(g)
                    assert r.szeged == oracles.szeged_via_mu_oracle(dm.d, g.edges)
                    slack = sum(pi(g, dm, x, y).pi
                                for x in range(g.n)
                                for y in range(x + 1, g.n))
                    assert slack == r.gap_sz
                    checked += 1
        assert checked > 0
        label.append(f"{checked} universe graphs, all exact")


def test_criterion_8_lemma_suite(capsys):
    label = ["lemma checks on all connected graphs n <= 7"]
    with criterion(capsys, 8, label):
        t0 = time.perf_counter()
        total = 0
        for n in range(1, 8):
            r = verify_lemmas(n)
            total += r.universe_size
            assert r.ok
            assert r.cycle_pair_violations == ()
            assert r.block_iff_violations == ()
            assert r.equidistant_violations == ()
        assert total == 1 + 1 + 2 + 6 + 21 + 112 + 853
        dt = time.perf_counter() - t0
        assert dt < 300.0
        label.append(f"{total} graphs, zero violations")
        label.append(f"{dt:.1f}s < 300s")


def test_criterion_9_spot_values(capsys):
    label = ["spot values C5, C4, paw, K4"]
    with criterion(capsys, 9, label):
        cases = [
            (cycle_graph(5), (15, 20, 125)),
            (cycle_graph(4), (8, 16, 64)),
            (build_graph(4, PAW_EDGES), (8, 8, 58)),
            (complete_graph(4), (6, 6, 96)),
        ]
        for g, want in cases:
            r = index_report(g)
            got = (r.wiener, r.szeged, r.revised_szeged_x4)
            assert got == want
            d = oracles.dist_table(g.n, g.edges)
            assert got == (oracles.wiener_oracle(d),
                           oracles.szeged_oracle(d, g.edges),
                           oracles.revised_szeged_x4_oracle(d, g.edges))
        label.append("all exact, matched against the path-enumeration oracle")
