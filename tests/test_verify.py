"""Exhaustive theorem and lemma verification reports."""

from __future__ import annotations

import itertools
import json
from types import SimpleNamespace

import pytest

import oracles
import szeged.verify as verify_module
from szeged import (
    BoundValue,
    HypothesisViolated,
    TreeSpec,
    UniverseFilter,
    VerificationReport,
    apsp,
    build_graph,
    c5_two_trees,
    canonical_form,
    complete_graph,
    cycle_graph,
    cycle_with_tree,
    enumerate_connected,
    girth,
    parse_graph6,
    path_graph,
    pi,
    universe_filter,
    verify_lemmas,
    verify_theorem,
)
from szeged.extremal import theorem_bound
from szeged.invariants import _indices


def all_tree_specs(size):
    """Every parent array of the given size (shapes repeat, that is fine)."""
    if size == 1:
        return [TreeSpec.trivial()]
    return [TreeSpec(size, (0,) + parents)
            for parents in itertools.product(*(range(i)
                                               for i in range(1, size)))]


def family_forms(cycle_len, total_n):
    """Canonical forms of every one-tree family member at the given n."""
    return {canonical_form(cycle_with_tree(cycle_len, t)).decode("ascii")
            for t in all_tree_specs(total_n - cycle_len + 1)}


def two_tree_forms(total_n):
    out = set()
    for s1 in range(2, total_n - 4):
        s2 = total_n - 3 - s1
        for t1 in all_tree_specs(s1):
            for t2 in all_tree_specs(s2):
                out.add(canonical_form(c5_two_trees(t1, t2)).decode("ascii"))
    return out


class TestUniverseFilter:
    def test_shapes(self):
        assert universe_filter("thm1", 6) == UniverseFilter(
            6, bipartite="no", min_girth=5)
        assert universe_filter("thm2", 6) == UniverseFilter(
            6, bipartite="yes", min_edges=6)
        assert universe_filter("thm3", 6) == UniverseFilter(6, bipartite="no")

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            universe_filter("thm4", 6)

    @pytest.mark.parametrize("which,n", [
        ("thm1", 4), ("thm2", 3), ("thm3", 3),
    ])
    def test_below_hypothesis(self, which, n):
        with pytest.raises(HypothesisViolated):
            universe_filter(which, n)
        with pytest.raises(HypothesisViolated):
            verify_theorem(which, n)


class TestTheorem1:
    def test_n5(self):
        r = verify_theorem("thm1", 5)
        assert r.ok and r.universe_size == 1 and r.min_gap == 5
        assert r.achievers == (canonical_form(cycle_graph(5)).decode("ascii"),)
        assert r.counterexamples == () and r.predicate_mismatches == ()

    def test_n7_matches_family(self):
        r = verify_theorem("thm1", 7)
        assert r.ok and r.universe_size == 6 and r.min_gap == 9
        assert r.achievers == ("F?Cn_", "F?LTG", "F@QM_")
        assert set(r.achievers) == family_forms(5, 7) | two_tree_forms(7)

    def test_n8_matches_family(self):
        r = verify_theorem("thm1", 8)
        assert r.ok and r.universe_size == 17 and r.min_gap == 11
        assert len(r.achievers) == 6
        assert set(r.achievers) == family_forms(5, 8) | two_tree_forms(8)


class TestTheorem2:
    def test_n4(self):
        r = verify_theorem("thm2", 4)
        assert r.ok and r.universe_size == 1 and r.min_gap == 8
        assert r.achievers == ("C]",)
        assert r.achievers == (canonical_form(cycle_graph(4)).decode("ascii"),)

    def test_n5(self):
        r = verify_theorem("thm2", 5)
        assert r.ok and r.universe_size == 2 and r.min_gap == 12
        assert r.achievers == ("DBw",)

    def test_n7_matches_family(self):
        r = verify_theorem("thm2", 7)
        assert r.ok and r.universe_size == 33 and r.min_gap == 20
        assert len(r.achievers) == 4
        assert set(r.achievers) == family_forms(4, 7)


class TestTheorem3:
    def test_n4(self):
        r = verify_theorem("thm3", 4)
        assert r.ok and r.universe_size == 3 and r.min_gap == 26
        assert r.achievers == ("CN",)
        assert r.bound == BoundValue(26, 4)

    def test_n5_and_n6_match_family(self):
        r5 = verify_theorem("thm3", 5)
        assert r5.ok and r5.universe_size == 16 and r5.min_gap == 39
        assert set(r5.achievers) == family_forms(3, 5)
        assert len(r5.achievers) == 2
        r6 = verify_theorem("thm3", 6)
        assert r6.ok and r6.universe_size == 95 and r6.min_gap == 54
        assert set(r6.achievers) == family_forms(3, 6)
        assert len(r6.achievers) == 4


class TestReportShape:
    def test_dict_keys_and_json(self):
        r = verify_theorem("thm2", 4)
        d = r.to_dict()
        assert list(d) == [
            "theorem", "n", "universe_size", "bound_num", "bound_den",
            "min_gap_num", "achievers", "counterexamples",
            "predicate_mismatches", "elapsed_ms",
        ]
        assert d["bound_num"] == 8 and d["bound_den"] == 1
        json.dumps(d)  # must be serializable as-is
        assert isinstance(r.elapsed_ms, int) and r.elapsed_ms >= 0

    def test_ok_reflects_failure_lists(self):
        base = dict(theorem="thm2", n=4, universe_size=1,
                    bound=BoundValue(8, 1), min_gap=8, achievers=("C]",),
                    counterexamples=(), predicate_mismatches=(), elapsed_ms=0)
        assert VerificationReport(**base).ok
        assert not VerificationReport(
            **{**base, "counterexamples": ("C]",)}).ok
        assert not VerificationReport(
            **{**base, "predicate_mismatches": ("C]",)}).ok


class TestLemmas:
    def test_tiny(self):
        r = verify_lemmas(1)
        assert r.ok and r.universe_size == 1

    def test_n5(self):
        r = verify_lemmas(5)
        assert r.ok and r.universe_size == 21
        assert r.cycle_pair_violations == ()
        assert r.block_iff_violations == ()
        assert r.equidistant_violations == ()

    def test_n6(self):
        r = verify_lemmas(6)
        assert r.ok and r.universe_size == 112

    def test_dict_keys(self):
        d = verify_lemmas(4).to_dict()
        assert list(d) == [
            "n", "universe_size", "cycle_pair_violations",
            "block_iff_violations", "equidistant_violations", "elapsed_ms",
        ]
        json.dumps(d)


class TestLemmaChecks:
    """Each check reads only the values it is given: fed values that break
    its rule, it fails."""

    PAW = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    STAR = build_graph(4, [(0, 3), (1, 3), (2, 3)])
    # The 4-cycle 0-1-2-3 with the chord 0-2: 0-1-2-3 is a cycle of it,
    # but not a shortest one.
    DIAMOND = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])

    def test_matching_distances_pass(self):
        for g in (self.PAW, self.STAR, self.DIAMOND, path_graph(4),
                  cycle_graph(4), complete_graph(4)):
            w, sz, n0, untied = _indices(g)[:4]
            assert verify_module._cycle_pairs_ok(g, girth(g).witness)
            assert verify_module._block_iff_ok(g, w, sz)
            assert verify_module._equidistant_ok(g.n, n0, untied)

    def test_cycle_pairs_need_a_shortest_cycle(self):
        # On the diamond's 4-cycle the pair (0, 2) straddles only the chord:
        # pi is 1 - 1 = 0, below its cycle distance 2.
        assert pi(self.DIAMOND, apsp(self.DIAMOND), 0, 2).pi == 0
        assert not verify_module._cycle_pairs_ok(self.DIAMOND, (0, 1, 2, 3))

    def test_block_iff_reads_w_and_sz(self):
        # The paw's blocks are complete, but the 4-cycle's Sz is not its W;
        # the 4-cycle's blocks are not, but K4's Sz is its W.
        w, sz = _indices(cycle_graph(4))[:2]
        assert sz != w
        assert not verify_module._block_iff_ok(self.PAW, w, sz)
        w, sz = _indices(complete_graph(4))[:2]
        assert not verify_module._block_iff_ok(cycle_graph(4), w, sz)

    def test_equidistant_reads_the_ties_and_the_cover(self):
        _, _, n0, untied = _indices(self.PAW)[:4]
        assert (n0, untied) == (4, 0)
        # A nonzero tie total below n, or a vertex tied on no edge, fails.
        assert not verify_module._equidistant_ok(self.PAW.n + 1, n0, untied)
        assert not verify_module._equidistant_ok(self.PAW.n, n0, 0b1000)

    def test_lemmas_do_not_use_index_report(self, monkeypatch):
        def refuse(g):
            raise AssertionError("verify_lemmas called index_report")

        monkeypatch.setattr(verify_module, "index_report", refuse)
        r = verify_lemmas(6)
        assert r.ok and r.universe_size == 112

    def test_lemmas_do_not_use_apsp(self, monkeypatch):
        def refuse(g):
            raise AssertionError("verify_lemmas called apsp")

        monkeypatch.setattr(verify_module, "apsp", refuse)
        r = verify_lemmas(6)
        assert r.ok and r.universe_size == 112


class TestEdgePass:
    """W, Sz, the tie total and the untied cover that the lemma suite reads
    from invariants._indices, against the referee's formulas fed apsp rows."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_connected_class(self, n):
        for g in enumerate_connected(UniverseFilter(n)):
            d = apsp(g)
            assert _indices(g)[:4] == (
                oracles.wiener_oracle(d),
                oracles.szeged_oracle(d, g.edges),
                oracles.tie_total_oracle(d, g.edges),
                oracles.untied_oracle(d, g.edges))


def cycle_rings(n, edges):
    """Every cycle of the graph as a vertex sequence, in every rotation and
    both directions."""
    edge_set = {frozenset(e) for e in edges}
    for k in range(3, n + 1):
        for ring in itertools.permutations(range(n), k):
            if all(frozenset((ring[i - 1], ring[i])) in edge_set for i in range(k)):
                yield ring


class TestCyclePairs:
    """The cycle check against the referee's mu formula, fed apsp rows."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_shortest_cycles(self, n):
        for g in enumerate_connected(UniverseFilter(n)):
            c = girth(g).witness
            assert verify_module._cycle_pairs_ok(g, c)
            assert oracles.cycle_pairs_oracle(apsp(g), g.edges, c)

    @pytest.mark.parametrize("n", range(4, 7))
    def test_every_cycle(self, n):
        # Cycles that are not shortest ones break the bounds on some graphs,
        # and the check must say so for exactly the same sequences.
        broken = 0
        for g in enumerate_connected(UniverseFilter(n)):
            d = apsp(g)
            for ring in cycle_rings(n, g.edges):
                want = oracles.cycle_pairs_oracle(d, g.edges, ring)
                assert verify_module._cycle_pairs_ok(g, ring) == want
                broken += not want
        assert broken > 0


class TestNaming:
    """Reports name listed graphs by canonical graph6, and only those."""

    def test_every_lemma_violation_is_named(self, monkeypatch):
        for check in ("_cycle_pairs_ok", "_block_iff_ok", "_equidistant_ok"):
            monkeypatch.setattr(verify_module, check, lambda *args: False)
        r = verify_lemmas(5)
        want = sorted(canonical_form(build_graph(5, edges)).decode("ascii")
                      for edges in oracles.graph_classes(5)
                      if oracles.connected_uf(5, edges))
        assert len(want) == 21
        assert list(r.cycle_pair_violations) == want
        assert list(r.block_iff_violations) == want
        assert list(r.equidistant_violations) == want

    @pytest.mark.parametrize("which,n", [("thm1", 6), ("thm1", 7), ("thm2", 5),
                                         ("thm2", 6), ("thm3", 5), ("thm3", 6)])
    def test_theorem_names_are_canonical(self, monkeypatch, which, n):
        # Every graph on the bound is an achiever, so every graph is named;
        # the ones the predicate rejects are named again as mismatches.
        monkeypatch.setattr(verify_module, "index_report", on_the_bound(which, n))
        r = verify_theorem(which, n)
        assert len(r.achievers) == r.universe_size
        for name in r.achievers + r.predicate_mismatches:
            assert canonical_form(parse_graph6(name)).decode("ascii") == name


def on_the_bound(which, n):
    """A stand-in for index_report that puts every graph exactly on the bound."""
    at = theorem_bound(which, n).numerator
    return lambda g: SimpleNamespace(gap_sz=at, gap_rsz_x4=at)


def universe(which, n):
    return list(enumerate_connected(universe_filter(which, n)))


def names(graphs):
    return tuple(sorted(canonical_form(g).decode("ascii") for g in graphs))


class TestEqualityGuard:
    """verify_theorem asks the equality predicate only of unicyclic graphs,
    and still cross-checks the bound against it in both directions."""

    @pytest.mark.parametrize("n,unicyclic", [(6, 8), (7, 23), (8, 55)])
    def test_predicate_asked_only_where_m_equals_n(self, monkeypatch, n, unicyclic):
        asked = []
        real = verify_module.is_equality_thm3
        monkeypatch.setattr(verify_module, "is_equality_thm3",
                            lambda g: asked.append(g) or real(g))
        r = verify_theorem("thm3", n)
        assert r.ok
        assert all(g.m == g.n for g in asked)
        assert len(asked) == unicyclic
        assert len(asked) == sum(g.m == n for g in universe("thm3", n))

    @pytest.mark.parametrize("which,n", [("thm1", 8), ("thm2", 6), ("thm3", 6)])
    def test_every_rejected_graph_on_the_bound_is_a_mismatch(self, monkeypatch,
                                                             which, n):
        predicate = getattr(verify_module, f"is_equality_{which}")
        monkeypatch.setattr(verify_module, "index_report", on_the_bound(which, n))
        graphs = universe(which, n)
        r = verify_theorem(which, n)
        assert r.achievers == names(graphs)
        rejected = [g for g in graphs if not predicate(g)]
        assert r.predicate_mismatches == names(rejected)
        assert any(g.m != n for g in rejected)
        assert any(g.m == n for g in rejected)

    @pytest.mark.parametrize("which,n", [("thm1", 8), ("thm2", 6), ("thm3", 6)])
    def test_every_unicyclic_non_achiever_is_a_mismatch(self, monkeypatch, which, n):
        honest = verify_theorem(which, n)
        monkeypatch.setattr(verify_module, f"is_equality_{which}", lambda g: True)
        r = verify_theorem(which, n)
        assert r.achievers == honest.achievers
        want = [g for g in universe(which, n) if g.m == n
                and canonical_form(g).decode("ascii") not in honest.achievers]
        assert want and r.predicate_mismatches == names(want)
