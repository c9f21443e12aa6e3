"""Exhaustive verification of the index bounds over small-graph universes.

index_report gives verify_theorem its gaps; verify_lemmas reads W, Sz, the
ties and the shortest cycle's length from the same sweep and edge pass.
Only where that length is 4 or more does it find a shortest cycle, and
read its pairs' slacks with pi from apsp rows.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .enumeration import UniverseFilter, enumerate_connected
from .extremal import (  # THEOREMS and universe_filter stay importable here
    THEOREMS,
    BoundValue,
    is_equality_thm1,
    is_equality_thm2,
    is_equality_thm3,
    theorem_bound,
    universe_filter,
)
from .formats import canonical_form
from .graphs import Graph, apsp, girth
from .invariants import _indices, blocks_all_complete, index_report, pi


def _name(g: Graph) -> str:
    """graph6 name of a graph a report lists: its lex-min canonical form.

    Enumerated graphs come in the labeling they were built in, which is
    not a canonical one, so names cannot be read off it; only the few
    graphs a report lists are named, by canonical_form's prefix search.
    """
    return canonical_form(g).decode("ascii")


class VerificationReport(NamedTuple):
    """Outcome of one exhaustive bound check over one universe."""

    theorem: str
    n: int
    universe_size: int
    bound: BoundValue
    min_gap: int | None
    achievers: tuple[str, ...]
    counterexamples: tuple[str, ...]
    predicate_mismatches: tuple[str, ...]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.predicate_mismatches

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "universe_size": self.universe_size,
            "bound_num": self.bound.numerator,
            "bound_den": self.bound.denominator,
            "min_gap_num": self.min_gap,
            "achievers": list(self.achievers),
            "counterexamples": list(self.counterexamples),
            "predicate_mismatches": list(self.predicate_mismatches),
            "elapsed_ms": self.elapsed_ms,
        }


def verify_theorem(which: str, n: int) -> VerificationReport:
    """Check one bound exhaustively on its universe of n-vertex graphs.

    Every graph's gap is compared against the bound, and numeric equality
    is cross-checked against the structural achiever predicate in both
    directions.
    """
    t0 = time.perf_counter()
    bound = theorem_bound(which, n)
    is_equality = {"thm1": is_equality_thm1, "thm2": is_equality_thm2,
                   "thm3": is_equality_thm3}[which]
    min_gap: int | None = None
    achievers = []
    counterexamples = []
    mismatches = []
    size = 0
    for g in enumerate_connected(universe_filter(which, n)):
        size += 1
        r = index_report(g)
        gap = r.gap_rsz_x4 if bound.denominator == 4 else r.gap_sz
        if min_gap is None or gap < min_gap:
            min_gap = gap
        if gap < bound.numerator:
            counterexamples.append(_name(g))
        elif gap == bound.numerator:
            achievers.append(_name(g))
        # Every equality family is unicyclic, so the rule is asked only where m = n.
        if (g.m == n and is_equality(g)) != (gap == bound.numerator):
            mismatches.append(_name(g))
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        theorem=which,
        n=n,
        universe_size=size,
        bound=bound,
        min_gap=min_gap,
        achievers=tuple(sorted(achievers)),
        counterexamples=tuple(sorted(counterexamples)),
        predicate_mismatches=tuple(sorted(mismatches)),
        elapsed_ms=elapsed,
    )


class LemmaReport(NamedTuple):
    """Violation lists for the three supporting facts, over one universe."""

    n: int
    universe_size: int
    cycle_pair_violations: tuple[str, ...]
    block_iff_violations: tuple[str, ...]
    equidistant_violations: tuple[str, ...]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return not (self.cycle_pair_violations
                    or self.block_iff_violations
                    or self.equidistant_violations)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "universe_size": self.universe_size,
            "cycle_pair_violations": list(self.cycle_pair_violations),
            "block_iff_violations": list(self.block_iff_violations),
            "equidistant_violations": list(self.equidistant_violations),
            "elapsed_ms": self.elapsed_ms,
        }


def _cycle_pairs_ok(g: Graph, cycle: tuple[int, ...]) -> bool:
    """Slack lower bounds for pairs on a shortest cycle, given as its
    vertex sequence.

    On an even shortest cycle every pair must have pi at least its cycle
    distance; on an odd one, pairs at cycle distance 2 or more must have
    pi at least 1, so a triangle bounds no pair.  Each slack is
    invariants.pi's, read from one apsp table.
    """
    k = len(cycle)
    dm = apsp(g)
    for i in range(k):
        for j in range(i + 1, k):
            d_c = min(j - i, k - (j - i))
            need = d_c if k % 2 == 0 else int(d_c >= 2)
            if need and pi(g, dm, cycle[i], cycle[j]).pi < need:
                return False
    return True


def _block_iff_ok(g: Graph, w: int, sz: int) -> bool:
    """Sz equals W exactly when every block is complete."""
    return blocks_all_complete(g) == (sz == w)


def _equidistant_ok(n: int, n0: int, untied: int) -> bool:
    """Nonbipartite, n >= 4: every vertex is equidistant on some edge,
    and the n_0 total over edges reaches n.

    A connected graph is bipartite iff no edge has an equidistant vertex:
    parity rules ties out, and the vertex opposite an edge of a shortest
    odd cycle is one.  So a tie total of 0 marks the bipartite graphs.
    """
    return n < 4 or n0 == 0 or (n0 >= n and not untied)


def verify_lemmas(n: int) -> LemmaReport:
    """Run the three structural checks on every connected n-vertex graph."""
    t0 = time.perf_counter()
    cycle_bad = []
    block_bad = []
    equi_bad = []
    size = 0
    for g in enumerate_connected(UniverseFilter(n)):
        size += 1
        w, sz, n0, untied, _, length, _ = _indices(g)
        # A forest has no cycle and a triangle no pair to bound, so only
        # a shortest cycle of length 4 or more is looked for.
        if (length is not None and length >= 4
                and not _cycle_pairs_ok(g, girth(g).witness)):
            cycle_bad.append(_name(g))
        if not _block_iff_ok(g, w, sz):
            block_bad.append(_name(g))
        if not _equidistant_ok(g.n, n0, untied):
            equi_bad.append(_name(g))
    elapsed = int((time.perf_counter() - t0) * 1000)
    return LemmaReport(
        n=n,
        universe_size=size,
        cycle_pair_violations=tuple(sorted(cycle_bad)),
        block_iff_violations=tuple(sorted(block_bad)),
        equidistant_violations=tuple(sorted(equi_bad)),
        elapsed_ms=elapsed,
    )
