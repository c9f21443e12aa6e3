"""Exhaustive verification of the index bounds over small-graph universes."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .enumeration import UniverseFilter, enumerate_connected
from .errors import HypothesisViolated
from .extremal import (
    BoundValue,
    bound_thm1,
    bound_thm2,
    bound_thm3,
    is_equality_thm1,
    is_equality_thm2,
    is_equality_thm3,
)
from .graphs import Graph, apsp, blocks, canonical_form, girth, is_bipartite
from .invariants import blocks_all_complete, index_report, n0_sum, pi, szeged, wiener

THEOREMS = ("thm1", "thm2", "thm3")


def universe_filter(which: str, n: int) -> UniverseFilter:
    """The enumeration universe matching one theorem's hypotheses."""
    if which == "thm1":
        if n < 5:
            raise HypothesisViolated(f"thm1 needs n >= 5, got {n}")
        return UniverseFilter(n, bipartite="no", min_girth=5)
    if which == "thm2":
        if n < 4:
            raise HypothesisViolated(f"thm2 needs n >= 4, got {n}")
        return UniverseFilter(n, bipartite="yes", min_edges=n)
    if which == "thm3":
        if n < 4:
            raise HypothesisViolated(f"thm3 needs n >= 4, got {n}")
        return UniverseFilter(n, bipartite="no")
    raise ValueError(f"unknown theorem {which!r}, expected one of {THEOREMS}")


def _bound(which: str, n: int) -> BoundValue:
    return {"thm1": bound_thm1, "thm2": bound_thm2, "thm3": bound_thm3}[which](n)


def _gap(which: str, g: Graph) -> int:
    """Measured gap on the bound's own scale (x4 for the revised index)."""
    r = index_report(g)
    return r.gap_rsz_x4 if which == "thm3" else r.gap_sz


def _predicate(which: str, g: Graph) -> bool:
    return {"thm1": is_equality_thm1,
            "thm2": is_equality_thm2,
            "thm3": is_equality_thm3}[which](g)


@dataclass(frozen=True)
class VerificationReport:
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
    bound = _bound(which, n)
    min_gap: int | None = None
    achievers = []
    counterexamples = []
    mismatches = []
    size = 0
    for g in enumerate_connected(universe_filter(which, n)):
        size += 1
        gap = _gap(which, g)
        name = canonical_form(g).decode("ascii")
        if min_gap is None or gap < min_gap:
            min_gap = gap
        if gap < bound.numerator:
            counterexamples.append(name)
        elif gap == bound.numerator:
            achievers.append(name)
        if _predicate(which, g) != (gap == bound.numerator):
            mismatches.append(name)
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


@dataclass(frozen=True)
class LemmaReport:
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


def _cycle_pairs_ok(g: Graph, dm) -> bool:
    """Slack lower bounds for pairs on a shortest cycle.

    On an even shortest cycle every pair must have pi at least its cycle
    distance; on an odd one, pairs at cycle distance 2 or more must have
    pi at least 1.
    """
    info = girth(g)
    if info.length is None:
        return True
    c = info.witness
    k = len(c)
    for i in range(k):
        for j in range(i + 1, k):
            d_c = min(j - i, k - (j - i))
            slack = pi(g, dm, c[i], c[j]).pi
            if k % 2 == 0:
                if slack < d_c:
                    return False
            elif d_c >= 2 and slack < 1:
                return False
    return True


def _block_iff_ok(g: Graph, dm) -> bool:
    """Sz equals W exactly when every block is complete."""
    return blocks_all_complete(g, blocks(g)) == (szeged(g, dm) == wiener(g, dm))


def _equidistant_ok(g: Graph, dm) -> bool:
    """Nonbipartite, n >= 4: every vertex is equidistant on some edge,
    and the n_0 total over edges reaches n."""
    if g.n < 4 or is_bipartite(g):
        return True
    if n0_sum(g, dm) < g.n:
        return False
    for u in range(g.n):
        if not any(dm[u][a] == dm[u][b] for a, b in g.edges):
            return False
    return True


def verify_lemmas(n: int) -> LemmaReport:
    """Run the three structural checks on every connected n-vertex graph."""
    t0 = time.perf_counter()
    cycle_bad = []
    block_bad = []
    equi_bad = []
    size = 0
    for g in enumerate_connected(UniverseFilter(n)):
        size += 1
        dm = apsp(g)
        name = canonical_form(g).decode("ascii")
        if not _cycle_pairs_ok(g, dm):
            cycle_bad.append(name)
        if not _block_iff_ok(g, dm):
            block_bad.append(name)
        if not _equidistant_ok(g, dm):
            equi_bad.append(name)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return LemmaReport(
        n=n,
        universe_size=size,
        cycle_pair_violations=tuple(sorted(cycle_bad)),
        block_iff_violations=tuple(sorted(block_bad)),
        equidistant_violations=tuple(sorted(equi_bad)),
        elapsed_ms=elapsed,
    )
