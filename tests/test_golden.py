"""Reports are pinned: every field but elapsed_ms must match the stored files.

tests/golden/theorems.json holds verify_theorem(...).to_dict() for thm1
n = 5..9 (n = 9 is the girth-5 lane at its enumeration cap), thm2
n = 4..8 and thm3 n = 4..7; tests/golden/lemmas.json holds
verify_lemmas(n).to_dict() for n = 1..7; tests/golden/n8.json holds the
two n = 8 frontier reports, verify_theorem("thm3", 8) and verify_lemmas(8).
elapsed_ms is dropped from all of them.  tests/golden/reports.json holds
index_report(g).to_dict() for 34 seeded graphs with n = 30..300, each
given by its graph6 string: random sparse and bipartite graphs, a random
tree, the four equality-family shapes with random trees, paths, odd and
even cycles, cycles with a pendant path, K_30, and a 6-cycle and a 9-cycle
sharing an edge (girth 6, odd girth 9).
A change that means to alter a report rewrites these files and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from szeged import index_report, parse_graph6, verify_lemmas, verify_theorem

GOLDEN = Path(__file__).parent / "golden"


def _load(name):
    with open(GOLDEN / name, encoding="ascii") as f:
        return json.load(f)


def _without_elapsed(report):
    d = report.to_dict()
    del d["elapsed_ms"]
    return d


@pytest.mark.parametrize("want", _load("theorems.json"),
                         ids=lambda d: f"{d['theorem']}-n{d['n']}")
def test_theorem_report(want):
    assert _without_elapsed(verify_theorem(want["theorem"], want["n"])) == want


@pytest.mark.parametrize("want", _load("lemmas.json"),
                         ids=lambda d: f"lemmas-n{d['n']}")
def test_lemma_report(want):
    assert _without_elapsed(verify_lemmas(want["n"])) == want


def test_n8_frontier_reports():
    want = _load("n8.json")
    assert _without_elapsed(verify_theorem("thm3", 8)) == want["theorem"]
    assert _without_elapsed(verify_lemmas(8)) == want["lemmas"]


@pytest.mark.parametrize("want", _load("reports.json"), ids=lambda d: d["label"])
def test_index_report(want):
    assert index_report(parse_graph6(want["graph6"])).to_dict() == want["report"]
