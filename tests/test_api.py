"""The package's public surface, pinned so that a name added or dropped
shows up as a change to this list."""

from __future__ import annotations

import szeged

PUBLIC = [
    "BipartiteCheck", "BlockDecomposition", "BoundValue", "CycleInfo",
    "Disconnected", "DistanceMatrix", "DuplicateEdge", "FormatError", "Graph",
    "GraphError", "HypothesisViolated", "IndexReport", "InvalidTreeSpec",
    "LemmaReport", "PairContribution", "SamePair", "SelfLoop", "THEOREMS",
    "TooLarge", "TreeSpec", "UniverseFilter", "VerificationReport",
    "VertexOutOfRange", "adjacency_bits", "apsp", "blocks",
    "blocks_all_complete", "bound_thm1", "bound_thm2", "bound_thm3",
    "build_graph", "c5_two_trees", "canonical_form", "complete_graph",
    "cycle_graph", "cycle_with_tree", "emit_edgelist", "emit_graph6",
    "enumerate_connected", "enumeration", "errors", "extremal", "formats",
    "girth", "graphs", "index_report", "invariants",
    "is_bipartite", "is_connected", "is_equality_thm1", "is_equality_thm2",
    "is_equality_thm3", "odd_girth", "parse_edgelist", "parse_graph6",
    "path_graph", "pi", "relabel", "universe_filter", "verify",
    "verify_lemmas", "verify_theorem",
]


def test_public_names():
    assert sorted(szeged.__all__) == PUBLIC

