"""The package's public surface, pinned so that a name added or dropped
shows up as a change to this list, and README's examples, run as written."""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

import szeged

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "BoundValue", "CycleInfo", "Disconnected", "DuplicateEdge", "FormatError",
    "Graph",
    "GraphError", "HypothesisViolated", "IndexReport", "InvalidTreeSpec",
    "LemmaReport", "PairContribution", "SamePair", "SelfLoop", "THEOREMS",
    "TooLarge", "TreeSpec", "UniverseFilter", "VerificationReport",
    "VertexOutOfRange", "adjacency_bits", "apsp", "blocks",
    "blocks_all_complete",
    "build_graph", "c5_two_trees", "canonical_form", "complete_graph",
    "cycle_graph", "cycle_with_tree", "emit_edgelist", "emit_graph6",
    "enumerate_connected", "enumeration", "errors", "extremal", "formats",
    "girth", "graphs", "index_report", "invariants",
    "is_bipartite", "is_connected", "is_equality_thm1", "is_equality_thm2",
    "is_equality_thm3", "odd_girth", "parse_edgelist", "parse_graph6",
    "path_graph", "pi", "relabel", "theorem_bound", "universe_filter",
    "verify", "verify_lemmas", "verify_theorem",
]


def test_public_names():
    assert sorted(szeged.__all__) == PUBLIC



def test_readme_library_block_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_readme_compute_line_prints_what_it_shows():
    lines = README.read_text(encoding="utf-8").splitlines()
    i = lines.index("$ szeged construct --family cycle-tree --cycle 5 --tree 1"
                    " | szeged compute --json")
    # Each stage in a new interpreter that imports this checkout's szeged.
    env = {**os.environ, "PYTHONPATH": str(Path(szeged.__file__).resolve().parents[1])}
    out = ""
    for stage in lines[i][2:].split(" | "):
        program, *args = shlex.split(stage)
        assert program == "szeged"
        out = subprocess.run([sys.executable, "-m", "szeged.cli", *args], input=out,
                             capture_output=True, text=True, env=env, check=True).stdout
    assert out == lines[i + 1] + "\n"
