"""Distance-based graph indices: Wiener, Szeged, and revised Szeged.

Exact integer computation of the three indices, constructors for the
cycle-plus-tree families on which the Szeged-Wiener gap bounds are tight,
and exhaustive verification of those bounds over all small connected
graphs up to isomorphism.
"""

from .enumeration import UniverseFilter, enumerate_connected
from .errors import (
    Disconnected,
    DuplicateEdge,
    FormatError,
    GraphError,
    HypothesisViolated,
    InvalidTreeSpec,
    SamePair,
    SelfLoop,
    TooLarge,
    VertexOutOfRange,
)
from .extremal import (
    THEOREMS,
    BoundValue,
    TreeSpec,
    c5_two_trees,
    cycle_with_tree,
    is_equality_thm1,
    is_equality_thm2,
    is_equality_thm3,
    theorem_bound,
    universe_filter,
)
from .formats import canonical_form, emit_edgelist, emit_graph6, parse_edgelist, parse_graph6
from .graphs import (
    CycleInfo,
    Graph,
    adjacency_bits,
    apsp,
    blocks,
    build_graph,
    complete_graph,
    cycle_graph,
    girth,
    is_bipartite,
    is_connected,
    odd_girth,
    path_graph,
    relabel,
)
from .invariants import (
    IndexReport,
    PairContribution,
    blocks_all_complete,
    index_report,
    pi,
)
from .verify import (
    LemmaReport,
    VerificationReport,
    verify_lemmas,
    verify_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
