"""Strong rainbow connection numbers and optimal colorings for odd cacti."""

from .decomposition import (
    Block,
    BlockKind,
    Classification,
    Decomposition,
    GraphClass,
    RejectionReason,
    classify,
    decompose,
)
from .errors import RainbowCactusError
from .generator import GenSpec, generate
from .graph import (
    Graph,
    Path,
    build_graph,
    format_edge_list,
    load_edge_list,
    parse_edge_list,
)
from .oracle import (
    BruteForceResult,
    RainbowWitness,
    VerificationOutcome,
    brute_force_search,
    brute_force_src,
    verify_pairs,
    verify_strong_rainbow,
)
from .partition import (
    BlackWhitePartition,
    PropertyCheck,
    ValidationReport,
    black_edges,
    build_canonical_partition,
    graph_leaves,
    lower_bound,
    validate_partition,
)
from .segments import (
    AntipodalIndex,
    SegmentCatalog,
    SegmentClass,
    build_antipodal_index,
    enumerate_segments,
)
from .solver import (
    EdgeColoring,
    GraphAnalysis,
    SrcCase,
    SrcResult,
    SrcStats,
    analyze_graph,
    src_formula,
    strong_rainbow_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "AntipodalIndex",
    "BlackWhitePartition",
    "Block",
    "BlockKind",
    "BruteForceResult",
    "Classification",
    "Decomposition",
    "EdgeColoring",
    "GenSpec",
    "Graph",
    "GraphAnalysis",
    "GraphClass",
    "Path",
    "PropertyCheck",
    "RainbowCactusError",
    "RainbowWitness",
    "RejectionReason",
    "SegmentCatalog",
    "SegmentClass",
    "SrcCase",
    "SrcResult",
    "SrcStats",
    "ValidationReport",
    "VerificationOutcome",
    "analyze_graph",
    "black_edges",
    "brute_force_search",
    "brute_force_src",
    "build_antipodal_index",
    "build_canonical_partition",
    "build_graph",
    "classify",
    "decompose",
    "enumerate_segments",
    "format_edge_list",
    "generate",
    "graph_leaves",
    "load_edge_list",
    "lower_bound",
    "parse_edge_list",
    "src_formula",
    "strong_rainbow_coloring",
    "validate_partition",
    "verify_pairs",
    "verify_strong_rainbow",
]
