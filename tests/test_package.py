"""The package's public surface: `__all__` is pinned, and the benchmark
reaches the program only through names it exports."""

from __future__ import annotations

import re
from pathlib import Path

import rainbow_cactus as rc

PUBLIC = [
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


def test_all_is_pinned():
    assert rc.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(rc, name)] == []


def test_bench_uses_only_exported_names():
    bench = Path(__file__).resolve().parents[1] / "bench"
    used = {name for p in bench.glob("*.py") for name in re.findall(r"\brc\.(\w+)", p.read_text())}
    assert "verify_pairs" in used
    assert sorted(used - set(rc.__all__)) == []
