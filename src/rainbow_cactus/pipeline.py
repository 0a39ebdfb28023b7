"""Convenience wrapper running the full analysis chain on one graph."""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Classification, Decomposition, decompose
from .graph import Graph
from .segments import AntipodalIndex, SegmentCatalog, build_antipodal_index, enumerate_segments
from .solver import SrcResult, strong_rainbow_coloring


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    graph: Graph
    decomposition: Decomposition
    classification: Classification
    antipodal: AntipodalIndex | None
    catalog: SegmentCatalog | None
    result: SrcResult | None


def analyze_graph(g: Graph) -> GraphAnalysis:
    """Decompose, classify, and (if accepted) compute segments and the
    optimal coloring."""
    d = decompose(g)
    cls = d.classification
    if not cls.accepted:
        return GraphAnalysis(g, d, cls, None, None, None)
    a = build_antipodal_index(d)
    cat = enumerate_segments(d, a)
    return GraphAnalysis(g, d, cls, a, cat, strong_rainbow_coloring(g, d, a, cat))
