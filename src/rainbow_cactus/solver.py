"""Strong rainbow connection number and an optimal coloring for odd cacti.

The closed form is src(G) = (m + |E_cut| + |S1| - |E_ant|) / 2 for odd cacti
that are not bare cycles (for a tree it gives m); bare odd cycles are handled
directly. The coloring gives every cut edge and every S1/S2 segment edge a
fresh color, mirrors those colors onto the antipodal S4/S3 edges, and colors
each antipodal-to-cut edge by reusing the color of an eligible edge on the far
side of its pivot cut vertex. `analyze_graph` runs the chain from `decompose`
to the segment catalog; its coloring is built on first read. No verification
code is imported here: the oracle and the selftest check the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate

from .decomposition import Classification, Decomposition, GraphClass, decompose, require_odd_cactus
from .errors import InvariantError
from .graph import EdgeColoring, EdgeId, Graph, VertexId
from .partition import black_edges
from .segments import AntipodalIndex, SegmentCatalog, SegmentClass, build_antipodal_index, enumerate_segments

_UNSET = 1 << 60


class SrcCase(Enum):
    FORMULA = "Formula"
    ODD_CYCLE = "OddCycle"
    TRIANGLE = "Triangle"
    TREE = "Tree"


@dataclass(frozen=True)
class SrcStats:
    m: int
    cut_edges: int
    s1_count: int
    e_ant: int


@dataclass(frozen=True)
class SrcResult:
    src: int
    coloring: EdgeColoring
    stats: SrcStats
    case: SrcCase


def _src_stats(d: Decomposition, cat: SegmentCatalog) -> tuple[SrcStats, int]:
    """The closed form's terms m, |E_cut|, |S1|, |E_ant|, and its value.

    A bare odd cycle C_m has no cut vertex and so no segments; its value is
    1 for the triangle and (m + 1) / 2 otherwise. Elsewhere |S1| comes from
    the segment walk and |E_ant| from the antipodal index, two independent
    derivations. An odd sum means they disagree and the segments do not
    pair up, which valid input never allows.
    """
    stats = SrcStats(len(d.block_of_edge), len(d.cut_edges), cat.counts[0], len(cat.e_ant))
    if d.classification.tag is GraphClass.ODD_CYCLE:
        return stats, 1 if stats.m == 3 else (stats.m + 1) // 2
    total = stats.m + stats.cut_edges + stats.s1_count - stats.e_ant
    if total % 2:
        raise InvariantError(
            f"segment pairing parity violated: m + |E_cut| + |S1| - |E_ant| = {total}"
        )
    return stats, total // 2


def src_formula(d: Decomposition, cat: SegmentCatalog) -> int:
    """Evaluate the closed form for src(G) from the decomposition stats."""
    require_odd_cactus(d)
    return _src_stats(d, cat)[1]


def _branch_min_black(
    d: Decomposition, black_edges, ant_edges, opp_vertex
) -> dict[EdgeId, EdgeId]:
    """For each antipodal edge e, the lowest black edge id outside the branch
    of G - opp(e) that contains e.

    Runs in O(blocks) on the block-cut tree rooted at block 0, so the
    coloring loop stays linear overall; equivalent to building each
    separation explicitly and taking min(e_black & g2_edges). `decompose`
    files blocks in DFS preorder: the blocks below block b are b .. b+size-1,
    and b hangs from its top, a cut vertex of its parent block. Pivoting at
    b's top leaves everything outside that range; pivoting at another cut
    vertex w of b leaves the subtrees of the blocks hanging at w.
    """
    nblocks = len(d.block_top)
    boe = d.block_of_edge
    top, parent = d.block_top, d.block_parent
    # each block's lowest black edge until `before` and `after` are taken;
    # then the pass from the last block up makes it its subtree's lowest
    low = [_UNSET] * nblocks
    for e in black_edges:
        b = boe[e]
        if e < low[b]:
            low[b] = e

    # min(low[:i]) is before[i] and min(low[i:]) is after[nblocks - i]
    before = list(accumulate(low, min, initial=_UNSET))
    after = list(accumulate(reversed(low), min, initial=_UNSET))
    size = [1] * nblocks
    hanging: dict[VertexId, int] = {}
    for b in range(nblocks - 1, 0, -1):
        v, s, p = top[b], low[b], parent[b]
        size[p] += size[b]
        if s < low[p]:
            low[p] = s
        if s < hanging.get(v, _UNSET):
            hanging[v] = s

    out: dict[int, int] = {}
    for e in ant_edges:
        w = opp_vertex[e]
        b = boe[e]
        if w == top[b]:
            res = min(before[b], after[nblocks - b - size[b]])
        else:
            res = hanging.get(w, _UNSET)
        if res >= _UNSET:
            raise InvariantError(
                f"internal invariant violated: no black edge beyond pivot of edge {e}"
            )
        out[e] = res
    return out


def strong_rainbow_coloring(
    g: Graph, d: Decomposition, a: AntipodalIndex, cat: SegmentCatalog
) -> SrcResult:
    """Optimal strong rainbow coloring of a tree, odd cycle or odd cactus.

    Deterministic: the i-th edge of `black_edges` (cut edges in ascending
    edge id, then S1 and S2 segments in catalog order: cycles by block order,
    trail order within a cycle) takes color i + 1, and reused colors come
    from the lowest eligible edge id.
    """
    cls = require_odd_cactus(d)
    m = g.edge_count

    if cls.tag is GraphClass.ODD_CYCLE:
        stats, period = _src_stats(d, cat)
        colors_list = [0] * m
        for i, e in enumerate(d.cycle_edges):
            # any (m - 1) / 2 consecutive edges get distinct colors
            colors_list[e] = (i % period) + 1
        case = SrcCase.TRIANGLE if m == 3 else SrcCase.ODD_CYCLE
        return SrcResult(period, EdgeColoring(period, tuple(colors_list)), stats, case)

    # a tree has no segments and no antipodal edges: its m cut edges get
    # the colors 1..m in edge-id order
    colors_list = [0] * m
    blacks = black_edges(d, cat)
    for c, e in enumerate(blacks, 1):
        colors_list[e] = c
    # an S1 segment has one edge more than vertices, an S2 segment as many;
    # each vertex's antipodal edge, in the paired S4 or S3 segment, mirrors
    # the color of the edge before it. The walk vertex q follows the walk
    # edge q - 1 and is opposite the walk edge q - 1 + (L + 1) / 2.
    s1, s2 = SegmentClass.S1, SegmentClass.S2
    for _, _, re_, spans in cat.walks:
        shift = (len(re_) + 1) // 2
        re2 = re_ + re_
        for klass, v0, v1, _, _ in spans:
            if klass is s1 or klass is s2:
                for e, t in zip(re_[v0 - 1 : v1 - 1], re2[v0 - 1 + shift : v1 - 1 + shift]):
                    colors_list[t] = colors_list[e]

    if a.e_ant:
        targets = _branch_min_black(d, blacks, a.e_ant, a.pivot)
        for e, t in targets.items():
            colors_list[e] = colors_list[t]

    if not all(c > 0 for c in colors_list):
        raise InvariantError("coloring is not total")
    k = len(blacks)
    stats, expected = _src_stats(d, cat)
    if k != expected:
        raise InvariantError(f"color count {k} disagrees with the closed form {expected}")
    case = SrcCase.TREE if cls.tag is GraphClass.TREE else SrcCase.FORMULA
    return SrcResult(k, EdgeColoring(k, tuple(colors_list)), stats, case)


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    graph: Graph
    decomposition: Decomposition
    classification: Classification
    antipodal: AntipodalIndex | None
    catalog: SegmentCatalog | None

    @cached_property
    def result(self) -> SrcResult | None:
        """The optimal coloring, built on first read; None for a rejected graph."""
        if not self.classification.accepted:
            return None
        return strong_rainbow_coloring(self.graph, self.decomposition, self.antipodal, self.catalog)


def analyze_graph(g: Graph) -> GraphAnalysis:
    """Decompose, classify, and (if accepted) compute the antipodal index and
    the segment catalog; `result` holds the optimal coloring."""
    d = decompose(g)
    cls = d.classification
    if not cls.accepted:
        return GraphAnalysis(g, d, cls, None, None)
    a = build_antipodal_index(d)
    return GraphAnalysis(g, d, cls, a, enumerate_segments(d, a))
