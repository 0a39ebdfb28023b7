"""Strong rainbow connection number and an optimal coloring for odd cacti.

The closed form is src(G) = (m + |E_cut| + |S1| - |E_ant|) / 2 for odd cacti
that are not bare cycles (for a tree it gives m); bare odd cycles are handled
directly. The coloring gives every cut edge and every S1/S2 segment edge a
fresh color, mirrors those colors onto the antipodal S4/S3 edges, and colors
each antipodal-to-cut edge by reusing the color of an eligible edge on the far
side of its pivot cut vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .decomposition import Classification, Decomposition, GraphClass
from .errors import InvariantError, NotOddCactusError
from .graph import EdgeId, Graph
from .segments import AntipodalIndex, SegmentCatalog, SegmentClass

_UNSET = 1 << 60


class SrcCase(Enum):
    FORMULA = "Formula"
    ODD_CYCLE = "OddCycle"
    TRIANGLE = "Triangle"
    TREE = "Tree"


@dataclass(frozen=True)
class EdgeColoring:
    """Total edge coloring; `color[e]` is the 1-based color of edge e."""

    k: int
    color: tuple[int, ...]


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


def _accepted(d: Decomposition) -> Classification:
    cls = d.classification
    if not cls.accepted:
        raise NotOddCactusError(f"input rejected: {cls.reason.value} (block {cls.witness_block})")
    return cls


def _src_stats(d: Decomposition, cat: SegmentCatalog) -> tuple[SrcStats, int]:
    """The closed form's terms m, |E_cut|, |S1|, |E_ant|, and its value.

    E_ant is exactly the cycle edges that no segment holds. An odd sum means
    the segments do not pair up, which valid input never allows.
    """
    cycle_edge_count = sum(b.length for b in d.blocks if b.is_cycle)
    seg_edge_count = sum(len(s.edges) for s in cat.segments)
    stats = SrcStats(
        len(d.block_of_edge), len(d.cut_edges), cat.counts[0], cycle_edge_count - seg_edge_count
    )
    total = stats.m + stats.cut_edges + stats.s1_count - stats.e_ant
    if total % 2:
        raise InvariantError(
            f"segment pairing parity violated: m + |E_cut| + |S1| - |E_ant| = {total}"
        )
    return stats, total // 2


def src_formula(d: Decomposition, cat: SegmentCatalog) -> int:
    """Evaluate the closed form for src(G) from the decomposition stats."""
    cls = _accepted(d)
    if cls.tag is GraphClass.ODD_CYCLE:
        length = cls.cycle_length
        return 1 if length == 3 else (length + 1) // 2
    return _src_stats(d, cat)[1]


def _branch_min_black(
    d: Decomposition, black_edges, ant_edges, opp_vertex
) -> dict[EdgeId, EdgeId]:
    """For each antipodal edge e, the lowest black edge id outside the branch
    of G - opp(e) that contains e.

    Runs in O(blocks + cut vertices) via subtree minima over the block-cut
    tree, so the coloring loop stays linear overall; equivalent to building
    each separation explicitly and taking min(e_black & g2_edges).
    """
    nblocks = len(d.blocks)
    cuts = sorted(d.cut_vertices)
    cut_node = {v: nblocks + i for i, v in enumerate(cuts)}
    total = nblocks + len(cuts)
    nbrs: list[list[int]] = [[] for _ in range(total)]
    for bidx, cs in enumerate(d.bct.block_cuts):
        for v in cs:
            cn = cut_node[v]
            nbrs[bidx].append(cn)
            nbrs[cn].append(bidx)

    value = [_UNSET] * total
    boe = d.block_of_edge
    for e in black_edges:
        bn = boe[e]
        if e < value[bn]:
            value[bn] = e

    parent = [-2] * total
    parent[0] = -1
    order = [0]
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in nbrs[x]:
            if parent[y] == -2:
                parent[y] = x
                order.append(y)
                queue.append(y)

    down = value[:]
    for x in reversed(order):
        px = parent[x]
        if px >= 0 and down[x] < down[px]:
            down[px] = down[x]

    children: list[list[int]] = [[] for _ in range(total)]
    for x in order[1:]:
        children[parent[x]].append(x)
    up = [_UNSET] * total
    for x in order:
        kids = children[x]
        if not kids:
            continue
        k = len(kids)
        pref = [_UNSET] * (k + 1)
        for i in range(k):
            pref[i + 1] = min(pref[i], down[kids[i]])
        suf = [_UNSET] * (k + 1)
        for i in range(k - 1, -1, -1):
            suf[i] = min(suf[i + 1], down[kids[i]])
        base = min(up[x], value[x])
        for i in range(k):
            up[kids[i]] = min(base, pref[i], suf[i + 1])

    out: dict[int, int] = {}
    for e in ant_edges:
        cn = cut_node[opp_vertex[e]]
        bn = boe[e]
        res = up[bn] if parent[bn] == cn else down[cn]
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

    Deterministic: cut edges and antipodal edges are processed in ascending
    edge id, segments in catalog order (cycles by block order, trail order
    within a cycle), and reused colors come from the lowest eligible edge id.
    """
    cls = _accepted(d)
    m = g.edge_count

    if cls.tag is GraphClass.ODD_CYCLE:
        length = cls.cycle_length
        block = d.blocks[0]
        if length == 3:
            return SrcResult(
                1, EdgeColoring(1, (1, 1, 1)), SrcStats(3, 0, 0, 0), SrcCase.TRIANGLE
            )
        period = (length + 1) // 2
        colors_list = [0] * m
        for i, e in enumerate(block.ordered_edges):
            # any (length - 1) / 2 consecutive edges get distinct colors
            colors_list[e] = (i % period) + 1
        return SrcResult(
            period,
            EdgeColoring(period, tuple(colors_list)),
            SrcStats(m, 0, 0, 0),
            SrcCase.ODD_CYCLE,
        )

    # a tree has no segments and no antipodal edges: its m cut edges get
    # the colors 1..m in edge-id order below
    colors_list = [0] * m
    counter = 0
    for e in sorted(d.cut_edges):
        counter += 1
        colors_list[e] = counter

    for seg in cat.of_class(SegmentClass.S1):
        opp_edge = a.opp_edge[seg.cycle]
        interior = seg.vertices  # one fewer than seg.edges
        for i, e in enumerate(seg.edges):
            counter += 1
            colors_list[e] = counter
            if i < len(interior):
                # mirror onto the antipodal edge in the paired S4 segment
                colors_list[opp_edge[interior[i]]] = counter

    for seg in cat.of_class(SegmentClass.S2):
        opp_edge = a.opp_edge[seg.cycle]
        for e, v in zip(seg.edges, seg.vertices):
            counter += 1
            colors_list[e] = counter
            colors_list[opp_edge[v]] = counter

    if a.e_ant:
        blacks: set[int] = set(d.cut_edges)
        for s in cat.segments:
            if s.klass in (SegmentClass.S1, SegmentClass.S2):
                blacks.update(s.edges)
        black_edges = sorted(blacks)
        ant_edges = sorted(a.e_ant)
        targets = _branch_min_black(d, black_edges, ant_edges, a.opp_vertex)
        for e in ant_edges:
            colors_list[e] = colors_list[targets[e]]

    if not all(c > 0 for c in colors_list):
        raise InvariantError("coloring is not total")
    stats, expected = _src_stats(d, cat)
    if counter != expected:
        raise InvariantError(f"color count {counter} disagrees with the closed form {expected}")
    case = SrcCase.TREE if cls.tag is GraphClass.TREE else SrcCase.FORMULA
    return SrcResult(counter, EdgeColoring(counter, tuple(colors_list)), stats, case)
