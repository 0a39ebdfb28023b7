"""Strong rainbow connection number and an optimal coloring for odd cacti.

The closed form is src(G) = (m + |E_cut| + |S1| - |E_ant|) / 2 for odd cacti
that are not cycles, with cycle and tree cases handled directly. The coloring
gives every cut edge and every S1/S2 segment edge a fresh color, mirrors those
colors onto the antipodal S4/S3 edges, and colors each antipodal-to-cut edge
by reusing the color of an eligible edge on the far side of its pivot cut
vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .decomposition import BlockKind, Decomposition, GraphClass, classify
from .errors import InvariantError, NotAntipodalEdgeError, NotOddCactusError
from .graph import EdgeId, Graph, VertexId
from .partition import BlackWhitePartition
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
class Separation:
    """Split of the graph at pivot_vertex = opp(pivot_edge): g1 holds the
    pivot edge's side, g2 the rest; both sides share only the pivot vertex."""

    pivot_edge: EdgeId
    pivot_vertex: VertexId
    g1_edges: frozenset[EdgeId]
    g2_edges: frozenset[EdgeId]


@dataclass(frozen=True)
class SrcResult:
    src: int
    coloring: EdgeColoring
    stats: SrcStats
    case: SrcCase


def _reject_non_odd_cactus(d: Decomposition) -> None:
    for b in d.blocks:
        if b.kind is BlockKind.OTHER:
            raise NotOddCactusError(f"block {b.index} is 2-connected but not a cycle")
        if b.is_cycle and b.length % 2 == 0:
            raise NotOddCactusError(f"block {b.index} is an even cycle")


def _e_ant_count(d: Decomposition, cat: SegmentCatalog) -> int:
    cycle_edge_count = sum(b.length for b in d.blocks if b.is_cycle)
    seg_edge_count = sum(len(s.edges) for s in cat.segments)
    return cycle_edge_count - seg_edge_count


def src_formula(d: Decomposition, cat: SegmentCatalog) -> int:
    """Evaluate the closed form for src(G) from the decomposition stats."""
    _reject_non_odd_cactus(d)
    if len(d.blocks) == 1 and d.blocks[0].is_cycle:
        length = d.blocks[0].length
        return 1 if length == 3 else (length + 1) // 2
    m = len(d.block_of_edge)
    ecut = len(d.cut_edges)
    s1 = cat.counts[0]
    eant = _e_ant_count(d, cat)
    total = m + ecut + s1 - eant
    if total % 2:
        raise InvariantError(
            f"segment pairing parity violated: m + |E_cut| + |S1| - |E_ant| = {total}"
        )
    return total // 2


def separate(g: Graph, d: Decomposition, a: AntipodalIndex, e: EdgeId) -> Separation:
    """Separation of the graph with respect to (e, opp(e)); e must be in E_ant."""
    if e not in a.e_ant:
        raise NotAntipodalEdgeError(e)
    w = a.opp_vertex[e]
    seen = bytearray(g.vertex_count)
    seen[w] = 1  # never cross the pivot
    src = g.edges[e][0]
    seen[src] = 1
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y, _ in g.adjacency[x]:
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    seen[w] = 0
    g1 = frozenset(eid for eid, (x, y) in enumerate(g.edges) if seen[x] or seen[y])
    g2 = frozenset(range(g.edge_count)) - g1
    return Separation(e, w, g1, g2)


def assert_line18_choice(sep: Separation, p: BlackWhitePartition) -> EdgeId:
    """Deterministic eligible-edge choice on the far side of a separation:
    the lowest-id black edge in g2 (one always exists on valid inputs)."""
    eligible = p.e_black & sep.g2_edges
    if not eligible:
        raise InvariantError(
            f"internal invariant violated: no black edge beyond pivot of edge {sep.pivot_edge}"
        )
    return min(eligible)


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
    cls = classify(g, d)
    if not cls.accepted:
        raise NotOddCactusError(f"input rejected: {cls.reason.value}")
    m = g.edge_count

    if cls.tag is GraphClass.TREE:
        colors = tuple(range(1, m + 1))
        return SrcResult(m, EdgeColoring(m, colors), SrcStats(m, m, 0, 0), SrcCase.TREE)

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
    ecut = len(d.cut_edges)
    s1 = cat.counts[0]
    eant = len(a.e_ant)
    expected = (m + ecut + s1 - eant) // 2
    if counter != expected:
        raise InvariantError(f"color count {counter} disagrees with the closed form {expected}")
    return SrcResult(
        counter,
        EdgeColoring(counter, tuple(colors_list)),
        SrcStats(m, ecut, s1, eant),
        SrcCase.FORMULA,
    )
