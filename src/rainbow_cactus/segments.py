"""Antipodal vertex-edge pairs and the cycle-segment decomposition.

In an odd cycle every edge has a unique antipodal vertex (equidistant from
both endpoints) and vice versa. Walking a cycle from a cut vertex and
splitting at cut vertices and antipodal-to-cut edges yields its segments,
classified S1..S4 by the kinds of the two boundary elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress

from .decomposition import Block, BlockKind, Decomposition, gc_paused
from .errors import EdgeNotInCycleError, NotOddCactusError, VertexNotInCycleError
from .graph import EdgeId, VertexId


class SegmentClass(Enum):
    S1 = "S1"  # bounded by (cut vertex, cut vertex)
    S2 = "S2"  # bounded by (cut vertex, antipodal edge)
    S3 = "S3"  # bounded by (antipodal edge, cut vertex)
    S4 = "S4"  # bounded by (antipodal edge, antipodal edge)


# a boundary at an even trail position is a cut vertex, at an odd one an
# antipodal edge; index (left parity << 1) | right parity
_CLASS_BY_PARITY = (SegmentClass.S1, SegmentClass.S2, SegmentClass.S3, SegmentClass.S4)


# trail elements are ("v", vertex id) or ("e", edge id)
Element = tuple[str, int]


@dataclass(frozen=True)
class CycleSegment:
    """Maximal run of non-boundary elements along a cycle's closed trail.

    `vertices` and `edges` keep trail order; the segment starts with an edge
    for S1/S2 (its left boundary is a cut vertex) and with a vertex for
    S3/S4, which fixes the alternating sequence exposed by `elements`.
    """

    cycle: int
    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]
    klass: SegmentClass

    @cached_property
    def vertex_set(self) -> frozenset[VertexId]:
        return frozenset(self.vertices)

    @cached_property
    def edge_set(self) -> frozenset[EdgeId]:
        return frozenset(self.edges)

    @property
    def elements(self) -> tuple[Element, ...]:
        ev = [("e", x) for x in self.edges]
        vv = [("v", x) for x in self.vertices]
        if self.klass in (SegmentClass.S1, SegmentClass.S2):
            first, second = ev, vv
        else:
            first, second = vv, ev
        out: list[Element] = []
        for i, el in enumerate(first):
            out.append(el)
            if i < len(second):
                out.append(second[i])
        return tuple(out)


@dataclass(frozen=True)
class SegmentCatalog:
    segments: tuple[CycleSegment, ...]
    counts: tuple[int, int, int, int]

    def of_class(self, klass: SegmentClass) -> tuple[CycleSegment, ...]:
        return tuple(s for s in self.segments if s.klass is klass)

    def for_cycle(self, block_index: int) -> tuple[CycleSegment, ...]:
        return tuple(s for s in self.segments if s.cycle == block_index)


@dataclass(frozen=True, eq=False)
class AntipodalIndex:
    """opp(e) for every cycle edge, opp(v, C) per cycle block, and E_ant."""

    opp_vertex: dict[EdgeId, VertexId]
    opp_edge: dict[int, dict[VertexId, EdgeId]]
    e_ant: frozenset[EdgeId]


def _require_odd_cycle(block: Block) -> None:
    if block.kind is not BlockKind.CYCLE or block.length % 2 == 0:
        raise NotOddCactusError(
            f"block {block.index} is not an odd cycle; antipodal pairs are undefined"
        )


def antipodal_vertex(block: Block, e: EdgeId) -> VertexId:
    """The unique vertex of the cycle equidistant from both endpoints of e."""
    _require_odd_cycle(block)
    try:
        i = block.ordered_edges.index(e)
    except ValueError:
        raise EdgeNotInCycleError(e) from None
    length = block.length
    return block.vertices[(i + (length + 1) // 2) % length]


def antipodal_edge(block: Block, v: VertexId) -> EdgeId:
    """Inverse of antipodal_vertex."""
    _require_odd_cycle(block)
    try:
        j = block.vertices.index(v)
    except ValueError:
        raise VertexNotInCycleError(v) from None
    length = block.length
    return block.ordered_edges[(j + (length - 1) // 2) % length]


@gc_paused()
def build_antipodal_index(d: Decomposition) -> AntipodalIndex:
    """Antipodal maps for every cycle block, by index arithmetic on the
    canonical cyclic order (O(1) per element)."""
    opp_v: dict[int, int] = {}
    opp_e: dict[int, dict[int, int]] = {}
    cycle_kind = BlockKind.CYCLE
    for block in d.blocks:
        if block.kind is not cycle_kind:
            continue
        verts = block.vertices
        oedges = block.ordered_edges
        length = len(verts)
        if length % 2 == 0:
            raise NotOddCactusError(f"block {block.index} is an even cycle")
        off_v = (length + 1) // 2
        off_e = (length - 1) // 2
        opp_v.update(zip(oedges, verts[off_v:] + verts[:off_v]))
        opp_e[block.index] = dict(zip(verts, oedges[off_e:] + oedges[:off_e]))
    e_ant = frozenset(compress(opp_v, map(d.cut_vertices.__contains__, opp_v.values())))
    return AntipodalIndex(opp_v, opp_e, e_ant)


def _cycle_segments(
    block: Block,
    cut_vertices: frozenset[int],
    start: VertexId | None = None,
    reverse: bool = False,
) -> list[CycleSegment]:
    """Segments of one cycle, walking the closed trail from `start` (a cut
    vertex of the cycle; defaults to the lowest-id one).

    Trail position 2q is the q-th vertex of the walk, position 2q+1 the edge
    after it. Boundary positions follow from the cycle's cut vertices alone:
    the antipodal-to-cut edges of a cycle are exactly the opp images of its
    cut vertices. Position 0 is the starting cut vertex, so no segment wraps.
    """
    verts = block.vertices
    oedges = block.ordered_edges
    length = len(verts)
    cut_idx = list(compress(range(length), map(cut_vertices.__contains__, verts)))
    if not cut_idx:
        return []
    if start is None:
        s = min(cut_idx, key=verts.__getitem__)
    else:
        s = verts.index(start)
    off_e = (length - 1) // 2

    # rotate once so trail position 2q is rv[q] and position 2q+1 is re_[q]
    if not reverse:
        rv = verts[s:] + verts[:s] if s else verts
        re_ = oedges[s:] + oedges[:s] if s else oedges
        bpos = [2 * ((i - s) % length) for i in cut_idx]
        bpos += [2 * ((i + off_e - s) % length) + 1 for i in cut_idx]
    else:
        rv = verts[s::-1] + verts[:s:-1]
        re_ = oedges[s - 1 :: -1] + oedges[: s - 1 : -1] if s else oedges[::-1]
        bpos = [2 * ((s - i) % length) for i in cut_idx]
        bpos += [2 * ((s - 1 - i - off_e) % length) + 1 for i in cut_idx]
    bpos.sort()

    # the segment after boundary b holds trail positions b+1 .. end-1, where
    # end is the next boundary (the trail's end after the last one); its
    # class is fixed by the parity of b and of the boundary that follows it
    ends = bpos[1:]
    succs = ends + bpos[:1]
    ends.append(2 * length)
    index = block.index
    return [
        CycleSegment(
            index,
            rv[(b + 2) >> 1 : (end + 1) >> 1],
            re_[(b + 1) >> 1 : end >> 1],
            _CLASS_BY_PARITY[(b & 1) << 1 | (succ & 1)],
        )
        for b, end, succ in zip(bpos, ends, succs)
        if end - b > 1
    ]


@gc_paused()
def enumerate_segments(d: Decomposition, a: AntipodalIndex, *, reverse: bool = False) -> SegmentCatalog:
    """All cycle segments, cycles in block order, trail order within a cycle.

    The trail starts at the lowest-id cut vertex of each cycle. `reverse=True`
    walks the opposite orientation; downstream quantities are invariant to the
    choice (S2 and S3 labels swap).
    """
    segments: list[CycleSegment] = []
    cuts = d.cut_vertices
    cycle_kind = BlockKind.CYCLE
    for block in d.blocks:
        if block.kind is cycle_kind:
            segments += _cycle_segments(block, cuts, reverse=reverse)
    klasses = [seg.klass for seg in segments]
    s1, s2, s3, s4 = _CLASS_BY_PARITY
    return SegmentCatalog(
        tuple(segments),
        (klasses.count(s1), klasses.count(s2), klasses.count(s3), klasses.count(s4)),
    )
