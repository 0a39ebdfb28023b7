"""Antipodal vertex-edge pairs and the cycle-segment decomposition.

In an odd cycle every edge has a unique antipodal vertex (equidistant from
both endpoints) and vice versa. Walking a cycle from a cut vertex and
splitting at cut vertices and antipodal-to-cut edges yields its segments,
classified S1..S4 by the kinds of the two boundary elements. The catalog
keeps each cycle's walk with its segments as index ranges, which `_spans`
alone derives from trail positions; `trails` lists them element by element.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import compress

from .decomposition import Decomposition, require_odd_cactus
from .graph import EdgeId, VertexId, gc_paused


class SegmentClass(Enum):
    S1 = "S1"  # bounded by (cut vertex, cut vertex)
    S2 = "S2"  # bounded by (cut vertex, antipodal edge)
    S3 = "S3"  # bounded by (antipodal edge, cut vertex)
    S4 = "S4"  # bounded by (antipodal edge, antipodal edge)


# S1..S4, indexed (left parity << 1) | right parity: a boundary at an even
# trail position is a cut vertex, at an odd one an antipodal edge
_CLASSES = tuple(SegmentClass)


# trail elements are ("v", vertex id) or ("e", edge id)
Element = tuple[str, int]


# one segment of a walk (rv, re_): (class, v0, v1, e0, e1) for its vertices
# rv[v0:v1] and edges re_[e0:e1]. After a cut vertex (S1, S2) it starts with
# an edge and e0 = v0 - 1, after an antipodal edge (S3, S4) with a vertex
# and e0 = v0
Span = tuple[SegmentClass, int, int, int, int]


# one cycle's walk: its block index, its vertices and edges read from a cut
# vertex (against the canonical direction if reversed), and its segments in
# trail order
Walk = tuple[int, tuple[VertexId, ...], tuple[EdgeId, ...], tuple[Span, ...]]


@dataclass(frozen=True, eq=False)
class SegmentCatalog:
    """The S1..S4 counts of the cycle segments, E_ant as the antipodal index
    derived it (the cycle edges that no segment holds), and, built on first
    read, each cycle's walk with its segments' index ranges.
    """

    decomposition: Decomposition
    counts: tuple[int, int, int, int]
    e_ant: frozenset[EdgeId] = frozenset()
    reverse: bool = False

    @cached_property
    @gc_paused
    def walks(self) -> tuple[Walk, ...]:
        """Cycles in block order, each walked from its lowest-id cut vertex."""
        d, reverse = self.decomposition, self.reverse
        cv, ce, starts, flags = d.cycle_vertices, d.cycle_edges, d.cycle_start, d.cycle_cut
        out: list[Walk] = []
        for b, lo, hi in zip(d.cycle_block, starts, starts[1:]):
            pattern = flags[lo:hi]
            if 1 not in pattern:
                continue  # a bare cycle has no segments
            verts = cv[lo:hi]
            s = verts.index(min(compress(verts, pattern)))
            out.append(_walk(b, verts, ce[lo:hi], pattern, s, reverse))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class AntipodalIndex:
    """E_ant with the cut vertex opposite each of its edges, and opp(e) for
    every cycle edge, built on first read.

    The one place E_ant is derived; `enumerate_segments` hands it on to the
    segment catalog.
    """

    decomposition: Decomposition
    pivot: dict[EdgeId, VertexId]  # E_ant edge -> the cut vertex opposite it
    e_ant: frozenset[EdgeId]

    @cached_property
    def opp_vertex(self) -> dict[EdgeId, VertexId]:
        opp_v: dict[int, int] = {}
        for _, verts, oedges in self.decomposition.cycles():
            off_v = (len(verts) + 1) // 2
            opp_v.update(zip(oedges, verts[off_v:] + verts[:off_v]))
        return opp_v


def build_antipodal_index(d: Decomposition) -> AntipodalIndex:
    """E_ant by index arithmetic on the canonical cyclic order: the cut
    vertex at position q of a cycle of length L is opposite the edge at
    position (q + (L - 1) / 2) mod L.

    Raises NotOddCactusError unless the graph is an odd cactus.
    """
    require_odd_cactus(d)
    cv, ce, starts = d.cycle_vertices, d.cycle_edges, d.cycle_start
    # per position of the flat cycle arrays, the position of the edge
    # opposite its vertex
    opp: list[int] = []
    for s, t in zip(starts, starts[1:]):
        h = s + (t - s - 1) // 2
        opp += range(h, t)
        opp += range(s, h)
    cut_pos = list(compress(range(len(cv)), d.cycle_cut))
    pivot = dict(zip(map(ce.__getitem__, map(opp.__getitem__, cut_pos)), map(cv.__getitem__, cut_pos)))
    return AntipodalIndex(d, pivot, frozenset(pivot))


def _turn(seq: tuple[int, ...], s: int, reverse: bool) -> tuple[int, ...]:
    """`seq` read cyclically from position s, backwards if `reverse`.

    Backwards, the edge after vertex s is the one before it in canonical
    order, so a cycle's edges are turned from s - 1.
    """
    return seq[s::-1] + seq[:s:-1] if reverse else seq[s:] + seq[:s]


def _walk(b: int, verts, edges, pattern: bytes, s: int, reverse: bool) -> Walk:
    """Cycle block b's walk from the cut vertex at canonical position s."""
    rv, re_ = _turn(verts, s, reverse), _turn(edges, s - 1 if reverse else s, reverse)
    return b, rv, re_, _spans(pattern, s, reverse)


# cycles of equal cut pattern and start share their segments, within a
# graph and across the many small graphs of a batch; bounded, as each entry
# holds its cycle's pattern
@lru_cache(maxsize=1 << 12)
def _spans(pattern: bytes, s: int, reverse: bool) -> tuple[Span, ...]:
    """The segments of a cycle whose position i holds a cut vertex iff
    `pattern[i]`, on its closed trail from the cut vertex at position s, in
    trail order. The one place that reads trail positions.

    Trail position 2q is the q-th vertex of the walk, position 2q+1 the edge
    after it; in either direction the antipodal edge of walk vertex q is walk
    edge (q + (length - 1) / 2) mod length. Boundary positions follow from
    the cycle's cut vertices alone: the antipodal-to-cut edges of a cycle are
    exactly the opp images of its cut vertices. They are placed here by
    position, apart from the antipodal index; the closed form's parity check
    compares the two. Position 0 is the starting cut vertex, so no segment
    wraps: the last boundary, 2 * length, is that cut vertex again.

    The segment between boundaries x and y holds the trail positions
    x+1 .. y-1, and its class is fixed by the parity of x and of y.
    """
    length = len(pattern)
    off_e = (length - 1) // 2
    sign = -1 if reverse else 1
    qs = [sign * (i - s) % length for i in compress(range(length), pattern)]
    bpos = [2 * q for q in qs] + [2 * ((q + off_e) % length) + 1 for q in qs]
    bpos.sort()
    bpos.append(2 * length)
    return tuple(
        (_CLASSES[(x & 1) << 1 | (y & 1)], (x + 2) >> 1, (y + 1) >> 1, (x + 1) >> 1, y >> 1)
        for x, y in zip(bpos, bpos[1:])
        if y - x > 1
    )


def trails(walk: Walk) -> Iterator[tuple[SegmentClass, tuple[Element, ...]]]:
    """Each segment of one walk in trail order, with its class, as the
    alternating run of its vertices and edges."""
    _, rv, re_, spans = walk
    for klass, v0, v1, e0, e1 in spans:
        verts: list[Element] = [("v", v) for v in rv[v0:v1]]
        edges: list[Element] = [("e", e) for e in re_[e0:e1]]
        first, second = (edges, verts) if e0 < v0 else (verts, edges)
        run = first + second
        run[::2], run[1::2] = first, second
        yield klass, tuple(run)


def enumerate_segments(d: Decomposition, a: AntipodalIndex, *, reverse: bool = False) -> SegmentCatalog:
    """All cycle segments, cycles in block order, trail order within a cycle.

    The trail starts at the lowest-id cut vertex of each cycle. `reverse=True`
    walks the opposite orientation; downstream quantities are invariant to the
    choice (S2 and S3 labels swap). The catalog carries `a.e_ant`.

    The counts are taken here from the cut patterns alone. A cycle's
    segment classes depend only on which of its positions hold a cut vertex,
    not on the walk's start, so each distinct pattern is placed once.
    """
    starts = d.cycle_start
    patterns = Counter(map(d.cycle_cut.__getitem__, map(slice, starts, starts[1:])))
    counts = [0, 0, 0, 0]
    for pattern, times in patterns.items():
        if 1 not in pattern:
            continue  # a bare cycle has no segments
        for span in _spans(pattern, pattern.index(1), reverse):
            counts[_CLASSES.index(span[0])] += times
    return SegmentCatalog(d, tuple(counts), a.e_ant, reverse)
