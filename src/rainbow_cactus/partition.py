"""Black-white partitions: canonical construction, validation, lower bound.

A black-white partition splits vertices and edges into black and white sets
subject to four structural properties; the number of black edges is a lower
bound on the strong rainbow connection number. The canonical construction
colors S1/S2 segments, cut vertices, leaves and cut edges black, and S3/S4
segments plus antipodal-to-cut edges white.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .decomposition import Decomposition
from .errors import InvalidPartitionError
from .graph import EdgeId, Graph
from .segments import AntipodalIndex, SegmentCatalog, SegmentClass

PROPERTY_NAMES = (
    "antipodal_parity",
    "black_edge_endpoints",
    "white_vertex_edges",
    "black_edges_one_side",
)


@dataclass(frozen=True)
class BlackWhitePartition:
    v_black: frozenset[int]
    v_white: frozenset[int]
    e_black: frozenset[int]
    e_white: frozenset[int]


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def graph_leaves(d: Decomposition) -> frozenset[int]:
    """Degree-1 vertices: non-cut endpoints of cut-edge blocks."""
    is_cut, edges = d.is_cut, d.graph_edges
    return frozenset(v for e in d.cut_edges for v in edges[e] if not is_cut[v])


def black_edges(d: Decomposition, cat: SegmentCatalog) -> list[EdgeId]:
    """The black edges of the canonical partition, in colour order.

    Cut edges in ascending id, then the edges of the S1 segments, then those
    of the S2 segments, each in catalog order. The one place the black edge
    set is built: the colouring gives the i-th edge colour i + 1, and the
    canonical partition takes its black edges from here.
    """
    s1, s2 = SegmentClass.S1, SegmentClass.S2
    out = sorted(d.cut_edges)
    s2_edges: list[EdgeId] = []
    for _, _, re_, spans in cat.walks:
        for klass, _, _, e0, e1 in spans:
            if klass is s1:
                out += re_[e0:e1]
            elif klass is s2:
                s2_edges += re_[e0:e1]
    out += s2_edges
    return out


def build_canonical_partition(d: Decomposition, cat: SegmentCatalog) -> BlackWhitePartition:
    """The canonical black-white partition from the catalog's walks: S1/S2
    segments are black, S3/S4 segments white.

    Valid for trees and for odd cacti in which every cycle carries a cut
    vertex (i.e. anything but a bare cycle).
    """
    s1, s2 = SegmentClass.S1, SegmentClass.S2
    v_black: set[int] = set(d.cut_vertices)
    v_white: set[int] = set()
    e_white: set[int] = set(cat.e_ant)  # the antipodal-to-cut edges
    for _, rv, re_, spans in cat.walks:
        for klass, v0, v1, e0, e1 in spans:
            if klass is s1 or klass is s2:
                v_black.update(rv[v0:v1])
            else:
                v_white.update(rv[v0:v1])
                e_white.update(re_[e0:e1])
    v_black |= graph_leaves(d)
    return BlackWhitePartition(
        frozenset(v_black), frozenset(v_white), frozenset(black_edges(d, cat)), frozenset(e_white)
    )


def _components_without(g: Graph, removed: int) -> list[int]:
    """Component id per vertex of G - removed; the removed vertex gets -1."""
    comp = [-1] * g.vertex_count
    cid = 0
    for s in range(g.vertex_count):
        if s == removed or comp[s] >= 0:
            continue
        comp[s] = cid
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for w, _ in g.adjacency[x]:
                if w != removed and comp[w] < 0:
                    comp[w] = cid
                    queue.append(w)
        cid += 1
    return comp


def validate_partition(
    g: Graph, d: Decomposition, a: AntipodalIndex, p: BlackWhitePartition
) -> ValidationReport:
    """Check the four defining properties against any candidate partition.

    Failures are report entries with a witness element; malformed input (sets
    that do not partition V and E) raises ValueError instead.
    """
    all_v = frozenset(range(g.vertex_count))
    all_e = frozenset(range(g.edge_count))
    if p.v_black | p.v_white != all_v or p.v_black & p.v_white:
        raise ValueError("vertex sets do not partition V(G)")
    if p.e_black | p.e_white != all_e or p.e_black & p.e_white:
        raise ValueError("edge sets do not partition E(G)")

    checks: list[PropertyCheck] = []

    # 1: a cycle edge is black iff its antipodal vertex is white, and vice versa
    witness = None
    for e in sorted(a.opp_vertex):
        w = a.opp_vertex[e]
        if (e in p.e_black) != (w in p.v_white) or (e in p.e_white) != (w in p.v_black):
            witness = (e, w)
            break
    checks.append(PropertyCheck(PROPERTY_NAMES[0], witness is None, witness))

    # 2: both endpoints of a black edge are black
    witness = None
    for e in sorted(p.e_black):
        u, v = g.edges[e]
        if u not in p.v_black or v not in p.v_black:
            witness = (e, u if u not in p.v_black else v)
            break
    checks.append(PropertyCheck(PROPERTY_NAMES[1], witness is None, witness))

    # 3: every edge incident to a white vertex is white
    witness = None
    for v in sorted(p.v_white):
        for _, eid in g.adjacency[v]:
            if eid not in p.e_white:
                witness = (v, eid)
                break
        if witness:
            break
    checks.append(PropertyCheck(PROPERTY_NAMES[2], witness is None, witness))

    # 4: for every white cut vertex, all black edges lie in one component of G - v
    witness = None
    for v in sorted(p.v_white & d.cut_vertices):
        comp = _components_without(g, v)
        target = None
        for e in sorted(p.e_black):
            x, y = g.edges[e]
            if x == v or y == v:
                witness = (v, e)
                break
            c = comp[x]
            if target is None:
                target = c
            elif c != target:
                witness = (v, e)
                break
        if witness:
            break
    checks.append(PropertyCheck(PROPERTY_NAMES[3], witness is None, witness))

    return ValidationReport(tuple(checks))


def lower_bound(p: BlackWhitePartition, report: ValidationReport | None = None) -> int:
    """|E_B|, a lower bound on src(G) for validated partitions."""
    if report is not None and not report.ok:
        first = report.failures()[0]
        raise InvalidPartitionError(first.name, first.witness)
    return len(p.e_black)
