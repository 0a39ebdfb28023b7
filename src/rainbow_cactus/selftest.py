"""Cross-module invariant suite over generated instances.

Each check encodes a structural claim the rest of the package relies on:
segment pairing, the partition identities, partition validity, the parity of
the closed form, agreement between the formula, the coloring and the brute
force, and independence from the traversal orientation. The CLI `selftest`
command and the acceptance tests both drive this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decomposition import (
    Decomposition,
    GraphClass,
    classify,
    decompose,
    leaf_blocks,
)
from .generator import GenSpec, generate
from .graph import Graph, all_shortest_paths, bfs_distances, unique_shortest_path
from .oracle import (
    assert_line18_choice,
    brute_force_search,
    check_distinct_black_colors,
    separate,
    verify_strong_rainbow,
)
from .partition import (
    BlackWhitePartition,
    build_canonical_partition,
    graph_leaves,
    lower_bound,
    validate_partition,
)
from .segments import (
    AntipodalIndex,
    SegmentCatalog,
    SegmentClass,
    _cycle_segments,
    antipodal_edge,
    antipodal_vertex,
    build_antipodal_index,
    enumerate_segments,
)
from .solver import (
    SrcResult,
    _branch_min_black,
    src_formula,
    strong_rainbow_coloring,
)

# vertex-count ceilings for the quadratic-and-worse checks
_FULL_CHECK_N = 64
_PATH_ENUM_N = 30
_PAIRWISE_BLACK_N = 14
_BRUTE_FORCE_M = 9


class InvariantViolation(Exception):
    def __init__(self, invariant: str, detail: str = ""):
        super().__init__(f"{invariant}: {detail}" if detail else invariant)
        self.invariant = invariant
        self.detail = detail


@dataclass(frozen=True)
class SelftestFailure:
    seed: int
    invariant: str
    detail: str


@dataclass(frozen=True)
class SelftestReport:
    instances: int
    failures: tuple[SelftestFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _require(cond: bool, invariant: str, detail: str = "") -> None:
    if not cond:
        raise InvariantViolation(invariant, detail)


def spec_for_seed(seed: int, max_vertices: int = 30) -> GenSpec:
    """Deterministic, varied generator spec for one selftest seed."""
    rng = random.Random(seed)
    menu = ((3,), (3, 5), (3, 5, 7), (5, 7), (3, 7, 9), (5,), (7, 9))
    lengths = menu[rng.randrange(len(menu))]
    cap = max(2, max_vertices - max(lengths) + 1)
    target = rng.randint(2, cap)
    pendant = round(rng.random(), 3)
    return GenSpec(seed=seed, target_vertices=target,
                   cycle_lengths=lengths, pendant_probability=pendant)


def check_graph_core(g: Graph) -> None:
    counts = [0] * g.edge_count
    for vlist in g.adjacency:
        for _, eid in vlist:
            counts[eid] += 1
    _require(all(c == 2 for c in counts), "edge_in_two_adjacency_lists")
    if g.vertex_count <= _PATH_ENUM_N:
        for u in range(g.vertex_count):
            dist = bfs_distances(g, u)
            for v in range(u + 1, g.vertex_count):
                path = unique_shortest_path(g, u, v, checked=True)
                _require(
                    path.length == dist[v],
                    "unique_path_length_matches_bfs",
                    f"pair ({u},{v})",
                )


def check_geodetic(g: Graph) -> None:
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            paths = all_shortest_paths(g, u, v)
            _require(len(paths) == 1, "geodetic_unique_path", f"pair ({u},{v}) has {len(paths)}")


def check_decomposition(g: Graph, d: Decomposition, cls_tag: GraphClass) -> None:
    m = g.edge_count
    _require(sum(b.length for b in d.blocks) == m, "blocks_partition_edges")
    _require(all(i >= 0 for i in d.block_of_edge), "every_edge_in_a_block")
    for b in d.blocks:
        if not b.is_cycle:
            continue
        length = b.length
        _require(len(b.vertices) == length, "cycle_block_vertex_count")
        for i in range(length):
            u, v = b.vertices[i], b.vertices[(i + 1) % length]
            eid = b.ordered_edges[i]
            _require(
                set(g.edges[eid]) == {u, v}, "cycle_order_adjacent", f"block {b.index} pos {i}"
            )
        if cls_tag is GraphClass.GENERAL_ODD_CACTUS:
            _require(
                any(v in d.cut_vertices for v in b.vertices),
                "cycle_contains_cut_vertex",
                f"block {b.index}",
            )
    _require(
        d.cut_edges == frozenset(next(iter(b.edges)) for b in d.blocks if b.length == 1),
        "cut_edges_are_single_edge_blocks",
    )
    bct = d.bct
    _require(bct.node_count == len(d.blocks) + len(d.cut_vertices), "bct_node_count")
    expected_edges = sum(
        sum(1 for v in b.vertices if v in d.cut_vertices) for b in d.blocks
    )
    _require(bct.edge_count == expected_edges, "bct_edge_count")
    if bct.node_count > 0:
        # connected + |E| = |V| - 1 makes the block-cut structure a tree
        _require(bct.edge_count == bct.node_count - 1, "bct_is_tree")
    _require(
        all(len(bs) >= 2 for bs in bct.cut_blocks.values()), "cut_vertex_degree_two"
    )


def check_antipodal(g: Graph, d: Decomposition, a: AntipodalIndex) -> None:
    for b in d.blocks:
        if not b.is_cycle:
            continue
        for eid in b.ordered_edges:
            w = a.opp_vertex[eid]
            _require(antipodal_vertex(b, eid) == w, "antipodal_index_matches_query")
            _require(antipodal_edge(b, w) == eid, "antipodal_round_trip")
            if g.vertex_count <= _FULL_CHECK_N:
                u, v = g.edges[eid]
                dist = bfs_distances(g, w)
                _require(dist[u] == dist[v], "antipodal_equidistant", f"edge {eid}")
    expected = frozenset(e for e, w in a.opp_vertex.items() if w in d.cut_vertices)
    _require(a.e_ant == expected, "e_ant_definition")


def check_partition_identities(
    g: Graph, d: Decomposition, a: AntipodalIndex, cat: SegmentCatalog
) -> None:
    seg_edges: set[int] = set()
    seg_vertices: set[int] = set()
    for b in d.blocks:
        if not b.is_cycle:
            continue
        segs = cat.for_cycle(b.index)
        vsets = [s.vertex_set for s in segs]
        esets = [s.edge_set for s in segs]
        vtotal = sum(len(s) for s in vsets)
        etotal = sum(len(s) for s in esets)
        vunion: set[int] = set().union(*vsets) if vsets else set()
        eunion: set[int] = set().union(*esets) if esets else set()
        _require(len(vunion) == vtotal and len(eunion) == etotal, "segments_disjoint")
        cuts_in = set(b.vertices) & d.cut_vertices
        _require(
            vunion | cuts_in == set(b.vertices) and not vunion & cuts_in,
            "cycle_vertices_partitioned",
            f"block {b.index}",
        )
        ant_in = a.e_ant & b.edges
        _require(
            eunion | ant_in == set(b.edges) and not eunion & ant_in,
            "cycle_edges_partitioned",
            f"block {b.index}",
        )
        seg_edges |= eunion
        seg_vertices |= vunion
    all_edges = set(range(g.edge_count))
    _require(
        seg_edges | a.e_ant | d.cut_edges == all_edges
        and not seg_edges & a.e_ant
        and not seg_edges & d.cut_edges
        and not a.e_ant & d.cut_edges,
        "global_edge_partition",
    )
    leaves = graph_leaves(d)
    all_vertices = set(range(g.vertex_count))
    _require(
        seg_vertices | d.cut_vertices | leaves == all_vertices
        and not seg_vertices & d.cut_vertices
        and not seg_vertices & leaves
        and not d.cut_vertices & leaves,
        "global_vertex_partition",
    )


def _antipodal_image(seg, a: AntipodalIndex):
    opp_edge = a.opp_edge[seg.cycle]
    out = []
    for kind, x in seg.elements:
        if kind == "v":
            out.append(("e", opp_edge[x]))
        else:
            out.append(("v", a.opp_vertex[x]))
    return tuple(out)


_PAIRED = {
    SegmentClass.S1: SegmentClass.S4,
    SegmentClass.S2: SegmentClass.S3,
    SegmentClass.S3: SegmentClass.S2,
    SegmentClass.S4: SegmentClass.S1,
}


def check_segment_pairing(d: Decomposition, a: AntipodalIndex, cat: SegmentCatalog) -> None:
    for b in d.blocks:
        if not b.is_cycle:
            continue
        segs = cat.for_cycle(b.index)
        by_class = {k: [s for s in segs if s.klass is k] for k in SegmentClass}
        _require(
            len(by_class[SegmentClass.S1]) == len(by_class[SegmentClass.S4]),
            "s1_s4_counts_match",
            f"block {b.index}",
        )
        _require(
            len(by_class[SegmentClass.S2]) == len(by_class[SegmentClass.S3]),
            "s2_s3_counts_match",
            f"block {b.index}",
        )
        by_elements = {s.elements: s for s in segs}
        for s in segs:
            image_elems = _antipodal_image(s, a)
            partner = by_elements.get(image_elems) or by_elements.get(image_elems[::-1])
            _require(partner is not None, "antipodal_image_is_segment", f"block {b.index}")
            _require(
                partner.klass is _PAIRED[s.klass],
                "antipodal_image_class",
                f"block {b.index}: {s.klass.value} -> {partner.klass.value}",
            )
            if s.klass is SegmentClass.S1:
                _require(
                    len(s.edge_set) == len(partner.edge_set) + 1,
                    "s1_one_more_edge_than_s4",
                )
            if s.klass is SegmentClass.S2:
                _require(
                    len(s.edge_set) == len(partner.edge_set),
                    "s2_s3_equal_edges",
                )


def _black_edge_count(cat: SegmentCatalog, d: Decomposition) -> int:
    return len(d.cut_edges) + sum(
        len(s.edge_set)
        for s in cat.segments
        if s.klass in (SegmentClass.S1, SegmentClass.S2)
    )


def check_orientation_invariance(
    d: Decomposition, a: AntipodalIndex, cat: SegmentCatalog, src: int
) -> None:
    rev = enumerate_segments(d, a, reverse=True)
    swap = {
        SegmentClass.S1: SegmentClass.S1,
        SegmentClass.S2: SegmentClass.S3,
        SegmentClass.S3: SegmentClass.S2,
        SegmentClass.S4: SegmentClass.S4,
    }
    fwd_multi = sorted(
        (s.cycle, sorted(s.vertex_set), sorted(s.edge_set), s.klass.value)
        for s in cat.segments
    )
    rev_multi = sorted(
        (s.cycle, sorted(s.vertex_set), sorted(s.edge_set), swap[s.klass].value)
        for s in rev.segments
    )
    _require(fwd_multi == rev_multi, "reversal_swaps_s2_s3_only")
    _require(
        cat.counts[0] + cat.counts[3] == rev.counts[0] + rev.counts[3],
        "s1_plus_s4_invariant",
    )
    _require(
        cat.counts[1] + cat.counts[2] == rev.counts[1] + rev.counts[2],
        "s2_plus_s3_invariant",
    )
    _require(
        _black_edge_count(cat, d) == _black_edge_count(rev, d),
        "black_count_orientation_invariant",
    )
    _require(src_formula(d, rev) == src, "src_orientation_invariant")
    # a different starting cut vertex must give the same segments outright
    for b in d.blocks:
        if not b.is_cycle:
            continue
        cycle_cuts = [v for v in b.vertices if v in d.cut_vertices]
        if len(cycle_cuts) < 2:
            continue
        base = {s.elements for s in cat.for_cycle(b.index)}
        alt = _cycle_segments(b, d.cut_vertices, start=max(cycle_cuts))
        _require(
            {s.elements for s in alt} == base,
            "start_vertex_invariant",
            f"block {b.index}",
        )


def check_leaf_blocks_black(d: Decomposition, p: BlackWhitePartition) -> None:
    for b in leaf_blocks(d):
        _require(bool(b.edges & p.e_black), "leaf_block_has_black_edge", f"block {b.index}")


def check_edge_antipode_exclusion(g: Graph, a: AntipodalIndex) -> None:
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            path = unique_shortest_path(g, u, v)
            on_path = set(path.vertices)
            for e in path.edges:
                w = a.opp_vertex.get(e)
                _require(
                    w is None or w not in on_path,
                    "no_path_contains_edge_and_antipode",
                    f"pair ({u},{v}) edge {e}",
                )


def check_line18_equivalence(
    g: Graph,
    d: Decomposition,
    a: AntipodalIndex,
    cat: SegmentCatalog,
    p: BlackWhitePartition,
) -> None:
    ant_edges = sorted(a.e_ant)
    fast = _branch_min_black(d, sorted(p.e_black), ant_edges, a.opp_vertex)
    all_edges = frozenset(range(g.edge_count))
    for e in ant_edges:
        sep = separate(g, d, a, e)
        _require(
            sep.g1_edges | sep.g2_edges == all_edges and not sep.g1_edges & sep.g2_edges,
            "separation_partitions_edges",
        )
        _require(sep.pivot_edge in sep.g1_edges, "pivot_edge_in_g1")
        v1 = {x for eid in sep.g1_edges for x in g.edges[eid]}
        v2 = {x for eid in sep.g2_edges for x in g.edges[eid]}
        _require(v1 & v2 == {sep.pivot_vertex}, "sides_share_only_pivot")
        _require(
            assert_line18_choice(sep, p) == fast[e],
            "fast_choice_matches_separation",
            f"edge {e}",
        )


def check_black_pairs_forced(g: Graph, p: BlackWhitePartition) -> None:
    """Every pair of black edges lies on some unique shortest path together."""
    path_sets = []
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            path_sets.append(frozenset(unique_shortest_path(g, u, v).edges))
    blacks = sorted(p.e_black)
    for i, b1 in enumerate(blacks):
        for b2 in blacks[i + 1 :]:
            _require(
                any(b1 in s and b2 in s for s in path_sets),
                "black_pair_shares_shortest_path",
                f"edges {b1},{b2}",
            )


def check_instance(g: Graph) -> SrcResult:
    """Run every applicable invariant check on one graph; returns the result."""
    check_graph_core(g)
    d = decompose(g)
    cls = classify(g, d)
    _require(cls.accepted, "generated_graph_accepted", str(cls.reason))
    check_decomposition(g, d, cls.tag)
    a = build_antipodal_index(d)
    check_antipodal(g, d, a)
    cat = enumerate_segments(d, a)
    if cls.tag is GraphClass.GENERAL_ODD_CACTUS:
        check_partition_identities(g, d, a, cat)
        check_segment_pairing(d, a, cat)

    k = src_formula(d, cat)
    res = strong_rainbow_coloring(g, d, a, cat)
    _require(res.src == k, "formula_matches_algorithm", f"{k} vs {res.src}")
    _require(
        res.coloring.k == k and set(res.coloring.color) == set(range(1, k + 1)),
        "coloring_uses_exactly_k_colors",
    )
    again = strong_rainbow_coloring(g, d, a, cat)
    _require(again.coloring == res.coloring, "coloring_deterministic")

    part = None
    if cls.tag is not GraphClass.ODD_CYCLE:
        part = build_canonical_partition(d, cat)
        report = validate_partition(g, d, a, part)
        _require(
            report.ok,
            "canonical_partition_valid",
            "; ".join(f"{c.name}={c.witness}" for c in report.failures()),
        )
        _require(lower_bound(part, report) == k, "black_count_equals_src")
        check_leaf_blocks_black(d, part)
        if cls.tag is GraphClass.GENERAL_ODD_CACTUS:
            check_orientation_invariance(d, a, cat, k)

    outcome = verify_strong_rainbow(g, res.coloring, geodetic_hint=True)
    _require(outcome.ok, "coloring_verifies", repr(outcome.witness))

    n = g.vertex_count
    if n <= _PATH_ENUM_N:
        check_geodetic(g)
        check_edge_antipode_exclusion(g, a)
    if part is not None and a.e_ant and n <= _PATH_ENUM_N:
        check_line18_equivalence(g, d, a, cat, part)
    if n <= _PAIRWISE_BLACK_N:
        slow = verify_strong_rainbow(g, res.coloring, geodetic_hint=False)
        _require(slow.ok == outcome.ok, "verify_modes_agree")
        if part is not None:
            check_black_pairs_forced(g, part)
    if g.edge_count <= _BRUTE_FORCE_M:
        bf = brute_force_search(g)
        _require(bf.src == k, "brute_force_agrees", f"{bf.src} vs {k}")
        if part is not None:
            _require(
                check_distinct_black_colors(g, part, bf.coloring),
                "oracle_coloring_black_distinct",
            )
            _require(
                check_distinct_black_colors(g, part, res.coloring),
                "algorithm_coloring_black_distinct",
            )
    return res


def run_selftest(seeds: int = 200, max_n: int = 30) -> SelftestReport:
    """Generate `seeds` instances and stop at the first invariant violation."""
    failures: list[SelftestFailure] = []
    for seed in range(seeds):
        spec = spec_for_seed(seed, max_n)
        g = generate(spec)
        again = generate(spec)
        if again.edges != g.edges or again.labels != g.labels:
            failures.append(SelftestFailure(seed, "generator_deterministic", ""))
            break
        try:
            check_instance(g)
        except InvariantViolation as exc:
            failures.append(SelftestFailure(seed, exc.invariant, exc.detail))
            break
    return SelftestReport(seeds, tuple(failures))
