"""Cross-module invariant suite over generated instances.

Each check encodes a structural claim the rest of the package relies on:
the blocks, block tree and antipodal map of `decompose` and the antipodal
index against the verifier's odd-cactus recogniser, which accepts what
`decompose` does; one shortest path per pair; the cycle segments, read once
per orientation (their counts and E_ant against the solver's, the partition
identities, their pairing under opp, independence from the traversal
orientation and start); partition validity, the parity of the closed form,
agreement between the formula, the coloring and the brute force, and between
the verifier's all-pairs check and its per-pair walks. A claim that other
checks imply is not checked again, such as E_ant's definition or a cycle's
equal S1 and S4 counts. The CLI `selftest` command and the acceptance tests
both drive this module.

The checks of the solver's internals against explicit constructions live
here, not in the oracle, which imports only the graph layer: the separation
at an antipodal-to-cut edge (`separate`) and the black edges' colors.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, groupby
from operator import itemgetter

from .decomposition import Decomposition, GraphClass, decompose, leaf_blocks
from .errors import InvalidSpecError, InvariantError, NotAntipodalEdgeError
from .generator import GenSpec, generate
from .graph import EdgeColoring, EdgeId, Graph, VertexId, _bfs_dist, _geodesics, build_graph, gc_paused
from .oracle import (
    VerificationOutcome,
    _by_source,
    _cactus_walks,
    _odd_cactus,
    _OddCactus,
    _total_colors,
    brute_force_search,
    verify_pairs,
    verify_strong_rainbow,
)
from .partition import (
    BlackWhitePartition,
    _components_without,
    build_canonical_partition,
    graph_leaves,
    lower_bound,
    validate_partition,
)
from .segments import (
    AntipodalIndex,
    SegmentCatalog,
    SegmentClass,
    _walk,
    build_antipodal_index,
    enumerate_segments,
)
from .solver import SrcResult, _branch_min_black, src_formula, strong_rainbow_coloring

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


_LENGTH_MENU = ((3,), (3, 5), (3, 5, 7), (5, 7), (3, 7, 9), (5,), (7, 9))

# the smallest vertex bound that every spec keeps. The generator stops once
# it reaches its target, after at most one cycle too many, so a graph has at
# most target + L - 2 vertices for the longest length L; the target is capped
# at max_vertices - L + 1, but never below 2, which alone allows L vertices
MIN_MAX_N = max(max(lengths) for lengths in _LENGTH_MENU)


def spec_for_seed(seed: int, max_vertices: int = 30) -> GenSpec:
    """Deterministic, varied generator spec for one selftest seed.

    The graph has at most `max_vertices` vertices if that is at least
    MIN_MAX_N.
    """
    rng = random.Random(seed)
    lengths = _LENGTH_MENU[rng.randrange(len(_LENGTH_MENU))]
    cap = max(2, max_vertices - max(lengths) + 1)
    target = rng.randint(2, cap)
    pendant = round(rng.random(), 3)
    return GenSpec(seed=seed, target_vertices=target,
                   cycle_lengths=lengths, pendant_probability=pendant)


def check_graph_core(g: Graph) -> None:
    """Each edge sits in the rows of two vertices, and the graph's kept tree
    is a BFS tree from vertex 0: vertex 0 is its own parent, any other
    vertex's parent is one step nearer vertex 0 through an edge that joins
    the two, and the visit order lists every vertex once, by nondecreasing
    depth."""
    counts = [0] * g.edge_count
    for vlist in g.adjacency:
        for _, eid in vlist:
            counts[eid] += 1
    _require(all(c == 2 for c in counts), "edge_in_two_adjacency_lists")
    n = g.vertex_count
    dist = _bfs_dist(g, 0)
    par_v, par_e, order = g.tree
    _require(
        par_v[0] == 0
        and all(dist[par_v[x]] == dist[x] - 1 and set(g.edges[par_e[x]]) == {x, par_v[x]} for x in range(1, n))
        and sorted(order) == list(range(n))
        and all(dist[x] <= dist[y] for x, y in zip(order, order[1:])),
        "kept_tree_is_bfs_tree",
    )


def check_shortest_paths(g: Graph, p: BlackWhitePartition | None = None) -> None:
    """Each pair's shortest path, read once from one BFS per source: it is
    the only one and as long as the BFS distance. With `p` and n at most
    _PAIRWISE_BLACK_N, every two black edges lie on one of them together."""
    n = g.vertex_count
    blacks = sorted(p.e_black) if p is not None and n <= _PAIRWISE_BLACK_N else []
    path_sets = []
    for u in range(n):
        du = _bfs_dist(g, u)
        for v in range(u + 1, n):
            paths = _geodesics(g, du, u, v)
            path = next(paths)
            _require(
                next(paths, None) is None, "geodetic_unique_path", f"pair ({u},{v}) has several"
            )
            _require(path.length == du[v], "unique_path_length_matches_bfs", f"pair ({u},{v})")
            if blacks:
                path_sets.append(frozenset(path.edges))
    for i, b1 in enumerate(blacks):
        for b2 in blacks[i + 1 :]:
            _require(
                any(b1 in s and b2 in s for s in path_sets),
                "black_pair_shares_shortest_path",
                f"edges {b1},{b2}",
            )


def check_blocks(g: Graph, d: Decomposition, a: AntipodalIndex, cactus: _OddCactus) -> None:
    """`decompose` and the antipodal index against the verifier's odd-cactus
    recogniser, in O(n + m): the same blocks one to one, the cut edges as its
    single-edge blocks and the cut vertices as the vertices on two or more of
    them; each block's top and parent; each cycle in its order, either way
    round from its top; and opp(e) as `_OddCactus.layout` places it."""
    boe, top, parent, opp = d.block_of_edge, d.block_top, d.block_parent, a.opp_vertex
    # recogniser block r is block to_d[r] of `decompose`
    to_d = [boe[es[0]] for es in cactus.edges]
    on = Counter(chain.from_iterable(cactus.verts))
    cycles = {b: (vs, es) for b, vs, es in d.cycles()}
    _require(
        len(to_d) == len(d.block_kind) and set(to_d) == set(range(len(to_d)))
        and all(boe[e] == b for b, es in zip(to_d, cactus.edges) for e in es)
        and d.cut_edges == {es[0] for es in cactus.edges if len(es) == 1}
        and len(cycles) == len(d.cycle_block) == len(to_d) - len(d.cut_edges)
        and d.is_cut == bytes(on[v] > 1 for v in range(g.vertex_count)),
        "blocks_match_recogniser",
        "blocks, cycles or cut vertices",
    )
    for b, vs, es in zip(to_d, cactus.verts, cactus.edges):
        # block 0 lies at vertex 0 and hangs from nothing; a later block
        # hangs from its top in an earlier one, the block holding the top's
        # tree edge or block 0 at vertex 0
        t = vs[0]
        want = (t, to_d[cactus.block[t]] if t else 0) if b else (-1, -1)
        _require(
            (top[b], parent[b]) == want and parent[b] < b and (b or t == 0),
            "blocks_match_recogniser",
            f"block {b} top",
        )
        if len(es) > 1:
            dv, de = cycles.get(b, ((), ()))
            s = dv.index(t) if t in dv else 0
            fwd = dv[s:] + dv[:s], de[s:] + de[:s]
            bwd = dv[s::-1] + dv[:s:-1], de[s - 1 :: -1] + de[: s - 1 : -1]
            _require((tuple(vs), tuple(es)) in (fwd, bwd), "blocks_match_recogniser", f"block {b} order")
            # the edge at position j is opposite the vertex at j - length // 2
            h = len(es) // 2
            _require(list(map(opp.get, es)) == vs[-h:] + vs[:-h], "antipodal_matches_recogniser", f"block {b}")
    _require(len(opp) == g.edge_count - len(d.cut_edges), "antipodal_matches_recogniser", "a bridge")


_PAIRED = {
    SegmentClass.S1: SegmentClass.S4,
    SegmentClass.S2: SegmentClass.S3,
    SegmentClass.S3: SegmentClass.S2,
    SegmentClass.S4: SegmentClass.S1,
}
_REVERSED = {
    SegmentClass.S1: SegmentClass.S1,
    SegmentClass.S2: SegmentClass.S3,
    SegmentClass.S3: SegmentClass.S2,
    SegmentClass.S4: SegmentClass.S4,
}


@gc_paused
def check_segments(g: Graph, d: Decomposition, a: AntipodalIndex, cat: SegmentCatalog) -> None:
    """The segments of `cat` and of the reverse catalog, each read once:
    their counts and E_ant against the solver's, for every class; on a
    general odd cactus also the partition identities, the pairing under opp,
    and independence from the orientation and the starting cut vertex."""
    cuts = d.cut_vertices
    opp = a.opp_vertex
    by_opp = {e: w for e, w in opp.items() if w in cuts}
    _require(a.pivot == by_opp, "counts_match_views", "E_ant pivots")
    walked = {e for _, verts, edges in d.cycles() if not cuts.isdisjoint(verts) for e in edges}
    rev = enumerate_segments(d, a, reverse=True)
    # each segment as (cycle, class, vertices, edges), cycles in block order
    fwd, bwd = (
        [(b, klass, rv[v0:v1], re_[e0:e1]) for b, rv, re_, spans in c.walks for klass, v0, v1, e0, e1 in spans]
        for c in (cat, rev)
    )
    for c, segs in ((cat, fwd), (rev, bwd)):
        klasses = [klass for _, klass, _, _ in segs]
        held = {e for *_, es in segs for e in es}
        _require(
            c.counts == tuple(map(klasses.count, SegmentClass))
            and c.e_ant == walked - held == by_opp.keys(),
            "counts_match_views",
            f"reverse={c.reverse}: counts {c.counts}, |E_ant| {len(c.e_ant)}",
        )
    if d.classification.tag is not GraphClass.GENERAL_ODD_CACTUS:
        return

    by_cycle = {b: list(group) for b, group in groupby(fwd, itemgetter(0))}
    for b, verts, edges in d.cycles():
        segs = by_cycle.get(b, [])
        vs = [v for _, _, seg_vs, _ in segs for v in seg_vs]
        es = [e for *_, seg_es in segs for e in seg_es]
        vunion, eunion = set(vs), set(es)
        _require(len(vunion) == len(vs) and len(eunion) == len(es), "segments_disjoint")
        cuts_in = cuts.intersection(verts)
        _require(
            vunion | cuts_in == set(verts) and not vunion & cuts_in,
            "cycle_vertices_partitioned",
            f"block {b}",
        )
        ant_in = a.e_ant.intersection(edges)
        _require(
            eunion | ant_in == set(edges) and not eunion & ant_in,
            "cycle_edges_partitioned",
            f"block {b}",
        )

        # opp of a vertex within this cycle: the inverse of opp on its edges
        opp_edge = {opp[e]: e for e in edges}
        by_run = {(seg_vs, seg_es): klass for _, klass, seg_vs, seg_es in segs}
        for _, klass, seg_vs, seg_es in segs:
            image = (tuple([opp[e] for e in seg_es]), tuple([opp_edge[v] for v in seg_vs]))
            partner = image if image in by_run else (image[0][::-1], image[1][::-1])
            _require(partner in by_run, "antipodal_image_is_segment", f"block {b}")
            _require(
                by_run[partner] is _PAIRED[klass],
                "antipodal_image_class",
                f"block {b}: {klass.value} -> {by_run[partner].value}",
            )
            if klass is SegmentClass.S1:
                _require(len(seg_es) == len(partner[1]) + 1, "s1_one_more_edge_than_s4")
            if klass is SegmentClass.S2:
                _require(len(seg_es) == len(partner[1]), "s2_s3_equal_edges")
        # a different starting cut vertex must give the same segments outright
        pattern = bytes(v in cuts for v in verts)
        if pattern.count(1) > 1:
            start = verts.index(max(compress(verts, pattern)))
            _, rv, re_, spans = _walk(b, verts, edges, pattern, start, cat.reverse)
            alt = {(rv[v0:v1], re_[e0:e1]) for _, v0, v1, e0, e1 in spans}
            _require(alt == by_run.keys(), "start_vertex_invariant", f"block {b}")
    seg_vertices = {v for _, _, vs, _ in fwd for v in vs}
    leaves = graph_leaves(d)
    all_vertices = set(range(g.vertex_count))
    _require(
        seg_vertices | cuts | leaves == all_vertices
        and not seg_vertices & cuts
        and not seg_vertices & leaves
        and not cuts & leaves,
        "global_vertex_partition",
    )

    _require(
        Counter((b, tuple(sorted(vs)), tuple(sorted(es)), klass) for b, klass, vs, es in fwd)
        == Counter((b, tuple(sorted(vs)), tuple(sorted(es)), _REVERSED[klass]) for b, klass, vs, es in bwd),
        "reversal_swaps_s2_s3_only",
    )


@dataclass(frozen=True)
class Separation:
    """Split of the graph at pivot_vertex = opp(pivot_edge): g1 holds the
    pivot edge's side, g2 the rest; both sides share only the pivot vertex."""

    pivot_edge: EdgeId
    pivot_vertex: VertexId
    g1_edges: frozenset[EdgeId]
    g2_edges: frozenset[EdgeId]


def separate(g: Graph, a: AntipodalIndex, e: EdgeId) -> Separation:
    """Separation of the graph with respect to (e, opp(e)); e must be in E_ant.

    Built explicitly from the components of G - opp(e), as the reference the
    coloring's subtree-minima lookup (`solver._branch_min_black`) is checked
    against: g1 holds the edges that touch e's component.
    """
    if e not in a.e_ant:
        raise NotAntipodalEdgeError(e)
    w = a.pivot[e]
    comp = _components_without(g, w)
    side = comp[g.edges[e][0]]  # the pivot itself is in no component
    g1 = frozenset(eid for eid, (x, y) in enumerate(g.edges) if side in (comp[x], comp[y]))
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


def check_distinct_black_colors(p: BlackWhitePartition, coloring: EdgeColoring) -> bool:
    """True iff all black edges carry pairwise distinct colors."""
    return len({coloring.color[e] for e in p.e_black}) == len(p.e_black)


def check_leaf_blocks_black(d: Decomposition, p: BlackWhitePartition) -> None:
    for b in leaf_blocks(d):
        _require(bool(b.edges & p.e_black), "leaf_block_has_black_edge", f"block {b.index}")


def check_line18_equivalence(g: Graph, d: Decomposition, a: AntipodalIndex, p: BlackWhitePartition) -> None:
    ant_edges = sorted(a.e_ant)
    fast = _branch_min_black(d, sorted(p.e_black), ant_edges, a.opp_vertex)
    for e in ant_edges:
        sep = separate(g, a, e)
        v1 = {x for eid in sep.g1_edges for x in g.edges[eid]}
        v2 = {x for eid in sep.g2_edges for x in g.edges[eid]}
        _require(v1 & v2 == {sep.pivot_vertex}, "sides_share_only_pivot")
        _require(assert_line18_choice(sep, p) == fast[e], "fast_choice_matches_separation", f"edge {e}")


def check_recogniser(g: Graph, accepted: bool) -> _OddCactus | None:
    """The verifier's odd-cactus recogniser accepts g iff `decompose` does,
    and so it does for g with a chord from vertex 0 to vertex n - 1; returns
    the recogniser's blocks of g."""
    graphs = [(g, accepted)]
    n = g.vertex_count
    if n > 2 and all(w != n - 1 for w, _ in g.adjacency[0]):
        lab = g.labels
        chorded = build_graph([*map(g.edge_label_pair, range(g.edge_count)), (lab[0], lab[-1])])
        graphs.append((chorded, decompose(chorded).classification.accepted))
    found = []
    for h, want in graphs:
        found.append(_odd_cactus(h))
        _require(
            (found[-1] is not None) == want,
            "recogniser_matches_classification",
            f"n={h.vertex_count} m={h.edge_count} accepted={want}",
        )
    return found[0]


def _fault_at_last_vertex(g: Graph, colors: list[int]) -> list[int] | None:
    """Copy of colors with one fault far from vertex 0: on the first
    two-edge geodesic ending at vertex n - 1, the edge away from n - 1 takes
    the color of the edge at n - 1. None if no vertex is that far from it."""
    last = g.vertex_count - 1
    dist = _bfs_dist(g, last)
    adj = g.adjacency
    for y, near in adj[last]:
        for z, away in adj[y]:
            if dist[z] == 2:
                out = list(colors)
                out[away] = out[near]
                return out
    return None


def check_verify_loops_agree(
    g: Graph, coloring: EdgeColoring, outcome: VerificationOutcome, cactus: _OddCactus | None
) -> None:
    """The all-pairs pass and the per-pair walks give the same outcome and
    witness over every pair (u, v > u), on the coloring and on copies with
    one planted fault: the first edge colored unlike edge 0 takes its color,
    or a fault at vertex n - 1 (`_fault_at_last_vertex`), which the scan
    from vertex 0 need not meet, so the structural check on an odd cactus
    fails and the scan resumes at vertex 1. On these pairs `verify_pairs`
    takes its BFS route; its structural walks over `cactus` must agree with
    them (pair_routes_agree). `outcome` is the all-pairs pass's on `coloring`."""
    n = g.vertex_count
    pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n)]
    by_source = _by_source(g, pairs)
    faulty = list(coloring.color)
    other = next((e for e, c in enumerate(faulty) if c != faulty[0]), 0)
    faulty[other] = faulty[0]
    far = _fault_at_last_vertex(g, coloring.color)
    for colors in filter(None, (coloring.color, faulty, far)):
        c = EdgeColoring(max(colors), tuple(colors))
        full = outcome if colors is coloring.color else verify_strong_rainbow(g, c)
        spot = verify_pairs(g, c, pairs)
        _require(full == spot, "verify_loops_agree", f"{full} vs {spot}")
        walked = None if cactus is None else _cactus_walks(g, cactus, c.color, *_total_colors(g, c), by_source)
        _require(walked == spot, "pair_routes_agree", f"{walked} vs {spot}")


def check_instance(g: Graph) -> SrcResult:
    """Run every applicable invariant check on one graph; returns the result."""
    check_graph_core(g)
    d = decompose(g)
    cls = d.classification
    _require(cls.accepted, "generated_graph_accepted", str(cls.reason))
    cactus = check_recogniser(g, cls.accepted)
    a = build_antipodal_index(d)
    check_blocks(g, d, a, cactus)
    cat = enumerate_segments(d, a)
    k = src_formula(d, cat)
    check_segments(g, d, a, cat)

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

    outcome = verify_strong_rainbow(g, res.coloring)
    _require(outcome.ok, "coloring_verifies", repr(outcome.witness))
    if g.vertex_count <= _FULL_CHECK_N:
        check_verify_loops_agree(g, res.coloring, outcome, cactus)

    if g.vertex_count <= _PATH_ENUM_N:
        check_shortest_paths(g, part)
        if part is not None and a.e_ant:
            check_line18_equivalence(g, d, a, part)
    if g.edge_count <= _BRUTE_FORCE_M:
        bf = brute_force_search(g)
        _require(bf.src == k, "brute_force_agrees", f"{bf.src} vs {k}")
        if part is not None:
            _require(
                check_distinct_black_colors(part, bf.coloring),
                "oracle_coloring_black_distinct",
            )
    return res


def run_selftest(seeds: int = 200, max_n: int = 30) -> SelftestReport:
    """Generate `seeds` instances, each odd seed's with its labels counted
    down, and stop at the first invariant violation.

    Raises InvalidSpecError for a negative `seeds` or a `max_n` below
    MIN_MAX_N, which some specs would exceed.
    """
    if seeds < 0:
        raise InvalidSpecError(f"seeds (--seeds) must be at least 0, got {seeds}")
    if max_n < MIN_MAX_N:
        raise InvalidSpecError(f"max_n (--max-n) must be at least {MIN_MAX_N}, got {max_n}")
    failures: list[SelftestFailure] = []
    for seed in range(seeds):
        spec = spec_for_seed(seed, max_n)
        g = generate(spec)
        again = generate(spec)
        if again.edges != g.edges or again.labels != g.labels:
            failures.append(SelftestFailure(seed, "generator_deterministic", ""))
            break
        if seed % 2:
            # generated labels never make `decompose` read a cycle against
            # its canonical order; labels counted down do
            n = g.vertex_count
            g = build_graph([(n - 1 - a, n - 1 - b) for a, b in g.edges])
        try:
            check_instance(g)
        except InvariantViolation as exc:
            failures.append(SelftestFailure(seed, exc.invariant, exc.detail))
            break
    return SelftestReport(seeds, tuple(failures))
