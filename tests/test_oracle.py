from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from conftest import c5_plus_pendant_edges, cycle_edges, diamond_chain, k4_edges, path_edges

import rainbow_cactus
from rainbow_cactus import (
    EdgeColoring,
    GenSpec,
    brute_force_search,
    brute_force_src,
    build_antipodal_index,
    build_canonical_partition,
    build_graph,
    decompose,
    enumerate_segments,
    generate,
    strong_rainbow_coloring,
    verify_pairs,
    verify_strong_rainbow,
)
from rainbow_cactus import oracle
from rainbow_cactus.errors import PartialColoringError, SearchBudgetError, TooLargeError
from rainbow_cactus.graph import _bfs_dist, all_shortest_paths
from rainbow_cactus.oracle import (
    VerificationOutcome,
    _by_source,
    _cactus_rainbow,
    _cactus_walks,
    _check_source,
    _depths,
    _odd_cactus,
    _partition_colorings,
    _total_colors,
)
from rainbow_cactus.selftest import check_distinct_black_colors


def algorithm_coloring(g):
    d = decompose(g)
    a = build_antipodal_index(d)
    cat = enumerate_segments(d, a)
    return strong_rainbow_coloring(g, d, a, cat).coloring


def grid_edges(k: int) -> list[tuple[int, int]]:
    right = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    down = [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)]
    return right + down


def reference_witness(g, colors, pairs):
    """Naive oracle: the first pair, in the given order, none of whose
    shortest paths is rainbow, with the lexicographically first of those
    paths and the first color that repeats along it; None if every pair
    passes."""
    for u, v in pairs:
        paths = all_shortest_paths(g, u, v)
        if any(len({colors[e] for e in p.edges}) == len(p.edges) for p in paths):
            continue
        first = paths[0]
        seen = set()
        for e in first.edges:
            if colors[e] in seen:
                return u, v, first, colors[e]
            seen.add(colors[e])
    return None


def witness_tuple(outcome):
    w = outcome.witness
    assert outcome.ok == (w is None)
    return None if w is None else (w.u, w.v, w.path, w.repeated_color)


def plant_faults(rng, colors, faults):
    """Copy of colors in which `faults` random edges take another random
    edge's color."""
    out = list(colors)
    for _ in range(faults):
        a, b = rng.randrange(len(out)), rng.randrange(len(out))
        out[b] = out[a]
    return EdgeColoring(max(out), tuple(out))


def random_non_geodetic_graph(rng):
    """A connected graph of 4-9 vertices with some pair joined by two
    shortest paths."""
    while True:
        n = rng.randint(4, 9)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(1, n)):
            a, b = sorted(rng.sample(range(n), 2))
            edges.add((a, b))
        g = build_graph(sorted(edges))
        if any(
            len(all_shortest_paths(g, u, v)) > 1 for u in range(n) for v in range(u + 1, n)
        ):
            return g


class TestVerifyStrongRainbow:
    def test_sample_algorithm_coloring_ok(self, sample_cactus):
        c = algorithm_coloring(sample_cactus)
        assert verify_strong_rainbow(sample_cactus, c).ok

    def test_monochrome_c5_fails_with_witness(self, c5):
        out = verify_strong_rainbow(c5, EdgeColoring(1, (1, 1, 1, 1, 1)))
        assert not out.ok
        w = out.witness
        assert w.repeated_color == 1
        assert w.path.length == 2
        # the witness path really carries the repeated color twice
        colors = [1, 1, 1, 1, 1]
        assert sum(1 for e in w.path.edges if colors[e] == w.repeated_color) == 2

    def test_c5_three_coloring_ok(self, c5):
        d = decompose(c5)
        ordered = d.blocks[0].ordered_edges
        colors = [0] * 5
        for i, e in enumerate(ordered):
            colors[e] = (i % 3) + 1
        out = verify_strong_rainbow(c5, EdgeColoring(3, tuple(colors)))
        assert out.ok

    def test_partial_coloring_rejected(self, c5):
        with pytest.raises(PartialColoringError):
            verify_strong_rainbow(c5, EdgeColoring(1, (1, 1, 1)))
        with pytest.raises(PartialColoringError):
            verify_strong_rainbow(c5, EdgeColoring(1, (1, 1, 1, 1, 0)))

    def test_small_cacti_match_naive_reference(self, sample_cactus, bowtie):
        for g in (sample_cactus, bowtie):
            good = algorithm_coloring(g)
            bad = EdgeColoring(1, tuple(1 for _ in range(g.edge_count)))
            n = g.vertex_count
            all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for coloring in (good, bad):
                got = verify_strong_rainbow(g, coloring)
                assert witness_tuple(got) == reference_witness(g, coloring.color, all_pairs)

    def test_corrupted_optimal_coloring_is_caught(self, sample_cactus):
        # merging the two colors inside the cut-vertex-bounded segment breaks
        # the pair whose shortest path crosses that whole segment
        good = algorithm_coloring(sample_cactus)
        colors = list(good.color)
        segment_pair = sorted(e for e, c in enumerate(colors) if c in (4, 5))
        colors = [4 if c == 5 else c for c in colors]
        out = verify_strong_rainbow(sample_cactus, EdgeColoring(7, tuple(colors)))
        assert not out.ok
        assert out.witness.repeated_color == 4
        assert set(out.witness.path.edges) & set(segment_pair)

    def test_non_geodetic_graph_uses_any_path(self):
        # C4 with alternating colors is strongly rainbow connected even though
        # per-pair paths are not unique
        c4 = build_graph(cycle_edges(4))
        out = verify_strong_rainbow(c4, EdgeColoring(2, (1, 2, 1, 2)))
        assert out.ok

    def test_boolean_color_rejected(self, c5):
        with pytest.raises(PartialColoringError):
            verify_strong_rainbow(c5, EdgeColoring(1, (1, 1, True, 1, 1)))

    def test_huge_color_values(self, c5):
        big = 10**18
        out = verify_strong_rainbow(c5, EdgeColoring(big, (big, 2, big, 2, 3)), geodetic_hint=True)
        assert witness_tuple(out) == reference_witness(
            c5, (big, 2, big, 2, 3), [(u, v) for u in range(5) for v in range(u + 1, 5)]
        )

    def test_witnesses_match_naive_reference(self):
        rng = random.Random(20261018)
        outcomes = {True: 0, False: 0}
        for trial in range(160):
            if trial % 2 == 0:
                # a 7-cycle overshoots the target by at most 6, so n <= 64
                g = generate(
                    GenSpec(
                        seed=rng.randrange(1 << 30),
                        target_vertices=rng.randint(3, 58),
                        cycle_lengths=(3, 5, 7),
                        pendant_probability=0.3,
                    )
                )
                base = algorithm_coloring(g).color
            else:
                g = random_non_geodetic_graph(rng)
                base = tuple(range(1, g.edge_count + 1))
            coloring = plant_faults(rng, base, rng.randint(0, 2))
            n = g.vertex_count
            all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            want = reference_witness(g, coloring.color, all_pairs)
            outcomes[want is None] += 1
            got = verify_strong_rainbow(g, coloring)
            assert witness_tuple(got) == want, (g.edges, coloring.color)
            # pairs in any order, with repeats and u == v; verify_pairs
            # takes sources in ascending order, targets as given
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
            by_source = [(u, v) for u, v in sorted(pairs, key=lambda p: p[0]) if u != v]
            got = verify_pairs(g, coloring, pairs)
            assert witness_tuple(got) == reference_witness(g, coloring.color, by_source)
        assert min(outcomes.values()) >= 20, outcomes


class TestNonGeodetic:
    def test_grid_14_with_distinct_colors(self):
        g = build_graph(grid_edges(14))
        out = verify_strong_rainbow(g, EdgeColoring(g.edge_count, tuple(range(1, g.edge_count + 1))))
        assert out.ok

    def test_even_cycle_2000_proper_two_coloring(self):
        g = build_graph(cycle_edges(2000))
        out = verify_strong_rainbow(g, EdgeColoring(2, tuple(e % 2 + 1 for e in range(2000))))
        assert witness_tuple(out) == (0, 3, all_shortest_paths(g, 0, 3)[0], 1)

    def test_even_cycle_2000_fails_only_at_antipodes(self):
        # color i mod 999: every run of 999 consecutive edges is rainbow, so
        # the first failing pair is the antipodal (0, 1000), whose two
        # 1000-edge geodesics are searched far past the recursion limit
        g = build_graph(cycle_edges(2000))
        colors = tuple(e % 999 + 1 for e in range(2000))
        out = verify_strong_rainbow(g, EdgeColoring(999, colors))
        assert not out.ok
        w = out.witness
        assert (w.u, w.v, w.repeated_color) == (0, 1000, 1)
        assert w.path.vertices == tuple(range(1001))

    def test_c4_tree_path_repeats_but_other_geodesic_is_rainbow(self):
        # the BFS tree from 0 reaches 2 by 0-1-2, colours 1, 1; the other
        # geodesic 0-3-2 has colours 2, 1
        g = build_graph(cycle_edges(4))
        c = EdgeColoring(2, (1, 1, 1, 2))
        assert verify_pairs(g, c, [(0, 2)]).ok
        assert verify_strong_rainbow(g, c).ok


def cycle_with_pendant_path(k: int, tail: int) -> list[tuple[int, int]]:
    """C_k (k even) with a path of `tail` edges hanging from k // 2, the far
    vertex from 0: from 0 the tail is reached only through k // 2, which two
    geodesics reach."""
    far = k // 2
    return cycle_edges(k) + [(far if i == 0 else k + i - 1, k + i) for i in range(tail)]


class TestDepthFirstPass:
    def test_several_geodesics_match_naive_reference(self):
        # graphs where a pair has several shortest paths, so the pass's tree
        # path can repeat a color while another geodesic does not; colorings
        # with few colors, so that whole subtrees go unreached
        rng = random.Random(20261019)
        fixed = [build_graph(grid_edges(4)), build_graph(grid_edges(5))]
        fixed += [build_graph(cycle_with_pendant_path(k, t)) for k in (4, 6) for t in (1, 3)]
        outcomes = {True: 0, False: 0}
        for trial in range(120):
            if trial % 3 < 2:
                g = fixed[trial % len(fixed)]
            else:
                g = random_non_geodetic_graph(rng)
            m = g.edge_count
            palette = rng.choice((m, m, 6, 4))
            base = [rng.randint(1, palette) for _ in range(m)] if palette < m else range(1, m + 1)
            coloring = plant_faults(rng, base, rng.randint(0, 2))
            n = g.vertex_count
            all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            want = reference_witness(g, coloring.color, all_pairs)
            outcomes[want is None] += 1
            got = verify_strong_rainbow(g, coloring)
            assert witness_tuple(got) == want, (g.edges, coloring.color)
            assert witness_tuple(verify_pairs(g, coloring, all_pairs)) == want
        assert min(outcomes.values()) >= 20, outcomes

    def test_tail_past_a_repeated_far_vertex(self):
        # C4 + tail 2-4-5: both geodesics 0-1-2 and 0-3-2 repeat color 1,
        # so 2 and the tail are never entered from 0; the first failing pair
        # is (0, 2) with the lexicographically first geodesic
        g = build_graph(cycle_with_pendant_path(4, 2))
        colors = (1, 1, 1, 1, 2, 3)
        out = verify_strong_rainbow(g, EdgeColoring(3, colors))
        assert witness_tuple(out) == (0, 2, all_shortest_paths(g, 0, 2)[0], 1)


def with_vertex_zero(g, x):
    """g with the dense ids of vertices 0 and x swapped, edge order kept, so
    that x becomes vertex 0 and a coloring keeps its edge ids."""
    ids = list(range(g.vertex_count))
    ids[0], ids[x] = x, 0
    return build_graph([(ids[a], ids[b]) for a, b in g.edges])


def all_pairs(g):
    n = g.vertex_count
    return [(u, v) for u in range(n - 1) for v in range(u + 1, n)]


def structural(g, colors):
    """The structural decision alone; None when g is not an odd cactus."""
    cactus = _odd_cactus(g)
    coloring = EdgeColoring(max(colors), tuple(colors))
    return None if cactus is None else _cactus_rainbow(cactus, *_total_colors(g, coloring))


def bfs_route(g, coloring, pairs):
    """`verify_pairs` on its BFS route, one pass per source, whatever the
    route rule picks."""
    dense, k = _total_colors(g, coloring)
    by_source = _by_source(g, pairs)
    failed = (
        _check_source(g, u, _depths(g, u), by_source[u], coloring.color, dense, k) for u in sorted(by_source)
    )
    return next(filter(None, failed), VerificationOutcome(True, None))


def cactus_walks(g, coloring, pairs):
    """`verify_pairs` on its structural route; g must be an odd cactus."""
    return _cactus_walks(g, _odd_cactus(g), coloring.color, *_total_colors(g, coloring), _by_source(g, pairs))


def assert_routes_agree(g, colors, cactus=True):
    """The structural decision (on an odd cactus) matches the BFS route over
    all pairs, and `verify_strong_rainbow` matches it in outcome and
    witness; returns whether the coloring passes."""
    coloring = EdgeColoring(max(colors), tuple(colors))
    route = bfs_route(g, coloring, all_pairs(g))
    full = verify_strong_rainbow(g, coloring)
    assert witness_tuple(full) == witness_tuple(route), (g.edges, colors)
    assert structural(g, colors) == (route.ok if cactus else None), (g.edges, colors)
    return route.ok


def count_bfs(monkeypatch):
    """The sources of the BFS runs in the oracle from here on. The BFS tree
    from vertex 0 is not among them: `build_graph` walks it once and keeps
    it as `g.tree`."""
    calls = []

    def counted(graph, source):
        calls.append(source)
        return _bfs_dist(graph, source)

    monkeypatch.setattr(oracle, "_bfs_dist", counted)
    return calls


def theta_edges():
    # three paths of lengths 2, 2 and 3 between 0 and 1
    return [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)]


NON_CACTI = {
    "C4": cycle_edges(4),
    "C4 with a tail": cycle_with_pendant_path(4, 2),
    "theta": theta_edges(),
    "K4": k4_edges(),
    "two triangles sharing an edge": [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)],
    # a triangle, a bridge to a 5-cycle, and a 4-cycle on that
    "cactus with one even cycle": cycle_edges(3) + [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
    + [(5, 8), (8, 9), (9, 10), (10, 5)],
}


class TestStructuralVerifier:
    """On an odd cactus `verify_strong_rainbow` scans source 0 and then
    decides the rest from the block structure, resuming the scan at source
    1 only on a failure; every other graph is scanned in full."""

    def test_property_against_walks(self):
        rng = random.Random(20261020)
        outcomes = {True: 0, False: 0}
        # greedy merges that pass, and those with a class whose edges that
        # are not up lie in three or more blocks
        kept = spread = 0
        for trial in range(300):
            g = generate(
                GenSpec(
                    seed=rng.randrange(1 << 30),
                    target_vertices=rng.randint(2, 36),
                    cycle_lengths=rng.choice(((3,), (3, 5), (5, 7), (3, 5, 7, 9))),
                    pendant_probability=rng.choice((0.0, 0.3, 0.7)),
                )
            )
            d = decompose(g)
            degree = [len(a) for a in g.adjacency]
            on_cycle = {v for b in d.blocks if b.is_cycle for v in b.vertices}
            places = {
                "cut": sorted(d.cut_vertices),
                "leaf": [v for v in range(g.vertex_count) if degree[v] == 1],
                "cycle": sorted(on_cycle - d.cut_vertices),
            }
            kind = ("cut", "leaf", "cycle")[trial % 3]
            if places[kind]:
                g = with_vertex_zero(g, rng.choice(places[kind]))
            base = algorithm_coloring(g).color
            m = g.edge_count
            merged = list(base)
            if max(base) > 1:
                a, b = rng.sample(range(1, max(base) + 1), 2)
                merged = [a if c == b else c for c in base]
            palette = rng.randint(1, 4)
            colorings = [plant_faults(rng, base, faults).color for faults in (0, 1, 2)]
            colorings += [merged, [rng.randint(1, palette) for _ in range(m)]]
            for colors in colorings:
                outcomes[assert_routes_agree(g, colors)] += 1
            # greedy merges: split each class of the optimum in two at
            # random, which still passes, then merge the classes of two
            # random edges, keeping each merge that still passes. (A merge
            # of two classes of the optimum itself never passes.) This
            # reaches passing colorings far from the optimum, some with a
            # class on a chain of three or more blocks
            k = max(base)
            merged = [c + k * rng.randrange(2) for c in base]
            _, block, _, _, _, up = _odd_cactus(g).layout()
            for _ in range(12 if m > 1 else 0):
                a, b = (merged[e] for e in rng.sample(range(m), 2))
                colors = [a if c == b else c for c in merged]
                if a == b or not assert_routes_agree(g, colors):
                    continue
                merged = colors
                kept += 1
                chains = {}
                for e, c in enumerate(colors):
                    if not up[e]:
                        chains.setdefault(c, set()).add(block[e])
                spread += max(map(len, chains.values()), default=0) >= 3
        assert min(outcomes.values()) >= 200, outcomes
        assert kept >= 240 and spread >= 40, (kept, spread)

    def test_k2_and_trees(self):
        rng = random.Random(7)
        trees = [path_edges(2), path_edges(6), [(0, i) for i in range(1, 6)]]
        trees += [[(rng.randrange(i), i) for i in range(1, n)] for n in range(3, 15)]
        for edges in trees:
            g = build_graph(edges)
            m = g.edge_count
            distinct = list(range(1, m + 1))
            assert assert_routes_agree(g, distinct)
            for _ in range(4):
                assert_routes_agree(g, [rng.randint(1, m) for _ in range(m)])

    @pytest.mark.parametrize("length", range(3, 42, 2))
    def test_bare_odd_cycles(self, length):
        g = build_graph(cycle_edges(length))
        assert assert_routes_agree(g, algorithm_coloring(g).color)
        half = (length - 1) // 2
        # two edges share a color exactly when they are (L - 1) / 2 or more
        # positions apart both ways round
        for gap in range(1, length):
            colors = list(range(1, length + 1))
            colors[gap] = colors[0]
            assert assert_routes_agree(g, colors) == (half <= gap <= length - half)
        rng = random.Random(length)
        for _ in range(4):
            assert_routes_agree(g, [rng.randint(1, 3) for _ in range(length)])

    def test_monochrome_triangle(self, triangle):
        assert assert_routes_agree(triangle, [1, 1, 1])

    @pytest.mark.parametrize("zero", range(4))
    def test_bridge_and_the_edge_facing_it(self, zero):
        # triangle 0-1-2 with the pendant bridge 2-3: edge 0-1 faces 2, so
        # no geodesic holds both 0-1 and 2-3. Whichever vertex is 0, only one
        # of the two sees the other: the bridge sees nothing
        g = with_vertex_zero(build_graph([(0, 1), (1, 2), (2, 0), (2, 3)]), zero)
        assert assert_routes_agree(g, [1, 2, 3, 1])
        # edge 1-2 and the bridge lie on the geodesic 1-2-3
        assert not assert_routes_agree(g, [1, 2, 3, 2])

    @pytest.mark.parametrize("zero", [0, 2, 4, 5, 7])
    def test_edges_facing_a_shared_cut_vertex(self, zero):
        # C5 0..4 (edges 0-4) and triangle 2-5-6 (edges 5-7) share the cut
        # vertex 2, with the bridge 6-7 (edge 8). C5 edge 4 (0-4) and
        # triangle edge 6 (5-6) face 2; C5 edge 0 (0-1) and triangle edge 5
        # (2-5) do not. Two edges of the two cycles lie on a common geodesic
        # iff neither faces 2
        g = with_vertex_zero(build_graph(cycle_edges(5) + [(2, 5), (5, 6), (6, 2), (6, 7)]), zero)
        for e, f in ((4, 6), (0, 6), (4, 5), (0, 5)):
            colors = list(range(1, 10))
            colors[e] = colors[f]
            assert assert_routes_agree(g, colors) == ((e, f) != (0, 5))

    @pytest.mark.parametrize(
        "edges, passes",
        [
            ((0, 3, 6, 9), True),  # not up, A to B to C to D, each below the last pivot
            ((0, 3, 13), False),  # F hangs at 3, not at 4, the pivot of edge 3
            ((3, 5, 6), False),  # two edges of B, then C below B
            ((0, 3, 5), True),  # two edges of B, with A above
            ((1, 3), False),  # up edge of A over an edge of B
            ((1, 4, 7, 11, 14), True),  # up edges only
            ((3, 10), False),  # not up, in the sibling blocks B and E
            ((4, 11), True),  # up, in the sibling blocks B and E
        ],
        ids=["chain", "off-pivot", "pair-above", "pair-below", "up-over", "up-up", "siblings", "up-siblings"],
    )
    def test_chain_rule_cases(self, edges, passes):
        # from vertex 0, triangle A 0-1-2 (edges 0-2), triangle B 2-3-4
        # hanging at 2 (edges 3-5), triangle C 4-5-6 at 4 (edges 6-8), the
        # bridge D 6-7 (edge 9), triangle E 1-8-9 at 1 (edges 10-12) and
        # triangle F 3-10-11 at 3 (edges 13-15). Each triangle's up edge is
        # its middle one; edges 0, 3 and 6 face 2, 4 and 6. Whichever vertex
        # is 0, a class passes or fails alike
        cactus = build_graph(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (6, 4), (6, 7)]
            + [(1, 8), (8, 9), (9, 1), (3, 10), (10, 11), (11, 3)]
        )
        assert list(_odd_cactus(cactus).layout()[5]) == [e in (1, 4, 7, 11, 14) for e in range(16)]
        for zero in (0, 2, 4, 7, 9, 11):
            g = with_vertex_zero(cactus, zero)
            colors = list(range(2, 18))
            for e in edges:
                colors[e] = 1
            assert assert_routes_agree(g, colors) == passes

    @pytest.mark.parametrize("name", sorted(NON_CACTI))
    def test_non_cacti_keep_the_scan(self, name):
        g = build_graph(NON_CACTI[name])
        assert _odd_cactus(g) is None
        rng = random.Random(name)
        m = g.edge_count
        pairs = all_pairs(g)
        for palette in (m, m, 4, 3, 2):
            colors = [rng.randint(1, palette) for _ in range(m)] if palette < m else range(1, m + 1)
            coloring = plant_faults(rng, colors, rng.randint(0, 1))
            want = reference_witness(g, coloring.color, pairs)
            assert witness_tuple(verify_strong_rainbow(g, coloring)) == want
            assert_routes_agree(g, coloring.color, cactus=False)

    def test_recogniser_matches_classification(self):
        rng = random.Random(20261021)
        accepted = 0
        for _ in range(600):
            n = rng.randint(2, 10)
            edges = {(rng.randrange(i), i) for i in range(1, n)}
            for _ in range(rng.randint(0, 4)):
                a, b = sorted(rng.sample(range(n), 2))
                edges.add((a, b))
            g = with_vertex_zero(build_graph(sorted(edges)), rng.randrange(n))
            want = decompose(g).classification.accepted
            accepted += want
            assert (_odd_cactus(g) is not None) == want, g.edges
        assert 100 <= accepted <= 500, accepted

    def test_optimal_coloring_costs_one_bfs(self, monkeypatch):
        spec = GenSpec(seed=11, target_vertices=520, cycle_lengths=(3, 5, 7), pendant_probability=0.3)
        g = generate(spec)
        assert g.vertex_count >= 500
        coloring = algorithm_coloring(g)
        calls = count_bfs(monkeypatch)
        assert verify_strong_rainbow(g, coloring).ok
        # the one BFS is the graph's kept tree from vertex 0
        assert calls == []

    @pytest.mark.parametrize("fault", [False, True], ids=["optimal", "fault-from-source-0"])
    def test_scan_from_source_0_reads_no_pair_view(self, fault):
        # the optimal coloring passes on the structural check after source
        # 0, and a fault on the geodesic from vertex 0 to a vertex two deep
        # is first seen from source 0: neither builds the view, and both get
        # the outcome of a graph whose view was built beforehand
        spec = GenSpec(seed=11, target_vertices=520, cycle_lengths=(3, 5, 7), pendant_probability=0.3)
        g = generate(spec)
        colors = list(algorithm_coloring(g).color)
        if fault:
            par_v, par_e, order = g.tree
            x = next(x for x in order if par_v[x] != 0 and par_v[par_v[x]] == 0)
            colors[par_e[x]] = colors[par_e[par_v[x]]]
        coloring = EdgeColoring(max(colors), tuple(colors))
        out = verify_strong_rainbow(g, coloring)
        assert "adjacency" not in vars(g)
        assert out.ok != fault
        assert out.ok or out.witness.u == 0
        viewed = generate(spec)
        assert viewed.adjacency
        assert verify_strong_rainbow(viewed, coloring) == out


class TestVerifyPairs:
    def test_spot_check_matches_full_check(self, sample_cactus):
        g = sample_cactus
        c = algorithm_coloring(g)
        pairs = [(u, v) for u in range(g.vertex_count) for v in range(g.vertex_count) if u != v]
        assert verify_pairs(g, c, pairs).ok

    def test_spot_check_finds_violation(self, c5):
        out = verify_pairs(c5, EdgeColoring(1, (1, 1, 1, 1, 1)), [(0, 2)])
        assert not out.ok
        assert out.witness.u == 0 and out.witness.v == 2

    def test_pass_reaches_a_pair_whose_tree_path_repeats(self, monkeypatch):
        # theta: 0-2-1 (edges 0, 1), 0-3-1 (edges 2, 3) and 0-4-5-1. The BFS
        # trees from 0 and from 1 join the two through 2, colors 1 and 1;
        # the pass reaches each from the other by 0-3-1, colors 2 and 3, so
        # no pair is searched. From source 0 the pass reads the kept tree
        # and the rows: no BFS and no pair view
        g = build_graph(theta_edges())
        assert g.tree[0][1] == 2
        c = EdgeColoring(4, (1, 1, 2, 3, 4, 4, 4))
        searched = []
        monkeypatch.setattr(oracle, "_settle", lambda *args: searched.append(args[3:]))
        calls = count_bfs(monkeypatch)
        assert verify_pairs(g, c, [(0, 1)]).ok
        assert calls == [] and "adjacency" not in vars(g)
        assert verify_pairs(g, c, [(1, 0), (0, 1)]).ok
        assert calls == [1] and searched == []

    @pytest.mark.parametrize(
        "pair", [(0, -1), (-1, 0), (0, 4), (4, 0), (7, 7), (0, True), (0, 1.0), (0.5, 1), ("0", 1)]
    )
    def test_invalid_vertex_ids_rejected(self, pair):
        # triangle 0-1-2 with pendant 2-3; as a list index, -1 would alias
        # vertex 3 and send the parent walk round forever, and True would
        # pass as vertex 1
        g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        with pytest.raises(ValueError, match="invalid vertex"):
            verify_pairs(g, EdgeColoring(2, (1, 1, 1, 2)), [(0, 1), pair])


def relabelled(g, rng):
    """g with its vertex ids shuffled, edge order kept, so that a coloring
    keeps its edge ids."""
    ids = list(range(g.vertex_count))
    rng.shuffle(ids)
    return build_graph([(ids[a], ids[b]) for a, b in g.edges])


def fault_on_geodesic(rng, g, colors, u, v):
    """Give a second edge of the u,v geodesic the color of a first; False
    if the geodesic has fewer than two edges."""
    (path,) = all_shortest_paths(g, u, v)
    edges = path.edges
    if len(edges) < 2:
        return False
    e, f = rng.sample(edges, 2)
    colors[f] = colors[e]
    return True


def spot_cactus():
    """The 521-vertex cactus of `test_optimal_coloring_costs_one_bfs` with
    40 sources of 5 targets each, a call on the structural route."""
    g = generate(GenSpec(seed=11, target_vertices=520, cycle_lengths=(3, 5, 7), pendant_probability=0.3))
    rng = random.Random(5)
    n = g.vertex_count
    return g, [(u, rng.randrange(n)) for u in rng.sample(range(n), 40) for _ in range(5)]


class TestStructuralWalks:
    """On an odd cactus with enough sources `verify_pairs` recognises the
    cactus from one BFS tree and walks each pair's geodesic block by block;
    outcome and witness are those of the BFS route."""

    def test_routes_agree_on_relabelled_cacti(self):
        rng = random.Random(20261022)
        outcomes = {True: 0, False: 0}
        for _ in range(36):
            spec = GenSpec(
                seed=rng.randrange(1 << 30),
                target_vertices=int(10 ** rng.uniform(0.5, 3.5)),
                cycle_lengths=rng.choice(((3,), (3, 5), (5, 7, 9), (3, 5, 7, 9))),
                pendant_probability=rng.choice((0.0, 0.35, 0.7)),
            )
            g = relabelled(generate(spec), rng)
            n = g.vertex_count
            dist = _bfs_dist(g, 0)
            deepest = sorted(range(n), key=dist.__getitem__)[-max(2, n // 20) :]
            base = algorithm_coloring(g).color
            for faults in range(4):
                colors = list(base)
                pairs = []
                for i in range(faults):
                    # odd-numbered faults lie between vertices far from vertex 0
                    ends = rng.sample(deepest if i % 2 else range(n), 2) if n > 2 else [0, 1]
                    if fault_on_geodesic(rng, g, colors, *ends):
                        pairs += [tuple(ends), tuple(reversed(ends))]
                sources = [rng.randrange(n) for _ in range(rng.randint(1, 12))]
                pairs += [(u, rng.randrange(n)) for u in sources for _ in range(rng.randint(1, 6))]
                pairs += [(x, x) for x in sources[:2]] + pairs[:3]
                rng.shuffle(pairs)
                coloring = EdgeColoring(max(colors), tuple(colors))
                want = witness_tuple(bfs_route(g, coloring, pairs))
                outcomes[want is None] += 1
                assert witness_tuple(cactus_walks(g, coloring, pairs)) == want, (spec, colors)
                assert witness_tuple(verify_pairs(g, coloring, pairs)) == want, (spec, colors)
        assert min(outcomes.values()) >= 30, outcomes

    def test_invalid_vertex_raises_before_any_bfs(self, monkeypatch):
        g, pairs = spot_cactus()
        coloring = algorithm_coloring(g)
        calls = count_bfs(monkeypatch)
        for bad in ((0, g.vertex_count), (-1, 0)):
            with pytest.raises(ValueError, match="invalid vertex"):
                verify_pairs(g, coloring, pairs + [bad])
        assert calls == []

    def test_spot_check_costs_one_bfs_and_one_per_failure(self, monkeypatch):
        g, pairs = spot_cactus()
        coloring = algorithm_coloring(g)
        calls = count_bfs(monkeypatch)
        assert verify_pairs(g, coloring, pairs).ok
        # the one BFS is the graph's kept tree from vertex 0; the structural
        # walks read no pair view either
        assert calls == []
        assert "adjacency" not in vars(g)

        colors = list(coloring.color)
        u, v = max(pairs, key=lambda p: _bfs_dist(g, p[0])[p[1]])
        assert fault_on_geodesic(random.Random(1), g, colors, u, v)
        broken = EdgeColoring(max(colors), tuple(colors))
        want = witness_tuple(bfs_route(g, broken, pairs))
        calls.clear()
        got = verify_pairs(g, broken, pairs)
        assert witness_tuple(got) == want
        assert calls == [got.witness.u]

    @pytest.mark.parametrize("sources, targets", [(4, None), (16, 250)])
    def test_small_calls_take_the_bfs_walks(self, monkeypatch, sources, targets):
        # the benchmark's small-batch shape (4 sources, n targets each) and
        # its verify shape (16 sources, 250 targets each, ~1,000 vertices)
        spec = GenSpec(seed=3, target_vertices=40 if targets is None else 1000,
                       cycle_lengths=(3, 5, 7, 9), pendant_probability=0.35)
        g = generate(spec)
        n = g.vertex_count
        rng = random.Random(sources)
        chosen = rng.sample(range(1, n), sources)
        pairs = [(u, rng.randrange(n)) for u in chosen for _ in range(targets or n)]
        calls = count_bfs(monkeypatch)
        assert verify_pairs(g, algorithm_coloring(g), pairs).ok
        assert calls == sorted(chosen)

    def test_four_sources_at_10k_take_the_structural_walks(self, monkeypatch):
        # at 10,000 vertices the recogniser on the kept tree costs less than
        # one source's BFS and pass: 3 or 4 sources of 250 targets are faster
        # on the structural walks
        spec = GenSpec(seed=20260810, target_vertices=10_000, cycle_lengths=(3, 5, 7, 9),
                       pendant_probability=0.35)
        g = generate(spec)
        n = g.vertex_count
        coloring = algorithm_coloring(g)
        for sources in (4, 3):
            rng = random.Random(sources)
            pairs = [(u, rng.randrange(n)) for u in rng.sample(range(1, n), sources) for _ in range(250)]
            calls = count_bfs(monkeypatch)
            assert verify_pairs(g, coloring, pairs).ok
            assert calls == []
            assert "adjacency" not in vars(g)

    def test_same_outcome_under_python_O(self):
        # the structural walk holds no assert: under -O it gives the same
        # outcome and witness, on the optimal coloring and with a far fault
        code = textwrap.dedent(
            """
            import random
            from rainbow_cactus import EdgeColoring, GenSpec, analyze_graph, generate, verify_pairs
            from rainbow_cactus.graph import all_shortest_paths, bfs_distances

            g = generate(GenSpec(seed=11, target_vertices=520, cycle_lengths=(3, 5, 7), pendant_probability=0.3))
            rng = random.Random(5)
            n = g.vertex_count
            pairs = [(u, rng.randrange(n)) for u in rng.sample(range(n), 40) for _ in range(5)]
            colors = list(analyze_graph(g).result.coloring.color)
            u, v = max(pairs, key=lambda p: bfs_distances(g, p[0])[p[1]])
            far = list(colors)
            (path,) = all_shortest_paths(g, u, v)
            edges = path.edges
            far[edges[-1]] = far[edges[-2]]
            for c in (colors, far):
                out = verify_pairs(g, EdgeColoring(max(c), tuple(c)), pairs)
                w = out.witness
                print(out.ok, None if w is None else (w.u, w.v, w.path.vertices, w.repeated_color))
            """
        )
        src_dir = os.path.dirname(os.path.dirname(rainbow_cactus.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        runs = [
            subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env)
            for flags in ([], ["-O"])
        ]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        assert runs[0].stdout == runs[1].stdout
        ok, failed = runs[0].stdout.splitlines()
        assert ok == "True None" and failed.startswith("False (")


class TestSearchBudget:
    """The rainbow geodesic search stops with SearchBudgetError past
    2m + _SEARCH_STEPS steps, and on a geodetic graph 2m are enough."""

    def test_chain_below_the_budget_gets_its_verdict(self):
        edges, colors = diamond_chain(14)
        g = build_graph(edges)
        out = verify_strong_rainbow(g, EdgeColoring(max(colors), tuple(colors)))
        assert (out.ok, out.witness.u, out.witness.v) == (False, 0, g.vertex_count - 1)

    def test_chain_past_the_budget_raises(self):
        edges, colors = diamond_chain(20)
        g = build_graph(edges)
        coloring = EdgeColoring(max(colors), tuple(colors))
        last = g.vertex_count - 1
        for run in (lambda: verify_strong_rainbow(g, coloring), lambda: verify_pairs(g, coloring, [(0, last)])):
            with pytest.raises(SearchBudgetError) as info:
                run()
            err = info.value
            assert (err.u, err.v, err.budget) == (0, last, 2 * g.edge_count + oracle._SEARCH_STEPS)

    def test_odd_cacti_need_no_steps_past_2m(self, monkeypatch):
        # verdicts and witnesses with no allowance past 2m equal those under
        # the full budget, also where planted faults make the search run
        rng = random.Random(20261020)
        cases = []
        for _ in range(40):
            g = generate(GenSpec(seed=rng.randrange(1 << 30), target_vertices=rng.randint(2, 60),
                                 cycle_lengths=(3, 5, 7, 9), pendant_probability=0.35))
            base = algorithm_coloring(g).color
            for faults in (0, 1, 3):
                colors = plant_faults(rng, base, faults).color
                cases.append((g, EdgeColoring(max(colors), tuple(colors))))
        full = [witness_tuple(verify_strong_rainbow(g, c)) for g, c in cases]
        monkeypatch.setattr(oracle, "_SEARCH_STEPS", 0)
        assert [witness_tuple(verify_strong_rainbow(g, c)) for g, c in cases] == full
        assert sum(w is not None for w in full) >= 40


class TestBruteForce:
    def test_baselines(self, triangle, c5, bowtie):
        assert brute_force_src(triangle) == 1
        assert brute_force_src(build_graph(path_edges(3))) == 2
        assert brute_force_src(c5) == 3
        assert brute_force_src(bowtie) == 2

    def test_c5_plus_pendant(self):
        assert brute_force_src(build_graph(c5_plus_pendant_edges())) == 3

    def test_even_cycle_works_too(self):
        assert brute_force_src(build_graph(cycle_edges(4))) == 2
        assert brute_force_src(build_graph(cycle_edges(6))) == 3

    def test_cap_enforced_and_overridable(self, sample_cactus):
        with pytest.raises(TooLargeError):
            brute_force_src(build_graph(cycle_edges(10)))
        assert brute_force_src(build_graph(cycle_edges(7)), max_edges=7) == 4

    def test_result_carries_valid_coloring(self, bowtie):
        res = brute_force_search(bowtie)
        assert res.src == 2
        assert res.colorings_checked >= 1
        assert verify_strong_rainbow(bowtie, res.coloring).ok

    def test_tree_needs_no_search(self):
        g = build_graph(path_edges(8))
        res = brute_force_search(g)
        assert res.src == 7
        # the bridge bound starts the search at k = m, whose only partition
        # is the all-distinct one
        assert res.colorings_checked == 1


class TestPartitionColorings:
    def test_exact_class_counts(self):
        # Stirling numbers S(4, k)
        assert sum(1 for _ in _partition_colorings(4, 1)) == 1
        assert sum(1 for _ in _partition_colorings(4, 2)) == 7
        assert sum(1 for _ in _partition_colorings(4, 3)) == 6
        assert sum(1 for _ in _partition_colorings(4, 4)) == 1

    def test_lexicographic_order(self):
        # every restricted growth string with exactly k classes, in order
        assert list(_partition_colorings(0, 0)) == []
        for m in range(1, 7):
            strings = [
                s for s in itertools.product(range(m), repeat=m)
                if all(s[i] <= max(s[:i], default=-1) + 1 for i in range(m))
            ]
            for k in range(-1, m + 2):
                want = [tuple(c + 1 for c in s) for s in strings if max(s) == k - 1]
                assert list(_partition_colorings(m, k)) == want, (m, k)

    def test_canonical_form(self):
        for colors in _partition_colorings(5, 3):
            assert colors[0] == 1
            assert max(colors) == 3
            seen_max = 0
            for c in colors:
                assert c <= seen_max + 1
                seen_max = max(seen_max, c)


class TestDistinctBlackColors:
    def pipeline(self, g):
        d = decompose(g)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        return d, a, cat

    def test_sample_algorithm_coloring(self, sample_cactus):
        d, a, cat = self.pipeline(sample_cactus)
        p = build_canonical_partition(d, cat)
        res = strong_rainbow_coloring(sample_cactus, d, a, cat)
        assert check_distinct_black_colors(p, res.coloring)

    def test_every_valid_bowtie_coloring(self, bowtie):
        d, a, cat = self.pipeline(bowtie)
        p = build_canonical_partition(d, cat)
        found = 0
        for colors in _partition_colorings(bowtie.edge_count, 2):
            c = EdgeColoring(2, colors)
            if verify_strong_rainbow(bowtie, c).ok:
                found += 1
                assert check_distinct_black_colors(p, c)
        assert found >= 1

    def test_tree_any_valid_coloring_is_bijection(self):
        g = build_graph(path_edges(4))
        d, a, cat = self.pipeline(g)
        p = build_canonical_partition(d, cat)
        res = brute_force_search(g)
        assert check_distinct_black_colors(p, res.coloring)
        assert sorted(res.coloring.color) == [1, 2, 3]
