from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import pytest
from conftest import c5_plus_pendant_edges, cycle_edges, eid, path_edges, vid

import rainbow_cactus
from rainbow_cactus import (
    GenSpec,
    GraphClass,
    SrcCase,
    analyze_graph,
    brute_force_src,
    build_antipodal_index,
    build_canonical_partition,
    build_graph,
    decompose,
    enumerate_segments,
    generate,
    src_formula,
    strong_rainbow_coloring,
    verify_strong_rainbow,
)
from rainbow_cactus.errors import InvariantError, NotAntipodalEdgeError, NotOddCactusError
from rainbow_cactus.selftest import assert_line18_choice, separate
from rainbow_cactus.solver import _branch_min_black


def pipeline(g):
    d = decompose(g)
    a = build_antipodal_index(d)
    cat = enumerate_segments(d, a)
    return d, a, cat


class TestSrcFormula:
    def test_sample_is_seven(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        # (13 + 3 + 1 - 3) / 2
        assert src_formula(d, cat) == 7

    def test_cycles(self):
        for n, expected in [(3, 1), (5, 3), (7, 4), (9, 5)]:
            g = build_graph(cycle_edges(n))
            d, a, cat = pipeline(g)
            assert src_formula(d, cat) == expected

    def test_bowtie(self, bowtie):
        d, a, cat = pipeline(bowtie)
        # (6 + 0 + 0 - 2) / 2, and the brute force agrees
        assert src_formula(d, cat) == 2 == brute_force_src(bowtie)

    def test_c5_plus_pendant(self):
        g = build_graph(c5_plus_pendant_edges())
        d, a, cat = pipeline(g)
        assert src_formula(d, cat) == 3 == brute_force_src(g)

    def test_trees_give_m(self):
        for edges in (path_edges(2), path_edges(6), [(0, 1), (0, 2), (0, 3), (3, 4)]):
            g = build_graph(edges)
            d, a, cat = pipeline(g)
            assert src_formula(d, cat) == g.edge_count

    def test_rejects_even_cycle(self):
        from rainbow_cactus import SegmentCatalog

        g = build_graph(cycle_edges(4))
        with pytest.raises(NotOddCactusError):
            src_formula(decompose(g), SegmentCatalog((), (0, 0, 0, 0)))

    def test_parity_check_holds_under_python_O(self):
        # an S1 count off by one makes m + |E_cut| + |S1| - |E_ant| odd; the
        # check must raise even when asserts are compiled out
        code = textwrap.dedent(
            f"""
            import dataclasses
            from rainbow_cactus import (
                build_antipodal_index, build_graph, decompose, enumerate_segments, src_formula,
            )
            from rainbow_cactus.errors import InvariantError

            d = decompose(build_graph({c5_plus_pendant_edges()!r}))
            cat = enumerate_segments(d, build_antipodal_index(d))
            bad = dataclasses.replace(cat, counts=(cat.counts[0] + 1,) + cat.counts[1:])
            try:
                src_formula(d, bad)
            except InvariantError:
                pass
            else:
                raise SystemExit("no InvariantError")
            """
        )
        src_dir = os.path.dirname(os.path.dirname(rainbow_cactus.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr


class TestSeparate:
    def test_sample_separation_at_e12(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        sep = separate(sample_cactus, a, eid["e12"])
        assert sep.pivot_vertex == vid["v10"]
        assert sep.g1_edges == {eid["e11"], eid["e12"], eid["e13"]}
        assert sep.g2_edges == frozenset(range(13)) - sep.g1_edges

    def test_sides_share_only_pivot(self, sample_cactus):
        g = sample_cactus
        d, a, cat = pipeline(g)
        for e in sorted(a.e_ant):
            sep = separate(g, a, e)
            v1 = {x for eid_ in sep.g1_edges for x in g.edges[eid_]}
            v2 = {x for eid_ in sep.g2_edges for x in g.edges[eid_]}
            assert v1 & v2 == {sep.pivot_vertex}
            assert v1 | v2 == set(range(g.vertex_count))

    def test_three_block_chain_separation(self):
        # triangle 1-2-3 joined via 3-5 to triangle 5-6-8 (with pendants 4 on 5
        # and 7 on 6) joined to triangle 8-9-10; separating at the edge (6,8),
        # whose antipodal vertex is the cut vertex 5, keeps that edge's whole
        # side in g1 and the first triangle's side in g2
        g = build_graph([
            (1, 2), (1, 3), (2, 3), (3, 5), (4, 5), (5, 6), (5, 8),
            (6, 7), (6, 8), (8, 9), (8, 10), (9, 10),
        ])
        d, a, cat = pipeline(g)
        e = g.edge_between(5, 7)  # dense ids of labels 6 and 8
        assert a.opp_vertex[e] == 4  # dense id of label 5
        sep = separate(g, a, e)
        g2_labels = {tuple(sorted(g.edge_label_pair(x))) for x in sep.g2_edges}
        assert g2_labels == {(1, 2), (1, 3), (2, 3), (3, 5), (4, 5)}
        assert e in sep.g1_edges

    def test_bowtie_other_triangle(self, bowtie):
        d, a, cat = pipeline(bowtie)
        e = bowtie.edge_between(1, 2)
        sep = separate(bowtie, a, e)
        assert sep.pivot_vertex == 0
        assert sep.g2_edges == {
            bowtie.edge_between(0, 3),
            bowtie.edge_between(3, 4),
            bowtie.edge_between(4, 0),
        }

    def test_non_antipodal_edge_rejected(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        with pytest.raises(NotAntipodalEdgeError):
            separate(sample_cactus, a, eid["e1"])


class TestLine18Choice:
    def test_sample_forced_choice_for_e2(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        p = build_canonical_partition(d, cat)
        sep = separate(sample_cactus, a, eid["e2"])
        # the pendant edge is the only black edge beyond v6
        assert assert_line18_choice(sep, p) == eid["e8"]

    def test_sample_tie_break_for_e7(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        p = build_canonical_partition(d, cat)
        sep = separate(sample_cactus, a, eid["e7"])
        eligible = p.e_black & sep.g2_edges
        assert eligible == {eid["e9"], eid["e10"], eid["e11"]}
        assert assert_line18_choice(sep, p) == eid["e9"]

    def test_bowtie_choice_is_other_triangles_black_edge(self, bowtie):
        d, a, cat = pipeline(bowtie)
        p = build_canonical_partition(d, cat)
        e = bowtie.edge_between(1, 2)
        sep = separate(bowtie, a, e)
        choice = assert_line18_choice(sep, p)
        assert choice in p.e_black
        assert choice in sep.g2_edges

    def test_fast_lookup_matches_explicit_separation(self, sample_cactus, bowtie):
        # the bowtie's DFS root is a cut vertex shared by two blocks; the
        # generated cacti get random labels and edge orders, so the root
        # lands anywhere and pivots fall both on a block's top cut vertex
        # (the one it shares with an earlier block) and below it
        rng = random.Random(20261019)
        graphs = [sample_cactus, bowtie]
        for seed in range(150):
            spec = GenSpec(seed=seed, target_vertices=rng.randint(3, 60), cycle_lengths=(3, 5, 7))
            h = generate(spec)
            labels = rng.sample(range(10 * h.vertex_count), h.vertex_count)
            pairs = [(labels[u], labels[v]) for u, v in h.edges]
            rng.shuffle(pairs)
            graphs.append(build_graph(pairs))
        pivot_on_top = set()
        for g in graphs:
            d, a, cat = pipeline(g)
            if d.classification.tag is not GraphClass.GENERAL_ODD_CACTUS:
                continue
            p = build_canonical_partition(d, cat)
            fast = _branch_min_black(d, sorted(p.e_black), sorted(a.e_ant), a.opp_vertex)
            for e in sorted(a.e_ant):
                sep = separate(g, a, e)
                assert fast[e] == assert_line18_choice(sep, p)
                pivot_on_top.add(d.block_top[d.block_of_edge[e]] == sep.pivot_vertex)
        assert pivot_on_top == {True, False}


class TestStrongRainbowColoring:
    def test_sample_exact_coloring(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        res = strong_rainbow_coloring(sample_cactus, d, a, cat)
        assert res.src == 7
        assert res.case is SrcCase.FORMULA
        c = {name: res.coloring.color[e] for name, e in eid.items()}
        # cut edges first, then S1, then S2 segments, mirrored antipodally
        assert (c["e8"], c["e9"], c["e10"]) == (1, 2, 3)
        assert c["e4"] == c["e1"] == 4
        assert c["e5"] == 5
        assert c["e6"] == c["e3"] == 6
        assert c["e11"] == c["e13"] == 7
        # antipodal edges reuse the lowest eligible color beyond their pivot
        assert c["e2"] == 1
        assert c["e7"] == 2
        assert c["e12"] == 4
        assert verify_strong_rainbow(sample_cactus, res.coloring, geodetic_hint=True).ok

    def test_sample_stats(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        res = strong_rainbow_coloring(sample_cactus, d, a, cat)
        assert (res.stats.m, res.stats.cut_edges, res.stats.s1_count, res.stats.e_ant) == (
            13, 3, 1, 3,
        )

    def test_c5_pattern(self, c5):
        d, a, cat = pipeline(c5)
        res = strong_rainbow_coloring(c5, d, a, cat)
        assert res.case is SrcCase.ODD_CYCLE
        assert res.src == 3
        ordered = [res.coloring.color[e] for e in d.blocks[0].ordered_edges]
        assert ordered == [1, 2, 3, 1, 2]
        assert verify_strong_rainbow(c5, res.coloring).ok

    def test_triangle_single_color(self, triangle):
        d, a, cat = pipeline(triangle)
        res = strong_rainbow_coloring(triangle, d, a, cat)
        assert res.case is SrcCase.TRIANGLE
        assert res.src == 1
        assert res.coloring.color == (1, 1, 1)

    def test_odd_cycle_colorings_verify(self):
        for n in (5, 7, 9, 11, 13):
            g = build_graph(cycle_edges(n))
            d, a, cat = pipeline(g)
            res = strong_rainbow_coloring(g, d, a, cat)
            assert res.src == (n + 1) // 2
            assert verify_strong_rainbow(g, res.coloring, geodetic_hint=True).ok

    def test_single_edge(self):
        g = build_graph([(0, 1)])
        d, a, cat = pipeline(g)
        res = strong_rainbow_coloring(g, d, a, cat)
        assert res.src == 1
        assert res.case is SrcCase.TREE

    def test_tree_bijection(self):
        g = build_graph([(0, 1), (1, 2), (1, 3), (3, 4)])
        d, a, cat = pipeline(g)
        res = strong_rainbow_coloring(g, d, a, cat)
        assert res.case is SrcCase.TREE
        assert sorted(res.coloring.color) == [1, 2, 3, 4]

    def test_tree_colors_follow_edge_ids(self):
        g = build_graph([(3, 4), (0, 1), (1, 3), (1, 2), (4, 5)])
        d, a, cat = pipeline(g)
        res = strong_rainbow_coloring(g, d, a, cat)
        assert res.case is SrcCase.TREE
        assert res.coloring.color == (1, 2, 3, 4, 5)
        assert (res.stats.m, res.stats.cut_edges, res.stats.s1_count, res.stats.e_ant) == (
            5, 5, 0, 0,
        )

    def test_every_color_used(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        res = strong_rainbow_coloring(sample_cactus, d, a, cat)
        assert set(res.coloring.color) == set(range(1, res.src + 1))

    def test_deterministic(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        first = strong_rainbow_coloring(sample_cactus, d, a, cat)
        second = strong_rainbow_coloring(sample_cactus, d, a, cat)
        assert first.coloring == second.coloring

    def test_rejected_input(self):
        from rainbow_cactus import AntipodalIndex, SegmentCatalog

        g = build_graph(cycle_edges(4))
        d = decompose(g)
        empty_index = AntipodalIndex({}, {}, frozenset())
        with pytest.raises(NotOddCactusError):
            strong_rainbow_coloring(g, d, empty_index, SegmentCatalog((), (0, 0, 0, 0)))


class TestAnalyzeGraph:
    """`analyze_graph` stops at the segment catalog; its `result`, the
    optimal coloring, is built on first read and kept."""

    def test_result_is_built_on_first_read_and_kept(self, sample_cactus, coloring_calls):
        an = analyze_graph(sample_cactus)
        assert coloring_calls == []
        first = an.result
        assert an.result is first
        assert coloring_calls == [1]
        assert first.src == 7 and first.case is SrcCase.FORMULA

    def test_rejected_graph_has_no_result(self, coloring_calls):
        an = analyze_graph(build_graph(cycle_edges(4)))
        assert an.result is None and an.result is None
        assert an.antipodal is None and an.catalog is None
        assert coloring_calls == []

    def test_result_keeps_the_color_count_check(self, sample_cactus, extra_color):
        an = analyze_graph(sample_cactus)
        with pytest.raises(InvariantError, match="color count 8 disagrees with the closed form 7"):
            an.result
