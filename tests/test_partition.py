from __future__ import annotations

import random

import pytest
from conftest import eid, path_edges, vid

from rainbow_cactus import (
    BlackWhitePartition,
    GenSpec,
    GraphClass,
    SegmentClass,
    black_edges,
    brute_force_src,
    build_antipodal_index,
    build_canonical_partition,
    build_graph,
    classify,
    decompose,
    enumerate_segments,
    generate,
    graph_leaves,
    lower_bound,
    strong_rainbow_coloring,
    validate_partition,
)
from rainbow_cactus.decomposition import leaf_blocks
from rainbow_cactus.errors import InvalidPartitionError
from rainbow_cactus.graph import all_shortest_paths
from rainbow_cactus.segments import trails


def pipeline(g):
    d = decompose(g)
    a = build_antipodal_index(d)
    cat = enumerate_segments(d, a)
    return d, a, cat


class TestCanonicalPartition:
    def test_sample_exact_sets(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        p = build_canonical_partition(d, cat)
        assert p.e_black == {
            eid["e4"], eid["e5"], eid["e6"], eid["e8"], eid["e9"], eid["e10"], eid["e11"]
        }
        assert p.e_white == {
            eid["e1"], eid["e2"], eid["e3"], eid["e7"], eid["e12"], eid["e13"]
        }
        assert p.v_black == {vid[f"v{i}"] for i in (4, 5, 6, 7, 8, 9, 10, 11)}
        assert p.v_white == {vid[f"v{i}"] for i in (1, 2, 3, 12)}

    def test_sample_validates(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        p = build_canonical_partition(d, cat)
        report = validate_partition(sample_cactus, d, a, p)
        assert report.ok
        assert lower_bound(p, report) == 7

    def test_tree_all_black(self):
        g = build_graph(path_edges(5))
        d, a, cat = pipeline(g)
        p = build_canonical_partition(d, cat)
        assert p.v_black == frozenset(range(5))
        assert p.e_black == frozenset(range(4))
        assert not p.v_white and not p.e_white
        assert validate_partition(g, d, a, p).ok
        assert lower_bound(p) == g.edge_count

    def test_bowtie_two_black_cycle_edges(self, bowtie):
        d, a, cat = pipeline(bowtie)
        p = build_canonical_partition(d, cat)
        assert len(p.e_black) == 2
        assert p.e_black.isdisjoint(a.e_ant)
        assert validate_partition(bowtie, d, a, p).ok
        # the brute-force optimum confirms the bound is tight here
        assert lower_bound(p) == brute_force_src(bowtie) == 2

    def test_leaf_blocks_contain_black_edge(self, sample_cactus):
        d, a, cat = pipeline(sample_cactus)
        p = build_canonical_partition(d, cat)
        for b in leaf_blocks(d):
            assert b.edges & p.e_black

    @pytest.mark.parametrize("reverse", [False, True])
    def test_walks_match_segment_records(self, reverse):
        # the partition reads the walks' segment ranges; `trails` is the
        # reference: S1/S2 runs black, S3/S4 runs and E_ant white
        general = 0
        for seed in range(20):
            g = generate(GenSpec(seed=seed, target_vertices=10 + 3 * seed,
                                 cycle_lengths=(3, 5, 7, 9), pendant_probability=0.3))
            d = decompose(g)
            if d.classification.tag is GraphClass.ODD_CYCLE:
                continue
            general += d.classification.tag is GraphClass.GENERAL_ODD_CACTUS
            a = build_antipodal_index(d)
            cat = enumerate_segments(d, a, reverse=reverse)
            segs = [(klass, trail) for w in cat.walks for klass, trail in trails(w)]
            black = [t for k, t in segs if k in (SegmentClass.S1, SegmentClass.S2)]
            white = [t for k, t in segs if k in (SegmentClass.S3, SegmentClass.S4)]
            p = build_canonical_partition(d, cat)
            assert p.v_black == d.cut_vertices | graph_leaves(d) | {x for t in black for k, x in t if k == "v"}
            assert p.v_white == {x for t in white for k, x in t if k == "v"}
            assert p.e_black == d.cut_edges | {x for t in black for k, x in t if k == "e"}
            assert p.e_white == a.e_ant | {x for t in white for k, x in t if k == "e"}
        assert general >= 15

    def test_leaves_helper(self, sample_cactus):
        d = decompose(sample_cactus)
        assert graph_leaves(d) == {vid["v8"]}


class TestValidatePartition:
    def test_black_edge_with_white_endpoint_fails_property_2(self, sample_cactus):
        g = sample_cactus
        d, a, cat = pipeline(g)
        base = build_canonical_partition(d, cat)
        # recolor v5 white without touching its incident black edges
        bad = BlackWhitePartition(
            base.v_black - {vid["v5"]},
            base.v_white | {vid["v5"]},
            base.e_black,
            base.e_white,
        )
        report = validate_partition(g, d, a, bad)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["black_edge_endpoints"].passed
        witness_edge = by_name["black_edge_endpoints"].witness[0]
        assert witness_edge in (eid["e4"], eid["e5"])

    def test_all_white_fails_property_1_on_cycles(self, sample_cactus):
        g = sample_cactus
        d, a, cat = pipeline(g)
        p = BlackWhitePartition(
            frozenset(),
            frozenset(range(g.vertex_count)),
            frozenset(),
            frozenset(range(g.edge_count)),
        )
        report = validate_partition(g, d, a, p)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["antipodal_parity"].passed
        assert by_name["black_edge_endpoints"].passed  # vacuous
        assert by_name["black_edges_one_side"].passed  # no black edges at all

    def test_all_white_tree_passes_vacuously(self):
        g = build_graph(path_edges(4))
        d, a, cat = pipeline(g)
        p = BlackWhitePartition(
            frozenset(),
            frozenset(range(g.vertex_count)),
            frozenset(),
            frozenset(range(g.edge_count)),
        )
        report = validate_partition(g, d, a, p)
        assert report.ok
        assert lower_bound(p, report) == 0

    def test_property_4_split_black_edges(self):
        # star of three edges: paint the hub white but keep two opposite
        # edges black, violating the one-component requirement
        g = build_graph([(0, 1), (0, 2), (0, 3)])
        d, a, cat = pipeline(g)
        p = BlackWhitePartition(
            frozenset({1, 2, 3}),
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({2}),
        )
        report = validate_partition(g, d, a, p)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["black_edges_one_side"].passed

    @staticmethod
    def path_split_at(v, black):
        """Path 0-1-2-3-4-5 with the black edges `black`, their endpoints
        black, and every other vertex and edge white, cut vertex v among them."""
        g = build_graph(path_edges(6))
        d, a, cat = pipeline(g)
        e_black = frozenset(g.edge_between(x, x + 1) for x in black)
        v_black = frozenset(x for e in e_black for x in g.edges[e])
        assert v not in v_black and v in d.cut_vertices
        p = BlackWhitePartition(
            v_black,
            frozenset(range(6)) - v_black,
            e_black,
            frozenset(range(g.edge_count)) - e_black,
        )
        return g, validate_partition(g, d, a, p)

    def test_property_4_black_edges_beside_a_white_cut_vertex(self):
        # white cut vertices 3 and 4; the black edges 0-1 and 1-2 avoid
        # both and lie in one component of G - 3 and of G - 4
        g, report = self.path_split_at(3, [0, 1])
        assert report.ok

    def test_property_4_black_edges_on_both_sides(self):
        # the black edges 0-1 and 3-4 avoid the white cut vertex 2 but lie
        # on both sides of it: the second one is the witness
        g, report = self.path_split_at(2, [0, 3])
        assert [(c.name, c.witness) for c in report.failures()] == [
            ("black_edges_one_side", (2, g.edge_between(3, 4)))
        ]

    def test_malformed_partition_raises(self, sample_cactus):
        g = sample_cactus
        d, a, cat = pipeline(g)
        p = BlackWhitePartition(frozenset({0}), frozenset({0}), frozenset(), frozenset())
        with pytest.raises(ValueError):
            validate_partition(g, d, a, p)

    def test_lower_bound_rejects_failed_report(self, sample_cactus):
        g = sample_cactus
        d, a, cat = pipeline(g)
        p = BlackWhitePartition(
            frozenset(),
            frozenset(range(g.vertex_count)),
            frozenset(),
            frozenset(range(g.edge_count)),
        )
        report = validate_partition(g, d, a, p)
        with pytest.raises(InvalidPartitionError):
            lower_bound(p, report)


class TestBlackPairNecessity:
    def test_every_black_pair_on_a_shortest_path(self, sample_cactus):
        g = sample_cactus
        d, a, cat = pipeline(g)
        p = build_canonical_partition(d, cat)
        path_sets = []
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                (path,) = all_shortest_paths(g, u, v)
                path_sets.append(frozenset(path.edges))
        blacks = sorted(p.e_black)
        for i, b1 in enumerate(blacks):
            for b2 in blacks[i + 1 :]:
                assert any(b1 in s and b2 in s for s in path_sets), (b1, b2)


class TestOneHome:
    def test_e_ant_black_edges_and_colours_agree(self):
        # E_ant comes from the antipodal index and the black edges from
        # black_edges; check both against the segment walk, and that the
        # colouring numbers colours along the black edge list
        rng = random.Random(7)
        bare_cycles = 0
        for seed in range(200):
            spec = GenSpec(
                seed=seed,
                target_vertices=rng.randint(2, 60),
                cycle_lengths=rng.choice(((3,), (3, 5, 7), (5, 9))),
                pendant_probability=round(rng.random(), 2),
            )
            g = generate(spec)
            d, a, cat = pipeline(g)
            assert cat.e_ant == a.e_ant
            cycle_edges = {e for b in d.blocks if b.is_cycle for e in b.ordered_edges}
            seg_edges = {x for w in cat.walks for _, t in trails(w) for k, x in t if k == "e"}
            res = strong_rainbow_coloring(g, d, a, cat)
            if classify(g, d).tag is GraphClass.ODD_CYCLE:
                bare_cycles += 1
                continue
            assert cycle_edges - seg_edges == cat.e_ant
            blacks = black_edges(d, cat)
            assert build_canonical_partition(d, cat).e_black == frozenset(blacks)
            assert len(set(blacks)) == len(blacks) == res.src
            assert [res.coloring.color[e] for e in blacks] == list(range(1, res.src + 1))
        assert bare_cycles < 20
