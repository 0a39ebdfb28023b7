from __future__ import annotations

import pytest
from conftest import cycle_edges, eid, vid

from rainbow_cactus import (
    SegmentClass,
    antipodal_edge,
    antipodal_vertex,
    bfs_distances,
    build_antipodal_index,
    build_graph,
    decompose,
    enumerate_segments,
)
from rainbow_cactus.errors import EdgeNotInCycleError, VertexNotInCycleError
from rainbow_cactus.segments import _cycle_segments


def nine_cycle_with_pendants():
    # 9-cycle on 1..9 plus pendants at 1 and 3, so exactly those two vertices
    # are cut vertices
    edges = [(i, i + 1) for i in range(1, 9)] + [(9, 1), (1, 10), (3, 11)]
    return build_graph(edges)


class TestAntipodalPairs:
    def test_triangle(self, triangle):
        d = decompose(triangle)
        b = d.blocks[0]
        e01 = triangle.edge_between(0, 1)
        assert antipodal_vertex(b, e01) == 2
        assert antipodal_edge(b, 2) == e01

    def test_sample_e7_is_opposite_v4(self, sample_cactus):
        d = decompose(sample_cactus)
        seven = d.blocks[0]
        assert antipodal_vertex(seven, eid["e7"]) == vid["v4"]
        assert antipodal_edge(seven, vid["v4"]) == eid["e7"]

    def test_c5_by_distance(self, c5):
        d = decompose(c5)
        b = d.blocks[0]
        e = c5.edge_between(1, 2)
        w = antipodal_vertex(b, e)
        assert w == 4
        dist = bfs_distances(c5, w)
        assert dist[1] == dist[2] == 2

    def test_equidistance_everywhere(self, sample_cactus):
        g = sample_cactus
        d = decompose(g)
        for b in d.blocks:
            if not b.is_cycle:
                continue
            for e in b.ordered_edges:
                w = antipodal_vertex(b, e)
                u, v = g.edges[e]
                dist = bfs_distances(g, w)
                assert dist[u] == dist[v]

    def test_round_trip_bijection(self, sample_cactus):
        d = decompose(sample_cactus)
        for b in d.blocks:
            if not b.is_cycle:
                continue
            for e in b.ordered_edges:
                assert antipodal_edge(b, antipodal_vertex(b, e)) == e
            for v in b.vertices:
                assert antipodal_vertex(b, antipodal_edge(b, v)) == v

    def test_membership_errors(self, sample_cactus):
        d = decompose(sample_cactus)
        seven = d.blocks[0]
        with pytest.raises(EdgeNotInCycleError):
            antipodal_vertex(seven, eid["e11"])
        with pytest.raises(VertexNotInCycleError):
            antipodal_edge(seven, vid["v10"])


class TestEAnt:
    def test_sample(self, sample_cactus):
        d = decompose(sample_cactus)
        assert build_antipodal_index(d).e_ant == {eid["e2"], eid["e7"], eid["e12"]}

    def test_bowtie_edges_opposite_shared_vertex(self, bowtie):
        d = decompose(bowtie)
        e_ant = build_antipodal_index(d).e_ant
        assert e_ant == {bowtie.edge_between(1, 2), bowtie.edge_between(3, 4)}

    def test_bare_cycle_empty(self):
        g = build_graph(cycle_edges(7))
        assert build_antipodal_index(decompose(g)).e_ant == frozenset()


class TestEnumerateSegments:
    def test_sample_catalog(self, sample_cactus):
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        assert cat.counts == (1, 2, 2, 1)
        by_class = {
            k: [s.elements for s in cat.of_class(k)] for k in SegmentClass
        }
        assert by_class[SegmentClass.S1] == [
            (("e", eid["e4"]), ("v", vid["v5"]), ("e", eid["e5"])),
        ]
        assert by_class[SegmentClass.S2] == [
            (("e", eid["e6"]), ("v", vid["v7"])),
            (("e", eid["e11"]), ("v", vid["v11"])),
        ]
        assert by_class[SegmentClass.S3] == [
            (("v", vid["v3"]), ("e", eid["e3"])),
            (("v", vid["v12"]), ("e", eid["e13"])),
        ]
        # the lone S4 segment contains e1, the edge antipodal to v5
        assert by_class[SegmentClass.S4] == [
            (("v", vid["v1"]), ("e", eid["e1"]), ("v", vid["v2"])),
        ]

    def test_sample_trail_order(self, sample_cactus):
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        # 7-cycle first (block 0), then the triangle; trail order within each
        assert [(s.cycle, s.klass.value) for s in cat.segments] == [
            (0, "S1"), (0, "S2"), (0, "S4"), (0, "S3"),
            (4, "S2"), (4, "S3"),
        ]

    def test_nine_cycle_class_sequence(self):
        g = nine_cycle_with_pendants()
        d = decompose(g)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        nine = [s for s in cat.segments if len(d.blocks[s.cycle].edges) == 9]
        assert [s.klass.value for s in nine] == ["S1", "S2", "S4", "S3"]
        s1 = nine[0]
        assert s1.vertices == (1,)  # dense id of label 2
        assert len(s1.edges) == 2

    def test_bowtie_each_triangle_s2_s3(self, bowtie):
        d = decompose(bowtie)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        assert cat.counts == (0, 2, 2, 0)
        for b in d.blocks:
            klasses = [s.klass.value for s in cat.for_cycle(b.index)]
            assert klasses == ["S2", "S3"]

    def test_bare_cycle_has_no_segments(self):
        g = build_graph(cycle_edges(9))
        d = decompose(g)
        a = build_antipodal_index(d)
        assert enumerate_segments(d, a).segments == ()


class TestSegmentInvariants:
    def test_pairing_counts_sample(self, sample_cactus):
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        for b in d.blocks:
            if not b.is_cycle:
                continue
            segs = cat.for_cycle(b.index)
            counts = {k: sum(1 for s in segs if s.klass is k) for k in SegmentClass}
            assert counts[SegmentClass.S1] == counts[SegmentClass.S4]
            assert counts[SegmentClass.S2] == counts[SegmentClass.S3]

    def test_partition_of_cycle_elements(self, sample_cactus):
        g = sample_cactus
        d = decompose(g)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        for b in d.blocks:
            if not b.is_cycle:
                continue
            segs = cat.for_cycle(b.index)
            seg_vertices = set().union(*(s.vertex_set for s in segs))
            seg_edges = set().union(*(s.edge_set for s in segs))
            cuts_in = set(b.vertices) & d.cut_vertices
            ant_in = set(b.edges) & a.e_ant
            assert seg_vertices | cuts_in == set(b.vertices)
            assert not seg_vertices & cuts_in
            assert seg_edges | ant_in == set(b.edges)
            assert not seg_edges & ant_in

    def test_reversal_swaps_s2_s3(self, sample_cactus):
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        fwd = enumerate_segments(d, a)
        rev = enumerate_segments(d, a, reverse=True)
        assert fwd.counts[0] == rev.counts[0]  # S1 fixed
        assert fwd.counts[3] == rev.counts[3]  # S4 fixed
        assert fwd.counts[1] == rev.counts[2]
        assert fwd.counts[2] == rev.counts[1]
        fwd_sets = sorted(
            (s.cycle, tuple(sorted(s.vertex_set)), tuple(sorted(s.edge_set)))
            for s in fwd.segments
        )
        rev_sets = sorted(
            (s.cycle, tuple(sorted(s.vertex_set)), tuple(sorted(s.edge_set)))
            for s in rev.segments
        )
        assert fwd_sets == rev_sets

    def test_start_vertex_does_not_matter(self, sample_cactus):
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        seven = d.blocks[0]
        from_low = _cycle_segments(seven, d.cut_vertices, start=vid["v4"])
        from_high = _cycle_segments(seven, d.cut_vertices, start=vid["v6"])
        assert {s.elements for s in from_low} == {s.elements for s in from_high}
