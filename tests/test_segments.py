from __future__ import annotations

import random

import pytest
from conftest import cycle_edges, eid, vid

from rainbow_cactus import (
    GenSpec,
    GraphClass,
    SegmentClass,
    analyze_graph,
    build_antipodal_index,
    build_canonical_partition,
    build_graph,
    decompose,
    enumerate_segments,
    generate,
    src_formula,
)
from rainbow_cactus.graph import bfs_distances
from rainbow_cactus.segments import _walk, trails

S1, S2, S3, S4 = SegmentClass


def segments(cat):
    """(cycle, class, trail elements) per segment of the catalog, cycles in
    block order, trail order within a cycle."""
    return [(w[0], klass, trail) for w in cat.walks for klass, trail in trails(w)]


def ids(trail, kind):
    """The vertex ("v") or edge ("e") ids of a trail, in trail order."""
    return tuple(x for k, x in trail if k == kind)


def nine_cycle_with_pendants():
    # 9-cycle on 1..9 plus pendants at 1 and 3, so exactly those two vertices
    # are cut vertices
    edges = [(i, i + 1) for i in range(1, 9)] + [(9, 1), (1, 10), (3, 11)]
    return build_graph(edges)


class TestAntipodalPairs:
    def test_triangle(self, triangle):
        d = decompose(triangle)
        a = build_antipodal_index(d)
        e01 = triangle.edge_between(0, 1)
        assert a.opp_vertex[e01] == 2
        assert [e for e in d.blocks[0].ordered_edges if a.opp_vertex[e] == 2] == [e01]

    def test_sample_e7_is_opposite_v4(self, sample_cactus):
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        seven = d.blocks[0]
        assert a.opp_vertex[eid["e7"]] == vid["v4"]
        assert [e for e in seven.ordered_edges if a.opp_vertex[e] == vid["v4"]] == [eid["e7"]]

    def test_c5_by_distance(self, c5):
        a = build_antipodal_index(decompose(c5))
        e = c5.edge_between(1, 2)
        w = a.opp_vertex[e]
        assert w == 4
        dist = bfs_distances(c5, w)
        assert dist[1] == dist[2] == 2

    def test_equidistance_everywhere(self, sample_cactus):
        g = sample_cactus
        d = decompose(g)
        a = build_antipodal_index(d)
        for b in d.blocks:
            if not b.is_cycle:
                continue
            for e in b.ordered_edges:
                w = a.opp_vertex[e]
                u, v = g.edges[e]
                dist = bfs_distances(g, w)
                assert dist[u] == dist[v]

    def test_bijection_per_cycle(self, sample_cactus):
        # opp maps each cycle's edges one-to-one onto its vertices
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        for b in d.blocks:
            if not b.is_cycle:
                continue
            image = [a.opp_vertex[e] for e in b.ordered_edges]
            assert sorted(image) == sorted(b.vertices)

    def test_membership_errors(self, sample_cactus):
        # a bridge has no antipodal vertex
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        with pytest.raises(KeyError):
            a.opp_vertex[eid["e10"]]  # the bridge 9-10


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
            k: [trail for _, klass, trail in segments(cat) if klass is k] for k in SegmentClass
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
        assert [(cycle, klass.value) for cycle, klass, _ in segments(cat)] == [
            (0, "S1"), (0, "S2"), (0, "S4"), (0, "S3"),
            (4, "S2"), (4, "S3"),
        ]

    def test_nine_cycle_class_sequence(self):
        g = nine_cycle_with_pendants()
        d = decompose(g)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        nine = [(klass, trail) for cycle, klass, trail in segments(cat)
                if len(d.blocks[cycle].edges) == 9]
        assert [klass.value for klass, _ in nine] == ["S1", "S2", "S4", "S3"]
        s1 = nine[0][1]
        assert ids(s1, "v") == (1,)  # dense id of label 2
        assert len(ids(s1, "e")) == 2

    def test_bowtie_each_triangle_s2_s3(self, bowtie):
        d = decompose(bowtie)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        assert cat.counts == (0, 2, 2, 0)
        for b in d.blocks:
            klasses = [klass.value for cycle, klass, _ in segments(cat) if cycle == b.index]
            assert klasses == ["S2", "S3"]

    def test_bare_cycle_has_no_segments(self):
        g = build_graph(cycle_edges(9))
        d = decompose(g)
        a = build_antipodal_index(d)
        assert segments(enumerate_segments(d, a)) == []


class TestSegmentInvariants:
    def test_pairing_counts_sample(self, sample_cactus):
        d = decompose(sample_cactus)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        for b in d.blocks:
            if not b.is_cycle:
                continue
            segs = [klass for cycle, klass, _ in segments(cat) if cycle == b.index]
            counts = {k: segs.count(k) for k in SegmentClass}
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
            segs = [trail for cycle, _, trail in segments(cat) if cycle == b.index]
            seg_vertices = set().union(*(ids(t, "v") for t in segs))
            seg_edges = set().union(*(ids(t, "e") for t in segs))
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
            (cycle, tuple(sorted(ids(t, "v"))), tuple(sorted(ids(t, "e"))))
            for cycle, _, t in segments(fwd)
        )
        rev_sets = sorted(
            (cycle, tuple(sorted(ids(t, "v"))), tuple(sorted(ids(t, "e"))))
            for cycle, _, t in segments(rev)
        )
        assert fwd_sets == rev_sets

    def test_start_vertex_does_not_matter(self, sample_cactus):
        d = decompose(sample_cactus)
        seven = d.blocks[0]
        verts = seven.vertices
        pattern = bytes(v in d.cut_vertices for v in verts)

        def from_vertex(v):
            walk = _walk(seven.index, verts, seven.ordered_edges, pattern, verts.index(v), False)
            return {trail for _, trail in trails(walk)}

        assert from_vertex(vid["v4"]) == from_vertex(vid["v6"])


@pytest.mark.parametrize("reverse", [False, True])
def test_spans_match_a_naive_walk(reverse):
    """Each walk's spans against a reference that reads the closed trail
    element by element: a vertex is a boundary iff it is a cut vertex, an
    edge iff it is opposite one (a key of `a.pivot`), and the run between
    two boundaries takes its class from their kinds."""
    by_kinds = {("v", "v"): S1, ("v", "e"): S2, ("e", "v"): S3, ("e", "e"): S4}
    rng = random.Random(19)
    general = 0
    for seed in range(200):
        spec = GenSpec(
            seed=seed,
            target_vertices=rng.randint(2, 60),
            cycle_lengths=rng.choice(((3,), (3, 5, 7), (5, 9))),
            pendant_probability=round(rng.random(), 2),
        )
        d = decompose(generate(spec))
        a = build_antipodal_index(d)
        general += d.classification.tag is GraphClass.GENERAL_ODD_CACTUS
        for walk in enumerate_segments(d, a, reverse=reverse).walks:
            _, rv, re_, spans = walk
            # walk vertex q, then the edge after it; the trail starts and
            # closes at a cut vertex, so every run has a boundary each side
            assert rv[0] in d.cut_vertices
            trail = [(kind, q) for q in range(len(rv)) for kind in "ve"] + [("v", 0)]
            want, left, run = [], None, []
            for kind, q in trail:
                if (rv[q] in d.cut_vertices) if kind == "v" else (re_[q] in a.pivot):
                    if run:
                        want.append((by_kinds[left, kind], run))
                    left, run = kind, []
                else:
                    run.append((kind, q))
            assert [(klass, list(range(v0, v1)), list(range(e0, e1))) for klass, v0, v1, e0, e1 in spans] == [
                (klass, [q for k, q in run if k == "v"], [q for k, q in run if k == "e"]) for klass, run in want
            ]
            assert list(trails(walk)) == [
                (klass, tuple((k, rv[q] if k == "v" else re_[q]) for k, q in run)) for klass, run in want
            ]
    assert general >= 150


class TestRecordsStayUnbuilt:
    """src, `analyze_graph` and the canonical partition read the flat cycle
    arrays only: the Block and antipodal-map views are built on first read,
    and a cached view sits in the instance's __dict__ once built."""

    VIEWS = {"blocks", "opp_vertex"}

    @pytest.fixture
    def cactus(self):
        g = generate(GenSpec(seed=11, target_vertices=300, cycle_lengths=(3, 5, 7, 9),
                             pendant_probability=0.35))
        assert decompose(g).classification.tag is GraphClass.GENERAL_ODD_CACTUS
        return g

    def built(self, *objs):
        return {name for o in objs for name in vars(o) if name in self.VIEWS}

    def test_src_formula_builds_no_view(self, cactus):
        d = decompose(cactus)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        assert src_formula(d, cat) > 0
        assert self.built(d, a, cat) == set()
        # the probe sees a view once it is read
        d.blocks, a.opp_vertex
        assert self.built(d, a, cat) == self.VIEWS

    def test_canonical_partition_builds_no_view(self, cactus):
        # the partition reads the catalog's walks, not the Block or antipodal-map views
        d = decompose(cactus)
        a = build_antipodal_index(d)
        cat = enumerate_segments(d, a)
        assert build_canonical_partition(d, cat).e_black
        assert self.built(d, a, cat) == set()

    def test_analyze_graph_builds_no_view(self, cactus):
        an = analyze_graph(cactus)
        assert an.result.src > 0
        assert self.built(an.decomposition, an.antipodal, an.catalog) == set()
