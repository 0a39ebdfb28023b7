"""The invariant suite reports a broken claim by name, as InvariantViolation."""

from __future__ import annotations

import inspect
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from conftest import SAMPLE_EDGES, bowtie_edges, cycle_edges, eid, vid

from rainbow_cactus import (
    GenSpec,
    Graph,
    GraphClass,
    Path,
    VerificationOutcome,
    analyze_graph,
    build_antipodal_index,
    build_graph,
    decompose,
    enumerate_segments,
    generate,
    verify_strong_rainbow,
)
from rainbow_cactus import decomposition
from rainbow_cactus import selftest as st
from rainbow_cactus.partition import BlackWhitePartition
from rainbow_cactus.segments import SegmentClass
from rainbow_cactus.selftest import (
    InvariantViolation,
    check_blocks,
    check_graph_core,
    check_instance,
    check_segments,
    check_shortest_paths,
    check_recogniser,
    check_verify_loops_agree,
    run_selftest,
)


def violated(check, *args) -> str:
    with pytest.raises(InvariantViolation) as info:
        check(*args)
    return info.value.invariant


@pytest.mark.parametrize(
    "edges", [cycle_edges(4), cycle_edges(4) + [(2, 4)]], ids=["c4", "c4+pendant"]
)
def test_check_instance_reports_a_non_geodetic_graph(edges):
    # an even cycle is rejected before any path check; no other error escapes
    assert violated(check_instance, build_graph(edges)) == "generated_graph_accepted"


def test_path_pass_names_the_second_geodesic():
    c4 = build_graph(cycle_edges(4))
    with pytest.raises(InvariantViolation) as info:
        check_shortest_paths(c4)
    assert info.value.invariant == "geodetic_unique_path"
    assert info.value.detail == "pair (0,2) has several"


def test_path_length_against_bfs(c5, monkeypatch):
    monkeypatch.setattr(st, "_geodesics", lambda g, du, u, v: iter([Path((u, v), (0,))]))
    assert violated(check_shortest_paths, c5) == "unique_path_length_matches_bfs"


def test_black_pair_off_every_shortest_path(triangle):
    # every shortest path of a triangle is one edge, so no two edges share one
    p = BlackWhitePartition(frozenset(), frozenset(), frozenset({0, 1}), frozenset({2}))
    assert violated(check_shortest_paths, triangle, p) == "black_pair_shares_shortest_path"


def test_edge_missing_from_an_adjacency_list():
    # the path 0-1-2 with edge 1 missing from the row of vertex 2
    tree = ([0, 0, 1], [-1, 0, 1], [0, 1, 2])
    g = Graph(3, ((0, 1), (1, 2)), ((1, 0), (0, 0, 2, 1), ()), (0, 1, 2), tree)
    assert violated(check_graph_core, g) == "edge_in_two_adjacency_lists"


def test_kept_tree_that_is_no_bfs_tree(c5):
    # C5 0-1-2-3-4: vertex 2 hung from vertex 3 is two steps too deep
    par_v, par_e, order = c5.tree
    assert par_v[2] == 1
    wrong = replace(c5, tree=([0, 0, 3, 4, 0], [-1, 0, 2, 3, 4], [0, 1, 4, 3, 2]))
    assert violated(check_graph_core, wrong) == "kept_tree_is_bfs_tree"


def segment_args(g):
    """check_segments' arguments for g: the graph, its decomposition,
    antipodal index and forward catalog."""
    d = decompose(g)
    a = build_antipodal_index(d)
    return g, d, a, enumerate_segments(d, a)


def relabelled(cat, klass_map=None, edge_map=None):
    """A copy of catalog `cat` whose walks carry renamed segment classes and
    edge ids."""
    klass_map, edge_map = klass_map or {}, edge_map or {}
    out = replace(cat)
    # `walks` is a cached property: a value in the instance dict is read as built
    out.__dict__["walks"] = tuple(
        (b, rv, tuple(edge_map.get(e, e) for e in re_), tuple((klass_map.get(k, k), *r) for k, *r in spans))
        for b, rv, re_, spans in cat.walks
    )
    return out


def test_segment_check_passes_at_size():
    g = generate(GenSpec(seed=20260810, target_vertices=10_000, cycle_lengths=(3, 5, 7, 9),
                         pendant_probability=0.35))
    args = segment_args(g)
    assert args[1].classification.tag is GraphClass.GENERAL_ODD_CACTUS
    check_segments(*args)


def test_catalog_counts_off_the_segments(sample_cactus):
    g, d, a, cat = segment_args(sample_cactus)
    assert cat.counts == (1, 2, 2, 1)
    doctored = replace(cat, counts=(2, 1, 2, 1))
    assert violated(check_segments, g, d, a, doctored) == "counts_match_views"


def test_reverse_catalog_s1_count_off(sample_cactus, monkeypatch):
    # check_segments builds the reverse catalog itself; one more S1 there
    # than its segments hold breaks the S1 + S4 sum across orientations too
    build = st.enumerate_segments

    def off_by_one(d, a, *, reverse=False):
        c = build(d, a, reverse=reverse)
        return replace(c, counts=(c.counts[0] + 1, *c.counts[1:])) if reverse else c

    monkeypatch.setattr(st, "enumerate_segments", off_by_one)
    with pytest.raises(InvariantViolation) as info:
        check_segments(*segment_args(sample_cactus))
    assert info.value.invariant == "counts_match_views"
    assert info.value.detail.startswith("reverse=True: counts (2, 2, 2, 1)")


def test_pivot_off_the_antipodal_view(sample_cactus):
    g, d, a, cat = segment_args(sample_cactus)
    e7, e2 = eid["e7"], eid["e2"]
    doctored = replace(a, pivot={**a.pivot, e7: a.pivot[e2]})
    assert violated(check_segments, g, d, doctored, cat) == "counts_match_views"


def test_e_ant_off_the_antipodal_view(sample_cactus):
    # E_ant without e7, handed on to the catalog as `enumerate_segments` does
    g, d, a, _ = segment_args(sample_cactus)
    doctored = replace(a, e_ant=a.e_ant - {eid["e7"]})
    assert violated(check_segments, g, d, doctored, enumerate_segments(d, doctored)) == "counts_match_views"


def test_segment_edge_from_another_cycle(sample_cactus):
    # e4 (7-cycle) and e11 (triangle) trade places: the held edges and the
    # class counts stay the same, but each cycle now holds the other's edge
    g, d, a, cat = segment_args(sample_cactus)
    doctored = relabelled(cat, edge_map={eid["e4"]: eid["e11"], eid["e11"]: eid["e4"]})
    assert violated(check_segments, g, d, a, doctored) == "cycle_edges_partitioned"


def test_antipodal_image_of_another_class():
    # a 9-cycle with cut vertices 1 and 3 has one segment of each class; with
    # S1 and S2 renamed the counts still hold, but S4 is no image of an S2
    g = build_graph([(i, i + 1) for i in range(1, 9)] + [(9, 1), (1, 10), (3, 11)])
    swap = {SegmentClass.S1: SegmentClass.S2, SegmentClass.S2: SegmentClass.S1}
    g, d, a, cat = segment_args(g)
    assert violated(check_segments, g, d, a, relabelled(cat, klass_map=swap)) == "antipodal_image_class"


def test_s2_one_edge_longer_than_its_s3_partner():
    # the same 9-cycle with S1 renamed S2 and S4 renamed S3: counts, classes
    # and pairing still hold, but the new S2 has one edge more than its S3
    g = build_graph([(i, i + 1) for i in range(1, 9)] + [(9, 1), (1, 10), (3, 11)])
    rename = {SegmentClass.S1: SegmentClass.S2, SegmentClass.S4: SegmentClass.S3}
    g, d, a, cat = segment_args(g)
    assert cat.counts == (1, 1, 1, 1)
    doctored = relabelled(replace(cat, counts=(0, 2, 2, 0)), klass_map=rename)
    assert violated(check_segments, g, d, a, doctored) == "s2_s3_equal_edges"


def test_reversal_that_keeps_s2(sample_cactus, monkeypatch):
    monkeypatch.setattr(st, "_REVERSED", {k: k for k in SegmentClass})
    assert violated(check_segments, *segment_args(sample_cactus)) == "reversal_swaps_s2_s3_only"


def test_start_vertex_that_changes_the_segments(sample_cactus, monkeypatch):
    # the walk from the second cut vertex runs the other way round
    walk = st._walk
    monkeypatch.setattr(st, "_walk", lambda b, vs, es, pattern, s, rev: walk(b, vs, es, pattern, s, not rev))
    assert violated(check_segments, *segment_args(sample_cactus)) == "start_vertex_invariant"


def test_structural_walk_that_misses_a_fault(sample_cactus, monkeypatch):
    # the optimal coloring passes both routes; the BFS route catches the
    # planted fault that this structural walk lets through
    monkeypatch.setattr(st, "_cactus_walks", lambda *args: VerificationOutcome(True))
    coloring = analyze_graph(sample_cactus).result.coloring
    outcome = verify_strong_rainbow(sample_cactus, coloring)
    cactus = check_recogniser(sample_cactus, True)
    assert violated(check_verify_loops_agree, sample_cactus, coloring, outcome, cactus) == "pair_routes_agree"


def block_args(g):
    """check_blocks' arguments for g: the graph, its decomposition, antipodal
    index and the recogniser's blocks."""
    d = decompose(g)
    return g, d, build_antipodal_index(d), check_recogniser(g, True)


def test_block_check_passes_at_size():
    g = generate(GenSpec(seed=20260810, target_vertices=10_000, cycle_lengths=(3, 5, 7, 9),
                         pendant_probability=0.35))
    check_blocks(*block_args(g))


def test_selftest_passes_beyond_the_size_ceilings():
    # seeds 0 and 1 give 103 and 147 vertices, past every quadratic check
    assert run_selftest(seeds=3, max_n=200).ok


def test_selftest_reaches_the_reversed_canonical_order():
    # `decompose` lists a cycle in canonical order either as its DFS found
    # it or reversed; labels counted down on odd seeds reach the second
    # branch, which generated labels never do
    code = decomposition.decompose.__wrapped__.__code__
    lines, first = inspect.getsourcelines(code)
    branch = first + next(i for i, line in enumerate(lines) if "verts[i::-1]" in line)
    hits = []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno == branch:
                hits.append(frame.f_lineno)
            return line

        return line

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        report = run_selftest(seeds=4, max_n=30)
    finally:
        sys.settrace(outer)
    assert report.ok
    assert hits


def test_block_check_reads_a_cycle_either_way_round():
    # with the labels counted down, the recogniser walks the 7-cycle from
    # its top against the canonical order
    g, d, a, cactus = block_args(build_graph([(100 - u, 100 - v) for u, v in SAMPLE_EDGES]))
    vs = next(vs for _, vs, _ in d.cycles() if len(vs) == 7)
    rv = next(rv for rv in cactus.verts if len(rv) == 7)
    s = vs.index(rv[0])
    assert tuple(rv) == vs[s::-1] + vs[:s:-1]
    check_blocks(g, d, a, cactus)


@pytest.mark.parametrize(
    "doctor",
    [
        # blocks 1 (pendant 6-8) and 2 (bridge 4-9) trade tops
        lambda d: replace(d, block_top=(-1, vid["v4"], vid["v6"], vid["v9"], vid["v10"])),
        # the triangle hangs from the bridge 9-10, block 3, not from 4-9
        lambda d: replace(d, block_parent=(-1, 0, 0, 2, 2)),
        # two neighbours on the 7-cycle trade places, its edges stay put
        lambda d: replace(d, cycle_vertices=(d.cycle_vertices[1], d.cycle_vertices[0], *d.cycle_vertices[2:])),
        # the leaf 8 marked as a cut vertex
        lambda d: replace(d, is_cut=bytes(c or v == vid["v8"] for v, c in enumerate(d.is_cut))),
        lambda d: replace(d, cut_edges=d.cut_edges - {eid["e8"]}),
    ],
    ids=["block_top", "block_parent", "cycle_vertices", "is_cut", "cut_edges"],
)
def test_decomposition_off_the_recogniser(sample_cactus, doctor):
    g, d, a, cactus = block_args(sample_cactus)
    assert violated(check_blocks, g, doctor(d), a, cactus) == "blocks_match_recogniser"


def test_block_at_vertex_0_hangs_from_block_0():
    # two triangles and a pendant edge at vertex 0: blocks 1 and 2 hang
    # there, from block 0 alone
    g, d, a, cactus = block_args(build_graph(bowtie_edges() + [(0, 5)]))
    assert d.block_top == (-1, 0, 0) and d.block_parent == (-1, 0, 0)
    assert violated(check_blocks, g, replace(d, block_parent=(-1, 0, 1)), a, cactus) == "blocks_match_recogniser"


@pytest.mark.parametrize(
    ("edge", "vertex"),
    # e1's opposite vertex on the 7-cycle is 5; a pendant edge has none
    [("e1", "v4"), ("e8", "v6")],
    ids=["cycle_edge", "bridge"],
)
def test_antipodal_map_off_the_recogniser(sample_cactus, edge, vertex):
    g, d, a, cactus = block_args(sample_cactus)
    doctored = SimpleNamespace(opp_vertex={**a.opp_vertex, eid[edge]: vid[vertex]})
    assert violated(check_blocks, g, d, doctored, cactus) == "antipodal_matches_recogniser"
