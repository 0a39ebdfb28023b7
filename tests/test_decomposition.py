from __future__ import annotations

import gc
import random

import pytest
from conftest import cycle_edges, eid, k4_edges, path_edges, vid

from rainbow_cactus import (
    BlockKind,
    GenSpec,
    GraphClass,
    RejectionReason,
    build_antipodal_index,
    build_graph,
    classify,
    decompose,
    enumerate_segments,
    generate,
    leaf_blocks,
)
from rainbow_cactus.errors import NotOddCactusError


def _connected_without(g, removed_vertex=None, removed_edge=None):
    """Component id per vertex of g minus one vertex or one edge (BFS)."""
    comp = [-1] * g.vertex_count
    label = 0
    for s in range(g.vertex_count):
        if s == removed_vertex or comp[s] >= 0:
            continue
        comp[s] = label
        stack = [s]
        while stack:
            x = stack.pop()
            for w, e in g.adjacency[x]:
                if w != removed_vertex and e != removed_edge and comp[w] < 0:
                    comp[w] = label
                    stack.append(w)
        label += 1
    return comp


def _reference_blocks(g):
    """Blocks as edge sets, by brute force: two edges share a block unless
    deleting a single vertex separates what is left of them."""
    parts = [_connected_without(g, removed_vertex=x) for x in range(g.vertex_count)]
    same = {}
    for e in range(g.edge_count):
        for f in range(g.edge_count):
            joined = True
            for x, comp in enumerate(parts):
                ce = {comp[y] for y in g.edges[e] if y != x}
                cf = {comp[y] for y in g.edges[f] if y != x}
                if not ce & cf:
                    joined = False
                    break
            same[e, f] = joined
    return {frozenset(f for f in range(g.edge_count) if same[e, f]) for e in range(g.edge_count)}


def _random_connected_edges(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    pairs = list(edges)
    rng.shuffle(pairs)
    return pairs


class TestDecompose:
    def test_path_graph(self):
        g = build_graph(path_edges(3))
        d = decompose(g)
        assert d.cut_vertices == {1}
        assert len(d.blocks) == 2
        assert all(b.kind is BlockKind.CUT_EDGE for b in d.blocks)
        assert d.cut_edges == {0, 1}

    def test_bare_cycle(self, c5):
        d = decompose(c5)
        assert d.cut_vertices == frozenset()
        assert len(d.blocks) == 1
        b = d.blocks[0]
        assert b.kind is BlockKind.CYCLE
        assert b.length == 5

    def test_sample_cut_vertices(self, sample_cactus):
        d = decompose(sample_cactus)
        # v9 sits between two bridges, so it is a cut vertex alongside the
        # three vertices where a cycle meets the rest of the graph
        assert d.cut_vertices == {vid["v4"], vid["v6"], vid["v9"], vid["v10"]}

    def test_sample_blocks(self, sample_cactus):
        d = decompose(sample_cactus)
        kinds = [(b.kind, b.length) for b in d.blocks]
        assert kinds == [
            (BlockKind.CYCLE, 7),
            (BlockKind.CUT_EDGE, 1),
            (BlockKind.CUT_EDGE, 1),
            (BlockKind.CUT_EDGE, 1),
            (BlockKind.CYCLE, 3),
        ]
        assert d.cut_edges == {eid["e8"], eid["e9"], eid["e10"]}
        assert d.blocks[0].edges == frozenset(range(7))
        assert d.blocks[4].edges == {eid["e11"], eid["e12"], eid["e13"]}

    def test_sample_canonical_cycle_order(self, sample_cactus):
        d = decompose(sample_cactus)
        seven = d.blocks[0]
        # starts at the lowest id, moves toward its lower-id neighbor
        assert seven.vertices == tuple(vid[f"v{i}"] for i in range(1, 8))
        assert seven.ordered_edges == tuple(eid[f"e{i}"] for i in range(1, 8))
        tri = d.blocks[4]
        assert tri.vertices == (vid["v10"], vid["v11"], vid["v12"])
        assert tri.ordered_edges == (eid["e11"], eid["e12"], eid["e13"])

    def test_every_edge_in_one_block(self, sample_cactus):
        d = decompose(sample_cactus)
        assert sum(b.length for b in d.blocks) == sample_cactus.edge_count
        for e in range(sample_cactus.edge_count):
            assert e in d.blocks[d.block_of_edge[e]].edges

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(20261019)
        graphs = [build_graph(_random_connected_edges(rng, rng.randint(2, 9))) for _ in range(150)]
        graphs += [
            generate(GenSpec(seed=s, target_vertices=rng.randint(3, 24), cycle_lengths=(3, 5, 7)))
            for s in range(50)
        ]
        for g in graphs:
            d = decompose(g)
            comp = _connected_without(g)
            cuts = {
                x for x in range(g.vertex_count)
                if len({c for c in _connected_without(g, removed_vertex=x) if c >= 0}) > 1
            }
            bridges = {e for e in range(g.edge_count) if _connected_without(g, removed_edge=e) != comp}
            assert d.cut_vertices == cuts
            assert d.cut_edges == bridges
            assert {b.edges for b in d.blocks} == _reference_blocks(g)
            for b in d.blocks:
                assert [d.block_of_edge[e] for e in sorted(b.edges)] == [b.index] * b.length
                ends = {y for e in b.edges for y in g.edges[e]}
                if b.kind is BlockKind.CYCLE:
                    vs, es = b.vertices, b.ordered_edges
                    assert len(vs) == len(ends) == b.length >= 3
                    assert vs[0] == min(vs) and vs[1] < vs[-1]
                    for i, e in enumerate(es):
                        assert set(g.edges[e]) == {vs[i], vs[(i + 1) % len(vs)]}
                elif b.kind is BlockKind.CUT_EDGE:
                    assert b.length == 1 and b.vertices == g.edges[b.ordered_edges[0]]
                else:
                    assert b.vertices == tuple(sorted(ends)) and len(ends) < b.length
                assert d.bct.block_cuts[b.index] == tuple(sorted(ends & cuts))
            assert list(d.bct.cut_blocks) == sorted(cuts)
            for v, bs in d.bct.cut_blocks.items():
                assert bs == tuple(b.index for b in d.blocks if v in b.vertices)

    def test_gc_state_restored(self, sample_cactus):
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            d = decompose(sample_cactus)
            enumerate_segments(d, build_antipodal_index(d))
            assert gc.isenabled()
            gc.disable()
            decompose(sample_cactus)
            assert not gc.isenabled()
            gc.enable()
            with pytest.raises(NotOddCactusError):
                build_antipodal_index(decompose(build_graph(cycle_edges(4))))
            assert gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()

    def test_block_cut_tree_shape(self, sample_cactus):
        d = decompose(sample_cactus)
        assert d.bct.node_count == len(d.blocks) + len(d.cut_vertices)
        assert d.bct.edge_count == d.bct.node_count - 1
        assert all(len(bs) >= 2 for bs in d.bct.cut_blocks.values())


class TestClassify:
    def test_even_cycle_rejected(self):
        g = build_graph(cycle_edges(4))
        cls = classify(g, decompose(g))
        assert cls.tag is GraphClass.REJECTED
        assert cls.reason is RejectionReason.CONTAINS_EVEN_CYCLE

    def test_k4_rejected_not_cactus(self):
        g = build_graph(k4_edges())
        cls = classify(g, decompose(g))
        assert cls.tag is GraphClass.REJECTED
        assert cls.reason is RejectionReason.NOT_CACTUS
        assert cls.witness_block is not None

    def test_sample_is_general_odd_cactus(self, sample_cactus):
        cls = classify(sample_cactus, decompose(sample_cactus))
        assert cls.tag is GraphClass.GENERAL_ODD_CACTUS
        assert cls.accepted

    def test_trees(self):
        for edges in (path_edges(2), path_edges(5), [(0, 1), (0, 2), (0, 3)]):
            g = build_graph(edges)
            assert classify(g, decompose(g)).tag is GraphClass.TREE

    def test_odd_cycles(self):
        for n in (3, 5, 7):
            g = build_graph(cycle_edges(n))
            cls = classify(g, decompose(g))
            assert cls.tag is GraphClass.ODD_CYCLE
            assert cls.cycle_length == n

    def test_bowtie(self, bowtie):
        cls = classify(bowtie, decompose(bowtie))
        assert cls.tag is GraphClass.GENERAL_ODD_CACTUS

    def test_even_cycle_inside_cactus_rejected(self):
        g = build_graph(cycle_edges(4) + [(0, 4), (4, 5), (5, 0)])
        cls = classify(g, decompose(g))
        assert cls.tag is GraphClass.REJECTED
        assert cls.reason is RejectionReason.CONTAINS_EVEN_CYCLE

    def test_made_once_and_cached_on_the_decomposition(self, sample_cactus):
        d = decompose(sample_cactus)
        cls = d.classification
        # the graph argument is not read: the blocks decide the case
        assert classify(None, d) is cls
        assert classify(sample_cactus, d) is cls


class TestLeafBlocks:
    def test_path_both_ends(self):
        g = build_graph(path_edges(3))
        d = decompose(g)
        assert {b.index for b in leaf_blocks(d)} == {0, 1}

    def test_sample_leaves(self, sample_cactus):
        d = decompose(sample_cactus)
        leaves = leaf_blocks(d)
        # the pendant edge block and the triangle; the 7-cycle and both
        # bridges of the connecting path touch two cut vertices each
        assert {b.index for b in leaves} == {1, 4}
        assert {b.kind for b in leaves} == {BlockKind.CUT_EDGE, BlockKind.CYCLE}

    def test_bare_cycle_is_its_own_leaf(self, c5):
        d = decompose(c5)
        assert [b.index for b in leaf_blocks(d)] == [0]
