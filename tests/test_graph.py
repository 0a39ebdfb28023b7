from __future__ import annotations

import pytest
from conftest import SAMPLE_EDGES, cycle_edges, eid, path_edges, vid

from rainbow_cactus import (
    all_shortest_paths,
    bfs_distances,
    build_graph,
    format_edge_list,
    parse_edge_list,
    unique_shortest_path,
)
from rainbow_cactus.errors import (
    DisconnectedError,
    EdgeListFormatError,
    EmptyInputError,
    NotGeodeticError,
    ParallelEdgeError,
    SelfLoopError,
)


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph([(1, 2), (2, 3), (3, 1)])
        assert g.vertex_count == 3
        assert g.edge_count == 3

    def test_parallel_edge_rejected(self):
        with pytest.raises(ParallelEdgeError) as exc:
            build_graph([(1, 2), (2, 3), (1, 2)])
        assert exc.value.edge == (1, 2)

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(ParallelEdgeError):
            build_graph([(1, 2), (2, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError) as exc:
            build_graph([(1, 2), (3, 3)])
        assert exc.value.label == 3

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            build_graph([(0, 1), (2, 3)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            build_graph([])

    def test_sample_shape(self, sample_cactus):
        assert sample_cactus.vertex_count == 12
        assert sample_cactus.edge_count == 13

    def test_dense_ids_sorted_by_label(self):
        g = build_graph([(50, 7), (7, 20), (20, 50)])
        assert g.labels == (7, 20, 50)
        # edge 0 was (50, 7): dense endpoints are (0, 2) after sorting labels
        assert g.edges[0] == (0, 2)

    def test_every_edge_in_exactly_two_adjacency_lists(self, sample_cactus):
        counts = [0] * sample_cactus.edge_count
        for row in sample_cactus.adjacency:
            for _, e in row:
                counts[e] += 1
        assert all(c == 2 for c in counts)

    def test_edge_between(self, sample_cactus):
        assert sample_cactus.edge_between(vid["v1"], vid["v2"]) == eid["e1"]
        assert sample_cactus.edge_between(vid["v2"], vid["v1"]) == eid["e1"]
        with pytest.raises(KeyError):
            sample_cactus.edge_between(vid["v1"], vid["v4"])


class TestBfsDistances:
    def test_c5_symmetric(self, c5):
        assert bfs_distances(c5, 0) == (0, 1, 2, 2, 1)

    def test_single_edge(self):
        g = build_graph([(0, 1)])
        assert bfs_distances(g, 0) == (0, 1)

    def test_sample_distance_v1_v8(self, sample_cactus):
        # v1-v7-v6-v8 is the short way around
        assert bfs_distances(sample_cactus, vid["v1"])[vid["v8"]] == 3

    def test_invalid_source(self, c5):
        with pytest.raises(ValueError):
            bfs_distances(c5, 9)


class TestUniqueShortestPath:
    def test_adjacent_in_triangle(self, triangle):
        p = unique_shortest_path(triangle, 0, 1)
        assert p.vertices == (0, 1)
        assert p.length == 1

    def test_c5_two_steps(self, c5):
        p = unique_shortest_path(c5, 0, 2)
        assert p.vertices == (0, 1, 2)

    def test_same_vertex_empty_path(self, c5):
        p = unique_shortest_path(c5, 3, 3)
        assert p.vertices == (3,)
        assert p.edges == ()

    def test_sample_v8_to_v3(self, sample_cactus):
        # around the 7-cycle via v6, v5, v4: length 4 beats the length-5 arc
        p = unique_shortest_path(sample_cactus, vid["v8"], vid["v3"])
        assert p.vertices == (vid["v8"], vid["v6"], vid["v5"], vid["v4"], vid["v3"])
        assert p.length == 4
        (only,) = all_shortest_paths(sample_cactus, vid["v8"], vid["v3"])
        assert only == p

    def test_path_lengths_match_bfs(self, sample_cactus):
        g = sample_cactus
        for u in range(g.vertex_count):
            dist = bfs_distances(g, u)
            for v in range(g.vertex_count):
                assert unique_shortest_path(g, u, v).length == dist[v]

    def test_checked_mode_flags_even_cycle(self):
        c4 = build_graph(cycle_edges(4))
        with pytest.raises(NotGeodeticError):
            unique_shortest_path(c4, 0, 2, checked=True)


class TestAllShortestPaths:
    def test_even_cycle_has_two(self):
        c4 = build_graph(cycle_edges(4))
        paths = all_shortest_paths(c4, 0, 2)
        assert len(paths) == 2
        assert [p.vertices for p in paths] == [(0, 1, 2), (0, 3, 2)]  # lexicographic

    def test_path_graph_single(self):
        p3 = build_graph(path_edges(3))
        paths = all_shortest_paths(p3, 0, 2)
        assert len(paths) == 1
        assert paths[0].length == 2

    def test_odd_cactus_always_one(self, sample_cactus):
        g = sample_cactus
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                assert len(all_shortest_paths(g, u, v)) == 1

    def test_geodesic_longer_than_recursion_limit(self):
        p = build_graph(path_edges(1200))
        (only,) = all_shortest_paths(p, 0, 1199)
        assert only.vertices == tuple(range(1200))
        assert only.edges == tuple(range(1199))

    def test_grid_lists_every_path_in_lexicographic_order(self):
        # 4x4 grid, vertex r*4 + c: C(6, 3) = 20 monotone corner-to-corner paths
        edges = [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(3)]
        edges += [(r * 4 + c, (r + 1) * 4 + c) for r in range(3) for c in range(4)]
        g = build_graph(edges)
        paths = all_shortest_paths(g, 0, 15)
        seqs = [p.vertices for p in paths]
        assert len(seqs) == 20 == len(set(seqs))
        assert seqs == sorted(seqs)
        for p in paths:
            assert [g.edge_between(a, b) for a, b in zip(p.vertices, p.vertices[1:])] == list(
                p.edges
            )


class TestEdgeListFormat:
    def test_parse_with_comments_and_blanks(self):
        text = "# header\n1 2\n\n  2 3\n# trailing\n3 1\n"
        assert parse_edge_list(text) == [(1, 2), (2, 3), (3, 1)]

    def test_parse_error_carries_line_number(self):
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edge_list("1 2\n1 2 3\n")
        assert exc.value.line_number == 2

    def test_parse_non_integer(self):
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edge_list("1 x\n")
        assert exc.value.line_number == 1

    def test_parse_negative(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("1 -2\n")

    @pytest.mark.parametrize("label", ["1_000", "+4", "-0", "\u0661"])
    def test_parse_rejects_labels_not_in_ascii_digits(self, label):
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edge_list(f"0 1\n# note\n1 {label}\n")
        assert exc.value.line_number == 3

    def test_round_trip(self, sample_cactus):
        # endpoint order is normalized to (min, max); edge order is preserved
        text = format_edge_list(sample_cactus)
        normalized = [(min(u, v), max(u, v)) for u, v in SAMPLE_EDGES]
        assert parse_edge_list(text) == normalized
