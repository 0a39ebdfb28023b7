from __future__ import annotations

import random

import pytest
from conftest import SAMPLE_EDGES, cycle_edges, eid, path_edges, vid
from hypothesis import given
from hypothesis import strategies as st

from rainbow_cactus import (
    GenSpec,
    analyze_graph,
    build_canonical_partition,
    build_graph,
    format_edge_list,
    generate,
    load_edge_list,
    parse_edge_list,
)
from rainbow_cactus.errors import (
    DisconnectedError,
    EdgeListFormatError,
    EmptyInputError,
    InvalidLabelError,
    ParallelEdgeError,
    SelfLoopError,
)
from rainbow_cactus.graph import all_shortest_paths, bfs_distances


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

    def test_first_bad_pair_in_input_order_is_reported(self):
        with pytest.raises(SelfLoopError) as exc:
            build_graph([(0, 1), (2, 2), (1, 0)])
        assert exc.value.label == 2
        with pytest.raises(ParallelEdgeError) as exc:
            build_graph([(0, 1), (1, 0), (2, 2)])
        assert exc.value.edge == (0, 1)

    def test_parallel_edge_reports_raw_labels_in_ascending_order(self):
        with pytest.raises(ParallelEdgeError) as exc:
            build_graph([(50, 7), (7, 50)])
        assert exc.value.edge == (7, 50)

    @pytest.mark.parametrize(
        "pairs, bad",
        [
            # 1.9 would truncate to 1 and -1 would not parse back
            ([(-1, 0), (0, 1.9), (1.9, -1)], -1),
            ([(0, 1), (1, 1.9), (1.9, 0)], 1.9),
            # equal to 1 and 2 in a set, so found by type only
            ([(0, 1), (True, 2)], True),
            ([(0, 1), (1, 2.0)], 2.0),
            ([(0, "3")], "3"),
        ],
    )
    def test_label_that_is_not_a_non_negative_int_rejected(self, pairs, bad):
        with pytest.raises(InvalidLabelError) as exc:
            build_graph(pairs)
        assert exc.value.label == bad and type(exc.value.label) is type(bad)

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
        # v12 is the last dense id: -1 must not index from the end
        for u, v in ((vid["v1"], vid["v1"]), (-1, vid["v11"]), (vid["v12"], 12)):
            with pytest.raises(KeyError):
                sample_cactus.edge_between(u, v)
        # either endpoint may have the shorter adjacency list
        for e, (u, v) in enumerate(sample_cactus.edges):
            assert sample_cactus.edge_between(u, v) == sample_cactus.edge_between(v, u) == e


def reference_graph(pairs):
    """Labels, edges, (neighbour, edge) lists and the BFS tree from vertex 0
    of raw label pairs, built the plain way: dense ids in sorted label
    order, each edge filed at both ends in input order."""
    labels = sorted({x for pair in pairs for x in pair})
    dense = {lab: i for i, lab in enumerate(labels)}
    edges, adj = [], [[] for _ in labels]
    for e, (u, v) in enumerate(pairs):
        a, b = sorted((dense[u], dense[v]))
        edges.append((a, b))
        adj[a].append((b, e))
        adj[b].append((a, e))
    par_v, par_e, order = [-1] * len(labels), [-1] * len(labels), [0]
    par_v[0] = 0
    for x in order:
        for w, e in adj[x]:
            if par_v[w] < 0:
                par_v[w], par_e[w] = x, e
                order.append(w)
    return tuple(labels), tuple(edges), tuple(map(tuple, adj)), (par_v, par_e, order)


def small_graphs(rng):
    """Generated odd cacti of 2 to 300 vertices, and graphs of 3 to 40
    vertices as the benchmark's small batch has them: trees, odd cycles
    and graphs with chords, so also with even cycles and shared edges.
    Edge order and each edge's orientation are shuffled."""
    for _ in range(30):
        spec = GenSpec(seed=rng.randrange(1 << 30), target_vertices=rng.randint(2, 300),
                       cycle_lengths=rng.choice(((3,), (3, 5, 7, 9))), pendant_probability=0.35)
        yield list(generate(spec).edges)
    for _ in range(30):
        n = rng.randint(3, 40)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        if rng.random() < 0.5:
            edges |= {tuple(sorted((i, (i + 1) % n))) for i in range(n) if n % 2}
        for _ in range(rng.randint(0, 3)):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        yield sorted(edges)


class TestRowsAndKeptTree:
    """`build_graph` keeps one flat row per vertex and the BFS tree from
    vertex 0; the pair view equals the plain adjacency lists."""

    @pytest.mark.parametrize("labelling", ["dense", "shifted", "sparse"])
    def test_against_the_plain_build(self, labelling):
        rng = random.Random(f"rows-{labelling}")
        for edges in small_graphs(rng):
            n = 1 + max(max(e) for e in edges)
            relabel = {
                "dense": list(range(n)),
                "shifted": list(range(1, n + 1)),
                "sparse": rng.sample(range(10 * n + 10**9, 40 * n + 10**9), n),
            }[labelling]
            rng.shuffle(edges)
            pairs = [(relabel[u], relabel[v]) if rng.random() < 0.5 else (relabel[v], relabel[u]) for u, v in edges]
            labels, ref_edges, ref_adj, ref_tree = reference_graph(pairs)
            g = build_graph(pairs)
            assert g.labels == labels
            assert g.edges == ref_edges
            assert g.tree == ref_tree
            assert "adjacency" not in vars(g)
            assert g.adjacency == ref_adj
            assert g.rows == tuple(tuple(x for pair in row for x in pair) for row in ref_adj)

    def test_solver_path_builds_no_pair_view(self):
        g = generate(GenSpec(seed=5, target_vertices=400, cycle_lengths=(3, 5, 7), pendant_probability=0.3))
        an = analyze_graph(g)
        build_canonical_partition(an.decomposition, an.catalog)
        assert "adjacency" not in vars(g)

    @pytest.mark.parametrize(
        "pairs, error, payload",
        [
            # a duplicate before a self-loop, and the reverse, deep in the input
            ([*path_edges(50), (31, 30), (40, 40)], ParallelEdgeError, (30, 31)),
            ([*path_edges(50), (40, 40), (31, 30)], SelfLoopError, 40),
            # the same with labels that are not 0..n-1
            ([(3 * u + 5, 3 * v + 5) for u, v in path_edges(50)] + [(98, 95), (125, 125)], ParallelEdgeError,
             (95, 98)),
            ([(3 * u + 5, 3 * v + 5) for u, v in path_edges(50)] + [(125, 125), (98, 95)], SelfLoopError, 125),
            # the first of two duplicates in input order, not the lowest
            ([*path_edges(50), (45, 44), (1, 0)], ParallelEdgeError, (44, 45)),
        ],
    )
    def test_first_bad_pair_in_input_order(self, pairs, error, payload):
        with pytest.raises(error) as exc:
            build_graph(pairs)
        assert (exc.value.edge if error is ParallelEdgeError else exc.value.label) == payload

    def test_lowest_unreachable_label_is_reported(self):
        with pytest.raises(DisconnectedError) as exc:
            build_graph([(10, 30), (50, 40), (30, 20)])
        assert exc.value.unreachable_label == 40


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
        (p,) = all_shortest_paths(triangle, 0, 1)
        assert p.vertices == (0, 1)
        assert p.length == 1

    def test_c5_two_steps(self, c5):
        (p,) = all_shortest_paths(c5, 0, 2)
        assert p.vertices == (0, 1, 2)

    def test_same_vertex_empty_path(self, c5):
        (p,) = all_shortest_paths(c5, 3, 3)
        assert p.vertices == (3,)
        assert p.edges == ()

    def test_sample_v8_to_v3(self, sample_cactus):
        # around the 7-cycle via v6, v5, v4: length 4 beats the length-5 arc
        (p,) = all_shortest_paths(sample_cactus, vid["v8"], vid["v3"])
        assert p.vertices == (vid["v8"], vid["v6"], vid["v5"], vid["v4"], vid["v3"])
        assert p.length == 4

    def test_path_lengths_match_bfs(self, sample_cactus):
        g = sample_cactus
        for u in range(g.vertex_count):
            dist = bfs_distances(g, u)
            for v in range(g.vertex_count):
                (p,) = all_shortest_paths(g, u, v)
                assert p.length == dist[v]


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

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3), (3, 4), (4, 4)])
    def test_grid_matches_brute_force_enumeration(self, rows, cols):
        # every simple path between each pair, by exhaustive search without
        # distances; the shortest ones, sorted by vertex sequence
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
        g = build_graph(edges)
        n = g.vertex_count

        def simple_paths(u, v):
            stack = [(u,)]
            while stack:
                path = stack.pop()
                for w, _ in g.adjacency[path[-1]]:
                    if w == v:
                        yield (*path, w)
                    elif w not in path:
                        stack.append((*path, w))

        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                found = list(simple_paths(u, v))
                shortest = min(map(len, found))
                want = sorted(p for p in found if len(p) == shortest)
                got = all_shortest_paths(g, u, v)
                assert [p.vertices for p in got] == want
                assert all(
                    [g.edge_between(a, b) for a, b in zip(p.vertices, p.vertices[1:])]
                    == list(p.edges)
                    for p in got
                )


@pytest.mark.parametrize("bad", [True, 1.0, "1", -1, 4])
@pytest.mark.parametrize(
    "fn, lead",
    [(bfs_distances, ()), (all_shortest_paths, (0,))],
    ids=["bfs_distances", "all_shortest_paths"],
)
def test_invalid_vertex_rejected(fn, lead, bad):
    # triangle 0-1-2 with pendant 2-3: as a list index True would pass as
    # vertex 1 and -1 as vertex 3, while 1.0 and "1" raise a bare TypeError
    g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    with pytest.raises(ValueError, match="invalid vertex"):
        fn(g, *lead, bad)


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

    @pytest.mark.parametrize("text", ["1 2\u20282 3\u00853 1\n", "1 2\r2 3\r3 1\r"])
    def test_only_line_feeds_end_lines(self, text):
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edge_list(text)
        assert exc.value.line_number == 1
        assert parse_edge_list("1 2\r\n2 3\r\n3 1\r\n") == [(1, 2), (2, 3), (3, 1)]

    def test_label_too_long_for_int_is_a_format_error(self):
        # past CPython's default limit of 4300 digits for int(str)
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edge_list("0 1\n1 " + "7" * 5000 + "\n")
        assert exc.value.line_number == 2

    def test_line_number_counts_line_feeds_as_load_does(self, tmp_path):
        # a "\x0b" inside a comment does not start a new line
        path = tmp_path / "g.txt"
        path.write_bytes(b"# a\x0b1 2\n2 x\n")
        with pytest.raises(EdgeListFormatError) as exc:
            load_edge_list(path)
        assert exc.value.line_number == 2

    def test_round_trip(self, sample_cactus):
        # endpoint order is normalized to (min, max); edge order is preserved
        text = format_edge_list(sample_cactus)
        normalized = [(min(u, v), max(u, v)) for u, v in SAMPLE_EDGES]
        assert parse_edge_list(text) == normalized


# the edge-list grammar, as property tests; leading zeros are allowed
_LABEL = st.builds(
    lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 10**12)
)
_BLANKS = st.text(alphabet=" \t", max_size=3)
# characters that str.splitlines or str.split take as a break but the
# format does not; "\r" is one only where no "\n" follows it
_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r", "\x85", "\u2028", "\u2029")
# a comment may hold anything but a line feed
_COMMENT_CHARS = "# 09az\t\u00e9\u0661" + "".join(_BREAKS)


@st.composite
def _edge_line(draw):
    """(text of one edge line without its line end, the pair it denotes)."""
    a, b = draw(_LABEL), draw(_LABEL)
    gap = draw(st.text(alphabet=" \t", min_size=1, max_size=3))
    return f"{draw(_BLANKS)}{a}{gap}{b}{draw(_BLANKS)}", (int(a), int(b))


@st.composite
def _document(draw):
    """(lines without line ends, line ends, pairs) of a valid edge list."""
    lines, pairs = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("edge", "edge", "blank", "comment")))
        if kind == "edge":
            line, pair = draw(_edge_line())
            pairs.append(pair)
        elif kind == "blank":
            line = draw(_BLANKS)
        else:
            line = draw(_BLANKS) + "#" + draw(st.text(alphabet=_COMMENT_CHARS, max_size=8))
        lines.append(line)
    ends = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    return lines, ends, pairs


def _join(lines, ends) -> str:
    return "".join(line + end for line, end in zip(lines, ends))


class TestEdgeListGrammar:
    @given(st.data())
    def test_format_then_parse_round_trips(self, data):
        labels = data.draw(
            st.lists(st.integers(0, 10**12), min_size=2, max_size=12, unique=True)
        )
        # a random tree on the labels, plus a few extra edges
        pairs = [
            (labels[data.draw(st.integers(0, i - 1))], labels[i]) for i in range(1, len(labels))
        ]
        for _ in range(data.draw(st.integers(0, 4))):
            u, v = data.draw(st.permutations(labels))[:2]
            if (u, v) not in pairs and (v, u) not in pairs:
                pairs.append((u, v))
        g = build_graph(pairs)
        parsed = parse_edge_list(format_edge_list(g))
        assert parsed == [g.edge_label_pair(e) for e in range(g.edge_count)]
        assert build_graph(parsed).edges == g.edges

    @given(_document(), st.booleans())
    def test_spaces_tabs_comments_blanks_and_crlf_are_accepted(self, doc, final_end):
        lines, ends, pairs = doc
        text = _join(lines, ends)
        if not final_end and text:
            text = text[: -len(ends[-1])]
        assert parse_edge_list(text) == pairs

    @given(
        _document(),
        _document(),
        _edge_line(),
        st.sampled_from(("+", "-", "_", "\u0661", "\u00e9") + _BREAKS),
        st.data(),
    )
    def test_bad_character_names_the_line_by_its_line_feeds(self, head, tail, edge, bad, data):
        # a sign, an underscore, a non-ASCII character or a break the format
        # does not take, anywhere in an edge line
        line = edge[0]
        if bad == "\r":
            # a "\r" right before the line feed is the CRLF line end
            at = data.draw(st.integers(0, len(line) - 1))
        else:
            at = data.draw(st.integers(0, len(line)))
        before = _join(*head[:2])
        text = before + line[:at] + bad + line[at:] + "\n" + _join(*tail[:2])
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edge_list(text)
        assert exc.value.line_number == 1 + before.count("\n")
