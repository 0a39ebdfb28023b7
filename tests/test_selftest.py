"""The invariant suite reports a broken claim by name, as InvariantViolation."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from conftest import cycle_edges

from rainbow_cactus import Graph, Path, build_graph
from rainbow_cactus import selftest as st
from rainbow_cactus.partition import BlackWhitePartition
from rainbow_cactus.selftest import (
    InvariantViolation,
    check_graph_core,
    check_instance,
    check_shortest_paths,
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


def test_edge_and_its_antipode_on_one_path(triangle):
    # edge 0 joins vertices 0 and 1; an antipode on its own path is a fault
    a = SimpleNamespace(opp_vertex={0: 0})
    assert violated(check_shortest_paths, triangle, a) == "no_path_contains_edge_and_antipode"


def test_black_pair_off_every_shortest_path(triangle):
    # every shortest path of a triangle is one edge, so no two edges share one
    p = BlackWhitePartition(frozenset(), frozenset(), frozenset({0, 1}), frozenset({2}))
    assert violated(check_shortest_paths, triangle, None, p) == "black_pair_shares_shortest_path"


def test_edge_missing_from_an_adjacency_list():
    g = Graph(3, ((0, 1), (1, 2)), (((1, 0),), ((0, 0), (2, 1)), ()), (0, 1, 2))
    assert violated(check_graph_core, g) == "edge_in_two_adjacency_lists"
