"""Shared fixtures: small reference graphs with hand-checked structure."""

from __future__ import annotations

import pytest
from hypothesis import settings

from rainbow_cactus import Graph, build_graph, solver

# property tests draw the same examples on every run and keep no example
# database, so a run is reproducible and does not depend on earlier runs
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

# 12-vertex, 13-edge odd cactus used throughout: a 7-cycle (labels 1..7) and a
# triangle (10,11,12) joined by the bridge path 4-9-10, plus pendant 8 on 6.
# Edge ids follow this list order; dense vertex id = label - 1.
SAMPLE_EDGES = [
    (1, 2),    # e1  = id 0
    (2, 3),    # e2  = id 1
    (3, 4),    # e3  = id 2
    (4, 5),    # e4  = id 3
    (5, 6),    # e5  = id 4
    (6, 7),    # e6  = id 5
    (7, 1),    # e7  = id 6
    (6, 8),    # e8  = id 7
    (4, 9),    # e9  = id 8
    (9, 10),   # e10 = id 9
    (10, 11),  # e11 = id 10
    (11, 12),  # e12 = id 11
    (12, 10),  # e13 = id 12
]

# eid["eK"] is the edge id of the K-th edge above; vid["vK"] the dense id of label K
eid = {f"e{i}": i - 1 for i in range(1, 14)}
vid = {f"v{i}": i - 1 for i in range(1, 13)}


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def bowtie_edges() -> list[tuple[int, int]]:
    # two triangles sharing vertex 0
    return [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


def k4_edges() -> list[tuple[int, int]]:
    return [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def diamond_chain(k: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges and colors of k diamonds (4-cycles joined at opposite corners)
    and a pendant edge. Both sides of each diamond carry the same two
    colors, and the pendant edge the first diamond's first color, so every
    geodesic from vertex 0 to the pendant vertex repeats a color. A graph
    that is no cactus, with 2^k geodesics between the ends of the chain."""
    edges, colors = [], []
    for i in range(k):
        a, b, c, d = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(a, b), (b, d), (a, c), (c, d)]
        colors += [2 * i + 1, 2 * i + 2, 2 * i + 1, 2 * i + 2]
    edges.append((3 * k, 3 * k + 1))
    colors.append(1)
    return edges, colors


def c5_plus_pendant_edges() -> list[tuple[int, int]]:
    return cycle_edges(5) + [(0, 5)]


@pytest.fixture
def sample_cactus() -> Graph:
    return build_graph(SAMPLE_EDGES)


@pytest.fixture
def c5() -> Graph:
    return build_graph(cycle_edges(5))


@pytest.fixture
def triangle() -> Graph:
    return build_graph(cycle_edges(3))


@pytest.fixture
def bowtie() -> Graph:
    return build_graph(bowtie_edges())


@pytest.fixture
def coloring_calls(monkeypatch) -> list:
    """One entry per run of the solver's coloring from here on."""
    calls: list = []
    real = solver.strong_rainbow_coloring

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solver, "strong_rainbow_coloring", counted)
    return calls


@pytest.fixture
def extra_color(monkeypatch) -> None:
    """The solver's black edge list repeats its last edge, so its coloring
    uses one color more than the closed form allows."""
    real = solver.black_edges

    def one_more(d, cat):
        blacks = real(d, cat)
        return blacks + blacks[-1:]

    monkeypatch.setattr(solver, "black_edges", one_more)
