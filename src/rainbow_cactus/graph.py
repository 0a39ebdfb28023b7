"""Immutable simple-graph core: construction, BFS distances, shortest paths.

Raw vertex labels are arbitrary non-negative integers; `build_graph` remaps
them to dense ids 0..n-1 in sorted label order and keeps the mapping for
output. Edge ids are stable positions in the edge tuple.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path as FsPath

from .errors import (
    DisconnectedError,
    EdgeListFormatError,
    EmptyInputError,
    NotGeodeticError,
    ParallelEdgeError,
    SelfLoopError,
)

VertexId = int
EdgeId = int


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected simple undirected graph. Immutable after construction."""

    vertex_count: int
    edges: tuple[tuple[VertexId, VertexId], ...]
    adjacency: tuple[tuple[tuple[VertexId, EdgeId], ...], ...]
    labels: tuple[int, ...]
    _edge_index: dict[tuple[VertexId, VertexId], EdgeId]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_between(self, u: VertexId, v: VertexId) -> EdgeId:
        """Edge id joining u and v; raises KeyError if absent."""
        return self._edge_index[(u, v) if u <= v else (v, u)]

    def edge_label_pair(self, e: EdgeId) -> tuple[int, int]:
        """Raw labels of an edge's endpoints, smaller label first."""
        u, v = self.edges[e]
        return self.labels[u], self.labels[v]


@dataclass(frozen=True)
class Path:
    """Simple path as parallel vertex and edge sequences."""

    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


def build_graph(edge_pairs) -> Graph:
    """Validate raw (label, label) pairs and build a dense-id Graph.

    Rejects self-loops, duplicate unordered pairs, disconnected inputs and
    empty input; the raised error carries the offending raw labels.
    """
    pairs = [(int(u), int(v)) for u, v in edge_pairs]
    if not pairs:
        raise EmptyInputError("edge list is empty")
    seen: set[tuple[int, int]] = set()
    label_set: set[int] = set()
    for u, v in pairs:
        if u == v:
            raise SelfLoopError(u)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParallelEdgeError(key)
        seen.add(key)
        label_set.add(u)
        label_set.add(v)
    labels = tuple(sorted(label_set))
    dense = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    edges: list[tuple[int, int]] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edge_index: dict[tuple[int, int], int] = {}
    for u, v in pairs:
        a, b = dense[u], dense[v]
        if a > b:
            a, b = b, a
        eid = len(edges)
        edges.append((a, b))
        adj[a].append((b, eid))
        adj[b].append((a, eid))
        edge_index[(a, b)] = eid

    reached = bytearray(n)
    reached[0] = 1
    count = 1
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for w, _ in adj[x]:
            if not reached[w]:
                reached[w] = 1
                count += 1
                queue.append(w)
    if count != n:
        missing = next(labels[i] for i in range(n) if not reached[i])
        raise DisconnectedError(missing)

    return Graph(n, tuple(edges), tuple(tuple(a) for a in adj), labels, edge_index)


def _bfs_dist(g: Graph, source: VertexId) -> list[int]:
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    adj = g.adjacency
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for w, _ in adj[x]:
            if dist[w] < 0:
                dist[w] = dx
                queue.append(w)
    return dist


def bfs_distances(g: Graph, source: VertexId) -> tuple[int, ...]:
    """Exact hop distances from `source` to every vertex, indexed by vertex."""
    if not 0 <= source < g.vertex_count:
        raise ValueError(f"invalid source vertex {source}")
    return tuple(_bfs_dist(g, source))


def unique_shortest_path(g: Graph, u: VertexId, v: VertexId, *, checked: bool = False) -> Path:
    """The unique shortest u,v path of a geodetic graph.

    Walks back from v picking the lowest-id predecessor at each step; with
    `checked=True` a second equal-distance predecessor raises NotGeodeticError
    (two distinct shortest paths always produce such a fork on the walk).
    """
    for x in (u, v):
        if not 0 <= x < g.vertex_count:
            raise ValueError(f"invalid vertex {x}")
    if u == v:
        return Path((u,), ())
    dist = _bfs_dist(g, u)
    verts = [v]
    eids: list[int] = []
    cur = v
    while cur != u:
        want = dist[cur] - 1
        best = -1
        best_eid = -1
        hits = 0
        for w, eid in g.adjacency[cur]:
            if dist[w] == want:
                hits += 1
                if best < 0 or w < best:
                    best, best_eid = w, eid
        if checked and hits > 1:
            raise NotGeodeticError(u, v, cur)
        verts.append(best)
        eids.append(best_eid)
        cur = best
    verts.reverse()
    eids.reverse()
    return Path(tuple(verts), tuple(eids))


def all_shortest_paths(g: Graph, u: VertexId, v: VertexId) -> tuple[Path, ...]:
    """Every shortest u,v path, ordered lexicographically by vertex sequence.

    Exhaustive; intended for small graphs (oracle and property tests).
    """
    for x in (u, v):
        if not 0 <= x < g.vertex_count:
            raise ValueError(f"invalid vertex {x}")
    if u == v:
        return (Path((u,), ()),)
    du = _bfs_dist(g, u)
    dv = _bfs_dist(g, v)
    d = du[v]
    adj = g.adjacency

    def steps(x: int):
        nxt = du[x] + 1
        return iter(sorted((w, eid) for w, eid in adj[x] if du[w] == nxt and dv[w] == d - nxt))

    # depth-first with an explicit stack, so no geodesic is too long for the
    # recursion limit; stack[i] yields the steps on from verts[i] in
    # ascending vertex order, which lists the paths lexicographically
    out: list[Path] = []
    verts, eids = [u], []
    stack = [steps(u)]
    while stack:
        for w, eid in stack[-1]:
            if w == v:
                out.append(Path((*verts, v), (*eids, eid)))
                continue
            verts.append(w)
            eids.append(eid)
            stack.append(steps(w))
            break
        else:
            stack.pop()
            verts.pop()
            if eids:
                eids.pop()
    return tuple(out)


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    """Parse edge-list text: one `u v` pair per line, `#` comments, blanks ignored.

    Labels are runs of ASCII digits; `int()` alone would also take "+4",
    "-0", "1_000" and non-ASCII digits.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise EdgeListFormatError(
                f"line {lineno}: expected two whitespace-separated integers, got {raw!r}",
                lineno,
            )
        a, b = parts
        if not (a.isdigit() and b.isdigit() and raw.isascii()):
            raise EdgeListFormatError(
                f"line {lineno}: vertex labels must be non-negative integers in ASCII digits,"
                f" got {raw!r}",
                lineno,
            )
        pairs.append((int(a), int(b)))
    return pairs


def load_edge_list(path) -> list[tuple[int, int]]:
    data = FsPath(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise EdgeListFormatError(f"line {lineno}: not UTF-8 text", lineno) from None
    return parse_edge_list(text)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph back to edge-list text using raw labels."""
    lines = [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges]
    return "\n".join(lines) + "\n"
