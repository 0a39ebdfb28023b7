"""Immutable simple-graph core: construction, BFS distances, shortest paths.

Raw vertex labels are arbitrary non-negative integers; `build_graph` remaps
them to dense ids 0..n-1 in sorted label order and keeps the mapping for
output. Edge ids are stable positions in the edge tuple.

A graph is one flat row of ints per vertex, with no tuple per half-edge,
and the BFS tree from vertex 0 that its connectivity check walked; the
(neighbour, edge id) pairs are a view built on first read.
"""

from __future__ import annotations

import functools
import gc
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from operator import eq
from pathlib import Path as FsPath

from .errors import (
    DisconnectedError,
    EdgeListFormatError,
    EmptyInputError,
    InvalidLabelError,
    ParallelEdgeError,
    SelfLoopError,
)

VertexId = int
EdgeId = int


def gc_paused(fn):
    """Decorator: pause the cyclic garbage collector while `fn` builds bulk data.

    Building hundreds of thousands of tuples, frozensets and records that
    survive the build triggers repeated full collections, each a pass over
    the whole heap, that can find nothing: the data has no reference cycles,
    and temporaries are freed by reference counting as before. The
    collector's previous state is restored on exit, also when `fn` raises.

    If a pass is due when the pause ends, it is made explicitly over the
    youngest generation only, which holds what the build allocated and still
    holds. Left to the collector, that first pass may instead be a full one
    over the whole heap, paid inside the build. The function's local
    temporaries are already freed by then, so that pass only visits what the
    function returned.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if gc.get_count()[0] > gc.get_threshold()[0]:
                gc.collect(0)
            gc.enable()

    return paused


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected simple undirected graph. Immutable after construction.

    `rows[x]` is (w0, e0, w1, e1, ...), x's neighbours and the edges to
    them in edge id order; read it as pairs with `it = iter(row);
    zip(it, it)`. `tree` is the BFS tree from vertex 0: parent vertex and
    parent edge per vertex, vertex 0 its own parent through edge -1, and
    the visit order. Its three lists are read, never written: as tuples,
    the small graphs' ones would stay in the interpreter's tuple free lists.
    """

    vertex_count: int
    edges: tuple[tuple[VertexId, VertexId], ...]
    rows: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    tree: tuple[list[VertexId], list[EdgeId], list[VertexId]]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[tuple[VertexId, EdgeId], ...], ...]:
        """Per vertex its (neighbour, edge id) pairs, in row order, built
        on first read. Read by each BFS (`_bfs_dist`), by the oracle's
        pass from every source but 0, by brute force, `validate_partition`
        and the selftest: a scan that visits every vertex visits it faster
        through pairs than through a row. The pass from source 0, which
        may be the verifier's only one, the rainbow geodesic search and
        `_geodesics` read the rows through `_RowPairs` instead, and the
        solver never builds the view. No collector pause: its closing pass
        over the new tuples costs more than the collector's own passes
        here."""
        return tuple([tuple(zip(it, it)) for it in map(iter, self.rows)])

    def edge_between(self, u: VertexId, v: VertexId) -> EdgeId:
        """Edge id joining u and v; raises KeyError if absent.

        Scans the shorter of the two rows, so looking up every edge of a
        graph of arboricity a costs O(a * m).
        """
        n = self.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise KeyError((u, v))
        rows = self.rows
        x, y = (u, v) if len(rows[u]) <= len(rows[v]) else (v, u)
        row = rows[x]
        try:
            return row[2 * row[::2].index(y) + 1]
        except ValueError:
            raise KeyError((u, v)) from None

    def edge_label_pair(self, e: EdgeId) -> tuple[int, int]:
        """Raw labels of an edge's endpoints, smaller label first."""
        u, v = self.edges[e]
        return self.labels[u], self.labels[v]


class _RowPairs:
    """A graph's rows read as (neighbour, edge id) pairs, one row at a time:
    `pairs[x]` is a fresh one-pass iterator over x's pairs. For scans that
    read few rows, or each row once, where building `Graph.adjacency` would
    cost more than the scan."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        self.rows = rows

    def __getitem__(self, x: VertexId) -> Iterator[tuple[VertexId, EdgeId]]:
        it = iter(self.rows[x])
        return zip(it, it)


@dataclass(frozen=True)
class Path:
    """Simple path as parallel vertex and edge sequences."""

    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class EdgeColoring:
    """Total edge coloring; `color[e]` is the 1-based color of edge e."""

    k: int
    color: tuple[int, ...]


@gc_paused
def build_graph(edge_pairs) -> Graph:
    """Validate raw (label, label) pairs and build a dense-id Graph.

    Rejects labels other than non-negative ints (bools too), self-loops,
    duplicate unordered pairs, disconnected inputs and empty input; the
    raised error carries the first bad label, or the raw labels of the first
    bad pair, in input order.
    """
    pairs = list(edge_pairs)
    if not pairs:
        raise EmptyInputError("edge list is empty")
    flat = list(chain.from_iterable(pairs))
    label_set = set(flat)
    # types too: 1.0 or True equals 1, so the label set can hide it
    if set(map(type, flat)) != {int} or min(label_set) < 0:
        raise InvalidLabelError(next(x for x in flat if type(x) is not int or x < 0))
    labels = tuple(sorted(label_set))
    n = len(labels)
    del label_set
    if labels[-1] != n - 1:
        # dense ids follow sorted label order, so a < b orders labels too
        dense = dict(zip(labels, range(n)))
        pairs = [(dense[u], dense[v]) for u, v in pairs]

    rows = [[] for _ in range(n)]
    edges = []
    add_edge = edges.append
    for e, (a, b) in enumerate(pairs):
        add_edge((a, b) if a < b else (b, a))
        row = rows[a]
        row.append(b)
        row.append(e)
        row = rows[b]
        row.append(a)
        row.append(e)
    # a second copy of a pair or a self-loop, found in C; the loop that
    # names the first bad pair in input order runs only then
    if len(set(edges)) < len(edges) or any(map(eq, flat[0::2], flat[1::2])):
        seen = set()
        it = iter(flat)
        for u, v in zip(it, it):
            if u == v:
                raise SelfLoopError(u)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ParallelEdgeError(key)
            seen.add(key)
    del flat, pairs

    # rows become tuples one at a time, so the lists and the tuples never
    # all coexist
    for x in range(n):
        rows[x] = tuple(rows[x])
    # the connectivity check, a BFS from vertex 0 that keeps its tree; the
    # visit order is the queue, as in `_bfs_dist`
    par_v = [-1] * n
    par_e = [-1] * n
    par_v[0] = 0
    order = [0]
    for x in order:
        it = iter(rows[x])
        for w, e in zip(it, it):
            if par_v[w] < 0:
                par_v[w] = x
                par_e[w] = e
                order.append(w)
    if len(order) < n:
        # the lowest unreachable dense id, i.e. the lowest unreachable label
        raise DisconnectedError(labels[par_v.index(-1)])
    return Graph(n, tuple(edges), tuple(rows), labels, (par_v, par_e, order))


def _bfs_dist(g: Graph, source: VertexId) -> list[int]:
    dist = [-1] * g.vertex_count
    dist[source] = 0
    # the visit order is the queue: iterating a list that grows under the
    # loop costs less than deque.popleft
    order = [source]
    adj = g.adjacency
    for x in order:
        dx = dist[x] + 1
        for w, _ in adj[x]:
            if dist[w] < 0:
                dist[w] = dx
                order.append(w)
    return dist


def _check_vertices(g: Graph, xs) -> None:
    """Raise ValueError for the first x that is not an int in 0..n-1."""
    n = g.vertex_count
    for x in xs:
        if type(x) is not int or not 0 <= x < n:
            raise ValueError(f"invalid vertex {x!r}")


def bfs_distances(g: Graph, source: VertexId) -> tuple[int, ...]:
    """Exact hop distances from `source` to every vertex, indexed by vertex."""
    _check_vertices(g, (source,))
    return tuple(_bfs_dist(g, source))


def all_shortest_paths(g: Graph, u: VertexId, v: VertexId) -> tuple[Path, ...]:
    """Every shortest u,v path, ordered lexicographically by vertex sequence.

    Exhaustive; intended for small graphs (oracle and property tests).
    """
    _check_vertices(g, (u, v))
    if u == v:
        return (Path((u,), ()),)
    return tuple(_geodesics(g, _bfs_dist(g, u), u, v))


def _geodesics(g: Graph, du: list[int], u: VertexId, v: VertexId) -> Iterator[Path]:
    """The shortest paths between u != v, lazily and in lexicographic order
    of vertex sequence; `du` holds the BFS distances from u.

    Steps are pruned to `between`, the vertices v reaches by stepping down
    in `du`, which are exactly those on a shortest u,v path. So every step
    taken lies on one, and the first path costs one walk and no
    backtracking.
    """
    adj = _RowPairs(g.rows)
    between = {v}
    todo = [v]
    for x in todo:
        want = du[x] - 1
        for w, _ in adj[x]:
            if du[w] == want and w not in between:
                between.add(w)
                todo.append(w)

    def steps(x: int):
        nxt = du[x] + 1
        return iter(sorted((w, eid) for w, eid in adj[x] if du[w] == nxt and w in between))

    # depth-first with an explicit stack, so no geodesic is too long for the
    # recursion limit; stack[i] yields the steps on from verts[i] in
    # ascending vertex order, which lists the paths lexicographically
    verts, eids = [u], []
    stack = [steps(u)]
    while stack:
        for w, eid in stack[-1]:
            if w == v:
                yield Path((*verts, v), (*eids, eid))
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


def _spaced(line: str) -> bool:
    """Whether `line` has no control character or Unicode separator but tabs
    and one final carriage return."""
    if line.endswith("\r"):
        line = line[:-1]
    return line.replace("\t", " ").isprintable()


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    """Parse edge-list text: one `u v` pair per line, `#` comments, blanks ignored.

    Only a line feed ends a line, and a carriage return just before it is
    whitespace, so CRLF text parses too. Outside comments only spaces and tabs
    may separate labels: any other character that `str.split` or
    `str.splitlines` takes as a break (\\x0b, \\x0c, \\x1c-\\x1f, a lone \\r,
    U+0085, U+2028, ...) is an error.
    Labels are runs of ASCII digits; `int()` alone would also take "+4",
    "-0", "1_000" and non-ASCII digits.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            if _spaced(raw.partition("#")[0]):
                continue
            raise EdgeListFormatError(
                f"line {lineno}: only spaces and tabs may stand outside a comment, got {raw!r}",
                lineno,
            )
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
        if not (raw.isprintable() or _spaced(raw)):
            raise EdgeListFormatError(
                f"line {lineno}: labels must be separated by spaces or tabs, got {raw!r}",
                lineno,
            )
        try:
            pairs.append((int(a), int(b)))
        except ValueError:  # more digits than int() converts
            raise EdgeListFormatError(
                f"line {lineno}: vertex label has too many digits", lineno
            ) from None
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
