"""Independent verification and brute-force ground truth.

`verify_strong_rainbow` checks a coloring from first principles (BFS shortest
paths only); `brute_force_src` finds the true optimum on tiny graphs by
enumerating edge-set partitions, which together validate the closed form and
the coloring algorithm without sharing their machinery. `separate` builds the
separation at an antipodal-to-cut edge explicitly, the reference for the
coloring's choice of a color to reuse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .decomposition import Decomposition
from .errors import InvariantError, NotAntipodalEdgeError, PartialColoringError, TooLargeError
from .graph import EdgeId, Graph, Path, VertexId, _bfs_dist, all_shortest_paths
from .partition import BlackWhitePartition
from .segments import AntipodalIndex
from .solver import EdgeColoring


@dataclass(frozen=True)
class RainbowWitness:
    u: int
    v: int
    path: Path
    repeated_color: int


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    witness: RainbowWitness | None = None


@dataclass(frozen=True)
class BruteForceResult:
    src: int
    colorings_checked: int
    coloring: EdgeColoring


@dataclass(frozen=True)
class Separation:
    """Split of the graph at pivot_vertex = opp(pivot_edge): g1 holds the
    pivot edge's side, g2 the rest; both sides share only the pivot vertex."""

    pivot_edge: EdgeId
    pivot_vertex: VertexId
    g1_edges: frozenset[EdgeId]
    g2_edges: frozenset[EdgeId]


def _total_colors(g: Graph, coloring: EdgeColoring) -> tuple[int, ...]:
    colors = coloring.color
    if len(colors) != g.edge_count:
        raise PartialColoringError(
            f"coloring covers {len(colors)} edges, graph has {g.edge_count}"
        )
    for e, c in enumerate(colors):
        if isinstance(c, bool) or not isinstance(c, int) or c < 1:
            raise PartialColoringError(f"edge {e} has invalid color {c!r}")
    return colors


def _repeated_color(edge_ids, colors) -> int | None:
    seen = set()
    for e in edge_ids:
        c = colors[e]
        if c in seen:
            return c
        seen.add(c)
    return None


def _bfs_parents(g: Graph, source: int) -> tuple[list[int], list[int]]:
    """Parent vertex and parent edge per vertex of the BFS tree from source.

    In a geodetic graph the shortest-path predecessor is unique, so the
    parent chain reproduces the unique shortest path.
    """
    n = g.vertex_count
    par_v = [-1] * n
    par_e = [-1] * n
    par_v[source] = source
    queue = deque([source])
    adj = g.adjacency
    while queue:
        x = queue.popleft()
        for w, eid in adj[x]:
            if par_v[w] < 0:
                par_v[w] = x
                par_e[w] = eid
                queue.append(w)
    return par_v, par_e


def _walk_back(par_v, par_e, source: int, target: int) -> Path:
    verts = [target]
    eids = []
    cur = target
    while cur != source:
        eids.append(par_e[cur])
        cur = par_v[cur]
        verts.append(cur)
    verts.reverse()
    eids.reverse()
    return Path(tuple(verts), tuple(eids))


def _failure(colors, u: int, v: int, path: Path) -> VerificationOutcome:
    rep = _repeated_color(path.edges, colors)
    return VerificationOutcome(False, RainbowWitness(u, v, path, rep))


def _check_tree_paths(g: Graph, colors, jobs) -> VerificationOutcome:
    """Check BFS-tree paths for (source, targets) jobs, in the order given.

    One BFS per source; each target is checked by walking its parent chain
    back to the source. A walk marks the colors it meets in `stamp` with its
    own tick, so nothing is cleared between walks, and a target listed twice
    never sees its own earlier marks. Only the first failing pair gets a
    `Path`.
    """
    # colors renumbered 0..k-1, so the stamp array is sized by the number of
    # colors in use, not by their values
    ids: dict[int, int] = {}
    dense = [ids.setdefault(c, len(ids)) for c in colors]
    stamp = [0] * len(ids)
    tick = 0
    for u, targets in jobs:
        par_v, par_e = _bfs_parents(g, u)
        for v in targets:
            tick += 1
            x = v
            while x != u:
                c = dense[par_e[x]]
                if stamp[c] == tick:
                    return _failure(colors, u, v, _walk_back(par_v, par_e, u, v))
                stamp[c] = tick
                x = par_v[x]
    return VerificationOutcome(True, None)


def _has_rainbow_geodesic(adj, dist, colors, u: int, v: int) -> bool:
    """Whether some shortest u,v path has pairwise distinct colors.

    Depth-first search backward from v over shortest-path predecessors,
    never taking an edge whose color the partial path already uses; it stops
    at the first rainbow path. Iterative, so a geodesic longer than the
    recursion limit is fine. Worst case exponential: the problem is
    NP-complete in general.
    """
    used: set[int] = set()
    # frame: vertex, iterator over its neighbours, color of the edge taken into it
    stack = [(v, iter(adj[v]), None)]
    while stack:
        x, nbrs, _ = stack[-1]
        want = dist[x] - 1
        for w, eid in nbrs:
            if dist[w] == want:
                c = colors[eid]
                if c in used:
                    continue
                if w == u:
                    return True
                used.add(c)
                stack.append((w, iter(adj[w]), c))
                break
        else:
            used.discard(stack.pop()[2])
    return False


def _lex_first_geodesic(g: Graph, du, u: int, v: int) -> Path:
    """The shortest u,v path that is least by vertex sequence (the first one
    `all_shortest_paths` lists), built greedily with one BFS from v."""
    dv = _bfs_dist(g, v)
    d = du[v]
    verts = [u]
    eids = []
    x = u
    while x != v:
        step = du[x] + 1
        x, eid = min(
            (w, eid) for w, eid in g.adjacency[x] if du[w] == step and dv[w] == d - step
        )
        verts.append(x)
        eids.append(eid)
    return Path(tuple(verts), tuple(eids))


def verify_strong_rainbow(
    g: Graph, coloring: EdgeColoring, geodetic_hint: bool = False
) -> VerificationOutcome:
    """Check that every vertex pair has a rainbow shortest path.

    Pairs are checked in (u, v) order and the first failing pair is the
    witness. With `geodetic_hint` the unique shortest path per pair is
    checked (valid for odd cacti): one BFS per source, then a walk up the BFS
    tree per target. Otherwise each pair searches its shortest paths until
    one is rainbow; that is exhaustive, and exponential in the worst case.
    A failing pair's witness path is the lexicographically first shortest
    path, as `all_shortest_paths` orders them.
    """
    colors = _total_colors(g, coloring)
    n = g.vertex_count
    if geodetic_hint:
        return _check_tree_paths(g, colors, ((u, range(u + 1, n)) for u in range(n - 1)))
    adj = g.adjacency
    for u in range(n - 1):
        du = _bfs_dist(g, u)
        for v in range(u + 1, n):
            if not _has_rainbow_geodesic(adj, du, colors, u, v):
                return _failure(colors, u, v, _lex_first_geodesic(g, du, u, v))
    return VerificationOutcome(True, None)


def verify_pairs(g: Graph, coloring: EdgeColoring, pairs) -> VerificationOutcome:
    """Spot-check specific vertex pairs (geodetic graphs).

    Pairs are grouped by source so each source costs one BFS; useful at sizes
    where the full pair enumeration is out of reach. Sources are checked in
    ascending order, each source's targets in the given order. Raises
    ValueError for a vertex id outside 0..n-1.
    """
    colors = _total_colors(g, coloring)
    n = g.vertex_count
    by_source: dict[int, list[int]] = {}
    for u, v in pairs:
        for x in (u, v):
            if not 0 <= x < n:
                raise ValueError(f"invalid vertex {x}")
        if u != v:
            by_source.setdefault(u, []).append(v)
    return _check_tree_paths(g, colors, ((u, by_source[u]) for u in sorted(by_source)))


def _bridges_by_deletion(g: Graph) -> list[int]:
    """Edges whose removal disconnects the graph, found by deleting each one.

    Quadratic but obviously correct; only used at brute-force scale.
    """
    bridges = []
    for e, (a, b) in enumerate(g.edges):
        seen = bytearray(g.vertex_count)
        seen[a] = 1
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for w, eid in g.adjacency[x]:
                if eid != e and not seen[w]:
                    seen[w] = 1
                    queue.append(w)
        if not seen[b]:
            bridges.append(e)
    return bridges


def _partition_colorings(m: int, k: int):
    """All partitions of m edges into exactly k color classes.

    Enumerated as restricted growth strings (edge 0 gets color 1; edge i may
    use at most one more than the running maximum) so each partition appears
    once, with color permutations quotiented out.
    """
    a = [0] * m

    def rec(i: int, mx: int):
        if k - 1 - mx > m - i:
            return  # not enough positions left to reach k classes
        if i == m:
            if mx == k - 1:
                yield tuple(c + 1 for c in a)
            return
        hi = min(mx + 1, k - 1)
        for c in range(hi + 1):
            a[i] = c
            yield from rec(i + 1, mx if c <= mx else c)

    if m == 0:
        return
    yield from rec(1, 0)


def brute_force_search(g: Graph, max_edges: int = 9) -> BruteForceResult:
    """Smallest k admitting a strong rainbow k-coloring, by exhaustive search.

    Ascends k from max(1, #bridges) (distinct bridges always need distinct
    colors), testing exactly-k-class partitions; the first success at the
    smallest k is returned along with the number of colorings verified.
    """
    m = g.edge_count
    if m > max_edges:
        raise TooLargeError(m, max_edges)
    n = g.vertex_count
    pair_paths: list[tuple[tuple[int, ...], ...]] = []
    for u in range(n - 1):
        for v in range(u + 1, n):
            paths = all_shortest_paths(g, u, v)
            if len(paths[0].edges) >= 2:
                pair_paths.append(tuple(p.edges for p in paths))
    # most constrained pairs first, so bad colorings fail fast
    pair_paths.sort(key=lambda ps: (-len(ps[0]), ps))

    checked = 0
    lo = max(1, len(_bridges_by_deletion(g)))
    for k in range(lo, m + 1):
        for colors in _partition_colorings(m, k):
            checked += 1
            ok = True
            for paths in pair_paths:
                if not any(len({colors[e] for e in pe}) == len(pe) for pe in paths):
                    ok = False
                    break
            if ok:
                return BruteForceResult(k, checked, EdgeColoring(k, colors))
    raise AssertionError("unreachable: m distinct colors always verify")


def brute_force_src(g: Graph, max_edges: int = 9) -> int:
    return brute_force_search(g, max_edges).src


def check_distinct_black_colors(
    g: Graph, p: BlackWhitePartition, coloring: EdgeColoring
) -> bool:
    """True iff all black edges carry pairwise distinct colors."""
    colors = _total_colors(g, coloring)
    return len({colors[e] for e in p.e_black}) == len(p.e_black)


def separate(g: Graph, d: Decomposition, a: AntipodalIndex, e: EdgeId) -> Separation:
    """Separation of the graph with respect to (e, opp(e)); e must be in E_ant.

    Built explicitly by BFS, as the reference the coloring's subtree-minima
    lookup (`solver._branch_min_black`) is checked against.
    """
    if e not in a.e_ant:
        raise NotAntipodalEdgeError(e)
    w = a.opp_vertex[e]
    seen = bytearray(g.vertex_count)
    seen[w] = 1  # never cross the pivot
    src = g.edges[e][0]
    seen[src] = 1
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y, _ in g.adjacency[x]:
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    seen[w] = 0
    g1 = frozenset(eid for eid, (x, y) in enumerate(g.edges) if seen[x] or seen[y])
    g2 = frozenset(range(g.edge_count)) - g1
    return Separation(e, w, g1, g2)


def assert_line18_choice(sep: Separation, p: BlackWhitePartition) -> EdgeId:
    """Deterministic eligible-edge choice on the far side of a separation:
    the lowest-id black edge in g2 (one always exists on valid inputs)."""
    eligible = p.e_black & sep.g2_edges
    if not eligible:
        raise InvariantError(
            f"internal invariant violated: no black edge beyond pivot of edge {sep.pivot_edge}"
        )
    return min(eligible)
