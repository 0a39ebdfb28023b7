"""Independent verification and brute-force ground truth.

`verify_strong_rainbow` checks a coloring from first principles (BFS shortest
paths only); `brute_force_src` finds the true optimum on tiny graphs by
enumerating edge-set partitions, which together validate the closed form and
the coloring algorithm without sharing their machinery. The oracle imports
only the graph layer (`graph`, `errors`): its odd-cactus recogniser reads the
blocks off a BFS tree and shares no code with `decompose` or the solver.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain, combinations, compress

from .errors import PartialColoringError, SearchBudgetError, TooLargeError
from .graph import EdgeColoring, Graph, Path, _bfs_dist, _check_vertices, _geodesics, _RowPairs


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


def _total_colors(g: Graph, coloring: EdgeColoring) -> tuple[list[int], int]:
    """The colors renumbered 0..k-1 in order of first use, and k, so arrays
    indexed by color are sized by the number of colors in use, not by their
    values; raises PartialColoringError unless every edge has an int color
    of at least 1."""
    colors = coloring.color
    if len(colors) != g.edge_count:
        raise PartialColoringError(
            f"coloring covers {len(colors)} edges, graph has {g.edge_count}"
        )
    ids: dict[int, int] = {}
    dense = []
    for e, c in enumerate(colors):
        if isinstance(c, bool) or not isinstance(c, int) or c < 1:
            raise PartialColoringError(f"edge {e} has invalid color {c!r}")
        dense.append(ids.setdefault(c, len(ids)))
    return dense, len(ids)


def _repeated_color(edge_ids, colors) -> int | None:
    seen = set()
    for e in edge_ids:
        c = colors[e]
        if c in seen:
            return c
        seen.add(c)
    return None


def _depths(g: Graph, u: int = 0) -> list[int]:
    """The BFS distances from u. From vertex 0 they are the depths of the
    graph's kept BFS tree (`g.tree`), each vertex one below its parent."""
    if u:
        return _bfs_dist(g, u)
    par_v, _, order = g.tree
    dist = [0] * g.vertex_count
    for x in order[1:]:
        dist[x] = dist[par_v[x]] + 1
    return dist


# Steps the rainbow geodesic search may take beyond 2m, the most it takes on
# a geodetic graph. A chain of k diamonds (4-cycles joined at opposite
# corners) with both sides of each alike in color takes about 2^(k+3) steps,
# some 0.16 us each on a 2-CPU host: k = 17 still gets its verdict, and k = 18
# and beyond stop within about 0.2 s.
_SEARCH_STEPS = 1 << 20


def _settle(g: Graph, du, colors, u: int, v: int) -> VerificationOutcome | None:
    """None if some shortest u,v path is rainbow, else the failing outcome
    with the lexicographically first shortest path as its witness. Exact on
    any graph whose search ends within its budget; `du` holds the BFS
    distances from u. Raises SearchBudgetError past the budget."""
    budget = 2 * g.edge_count + _SEARCH_STEPS
    if _has_rainbow_geodesic(_RowPairs(g.rows), du, colors, u, v, budget):
        return None
    path = next(_geodesics(g, du, u, v))
    rep = _repeated_color(path.edges, colors)
    return VerificationOutcome(False, RainbowWitness(u, v, path, rep))


def _has_rainbow_geodesic(adj, dist, colors, u: int, v: int, budget: int) -> bool:
    """Whether some shortest u,v path has pairwise distinct colors.

    Depth-first search backward from v over shortest-path predecessors,
    never taking an edge whose color the partial path already uses; it stops
    at the first rainbow path. Iterative, so a geodesic longer than the
    recursion limit is fine. Worst case exponential: the problem is
    NP-complete in general. So each neighbour it looks at is a step, and
    past `budget` steps it raises SearchBudgetError. On a geodetic graph
    every vertex has one predecessor, the search scans each row at most
    once, and it takes at most 2m steps.
    """
    used: set[int] = set()
    steps = budget
    # frame: vertex, iterator over its neighbours, color of the edge taken into it
    stack = [(v, iter(adj[v]), None)]
    while stack:
        x, nbrs, _ = stack[-1]
        want = dist[x] - 1
        for w, eid in nbrs:
            steps -= 1
            if steps < 0:
                raise SearchBudgetError(u, v, budget)
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


def verify_strong_rainbow(
    g: Graph, coloring: EdgeColoring, geodetic_hint: bool = False
) -> VerificationOutcome:
    """Check that every vertex pair has a rainbow shortest path.

    Pairs are checked in (u, v) order, one source at a time
    (`_check_source`), and the first failing pair is the witness. If source
    0 passes and the graph is an odd cactus, `_cactus_rainbow` decides the
    rest in O(n + m log m) from the block structure, with no BFS; if that
    finds a failure, or the graph is no odd cactus, the check resumes at
    source 1, so the witness is the same either way. A check that ends at
    source 0 runs no BFS and never builds the pair view (`g.adjacency`).
    `geodetic_hint` is accepted for the call shape and not read.
    """
    colors = coloring.color
    dense, k = _total_colors(g, coloring)
    n = g.vertex_count
    for u in range(n - 1):
        dist = _depths(g, u)
        failed = _check_source(g, u, dist, range(u + 1, n), colors, dense, k)
        if failed:
            return failed
        if u == 0:
            cactus = _odd_cactus(g, dist)
            if cactus is not None and _cactus_rainbow(cactus, dense, k):
                break
    return VerificationOutcome(True, None)


def _check_source(g: Graph, u: int, dist, targets, colors, dense, k: int) -> VerificationOutcome | None:
    """The failing outcome of the first of `targets` with no rainbow
    shortest path to u, in the given order; None if each has one. `dist`
    holds the BFS distances from u (`_depths(g, u)`), and `dense` and k are
    the colors as `_total_colors` gives them.

    Source 0 reads the rows; any other source reads the pair view. Then one
    depth-first pass over the shortest-path DAG, the edges from depth d to
    depth d + 1, so O(n + m) in all. The pass pushes a vertex at most once,
    so the pushed vertices form a shortest-path tree, entered in preorder;
    it files the color of each one's tree edge in `entry[x]`, -1 until then,
    and the source the sentinel color k. `pathc[d]` is the color entered at
    depth d on the current tree path and `pos[c]` the depth at which color c
    was last entered; `pathc[0]` is always k, so `pos[c] = 0` never matches.
    A step of color c to depth d repeats a color of the tree path iff
    `pos[c] < d and pathc[pos[c]] == c`: a vertex entered through c is never
    below an ancestor entered through c, so `pos[c]` is that ancestor's
    depth while it is on the path, and a stale entry fails the `pathc` test
    because every ancestor has written its own depth. Such a step is not
    taken, though its head may still be pushed through another predecessor.

    A vertex the pass reaches has a rainbow shortest path to u. Only the
    other targets search their shortest paths (`_settle`), which is
    exhaustive and exponential in the worst case; on a geodetic graph such
    as an odd cactus it follows the one path. Any shortest-path tree gives
    the same outcome, because the search does not depend on the tree. A
    failing pair's witness path is the lexicographically first shortest
    path, as `all_shortest_paths` orders them.
    """
    n = g.vertex_count
    adj = g.adjacency if u else _RowPairs(g.rows)
    entry = [-1] * n
    entry[u] = k
    pos = [0] * (k + 1)
    pathc = [0] * n
    stack = [u]
    while stack:
        x = stack.pop()
        c = entry[x]
        d = dist[x]
        pos[c] = d
        pathc[d] = c
        d += 1
        for w, eid in adj[x]:
            if dist[w] == d and entry[w] < 0:
                c = dense[eid]
                p = pos[c]
                if p < d and pathc[p] == c:
                    continue
                entry[w] = c
                stack.append(w)
    if -1 in entry:
        for v in targets:
            if entry[v] < 0:
                failed = _settle(g, dist, colors, u, v)
                if failed:
                    return failed
    return None


@dataclass(frozen=True)
class _OddCactus:
    """An odd cactus's blocks, read off the BFS tree from vertex 0.

    `verts[b]` holds block b's vertices from its top, the one nearest vertex
    0, and `edges[b]` its edges in that order, edge i joining vertices i and
    i + 1 (mod the length). Vertex x > 0 has its tree edge in block
    `block[x]`; vertex 0 has block -1. `dist` holds the tree's depths.
    """

    par_v: list[int]
    par_e: list[int]
    verts: list[list[int]]
    edges: list[list[int]]
    block: list[int]
    dist: list[int]

    def layout(self):
        """The blocks in preorder from vertex 0, as per-edge arrays: slot,
        block, block length, seen_lo, seen_hi and up.

        Each block's edges hold a run of slots 0..m-1, a cycle's in cycle
        order from its top, and a block's run comes after its parent's and
        before its own subtree's. So a block's subtree is a slot range, and
        so are the blocks below any vertex: those hanging there and their
        subtrees. Edge e "sees" the blocks that are reached from its block
        through its pivot, the vertex of its cycle opposite e: no geodesic
        holds e and an edge of such a block. For an "up" edge, `up[e]`, the
        pivot is its block's top, [seen_lo[e], seen_hi[e]) is the block's
        subtree and e sees every block outside it. For any other edge the
        range holds the blocks below its pivot, which e sees; it is empty
        for a bridge and for a pivot where nothing hangs.
        """
        verts, block_edges = self.verts, self.edges
        hanging: list[list[int]] = [[] for _ in self.block]
        for b, vs in enumerate(verts):
            hanging[vs[0]].append(b)

        # preorder by an explicit stack of blocks: a block takes the next
        # slots, then come the blocks hanging at its lower vertices, one
        # vertex's together; ~b closes block b once all below it have slots
        nb = len(verts)
        first, stop = [0] * nb, [0] * nb
        t = 0
        stack = list(hanging[0])
        while stack:
            b = stack.pop()
            if b < 0:
                stop[~b] = t
                continue
            first[b] = t
            t += len(block_edges[b])
            stack.append(~b)
            for w in verts[b][1:]:
                stack += hanging[w]

        m = t  # each edge is in one block
        slot, block = [0] * m, [0] * m
        seen_lo, seen_hi, up = [0] * m, [0] * m, bytearray(m)
        for b, es in enumerate(block_edges):
            length = len(es)
            vs = verts[b]
            for i, e in enumerate(es):
                slot[e] = first[b] + i
                block[e] = b
                if length > 1:
                    # the edge at position i joins positions i and i + 1;
                    # the vertex (length - 1) / 2 positions behind it is
                    # opposite
                    j = (i - length // 2) % length
                    if j == 0:
                        up[e] = 1
                        seen_lo[e], seen_hi[e] = first[b], stop[b]
                    elif hanging[vs[j]]:
                        # popped last to first, so the first block ends the range
                        below = hanging[vs[j]]
                        seen_lo[e], seen_hi[e] = first[below[-1]], stop[below[0]]
        return slot, block, [len(es) for es in block_edges], seen_lo, seen_hi, up


def _odd_cactus(g: Graph, dist=None) -> _OddCactus | None:
    """g's blocks if g is an odd cactus, else None, from the BFS tree from
    vertex 0 that the graph keeps (`g.tree`) and its depths (`dist`, if the
    caller has them).

    Each non-tree edge (a, b) of a BFS tree closes one fundamental cycle,
    the tree paths from a and b up to where they meet. g is a cactus iff
    these cycles share no tree edge, and an odd cactus iff in addition a and
    b are always equally deep. The walk stops at the first tree edge it
    meets twice, so it costs O(n + m). Shares no code with `decompose`.
    """
    n, edges = g.vertex_count, g.edges
    par_v, par_e, _ = g.tree
    dist = _depths(g) if dist is None else dist
    closing = bytearray(b"\x01") * len(edges)
    for e in par_e[1:]:
        closing[e] = 0
    verts: list[list[int]] = []
    block_edges: list[list[int]] = []
    # block[x] >= 0 says that a block already holds the tree edge up from x
    block = [-1] * n
    for e in compress(range(len(edges)), closing):
        a, b = edges[e]
        if dist[a] != dist[b]:
            return None  # an even cycle
        c = len(verts)
        down, rise = [], []
        while a != b:
            if block[a] >= 0 or block[b] >= 0:
                return None  # a tree edge on two cycles
            block[a] = block[b] = c
            down.append(a)
            rise.append(b)
            a, b = par_v[a], par_v[b]
        down.reverse()
        verts.append([a, *down, *rise])
        block_edges.append([par_e[x] for x in down] + [e] + [par_e[x] for x in rise])
    for w in range(1, n):
        if block[w] < 0:
            x = par_v[w]
            block[w] = len(verts)
            verts.append([x, w])
            block_edges.append([par_e[w]])
    return _OddCactus(par_v, par_e, verts, block_edges, block, dist)


def _cactus_rainbow(cactus: _OddCactus, dense: list[int], k: int) -> bool:
    """Whether a coloring of an odd cactus is strong rainbow.

    An odd cactus is geodetic, so a coloring is strong rainbow iff no two
    edges of one color lie on a common geodesic. Two edges e, f of one odd
    cycle of length L do so iff one way round the cycle they are fewer than
    (L - 1) / 2 positions apart. Two edges in different blocks do unless e
    sees f's block or f sees e's (`_OddCactus.layout`). Per color class:

    - An edge that is not up sees only blocks below its pivot, in its own
      subtree, so the class's edges that are not up lie in blocks down one
      chain of the block tree, each block below the pivot of the single
      class edge in the block above it; two such edges of one block have
      pivots with disjoint subtrees below them, so that block ends the
      chain. Let D be the block of the deepest of them, the last in slot
      order. A seen range is a union of whole subtrees, so they form such
      a chain iff each of them outside D sees D.
    - Up edges e, f of two blocks never meet on a geodesic: e sees f's
      block unless that lies in e's subtree, and then f sees e's block,
      which is above it. An up edge meets exactly the edges that are not
      up strictly below its block, and on the chain one of them is there
      iff D is, that is, iff the up edge does not see D.

    So a class passes iff each of its edges outside D sees D, and each
    pair in one block passes the cycle test.

    O(m log m), for the sort into (color, slot) order.
    """
    slot, block, length, seen_lo, seen_hi, up = cactus.layout()
    m = len(slot)
    size = [0] * k
    for c in dense:
        size[c] += 1
    # a color on one edge is never repeated on a path
    shared = [e for e in range(m) if size[dense[e]] > 1]
    key = [0] * m
    for e in shared:
        key[e] = dense[e] * m + slot[e]
    shared.sort(key=key.__getitem__)

    # runs of one color in one block; in a cycle, each step along the run
    # and the way round from its last edge to its first span (L - 1) / 2
    # positions or more
    nb = len(length)
    run = [dense[e] * nb + block[e] for e in shared]
    start = 0
    for i in range(1, len(shared)):
        if run[i] != run[i - 1]:
            start = i
            continue
        half = length[block[shared[i]]] // 2
        at = slot[shared[i]]
        if at - slot[shared[i - 1]] < half or at - slot[shared[start]] > half + 1:
            return False

    # each color from its last edge back, so that its deepest edge that is
    # not up comes first; an up edge sees the blocks outside its seen
    # range, any other edge those in it
    deepest = [-1] * k
    for e in reversed(shared):
        c = dense[e]
        d = deepest[c]
        if d < 0:
            if not up[e]:
                deepest[c] = e
        elif block[e] != block[d] and (seen_lo[e] <= slot[d] < seen_hi[e]) == up[e]:
            return False
    return True


# The route rule of `verify_pairs`, from timings of both routes on generated
# odd cacti of 1,000 to 100,000 vertices, in units of one source's BFS and
# pass (`_check_source`): the recogniser on the kept tree costs 1.0 to 1.3
# of them at 1,000 and 2,000 vertices, 0.8 at 10,000 and 0.5 at 100,000, and
# a structural pair walk what the pass spends on 10 to 13 vertices and
# edges. So 16 sources of 250 targets take the BFS route at 1,000 vertices
# and 4 sources the structural walks at 2,000, the faster route each time.
_TREE_PASS = 1
_PAIR_COST = 10


def verify_pairs(g: Graph, coloring: EdgeColoring, pairs) -> VerificationOutcome:
    """Spot-check specific vertex pairs, as exactly as `verify_strong_rainbow`.

    Sources are checked in ascending order, each source's targets in the
    given order; the first failing pair is the witness. On an odd cactus,
    once (sources - _TREE_PASS) * (n + m) > _PAIR_COST * pairs (distinct
    sources, pairs with u != v), the structural walks run: the recogniser
    on the graph's BFS tree from vertex 0 (`g.tree`), O(n + m), then
    O(d(u, v)) per pair (`_cactus_walks`), with no pair view built.
    Otherwise each source is checked as `verify_strong_rainbow` checks it
    (`_check_source`): a BFS, except from source 0, and a pass, O(n + m),
    then O(1) per target, exact on any graph. A pair whose walked path
    repeats a color, or that the pass does not reach, goes to `_settle`, so
    both routes give the same witness. Raises ValueError for a vertex id
    that is not an int in 0..n-1, before any BFS.
    """
    dense, k = _total_colors(g, coloring)
    by_source = _by_source(g, pairs)
    count = sum(map(len, by_source.values()))
    if (len(by_source) - _TREE_PASS) * (g.vertex_count + g.edge_count) > _PAIR_COST * count:
        cactus = _odd_cactus(g)
        if cactus is not None:
            return _cactus_walks(g, cactus, coloring.color, dense, k, by_source)
    for u in sorted(by_source):
        failed = _check_source(g, u, _depths(g, u), by_source[u], coloring.color, dense, k)
        if failed:
            return failed
    return VerificationOutcome(True, None)


def _by_source(g: Graph, pairs) -> dict[int, list[int]]:
    """The targets of each source, in the given order, without u == v pairs;
    raises ValueError for a vertex id that is not an int in 0..n-1."""
    pairs = list(pairs)
    _check_vertices(g, chain.from_iterable(pairs))
    by_source: dict[int, list[int]] = defaultdict(list)
    for u, v in pairs:
        if u != v:
            by_source[u].append(v)
    return by_source


def _cactus_walks(
    g: Graph, cactus: _OddCactus, colors, dense, k: int, by_source: dict[int, list[int]]
) -> VerificationOutcome:
    """The pairs of an odd cactus checked along their unique geodesics.

    The geodesic from x to y is walked from both ends at once. If x and y
    lie below the top of one cycle and the shorter arc between their
    positions, unique as the cycle is odd, keeps off the top, that arc is
    the rest of it. Otherwise it leaves the block of the end whose block
    top is deeper (either end on a tie) through that top, by the tree path,
    the shorter way round. A walk marks the `dense` colors it meets in
    `stamp` with its own tick, so nothing is cleared between walks, and
    costs O(d(u, v)).
    """
    par_v, par_e, block_edges, block = cactus.par_v, cactus.par_e, cactus.edges, cactus.block
    # per block its top and the top's depth, and -1 for vertex 0's block -1,
    # so vertex 0 never climbs; per vertex x > 0 its position in block[x]
    top = [vs[0] for vs in cactus.verts]
    top_depth = [*map(cactus.dist.__getitem__, top), -1]
    pos = [0] * len(block)
    for vs in cactus.verts:
        for i in range(1, len(vs)):
            pos[vs[i]] = i
    stamp = [0] * k
    tick = 0
    for u in sorted(by_source):
        for v in by_source[u]:
            tick += 1
            x, y = u, v
            repeat = False
            while x != y and not repeat:
                b, by = block[x], block[y]
                if b == by:
                    i, j = pos[x], pos[y]
                    if i > j:
                        i, j = j, i
                    arc = block_edges[b]
                    if 2 * (j - i) < len(arc):
                        for e in arc[i:j]:
                            c = dense[e]
                            if stamp[c] == tick:
                                repeat = True
                                break
                            stamp[c] = tick
                        break
                if top_depth[b] < top_depth[by]:
                    x, y, b = y, x, by
                t = top[b]
                while x != t:
                    c = dense[par_e[x]]
                    if stamp[c] == tick:
                        repeat = True
                        break
                    stamp[c] = tick
                    x = par_v[x]
            if repeat:
                failed = _settle(g, _bfs_dist(g, u), colors, u, v)
                if failed:
                    return failed
    return VerificationOutcome(True, None)


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
    once, with color permutations quotiented out. The strings come in
    lexicographic order, from one loop: the last position runs through its
    values, then the rightmost earlier position that can still rise does,
    and the positions after it take the least tail that reaches k colors,
    1s and then the missing colors in order.
    """
    if not 1 <= k <= m:
        return
    last = m - 1
    a = [1] * (m - k + 1) + list(range(2, k + 1))
    top = [1] * (m - k + 1) + a[m - k + 1 :]  # top[i] = max(a[: i + 1])
    while True:
        if last and top[last - 1] == k:
            for c in range(1, k + 1):
                a[last] = c
                yield tuple(a)
        else:  # the last position must bring in color k
            yield tuple(a)
        i = last - 1
        while i > 0:
            c = a[i] + 1
            mx = top[i - 1]
            # at most one above the running maximum, and the positions
            # after i must still bring in every color above it
            if c <= mx + 1 and c <= k and k - max(mx, c) <= last - i:
                break
            i -= 1
        else:
            return
        a[i] = c
        mx = top[i] = max(mx, c)
        ones = last - i - (k - mx)
        a[i + 1 :] = [1] * ones + list(range(mx + 1, k + 1))
        top[i + 1 :] = [mx] * ones + a[m - (k - mx) :]


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
        du = _bfs_dist(g, u)
        for v in range(u + 1, n):
            if du[v] >= 2:
                pair_paths.append(tuple(p.edges for p in _geodesics(g, du, u, v)))
    # most constrained pairs first, so bad colorings fail fast
    pair_paths.sort(key=lambda ps: (-len(ps[0]), ps))
    # a pair with one geodesic only needs its edges apart in color, so those
    # pairs become one list of edge pairs, the longest geodesics' first
    conflicts: dict[tuple[int, int], None] = {}
    several = []
    for paths in pair_paths:
        if len(paths) > 1:
            several.append(paths)
        else:
            conflicts.update(dict.fromkeys(combinations(sorted(paths[0]), 2)))

    checked = 0
    lo = max(1, len(_bridges_by_deletion(g)))
    for k in range(lo, m + 1):
        for colors in _partition_colorings(m, k):
            checked += 1
            for e, f in conflicts:
                if colors[e] == colors[f]:
                    break
            else:
                for paths in several:
                    if not any(len({colors[e] for e in pe}) == len(pe) for pe in paths):
                        break
                else:
                    return BruteForceResult(k, checked, EdgeColoring(k, colors))
    raise AssertionError("unreachable: m distinct colors always verify")


def brute_force_src(g: Graph, max_edges: int = 9) -> int:
    return brute_force_search(g, max_edges).src
