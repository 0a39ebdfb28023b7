"""Checks of the program's outputs against the benchmark's own computations.

Nothing here calls the program. Shortest paths come from the benchmark's own
BFS, src from `inputs.reference_src`, and the expected rejection reason from
the defect planted by the generator. Every check raises CheckFailed.
"""

from __future__ import annotations

import json
import re

from inputs import Instance, reference_src


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expected_class(inst: Instance) -> str:
    if inst.reject is not None:
        return "Rejected"
    if not inst.cycles:
        return "Tree"
    if len(inst.cycles) == 1 and not inst.bridges:
        return "OddCycle"
    return "GeneralOddCactus"


def edge_key(a: int, b: int) -> str:
    return f"{a},{b}" if a < b else f"{b},{a}"


def adjacency(inst: Instance) -> list[list[int]]:
    """Neighbours by label; labels are small non-negative integers."""
    adj: list[list[int]] = [[] for _ in range(1 + max(x for e in inst.edges for x in e))]
    for a, b in inst.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def labels(adj: list[list[int]]) -> list[int]:
    return [v for v, nbrs in enumerate(adj) if nbrs]


def bfs(adj: list[list[int]], source: int) -> tuple[list[int], list[int]]:
    """(parent, distance) by label in a BFS tree rooted at source; -1 where
    a label is not a vertex."""
    parent = [-1] * len(adj)
    dist = [-1] * len(adj)
    parent[source] = source
    dist[source] = 0
    order = [source]
    for x in order:
        dx = dist[x] + 1
        for w in adj[x]:
            if parent[w] < 0:
                parent[w] = x
                dist[w] = dx
                order.append(w)
    return parent, dist


def tree_path(parent: list[int], target: int) -> list[int]:
    """Vertices from the BFS root to target. Odd cacti are geodetic, so this
    is the unique shortest path."""
    path = [target]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def repeated_color(path: list[int], colors: dict[str, int]) -> int | None:
    seen = set()
    for a, b in zip(path, path[1:]):
        c = colors[edge_key(a, b)]
        if c in seen:
            return c
        seen.add(c)
    return None


def rainbow_on_pairs(adj, colors: dict[str, int], pairs) -> bool:
    """True iff every pair's shortest path (benchmark BFS) is rainbow."""
    by_source: dict[int, list[int]] = {}
    for u, v in pairs:
        by_source.setdefault(u, []).append(v)
    for u, targets in by_source.items():
        parent, _ = bfs(adj, u)
        for v in targets:
            if repeated_color(tree_path(parent, v), colors) is not None:
                return False
    return True


def rainbow_all_pairs(adj, colors: dict[str, int]) -> bool:
    """Every pair, one BFS per source: a vertex's path is rainbow iff its
    parent's is and the last edge's colour is new on it (bitmask of colours)."""
    for u in labels(adj):
        parent, dist = bfs(adj, u)
        mask = {u: 0}
        for v in sorted((v for v in range(len(adj)) if dist[v] > 0), key=dist.__getitem__):
            p = parent[v]
            bit = 1 << colors[edge_key(p, v)]
            if mask[p] & bit:
                return False
            mask[v] = mask[p] | bit
    return True


def check_src(inst: Instance, got, where: str) -> None:
    want = reference_src(inst) if inst.reject is None else inst.reject
    require(got == want, f"{where}: got {got!r}, expected {want!r}")


def check_analyze(inst: Instance, rc: int, stdout: str) -> None:
    report = json.loads(stdout)
    klass = expected_class(inst)
    require(report["classification"] == klass, f"analyze: class {report['classification']} != {klass}")
    if inst.reject is not None:
        require(rc == 2, f"analyze: rejected input exited {rc}, expected 2")
        require(report["rejection_reason"] == inst.reject,
                f"analyze: reason {report['rejection_reason']} != {inst.reject}")
    else:
        require(rc == 0, f"analyze: exited {rc}")
        require(report["src"] == reference_src(inst), f"analyze: src {report['src']} != {reference_src(inst)}")


def check_coloring(inst: Instance, colors: dict[str, int], src: int, pairs=None, adj=None) -> None:
    """Colours are exactly 1..src, bridges are pairwise distinct, and the
    shortest path of each pair (every pair when `pairs` is None) is rainbow."""
    require(len(colors) == len(inst.edges), "color: coloring does not cover every edge")
    require(set(colors.values()) == set(range(1, src + 1)), "color: colours are not exactly 1..src")
    bridge_colors = [colors[edge_key(a, b)] for a, b in inst.bridges]
    require(len(set(bridge_colors)) == len(bridge_colors), "color: two bridges share a colour")
    adj = adj or adjacency(inst)
    ok = rainbow_all_pairs(adj, colors) if pairs is None else rainbow_on_pairs(adj, colors, pairs)
    require(ok, "color: a shortest path repeats a colour")


def check_color(inst: Instance, rc: int, stdout: str, pairs=None, adj=None) -> dict | None:
    """Check `color` output; returns its colouring (None for a rejection)."""
    if inst.reject is not None:
        check_analyze(inst, rc, stdout)
        return None
    payload = json.loads(stdout)
    require(rc == 0, f"color: exited {rc}")
    require(payload["src"] == reference_src(inst), f"color: src {payload['src']} != {reference_src(inst)}")
    check_coloring(inst, payload["coloring"], payload["src"], pairs, adj)
    return payload["coloring"]


_WITNESS = re.compile(r"^FAIL: pair \((\d+),(\d+)\) path ([\d-]+) repeats color (\d+)$")


def check_witness(inst: Instance, colors: dict[str, int], rc: int, stdout: str, adj=None) -> None:
    """A broken colouring exits 3 with a witness path that is a shortest path
    of the graph and repeats a colour of the colouring file."""
    require(rc == 3, f"verify: broken colouring exited {rc}, expected 3")
    match = _WITNESS.match(stdout.strip())
    require(match is not None, f"verify: no witness in {stdout[:200]!r}")
    u, v = int(match.group(1)), int(match.group(2))
    path = [int(x) for x in match.group(3).split("-")]
    adj = adj or adjacency(inst)
    _, dist = bfs(adj, u)
    require(path[0] == u and path[-1] == v, "verify: witness path does not join the witness pair")
    require(all(b in adj[a] for a, b in zip(path, path[1:])), "verify: witness path is not a path")
    require(len(path) - 1 == dist[v], "verify: witness path is not a shortest path")
    on_path = [colors[edge_key(a, b)] for a, b in zip(path, path[1:])]
    require(on_path.count(int(match.group(4))) >= 2, "verify: witness colour is not repeated on the path")


def plant_fault(inst: Instance, colors: dict[str, int]) -> dict[str, int]:
    """Copy of a colouring with one fault: on the shortest path from the
    lowest label to the lowest label at distance two or more, the second
    edge gets the first edge's colour. `verify` walks pairs in label order
    from the lowest label, so it meets the fault after one BFS and a few
    path walks."""
    adj = adjacency(inst)
    root = labels(adj)[0]
    parent, dist = bfs(adj, root)
    far = next(v for v in range(len(adj)) if dist[v] >= 2)
    a, b, c = tree_path(parent, far)[:3]
    broken = dict(colors)
    broken[edge_key(b, c)] = broken[edge_key(a, b)]
    return broken
