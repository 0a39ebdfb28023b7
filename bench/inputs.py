"""Seeded benchmark inputs, each with a record of its blocks.

The program only ever receives edge-list text made from these instances. The
block record (which edges are bridges, which vertex sequences are cycles, and
which defect was planted) lets the benchmark evaluate the closed form for
src(G) and the expected rejection reason without calling the program.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

# Acceptance criterion 7's make-up: cycle lengths 3-9, about 35% pendant edges.
LARGE_CYCLES = (3, 5, 7, 9)
LARGE_PENDANT = 0.35

EVEN_CYCLE = "ContainsEvenCycle"
NOT_CACTUS = "NotCactus"

# The paper's 13-edge example: a 7-cycle and a triangle joined by the bridge
# path 4-9-10, with a pendant edge 6-8. src = 7.
SAMPLE_EDGES = (
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1),
    (6, 8), (4, 9), (9, 10), (10, 11), (11, 12), (12, 10),
)


@dataclass(frozen=True)
class Instance:
    """One input graph and the record of how it was built.

    `edges` holds raw labels in the order they are written. `cycles` lists
    each cycle block as its vertices in cyclic order; `bridges` the edges that
    are blocks of their own. `reject` is the planted rejection reason, or
    None for an odd cactus.
    """

    edges: tuple[tuple[int, int], ...]
    bridges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]
    reject: str | None = None

    @property
    def text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    @property
    def vertex_count(self) -> int:
        return len({x for e in self.edges for x in e})


def _cycle_edges(cyc):
    return [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]


def _grow(rng: random.Random, target: int, lengths, pendant: float):
    """Grow a cactus from vertex 0 by attaching pendant edges or cycles with
    lengths drawn from `lengths` at uniformly chosen existing vertices."""
    bridges: list[tuple[int, int]] = []
    cycles: list[tuple[int, ...]] = []
    count = 1
    while count < target:
        anchor = rng.randrange(count)
        if not lengths or rng.random() < pendant:
            bridges.append((anchor, count))
            count += 1
        else:
            length = rng.choice(lengths)
            cycles.append((anchor, *range(count, count + length - 1)))
            count += length - 1
    return count, bridges, cycles


def _finish(rng, count, bridges, cycles, extra_edges=(), reject=None) -> Instance:
    """Relabel vertices by a seeded permutation, shuffle the edge order and
    the orientation of each edge, and keep the block record in the new labels."""
    perm = list(range(count))
    rng.shuffle(perm)
    bridges = [(perm[a], perm[b]) for a, b in bridges]
    cycles = [tuple(perm[v] for v in cyc) for cyc in cycles]
    edges = list(bridges) + [e for cyc in cycles for e in _cycle_edges(cyc)]
    edges += [(perm[a], perm[b]) for a, b in extra_edges]
    rng.shuffle(edges)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    return Instance(tuple(edges), tuple(bridges), tuple(cycles), reject)


def odd_cactus(rng: random.Random, target: int, lengths=LARGE_CYCLES, pendant=LARGE_PENDANT) -> Instance:
    return _finish(rng, *_grow(rng, target, lengths, pendant))


def bare_cycle(rng: random.Random, length: int) -> Instance:
    return _finish(rng, length, [], [tuple(range(length))])


def tree(rng: random.Random, target: int) -> Instance:
    return _finish(rng, *_grow(rng, target, (), 1.0))


def with_even_cycle(rng: random.Random, target: int) -> Instance:
    """An odd cactus with one even cycle attached at a random vertex."""
    count, bridges, cycles = _grow(rng, target, LARGE_CYCLES, LARGE_PENDANT)
    length = rng.choice((4, 6, 8))
    anchor = rng.randrange(count)
    ring = (anchor, *range(count, count + length - 1))
    count += length - 1
    return _finish(rng, count, bridges, cycles, _cycle_edges(ring), EVEN_CYCLE)


def with_shared_edge(rng: random.Random, target: int) -> Instance:
    """An odd cactus with two cycles sharing an edge (a theta graph: two
    vertices joined by three disjoint paths) attached at a random vertex."""
    count, bridges, cycles = _grow(rng, target, LARGE_CYCLES, LARGE_PENDANT)
    s = rng.randrange(count)
    t = count
    count += 1
    extra = [(s, t)]
    for _ in range(2):
        inner = rng.randint(1, 3)
        path = [s, *range(count, count + inner), t]
        count += inner
        extra += list(zip(path, path[1:]))
    return _finish(rng, count, bridges, cycles, extra, NOT_CACTUS)


def reference_src(inst: Instance) -> int | None:
    """src(G) from the block record: m for a tree, 1 for C3, (L+1)/2 for a
    bare odd cycle C_L, and (m + |E_cut| + |S1| - |E_ant|) / 2 otherwise.

    A cut vertex lies in two or more blocks. On a cycle C of odd length L with
    vertices c_0..c_{L-1}, the closed trail puts c_i at position 2i and the
    edge c_i c_{i+1} at 2i+1. Each cut vertex c_i and its antipodal edge, at
    position 2(i + (L-1)/2) + 1, bound the segments. Every cut vertex gives one
    antipodal edge to E_ant, and every pair of cyclically consecutive
    boundaries that are both vertices gives one S1 segment.
    """
    if inst.reject is not None:
        return None
    m = len(inst.edges)
    if not inst.cycles:
        return m
    if len(inst.cycles) == 1 and not inst.bridges:
        length = len(inst.cycles[0])
        return 1 if length == 3 else (length + 1) // 2
    blocks_at = Counter(v for e in inst.bridges for v in e)
    blocks_at.update(v for cyc in inst.cycles for v in cyc)
    e_ant = s1 = 0
    for cyc in inst.cycles:
        length = len(cyc)
        half = (length - 1) // 2
        cuts = [i for i, v in enumerate(cyc) if blocks_at[v] >= 2]
        e_ant += len(cuts)
        bounds = sorted([2 * i for i in cuts] + [2 * ((i + half) % length) + 1 for i in cuts])
        s1 += sum(
            1
            for j, p in enumerate(bounds)
            if p % 2 == 0 and bounds[(j + 1) % len(bounds)] % 2 == 0
        )
    total = m + len(inst.bridges) + s1 - e_ant
    if total % 2:
        raise ValueError("closed form is odd: the block record is inconsistent")
    return total // 2


def small_batch(rng: random.Random, size: int) -> list[Instance]:
    """`size` graphs of 3-40 vertices in a fixed pattern repeating every 20:
    10 odd cacti, 3 bare odd cycles, 3 trees, 2 with one even cycle and 2
    with two cycles sharing an edge. Any prefix of a multiple of 20 graphs
    has these shares; the graphs themselves are seeded."""
    pattern = (
        [lambda: odd_cactus(rng, rng.randint(4, 32))] * 10
        + [lambda: bare_cycle(rng, rng.randrange(3, 40, 2))] * 3
        + [lambda: tree(rng, rng.randint(4, 40))] * 3
        + [lambda: with_even_cycle(rng, rng.randint(3, 24))] * 2
        + [lambda: with_shared_edge(rng, rng.randint(3, 24))] * 2
    )
    return [pattern[i % len(pattern)]() for i in range(size)]
