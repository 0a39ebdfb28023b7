"""Seeded random generation of odd cacti.

Graphs are grown by repeatedly attaching either a pendant edge or a fresh odd
cycle at a uniformly chosen existing vertex, which guarantees every block is
an edge or an odd cycle. Output is deterministic per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidSpecError
from .graph import Graph, build_graph


@dataclass(frozen=True)
class GenSpec:
    seed: int
    target_vertices: int
    cycle_lengths: tuple[int, ...] = (3, 5, 7)
    pendant_probability: float = 0.3


# `generate` peaked at 560-730 bytes per vertex (tracemalloc, 10k-300k
# vertices); at 800 bytes each, a call stays within a 1 GiB memory budget
MAX_TARGET_VERTICES = 2**30 // 800


def _validate(spec: GenSpec) -> None:
    if spec.target_vertices < 2:
        raise InvalidSpecError("target_vertices must be at least 2")
    if spec.target_vertices > MAX_TARGET_VERTICES:
        raise InvalidSpecError(f"target_vertices must be at most {MAX_TARGET_VERTICES}")
    if not 0.0 <= spec.pendant_probability <= 1.0:
        raise InvalidSpecError("pendant_probability must be in [0, 1]")
    for length in spec.cycle_lengths:
        if length < 3 or length % 2 == 0:
            raise InvalidSpecError(f"cycle length {length} is not an odd integer >= 3")
    if not spec.cycle_lengths and spec.pendant_probability < 1.0:
        raise InvalidSpecError("cycle_lengths may only be empty when pendants are certain")


def generate(spec: GenSpec) -> Graph:
    """Grow an odd cactus with at least `target_vertices` vertices."""
    _validate(spec)
    rng = random.Random(spec.seed)
    edges: list[tuple[int, int]] = []
    count = 1
    while count < spec.target_vertices:
        anchor = rng.randrange(count)
        if rng.random() < spec.pendant_probability:
            edges.append((anchor, count))
            count += 1
        else:
            length = rng.choice(spec.cycle_lengths)
            chain = [anchor] + list(range(count, count + length - 1))
            count += length - 1
            for a, b in zip(chain, chain[1:]):
                edges.append((a, b))
            edges.append((chain[-1], anchor))
    return build_graph(edges)
