from __future__ import annotations

import time
import tracemalloc

import pytest

from rainbow_cactus import (
    GenSpec,
    GraphClass,
    classify,
    decompose,
    format_edge_list,
    generate,
)
from rainbow_cactus.errors import InvalidSpecError
from rainbow_cactus.generator import MAX_TARGET_VERTICES, _validate


class TestGenSpecValidation:
    def test_even_cycle_length_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(GenSpec(seed=0, target_vertices=10, cycle_lengths=(3, 4)))

    def test_cycle_length_below_three_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(GenSpec(seed=0, target_vertices=10, cycle_lengths=(1,)))

    def test_empty_lengths_need_certain_pendants(self):
        with pytest.raises(InvalidSpecError):
            generate(GenSpec(seed=0, target_vertices=10, cycle_lengths=(), pendant_probability=0.5))
        g = generate(GenSpec(seed=0, target_vertices=10, cycle_lengths=(), pendant_probability=1.0))
        assert classify(g, decompose(g)).tag is GraphClass.TREE

    def test_target_below_two_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(GenSpec(seed=0, target_vertices=1))

    def test_target_past_the_ceiling_fails_fast(self):
        # a request for 10^12 vertices fails before anything is built
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(InvalidSpecError, match=f"at most {MAX_TARGET_VERTICES}$"):
                generate(GenSpec(seed=0, target_vertices=10**12))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 64 * 1024

    def test_ceiling_admits_the_largest_probes(self):
        # the 300k-vertex probe and the ceiling itself pass; one more fails
        _validate(GenSpec(seed=0, target_vertices=300_000))
        _validate(GenSpec(seed=0, target_vertices=MAX_TARGET_VERTICES))
        with pytest.raises(InvalidSpecError):
            _validate(GenSpec(seed=0, target_vertices=MAX_TARGET_VERTICES + 1))

    def test_probability_out_of_range(self):
        with pytest.raises(InvalidSpecError):
            generate(GenSpec(seed=0, target_vertices=5, pendant_probability=1.5))


class TestGenerate:
    def test_minimum_target_gives_a_graph(self):
        g = generate(GenSpec(seed=3, target_vertices=2, pendant_probability=1.0))
        assert g.vertex_count == 2
        assert g.edge_count == 1

    def test_pendants_only_gives_trees(self):
        for seed in range(20):
            g = generate(GenSpec(seed=seed, target_vertices=15, pendant_probability=1.0))
            assert g.vertex_count == 15
            assert classify(g, decompose(g)).tag is GraphClass.TREE

    def test_never_rejected(self):
        accepted = {GraphClass.TREE, GraphClass.ODD_CYCLE, GraphClass.GENERAL_ODD_CACTUS}
        for seed in range(1000):
            spec = GenSpec(seed=seed, target_vertices=2 + seed % 25)
            g = generate(spec)
            assert classify(g, decompose(g)).tag in accepted

    def test_reaches_target(self):
        for seed in range(20):
            spec = GenSpec(seed=seed, target_vertices=30, cycle_lengths=(3, 5, 7))
            g = generate(spec)
            assert 30 <= g.vertex_count <= 36

    def test_deterministic_per_seed(self):
        spec = GenSpec(seed=42, target_vertices=25, cycle_lengths=(3, 5), pendant_probability=0.4)
        first = format_edge_list(generate(spec))
        second = format_edge_list(generate(spec))
        assert first == second

    def test_different_seeds_differ(self):
        a = generate(GenSpec(seed=1, target_vertices=25))
        b = generate(GenSpec(seed=2, target_vertices=25))
        assert format_edge_list(a) != format_edge_list(b)
