"""Tests of the benchmark's own reference computations and output checks.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import rainbow_cactus as rc  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from inputs import Instance  # noqa: E402

SAMPLE = Instance(
    inputs.SAMPLE_EDGES,
    bridges=((6, 8), (4, 9), (9, 10)),
    cycles=((1, 2, 3, 4, 5, 6, 7), (10, 11, 12)),
)


def _cycle(length: int) -> Instance:
    cyc = tuple(range(length))
    return Instance(tuple(zip(cyc, cyc[1:] + cyc[:1])), (), (cyc,))


def _program_colors(inst: Instance) -> dict:
    g = rc.build_graph(inst.edges)
    res = rc.analyze_graph(g).result
    return {checks.edge_key(*g.edge_label_pair(e)): c for e, c in enumerate(res.coloring.color)}


# ------------------------------------------------------- closed form


def test_reference_src_on_the_paper_example():
    assert inputs.reference_src(SAMPLE) == 7


def test_reference_src_on_c3():
    assert inputs.reference_src(_cycle(3)) == 1


@pytest.mark.parametrize("length", [5, 7, 9, 11, 21, 39])
def test_reference_src_on_odd_cycles(length):
    assert inputs.reference_src(_cycle(length)) == (length + 1) // 2


def test_reference_src_on_trees():
    rng = random.Random(3)
    for _ in range(20):
        t = inputs.tree(rng, rng.randint(2, 40))
        assert inputs.reference_src(t) == len(t.edges)


def test_reference_src_matches_brute_force_on_tiny_cacti():
    rng = random.Random(5)
    seen = 0
    while seen < 25:
        inst = inputs.odd_cactus(rng, rng.randint(3, 8))
        if len(inst.edges) > 9:
            continue
        assert inputs.reference_src(inst) == rc.brute_force_src(rc.build_graph(inst.edges))
        seen += 1


# ------------------------------------------------------------ inputs


def test_inputs_repeat_per_seed():
    assert inputs.odd_cactus(random.Random(9), 500) == inputs.odd_cactus(random.Random(9), 500)
    assert inputs.small_batch(random.Random(9), 40) == inputs.small_batch(random.Random(9), 40)
    assert inputs.odd_cactus(random.Random(9), 500) != inputs.odd_cactus(random.Random(10), 500)


def test_small_batch_shares_and_sizes():
    batch = inputs.small_batch(random.Random(1), 200)
    assert sum(i.reject == inputs.EVEN_CYCLE for i in batch) == 20
    assert sum(i.reject == inputs.NOT_CACTUS for i in batch) == 20
    assert all(3 <= i.vertex_count <= 40 for i in batch)


@pytest.mark.parametrize("make, reason", [
    (inputs.with_even_cycle, inputs.EVEN_CYCLE),
    (inputs.with_shared_edge, inputs.NOT_CACTUS),
])
def test_planted_rejections_match_the_program(make, reason):
    rng = random.Random(2)
    for _ in range(20):
        inst = make(rng, rng.randint(3, 24))
        g = rc.build_graph(inst.edges)
        cls = rc.classify(g, rc.decompose(g))
        assert inst.reject == reason == cls.reason.value


# --------------------------------------------- checks on planted faults


def test_checks_accept_the_program_output():
    colors = _program_colors(SAMPLE)
    checks.check_coloring(SAMPLE, colors, 7)
    checks.check_src(SAMPLE, 7, "src")


def test_src_off_by_one_fails():
    with pytest.raises(checks.CheckFailed):
        checks.check_src(SAMPLE, 8, "src")
    report = json.dumps({"classification": "GeneralOddCactus", "src": 6})
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze(SAMPLE, 0, report)
    payload = json.dumps({"src": 8, "coloring": _program_colors(SAMPLE)})
    with pytest.raises(checks.CheckFailed):
        checks.check_color(SAMPLE, 0, payload)


def test_one_changed_edge_color_fails():
    """Give an edge the colour of the edge before it on a shortest path."""
    colors = _program_colors(SAMPLE)
    adj = checks.adjacency(SAMPLE)
    planted = 0
    for b in checks.labels(adj):
        for a in adj[b]:
            for c in adj[b]:
                if a == c or c in adj[a]:
                    continue
                broken = {**colors, checks.edge_key(b, c): colors[checks.edge_key(a, b)]}
                with pytest.raises(checks.CheckFailed):
                    checks.check_coloring(SAMPLE, broken, 7)
                planted += 1
    assert planted > 20


def test_bridges_sharing_a_color_fail():
    colors = _program_colors(SAMPLE)
    colors["4,9"] = colors["6,8"]
    with pytest.raises(checks.CheckFailed, match="bridges|colour"):
        checks.check_coloring(SAMPLE, colors, 7)


def test_wrong_rejection_reason_fails():
    rng = random.Random(4)
    inst = inputs.with_even_cycle(rng, 10)
    good = {"classification": "Rejected", "rejection_reason": inputs.EVEN_CYCLE}
    checks.check_analyze(inst, 2, json.dumps(good))
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze(inst, 2, json.dumps({**good, "rejection_reason": inputs.NOT_CACTUS}))
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze(inst, 0, json.dumps(good))
    with pytest.raises(checks.CheckFailed):
        checks.check_src(inst, inputs.NOT_CACTUS, "src")


def test_planted_fault_is_caught_and_witness_checked(tmp_path):
    inst = inputs.odd_cactus(random.Random(7), 60)
    colors = _program_colors(inst)
    broken = checks.plant_fault(inst, colors)
    with pytest.raises(checks.CheckFailed):
        checks.check_coloring(inst, broken, max(colors.values()))
    graph = tmp_path / "g.txt"
    graph.write_text(inst.text)
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"coloring": broken}))
    code, stdout = workloads.run_cli(["verify", str(graph), str(coloring)])
    checks.check_witness(inst, broken, code, stdout)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(inst, broken, 0, stdout)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(inst, colors, code, stdout)
    u, v = stdout.split("(")[1].split(")")[0].split(",")
    detour = stdout.replace(f"path {u}-", f"path {u}-{u}-")
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(inst, broken, code, detour)


def test_rainbow_checks_agree_on_pairs_and_all_pairs():
    inst = inputs.odd_cactus(random.Random(8), 40)
    colors = _program_colors(inst)
    adj = checks.adjacency(inst)
    everyone = [(u, v) for u in checks.labels(adj) for v in checks.labels(adj)]
    assert checks.rainbow_all_pairs(adj, colors)
    assert checks.rainbow_on_pairs(adj, colors, everyone)
    broken = checks.plant_fault(inst, colors)
    assert not checks.rainbow_all_pairs(adj, broken)
    assert not checks.rainbow_on_pairs(adj, broken, everyone)


def test_outputs_that_change_between_samples_fail(tmp_path):
    w = workloads.verify(random.Random(1), str(tmp_path), vertices=30)
    for op in workloads.OPS:
        workloads.record_output(w, op, workloads.op_fn(w, op)())
    workloads.check_outputs(w)
    workloads.record_output(w, "src", [[0]] * w.reps)
    with pytest.raises(checks.CheckFailed, match="differs"):
        workloads.check_outputs(w)


def test_the_strict_colour_file_counts_as_failed_until_verify_rejects_it(tmp_path):
    w = workloads.verify(random.Random(1), str(tmp_path), vertices=30)
    out = workloads.op_fn(w, "verify")()
    strict = [code for j, (code, _) in zip(w.verify_jobs, out) if j.kind == "strict"]
    assert len(strict) == 1
    assert workloads.failed_in(w, "verify", out) == (strict[0] != 1)
