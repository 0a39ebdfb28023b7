"""The three workloads: their inputs, the timed operations and their checks.

Every workload runs the same six operations on its own inputs, so every
end-to-end metric exists on every workload:

  src      library path from text to src: parse_edge_list, build_graph,
           decompose, classify, then build_antipodal_index,
           enumerate_segments and src_formula on accepted graphs
  analyze  cli.main(["analyze", path]) with stdout captured
  color    cli.main(["color", path])
  graphs   parse_edge_list -> build_graph -> analyze_graph
  verify   cli.main(["verify", graph, coloring])
  spot     verify_pairs on seeded pairs

`reps` repeats the per-graph operations inside one timed sample where a
workload's graphs are too small to time one pass well.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import rainbow_cactus as rc
from rainbow_cactus import cli

import checks
import inputs
from inputs import Instance

OPS = ("src", "analyze", "color", "graphs", "verify", "spot")

# Seeded spot-check pairs per large graph: sources x targets per source.
SPOT_SOURCES = 16
SPOT_TARGETS = 250
# small-batch: graphs in the batch, and how many of them go through the CLI
# (each CLI call pays a fixed ~2 ms for argument parsing and output).
SMALL_BATCH = 2000
SMALL_CLI_COUNT = 400
# brute_force_src checks the graphs of at most 9 edges among the first cases
# (it takes up to 0.5 s per graph).
BRUTE_FORCE_CASES = 200


@dataclass
class Case:
    inst: Instance
    text: str
    path: str  # edge-list file for the CLI ("" where no CLI call reads it)
    graph: object = None  # the program's Graph, built in set-up where a job needs it


@dataclass
class VerifyJob:
    """One `verify` call. kind is "ok" (the optimal colouring), "fault" (one
    planted fault, exit 3) or "strict" (non-integer colours, exit 1)."""

    case: Case
    coloring_path: str
    kind: str
    colors: dict
    coloring: object = None  # EdgeColoring for the traced library call


@dataclass
class SpotJob:
    case: Case
    colors: dict
    coloring: object
    pairs: list  # dense vertex ids (rank of the label), as verify_pairs takes them
    label_pairs: list


@dataclass
class Workload:
    name: str
    cases: list[Case]
    verify_jobs: list[VerifyJob]
    spot_jobs: list[SpotJob]
    reps: int
    all_pairs: bool  # check every pair's path, not only the spot pairs
    cli_count: int | None = None  # analyze, color and verify use the first cli_count cases
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def cli_cases(self) -> list[Case]:
        return self.cases[: self.cli_count]

    def attempted_per_round(self) -> int:
        per_rep = 2 * len(self.cases) + 2 * len(self.cli_cases) + len(self.spot_jobs)
        return self.reps * per_rep + len(self.verify_jobs)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def library_src(text: str):
    """src of an accepted graph, or the rejection reason."""
    g = rc.build_graph(rc.parse_edge_list(text))
    d = rc.decompose(g)
    cls = rc.classify(g, d)
    if not cls.accepted:
        return cls.reason.value
    a = rc.build_antipodal_index(d)
    return rc.src_formula(d, rc.enumerate_segments(d, a))


def library_analysis(text: str):
    an = rc.analyze_graph(rc.build_graph(rc.parse_edge_list(text)))
    if an.result is None:
        return an.classification.reason.value
    return an.classification.tag.value, an.result.src


def op_fn(w: Workload, op: str):
    """A zero-argument callable running one sample of `op` on `w`."""
    if op == "src":
        return lambda: [[library_src(c.text) for c in w.cases] for _ in range(w.reps)]
    if op == "graphs":
        return lambda: [[library_analysis(c.text) for c in w.cases] for _ in range(w.reps)]
    if op in ("analyze", "color"):
        return lambda: [[run_cli([op, c.path]) for c in w.cli_cases] for _ in range(w.reps)]
    if op == "verify":
        return lambda: [run_cli(["verify", j.case.path, j.coloring_path]) for j in w.verify_jobs]
    if op == "spot":
        return lambda: [
            [rc.verify_pairs(j.case.graph, j.coloring, j.pairs).ok for j in w.spot_jobs]
            for _ in range(w.reps)
        ]
    raise ValueError(op)


def failed_in(w: Workload, op: str, out) -> int:
    """Operations that failed: a "strict" verify job that did not exit 1."""
    if op != "verify":
        return 0
    return sum(1 for j, (code, _) in zip(w.verify_jobs, out) if j.kind == "strict" and code != 1)


def record_output(w: Workload, op: str, out) -> None:
    """Keep the first sample's outputs; note any later sample that differs."""
    if w.outputs.setdefault(op, out) != out:
        w.errors.append(f"{op}: output differs between samples")


def check_outputs(w: Workload) -> None:
    """Full check of the kept outputs of every operation."""
    checks.require(not w.errors, "; ".join(w.errors))
    out = w.outputs
    adjs: dict[int, list] = {}

    def adj(c: Case):
        if id(c) not in adjs:
            adjs[id(c)] = checks.adjacency(c.inst)
        return adjs[id(c)]

    for op in ("src", "analyze", "color", "graphs", "spot"):
        for rep in out[op]:
            checks.require(rep == out[op][0], f"{op}: repetitions disagree")
    for j, (code, stdout) in zip(w.verify_jobs, out["verify"]):
        if j.kind == "ok":
            want = f"OK k={inputs.reference_src(j.case.inst)}"
            checks.require((code, stdout.strip()) == (0, want), f"verify: {code} {stdout[:80]!r} != {want}")
        elif j.kind == "fault":
            checks.check_witness(j.case.inst, j.colors, code, stdout, adj(j.case))
    for i, c in enumerate(w.cases):
        checks.check_src(c.inst, out["src"][0][i], "src")
        want = checks.expected_class(c.inst), inputs.reference_src(c.inst)
        got = out["graphs"][0][i]
        checks.require(got == (c.inst.reject or want), f"graphs: got {got!r}, expected {want!r}")
    spot_of = {id(j.case): j for j in w.spot_jobs}
    checked = set()  # spot jobs whose pairs the colour check already walked
    for i, c in enumerate(w.cli_cases):
        checks.check_analyze(c.inst, *out["analyze"][0][i])
        spot = spot_of.get(id(c))
        pairs = None if w.all_pairs or spot is None else spot.label_pairs
        colors = checks.check_color(c.inst, *out["color"][0][i], pairs=pairs, adj=adj(c))
        if spot is not None and colors == spot.colors:
            checked.add(id(spot))
    for j, ok in zip(w.spot_jobs, out["spot"][0]):
        agree = ok and (id(j) in checked or checks.rainbow_on_pairs(adj(j.case), j.colors, j.label_pairs))
        checks.require(agree, "spot: verify_pairs and the benchmark's check disagree")


def extra_checks(w: Workload) -> None:
    """Checks that need no timed output: brute force on graphs of at most 9
    edges, and verify_pairs catching a planted fault that the benchmark's own
    check also sees."""
    for c in w.cases[:BRUTE_FORCE_CASES]:
        if c.inst.reject is None and len(c.inst.edges) <= 9:
            got = rc.brute_force_src(rc.build_graph(rc.parse_edge_list(c.text)))
            checks.check_src(c.inst, got, "brute_force_src")
    for j in w.verify_jobs:
        if j.kind != "fault":
            continue
        adj = checks.adjacency(j.case.inst)
        labels = checks.labels(adj)
        _, dist = checks.bfs(adj, labels[0])
        label_pairs = [(labels[0], v) for v in labels if dist[v] <= 2]
        dense = {lab: i for i, lab in enumerate(labels)}
        pairs = [(dense[u], dense[v]) for u, v in label_pairs]
        ok = rc.verify_pairs(j.case.graph, j.coloring, pairs).ok
        checks.require(ok == checks.rainbow_on_pairs(adj, j.colors, label_pairs),
                       "spot: verify_pairs and the benchmark's check disagree on a broken colouring")


# ---------------------------------------------------------------- set-up


def _write(dirpath: str, name: str, text: str) -> str:
    path = os.path.join(dirpath, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _case(dirpath: str, name: str, inst: Instance) -> Case:
    text = inst.text
    return Case(inst, text, _write(dirpath, name, text))


def _coloring(case: Case, colors: dict):
    return rc.EdgeColoring(max(colors.values()), tuple(colors[checks.edge_key(a, b)] for a, b in case.inst.edges))


def _optimal(case: Case) -> dict:
    """The program's optimal colouring of an accepted case, keyed by edge
    labels as in the `color` output. Builds case.graph. Set-up only."""
    case.graph = rc.build_graph(rc.parse_edge_list(case.text))
    an = rc.analyze_graph(case.graph)
    checks.require(an.result is not None, "set-up: an odd cactus was rejected")
    g = case.graph
    return {checks.edge_key(*g.edge_label_pair(e)): c for e, c in enumerate(an.result.coloring.color)}


def _spot_job(rng: random.Random, case: Case, colors: dict, sources: int, targets: int) -> SpotJob:
    labels = sorted({x for e in case.inst.edges for x in e})
    dense = {lab: i for i, lab in enumerate(labels)}
    label_pairs = [
        (u, rng.choice(labels)) for u in rng.sample(labels, min(sources, len(labels))) for _ in range(targets)
    ]
    pairs = [(dense[u], dense[v]) for u, v in label_pairs]
    return SpotJob(case, colors, _coloring(case, colors), pairs, label_pairs)


def _verify_job(dirpath: str, name: str, case: Case, colors: dict, kind: str) -> VerifyJob:
    path = _write(dirpath, name, json.dumps({"coloring": colors}))
    return VerifyJob(case, path, kind, colors, _coloring(case, colors) if kind != "strict" else None)


def _strict_job(dirpath: str) -> VerifyJob:
    """A triangle with a pendant edge and colours 1.9, true and "2": verify
    should reject the file with exit 1."""
    inst = Instance(((1, 2), (2, 3), (1, 3), (3, 4)), ((3, 4),), ((1, 2, 3),))
    case = _case(dirpath, "strict.txt", inst)
    return _verify_job(dirpath, "strict.json", case, {"1,2": 1.9, "2,3": True, "1,3": "2", "3,4": 3}, "strict")


def large_cactus(rng: random.Random, dirpath: str, vertices: int = 100_000) -> Workload:
    case = _case(dirpath, "large.txt", inputs.odd_cactus(rng, vertices))
    colors = _optimal(case)
    broken = checks.plant_fault(case.inst, colors)
    jobs = [_verify_job(dirpath, "large-fault.json", case, broken, "fault")]
    spot = [_spot_job(rng, case, colors, SPOT_SOURCES, SPOT_TARGETS)]
    return Workload("large-cactus", [case], jobs, spot, reps=1, all_pairs=False)


def small_batch(rng: random.Random, dirpath: str, size: int = SMALL_BATCH) -> Workload:
    cases = [Case(inst, inst.text, "") for inst in inputs.small_batch(rng, size)]
    for i, c in enumerate(cases[:SMALL_CLI_COUNT]):  # only the CLI reads files
        c.path = _write(dirpath, f"g{i}.txt", c.text)
    jobs, spot = [], []
    for i, c in enumerate(cases):
        if c.inst.reject is not None:
            continue
        colors = _optimal(c)
        if i < SMALL_CLI_COUNT:
            jobs.append(_verify_job(dirpath, f"c{i}.json", c, colors, "ok"))
        n = c.inst.vertex_count
        spot.append(_spot_job(rng, c, colors, min(n, 4), n))
    return Workload("small-batch", cases, jobs, spot, reps=1, all_pairs=True,
                    cli_count=SMALL_CLI_COUNT)


def verify(rng: random.Random, dirpath: str, vertices: int = 1000) -> Workload:
    case = _case(dirpath, "mid.txt", inputs.odd_cactus(rng, vertices))
    colors = _optimal(case)
    jobs = [
        _verify_job(dirpath, "mid-ok.json", case, colors, "ok"),
        _verify_job(dirpath, "mid-fault.json", case, checks.plant_fault(case.inst, colors), "fault"),
        _strict_job(dirpath),
    ]
    spot = [_spot_job(rng, case, colors, SPOT_SOURCES, SPOT_TARGETS)]
    return Workload("verify", [case], jobs, spot, reps=16, all_pairs=True)


BUILDERS = {"large-cactus": large_cactus, "small-batch": small_batch, "verify": verify}
