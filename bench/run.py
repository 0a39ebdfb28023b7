"""Benchmark of rainbow-cactus: src, colouring and verification of odd cacti.

    python3 bench/run.py --workload large-cactus|small-batch|verify \\
        --seed N --seconds S --trace 0|1

Run from a checkout: the program is imported from its `src/` directory.
Inputs are made from --seed. The run times whole rounds of the workload's
operations for at least --seconds, checks every output, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced pass calls
each layer's public function from here and reports per-layer metrics, and
writes its spans to .bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time
import tracemalloc
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _import_program() -> None:
    """Put the checkout's src/ first on sys.path; refuse to run anything else."""
    if not os.path.isfile(os.path.join(SRC, "rainbow_cactus", "__init__.py")):
        sys.exit(f"error: no program source at {SRC}/rainbow_cactus")
    sys.path.insert(0, SRC)
    import rainbow_cactus

    if not os.path.abspath(rainbow_cactus.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: rainbow_cactus was imported from {rainbow_cactus.__file__}, not {SRC}")


_import_program()

import rainbow_cactus as rc  # noqa: E402
from rainbow_cactus import cli  # noqa: E402

import checks  # noqa: E402
from measure import Clock, Tracer, process_age  # noqa: E402
from workloads import BUILDERS, OPS, Workload, check_outputs, extra_checks  # noqa: E402
from workloads import failed_in, large_cactus, op_fn, record_output, run_cli  # noqa: E402

# Layers timed by the traced pass, in call order.
LAYERS = (
    "graph.parse",
    "graph.build",
    "decomposition.decompose",
    "decomposition.classify",
    "segments.antipodal",
    "segments.enumerate",
    "solver.formula",
    "solver.coloring",
    "partition.canonical",
    "pipeline.analyze_graph",
    "cli.report",
    "cli.serialize",
    "oracle.verify_full",
    "oracle.verify_pairs",
)
PROBE_VERTICES = 10_000
# Every run times at least this many whole rounds, so each end-to-end metric
# is a median of two or more samples even where one round outlasts --seconds.
MIN_ROUNDS = 2


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _info(label: str, values: dict) -> None:
    """A line for people reading the log, ahead of the result line."""
    print(f"# {label}: " + ", ".join(f"{k}={v:.4g}" for k, v in values.items()))


# ------------------------------------------------------------ timed run


def timed_run(w: Workload, clock: Clock, seconds: float) -> tuple[dict, int, int]:
    norm: dict[str, list[float]] = {op: [] for op in OPS}
    raw: dict[str, list[float]] = {op: [] for op in OPS}
    rounds = failed = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for op in OPS:
            out, wall, seconds_norm = clock.time(op_fn(w, op))
            raw[op].append(wall)
            norm[op].append(seconds_norm)
            failed += failed_in(w, op, out)
            record_output(w, op, out)
        rounds += 1
    t_checks = time.perf_counter()
    check_outputs(w)
    extra_checks(w)
    t_peak = time.perf_counter()
    # peak_mb traces `src`. `color` allocates more (150 MB against 101 MB at
    # 100k vertices), but tracemalloc slows it about 7x, to some 28 s a run.
    gc.collect()
    tracemalloc.start()
    op_fn(w, "src")()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _info("wall seconds", {"measured": t_checks - deadline + seconds, "checks": t_peak - t_checks,
                           "peak_pass": time.perf_counter() - t_peak})

    per = {op: median(norm[op]) / (1 if op == "verify" else w.reps) for op in OPS}
    graphs = w.reps * len(w.cases)
    metrics = {
        "src_s": metric(per["src"], "s"),
        "analyze_s": metric(per["analyze"], "s"),
        "color_s": metric(per["color"], "s"),
        "graphs_per_s": metric(graphs / median(norm["graphs"]), "1/s"),
        "verify_s": metric(per["verify"], "s"),
        "spot_verify_s": metric(per["spot"], "s"),
        "peak_mb": metric(peak / 1e6, "MB"),
    }
    _info(f"raw median seconds over {rounds} rounds", {op: median(raw[op]) for op in OPS})
    return metrics, rounds * w.attempted_per_round(), failed


# ----------------------------------------------------------- traced run


def walk(w: Workload, span, stats: dict | None = None) -> tuple[int, int]:
    """Call every layer's public function on every graph of `w`, inside
    `span(name, edges)`. Returns (attempted, failed); fills `stats` with
    the instance shape when given."""
    attempted = failed = 0
    for c in w.cases:
        m = len(c.inst.edges)
        with span("case", m):
            with span("graph.parse", m):
                pairs = rc.parse_edge_list(c.text)
            with span("graph.build", m):
                g = rc.build_graph(pairs)
            with span("decomposition.decompose", m):
                d = rc.decompose(g)
            with span("decomposition.classify", m):
                cls = rc.classify(g, d)
            got = cls.reason.value if not cls.accepted else None
            if cls.accepted:
                with span("segments.antipodal", m):
                    a = rc.build_antipodal_index(d)
                with span("segments.enumerate", m):
                    cat = rc.enumerate_segments(d, a)
                with span("solver.formula", m):
                    got = rc.src_formula(d, cat)
                with span("solver.coloring", m):
                    res = rc.strong_rainbow_coloring(g, d, a, cat)
                if cls.tag in (rc.GraphClass.TREE, rc.GraphClass.GENERAL_ODD_CACTUS):
                    with span("partition.canonical", m):
                        rc.build_canonical_partition(d, cat)
                checks.require(res.src == got, "trace: coloring and formula disagree")
            with span("pipeline.analyze_graph", m):
                an = rc.analyze_graph(g)
            with span("cli.report", m):
                report = cli.build_report(an).to_json_dict()
            with span("cli.serialize", m):
                text = json.dumps(report, indent=2, sort_keys=True)
        checks.check_src(c.inst, got, "trace")
        checks.require(report["classification"] == checks.expected_class(c.inst), "trace: class")
        attempted += 1
        if stats is not None:
            _shape(stats, g, d, *((a, cat, res) if cls.accepted else (None, None, None)), len(text))
    for j in w.verify_jobs:
        attempted += 1
        if j.kind == "strict":
            failed += run_cli(["verify", j.case.path, j.coloring_path])[0] != 1
            continue
        with span("oracle.verify_full", len(j.case.inst.edges)):
            ok = rc.verify_strong_rainbow(j.case.graph, j.coloring, geodetic_hint=True).ok
        checks.require(ok == (j.kind == "ok"), f"trace: verify_strong_rainbow on a {j.kind} colouring")
    for j in w.spot_jobs:
        attempted += 1
        with span("oracle.verify_pairs", len(j.case.inst.edges)):
            ok = rc.verify_pairs(j.case.graph, j.coloring, j.pairs).ok
        checks.require(ok, "trace: verify_pairs")
    return attempted, failed


def _shape(stats: dict, g, d, a, cat, res, output_bytes: int) -> None:
    """Add one graph's shape to the instance totals."""
    def add(key, value):
        stats[key] = stats.get(key, 0) + value

    add("instance.n", g.vertex_count)
    add("instance.m", g.edge_count)
    add("instance.blocks", len(d.blocks))
    add("instance.cycles", sum(1 for b in d.blocks if b.is_cycle))
    add("instance.cut_vertices", len(d.cut_vertices))
    add("cli.output_mb", output_bytes / 1e6)
    if cat is None:
        return
    for i, count in enumerate(cat.counts):
        add(f"instance.s{i + 1}", count)
    add("instance.e_ant", len(a.e_ant))
    add("instance.colors", res.src)
    sizes: dict[int, int] = {}
    for c in res.coloring.color:
        sizes[c] = sizes.get(c, 0) + 1
    stats["instance.largest_color_class"] = max(stats.get("instance.largest_color_class", 0), max(sizes.values()))


def _layer_totals(spans, scale: float) -> dict[str, tuple[float, int, int, int]]:
    """name -> (normalized seconds, edges, calls, gen-2 collections)."""
    out: dict[str, list] = {}
    for s in spans:
        t = out.setdefault(s["name"], [0.0, 0, 0, 0])
        t[0] += (s["end"] - s["start"]) * scale
        t[1] += s["edges"]
        t[2] += 1
        t[3] += s["gen2"]
    return {k: tuple(v) for k, v in out.items()}


def _no_span(name: str, edges: int = 0):
    return contextlib.nullcontext()


def _peaks(w: Workload) -> tuple[int, int]:
    """Largest tracemalloc peaks, over the workload's graphs, of decompose
    and of the segments layer (antipodal index and segment catalog)."""
    dec = seg = 0
    gc.collect()
    for c in w.cases:
        g = rc.build_graph(rc.parse_edge_list(c.text))
        tracemalloc.start()
        d = rc.decompose(g)
        dec = max(dec, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        if not rc.classify(g, d).accepted:
            continue
        tracemalloc.start()
        rc.enumerate_segments(d, rc.build_antipodal_index(d))
        seg = max(seg, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return dec, seg


def traced_run(w: Workload, probe: Workload, clock: Clock, seconds: float, trace_path: str):
    tracer = Tracer()
    per_round: list[dict] = []
    overhead: list[float] = []
    stats: dict = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    with tracer:
        while not per_round or time.perf_counter() < deadline:
            (a0, f0), _, untraced = clock.time(lambda: walk(w, _no_span))
            first = len(tracer.spans)
            shape = None if per_round else stats
            (a1, f1), wall, traced = clock.time(lambda: walk(w, tracer.span, shape))
            per_round.append(_layer_totals(tracer.spans[first:], traced / wall))
            overhead.append(traced - untraced)
            attempted += a0 + a1
            failed += f0 + f1
        first = len(tracer.spans)
        _, wall, probe_s = clock.time(lambda: walk(probe, tracer.span))
        probe_totals = _layer_totals(tracer.spans[first:], probe_s / wall)
    tracer.dump(trace_path, {"workload": w.name, "kernel_s": clock.kernel_times})
    dec_peak, seg_peak = _peaks(w)

    metrics: dict[str, dict] = {}
    for name in LAYERS:
        secs = median([r[name][0] for r in per_round])
        edges = per_round[0][name][1]
        metrics[f"{name}_s"] = metric(secs, "s")
        metrics[f"{name}_ns_per_edge"] = metric(secs * 1e9 / edges, "ns/edge")
        p_secs, p_edges = probe_totals[name][:2]
        metrics[f"{name}_ns_per_edge_10k"] = metric(p_secs * 1e9 / p_edges, "ns/edge")
    first_round = per_round[0]
    metrics["decomposition.decompose_gen2"] = metric(first_round["decomposition.decompose"][3], "count")
    metrics["solver.coloring_gen2"] = metric(first_round["solver.coloring"][3], "count")
    for name in ("decomposition.classify", "solver.coloring"):
        per_call = metrics[f"{name}_s"]["value"] * 1e6 / first_round[name][2]
        metrics[f"{name}_us_per_graph"] = metric(per_call, "us")
    metrics["decomposition.decompose_peak_mb"] = metric(dec_peak / 1e6, "MB")
    metrics["segments.peak_mb"] = metric(seg_peak / 1e6, "MB")
    pairs = sum(len(j.pairs) for j in w.spot_jobs)
    metrics["oracle.bfs_sources"] = metric(sum(len({u for u, _ in j.pairs}) for j in w.spot_jobs), "count")
    metrics["oracle.pairs_checked_per_s"] = metric(pairs / metrics["oracle.verify_pairs_s"]["value"], "1/s")
    for key, value in sorted(stats.items()):
        metrics[key] = metric(value, "MB" if key == "cli.output_mb" else "count")
    metrics["trace.overhead_s"] = metric(median(overhead), "s")
    _info(f"traced rounds {len(per_round)}", {"overhead_s": median(overhead)})
    return metrics, attempted, failed


# ----------------------------------------------------------------- main


def _warm_up(dirpath: str) -> None:
    """Untimed: every operation once on a small verify workload."""
    w = BUILDERS["verify"](random.Random("warm-up"), dirpath, vertices=40)
    for op in OPS:
        op_fn(w, op)()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    dirs = {name: os.path.join(tmp, name) for name in ("main", "probe", "warm")}
    for path in dirs.values():
        os.mkdir(path)
    try:
        w = BUILDERS[args.workload](random.Random(args.seed), dirs["main"])
        probe = None
        if args.trace:
            probe = large_cactus(random.Random(f"probe-{args.seed}"), dirs["probe"], PROBE_VERTICES)
        _warm_up(dirs["warm"])
        setup_raw = process_age()
        clock = Clock()
        clock.kernel()
        setup = setup_raw * clock.scale(*clock.kernel_times[:2])
        correct = True
        try:
            if args.trace:
                trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
                metrics, attempted, failed = traced_run(w, probe, clock, args.seconds, trace_path)
            else:
                metrics, attempted, failed = timed_run(w, clock, args.seconds)
                metrics = {"setup_s": metric(setup, "s"), **metrics}
        except checks.CheckFailed as exc:
            print(f"# check failed: {exc}", file=sys.stderr)
            correct, metrics, attempted, failed = False, {}, 1, 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    _info("set-up", {"raw_s": setup_raw, "normalized_s": setup})
    k = clock.kernel_times
    _info(f"reference kernel over {len(k)} runs", {"median_s": median(k), "min_s": min(k), "max_s": max(k)})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
