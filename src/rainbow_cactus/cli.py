"""Command-line frontend: analyze, color, verify, oracle, generate, selftest.

Exit codes: 0 success, 1 input or format error, 2 rejected classification,
3 verification failure. All machine-readable output is JSON on stdout with
raw vertex labels; edges are keyed "min,max".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .decomposition import GraphClass, classify, decompose
from .errors import RainbowCactusError
from .generator import GenSpec, generate
from .graph import Graph, build_graph, format_edge_list, load_edge_list
from .oracle import brute_force_search, verify_strong_rainbow
from .partition import build_canonical_partition
from .pipeline import GraphAnalysis, analyze_graph
from .selftest import run_selftest
from .solver import EdgeColoring, SrcResult, src_formula

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REJECTED = 2
EXIT_VERIFY_FAILED = 3

PALETTE_ENV = "RAINBOW_CACTUS_PALETTE"
DEFAULT_PALETTE = (
    "red", "blue", "green", "orange", "purple", "brown",
    "cyan", "magenta", "gold", "darkgreen", "navy", "salmon",
)


@dataclass(frozen=True)
class AnalysisReport:
    """JSON-friendly summary of one analysis; fields that do not apply are None."""

    classification: str
    n: int
    m: int
    cut_vertices: tuple[int, ...]
    cut_edges: tuple[str, ...]
    cycle_length: int | None = None
    rejection_reason: str | None = None
    rejection_witness: str | None = None
    e_ant: tuple[str, ...] | None = None
    segment_counts: dict | None = None
    src: int | None = None
    stats: dict | None = None
    segments: tuple | None = None
    partition: dict | None = None
    coloring: dict | None = None

    def to_json_dict(self) -> dict:
        # tuples become lists, as json.loads gives them back
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


def _edge_key(g: Graph, eid: int) -> str:
    a, b = g.edge_label_pair(eid)
    return f"{a},{b}"


def _stats_dict(res: SrcResult) -> dict:
    return {
        "cut_edges": res.stats.cut_edges,
        "s1_count": res.stats.s1_count,
        "e_ant": res.stats.e_ant,
    }


def _coloring_dict(g: Graph, coloring: EdgeColoring) -> dict:
    return {_edge_key(g, e): coloring.color[e] for e in range(g.edge_count)}


def build_report(an: GraphAnalysis, full: bool = False) -> AnalysisReport:
    g = an.graph
    d = an.decomposition
    cls = an.classification
    cut_vertices = tuple(sorted(g.labels[v] for v in d.cut_vertices))
    cut_edges = tuple(_edge_key(g, e) for e in sorted(d.cut_edges))
    if not cls.accepted:
        witness = None if cls.witness_edge is None else _edge_key(g, cls.witness_edge)
        return AnalysisReport(
            classification=cls.tag.value,
            n=g.vertex_count,
            m=g.edge_count,
            cut_vertices=cut_vertices,
            cut_edges=cut_edges,
            rejection_reason=cls.reason.value,
            rejection_witness=witness,
        )
    cat = an.catalog
    res = an.result
    segment_counts = {
        "S1": cat.counts[0], "S2": cat.counts[1], "S3": cat.counts[2], "S4": cat.counts[3]
    }
    segments = None
    partition = None
    coloring = None
    if full:
        segments = tuple(
            {
                "cycle": s.cycle,
                "class": s.klass.value,
                "elements": [
                    {"kind": "vertex", "id": g.labels[x]}
                    if kind == "v"
                    else {"kind": "edge", "id": _edge_key(g, x)}
                    for kind, x in s.elements
                ],
            }
            for s in cat.segments
        )
        if cls.tag is not GraphClass.ODD_CYCLE:
            # a bare cycle has no canonical partition: no cut vertex to start from
            p = build_canonical_partition(d, cat)
            partition = {
                "vertices": {
                    str(g.labels[v]): ("black" if v in p.v_black else "white")
                    for v in range(g.vertex_count)
                },
                "edges": {
                    _edge_key(g, e): ("black" if e in p.e_black else "white")
                    for e in range(g.edge_count)
                },
            }
        coloring = _coloring_dict(g, res.coloring)
    return AnalysisReport(
        classification=cls.tag.value,
        n=g.vertex_count,
        m=g.edge_count,
        cut_vertices=cut_vertices,
        cut_edges=cut_edges,
        cycle_length=cls.cycle_length,
        e_ant=tuple(_edge_key(g, e) for e in sorted(an.antipodal.e_ant)),
        segment_counts=segment_counts,
        src=res.src,
        stats=_stats_dict(res),
        segments=segments,
        partition=partition,
        coloring=coloring,
    )


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_graph(path: str) -> Graph:
    return build_graph(load_edge_list(path))


def cmd_analyze(args) -> int:
    an = analyze_graph(_load_graph(args.path))
    _print_json(build_report(an, full=args.full).to_json_dict())
    return EXIT_OK if an.classification.accepted else EXIT_REJECTED


def _coloring_payload(g: Graph, res: SrcResult) -> dict:
    return {
        "n": g.vertex_count,
        "m": g.edge_count,
        "src": res.src,
        "case": res.case.value,
        "stats": _stats_dict(res),
        "coloring": _coloring_dict(g, res.coloring),
    }


def _palette() -> tuple[str, ...]:
    raw = os.environ.get(PALETTE_ENV)
    if not raw:
        return DEFAULT_PALETTE
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    return names or DEFAULT_PALETTE


def _dot_output(g: Graph, coloring: EdgeColoring) -> str:
    palette = _palette()
    lines = ["graph rainbow_cactus {"]
    for e in range(g.edge_count):
        a, b = g.edge_label_pair(e)
        c = coloring.color[e]
        name = palette[(c - 1) % len(palette)]
        lines.append(f'  "{a}" -- "{b}" [label={c}, color="{name}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_color(args) -> int:
    an = analyze_graph(_load_graph(args.path))
    if not an.classification.accepted:
        _print_json(build_report(an).to_json_dict())
        return EXIT_REJECTED
    if args.dot:
        print(_dot_output(an.graph, an.result.coloring))
    else:
        _print_json(_coloring_payload(an.graph, an.result))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    try:
        with open(args.coloring) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: coloring file is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cmap = data.get("coloring") if isinstance(data, dict) else None
    if not isinstance(cmap, dict):
        print("error: coloring file has no 'coloring' object", file=sys.stderr)
        return EXIT_INPUT_ERROR
    dense = {lab: i for i, lab in enumerate(g.labels)}
    colors: list[int | None] = [None] * g.edge_count
    for key, value in cmap.items():
        try:
            a_str, b_str = key.split(",")
            u, v = dense[int(a_str)], dense[int(b_str)]
            eid = g.edge_between(u, v)
        except (ValueError, KeyError):
            print(f"error: coloring entry {key!r} is not an edge of the graph", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if colors[eid] is not None:
            print(f"error: duplicate coloring entry for edge {key!r}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        # JSON integers only: int() would truncate 1.9, and bool is an int subclass
        if isinstance(value, bool) or not isinstance(value, int):
            print(f"error: edge {key!r} has non-integer color {value!r}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if value < 1:
            print(f"error: edge {key!r} has color {value}, colors start at 1", file=sys.stderr)
            return EXIT_INPUT_ERROR
        colors[eid] = value
    missing = [e for e, c in enumerate(colors) if c is None]
    if missing:
        keys = ", ".join(_edge_key(g, e) for e in missing[:5])
        print(f"error: coloring is missing {len(missing)} edge(s): {keys}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    k = max(colors)
    coloring = EdgeColoring(k, tuple(colors))
    d = decompose(g)
    cls = classify(g, d)
    outcome = verify_strong_rainbow(g, coloring, geodetic_hint=cls.accepted)
    if outcome.ok:
        print(f"OK k={k}")
        return EXIT_OK
    w = outcome.witness
    path_str = "-".join(str(g.labels[x]) for x in w.path.vertices)
    print(
        f"FAIL: pair ({g.labels[w.u]},{g.labels[w.v]}) "
        f"path {path_str} repeats color {w.repeated_color}"
    )
    return EXIT_VERIFY_FAILED


def cmd_oracle(args) -> int:
    g = _load_graph(args.path)
    result = brute_force_search(g, args.max_edges)
    an = analyze_graph(g)
    formula = src_formula(an.decomposition, an.catalog) if an.classification.accepted else None
    agree = None if formula is None else (formula == result.src)
    print(
        json.dumps(
            {
                "src_bruteforce": result.src,
                "colorings_checked": result.colorings_checked,
                "src_formula": formula,
                "agree": agree,
            },
            sort_keys=True,
        )
    )
    if formula is None:
        print(f"bruteforce={result.src} formula=N/A (rejected)")
        return EXIT_OK
    print(f"bruteforce={result.src} formula={formula} {'AGREE' if agree else 'DISAGREE'}")
    return EXIT_OK if agree else EXIT_VERIFY_FAILED


def cmd_generate(args) -> int:
    try:
        lengths = tuple(int(x) for x in args.cycles.split(",") if x.strip())
    except ValueError:
        print(f"error: --cycles must be comma-separated integers, got {args.cycles!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    spec = GenSpec(
        seed=args.seed,
        target_vertices=args.vertices,
        cycle_lengths=lengths,
        pendant_probability=args.pendant_prob,
    )
    sys.stdout.write(format_edge_list(generate(spec)))
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.seeds == 0:
        print("warning: no instances tested")
        return EXIT_OK
    report = run_selftest(seeds=args.seeds, max_n=args.max_n)
    if report.ok:
        print(f"selftest passed: {report.instances} instances, all invariants hold")
        return EXIT_OK
    failure = report.failures[0]
    print(f"selftest FAILED at seed {failure.seed}: {failure.invariant} ({failure.detail})")
    return EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbow-cactus",
        description="Strong rainbow connection numbers and colorings of odd cacti.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classification, stats and src of an edge list")
    p.add_argument("path")
    p.add_argument("--full", action="store_true", help="include segments, partition and coloring")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("color", help="optimal strong rainbow coloring")
    p.add_argument("path")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--dot", action="store_true", help="DOT output with a color palette")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force src on a tiny graph")
    p.add_argument("path")
    p.add_argument("--max-edges", type=int, default=9)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("generate", help="emit a random odd cactus as edge-list text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=20)
    p.add_argument("--cycles", default="3,5,7", help="comma-separated odd cycle lengths")
    p.add_argument("--pendant-prob", type=float, default=0.3)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("selftest", help="run the cross-module invariant suite")
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--max-n", type=int, default=30)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RainbowCactusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
