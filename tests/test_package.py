"""The package's structural rules: `__all__` and the selftest's invariant
names are pinned, the benchmark reaches the program only through names it
exports, the modules keep to their layers, and one module decodes trail
positions."""

from __future__ import annotations

import ast
import pathlib
import re
from pathlib import Path

import rainbow_cactus
import rainbow_cactus as rc

PUBLIC = [
    "AntipodalIndex",
    "BlackWhitePartition",
    "Block",
    "BlockKind",
    "BruteForceResult",
    "Classification",
    "Decomposition",
    "EdgeColoring",
    "GenSpec",
    "Graph",
    "GraphAnalysis",
    "GraphClass",
    "Path",
    "PropertyCheck",
    "RainbowCactusError",
    "RainbowWitness",
    "RejectionReason",
    "SegmentCatalog",
    "SegmentClass",
    "SrcCase",
    "SrcResult",
    "SrcStats",
    "ValidationReport",
    "VerificationOutcome",
    "analyze_graph",
    "black_edges",
    "brute_force_search",
    "brute_force_src",
    "build_antipodal_index",
    "build_canonical_partition",
    "build_graph",
    "classify",
    "decompose",
    "enumerate_segments",
    "format_edge_list",
    "generate",
    "graph_leaves",
    "load_edge_list",
    "lower_bound",
    "parse_edge_list",
    "src_formula",
    "strong_rainbow_coloring",
    "validate_partition",
    "verify_pairs",
    "verify_strong_rainbow",
]


def test_all_is_pinned():
    assert rc.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(rc, name)] == []


INVARIANTS = [
    "antipodal_image_class",
    "antipodal_image_is_segment",
    "antipodal_matches_recogniser",
    "black_count_equals_src",
    "black_pair_shares_shortest_path",
    "blocks_match_recogniser",
    "brute_force_agrees",
    "canonical_partition_valid",
    "coloring_deterministic",
    "coloring_uses_exactly_k_colors",
    "coloring_verifies",
    "counts_match_views",
    "cycle_edges_partitioned",
    "cycle_vertices_partitioned",
    "edge_in_two_adjacency_lists",
    "fast_choice_matches_separation",
    "formula_matches_algorithm",
    "generated_graph_accepted",
    "geodetic_unique_path",
    "global_vertex_partition",
    "kept_tree_is_bfs_tree",
    "leaf_block_has_black_edge",
    "oracle_coloring_black_distinct",
    "pair_routes_agree",
    "recogniser_matches_classification",
    "reversal_swaps_s2_s3_only",
    "s1_one_more_edge_than_s4",
    "s2_s3_equal_edges",
    "segments_disjoint",
    "sides_share_only_pivot",
    "start_vertex_invariant",
    "unique_path_length_matches_bfs",
    "verify_loops_agree",
]


def test_selftest_invariant_names_are_pinned():
    # every name the selftest can report through `_require`, so adding or
    # dropping an invariant shows here
    path = Path(rc.__file__).parent / "selftest.py"
    found = {
        node.args[1].value
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require"
    }
    assert sorted(found) == INVARIANTS


def test_bench_uses_only_exported_names():
    bench = Path(__file__).resolve().parents[1] / "bench"
    used = {name for p in bench.glob("*.py") for name in re.findall(r"\brc\.(\w+)", p.read_text())}
    assert "verify_pairs" in used
    assert sorted(used - set(rc.__all__)) == []


# The modules by layer. The graph and solver layer imports only itself; the
# oracle, which checks the solver's results, only the graph layer, so it
# shares no code with what it checks; the selftest and the CLI may import
# anything, and so may `__init__`.
SOLVER_LAYER = {"graph", "errors", "decomposition", "segments", "partition", "solver", "generator"}
ALLOWED = {**dict.fromkeys(SOLVER_LAYER, SOLVER_LAYER), "oracle": {"graph", "errors"}}
TOP = {"selftest", "cli", "__init__"}


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at `path` imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rainbow_cactus" if node.level else "", node.module]))
            names += [f"{base}.{a.name}" for a in node.names]
    return {name.split(".")[1] for name in names if name.startswith("rainbow_cactus.")}


def test_modules_keep_to_their_layers():
    package = Path(rc.__file__).parent
    imports = {path.stem: package_imports(path) for path in package.glob("*.py")}
    assert sorted(imports) == sorted(SOLVER_LAYER | ALLOWED.keys() | TOP)
    assert imports["oracle"] == {"graph", "errors"}
    crossing = {m: sorted(imports[m] - allowed) for m, allowed in ALLOWED.items() if imports[m] - allowed}
    assert crossing == {}


def test_layer_rule_reads_every_import_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import os\nimport rainbow_cactus.oracle\nfrom rainbow_cactus.selftest import run_selftest\n"
        "from rainbow_cactus import cli\nfrom . import solver\nfrom .graph import Graph\n"
    )
    assert package_imports(path) == {"oracle", "selftest", "cli", "solver", "graph"}


def test_trail_positions_are_read_in_segments_only():
    # a walk's trail positions (vertex q at 2q, the edge after it at
    # 2q + 1) are decoded by `segments._spans` alone; every other module
    # reads the index ranges it hands out, so none shifts a position
    package = pathlib.Path(rainbow_cactus.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "segments.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(getattr(node, "op", None), ast.RShift)
    ]
    assert found == []


def test_cli_writes_indented_json_through_one_writer():
    # an indent sends `json` to its Python encoder; `cli._print_json` writes
    # the same bytes with one join per object, and is the only writer
    path = pathlib.Path(rainbow_cactus.__file__).parent / "cli.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert found == []
