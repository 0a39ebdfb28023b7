"""CLI output pinned byte for byte.

Each digest is the sha256 of stdout from `analyze --full`, `color` or
`color --dot`, recorded from an earlier release of the package, together
with the exit code: 0, or 2 for a rejected graph, whose JSON still carries
its cut vertices and witness edge. `verify` output is short, so its stdout
is pinned as text, with exit code 0 or 3. A refactor that keeps the outputs
keeps these pins; a change that alters any output byte on purpose must
re-record them and say why.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from conftest import SAMPLE_EDGES, bowtie_edges, cycle_edges, k4_edges

from rainbow_cactus import GenSpec, format_edge_list, generate
from rainbow_cactus.cli import PALETTE_ENV, main

TREE_EDGES = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6), (6, 7)]
# a triangle, a bridge and an even cycle: rejected, with two cut vertices
TAILED_C4_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)]
REJECTED = {"c4", "k4", "tailed-c4"}


GENERATED_SPEC = GenSpec(seed=20261019, target_vertices=200, cycle_lengths=(3, 5, 7, 9))


def shuffled_edges() -> list[tuple[int, int]]:
    """The generated instance under a fixed permutation onto sparse labels,
    in shuffled edge order with every second edge reversed, so the dense
    remap in `build_graph` has work to do."""
    g = generate(GENERATED_SPEC)
    rng = random.Random(20261019)
    labels = rng.sample(range(1_000_000), g.vertex_count)
    edges = [(labels[u], labels[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]


def instance_text(name: str) -> str:
    if name == "generated":
        return format_edge_list(generate(GENERATED_SPEC))
    edges = shuffled_edges() if name == "shuffled" else {
        "sample": SAMPLE_EDGES,
        "c3": cycle_edges(3),
        "c4": cycle_edges(4),
        "c5": cycle_edges(5),
        "k4": k4_edges(),
        "tailed-c4": TAILED_C4_EDGES,
        "tree": TREE_EDGES,
        "bowtie": bowtie_edges(),
    }[name]
    return "".join(f"{u} {v}\n" for u, v in edges)


COMMANDS = {
    "analyze-full": ["analyze", "--full"],
    "color": ["color"],
    "color-dot": ["color", "--dot"],
}

PINNED = {
    "bowtie/analyze-full": "69f9459eeec40dca890acb30ea25597b7e40b291c9590822219a08779b8ccd13",
    "bowtie/color": "13dd234c07a08602812dac8ae5029f4c3030f55501a8d33b1f016db941d18704",
    "bowtie/color-dot": "a4e09d1e730f50825abe878bf926d25582c0586ddcdcf9f59b77f3a3b2068c3b",
    "c3/analyze-full": "f88a43ee54d42b39f17362f8067d91340fd1407bd63ba05b105d8b508ab8feb1",
    "c3/color": "8e3d2057995c93429db74477fea880cbf1f5e80843cf05ace91472afcf38c785",
    "c3/color-dot": "9615c1a40fffe666e7ffea0213d1975701f0ef4ed1421d0eb00978c9a506b688",
    "c4/analyze-full": "101923f41db2babefd62cb877f7d031cd4c614b31497dd4e0fb1a109fb95d3a5",
    "c4/color": "101923f41db2babefd62cb877f7d031cd4c614b31497dd4e0fb1a109fb95d3a5",
    "c5/analyze-full": "cbeb3df0854c21842a5b9708e267976f121fd28cfcc22601a241002d7e90cafc",
    "c5/color": "4f8076fb580819f7c84d59863fab686396a63499b8175abafdf84919b70984c5",
    "c5/color-dot": "64ef9faa3586dc271710279861c2d48116fe97fe98ddf27efec95a9587d8c3f5",
    "generated/analyze-full": "faa1203ff04ad9ce5a89185687829c1805baaaa206a24a3e718ec3ddf7c0e543",
    "generated/color": "fad75520a06ddeeb91c64eb0290494ab005ed69cd4f820f61577e20411fc2440",
    "generated/color-dot": "691d40939f7d511cf351f20a74563da74741dfcd5d1e141aaea56045895c4ff5",
    "k4/analyze-full": "af082227bdabbf12b3e45241663f888f18c69ed16f9a478eb15d63f536a5f8f2",
    "k4/color": "af082227bdabbf12b3e45241663f888f18c69ed16f9a478eb15d63f536a5f8f2",
    "sample/analyze-full": "e003635e76e8d617e0faaa5b5f23a373b181c2d5265ae7d4cdbd8b18025e9d5b",
    "sample/color": "5c69fce7f3cc8b17136214d03b2dd0f4f9c71d6d11ba6a0c34399f83592e0942",
    "sample/color-dot": "48bfa8ea8d8619034ce883bfe2c03d0e9dca4317bb705f49351f8350050ef0a9",
    "shuffled/analyze-full": "049803ad6cbceb917f692b19e39982378edc5205583c600e22c0951c3e5f64cd",
    "shuffled/color": "2d1c3801927636deeacb5bac4977effcb9d87d68906af13f0b9211c0e408b9de",
    "shuffled/color-dot": "de229fbb232e4a442f35d6753fc2a405e47d58a5ab36e6b292f493682b253230",
    "tailed-c4/analyze-full": "bf901b8d72751a96d78cccd4c67940946ffc0136d3f6228783f6d5a51fff8cc2",
    "tailed-c4/color": "bf901b8d72751a96d78cccd4c67940946ffc0136d3f6228783f6d5a51fff8cc2",
    "tree/analyze-full": "58aad173964ef10a5c76461c69472d7db48533eba17f6e3161fa69b067e7f946",
    "tree/color": "912e1208ed3bfe8693e3832115cdc1c51958b3d90785e78656d512764347e269",
    "tree/color-dot": "b6ccdbffbd4de693b1e4f90eb8a1e555606679d62229eb4bb6d4f6c3e272ef90",
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_stdout_matches_pinned_digest(key, tmp_path, capsys, monkeypatch):
    name, command = key.split("/")
    monkeypatch.delenv(PALETTE_ENV, raising=False)
    path = tmp_path / f"{name}.txt"
    path.write_text(instance_text(name))
    argv = COMMANDS[command]
    assert main([argv[0], str(path), *argv[1:]]) == (2 if name in REJECTED else 0)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED[key]


SAMPLE_OPTIMAL = (4, 1, 6, 4, 5, 6, 2, 1, 2, 3, 7, 4, 7)
# colour 5 merged into 4: edges 4-5 and 5-6 then share colour 4
SAMPLE_MERGED = (4, 1, 6, 4, 4, 6, 2, 1, 2, 3, 7, 4, 7)

# instance, colours in edge-list order: exit code, stdout
VERIFY_PINNED = {
    ("sample", SAMPLE_OPTIMAL): (0, "OK k=7\n"),
    ("sample", SAMPLE_MERGED): (3, "FAIL: pair (3,6) path 3-4-5-6 repeats color 4\n"),
    ("c4", (1, 2, 1, 2)): (0, "OK k=2\n"),
    ("c4", (1, 1, 1, 1)): (3, "FAIL: pair (0,2) path 0-1-2 repeats color 1\n"),
}


@pytest.mark.parametrize("name, colors", sorted(VERIFY_PINNED))
def test_verify_stdout_pinned(name, colors, tmp_path, capsys):
    graph = tmp_path / f"{name}.txt"
    graph.write_text(instance_text(name))
    edges = {"sample": SAMPLE_EDGES, "c4": cycle_edges(4)}[name]
    coloring = tmp_path / "coloring.json"
    coloring.write_text(
        json.dumps({"coloring": {f"{min(e)},{max(e)}": c for e, c in zip(edges, colors)}})
    )
    code = main(["verify", str(graph), str(coloring)])
    assert (code, capsys.readouterr().out) == VERIFY_PINNED[name, colors]
