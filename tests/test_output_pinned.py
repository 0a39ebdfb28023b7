"""CLI output pinned byte for byte.

Each digest is the sha256 of stdout from `analyze --full`, `color` or
`color --dot`, recorded from an earlier release of the package. A refactor
that keeps the outputs keeps these digests; a change that alters any output
byte on purpose must re-record them and say why.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import SAMPLE_EDGES, bowtie_edges, cycle_edges

from rainbow_cactus import GenSpec, format_edge_list, generate
from rainbow_cactus.cli import PALETTE_ENV, main

TREE_EDGES = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6), (6, 7)]


def instance_text(name: str) -> str:
    if name == "generated":
        spec = GenSpec(seed=20261019, target_vertices=200, cycle_lengths=(3, 5, 7, 9))
        return format_edge_list(generate(spec))
    edges = {
        "sample": SAMPLE_EDGES,
        "c3": cycle_edges(3),
        "c5": cycle_edges(5),
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
    "c5/analyze-full": "cbeb3df0854c21842a5b9708e267976f121fd28cfcc22601a241002d7e90cafc",
    "c5/color": "4f8076fb580819f7c84d59863fab686396a63499b8175abafdf84919b70984c5",
    "c5/color-dot": "64ef9faa3586dc271710279861c2d48116fe97fe98ddf27efec95a9587d8c3f5",
    "generated/analyze-full": "faa1203ff04ad9ce5a89185687829c1805baaaa206a24a3e718ec3ddf7c0e543",
    "generated/color": "fad75520a06ddeeb91c64eb0290494ab005ed69cd4f820f61577e20411fc2440",
    "generated/color-dot": "691d40939f7d511cf351f20a74563da74741dfcd5d1e141aaea56045895c4ff5",
    "sample/analyze-full": "e003635e76e8d617e0faaa5b5f23a373b181c2d5265ae7d4cdbd8b18025e9d5b",
    "sample/color": "5c69fce7f3cc8b17136214d03b2dd0f4f9c71d6d11ba6a0c34399f83592e0942",
    "sample/color-dot": "48bfa8ea8d8619034ce883bfe2c03d0e9dca4317bb705f49351f8350050ef0a9",
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
    assert main([argv[0], str(path), *argv[1:]]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED[key]
