from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from conftest import SAMPLE_EDGES, bowtie_edges, cycle_edges, diamond_chain, path_edges
from hypothesis import given
from hypothesis import strategies as st

import rainbow_cactus
from rainbow_cactus import (
    GenSpec,
    analyze_graph,
    build_graph,
    format_edge_list,
    generate,
    parse_edge_list,
)
from rainbow_cactus.cli import build_report, main
from rainbow_cactus.errors import InvalidSpecError, InvariantError
from rainbow_cactus import cli, selftest, solver
from rainbow_cactus.generator import MAX_TARGET_VERTICES
from rainbow_cactus.selftest import (
    MIN_MAX_N,
    InvariantViolation,
    SelftestFailure,
    _fault_at_last_vertex,
    run_selftest,
    spec_for_seed,
)

# a label past CPython's default limit of 4300 digits for int(str)
TOO_LONG = "7" * 5000


def write_edges(tmp_path, name, edges):
    path = tmp_path / name
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


@pytest.fixture
def sample_path(tmp_path):
    return write_edges(tmp_path, "sample.txt", SAMPLE_EDGES)


class TestAnalyze:
    def test_sample(self, sample_path, capsys):
        assert main(["analyze", sample_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "GeneralOddCactus"
        assert report["src"] == 7
        assert report["stats"] == {"cut_edges": 3, "s1_count": 1, "e_ant": 3}
        assert report["n"] == 12 and report["m"] == 13
        assert report["cut_vertices"] == [4, 6, 9, 10]
        assert report["e_ant"] == ["2,3", "1,7", "11,12"]

    def test_even_cycle_exits_2_with_reason(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c4.txt", cycle_edges(4))
        assert main(["analyze", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "Rejected"
        assert report["rejection_reason"] == "ContainsEvenCycle"
        assert report["src"] is None

    def test_path_graph_tree(self, tmp_path, capsys):
        path = write_edges(tmp_path, "p3.txt", path_edges(3))
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "Tree"
        assert report["src"] == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.txt")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\nthree four\n")
        assert main(["analyze", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_lone_carriage_return_line_ends_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\r2 3\r3 1\r")
        assert main(["analyze", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["1_000", "+4", "-0", "\u0661"])
    def test_label_not_in_ascii_digits_exits_1(self, tmp_path, capsys, label):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0 1\n1 {label}\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1\n1 2\n2 \xff\n")
        assert main(["analyze", str(bad)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_label_too_long_for_int_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 " + TOO_LONG + "\n")
        assert main(["analyze", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_full_report_includes_partition_and_coloring(self, sample_path, capsys):
        assert main(["analyze", sample_path, "--full"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partition"]["edges"]["4,5"] == "black"
        assert report["partition"]["edges"]["2,3"] == "white"
        assert len(report["segments"]) == 6
        assert len(report["coloring"]) == 13

    def test_report_round_trip(self, sample_cactus):
        data = build_report(analyze_graph(sample_cactus), full=True).to_json_dict()
        assert json.loads(json.dumps(data)) == data


# keys whose string order differs from the order of their numbers, and
# characters that JSON escapes
_KEY = st.one_of(
    st.sampled_from(["10,2", "2,3", "2,10", "1,9", ""]),
    st.text(alphabet=st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\u20ac\U0001d11e'), st.characters())),
)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    st.floats(),
    st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")]),
    _KEY,
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(_KEY, inner)),
    max_leaves=40,
)


class TestJsonWriter:
    """The CLI writes JSON with one join per object and array, the bytes of
    `json.dumps(obj, indent=2, sort_keys=True)`."""

    @given(_JSON)
    def test_same_bytes_as_json_dumps(self, obj):
        assert cli._indented(obj, "\n") == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], "x", 7, None, -0.0])
    def test_empty_containers_and_bare_scalars(self, obj, capsys):
        cli._print_json(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("obj", [{"a": {1, 2}}, [object()], {"a": {(1, 2): 3}}, {1: 2, "1": 3}])
    def test_what_json_refuses_is_refused(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._indented(obj, "\n")

    def test_color_and_full_analyze_print_json_dumps(self, tmp_path, capsys):
        g = generate(GenSpec(seed=27, target_vertices=2000, cycle_lengths=(3, 5, 7, 9), pendant_probability=0.35))
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(g))
        an = analyze_graph(build_graph(parse_edge_list(path.read_text())))
        assert an.graph.vertex_count >= 2000
        for argv, payload in [
            (["color", str(path)], cli._coloring_payload(an.graph, an.result)),
            (["analyze", "--full", str(path)], build_report(an, full=True).to_json_dict()),
            (["analyze", str(path)], build_report(an).to_json_dict()),
        ]:
            assert main(argv) == 0
            assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestColor:
    def test_sample_json(self, sample_path, capsys):
        assert main(["color", sample_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["src"] == 7
        assert payload["case"] == "Formula"
        assert payload["coloring"]["6,8"] == 1
        assert sorted(set(payload["coloring"].values())) == list(range(1, 8))

    def test_triangle_single_color(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c3.txt", cycle_edges(3))
        assert main(["color", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["coloring"].values()) == {1}

    def test_c5_pattern(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c5.txt", cycle_edges(5))
        assert main(["color", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["src"] == 3
        assert payload["case"] == "OddCycle"
        ordered_keys = ["0,1", "1,2", "2,3", "3,4", "0,4"]
        assert [payload["coloring"][k] for k in ordered_keys] == [1, 2, 3, 1, 2]

    def test_explicit_json_flag(self, sample_path, capsys):
        assert main(["color", sample_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["src"] == 7

    def test_byte_identical_runs(self, sample_path, capsys):
        assert main(["color", sample_path]) == 0
        first = capsys.readouterr().out
        assert main(["color", sample_path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_rejected_exits_2(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c4.txt", cycle_edges(4))
        assert main(["color", path]) == 2

    def test_dot_output(self, sample_path, capsys):
        assert main(["color", sample_path, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph rainbow_cactus {")
        assert '"6" -- "8" [label=1, color="red"];' in out

    def test_dot_palette_override(self, sample_path, capsys, monkeypatch):
        monkeypatch.setenv("RAINBOW_CACTUS_PALETTE", "black,white")
        assert main(["color", sample_path, "--dot"]) == 0
        out = capsys.readouterr().out
        assert 'color="black"' in out
        assert 'color="red"' not in out
        # colors cycle through the short palette: color 3 wraps to "black"
        assert '"9" -- "10" [label=3, color="black"];' in out

    @pytest.mark.parametrize("name", ['re"d', "re\\d"])
    def test_dot_palette_name_that_breaks_the_quoting_exits_1(
        self, sample_path, capsys, monkeypatch, name
    ):
        monkeypatch.setenv("RAINBOW_CACTUS_PALETTE", f"{name},blue")
        assert main(["color", sample_path, "--dot"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(name) in captured.err


def spelled(key: str, spelling: str) -> str:
    """A "min,max" coloring key as written "max,min" or with zero-padded labels."""
    a, b = key.split(",")
    return {"canonical": key, "reversed": f"{b},{a}", "zero-padded": f"0{a},00{b}"}[spelling]


SPELLINGS = ("canonical", "reversed", "zero-padded")


class TestVerify:
    def test_ok_round_trip(self, sample_path, tmp_path, capsys):
        assert main(["color", sample_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        for spelling in SPELLINGS:
            coloring = {spelled(k, spelling): c for k, c in payload["coloring"].items()}
            coloring_file = tmp_path / f"{spelling}.json"
            coloring_file.write_text(json.dumps({**payload, "coloring": coloring}))
            assert main(["verify", sample_path, str(coloring_file)]) == 0
            assert capsys.readouterr().out.strip() == "OK k=7"

    def test_monochrome_fails_with_witness(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c5.txt", cycle_edges(5))
        outs = []
        for spelling in SPELLINGS:
            coloring_file = tmp_path / f"{spelling}.json"
            coloring_file.write_text(json.dumps(
                {"coloring": {spelled(f"{min(u, v)},{max(u, v)}", spelling): 1 for u, v in cycle_edges(5)}}
            ))
            assert main(["verify", path, str(coloring_file)]) == 3
            outs.append(capsys.readouterr().out)
        out = outs[0]
        assert out.startswith("FAIL:")
        assert "repeats color 1" in out
        assert outs == [out] * len(SPELLINGS)

    def test_missing_edge_is_an_error(self, sample_path, tmp_path, capsys):
        assert main(["color", sample_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["coloring"]["1,2"]
        coloring_file = tmp_path / "partial.json"
        coloring_file.write_text(json.dumps(payload))
        assert main(["verify", sample_path, str(coloring_file)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_unknown_edge_is_an_error(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "alien.json"
        coloring_file.write_text(json.dumps({"coloring": {"1,2": 1, "98,99": 2}}))
        assert main(["verify", sample_path, str(coloring_file)]) == 1

    def test_too_many_geodesics_exit_1_fast(self, tmp_path, capsys):
        # a chain of 20 diamonds has 2^20 geodesics end to end, and each
        # repeats a color: the search stops at its step budget
        edges, colors = diamond_chain(20)
        path = write_edges(tmp_path, "chain.txt", edges)
        coloring_file = tmp_path / "chain.json"
        coloring_file.write_text(json.dumps({"coloring": {f"{u},{v}": c for (u, v), c in zip(edges, colors)}}))
        start = time.perf_counter()
        assert main(["verify", path, str(coloring_file)]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no verdict within ")

    def test_no_coloring_object_is_an_error(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "bare.json"
        coloring_file.write_text(json.dumps({"colouring": {"1,2": 1}}))
        assert main(["verify", sample_path, str(coloring_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coloring file has no 'coloring' object\n"

    def test_one_edge_under_both_key_orders_is_a_duplicate(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "twice.json"
        coloring_file.write_text(json.dumps({"coloring": {"1,2": 1, "2,1": 2}}))
        assert main(["verify", sample_path, str(coloring_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate coloring entry for edge '2,1'\n"

    def test_repeated_key_is_a_duplicate(self, tmp_path, capsys):
        # triangle 1-2-3 with pendant 3-4; a decoder that keeps the last of
        # two equal keys would check {"3,4": 1} and print FAIL: pair (1,4)
        path = write_edges(tmp_path, "g.txt", [(1, 2), (2, 3), (1, 3), (3, 4)])
        coloring_file = tmp_path / "twice.json"
        coloring_file.write_text('{"coloring": {"1,2": 1, "2,3": 1, "1,3": 1, "3,4": 2, "3,4": 1}}')
        assert main(["verify", path, str(coloring_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate coloring entry for edge '3,4'\n"

    @pytest.mark.parametrize(
        ("entries", "err"),
        [
            ('"1,2": 1, " 1 , 3": 1, "2,3": 1.9', "coloring key ' 1 , 3' is not two ASCII-digit"),
            ('"1,2": 1, "2,3": 1.9, " 1 , 3": 1', "edge '2,3' has non-integer color 1.9"),
            ('"2,1": 1, "1,4": 1, "2,3": 0', "coloring entry '1,4' is not an edge"),
            ('"3,1": {}, "1,3": 1', "edge '3,1' has non-integer color {}\n"),
            ('"1,3": {"a": 1, "a": 2}', "edge '1,3' has non-integer color {'a': 2}\n"),
        ],
        ids=["bad-key-first", "bad-color-first", "not-an-edge-first", "empty-object", "object"],
    )
    def test_first_bad_entry_in_file_order_is_reported(self, tmp_path, capsys, entries, err):
        path = write_edges(tmp_path, "g.txt", [(1, 2), (2, 3), (1, 3), (3, 4)])
        coloring_file = tmp_path / "bad.json"
        coloring_file.write_text('{"coloring": {%s, "3,4": 2}}' % entries)
        assert main(["verify", path, str(coloring_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + err)

    def test_deeply_nested_color_is_printed(self, tmp_path, capsys):
        # 500 levels, within what the decoder reads: the message prints the
        # value, as a dict at every level, and nothing recurses past the limit
        path = write_edges(tmp_path, "g.txt", [(1, 2), (2, 3), (1, 3), (3, 4)])
        coloring_file = tmp_path / "deep.json"
        deep = '{"a": ' * 500 + "1" + "}" * 500
        coloring_file.write_text('{"coloring": {"1,2": %s, "2,3": 1, "1,3": 1, "3,4": 2}}' % deep)
        assert main(["verify", path, str(coloring_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: edge '1,2' has non-integer color %s\n" % ("{'a': " * 500 + "1" + "}" * 500)

    def test_invalid_json_is_an_error(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "broken.json"
        coloring_file.write_text("{not json")
        assert main(["verify", sample_path, str(coloring_file)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_coloring_file_not_utf8_is_an_error(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "latin1.json"
        coloring_file.write_bytes(b'{"coloring": {}, "note": "\xff"}')
        assert main(["verify", sample_path, str(coloring_file)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_key_label_too_long_for_int_is_not_an_edge(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "long.json"
        coloring_file.write_text(json.dumps({"coloring": {f"1,{TOO_LONG}": 1}}))
        assert main(["verify", sample_path, str(coloring_file)]) == 1
        assert "is not an edge of the graph" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"coloring": {"1,2": ' + TOO_LONG + "}}", "[" * 100_000 + "]" * 100_000],
        ids=["number-too-long", "nested-too-deep"],
    )
    def test_json_the_decoder_cannot_read_is_an_error(self, sample_path, tmp_path, capsys, text):
        coloring_file = tmp_path / "hostile.json"
        coloring_file.write_text(text)
        assert main(["verify", sample_path, str(coloring_file)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_integer_color_is_an_error(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "weird.json"
        coloring_file.write_text(json.dumps({"coloring": {"1,2": "red"}}))
        assert main(["verify", sample_path, str(coloring_file)]) == 1

    @pytest.mark.parametrize(
        ("key", "value"),
        [("2,3", bad) for bad in (1.9, 2.0, True, "2", None, 0, -1)]
        + [(" 1 , +2", 1), ("\u0663,4", 2)],
        ids=["1.9", "2.0", "True", "2", "None", "0", "-1", "spaced-signed-key", "arabic-indic-key"],
    )
    def test_only_positive_json_integers_are_colors(self, tmp_path, capsys, key, value):
        # triangle 1-2-3 with pendant 3-4, where {"1,2": 1, "2,3": 1, "1,3": 1,
        # "3,4": 2} verifies; int() would have read the colors 1.9 and true as
        # 1 and "2" as 2, and the keys " 1 , +2" and "\u0663,4" (an Arabic-Indic
        # three) as the edges 1,2 and 3,4, and printed OK k=2
        path = write_edges(tmp_path, "g.txt", [(1, 2), (2, 3), (1, 3), (3, 4)])
        edge = ",".join(str(int(label)) for label in key.split(","))
        coloring = {k: c for k, c in {"1,2": 1, "2,3": 1, "1,3": 1, "3,4": 2}.items() if k != edge}
        coloring[key] = value
        coloring_file = tmp_path / "strict.json"
        coloring_file.write_text(json.dumps({"coloring": coloring}))
        assert main(["verify", path, str(coloring_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(key) in captured.err and "color" in captured.err

    def test_same_output_under_optimize_flag(self, tmp_path):
        # `python -O` strips asserts; the structural check must not rest on
        # them. The fault at the last vertex is first seen from vertex 198,
        # so that run takes the structural check, which fails, and then
        # resumes the scan
        spec = GenSpec(seed=3, target_vertices=200, cycle_lengths=(3, 5, 7), pendant_probability=0.3)
        g = generate(spec)
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(format_edge_list(g))
        optimal = analyze_graph(g).result.coloring.color
        src_dir = os.path.dirname(os.path.dirname(rainbow_cactus.__file__))
        runs = []
        for name, colors in (("ok", optimal), ("far", _fault_at_last_vertex(g, optimal))):
            keys = (",".join(map(str, g.edge_label_pair(e))) for e in range(g.edge_count))
            coloring_file = tmp_path / f"{name}.json"
            coloring_file.write_text(json.dumps({"coloring": dict(zip(keys, colors))}))
            for flags in ([], ["-O"]):
                proc = subprocess.run(
                    [sys.executable, *flags, "-m", "rainbow_cactus.cli", "verify", str(graph_file),
                     str(coloring_file)],
                    capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src_dir),
                )
                runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1] and runs[2] == runs[3]
        assert runs[0] == (0, f"OK k={max(optimal)}\n")
        assert runs[2][0] == 3 and runs[2][1].startswith("FAIL: pair (198,200) ")


class TestOracle:
    def test_bowtie_agreement(self, tmp_path, capsys):
        path = write_edges(
            tmp_path, "bowtie.txt", [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
        )
        assert main(["oracle", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["src_bruteforce"] == 2
        assert payload["src_formula"] == 2
        assert payload["colorings_checked"] >= 1
        assert lines[1] == "bruteforce=2 formula=2 AGREE"

    def test_c5_agreement(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c5.txt", cycle_edges(5))
        assert main(["oracle", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "bruteforce=3 formula=3 AGREE"

    def test_rejected_input_still_brute_forces(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c4.txt", cycle_edges(4))
        assert main(["oracle", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "bruteforce=2 formula=N/A (rejected)"

    def test_cap_respected(self, sample_path, capsys):
        assert main(["oracle", sample_path]) == 1
        assert "brute force is capped" in capsys.readouterr().err

    def test_cap_override(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c7.txt", cycle_edges(7))
        assert main(["oracle", path, "--max-edges", "7"]) == 0
        assert "AGREE" in capsys.readouterr().out


class TestGenerate:
    def test_emits_parseable_odd_cactus(self, capsys):
        assert main(["generate", "--seed", "5", "--vertices", "18",
                     "--cycles", "3,5", "--pendant-prob", "0.4"]) == 0
        out = capsys.readouterr().out
        g = build_graph(parse_edge_list(out))
        assert g.vertex_count >= 18
        an = analyze_graph(g)
        assert an.classification.accepted

    def test_deterministic(self, capsys):
        assert main(["generate", "--seed", "9", "--vertices", "15"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--seed", "9", "--vertices", "15"]) == 0
        assert capsys.readouterr().out == first

    def test_invalid_spec_exits_1(self, capsys):
        assert main(["generate", "--cycles", "4"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_cycles_flag_exits_1(self, capsys):
        assert main(["generate", "--cycles", "3,x"]) == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_size_past_the_ceiling_exits_1(self, capsys):
        assert main(["generate", "--vertices", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: target_vertices must be at most {MAX_TARGET_VERTICES}\n"


class TestSelftest:
    def test_small_run_passes(self, capsys):
        assert main(["selftest", "--seeds", "8", "--max-n", "16"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    def test_negative_seeds_exit_1(self, capsys):
        assert main(["selftest", "--seeds", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seeds" in captured.err and "-3" in captured.err

    @pytest.mark.parametrize("max_n", ["-5", "1", "8"])
    def test_max_n_below_the_longest_cycle_exits_1(self, capsys, max_n):
        assert main(["selftest", "--seeds", "20", "--max-n", max_n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-n" in captured.err and max_n in captured.err

    def test_smallest_max_n_bounds_every_instance(self, capsys):
        for seed in range(300):
            assert generate(spec_for_seed(seed, MIN_MAX_N)).vertex_count <= MIN_MAX_N
        assert main(["selftest", "--seeds", "5", "--max-n", str(MIN_MAX_N)]) == 0
        assert "selftest passed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "seeds, max_n", [(-3, 30), (60, MIN_MAX_N - 1), (1, -5)], ids=["seeds-3", "max_n8", "max_n-5"]
    )
    def test_library_run_rejects_the_bounds_the_cli_rejects(self, seeds, max_n):
        # below MIN_MAX_N some specs exceed the bound: max_n=8 gives
        # 9-vertex graphs for seeds 6, 30 and 53
        with pytest.raises(InvalidSpecError):
            run_selftest(seeds=seeds, max_n=max_n)

    def test_violation_stops_the_run_and_exits_3(self, capsys, monkeypatch):
        # a check that fails on the third instance: the run records it and
        # checks no further instance, and the CLI names seed and invariant
        calls = []

        def planted(g):
            calls.append(g)
            if len(calls) == 3:
                raise InvariantViolation("edge_in_two_adjacency_lists", "planted")

        monkeypatch.setattr(selftest, "check_graph_core", planted)
        report = run_selftest(seeds=10, max_n=16)
        assert len(calls) == 3
        assert not report.ok
        assert report.failures == (SelftestFailure(2, "edge_in_two_adjacency_lists", "planted"),)
        calls.clear()
        assert main(["selftest", "--seeds", "10", "--max-n", "16"]) == 3
        assert capsys.readouterr().out == "selftest FAILED at seed 2: edge_in_two_adjacency_lists (planted)\n"

    def test_zero_seeds_warns(self, capsys):
        assert main(["selftest", "--seeds", "0"]) == 0
        assert "no instances tested" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds, max_n", [(-1, 30), (0, MIN_MAX_N - 1)], ids=["seeds", "max_n"])
    def test_bad_bound_prints_the_library_error(self, capsys, seeds, max_n):
        # one check of each bound, in `run_selftest`; the CLI prints its
        # message, before the warning that no instances ran
        with pytest.raises(InvalidSpecError) as exc:
            run_selftest(seeds=seeds, max_n=max_n)
        assert main(["selftest", "--seeds", str(seeds), "--max-n", str(max_n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc.value}\n"

    def test_checks_hold_under_optimize_flag(self):
        # `python -O` strips asserts; the invariant suite must not rest on them
        src_dir = os.path.dirname(os.path.dirname(rainbow_cactus.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "rainbow_cactus.cli", "selftest", "--seeds", "40",
             "--max-n", "30"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src_dir),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "selftest passed: 40 instances" in proc.stdout

    def test_no_assert_statements_in_the_package(self):
        # the `python -O` runs cover only the paths they happen to take; a
        # check anywhere in the package must not be an assert
        package = pathlib.Path(rainbow_cactus.__file__).parent
        found = [
            f"{path.relative_to(package)}:{node.lineno}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestParserReuse:
    """`main` shares one parser across calls; no option may leak into the next."""

    def test_plain_color_after_dot_prints_json(self, sample_path, capsys):
        assert main(["color", sample_path, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("graph")
        assert main(["color", sample_path]) == 0
        assert json.loads(capsys.readouterr().out)["src"] == 7

    def test_plain_analyze_after_full_has_no_segments(self, sample_path, capsys):
        assert main(["analyze", sample_path, "--full"]) == 0
        assert json.loads(capsys.readouterr().out)["segments"]
        assert main(["analyze", sample_path]) == 0
        assert json.loads(capsys.readouterr().out)["segments"] is None


class TestColoringOnlyWherePrinted:
    """Plain `analyze` and `oracle` print the closed form and never build the
    coloring; each command that prints a coloring builds it, with its
    colour-count check against the closed form."""

    PRINTS_A_COLORING = (["analyze", "--full"], ["color"], ["color", "--dot"])

    @pytest.mark.parametrize(
        "name, edges",
        [("sample", SAMPLE_EDGES), ("c5", cycle_edges(5)), ("p4", path_edges(4)), ("c4", cycle_edges(4))],
    )
    def test_plain_analyze_never_colors(self, tmp_path, capsys, monkeypatch, name, edges):
        path = write_edges(tmp_path, f"{name}.txt", edges)
        code = main(["analyze", path])
        want = capsys.readouterr()

        def refuse(*args):
            raise AssertionError("plain analyze built a coloring")

        monkeypatch.setattr(solver, "strong_rainbow_coloring", refuse)
        assert main(["analyze", path]) == code
        assert capsys.readouterr() == want

    def test_oracle_never_colors(self, tmp_path, capsys, coloring_calls):
        path = write_edges(tmp_path, "bowtie.txt", bowtie_edges())
        assert main(["oracle", path]) == 0
        assert capsys.readouterr().out.endswith("bruteforce=2 formula=2 AGREE\n")
        assert not coloring_calls

    @pytest.mark.parametrize("argv", PRINTS_A_COLORING)
    def test_printed_coloring_is_built_once(self, sample_path, capsys, coloring_calls, argv):
        assert main([argv[0], sample_path, *argv[1:]]) == 0
        assert coloring_calls == [1]

    @pytest.mark.parametrize("argv", PRINTS_A_COLORING)
    def test_color_count_check_runs_where_a_coloring_is_printed(self, sample_path, extra_color, argv):
        with pytest.raises(InvariantError, match="color count 8 disagrees with the closed form 7"):
            main([argv[0], sample_path, *argv[1:]])
