from __future__ import annotations

import json

import pytest
from conftest import SAMPLE_EDGES, cycle_edges, path_edges

from rainbow_cactus import analyze_graph, build_graph, parse_edge_list
from rainbow_cactus.cli import build_report, main


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


class TestVerify:
    def test_ok_round_trip(self, sample_path, tmp_path, capsys):
        assert main(["color", sample_path]) == 0
        coloring_file = tmp_path / "coloring.json"
        coloring_file.write_text(capsys.readouterr().out)
        assert main(["verify", sample_path, str(coloring_file)]) == 0
        assert capsys.readouterr().out.strip() == "OK k=7"

    def test_monochrome_fails_with_witness(self, tmp_path, capsys):
        path = write_edges(tmp_path, "c5.txt", cycle_edges(5))
        coloring_file = tmp_path / "bad.json"
        coloring_file.write_text(json.dumps(
            {"coloring": {f"{min(u, v)},{max(u, v)}": 1 for u, v in cycle_edges(5)}}
        ))
        assert main(["verify", path, str(coloring_file)]) == 3
        out = capsys.readouterr().out
        assert out.startswith("FAIL:")
        assert "repeats color 1" in out

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

    def test_non_integer_color_is_an_error(self, sample_path, tmp_path, capsys):
        coloring_file = tmp_path / "weird.json"
        coloring_file.write_text(json.dumps({"coloring": {"1,2": "red"}}))
        assert main(["verify", sample_path, str(coloring_file)]) == 1

    @pytest.mark.parametrize("bad", [1.9, 2.0, True, "2", None, 0, -1])
    def test_only_positive_json_integers_are_colors(self, tmp_path, capsys, bad):
        # triangle 1-2-3 with pendant 3-4; int() would have read 1.9 and true
        # as 1 and "2" as 2 and printed OK k=2
        path = write_edges(tmp_path, "g.txt", [(1, 2), (2, 3), (1, 3), (3, 4)])
        coloring_file = tmp_path / "strict.json"
        coloring_file.write_text(json.dumps({"coloring": {"1,2": 1, "2,3": bad, "1,3": 1, "3,4": 2}}))
        assert main(["verify", path, str(coloring_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'2,3'" in captured.err and "color" in captured.err


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


class TestSelftest:
    def test_small_run_passes(self, capsys):
        assert main(["selftest", "--seeds", "8", "--max-n", "16"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    def test_zero_seeds_warns(self, capsys):
        assert main(["selftest", "--seeds", "0"]) == 0
        assert "no instances tested" in capsys.readouterr().out
