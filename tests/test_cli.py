"""Command-line interface: outputs, pipes, and exit codes."""

from __future__ import annotations

import io
import json

import pytest

from szeged import (
    BoundValue,
    VerificationReport,
    cycle_graph,
    emit_edgelist,
    path_graph,
)
from szeged.cli import main

C5_TEXT = emit_edgelist(cycle_graph(5))


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestCompute:
    def test_json_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["compute", "--json"], stdin=C5_TEXT)
        assert code == 0
        got = json.loads(out)
        assert got["n"] == 5 and got["m"] == 5
        assert got["wiener"] == 15 and got["szeged"] == 20
        assert got["revised_szeged_x4"] == 125
        assert got["gap_sz"] == 5 and got["gap_rsz_x4"] == 65
        assert got["bipartite"] is False
        assert got["girth"] == 5 and got["odd_girth"] == 5

    def test_same_graph_both_formats_byte_identical(self, capsys, monkeypatch):
        code1, out1, _ = run(capsys, monkeypatch,
                             ["compute", "--json"], stdin=C5_TEXT)
        code2, out2, _ = run(capsys, monkeypatch,
                             ["compute", "--json", "--format", "graph6"],
                             stdin="Dhc\n")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_from_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text(C5_TEXT)
        code, out, _ = run(capsys, monkeypatch,
                           ["compute", "--json", str(path)])
        assert code == 0 and json.loads(out)["wiener"] == 15

    def test_human_output(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["compute"], stdin=C5_TEXT)
        assert code == 0
        assert "wiener: 15" in out and "girth: 5" in out

    def test_acyclic_girth_is_null(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["compute", "--json"],
                           stdin="2 1\n0 1\n")
        got = json.loads(out)
        assert code == 0
        assert got["girth"] is None and got["odd_girth"] is None
        assert got["bipartite"] is True

    def test_pairs_table(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["compute", "--json", "--pairs"], stdin=C5_TEXT)
        got = json.loads(out)
        assert code == 0 and len(got["pairs"]) == 10
        assert sum(p["pi"] for p in got["pairs"]) == got["gap_sz"]
        for p in got["pairs"]:
            assert len(p["mu_edges"]) == p["d"] + p["pi"]

    def test_disconnected_is_unusable_input(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["compute"],
                           stdin="4 2\n0 1\n2 3\n")
        assert code == 3 and "error:" in err

    @pytest.mark.parametrize("argv,text", [
        (["compute"], "not a header\n"),
        (["compute", "--format", "graph6"], "D\n"),
    ])
    def test_malformed_input(self, capsys, monkeypatch, argv, text):
        code, _, err = run(capsys, monkeypatch, argv, stdin=text)
        assert code == 3 and "error:" in err

    def test_missing_file(self, capsys, monkeypatch, tmp_path):
        code, _, err = run(capsys, monkeypatch,
                           ["compute", str(tmp_path / "absent.txt")])
        assert code == 3 and "error:" in err


class TestConstruct:
    def test_bare_cycle_needs_no_seed(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["construct", "--family", "cycle-tree",
                            "--cycle", "5", "--tree", "1"])
        assert code == 0 and out == C5_TEXT

    def test_seed_required_for_big_tree(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch,
                           ["construct", "--family", "cycle-tree",
                            "--cycle", "5", "--tree", "3"])
        assert code == 2 and "--seed" in err

    def test_seed_deterministic(self, capsys, monkeypatch):
        argv = ["construct", "--family", "cycle-tree",
                "--cycle", "5", "--tree", "6", "--seed", "17"]
        code1, out1, _ = run(capsys, monkeypatch, argv)
        code2, out2, _ = run(capsys, monkeypatch, argv)
        assert code1 == code2 == 0 and out1 == out2

    def test_pipe_into_compute_hits_the_bound(self, capsys, monkeypatch):
        code, built, _ = run(capsys, monkeypatch,
                             ["construct", "--family", "cycle-tree",
                              "--cycle", "5", "--tree", "8", "--seed", "3"])
        assert code == 0
        code, out, _ = run(capsys, monkeypatch,
                           ["compute", "--json"], stdin=built)
        got = json.loads(out)
        assert code == 0 and got["n"] == 12 and got["gap_sz"] == 19

    def test_two_trees_pipe(self, capsys, monkeypatch):
        code, built, _ = run(capsys, monkeypatch,
                             ["construct", "--family", "c5-two-trees",
                              "--t1", "2", "--t2", "2"])
        assert code == 0
        code, out, _ = run(capsys, monkeypatch,
                           ["compute", "--json"], stdin=built)
        got = json.loads(out)
        assert code == 0 and got["n"] == 7 and got["gap_sz"] == 9

    @pytest.mark.parametrize("argv", [
        ["construct", "--family", "cycle-tree", "--cycle", "5"],
        ["construct", "--family", "cycle-tree", "--tree", "2"],
        ["construct", "--family", "c5-two-trees", "--t1", "2"],
        ["construct", "--family", "cycle-tree", "--cycle", "2", "--tree", "1"],
        ["construct", "--family", "cycle-tree", "--cycle", "5", "--tree", "0"],
    ])
    def test_bad_arguments(self, capsys, monkeypatch, argv):
        code, _, err = run(capsys, monkeypatch, argv)
        assert code == 2 and "error" in err

    def test_graph6_output(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["construct", "--family", "cycle-tree",
                            "--cycle", "5", "--tree", "1",
                            "--format", "graph6"])
        assert code == 0 and out == "Dhc\n"


class TestVerify:
    def test_json_range(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["verify", "--theorem", "thm2",
                            "--n", "4..5", "--json"])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in lines] == [4, 5]
        for r in lines:
            assert r["theorem"] == "thm2"
            assert r["counterexamples"] == []
            assert r["predicate_mismatches"] == []
        assert lines[0]["achievers"] == ["C]"]

    def test_human_single_n(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["verify", "--theorem", "thm3", "--n", "4"])
        assert code == 0
        assert "thm3 n=4" in out and "0 counterexamples" in out

    def test_out_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "reports.jsonl"
        code, out, _ = run(capsys, monkeypatch,
                           ["verify", "--theorem", "thm1", "--n", "5..6",
                            "--json", "--out", str(path)])
        assert code == 0 and out == ""
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [r["n"] for r in lines] == [5, 6]
        assert lines[0]["min_gap_num"] == 5

    def test_bad_range(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch,
                           ["verify", "--theorem", "thm1", "--n", "7..5"])
        assert code == 2 and "error" in err

    def test_too_large_universe(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch,
                           ["verify", "--theorem", "thm3", "--n", "9"])
        assert code == 2 and "error" in err

    def test_below_hypothesis(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch,
                           ["verify", "--theorem", "thm1", "--n", "4"])
        assert code == 2 and "error" in err

    def test_violations_exit_one(self, capsys, monkeypatch):
        fake = VerificationReport(
            theorem="thm2", n=4, universe_size=1, bound=BoundValue(8, 1),
            min_gap=7, achievers=(), counterexamples=("C]",),
            predicate_mismatches=(), elapsed_ms=0)
        monkeypatch.setattr("szeged.cli.verify_theorem",
                            lambda which, n: fake)
        code, out, _ = run(capsys, monkeypatch,
                           ["verify", "--theorem", "thm2", "--n", "4",
                            "--json"])
        assert code == 1
        assert json.loads(out)["counterexamples"] == ["C]"]


class TestLemmas:
    def test_json(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["lemmas", "--n", "4", "--json"])
        assert code == 0
        got = json.loads(out)
        assert got["universe_size"] == 6
        assert got["cycle_pair_violations"] == []

    def test_human(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["lemmas", "--n", "5"])
        assert code == 0 and "lemmas n=5: 21 graphs" in out


class TestConvert:
    def test_edgelist_to_graph6(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["convert", "--from", "edgelist", "--to", "graph6"],
                           stdin=C5_TEXT)
        assert code == 0 and out == "Dhc\n"

    def test_round_trip(self, capsys, monkeypatch):
        code, mid, _ = run(capsys, monkeypatch,
                           ["convert", "--from", "edgelist", "--to", "graph6"],
                           stdin=C5_TEXT)
        assert code == 0
        code, out, _ = run(capsys, monkeypatch,
                           ["convert", "--from", "graph6", "--to", "edgelist"],
                           stdin=mid)
        assert code == 0 and out == C5_TEXT

    def test_malformed(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch,
                           ["convert", "--from", "graph6", "--to", "edgelist"],
                           stdin="Dhc?\n")
        assert code == 3 and "error:" in err


class TestArgparseFailures:
    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["verify", "--n", "5"],
        ["verify", "--theorem", "thm9", "--n", "5"],
        ["convert", "--from", "edgelist"],
        [],
    ])
    def test_usage_errors_exit_two(self, capsys, monkeypatch, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestExitCodes:
    """Bad arguments exit 2 and unusable input 3, never 1 with a traceback."""

    @pytest.mark.parametrize("argv,stdin,want", [
        (["lemmas", "--n", "0"], None, 2),
        (["lemmas", "--n", "-3"], None, 2),
        (["verify", "--theorem", "thm3", "--n", "4",
          "--out", "/nonexistent/x"], None, 2),
        (["convert", "--from", "edgelist", "--to", "graph6"],
         emit_edgelist(path_graph(100)), 3),
    ], ids=["lemmas-zero", "lemmas-negative", "verify-unwritable-out",
            "convert-graph6-too-long"])
    def test_exit_code(self, capsys, monkeypatch, argv, stdin, want):
        code, out, err = run(capsys, monkeypatch, argv, stdin=stdin)
        assert code == want
        assert out == "" and err.startswith("error:")
