"""Command-line interface: outputs, pipes, and exit codes."""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import szeged
from szeged import (
    BoundValue,
    VerificationReport,
    apsp,
    build_graph,
    complete_graph,
    cycle_graph,
    emit_edgelist,
    index_report,
    parse_graph6,
    path_graph,
    pi,
)
from szeged.cli import PAIRS_MAX_WORK, main
from szeged.invariants import INDEX_MAX_N

C5_TEXT = emit_edgelist(cycle_graph(5))
RANDOM_GRAPH = build_graph(*oracles.random_connected_graph(random.Random(11),
                                                           max_n=16, min_n=12))


def path_over_pairs_budget():
    """Shortest path whose --pairs work C(n,2)*(n-1) exceeds the budget."""
    n = 2
    while n * (n - 1) // 2 * (n - 1) <= PAIRS_MAX_WORK:
        n += 1
    return emit_edgelist(path_graph(n))


# A new interpreter that imports this checkout's szeged.
COLD_ENV = {**os.environ, "PYTHONPATH": str(Path(szeged.__file__).resolve().parents[1])}


def cold(args, **kwargs):
    return subprocess.run([sys.executable, *args], env=COLD_ENV, **kwargs)


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")),
                                                          encoding="utf-8"))
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

    @pytest.mark.parametrize("g", [
        build_graph(1, []), cycle_graph(5), complete_graph(5), path_graph(30),
        RANDOM_GRAPH,
    ], ids=["K1", "C5", "K5", "P30", "random"])
    def test_pairs_json_is_one_dumps_of_the_payload(self, capsys, monkeypatch, g):
        dm = apsp(g)
        payload = index_report(g).to_dict()
        payload["pairs"] = [
            {"x": x, "y": y, "d": dm[x][y],
             "mu_edges": [list(e) for e in pc.mu_edges], "pi": pc.pi}
            for x in range(g.n) for y in range(x + 1, g.n)
            for pc in [pi(g, dm, x, y)]
        ]
        code, out, _ = run(capsys, monkeypatch, ["compute", "--json", "--pairs"],
                           stdin=emit_edgelist(g))
        assert code == 0 and out == json.dumps(payload) + "\n"

    def test_pairs_text_has_one_line_per_pair(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["compute", "--pairs"],
                           stdin=emit_edgelist(path_graph(30)))
        lines = out.splitlines()
        rows = lines[lines.index("pair contributions:") + 1:]
        assert code == 0 and len(rows) == 30 * 29 // 2
        assert rows[0] == "  (0,1) d=1 pi=0 edges=[(0, 1)]"
        assert rows[-1] == "  (28,29) d=1 pi=0 edges=[(28, 29)]"

    @pytest.mark.parametrize("argv", [["compute", "--pairs"],
                                      ["compute", "--json", "--pairs"]])
    def test_pairs_on_disconnected_prints_nothing(self, capsys, monkeypatch, argv):
        code, out, err = run(capsys, monkeypatch, argv, stdin="4 2\n0 1\n2 3\n")
        assert code == 3 and out == "" and err.startswith("error:")

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

    def test_over_the_size_cap_exits_two(self, capsys, monkeypatch):
        # With --pairs too: the cap refuses the graph before any pair work.
        text = emit_edgelist(path_graph(INDEX_MAX_N + 1))
        t0 = time.perf_counter()
        code, out, err = run(capsys, monkeypatch,
                             ["compute", "--json", "--pairs"], stdin=text)
        assert time.perf_counter() - t0 < 5
        assert code == 2 and out == "" and err.startswith("error:")

    def test_pairs_budget_refuses_before_any_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("index or distance work before the budget check")

        monkeypatch.setattr("szeged.cli.index_report", no_work)
        monkeypatch.setattr("szeged.cli.apsp", no_work)
        code, _, _ = run(capsys, monkeypatch, ["compute", "--json", "--pairs"],
                         stdin=path_over_pairs_budget())
        assert code == 2

    @pytest.mark.parametrize("budget,want", [(50, 0), (49, 2)])
    def test_pairs_budget_is_inclusive(self, capsys, monkeypatch, budget, want):
        # C5 costs C(5,2) * 5 = 50.
        monkeypatch.setattr("szeged.cli.PAIRS_MAX_WORK", budget)
        code, _, _ = run(capsys, monkeypatch, ["compute", "--json", "--pairs"],
                         stdin=C5_TEXT)
        assert code == want
        # Without --pairs there is no such budget.
        assert run(capsys, monkeypatch, ["compute", "--json"], stdin=C5_TEXT)[0] == 0


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

    def test_negative_seed(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["construct", "--family", "cycle-tree",
                            "--cycle", "5", "--tree", "10", "--seed", "-3"])
        tree = szeged.TreeSpec.random(10, random.Random(-3))
        assert code == 0 and out == emit_edgelist(szeged.cycle_with_tree(5, tree))

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

    def test_graph6_long_form_output(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["construct", "--family", "cycle-tree",
                            "--cycle", "4", "--tree", "97", "--seed", "1",
                            "--format", "graph6"])
        assert code == 0
        g = parse_graph6(out.strip())
        assert (g.n, g.m) == (100, 100)


# Runs main(argv) in a new interpreter, then reports its exit code and its
# own peak RSS in kB.  VmHWM counts this image only, where ru_maxrss can
# carry over exec the RSS of the process that spawned it.
RSS_PROBE = """
import sys
import szeged.cli
code = szeged.cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    print(code, fh.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
"""


def own_peak_rss_mb(argv, stdin):
    """Peak RSS in MB of one cold CLI run that exits 0, its output discarded.

    stdin is bytes to pipe in, or an open file to read as standard input.
    """
    piped = isinstance(stdin, bytes)
    proc = cold(["-c", RSS_PROBE, *argv], input=stdin if piped else None,
                stdin=None if piped else stdin, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=120)
    code, kb = proc.stderr.split()[-2:]
    assert proc.returncode == 0 and code == b"0", proc.stderr
    return int(kb) / 1024


class TestGraph6Output:
    """graph6 output is written piece by piece, as emit_graph6 would encode it."""

    def test_several_pieces(self, capsys, monkeypatch):
        # 4,000 vertices: a 1.3 MB body, more than one piece.
        g = build_graph(4000, [(0, 1), (5, 3999), (1000, 3998)])
        code, out, _ = run(capsys, monkeypatch,
                           ["convert", "--from", "edgelist", "--to", "graph6"],
                           stdin=emit_edgelist(g))
        assert code == 0 and out == szeged.emit_graph6(g).decode("ascii") + "\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_memory_stays_near_edgelist_output(self):
        # An empty graph on 40,000 vertices has a 133 MB graph6 body.
        args = ["convert", "--from", "edgelist", "--to"]
        rss_e = own_peak_rss_mb(args + ["edgelist"], b"40000 0\n")
        assert own_peak_rss_mb(args + ["graph6"], b"40000 0\n") < 2 * rss_e


class TestGraph6Input:
    """graph6 input is read and decoded piece by piece, from a file or stdin."""

    FROM_GRAPH6 = ["convert", "--from", "graph6", "--to", "edgelist"]

    @staticmethod
    def record_pieces(monkeypatch):
        """Wrap the CLI's reader; each read appends the list of its piece lengths.

        Checking the pieces the CLI reads makes a piece size bound at import,
        which a patch of formats.CHUNK_BYTES would not reach, fail the test.
        """
        read = szeged.cli._input_pieces
        reads = []

        def recorded(path):
            reads.append([])
            for piece in read(path):
                reads[-1].append(len(piece))
                yield piece

        monkeypatch.setattr("szeged.cli._input_pieces", recorded)
        return reads

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_small_pieces_decode_like_parse_graph6(self, capsys, monkeypatch, tmp_path,
                                                   size):
        monkeypatch.setattr("szeged.formats.CHUNK_BYTES", size)
        reads = self.record_pieces(monkeypatch)
        rng = random.Random(size)
        path = tmp_path / "g.g6"
        for _ in range(12):
            n = rng.choice([rng.randint(1, 62), rng.randint(63, 100)])
            edges = [p for p in oracles.pairs_rowmajor(n) if rng.random() < 0.1]
            g = build_graph(n, edges)
            text = rng.choice(["", ">>graph6<<"]) + szeged.emit_graph6(g).decode() + "\n"
            want = emit_edgelist(g)
            reads.clear()
            assert run(capsys, monkeypatch, self.FROM_GRAPH6, stdin=text) == (0, want, "")
            path.write_text(text)
            assert run(capsys, monkeypatch, self.FROM_GRAPH6 + [str(path)]) == (0, want, "")
            assert [len(pieces) for pieces in reads] == [-(-len(text) // size)] * 2

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_small_pieces_keep_errors(self, capsys, monkeypatch, size):
        monkeypatch.setattr("szeged.formats.CHUNK_BYTES", size)
        reads = self.record_pieces(monkeypatch)
        for text, message in oracles.GRAPH6_ERRORS:
            for argv in (self.FROM_GRAPH6, ["compute", "--format", "graph6"]):
                code, out, err = run(capsys, monkeypatch, argv, stdin=text)
                assert (code, out, err) == (3, "", f"error: {message}\n"), text
        # A fault stops the read early, so the number of pieces is not fixed;
        # their size is, and some case must have taken more than one.
        assert all(length <= size for pieces in reads for length in pieces)
        assert any(len(pieces) > 1 for pieces in reads)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_memory_stays_at_a_piece(self, tmp_path):
        # An empty graph on 40,000 vertices has a 133 MB graph6 body.
        path = tmp_path / "empty.g6"
        with open(path, "wb") as fh:
            fh.writelines(szeged.formats.emit_graph6_chunks(build_graph(40_000, [])))
        rss_e = own_peak_rss_mb(["convert", "--from", "edgelist", "--to", "edgelist"],
                                b"40000 0\n")
        assert own_peak_rss_mb(self.FROM_GRAPH6 + [str(path)], b"") < 2 * rss_e
        with open(path, "rb") as fh:
            assert own_peak_rss_mb(self.FROM_GRAPH6, fh) < 2 * rss_e

    @pytest.mark.parametrize("argv,data", [
        (["compute"], b"\xff\xfe 1\n"),
        (["convert", "--from", "edgelist", "--to", "graph6"], b"2 1\n0 1\xa0\n"),
        (["convert", "--from", "graph6", "--to", "edgelist"], b"D\xffc"),
        (["compute", "--format", "graph6"], b"\xe2\x82\xac"),
    ])
    def test_non_ascii_stdin_is_unusable_input(self, argv, data):
        # A strict UTF-8 stdin, as in any UTF-8 locale.
        proc = subprocess.run([sys.executable, "-m", "szeged.cli", *argv], input=data,
                              capture_output=True, timeout=60,
                              env={**COLD_ENV, "PYTHONIOENCODING": "utf-8:strict"})
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr == b"error: standard input is not ASCII text\n"

    def test_non_ascii_file_is_unusable_input(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "g.g6"
        path.write_bytes(b"D\xffc\n")
        for fmt in ("graph6", "edgelist"):
            code, out, err = run(capsys, monkeypatch, ["compute", "--format", fmt, str(path)])
            assert (code, out, err) == (3, "", f"error: {path} is not ASCII text\n")


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

    def test_long_form_round_trip(self, capsys, monkeypatch):
        text = emit_edgelist(path_graph(100))
        code, mid, _ = run(capsys, monkeypatch,
                           ["convert", "--from", "edgelist", "--to", "graph6"],
                           stdin=text)
        assert code == 0 and mid.startswith("~?@c")
        code, out, _ = run(capsys, monkeypatch,
                           ["convert", "--from", "graph6", "--to", "edgelist"],
                           stdin=mid)
        assert code == 0 and out == text


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
        # "~~" starts the eight-byte vertex count, n = 258048 here.
        (["convert", "--from", "graph6", "--to", "edgelist"], "~~???~??\n", 3),
        (["compute", "--pairs"], path_over_pairs_budget(), 2),
        (["construct", "--family", "cycle-tree", "--cycle", "5"], None, 2),
        (["construct", "--family", "c5-two-trees", "--t2", "2"], None, 2),
        (["verify", "--theorem", "thm1", "--n", "x"], None, 2),
        (["verify", "--theorem", "thm1", "--n", "5.."], None, 2),
        # A lazy range: the first n past the cap ends the scope check.
        (["verify", "--theorem", "thm3", "--n", "5..1000000000000000000"], None, 2),
        # The edgelist header is bounded like graph6 input, before any graph.
        (["compute"], "10000000 0\n", 3),
        (["convert", "--from", "edgelist", "--to", "graph6"], "258048 0\n", 3),
        # Counts and vertices are ASCII decimal only, as in a file.
        (["compute", "--json"], "\u0663 2\n0 1\n1 2\n", 3),
        (["compute", "--json"], "1_0 0\n", 3),
        (["compute", "--json"], "+3 2\n0 1\n1 2\n", 3),
        (["compute", "--json"], "3 2\n0 1\n1 +2\n", 3),
        (["lemmas", "--n", "\u0663"], None, 2),
        (["lemmas", "--n", "1_0"], None, 2),
        (["lemmas", "--n", "+3"], None, 2),
        (["verify", "--theorem", "thm3", "--n", "5..\u0666"], None, 2),
        (["verify", "--theorem", "thm3", "--n", "+5"], None, 2),
        (["construct", "--family", "cycle-tree", "--cycle", "\u0665", "--tree", "1"],
         None, 2),
        (["construct", "--family", "cycle-tree", "--cycle", "5", "--tree", "1_0",
          "--seed", "3"], None, 2),
        (["construct", "--family", "cycle-tree", "--cycle", "5", "--tree", "10",
          "--seed", "+3"], None, 2),
        (["construct", "--family", "c5-two-trees", "--t1", "+2", "--t2", "2"], None, 2),
        (["construct", "--family", "c5-two-trees", "--t1", "2", "--t2", "-2"], None, 2),
        # One vertex over GRAPH6_MAX_N, refused before anything is built.
        (["construct", "--family", "cycle-tree", "--cycle", "258048", "--tree", "1"],
         None, 2),
        (["construct", "--family", "cycle-tree", "--cycle", "5", "--tree", "258044",
          "--seed", "1"], None, 2),
        (["construct", "--family", "c5-two-trees", "--t1", "258040", "--t2", "5",
          "--seed", "1"], None, 2),
    ], ids=["lemmas-zero", "lemmas-negative", "verify-unwritable-out",
            "convert-graph6-too-long", "compute-pairs-over-budget",
            "construct-cycle-tree-missing-tree", "construct-two-trees-missing-t1",
            "verify-n-not-a-number", "verify-n-open-range", "verify-n-huge-range",
            "compute-edgelist-too-long", "convert-edgelist-too-long",
            "compute-header-arabic-digit", "compute-header-underscore",
            "compute-header-plus", "compute-edge-plus", "lemmas-n-arabic-digit",
            "lemmas-n-underscore", "lemmas-n-plus", "verify-n-arabic-digit",
            "verify-n-plus", "construct-cycle-arabic-digit", "construct-tree-underscore",
            "construct-seed-plus", "construct-t1-plus", "construct-t2-negative",
            "construct-cycle-over-limit", "construct-tree-over-limit",
            "construct-two-trees-over-limit"])
    def test_exit_code(self, capsys, monkeypatch, argv, stdin, want):
        t0 = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, argv, stdin=stdin)
        assert time.perf_counter() - t0 < 1
        assert code == want
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_range_out_of_scope_fails_before_any_work(self, capsys, monkeypatch,
                                                      tmp_path):
        def no_work(which, n):
            raise AssertionError(f"verified n={n} before rejecting the range")

        monkeypatch.setattr("szeged.cli.verify_theorem", no_work)
        path = tmp_path / "x.jsonl"
        t0 = time.perf_counter()
        code, out, err = run(capsys, monkeypatch,
                             ["verify", "--theorem", "thm3", "--n", "5..9",
                              "--json", "--out", str(path)])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == "" and err.startswith("error:")
        assert not path.exists()


class TestClosedOutput:
    """A reader that closes stdout early gets exit 2 and one error line."""

    def test_reader_closing_after_two_lines(self):
        # 400 kB of pair table: more than a pipe holds, so the writer
        # is still writing when the reader leaves.
        proc = subprocess.Popen([sys.executable, "-m", "szeged.cli", "compute", "--pairs"],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=COLD_ENV)
        proc.stdin.write(emit_edgelist(path_graph(60)).encode("ascii"))
        proc.stdin.close()
        assert proc.stdout.readline() == b"n: 60\n"
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_reader_closed_before_the_first_write(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cold(["-m", "szeged.cli", "verify", "--theorem", "thm3", "--n", "5..7"],
                        stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def cold_closed(fd, args, **kwargs):
    """cold(args) in a child whose file descriptor fd is closed from the start."""
    return subprocess.run(["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, *args],
                          env=COLD_ENV, **kwargs)


class TestClosedAtStart:
    """A stdin or stdout closed before the command starts: one error line, no traceback.

    A closed stderr is not covered: the error line has nowhere to go.
    """

    @pytest.mark.parametrize("argv", [
        ["compute"],
        ["compute", "--format", "graph6"],
        ["convert", "--from", "edgelist", "--to", "graph6", "-"],
    ])
    def test_closed_stdin_is_unusable_input(self, argv):
        proc = cold_closed(0, ["-m", "szeged.cli", *argv], capture_output=True,
                           text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: standard input is closed\n"

    @pytest.mark.parametrize("argv", [
        ["compute"],
        ["compute", "--json", "--pairs"],
        ["convert", "--from", "edgelist", "--to", "graph6"],
        ["construct", "--family", "cycle-tree", "--cycle", "5", "--tree", "1"],
        ["verify", "--theorem", "thm3", "--n", "5", "--json"],
        ["lemmas", "--n", "5"],
    ])
    def test_closed_stdout_exits_two(self, argv):
        proc = cold_closed(1, ["-m", "szeged.cli", *argv], input="3 2\n0 1\n1 2\n",
                           stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: standard output closed before all was written\n"

    def test_input_errors_come_before_the_closed_stdout(self):
        proc = cold_closed(1, ["-m", "szeged.cli", "compute"], input="bad\n",
                           stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == "error: header must be 'n m', got 'bad'\n"

    def test_verify_out_file_needs_no_stdout(self, tmp_path):
        argv = ["-m", "szeged.cli", "verify", "--theorem", "thm3", "--n", "5", "--json"]
        path = tmp_path / "reports.jsonl"
        proc = cold_closed(1, argv + ["--out", str(path)], stderr=subprocess.PIPE,
                           text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        opened = cold(argv, capture_output=True, text=True, timeout=60)
        assert opened.returncode == 0
        got, want = json.loads(path.read_text()), json.loads(opened.stdout)
        got["elapsed_ms"] = want["elapsed_ms"] = 0
        assert got == want


# Runs main(argv) in a new interpreter, then reports the numpy modules loaded.
NUMPY_PROBE = """
import sys
import szeged, szeged.cli
if len(sys.argv) > 1:
    szeged.cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.partition(".")[0] == "numpy"), file=sys.stderr)
"""


class TestNumpyOnlyToEnumerate:
    """No command loads numpy, enumerating ones included: it is a test
    dependency only."""

    @pytest.mark.parametrize("argv,stdin", [
        ([], None),
        (["compute", "--json", "--pairs"], C5_TEXT),
        (["compute", "--format", "graph6"], "DBw\n"),
        (["convert", "--from", "graph6", "--to", "edgelist"], "DBw\n"),
        (["convert", "--from", "edgelist", "--to", "graph6"], C5_TEXT),
        (["construct", "--family", "c5-two-trees", "--t1", "3", "--t2", "4",
          "--seed", "1", "--format", "graph6"], None),
        (["verify", "--theorem", "thm3", "--n", "5"], None),
        (["lemmas", "--n", "4"], None),
    ], ids=["import", "compute", "compute-graph6", "convert-from-graph6",
            "convert-to-graph6", "construct", "verify", "lemmas"])
    def test_not_loaded(self, argv, stdin):
        proc = cold(["-c", NUMPY_PROBE, *argv], input=stdin, capture_output=True,
                    text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"

    def test_naming_a_graph_leaves_it_out(self):
        probe = ("import sys, szeged\n"
                 "szeged.canonical_form(szeged.cycle_graph(10))\n"
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))")
        proc = cold(["-c", probe], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
