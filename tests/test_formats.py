"""Edgelist and graph6 parsing and emission."""

from __future__ import annotations

import random
import re
import time
import tracemalloc

import pytest

import oracles
from szeged import _canon, formats
from szeged import (
    FormatError,
    build_graph,
    canonical_form,
    cycle_graph,
    emit_edgelist,
    emit_graph6,
    parse_edgelist,
    parse_graph6,
    path_graph,
)
from szeged.formats import emit_graph6_chunks, parse_graph6_chunks

C5_TEXT = "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"


class TestEdgelist:
    def test_parse_c5(self):
        g = parse_edgelist(C5_TEXT)
        assert g.n == 5 and g.m == 5
        assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_emit_round_trip(self):
        g = cycle_graph(5)
        assert parse_edgelist(emit_edgelist(g)) == g
        assert emit_edgelist(g) == C5_TEXT

    def test_trailing_blank_lines(self):
        g = parse_edgelist("2 1\n0 1\n\n\n")
        assert g.m == 1

    def test_single_vertex(self):
        assert parse_edgelist("1 0\n").n == 1
        assert emit_edgelist(build_graph(1, [])) == "1 0\n"

    @pytest.mark.parametrize("text", [
        "",
        "5\n",
        "5 x\n",
        "0 0\n",
        "-1 0\n",
        "3 1\n",                    # missing edge line
        "3 1\n0 1\n1 2\n",          # extra edge line
        "3 1\n0\n",
        "3 1\n0 a\n",
        "3 1\n1 0\n",               # endpoints must be increasing
        "3 1\n1 1\n",
        "3 2\n0 1\n0 1\n",
        "3 1\n0 3\n",
        "3 1\n0 1 2\n",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_edgelist(text)

    @pytest.mark.parametrize("n", [258048, 10**7, 10**18])
    def test_vertex_count_over_graph6_bound_refused_before_building(
            self, monkeypatch, n):
        def no_build(*args):
            raise AssertionError("graph built before the vertex count was checked")

        monkeypatch.setattr("szeged.formats.Graph", no_build)
        with pytest.raises(FormatError, match="258047"):
            parse_edgelist(f"{n} 0\n")

    def test_duplicate_named_as_build_graph_names_it(self):
        # The first pair seen before, in input order.
        with pytest.raises(FormatError, match=r"^edge \(1, 2\) given twice$"):
            parse_edgelist("4 4\n1 2\n0 1\n1 2\n0 1\n")

    def test_unsorted_input_gives_build_graphs_graph(self):
        rng = random.Random(4)
        for _ in range(30):
            n, edges = oracles.random_connected_graph(rng, max_n=12)
            rng.shuffle(edges)
            text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
            g, want = parse_edgelist(text), build_graph(n, edges)
            assert g == want and g.adj == want.adj
            assert all(list(row) == sorted(row) for row in g.adj)

    def test_vertex_count_bound_is_inclusive(self):
        g = parse_edgelist("258047 1\n258045 258046\n")
        assert (g.n, g.m) == (258047, 1)

    def test_random_round_trips(self):
        rng = random.Random(3)
        for _ in range(50):
            n, edges = oracles.random_connected_graph(rng, max_n=12)
            g = build_graph(n, edges)
            assert parse_edgelist(emit_edgelist(g)) == g


class TestGraph6:
    def test_c5_bytes(self):
        assert emit_graph6(cycle_graph(5)) == b"Dhc"
        assert parse_graph6("Dhc") == cycle_graph(5)

    def test_known_small_codes(self):
        assert emit_graph6(build_graph(1, [])) == b"@"
        assert emit_graph6(path_graph(2)) == b"A_"
        assert emit_graph6(build_graph(2, [])) == b"A?"
        assert emit_graph6(path_graph(3)) == b"Bg"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randint(1, 12)
            edges = [p for p in oracles.pairs_rowmajor(n) if rng.random() < 0.4]
            g = build_graph(n, edges)
            assert parse_graph6(emit_graph6(g).decode("ascii")) == g

    def test_optional_header(self):
        assert parse_graph6(">>graph6<<Dhc") == cycle_graph(5)

    @pytest.mark.parametrize("text", [
        "",
        "D",            # truncated body
        "Dhc?",         # extra bytes
        "Dh\x1f",       # byte below printable range
        "Dh\x7f",       # byte above printable range
        "A@",           # nonzero padding bits for n = 2
        "Bh",           # nonzero padding bits for n = 3, pairs set too
        "?",            # n = 0
        "~??",          # truncated long-form vertex count
        "~??}",         # long form for n = 62
        "~~???~??",     # eight-byte vertex count, n = 258048
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_graph6(text)

    @pytest.mark.parametrize("n", [63, 100])
    def test_long_form_matches_networkx(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        edges = [p for p in oracles.pairs_rowmajor(n) if rng.random() < 0.1]
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        want = nx.to_graph6_bytes(ref, header=False).strip()
        g = build_graph(n, edges)
        assert emit_graph6(g) == want
        assert parse_graph6(want) == g

    def test_large_path_round_trips_from_its_set_bits(self):
        # 12.5 M pairs, 4,999 set: neither direction visits every pair.
        g = path_graph(5000)
        before = _canon.pair_list.cache_info().currsize
        t0 = time.perf_counter()
        assert parse_graph6(emit_graph6(g)) == g
        assert time.perf_counter() - t0 < 2
        assert _canon.pair_list.cache_info().currsize == before

    def test_matches_definition_random(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 100)
            edges = [p for p in oracles.pairs_rowmajor(n) if rng.random() < rng.random()]
            assert emit_graph6(build_graph(n, edges)) == oracles.graph6_oracle(n, edges)

    def test_canonical_form_matches_definition(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 10)
            edges = [p for p in oracles.pairs_rowmajor(n) if rng.random() < 0.5]
            assert canonical_form(build_graph(n, edges)) == oracles.lexmin_graph6(n, edges)

    def test_sparse_large_matches_definition(self):
        # 40,000 vertices, a 133 MB body in pieces of at most CHUNK_BYTES.
        # Edges fall on the pieces' ends and at random; each body byte is
        # checked against the set bits the definition puts there.
        n = 40_000
        rng = random.Random(23)
        ends = [6 * formats.CHUNK_BYTES * k + d for k in (1, 2, 50) for d in (-1, 0)]
        edges = {_canon.pair_at(s) for s in ends}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2000)}
        want = {}
        for i, j in edges:
            s = j * (j - 1) // 2 + i  # pairs before column j, then row i
            want[s // 6] = want.get(s // 6, 0) | 32 >> s % 6
        pieces = emit_graph6_chunks(build_graph(n, sorted(edges)))
        assert next(pieces) == bytes(63 + d for d in (63, n >> 12, n >> 6 & 63, n & 63))
        got, size = {}, 0
        for piece in pieces:
            assert len(piece) <= formats.CHUNK_BYTES
            got.update((size + hit.start(), piece[hit.start()] - 63)
                       for hit in re.finditer(rb"[^?]", piece))
            size += len(piece)
        assert size == (n * (n - 1) // 2 + 5) // 6
        assert got == want

    def test_beyond_long_form_rejected(self):
        with pytest.raises(FormatError):
            emit_graph6(build_graph(258048, []))

    def test_cross_format_agreement(self):
        rng = random.Random(13)
        for _ in range(30):
            n, edges = oracles.random_connected_graph(rng, max_n=10)
            g = build_graph(n, edges)
            via_text = parse_edgelist(emit_edgelist(g))
            via_g6 = parse_graph6(emit_graph6(g).decode("ascii"))
            assert via_text == via_g6 == g


def split_every(data, size):
    return [data[i:i + size] for i in range(0, len(data), size)] or [b""]


class TestGraph6Pieces:
    """parse_graph6_chunks reads one piece at a time and decodes the pieces
    joined exactly as parse_graph6 decodes the whole string."""

    @pytest.mark.parametrize("text,message", oracles.GRAPH6_ERRORS)
    def test_every_split_keeps_the_message(self, text, message):
        data = text.encode("ascii")
        with pytest.raises(FormatError) as whole:
            parse_graph6(text)
        assert str(whole.value) == message
        splits = [split_every(data, k) for k in range(1, len(data) + 1)]
        splits += [[data[:i], b"", data[i:]] for i in range(len(data) + 1)]
        for pieces in splits:
            with pytest.raises(FormatError) as split:
                parse_graph6_chunks(pieces)
            assert str(split.value) == message, pieces

    def test_random_graphs_in_random_pieces(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 100)
            edges = [p for p in oracles.pairs_rowmajor(n) if rng.random() < 0.1]
            g = build_graph(n, edges)
            data = rng.choice([b"", b">>graph6<<"]) + emit_graph6(g)
            data = rng.choice([b"", b" \n"]) + data + rng.choice([b"", b"\n", b"\t\r\n"])
            cuts = sorted(rng.randint(0, len(data)) for _ in range(rng.randint(0, 8)))
            pieces = [data[a:b] for a, b in zip([0] + cuts, cuts + [len(data)])]
            assert parse_graph6_chunks(pieces) == parse_graph6(data) == g

    def test_reads_one_piece_at_a_time(self):
        # The empty 40,000-vertex graph: 133 MB of graph6 in pieces of 1 MB,
        # or as one string, bytes or str, that parse_graph6 slices instead of
        # copying, decoded in a few pieces' worth of memory.
        data = emit_graph6(build_graph(40_000, []))
        text = data.decode("ascii")
        for decode in (lambda: parse_graph6_chunks(emit_graph6_chunks(build_graph(40_000, []))),
                       lambda: parse_graph6(data), lambda: parse_graph6(text)):
            tracemalloc.start()
            try:
                g = decode()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (g.n, g.m) == (40_000, 0)
            assert peak < 10 * formats.CHUNK_BYTES
