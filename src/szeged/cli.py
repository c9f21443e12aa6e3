"""Command-line front end.

Subcommands: compute an index report for a graph, construct an equality
family member, verify a bound exhaustively, run the lemma checks, and
convert between the two graph formats.  JSON output is the stable machine
interface; the human-readable output may change between versions.

Exit codes: 0 success, 1 verification found violations, 2 bad arguments
or a standard output closed before all was written, 3 malformed or
unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import nullcontext
from typing import Iterator

from . import formats
from ._canon import num_pairs
from .enumeration import MAX_N, MAX_N_PRUNED, check_scope
from .errors import Disconnected, FormatError, GraphError, TooLarge
from .extremal import TreeSpec, c5_two_trees, cycle_with_tree
from .formats import (GRAPH6_MAX_N, emit_edgelist, emit_graph6_chunks, parse_decimal,
                      parse_edgelist, parse_graph6_chunks)
from .graphs import Graph, apsp
from .invariants import index_report, pi
from .verify import THEOREMS, universe_filter, verify_lemmas, verify_theorem

FORMATS = ("edgelist", "graph6")
# compute --pairs costs, and prints, about C(n,2)*m: one edge scan per
# vertex pair.  A path is the worst shape.  The largest path within this
# budget, n = 450, took 12-14 s cold (184 MB of JSON, 32 MB peak RSS) on a
# 2-vCPU machine (four runs); n = 460 took 12-14 s.
PAIRS_MAX_WORK = 45_400_000


def _input_pieces(path: str) -> Iterator[bytes]:
    """The bytes of a file, or of stdin for "-", in pieces; FormatError unless ASCII."""
    name = "standard input" if path == "-" else path
    if path == "-" and sys.stdin is None:  # fd 0 was closed at start
        raise FormatError("standard input is closed")
    try:
        with nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
            while piece := fh.read(formats.CHUNK_BYTES):
                if not piece.isascii():
                    raise FormatError(f"{name} is not ASCII text")
                yield piece
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _read_graph(path: str, fmt: str) -> Graph:
    # graph6 is decoded piece by piece: its body is C(n,2)/6 bytes, 5.5 GB
    # at GRAPH6_MAX_N.
    if fmt == "graph6":
        return parse_graph6_chunks(_input_pieces(path))
    return parse_edgelist(b"".join(_input_pieces(path)).decode("ascii"))


def _write_graph(g: Graph, fmt: str) -> None:
    if fmt == "edgelist":
        sys.stdout.write(emit_edgelist(g))
        return
    # Written piece by piece: the graph6 body is C(n,2)/6 bytes, 5.5 GB at
    # GRAPH6_MAX_N.
    for chunk in emit_graph6_chunks(g):
        sys.stdout.write(chunk.decode("ascii"))
    sys.stdout.write("\n")


def _pair_rows(g: Graph):
    """(x, y, d(x, y), pi(x, y)) for every pair x < y, from one apsp."""
    dm = apsp(g)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            yield x, y, dm[x][y], pi(g, dm, x, y)


def cmd_compute(args) -> int:
    g = _read_graph(args.input, args.format)
    if args.pairs and num_pairs(g.n) * g.m > PAIRS_MAX_WORK:
        raise TooLarge(f"--pairs work C(n,2)*m = {num_pairs(g.n) * g.m} is over "
                       f"the budget of {PAIRS_MAX_WORK}")
    report = index_report(g).to_dict()
    if args.json and not args.pairs:
        print(json.dumps(report))
    elif args.json:
        # The same bytes as json.dumps of the report with a "pairs" list,
        # written row by row so that memory does not grow with the output.
        sys.stdout.write(json.dumps(report)[:-1] + ', "pairs": [')
        sep = ""
        for x, y, d, pc in _pair_rows(g):
            sys.stdout.write(sep + json.dumps(
                {"x": x, "y": y, "d": d, "mu_edges": pc.mu_edges, "pi": pc.pi}))
            sep = ", "
        print("]}")
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
        if args.pairs:
            print("pair contributions:")
            for x, y, d, pc in _pair_rows(g):
                print(f"  ({x},{y}) d={d} pi={pc.pi} edges={list(pc.mu_edges)}")
    return 0


def _tree_spec(size: int, seed_rng: random.Random | None, what: str) -> TreeSpec:
    if size < 1:
        raise GraphError(f"{what} must be >= 1, got {size}")
    if size <= 2:
        return TreeSpec.trivial() if size == 1 else TreeSpec(2, (0, 0))
    if seed_rng is None:
        raise GraphError(f"{what} of size {size} has a random shape; --seed required")
    return TreeSpec.random(size, seed_rng)


def _int_option(value: str | None, option: str, signed: bool = False) -> int | None:
    """ASCII decimal value of an option, with a leading '-' only if signed."""
    if value is None:
        return None
    negative = signed and value.startswith("-")
    try:
        number = parse_decimal(value[1:] if negative else value)
    except GraphError:
        raise GraphError(f"{option} must be a decimal integer, got {value!r}") from None
    return -number if negative else number


def _check_construct_n(n: int) -> None:
    if n > GRAPH6_MAX_N:
        raise TooLarge(f"construct supports n <= {GRAPH6_MAX_N}, got n = {n}")


def cmd_construct(args) -> int:
    seed = _int_option(args.seed, "--seed", signed=True)
    rng = random.Random(seed) if seed is not None else None
    if args.family == "cycle-tree":
        cycle, tree = _int_option(args.cycle, "--cycle"), _int_option(args.tree, "--tree")
        if cycle is None or tree is None:
            raise GraphError("cycle-tree needs --cycle and --tree")
        _check_construct_n(cycle + tree - 1)
        g = cycle_with_tree(cycle, _tree_spec(tree, rng, "--tree"))
    else:
        t1, t2 = _int_option(args.t1, "--t1"), _int_option(args.t2, "--t2")
        if t1 is None or t2 is None:
            raise GraphError("c5-two-trees needs --t1 and --t2")
        _check_construct_n(3 + t1 + t2)
        g = c5_two_trees(_tree_spec(t1, rng, "--t1"), _tree_spec(t2, rng, "--t2"))
    _write_graph(g, args.format)
    return 0


def _parse_range(spec: str) -> range:
    lo_s, dots, hi_s = spec.partition("..")
    lo = parse_decimal(lo_s)
    hi = parse_decimal(hi_s) if dots else lo
    if hi < lo:
        raise GraphError(f"empty range {spec!r}")
    return range(lo, hi + 1)


def cmd_verify(args) -> int:
    ns = _parse_range(args.n)
    # Reject every n up front, so a bad range end costs no work and no file;
    # the first n past the cap ends the scan, however long the range.
    for n in ns:
        check_scope(universe_filter(args.theorem, n))
    out = sys.stdout
    if args.out is not None:
        try:
            out = open(args.out, "w", encoding="ascii")
        except OSError as exc:
            raise GraphError(f"cannot write {args.out}: {exc}") from None
    failed = False
    try:
        for n in ns:
            report = verify_theorem(args.theorem, n)
            failed |= not report.ok
            if args.json:
                print(json.dumps(report.to_dict()), file=out)
            else:
                print(f"{args.theorem} n={n}: {report.universe_size} graphs, "
                      f"min gap {report.min_gap} vs bound {report.bound.numerator}"
                      f"{'' if report.bound.denominator == 1 else '/4 scale'}, "
                      f"{len(report.achievers)} achievers, "
                      f"{len(report.counterexamples)} counterexamples, "
                      f"{len(report.predicate_mismatches)} predicate mismatches "
                      f"[{report.elapsed_ms} ms]", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 1 if failed else 0


def cmd_lemmas(args) -> int:
    n = parse_decimal(args.n)
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    report = verify_lemmas(n)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"lemmas n={report.n}: {report.universe_size} graphs, "
              f"{len(report.cycle_pair_violations)} cycle-pair, "
              f"{len(report.block_iff_violations)} block-iff, "
              f"{len(report.equidistant_violations)} equidistant violations "
              f"[{report.elapsed_ms} ms]")
    return 0 if report.ok else 1


def cmd_convert(args) -> int:
    g = _read_graph(args.input, getattr(args, "from"))
    _write_graph(g, args.to)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szeged",
        description="Wiener/Szeged index computation, extremal families, "
                    "and exhaustive bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index report for one graph")
    p.add_argument("input", nargs="?", default="-",
                   help="path to the graph, or - for stdin (default)")
    p.add_argument("--format", choices=FORMATS, default="edgelist")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--pairs", action="store_true",
                   help="include the per-pair contribution table")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("construct", help="build an equality-family graph")
    p.add_argument("--family", choices=("cycle-tree", "c5-two-trees"),
                   required=True)
    # Integers are read by cmd_construct, not type=: parse_args runs before
    # main handles GraphError.
    p.add_argument("--cycle", help="cycle length for cycle-tree")
    p.add_argument("--tree", help="attached tree size for cycle-tree")
    p.add_argument("--t1", help="first tree size for c5-two-trees")
    p.add_argument("--t2", help="second tree size for c5-two-trees")
    p.add_argument("--seed",
                   help="RNG seed; required when a tree of size >= 3 is drawn")
    p.add_argument("--format", choices=FORMATS, default="edgelist")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exhaustive bound check per n")
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--n", required=True,
                   help=f"single n or range lo..hi; capped at {MAX_N} "
                        f"({MAX_N_PRUNED} for thm1)")
    p.add_argument("--out", help="write reports to this file instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lemmas", help="structural lemma checks at one n")
    p.add_argument("--n", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("convert", help="translate between graph formats")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--from", choices=FORMATS, required=True)
    p.add_argument("--to", choices=FORMATS, required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if sys.stdout is None:
        # fd 1 was closed at start: stand in a pipe with no reader, so that
        # a write fails as it does when a reader has gone.
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at interpreter exit
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before all was written", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (FormatError, Disconnected)) else 2


if __name__ == "__main__":
    sys.exit(main())
