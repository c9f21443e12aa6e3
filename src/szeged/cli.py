"""Command-line front end.

Subcommands: compute an index report for a graph, construct an equality
family member, verify a bound exhaustively, run the lemma checks, and
convert between the two graph formats.  JSON output is the stable machine
interface; the human-readable output may change between versions.

Exit codes: 0 success, 1 verification found violations, 2 bad arguments,
3 malformed or unusable input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .enumeration import MAX_N, MAX_N_PRUNED
from .errors import Disconnected, FormatError, GraphError, HypothesisViolated, TooLarge
from .extremal import TreeSpec, c5_two_trees, cycle_with_tree
from .formats import emit_edgelist, emit_graph6, parse_edgelist, parse_graph6
from .graphs import Graph, apsp
from .invariants import index_report, pi
from .verify import THEOREMS, verify_lemmas, verify_theorem

FORMATS = ("edgelist", "graph6")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not ASCII text") from None


def _parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "edgelist":
        return parse_edgelist(text)
    return parse_graph6(text)


def _emit_graph(g: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return emit_edgelist(g)
    return emit_graph6(g).decode("ascii") + "\n"


def cmd_compute(args) -> int:
    g = _parse_graph(_read_input(args.input), args.format)
    dm = apsp(g)
    report = index_report(g, dm)
    if args.json:
        payload = report.to_dict()
        if args.pairs:
            payload["pairs"] = [
                {"x": x, "y": y, "d": dm[x][y],
                 "mu_edges": [list(e) for e in pc.mu_edges], "pi": pc.pi}
                for x in range(g.n) for y in range(x + 1, g.n)
                for pc in [pi(g, dm, x, y)]
            ]
        print(json.dumps(payload))
        return 0
    for key, value in report.to_dict().items():
        print(f"{key}: {value}")
    if args.pairs:
        print("pair contributions:")
        for x in range(g.n):
            for y in range(x + 1, g.n):
                pc = pi(g, dm, x, y)
                print(f"  ({x},{y}) d={dm[x][y]} pi={pc.pi} "
                      f"edges={list(pc.mu_edges)}")
    return 0


def _tree_spec(size: int, seed_rng: random.Random | None, what: str) -> TreeSpec:
    if size < 1:
        raise GraphError(f"{what} must be >= 1, got {size}")
    if size <= 2:
        return TreeSpec.trivial() if size == 1 else TreeSpec(2, (0, 0))
    if seed_rng is None:
        raise GraphError(f"{what} of size {size} has a random shape; --seed required")
    return TreeSpec.random(size, seed_rng)


def cmd_construct(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    try:
        if args.family == "cycle-tree":
            if args.cycle is None or args.tree is None:
                print("error: cycle-tree needs --cycle and --tree", file=sys.stderr)
                return 2
            g = cycle_with_tree(args.cycle, _tree_spec(args.tree, rng, "--tree"))
        else:
            if args.t1 is None or args.t2 is None:
                print("error: c5-two-trees needs --t1 and --t2", file=sys.stderr)
                return 2
            g = c5_two_trees(_tree_spec(args.t1, rng, "--t1"),
                             _tree_spec(args.t2, rng, "--t2"))
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(_emit_graph(g, args.format))
    return 0


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(spec)
    if hi < lo:
        raise ValueError(f"empty range {spec!r}")
    return list(range(lo, hi + 1))


def cmd_verify(args) -> int:
    try:
        ns = _parse_range(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = sys.stdout
    if args.out is not None:
        try:
            out = open(args.out, "w", encoding="ascii")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
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
    if args.n < 1:
        print(f"error: need n >= 1, got {args.n}", file=sys.stderr)
        return 2
    report = verify_lemmas(args.n)
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
    g = _parse_graph(_read_input(args.input), getattr(args, "from"))
    sys.stdout.write(_emit_graph(g, args.to))
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
    p.add_argument("--cycle", type=int, help="cycle length for cycle-tree")
    p.add_argument("--tree", type=int, help="attached tree size for cycle-tree")
    p.add_argument("--t1", type=int, help="first tree size for c5-two-trees")
    p.add_argument("--t2", type=int, help="second tree size for c5-two-trees")
    p.add_argument("--seed", type=int,
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
    p.add_argument("--n", type=int, required=True)
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
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Disconnected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TooLarge, HypothesisViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
