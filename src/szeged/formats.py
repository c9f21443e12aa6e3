"""Text formats: edge-list files and graph6 strings."""

from __future__ import annotations

from typing import Iterable, Iterator

from . import _canon
from .errors import FormatError, GraphError
from .graphs import Graph, build_graph, graph_from_slots


def parse_decimal(token: str) -> int:
    """Value of a token of ASCII digits only, which int() alone does not enforce."""
    if not (token.isascii() and token.isdigit()):
        raise GraphError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_edgelist(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" with 0 <= u < v < n.

    Raises FormatError on any deviation, including duplicate edges, and on
    n > GRAPH6_MAX_N, the bound on graph6 input, before any graph is built.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = parse_decimal(head[0]), parse_decimal(head[1])
    except GraphError:
        raise FormatError(f"non-integer header {lines[0]!r}") from None
    if n < 1:
        raise FormatError("graph must have at least one vertex")
    if n > _canon.GRAPH6_MAX_N:
        raise FormatError(f"edgelist input supported for n <= {_canon.GRAPH6_MAX_N} only")
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {line!r}")
        try:
            u, v = parse_decimal(parts[0]), parse_decimal(parts[1])
        except GraphError:
            raise FormatError(f"non-integer edge line {line!r}") from None
        if not 0 <= u < v < n:
            raise FormatError(f"edge ({u}, {v}) violates 0 <= u < v < {n}")
        edges.append((u, v))
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def emit_edgelist(g: Graph) -> str:
    """Inverse of parse_edgelist; newline-terminated."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 string (optional >>graph6<< header allowed)."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError:
            raise FormatError("graph6 input must be ASCII") from None
    return parse_graph6_chunks([data])


def parse_graph6_chunks(pieces: Iterable[bytes]) -> Graph:
    """parse_graph6 of the pieces joined, reading one piece at a time."""
    try:
        n, slots = _canon.graph6_slots(pieces)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if n < 1:
        raise FormatError("graph must have at least one vertex")
    return graph_from_slots(n, slots)


def emit_graph6_chunks(g: Graph) -> Iterator[bytes]:
    """graph6 encoding of g in its current labeling, in pieces.

    FormatError beyond n = GRAPH6_MAX_N, before any bits are built.
    """
    if g.n > _canon.GRAPH6_MAX_N:
        raise FormatError(f"graph6 output supported for n <= {_canon.GRAPH6_MAX_N} only")
    return _canon.graph6_chunks(g.n, (_canon.pair_index(u, v) for u, v in g.edges))


def emit_graph6(g: Graph) -> bytes:
    """emit_graph6_chunks joined into one string."""
    return b"".join(emit_graph6_chunks(g))
