"""Text formats: edge-list files and graph6 strings."""

from __future__ import annotations

from . import _canon
from .errors import FormatError, GraphError
from .graphs import Graph, adjacency_bits, build_graph, graph_from_bits


def parse_edgelist(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" with 0 <= u < v < n.

    Raises FormatError on any deviation, including duplicate edges.
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
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}") from None
    if n < 1 or m < 0:
        raise FormatError(f"bad counts n={n} m={m}")
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
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
    data = data.strip()
    try:
        n, bits = _canon.bits_from_graph6_bytes(data)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if n < 1:
        raise FormatError("graph must have at least one vertex")
    return graph_from_bits(n, bits)


def emit_graph6(g: Graph) -> bytes:
    """graph6 encoding of g in its current labeling.

    Only the short form exists here, so FormatError beyond n = 62.
    """
    bits = adjacency_bits(g)
    try:
        return _canon.graph6_bytes_from_bits(g.n, bits)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
