"""Text formats: edge-list files and graph6 strings, and canonical graph6 names.

graph6 writes the upper adjacency triangle in column order, (0,1), (0,2),
(1,2), (0,3), ..., six bits to a byte; its bytes are the six-bit values
0..63 written as 63..126.  It is read and written in pieces of at most
CHUNK_BYTES, so memory stays at one piece however large the body (5.5 GB
of it at GRAPH6_MAX_N), and only the set pairs are visited.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from typing import Iterable, Iterator

from . import _canon
from ._canon import num_pairs, pair_index
from .errors import FormatError, GraphError, TooLarge
from .graphs import Graph, graph_from_slots

# Largest n of graph6's four-byte vertex count; beyond it the eight-byte
# form would be needed.
GRAPH6_MAX_N = 258047
# graph6 bytes encoded, decoded or read at a time; cli reads it per call, as
# formats.CHUNK_BYTES, so a changed value reaches its reads too.
CHUNK_BYTES = 2**20
_GRAPH6_DIGITS = bytes(range(63, 127))
_TO_DIGIT = bytes((b + 63) % 256 for b in range(256))
_GRAPH6_HEADER = b">>graph6<<"  # optional, before the string
# Largest n canonical_form names: the tests referee its prefix search with
# an n! sweep of their own, which runs only this far.
CANON_MAX_N = 10


def parse_decimal(token: str) -> int:
    """Value of a token of ASCII digits only, which int() alone does not enforce."""
    if not (token.isascii() and token.isdigit()):
        raise GraphError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_edgelist(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" with 0 <= u < v < n.

    Raises FormatError on any deviation, including duplicate edges, and on
    n > GRAPH6_MAX_N, the bound on graph6 input, before any graph is built.
    Pairs checked here need none of build_graph's checks: once sorted,
    they are the Graph's edges.
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
    if n > GRAPH6_MAX_N:
        raise FormatError(f"edgelist input supported for n <= {GRAPH6_MAX_N} only")
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
    if len(set(edges)) < m:
        seen = set()
        for e in edges:
            if e in seen:
                raise FormatError(f"edge ({e[0]}, {e[1]}) given twice")
            seen.add(e)
    return Graph(n, tuple(sorted(edges)))


def emit_edgelist(g: Graph) -> str:
    """Inverse of parse_edgelist; newline-terminated."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 string (optional >>graph6<< header allowed).

    The string is handed to parse_graph6_chunks in slices of CHUNK_BYTES,
    so it is never copied whole.
    """
    pieces = (data[i:i + CHUNK_BYTES] for i in range(0, len(data), CHUNK_BYTES))
    if isinstance(data, str):
        if not data.isascii():
            raise FormatError("graph6 input must be ASCII")
        pieces = (piece.encode("ascii") for piece in pieces)
    return parse_graph6_chunks(pieces)


def _graph6_stripped(pieces: Iterable[bytes]) -> Iterator[bytes]:
    """The nonempty pieces of b"".join(pieces).strip(), one at a time.

    Whitespace is held back until data follows it; whitespace inside the
    string is a graph6 byte out of range, refused there.
    """
    started = held = False
    for piece in pieces:
        if not started:
            piece = piece.lstrip()
            started = bool(piece)
        core = piece.rstrip()
        if core:
            if held:
                raise FormatError("graph6 byte out of range")
            yield core
            held = len(core) < len(piece)
        else:
            held = held or bool(piece)


def _check_digits(piece: bytes) -> None:
    if piece.translate(None, _GRAPH6_DIGITS):
        raise FormatError("graph6 byte out of range")


def _graph6_count(head: bytes) -> tuple[int, int]:
    """Vertex count at the start of a graph6 string, and the body's offset."""
    if head[0] < 126:
        return head[0] - 63, 1
    if len(head) < 4:
        raise FormatError("truncated graph6 vertex count")
    if head[1] == 126:
        raise FormatError(f"graph6 input supported for n <= {GRAPH6_MAX_N} only")
    n = ((head[1] - 63) << 12) | ((head[2] - 63) << 6) | (head[3] - 63)
    if n <= 62:
        raise FormatError("graph6 long form used for n <= 62")
    return n, 4


def parse_graph6_chunks(pieces: Iterable[bytes]) -> Graph:
    """parse_graph6 of the pieces joined, reading one piece at a time.

    The pieces joined and stripped of surrounding whitespace are the string,
    optionally after a >>graph6<< header.  Memory stays at one piece and
    the set pairs however large the body, and only the nonzero body bytes
    are unpacked.  Raises FormatError on bad length, out-of-range bytes,
    nonzero padding, or a vertex count outside 1..GRAPH6_MAX_N in its
    shortest form; a byte out of range is named first, wherever it is.
    """
    pieces = _graph6_stripped(pieces)
    head = b""
    for piece in pieces:  # enough for the header and the vertex count
        head += piece
        if len(head) >= len(_GRAPH6_HEADER) + 4:
            break
    if head.startswith(_GRAPH6_HEADER):
        head = head[len(_GRAPH6_HEADER):]
    if not head:
        raise FormatError("empty graph6 string")
    _check_digits(head)
    try:
        n, start = _graph6_count(head)
    except FormatError:
        for piece in pieces:
            _check_digits(piece)
        raise
    m = num_pairs(n)
    size = (m + 5) // 6
    slots = []
    seen = 0  # body bytes before this piece
    for piece in itertools.chain([head[start:]], pieces):
        _check_digits(piece)
        if seen < size:  # past the body's length only the range is checked
            for digit in re.finditer(rb"[^?]", piece):  # '?' is the zero digit
                value, base = piece[digit.start()] - 63, 6 * (seen + digit.start())
                slots.extend(base + b for b in range(6) if value >> (5 - b) & 1)
        seen += len(piece)
    if seen != size:
        raise FormatError("graph6 body has wrong length")
    if slots and slots[-1] >= m:
        raise FormatError("nonzero graph6 padding bits")
    if n < 1:
        raise FormatError("graph must have at least one vertex")
    return graph_from_slots(n, slots)


def emit_graph6_chunks(g: Graph) -> Iterator[bytes]:
    """graph6 encoding of g in its current labeling, in pieces.

    n <= 62 takes one header byte, n up to GRAPH6_MAX_N the long form:
    '~' and n in three 6-bit bytes.  The header comes first, then the body
    in pieces of at most CHUNK_BYTES.  FormatError, at the first piece,
    beyond n = GRAPH6_MAX_N.
    """
    n = g.n
    if n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 output supported for n <= {GRAPH6_MAX_N} only")
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    yield bytes(head).translate(_TO_DIGIT)
    slots = sorted(pair_index(u, v) for u, v in g.edges)
    size = (num_pairs(n) + 5) // 6
    lo = 0
    for start in range(0, size, CHUNK_BYTES):
        chunk = bytearray(min(CHUNK_BYTES, size - start))
        hi = bisect_left(slots, 6 * (start + len(chunk)), lo)
        for s in slots[lo:hi]:
            chunk[s // 6 - start] |= 32 >> s % 6
        lo = hi
        yield chunk.translate(_TO_DIGIT)


def emit_graph6(g: Graph) -> bytes:
    """emit_graph6_chunks joined into one string."""
    return b"".join(emit_graph6_chunks(g))


def canonical_form(g: Graph) -> bytes:
    """Smallest adjacency-bit string over all relabelings, as graph6 bytes.

    Equal strings iff isomorphic.  The code is the lex-min one, found by
    the prefix search of _canon.min_code on Python ints; refused
    (TooLarge) beyond n = CANON_MAX_N.
    """
    if g.n > CANON_MAX_N:
        raise TooLarge(f"canonical form capped at n = {CANON_MAX_N}; n={g.n}")
    code = _canon.min_code([sum(1 << v for v in row) for row in g.adj])
    return emit_graph6(graph_from_slots(g.n, _canon.code_slots(code, g.n)))
