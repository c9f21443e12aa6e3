"""Bit-level canonical labeling machinery.

A labeled graph on n vertices is a 0/1 vector over the C(n,2) vertex pairs in
column order (0,1), (0,2), (1,2), (0,3), ... — the same order graph6 uses.
Read as an m-bit integer with the first pair as the top bit, it is the graph's
code; the canonical code is the smallest code over all vertex relabelings.
Whole batches of rows are swept through all n! relabelings in blocks of at
most MAX_TABLE_N!: each block's relabeled codes are one exact float64 matrix
product of the gathered bit rows with a table of powers of two.

numpy is imported by the batch functions themselves, on the first
canonization: codes, slots and graph6 strings are plain Python ints and
bytes, so a process that never canonizes never loads it.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

# Weight tables cover at most MAX_TABLE_N! = 5,040 permutations (1.8 MB at
# n = 10); larger n sweeps n!/MAX_TABLE_N! blocks of them, one per choice of
# the first n - MAX_TABLE_N images.
MAX_TABLE_N = 7
# Codes are sums of distinct powers of two below 2^m, exact in float64 only
# while m fits its 53-bit significand.
MAX_EXACT_BITS = 53
_BATCH_BYTES = 2**24  # float64 codes one (rows, permutations) product may hold
# Largest n of graph6's four-byte vertex count; beyond it the eight-byte
# form would be needed.
GRAPH6_MAX_N = 258047
_CHUNK_BYTES = 2**20  # graph6 body bytes encoded at a time
# graph6 digits are the six-bit values 0..63 written as bytes 63..126.
_GRAPH6_DIGITS = bytes(range(63, 127))
_TO_DIGIT = bytes((b + 63) % 256 for b in range(256))
_GRAPH6_HEADER = b">>graph6<<"  # optional, before the string


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Position of pair {i, j} (i < j) in column order."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def pair_at(slot: int) -> tuple[int, int]:
    """Pair (i, j), i < j, at a column-order position; inverse of pair_index."""
    j = (1 + isqrt(8 * slot + 1)) // 2
    return slot - j * (j - 1) // 2, j


def code_slots(code: int, n: int) -> list[int]:
    """Column-order positions of the set bits of an m-bit code, ascending."""
    m = num_pairs(n)
    return [s for s in range(m) if code >> (m - 1 - s) & 1]


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), i < j, in column order."""
    return tuple((i, j) for j in range(n) for i in range(j))


def _pair_slots(images: np.ndarray, n: int) -> np.ndarray:
    """Slot of the pair {images[i], images[j]} for each column-order pair (i, j).

    images is (n, P) int8, one vertex map per column; the result is (m, P)
    int16, the slot of {hi, lo} (hi > lo) being hi*(hi-1)//2 + lo.
    """
    import numpy as np

    pairs = np.array(pair_list(n), dtype=np.intp).reshape(-1, 2)
    a, b = images[pairs[:, 0]], images[pairs[:, 1]]
    slot = np.maximum(a, b, dtype=np.int16)
    np.minimum(a, b, out=a)
    slot *= slot - 1
    slot //= 2
    slot += a
    return slot


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """Wt (m, P) over the permutations fixing vertices below n - MAX_TABLE_N.

    P = min(n, MAX_TABLE_N)!, all n! permutations when n <= MAX_TABLE_N.
    Wt[s, p] = 2^(m-1-t) where permutation p moves source slot s to target
    slot t, so bits @ Wt holds every such relabeled code of every row.
    """
    import numpy as np

    k = max(0, n - MAX_TABLE_N)
    images = [tuple(range(k)) + tail for tail in itertools.permutations(range(k, n))]
    m = num_pairs(n)
    slots = _pair_slots(np.array(images, dtype=np.int8).T, n)
    return (2.0 ** np.arange(m - 1, -1, -1))[slots]


@lru_cache(maxsize=None)
def _block_sources(n: int) -> np.ndarray:
    """Source slot maps, one row per block of the n! relabelings.

    Each row fixes the first n - MAX_TABLE_N images and gives the source
    slot feeding every target slot; composing it with the permutations of
    _weights(n) yields every one of the n! relabelings exactly once.  Up
    to MAX_TABLE_N there is one block, the identity.
    """
    import numpy as np

    k = max(0, n - MAX_TABLE_N)
    images = [head + tuple(v for v in range(n) if v not in head)
              for head in itertools.permutations(range(n), k)]
    return _pair_slots(np.array(images, dtype=np.int8).T, n).T


def min_codes(bits: np.ndarray, n: int) -> np.ndarray:
    """Canonical (minimal) code of each bit row under all vertex relabelings.

    bits has shape (B, C(n,2)); the returned int64 array has shape (B,).
    Every n runs the same loop over the blocks of _block_sources(n); rows
    are chunked so that no (rows, permutations) product exceeds roughly
    _BATCH_BYTES.
    """
    import numpy as np

    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    b, m = bits.shape
    if m != num_pairs(n):
        raise ValueError("bit row length does not match n")
    if m > MAX_EXACT_BITS:
        raise ValueError(f"codes of {m} bits are not exact in float64 (n={n})")
    wt = _weights(n)
    rows_per_pass = max(1, _BATCH_BYTES // (wt.shape[1] * 8))
    best = np.full(b, np.inf)
    for src in _block_sources(n):
        for start in range(0, b, rows_per_pass):
            chunk = bits[start:start + rows_per_pass, src].astype(np.float64)
            codes = (chunk @ wt).min(axis=1)
            np.minimum(best[start:start + rows_per_pass], codes,
                       out=best[start:start + rows_per_pass])
    return best.astype(np.int64)


def graph6_chunks(n: int, slots) -> Iterator[bytes]:
    """graph6 encoding of the labeled graph whose set column-order pairs are slots.

    n <= 62 takes one header byte, n up to GRAPH6_MAX_N the long form:
    '~' and n in three 6-bit bytes.  The header comes first, then the body
    in pieces of at most _CHUNK_BYTES, so memory stays at one piece however
    large the body (5.5 GB of it at GRAPH6_MAX_N).  Only the set pairs are
    visited.  ValueError, at the first piece, outside 0 <= n <= GRAPH6_MAX_N.
    """
    if not 0 <= n <= GRAPH6_MAX_N:
        raise ValueError(f"graph6 output supported for 0 <= n <= {GRAPH6_MAX_N} only")
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    yield bytes(head).translate(_TO_DIGIT)
    slots = sorted(slots)
    size = (num_pairs(n) + 5) // 6
    lo = 0
    for start in range(0, size, _CHUNK_BYTES):
        chunk = bytearray(min(_CHUNK_BYTES, size - start))
        hi = bisect_left(slots, 6 * (start + len(chunk)), lo)
        for s in slots[lo:hi]:
            chunk[s // 6 - start] |= 32 >> s % 6
        lo = hi
        yield chunk.translate(_TO_DIGIT)


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
                raise ValueError("graph6 byte out of range")
            yield core
            held = len(core) < len(piece)
        else:
            held = held or bool(piece)


def _check_digits(piece: bytes) -> None:
    if piece.translate(None, _GRAPH6_DIGITS):
        raise ValueError("graph6 byte out of range")


def _graph6_count(head: bytes) -> tuple[int, int]:
    """Vertex count at the start of a graph6 string, and the body's offset."""
    if head[0] < 126:
        return head[0] - 63, 1
    if len(head) < 4:
        raise ValueError("truncated graph6 vertex count")
    if head[1] == 126:
        raise ValueError(f"graph6 input supported for n <= {GRAPH6_MAX_N} only")
    n = ((head[1] - 63) << 12) | ((head[2] - 63) << 6) | (head[3] - 63)
    if n <= 62:
        raise ValueError("graph6 long form used for n <= 62")
    return n, 4


def graph6_slots(pieces: Iterable[bytes]) -> tuple[int, list[int]]:
    """Decode a graph6 string, given in pieces, to (n, set column-order pairs, ascending).

    The pieces joined and stripped of surrounding whitespace are the string,
    optionally after a >>graph6<< header.  They are read one at a time, so
    memory stays at one piece and the set pairs however large the body, and
    only the nonzero body bytes are unpacked.  Raises ValueError on bad
    length, out-of-range bytes, nonzero padding, or a vertex count outside
    0..GRAPH6_MAX_N in its shortest form; a byte out of range is named
    first, wherever it is.
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
        raise ValueError("empty graph6 string")
    _check_digits(head)
    try:
        n, start = _graph6_count(head)
    except ValueError:
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
        raise ValueError("graph6 body has wrong length")
    if slots and slots[-1] >= m:
        raise ValueError("nonzero graph6 padding bits")
    return n, slots
