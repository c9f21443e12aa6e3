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
from typing import TYPE_CHECKING, Iterator

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


def graph6_slots(data: bytes) -> tuple[int, list[int]]:
    """Decode a graph6 byte string to (n, set column-order pairs, ascending).

    Only the nonzero body bytes are unpacked.  Raises ValueError on bad
    length, out-of-range bytes, nonzero padding, or a vertex count outside
    0..GRAPH6_MAX_N in its shortest form.
    """
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 string")
    if data.translate(None, _GRAPH6_DIGITS):
        raise ValueError("graph6 byte out of range")
    if data[0] < 126:
        n, body = data[0] - 63, data[1:]
    elif len(data) < 4:
        raise ValueError("truncated graph6 vertex count")
    elif data[1] == 126:
        raise ValueError(f"graph6 input supported for n <= {GRAPH6_MAX_N} only")
    else:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise ValueError("graph6 long form used for n <= 62")
        body = data[4:]
    m = num_pairs(n)
    if len(body) != (m + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    slots = []
    for digit in re.finditer(rb"[^?]", body):  # '?' is the zero digit
        value, base = body[digit.start()] - 63, 6 * digit.start()
        slots.extend(base + b for b in range(6) if value >> (5 - b) & 1)
    if slots and slots[-1] >= m:
        raise ValueError("nonzero graph6 padding bits")
    return n, slots
