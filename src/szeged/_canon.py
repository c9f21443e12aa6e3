"""Bit-level canonical labeling machinery.

A labeled graph on n vertices is a 0/1 vector over the C(n,2) vertex pairs in
column order (0,1), (0,2), (1,2), (0,3), ... — the same order graph6 uses.
Read as an m-bit integer with the first pair as the top bit, it is the graph's
code; the canonical code is the smallest code over all vertex relabelings.
Whole batches of rows are swept through all n! relabelings at once: each
relabeled code is one exact float64 matrix product of the bit rows with a
table of powers of two.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

# Weight tables cover at most MAX_TABLE_N! permutations; larger n sweeps
# n!/MAX_TABLE_N! blocks of them, one per choice of the first
# n - MAX_TABLE_N images.
MAX_TABLE_N = 8
# Codes are sums of distinct powers of two below 2^m, exact in float64 only
# while m fits its 53-bit significand.
MAX_EXACT_BITS = 53


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Position of pair {i, j} (i < j) in column order."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), i < j, in column order."""
    return tuple((i, j) for j in range(n) for i in range(j))


def _source_table(perms: np.ndarray, n: int) -> np.ndarray:
    """For each permutation row, the source bit index feeding each target bit."""
    pairs = np.array(pair_list(n), dtype=np.int64).reshape(-1, 2)
    idx = np.zeros((n, n), dtype=np.int64)
    idx[pairs[:, 0], pairs[:, 1]] = idx[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    return idx[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """Wt (m, P) over the permutations fixing vertices below n - MAX_TABLE_N.

    That is all n! permutations when n <= MAX_TABLE_N.  Wt[s, p] = 2^(m-1-t)
    where permutation p moves source slot s to target slot t, so bits @ Wt
    holds every such relabeled code of every row.
    """
    k = max(0, n - MAX_TABLE_N)
    tails = list(itertools.permutations(range(k, n)))
    perms = np.array([tuple(range(k)) + t for t in tails],
                     dtype=np.int64).reshape(len(tails), n)
    src = _source_table(perms, n)
    m = num_pairs(n)
    wt = np.zeros((m, len(perms)))
    wt[src, np.arange(len(perms))[:, None]] = 2.0 ** np.arange(m - 1, -1, -1)
    return wt


def _block_sources(n: int):
    """One relabeling per block: the first n - MAX_TABLE_N images fixed.

    Composing each with the permutations of _weights(n) yields every one of
    the n! relabelings exactly once.
    """
    k = max(0, n - MAX_TABLE_N)
    for head in itertools.permutations(range(n), k):
        rest = tuple(v for v in range(n) if v not in head)
        yield _source_table(np.array([head + rest], dtype=np.int64), n)[0]


def unpack_code(code: int, n: int) -> np.ndarray:
    """Column-order bit row of an m-bit code."""
    m = num_pairs(n)
    return ((int(code) >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)


def min_codes(bits: np.ndarray, n: int, batch_limit: int = 2**24) -> np.ndarray:
    """Canonical (minimal) code of each bit row under all vertex relabelings.

    bits has shape (B, C(n,2)); the returned int64 array has shape (B,).
    Rows are chunked so that no (rows, permutations) product exceeds roughly
    batch_limit bytes.
    """
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    b, m = bits.shape
    if m != num_pairs(n):
        raise ValueError("bit row length does not match n")
    if m > MAX_EXACT_BITS:
        raise ValueError(f"codes of {m} bits are not exact in float64 (n={n})")
    wt = _weights(n)
    rows_per_pass = max(1, batch_limit // (wt.shape[1] * 8))
    best = np.full(b, np.inf)
    for src in _block_sources(n):
        for start in range(0, b, rows_per_pass):
            chunk = bits[start:start + rows_per_pass, src].astype(np.float64)
            codes = (chunk @ wt).min(axis=1)
            np.minimum(best[start:start + rows_per_pass], codes,
                       out=best[start:start + rows_per_pass])
    return best.astype(np.int64)


def graph6_bytes_from_bits(n: int, bits: np.ndarray) -> bytes:
    """graph6 encoding of a labeled graph given as a column-order bit row."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 output supported for 0 <= n <= 62 only")
    out = [n + 63]
    row = np.asarray(bits, dtype=np.uint8)
    for start in range(0, len(row), 6):
        chunk = row[start:start + 6]
        value = 0
        for k in range(6):
            value = (value << 1) | (int(chunk[k]) if k < len(chunk) else 0)
        out.append(value + 63)
    return bytes(out)


def bits_from_graph6_bytes(data: bytes) -> tuple[int, np.ndarray]:
    """Decode a graph6 byte string to (n, column-order bit row).

    Raises ValueError on bad length, out-of-range bytes, or nonzero padding.
    """
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 string")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError("unsupported graph6 vertex count byte")
    m = num_pairs(n)
    body = data[1:]
    if len(body) != (m + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    bits = np.zeros(m, dtype=np.uint8)
    pos = 0
    for byte in body:
        value = byte - 63
        if not 0 <= value < 64:
            raise ValueError("graph6 byte out of range")
        for k in range(5, -1, -1):
            bit = (value >> k) & 1
            if pos < m:
                bits[pos] = bit
            elif bit:
                raise ValueError("nonzero graph6 padding bits")
            pos += 1
    return n, bits
