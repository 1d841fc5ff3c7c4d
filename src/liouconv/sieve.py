"""Liouville and Moebius tables plus their summatory functions.

Each table fills itself segment by segment: every n > 1 that is not
prime has a prime factor p <= sqrt(n), and lambda(n) = -lambda(n / p),
where n / p <= n / 2 lies below the segment [a, b) since b <= 2a.  A
segment starts at -1 (right for primes), and each prime p <= sqrt(b - 1)
negates values[n / p] into its multiples n in one int8 call.  For mu,
where mu(n) = -mu(n / p) unless p^2 | n, the multiples of each p^2 < b
are then zeroed.  No floating point enters the table values.

A table holds its int8 values, 1 byte per entry; the int64 prefix
sums are formed on first read, and cost 9 bytes per entry from then on.

dump_table writes a table for outside readers; nothing in the package
reads it back, as build_sieve rebuilds a table at least as fast.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SieveTable",
    "build_sieve",
    "summatory",
    "dump_table",
    "growth_diagnostic",
    "MEMORY_LIMIT",
]

KIND_LIOUVILLE = "liouville"
KIND_MOEBIUS = "moebius"

# values (int8) cost 1 byte per entry, filled in place with no working
# arrays, and 9 once the int64 prefix sums are read.  2e8 entries ~ 1.8 GB.
MEMORY_LIMIT = 200_000_000

_SEGMENT = 1 << 20

_MAGIC = {KIND_LIOUVILLE: b"LAMBDATBL", KIND_MOEBIUS: b"MOEBSTBL\x00"}
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SieveTable:
    """Immutable table of lambda(n) or mu(n) for 1 <= n <= limit.

    Attributes:
        kind: "liouville" or "moebius".
        limit: largest index N.
        values: int8 array of length N+1; values[0] is unused (0).
    """

    kind: str
    limit: int
    values: np.ndarray

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        """Read-only int64 running sums, prefix[k] = sum_{n<=k} values[n],
        formed on first read (8 more bytes per entry)."""
        prefix = self.values.astype(np.int64)
        np.cumsum(prefix, out=prefix)
        prefix.setflags(write=False)
        return prefix


def _small_primes(limit: int) -> np.ndarray:
    """Primes up to limit inclusive (plain Eratosthenes on a byte array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _sieve_fill(kind: str, primes: list, values: np.ndarray,
                a: int, b: int) -> None:
    """Exact lambda or mu on [a, b) from values[1:a]; needs b <= 2a and
    every prime up to sqrt(b - 1) in primes."""
    values[a:b] = -1
    values[1] = 1    # the first segment is [1, 2); every later one reads it
    small = [p for p in primes if p * p < b]
    for p in small:
        start = -(-a // p) * p
        np.negative(values[start // p:(b - 1) // p + 1],
                    out=values[start:b:p])
    if kind == KIND_MOEBIUS:
        # the write above is wrong only where p^2 | n, and mu(n) = 0 there
        for q in (p * p for p in small):
            values[-(-a // q) * q:b:q] = 0


def build_sieve(kind: str, limit: int) -> SieveTable:
    """Build the full, read-only table for 1..limit.

    Segments [a, b) double from [1, 2) up to _SEGMENT entries, so
    b <= 2a, and _sieve_fill fills each from the values below it.

    Args:
        kind: "liouville" or "moebius".
        limit: table size N >= 1; at most MEMORY_LIMIT (9 bytes/entry
            once the result's prefix sums are read).

    Raises:
        ValueError: unknown kind, N = 0, or N over the memory budget.
    """
    if kind not in (KIND_LIOUVILLE, KIND_MOEBIUS):
        raise ValueError(f"unknown sieve kind {kind!r}")
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    if limit > MEMORY_LIMIT:
        raise ValueError(
            f"limit {limit} exceeds the memory budget of {MEMORY_LIMIT} "
            f"entries (~9 bytes each once its prefix sums are read); raise "
            f"sieve.MEMORY_LIMIT explicitly if you have the RAM")

    primes = _small_primes(math.isqrt(limit)).tolist()
    values = np.zeros(limit + 1, dtype=np.int8)
    a = 1
    while a <= limit:
        b = min(2 * a, a + _SEGMENT, limit + 1)
        _sieve_fill(kind, primes, values, a, b)
        a = b
    values.setflags(write=False)
    return SieveTable(kind=kind, limit=limit, values=values)


def summatory(table: SieveTable, x) -> int:
    """L(x) or M(x): sum of table values over n <= floor(x).

    Returns 0 for 0 <= x < 1.  Rejects x < 0 and x > limit.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError("summatory: x must be a finite nonnegative real")
    if x > table.limit:
        raise ValueError(
            f"summatory: x = {x} exceeds the table limit {table.limit}")
    k = int(math.floor(x))
    return int(table.prefix[k])


def growth_diagnostic(table: SieveTable) -> float:
    """Largest |L(k)| / k^0.6 over 100 <= k <= N (0.0 below N = 100).

    Desk-scale sanity check that the summatory function is far below the
    trivial bound; values above 3 indicate a broken table.  L(k) is
    streamed through one 2^16-entry int64 buffer, block by block from
    k = 100, so table.prefix is never formed.
    """
    worst, block = 0.0, 1 << 16
    buf = np.empty(block, dtype=np.int64)
    carry = int(table.values[:100].sum(dtype=np.int64))     # L(99)
    for a in range(100, table.limit + 1, block):
        peak = buf[:min(block, table.limit + 1 - a)]
        np.cumsum(table.values[a:a + peak.size], dtype=np.int64, out=peak)
        peak += carry
        carry = int(peak[-1])
        np.abs(peak, out=peak)
        # every k >= a, so no ratio here can exceed peak.max() / a^0.6
        if peak.max() / a ** 0.6 * (1 + 1e-9) < worst:
            continue
        k = np.arange(a, a + peak.size, dtype=np.float64)
        worst = max(worst, float((peak / k ** 0.6).max()))
    return worst


def dump_table(table: SieveTable, path) -> None:
    """Write a table for outside readers: a 16-byte header (the kind's
    9-byte magic, format version 1, the limit N as 6 little-endian
    bytes), then values[1:] as N signed bytes.  Nothing in the package
    reads the file back."""
    header = (_MAGIC[table.kind]
              + bytes([_FORMAT_VERSION])
              + int(table.limit).to_bytes(6, "little"))
    assert len(header) == 16
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.values[1:])
