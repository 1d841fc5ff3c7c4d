"""Liouville and Moebius tables plus their summatory functions.

Each table fills itself segment by segment: every n > 1 that is not
prime has a prime factor p <= sqrt(n), and lambda(n) = -lambda(n / p),
where n / p <= n / 2 lies below the segment [a, b) since b <= 2a.  A
segment starts at -1 (right for primes), and each prime p <= sqrt(b - 1)
negates values[n / p] into its multiples n in one int8 call.  For mu,
where mu(n) = -mu(n / p) unless p^2 | n, the multiples of each p^2 < b
are then zeroed.  No floating point enters the table values.

dump_table writes a table for outside readers; nothing in the package
reads it back, as build_sieve rebuilds a table at least as fast.
"""

from __future__ import annotations

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

# values (int8) + prefix (int64) cost 9 bytes per entry, and the build
# fills both in place, with no working arrays.  2e8 entries ~ 1.8 GB.
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
        prefix: int64 running sums, prefix[k] = sum_{n<=k} values[n].
    """

    kind: str
    limit: int
    values: np.ndarray
    prefix: np.ndarray


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
    b <= 2a, and _sieve_fill fills each from the values below it; the
    running sums are formed segment by segment.

    Args:
        kind: "liouville" or "moebius".
        limit: table size N >= 1; at most MEMORY_LIMIT (9 bytes/entry
            held in the result).

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
            f"entries (~9 bytes each in the finished table); raise "
            f"sieve.MEMORY_LIMIT explicitly if you have the RAM")

    primes = _small_primes(math.isqrt(limit)).tolist()
    values = np.zeros(limit + 1, dtype=np.int8)
    prefix = np.zeros(limit + 1, dtype=np.int64)
    a = 1
    while a <= limit:
        b = min(2 * a, a + _SEGMENT, limit + 1)
        _sieve_fill(kind, primes, values, a, b)
        np.cumsum(values[a:b], dtype=np.int64, out=prefix[a:b])
        prefix[a:b] += prefix[a - 1]
        a = b
    values.setflags(write=False)
    prefix.setflags(write=False)
    return SieveTable(kind=kind, limit=limit, values=values, prefix=prefix)


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
    """Largest |prefix[k]| / k^0.6 over 100 <= k <= N (0.0 below N = 100).

    Desk-scale sanity check that the summatory function is far below the
    trivial bound; values above 3 indicate a broken table.
    """
    worst = 0.0
    for a in range(100, table.limit + 1, 1 << 16):
        peak = np.abs(table.prefix[a:a + (1 << 16)])
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
