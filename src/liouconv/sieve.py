"""Liouville and Moebius tables plus their summatory functions.

Every table is built in one pass over fixed segments of _SEGMENT
entries with an exact prime-power sieve: for every prime p <= sqrt(N)
each power p^k adds 1 to Omega(n) on its multiples and multiplies p
into their factored part (int32 below 2^31), and for mu each power
with k >= 2 marks its multiples as not squarefree.  The cofactor
n / (factored part) is then 1 or the one remaining prime above sqrt(N),
which counts in Omega(n) where the factored part is not n.
lambda(n) = (-1)^Omega(n), and mu(n) is lambda(n) on squarefree n and
0 elsewhere.  All arithmetic is integer; no floating point enters the
table values, and no step holds more than one segment of working arrays.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SieveTable",
    "build_sieve",
    "summatory",
    "dump_table",
    "load_table",
    "growth_diagnostic",
    "MEMORY_LIMIT",
]

KIND_LIOUVILLE = "liouville"
KIND_MOEBIUS = "moebius"

# values (int8) + prefix (int64) cost 9 bytes per entry of the finished
# table; on top of that the build and the load keep one working segment
# of _SEGMENT entries (at most ~40 bytes each) alive.  2e8 entries ~ 1.8 GB.
MEMORY_LIMIT = 200_000_000

_SEGMENT = 1 << 20

_MAGIC = {KIND_LIOUVILLE: b"LAMBDATBL", KIND_MOEBIUS: b"MOEBSTBL\x00"}
_ALLOWED = {KIND_LIOUVILLE: (-1, 1), KIND_MOEBIUS: (-1, 0, 1)}
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


def _sieve_segment(kind: str, lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Exact values of lambda or mu on [lo, hi)."""
    size = hi - lo
    wide = np.int32 if hi <= 1 << 31 else np.int64
    big_omega = np.zeros(size, dtype=np.int8)  # Omega(n) < 28 below 2e8
    factored = np.ones(size, dtype=wide)
    squarefree = np.ones(size, dtype=bool) if kind == KIND_MOEBIUS else None
    for p in primes.tolist():
        pk, k = p, 1
        while (start := -lo % pk) < size:  # some multiple of p^k in range
            big_omega[start::pk] += 1
            factored[start::pk] *= p
            if k >= 2 and squarefree is not None:
                squarefree[start::pk] = False
            pk, k = pk * p, k + 1
    big_omega += np.arange(lo, hi, dtype=wide) != factored
    out = 1 - 2 * (big_omega & 1)
    return out if squarefree is None else out * squarefree


def _segments(lo: int, limit: int):
    """Half-open bounds [a, b) of consecutive _SEGMENT runs over lo..limit."""
    for a in range(lo, limit + 1, _SEGMENT):
        yield a, min(a + _SEGMENT, limit + 1)


def _freeze(kind: str, limit: int, segment) -> SieveTable:
    """Read-only table with values[a:b] = segment(a, b) for each segment
    of 1..limit; the running sums are formed segment by segment."""
    values = np.zeros(limit + 1, dtype=np.int8)
    prefix = np.zeros(limit + 1, dtype=np.int64)
    for a, b in _segments(1, limit):
        values[a:b] = segment(a, b)
        np.cumsum(values[a:b], dtype=np.int64, out=prefix[a:b])
        prefix[a:b] += prefix[a - 1]
    values.setflags(write=False)
    prefix.setflags(write=False)
    return SieveTable(kind=kind, limit=limit, values=values, prefix=prefix)


def build_sieve(kind: str, limit: int) -> SieveTable:
    """Build the full table for 1..limit.

    Args:
        kind: "liouville" or "moebius".
        limit: table size N >= 1; at most MEMORY_LIMIT (9 bytes/entry
            held in the result plus one working segment).

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

    primes = _small_primes(int(math.isqrt(limit)))
    return _freeze(kind, limit,
                   lambda a, b: _sieve_segment(kind, a, b, primes))


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
    for a, b in _segments(100, table.limit):
        peak = np.abs(table.prefix[a:b])
        # every k >= a, so no ratio here can exceed peak.max() / a^0.6
        if peak.max() / a ** 0.6 * (1 + 1e-9) < worst:
            continue
        k = np.arange(a, b, dtype=np.float64)
        worst = max(worst, float((peak / k ** 0.6).max()))
    return worst


def dump_table(table: SieveTable, path) -> None:
    """Write a table as a 16-byte header plus N signed bytes."""
    header = (_MAGIC[table.kind]
              + bytes([_FORMAT_VERSION])
              + int(table.limit).to_bytes(6, "little"))
    assert len(header) == 16
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.values[1:])


def load_table(path) -> SieveTable:
    """Read a table written by dump_table; prefix sums are rebuilt.

    Rejects a bad header, a body shorter or longer than the header's
    limit, values outside {-1, 1} (lambda) or {-1, 0, 1} (mu), and a
    value at n = 1 other than 1.  The format has no checksum, so a
    flipped sign still loads.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated table file")
        magic, version = header[:9], header[9]
        kinds = {v: k for k, v in _MAGIC.items()}
        if magic not in kinds:
            raise ValueError(f"bad magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported table version {version}")
        kind, limit = kinds[magic], int.from_bytes(header[10:16], "little")
        body = os.fstat(fh.fileno()).st_size - 16
        if body != limit:
            raise ValueError(f"table body has {body} bytes, header says "
                             f"{limit}")
        table = _freeze(kind, limit, lambda a, b: np.frombuffer(
            fh.read(b - a), dtype=np.int8))
    for a, b in _segments(1, limit):
        if not np.isin(table.values[a:b], _ALLOWED[kind]).all():
            raise ValueError(
                f"{kind} table holds a value outside {_ALLOWED[kind]}")
    if limit < 1 or table.values[1] != 1:
        raise ValueError("table value at n = 1 must be 1")
    return table
