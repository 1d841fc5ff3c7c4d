"""Liouville and Moebius tables plus their summatory functions.

Tables are built segment by segment with an exact prime-power sieve:
for every prime p <= sqrt(N) the multiples of each power p^k get their
factor counts bumped and the factored part multiplied up, so the
cofactor n / (factored part) exposes the at-most-one remaining prime
above sqrt(N).  All arithmetic is integer; no floating point enters the
table values.  A monolithic build is just a single segment, which is
what makes the segmented-equals-monolithic guarantee trivial to keep.
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
    "load_table",
    "growth_diagnostic",
    "MEMORY_LIMIT",
]

KIND_LIOUVILLE = "liouville"
KIND_MOEBIUS = "moebius"

# values (int8) + prefix (int64) cost 9 bytes per entry; the build also
# keeps ~17 bytes per entry of one segment alive.  2e8 entries ~ 1.8 GB.
MEMORY_LIMIT = 200_000_000

_SEGMENT_THRESHOLD = 10_000_000
_DEFAULT_SEGMENT = 1 << 22

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


def _sieve_segment(kind: str, lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Exact values of lambda or mu on [lo, hi], both ends inclusive."""
    size = hi - lo + 1
    n_vals = np.arange(lo, hi + 1, dtype=np.int64)
    factored = np.ones(size, dtype=np.int64)

    if kind == KIND_LIOUVILLE:
        big_omega = np.zeros(size, dtype=np.int64)
        for p in primes:
            pk = int(p)
            while pk <= hi:
                start = ((lo + pk - 1) // pk) * pk - lo
                big_omega[start::pk] += 1
                factored[start::pk] *= int(p)
                if pk > hi // int(p):
                    break
                pk *= int(p)
        big_omega += (n_vals // factored) > 1
        out = np.where(big_omega & 1, -1, 1).astype(np.int8)
        if lo <= 1 <= hi:
            out[1 - lo] = 1
        return out

    omega = np.zeros(size, dtype=np.int64)
    squarish = np.zeros(size, dtype=bool)
    for p in primes:
        p = int(p)
        start = ((lo + p - 1) // p) * p - lo
        omega[start::p] += 1
        factored[start::p] *= p
        p2 = p * p
        if p2 <= hi:
            start = ((lo + p2 - 1) // p2) * p2 - lo
            squarish[start::p2] = True
    omega += (n_vals // factored) > 1
    out = np.where(omega & 1, -1, 1).astype(np.int8)
    out[squarish] = 0
    if lo <= 1 <= hi:
        out[1 - lo] = 1
    return out


def build_sieve(kind: str, limit: int, segment_size: int | None = None) -> SieveTable:
    """Build the full table for 1..limit.

    Args:
        kind: "liouville" or "moebius".
        limit: table size N >= 1; at most MEMORY_LIMIT (9 bytes/entry
            held in the result plus one working segment).
        segment_size: force a segment length; None picks monolithic
            construction for small N and ~4M-entry segments above that.

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

    if segment_size is None:
        segment_size = limit if limit <= _SEGMENT_THRESHOLD else _DEFAULT_SEGMENT
    segment_size = max(1, int(segment_size))

    primes = _small_primes(int(math.isqrt(limit)))
    values = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, segment_size):
        hi = min(lo + segment_size - 1, limit)
        values[lo:hi + 1] = _sieve_segment(kind, lo, hi, primes)
    prefix = np.cumsum(values, dtype=np.int64)
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
    """Largest |prefix[k]| / k^0.6 over 100 <= k <= N.

    Desk-scale sanity check that the summatory function is far below the
    trivial bound; values above 3 indicate a broken table.
    """
    if table.limit < 100:
        return 0.0
    k = np.arange(100, table.limit + 1, dtype=np.float64)
    ratio = np.abs(table.prefix[100:]) / k ** 0.6
    worst = float(ratio.max())
    if worst > 3.0:
        raise AssertionError(
            f"summatory growth diagnostic failed: max ratio {worst:.3f}")
    return worst


def dump_table(table: SieveTable, path) -> None:
    """Write a table as a 16-byte header plus N signed bytes."""
    header = (_MAGIC[table.kind]
              + bytes([_FORMAT_VERSION])
              + int(table.limit).to_bytes(6, "little"))
    assert len(header) == 16
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.values[1:].tobytes())


def load_table(path) -> SieveTable:
    """Read a table written by dump_table; prefix sums are rebuilt."""
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
        limit = int.from_bytes(header[10:16], "little")
        body = fh.read(limit)
        if len(body) != limit:
            raise ValueError("truncated table body")
    values = np.zeros(limit + 1, dtype=np.int8)
    values[1:] = np.frombuffer(body, dtype=np.int8)
    prefix = np.cumsum(values, dtype=np.int64)
    values.setflags(write=False)
    prefix.setflags(write=False)
    return SieveTable(kind=kinds[magic], limit=limit, values=values,
                      prefix=prefix)
