"""d-fold additive convolutions of lambda/mu and their weighted averages.

S_d(n) = sum over m_1 + ... + m_d = n (each m_i >= 1) of v(m_1)...v(m_d),
where v is the Liouville or Moebius function.  The exact integers come
from d-1 certified FFT folds (``convolve_fft``); ``convolve_naive`` is
the time-domain oracle.  ``cesaro_sum`` evaluates the Cesaro sum
(1/(d-1)!) sum S_d(n) (x-n)^{d-1}.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .sieve import SieveTable

__all__ = [
    "ConvolutionSeries",
    "convolve_naive",
    "convolve_fft",
    "cesaro_sum",
    "export_csv",
]

# The certificate's moduli: the three largest primes below 2^31.
_PRIMES = (2147483647, 2147483629, 2147483587)
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ConvolutionSeries:
    """Exact integer values S_d(n) for 0 <= n <= limit.

    Attributes:
        kind: "liouville" or "moebius".
        d: number of summands, >= 2.
        limit: largest n covered.
        values: int64 array of length limit+1; entries below n = d are 0.
        method: how the values were produced ("naive" or
            "fft-certified"); informational only.
        limbs: FFT limb products per fold (empty for "naive").
        residue: largest rounding residue of any limb product.
    """

    kind: str
    d: int
    limit: int
    values: np.ndarray
    method: str = field(default="naive", compare=False)
    limbs: tuple = field(default=(), compare=False)
    residue: float = field(default=0.0, compare=False)


def _check_args(table: SieveTable, d: int, limit: int) -> None:
    if d < 2:
        raise ValueError("d must be at least 2")
    if limit > table.limit:
        raise ValueError(
            f"requested limit {limit} exceeds sieve table limit {table.limit}")
    if limit < 1:
        raise ValueError("limit must be positive")


def convolve_naive(table: SieveTable, d: int, limit: int) -> ConvolutionSeries:
    """Time-domain exact convolution; the oracle route.

    Work is O(d * limit^2), intended for limit up to ~1e4 (or anywhere
    exactness matters more than speed).
    """
    _check_args(table, d, limit)
    v = table.values[:limit + 1].astype(np.int64)
    acc = v
    for _ in range(d - 1):
        acc = np.convolve(acc, v)[:limit + 1]
    out = acc.copy()
    out[:min(d, limit + 1)] = 0
    out.setflags(write=False)
    return ConvolutionSeries(kind=table.kind, d=d, limit=limit, values=out,
                             method="naive")


def _eval_mod(c, r, p, reduce):
    """sum_i c[i] r^i mod p, as two int64 dot products per block against
    the 16-bit halves of the powers of r; exact while |c| < 2^31, so
    ``reduce`` takes c mod p first where c may be larger."""
    pw = np.ones(_BLOCK, dtype=np.int64)
    for k in (1 << j for j in range(_BLOCK.bit_length() - 1)):
        pw[k:2 * k] = pw[:k] * pow(r, k, p) % p
    lo, hi = pw & 0xFFFF, pw >> 16
    total = 0
    for s in range(0, c.size, _BLOCK):
        blk = c[s:s + _BLOCK] % p if reduce else c[s:s + _BLOCK]
        val = int(blk @ lo[:blk.size]) + (int(blk @ hi[:blk.size]) << 16)
        total = (total + val * pow(r, s, p)) % p
    return total


def _fold(a, v, spec_v, m, b, consume):
    """(a * v as int64, limb count, largest residue), or ValueError.

    Each balanced b-bit limb product of a must round with a residue below
    0.25, and the sum must match a(r) v(r) modulo three primes at points
    drawn from the operands' SHA-256 (a Schwartz-Zippel identity test).
    ``spec_v`` is rfft(v, m), which ``consume`` lets this call overwrite.
    """
    amax = int(np.abs(a).max())
    bound = amax * int(np.count_nonzero(v))
    if bound >= 1 << 62:
        raise ValueError("S_d could overflow int64; reduce d or the limit")
    half, limbs = 1 << (b - 1), [a]       # balanced base-2^b digits of a
    while int(np.abs(limbs[-1]).max()) >= half:
        low = ((limbs[-1] + half) & (2 * half - 1)) - half
        limbs[-1:] = [low, (limbs[-1] - low) >> b]
    n = a.size + v.size - 1
    prod, residue = np.zeros(n, dtype=np.int64), 0.0
    for j, limb in enumerate(limbs):
        spec = np.fft.rfft(limb, m) if limb is not v else (
            spec_v if consume else spec_v.copy())     # first fold's limb
        spec *= spec_v
        raw = np.fft.irfft(spec, m)
        del spec
        for s in range(0, n, _BLOCK):
            x = raw[s:min(s + _BLOCK, n)]
            r = np.rint(x)
            residue = max(residue, float(np.abs(x - r).max()))
            prod[s:s + x.size] += r.astype(np.int64) << (b * j)
    if residue >= 0.25:
        raise ValueError(f"FFT rounding residue {residue:.3g} is not < 0.25")
    seed = hashlib.sha256(a)
    seed.update(v)
    for p, word in zip(_PRIMES, np.frombuffer(seed.digest(), "<u8")):
        r = int(word) % (p - 2) + 2
        lhs = _eval_mod(a, r, p, amax >= 1 << 31) * _eval_mod(v, r, p, False)
        if lhs % p != _eval_mod(prod, r, p, bound >= 1 << 31):
            raise ValueError("FFT product failed its modular certificate")
    return prod, len(limbs), residue


def convolve_fft(table: SieveTable, d: int, limit: int) -> ConvolutionSeries:
    """Certified FFT route for S_d: d-1 exact folds acc <- (acc * v).

    Indices start at n = 1 (v(0) = 0), so one real FFT length m >=
    2*limit - 1 holds every full product, and rfft(v) is taken once.
    The limb width b is the largest with 8 eps log2(m) 2^b limit < 0.25,
    a norm bound on the FFT's rounding error (after Percival 2003).
    """
    _check_args(table, d, limit)
    m = 2 ** max(1, (2 * limit - 2).bit_length())
    eps = float(np.finfo(np.float64).eps)
    b = math.ceil(math.log2(0.25 / (8 * eps * math.log2(m) * limit))) - 1
    v = table.values[1:limit + 1].astype(np.int64)
    spec_v = np.fft.rfft(v, m)
    acc, limbs, residue = v, [], 0.0
    for fold in range(1, d):
        prod, k, res = _fold(acc, v, spec_v, m, b, fold == d - 1)
        acc = np.concatenate(([0], prod[:limit - 1]))
        limbs.append(k)
        residue = max(residue, res)
    out = np.concatenate(([0], acc))
    out.setflags(write=False)
    return ConvolutionSeries(kind=table.kind, d=d, limit=limit, values=out,
                             method="fft-certified", limbs=tuple(limbs),
                             residue=residue)


def cesaro_sum(series: ConvolutionSeries, x) -> float:
    """(1/(d-1)!) sum_{n<=x} S_d(n) (x-n)^{d-1}.

    For d=2 this is the first Cesaro average C(x) of the convolution.
    Accumulated with math.fsum: the identity tests compare this against
    an exact integral at 1e-9 scale, so ordinary dot-product rounding is
    not acceptable.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError("cesaro_sum: x must be finite and nonnegative")
    if x > series.limit:
        raise ValueError(
            f"cesaro_sum: x = {x} exceeds the series limit {series.limit}")
    top = int(math.floor(x))
    if top < series.d:
        return 0.0
    n = np.arange(series.d, top + 1, dtype=np.float64)
    terms = series.values[series.d:top + 1] * (x - n) ** (series.d - 1)
    return math.fsum(terms) / math.factorial(series.d - 1)


def export_csv(series: ConvolutionSeries, path) -> None:
    """Write `n,value` rows for d <= n <= limit, one string per block."""
    with open(path, "w") as fh:
        fh.write("n,value\n")
        for s in range(series.d, series.limit + 1, _BLOCK):
            rows = series.values[s:s + _BLOCK]
            pairs = np.column_stack((np.arange(s, s + rows.size), rows))
            fh.write(("%d,%d\n" * rows.size) % tuple(pairs.ravel().tolist()))
