"""d-fold additive convolutions of lambda/mu and their weighted averages.

S_d(n) = sum over m_1 + ... + m_d = n (each m_i >= 1) of v(m_1)...v(m_d),
where v is the Liouville or Moebius function.  The exact integers come
from d-1 certified FFT folds (``convolve_fft``), each a four-step
transform pair whose product is rounded, certified and stored in one
pass per block; ``convolve_naive`` is the time-domain oracle.
``cesaro_sum`` evaluates the Cesaro sum
(1/(d-1)!) sum S_d(n) (x-n)^{d-1}, rounded once from its exact value;
``cesaro_prefix`` gives the d=2 one from the sieve's prefix sums alone,
with no fold.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .sieve import SieveTable

__all__ = [
    "ConvolutionSeries",
    "convolve_naive",
    "convolve_fft",
    "cesaro_sum",
    "cesaro_prefix",
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
        fft_length: real FFT length of the folds (0 for "naive").
    """

    kind: str
    d: int
    limit: int
    values: np.ndarray
    method: str = field(default="naive", compare=False)
    limbs: tuple = field(default=(), compare=False)
    residue: float = field(default=0.0, compare=False)
    fft_length: int = field(default=0, compare=False)


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


def _fast_len(n: int) -> int:
    """Least 5-smooth integer >= n >= 1: least 2^k 3^i 5^j >= n."""
    odd = (3 ** i * 5 ** j for i in range(n.bit_length() + 1)
           for j in range(n.bit_length() + 1))
    return min(c << (-(-n // c) - 1).bit_length() for c in odd if c < 2 * n)


def _split(n: int) -> int:
    """Largest divisor of n >= 1 that is at most sqrt(n)."""
    return next(f for f in range(math.isqrt(n), 0, -1) if n % f == 0)


def _twiddled(y, m, sign):
    """y (n1 // 2 + 1, n2) times W^(k j), W = exp(sign 2 pi i / m), in
    place on a contiguous copy if y is not one.  The factor is the
    broadcast product W^(k j_lo) W^(k c j_hi) of j = j_lo + c j_hi,
    c = _split(n2), each table entry from its exact integer exponent,
    which stays below m / 2 since k <= n1 / 2 and j < n2."""
    rows, n2 = y.shape
    c = _split(n2)
    k = np.arange(rows, dtype=np.int64)[:, None, None]
    t = np.ascontiguousarray(y).reshape(rows, n2 // c, c)
    for e in (k * np.arange(c), k * (c * np.arange(n2 // c))[:, None]):
        t *= np.exp(e * (sign * 2j * np.pi / m))
    return t.reshape(rows, n2)


def _rfft(x, m):
    """Real DFT X of x zero-padded to length m, by the four-step split
    m = n1 n2, n1 = _split(m) (Bailey 1990): rfft down the columns of
    the n1 x n2 view, twiddles, fft along its rows.  Returns the
    (n1 // 2 + 1, n2) array whose [k1, k2] entry is X[k1 + n1 k2]; the
    other half of X is its conjugate mirror."""
    n1 = _split(m)
    buf = np.zeros(m)
    buf[:x.size] = x
    y = np.fft.rfft(buf.reshape(n1, m // n1), axis=0)
    del buf
    return np.fft.fft(_twiddled(y, m, -1), axis=1)


def _irfft(spec, m):
    """Inverse of _rfft, by its steps undone in reverse order: the
    length-m real sequence, in natural order."""
    y = _twiddled(np.fft.ifft(spec, axis=1), m, 1)
    return np.fft.irfft(y, _split(m), axis=0).reshape(m)


def _points(a, v):
    """(p, r, halves) per certificate prime p: r drawn from the operands'
    SHA-256, halves the 16-bit halves of r^k mod p stacked (n, 2), for
    0 <= k < n, the product's length a.size + v.size - 1 up to _BLOCK."""
    seed = hashlib.sha256(a)
    if a is not v:
        seed.update(v)
    size = min(_BLOCK, a.size + v.size - 1)
    points = []
    for p, word in zip(_PRIMES, np.frombuffer(seed.digest(), "<u8")):
        r = int(word) % (p - 2) + 2
        pw = np.ones(size, dtype=np.int64)
        for k in (1 << j for j in range((size - 1).bit_length())):
            pw[k:2 * k] = pw[:min(k, size - k)] * pow(r, k, p) % p
        points.append((p, r, np.stack((pw & 0xFFFF, pw >> 16), axis=1)))
    return points


def _eval_mod(c, point, reduce, s=0):
    """sum_i c[i] r^(s+i) mod p, as one int64 matmul per block against
    the halves of the powers of r; exact while |c| < 2^31, so ``reduce``
    takes c mod p first where c may be larger."""
    p, r, halves = point
    total = 0
    for t in range(0, c.size, _BLOCK):
        blk = c[t:t + _BLOCK] % p if reduce else c[t:t + _BLOCK]
        lo, hi = (int(x) for x in blk @ halves[:blk.size])
        total += (lo + (hi << 16)) * pow(r, s + t, p)
    return total % p


def _fold(a, v, spec_v, m, b, consume, lead):
    """(a * v as int64 behind ``lead`` zeros, cut to lead + a.size - 1
    entries; limb count; largest residue), or ValueError.

    Each balanced b-bit limb product P of a is rounded, certified and
    stored block by block: its residue must stay below 0.25, and P(r)
    must match limb(r) v(r) modulo three primes at points drawn from the
    operands' SHA-256 (a Schwartz-Zippel identity test, which certifies
    the sum by linearity).  ``consume`` lets it overwrite spec_v.
    """
    amax, nnz = int(np.abs(a).max()), int(np.count_nonzero(v))
    if amax * nnz >= 1 << 62:
        raise ValueError("S_d could overflow int64; reduce d or the limit")
    half, limbs = 1 << (b - 1), [a]       # balanced base-2^b digits of a
    while int(np.abs(limbs[-1]).max()) >= half:
        low = ((limbs[-1] + half) & (2 * half - 1)) - half
        limbs[-1:] = [low, (limbs[-1] - low) >> b]
    top = min(amax, half)                 # bounds every |limb|
    points = _points(a, v)
    v_at = [_eval_mod(v, pt, False) for pt in points]
    n, keep = a.size + v.size - 1, a.size - 1
    prod, residue = np.zeros(lead + keep, dtype=np.int64), 0.0
    for j, limb in enumerate(limbs):
        spec = _rfft(limb, m) if limb is not v else (
            spec_v if consume else spec_v.copy())     # first fold's limb
        spec *= spec_v
        raw = _irfft(spec, m)
        del spec
        gap = [-(w if limb is v else _eval_mod(limb, pt, top >= 1 << 31)) * w
               for pt, w in zip(points, v_at)]    # P(r) - limb(r) v(r)
        for s in range(0, n, _BLOCK):
            x = raw[s:min(s + _BLOCK, n)]
            r = np.rint(x)
            residue = max(residue, float(np.abs(x - r).max()))
            q = r.astype(np.int64)
            gap = [g + _eval_mod(q, pt, top * nnz >= 1 << 31, s)
                   for g, pt in zip(gap, points)]
            if s < keep:
                prod[lead + s:lead + s + x.size] += q[:keep - s] << (b * j)
        if residue >= 0.25:
            raise ValueError(
                f"FFT rounding residue {residue:.3g} is not < 0.25")
        if any(g % pt[0] for g, pt in zip(gap, points)):
            raise ValueError("FFT product failed its modular certificate")
    return prod, len(limbs), residue


def convolve_fft(table: SieveTable, d: int, limit: int) -> ConvolutionSeries:
    """Certified FFT route for S_d: d-1 exact folds acc <- (acc * v).

    Indices start at n = 1 (v(0) = 0), so one real FFT length m >=
    2*limit - 1, the least 5-smooth one, holds every full product, and
    the transform of v is taken once.  Each transform is the four-step
    factorization m = n1 n2 of _rfft, n1 the largest divisor of m at
    most sqrt(m): real transforms of length n1 down the columns of the
    n1 x n2 view, the twiddles W_m^(k1 j2), then transforms of length n2
    along the rows.  Spectra stay in that transposed order, since the
    folds only multiply them pointwise.  This is a standard Cooley-Tukey
    split whose twiddles are within about 2 ulp of exact, so the norm
    bound on the rounding error (after Percival 2003) still holds: the
    limb width b is the largest with 8 eps log2(m) 2^b limit < 0.25.
    """
    _check_args(table, d, limit)
    m = _fast_len(max(2, 2 * limit - 1))
    eps = float(np.finfo(np.float64).eps)
    b = math.ceil(math.log2(0.25 / (8 * eps * math.log2(m) * limit))) - 1
    v = table.values[1:limit + 1].astype(np.int64)
    spec_v = _rfft(v, m)
    acc, limbs, residue = v, [], 0.0
    for fold in range(1, d):
        last = fold == d - 1
        acc, k, res = _fold(acc, v, spec_v, m, b, last, 2 if last else 1)
        limbs.append(k)
        residue = max(residue, res)
    acc.setflags(write=False)
    return ConvolutionSeries(kind=table.kind, d=d, limit=limit, values=acc,
                             method="fft-certified", limbs=tuple(limbs),
                             residue=residue, fft_length=m)


def cesaro_sum(series: ConvolutionSeries, x) -> float:
    """(1/(d-1)!) sum_{n<=x} S_d(n) (x-n)^{d-1}, the exact value rounded
    once.

    For d=2 this is the first Cesaro average C(x) of the convolution.
    Expanding (x-n)^{d-1} binomially gives
    sum_k C(d-1, k) x^{d-1-k} M_k / (d-1)!, with the integer moments
    M_k = sum_{n<=x} S_d(n) (-n)^k for k < d.  Every partial sum of every
    moment is at most X^{d-1} sum |S_d(n)| in size, X = floor(x); while
    that bound stays below 2^62 the moments are int64 sums, and past it
    Python integer sums.  They are combined with x as an exact rational.
    """
    x = _check_x(x, series.limit, "cesaro_sum")
    top, d = int(math.floor(x)), series.d
    if top < d:
        return 0.0
    s = series.values[d:top + 1]
    minus_n = -np.arange(d, top + 1, dtype=np.int64)
    mass = float(np.abs(s).sum(dtype=np.float64)) * float(top) ** (d - 1)
    if mass >= 2.0 ** 62:
        s, minus_n = s.astype(object), minus_n.astype(object)
    x = Fraction(x)
    total = sum(math.comb(d - 1, k) * x ** (d - 1 - k)
                * int((s * minus_n ** k).sum()) for k in range(d))
    return float(total / math.factorial(d - 1))


def _check_x(x, limit, name):
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"{name}: x must be finite and nonnegative")
    if x > limit:
        raise ValueError(
            f"{name}: x = {x} exceeds the series limit {limit}")
    return x


def cesaro_prefix(table: SieveTable, x) -> float:
    """The d=2 Cesaro sum C(x) = sum_{n<=x} S_2(n) (x-n), from the prefix
    sums L(k) = table.prefix[k] alone.

    D(Z) = sum_{k=0..Z} L(k) L(Z-k) = sum_{n<=Z} S_2(n) (Z+1-n) is one
    int64 dot product of the prefix array with its reverse, so with
    x = X + f, 0 <= f < 1, and D(-1) = 0,
    C(x) = D(X-1) + f (D(X) - D(X-1)).  Every partial sum of either dot
    is at most (X+1) P^2 in size, P = max |L(k)| over k <= X; that bound
    is checked against 2^63 first (for lambda it is 1.6e12 at X = 1e6
    and 1.2e14 at X = 1e7).  Both integers are exact, and C(x) is
    rounded twice.
    """
    x = _check_x(x, table.limit, "cesaro_prefix")
    top = int(math.floor(x))
    prefix = table.prefix[:top + 1]
    peak = int(np.abs(prefix).max())
    if (top + 1) * peak * peak >= 1 << 63:
        raise OverflowError(f"cesaro_prefix: D({top}) may overflow int64")
    d1 = int(np.dot(prefix, prefix[::-1]))
    d0 = int(np.dot(prefix[:-1], prefix[-2::-1]))   # 0 when X = 0
    return d0 + (x - top) * (d1 - d0)


def export_csv(series: ConvolutionSeries, path) -> None:
    """Write `n,value` rows for d <= n <= limit, the bytes of "%d,%d\\n",
    from each block's digits in a uint8 matrix compacted by one mask.
    The digits are taken in uint32 when the block's largest n and |S|
    fit, and in uint64 otherwise."""
    with open(path, "wb") as fh:
        fh.write(b"n,value\n")
        for s in range(series.d, series.limit + 1, _BLOCK):
            vals = series.values[s:s + _BLOCK]
            top_n = s + vals.size - 1
            top_v = max(int(vals.max()), -int(vals.min()))
            dt = np.uint32 if max(top_n, top_v) < 1 << 32 else np.uint64
            n = np.arange(s, s + vals.size, dtype=dt)
            mag = np.abs(vals).astype(dt)   # exact: |S| < 2^32 or uint64
            wn, wv = len(str(top_n)), len(str(top_v))
            mat = np.empty((vals.size, wn + wv + 3), dtype=np.uint8)
            used = np.ones(mat.shape, dtype=bool)
            mat[:, wn], mat[:, wn + 1], mat[:, -1] = ord(","), ord("-"), 10
            used[:, wn + 1] = vals < 0
            for x, end, width in ((n, wn, wn), (mag, wn + wv + 2, wv)):
                for col in range(end - 1, end - 1 - width, -1):
                    used[:, col] = (x > 0) | (col == end - 1)
                    q = x // 10
                    mat[:, col] = x - q * 10 + 48
                    x = q
            fh.write(mat[used])
