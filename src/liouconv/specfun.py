"""Complex special functions used by the explicit-formula evaluators.

Everything here works in the log domain where Gamma factors are involved:
at ordinates gamma ~ 50 the direct value |Gamma(1/2 + i*gamma)| is already
below 1e-35, so ratios must be assembled from log_gamma and exponentiated
once at the end.

The zeta evaluator is plain Euler-Maclaurin with an adaptive main-sum
cutoff N, rounded up to 8 steps per octave.  One pass returns zeta and
zeta' together, from tables of n^-s for chunks of points that share N:
exp(-s log p) runs only for the primes p < N, and every composite is
the product of two rows already in the table, p^-s (n/p)^-s with p the
smallest prime factor of n.  Each chunk's table is sized for one
core's cache, and the chunks run on a thread pool with one worker per
usable core (NumPy releases the GIL in the exp, the row gathers and
products and the row sums).  Each point's sums are one contiguous
pairwise sum over its own row, so every output bit is independent of
the chunk size, the thread count and the other points in the batch.
That is accurate and simple for |Im s| up to a few times 1e4, which is
all the desk-scale experiments need; no Riemann-Siegel here.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
from scipy.special import loggamma as _scipy_loggamma
from scipy.special import zeta as _real_zeta

__all__ = [
    "log_gamma",
    "zeta",
    "zeta_pair",
    "zeta_half",
    "zeta_threads",
    "log_gamma_abs_half_line",
    "log_gamma_abs_lower_bound",
]

# Correction depth for Euler-Maclaurin.  With the main-sum cutoff chosen so
# that (|t| + 2J)/(2 pi N) <= 1/2, the J-th correction term is below 2^-2J;
# J = 25 leaves headroom under the 1e-10 accuracy target.
_EM_CORRECTION_TERMS = 25

# B_{2j}/(2j)! = (-1)^{j+1} * 2 * zeta(2j) / (2 pi)^{2j}, j = 1..J.
_j = np.arange(1, _EM_CORRECTION_TERMS + 1)
_EM_BERN = (-1.0) ** (_j + 1) * 2.0 * _real_zeta(2.0 * _j) / (2.0 * np.pi) ** (2 * _j)
del _j

# Entries of one chunk's n^-s table (cutoff x points): 96k complex128 is
# 1.5 MB, plus as much again for its point-major copy, near one core's
# L2.  On two cores 32k and 64k entries lost to per-chunk overhead and
# 96k-128k tied.  All threads together stay within _TABLE_ENTRIES, so
# peak memory does not grow with the core count.
_CHUNK_ENTRIES = 96_000
_TABLE_ENTRIES = 250_000

_ZETA_HALF: Optional[complex] = None


def _as_complex_array(z, name: str) -> tuple[np.ndarray, bool]:
    """Coerce to a complex128 array, rejecting NaN/inf components."""
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite input")
    return arr, arr.ndim == 0


def _unwrap(arr: np.ndarray, scalar: bool):
    return complex(arr[()]) if scalar else arr


def log_gamma(z):
    """Principal-branch log Gamma for Re z > 0.

    Args:
        z: complex scalar or array, all components finite, Re z > 0.

    Returns:
        log Gamma(z), same shape as the input.

    Raises:
        ValueError: non-finite input or Re z <= 0.
    """
    arr, scalar = _as_complex_array(z, "log_gamma")
    if np.any(arr.real <= 0.0):
        raise ValueError("log_gamma: Re z <= 0 is outside the supported domain")
    return _unwrap(_scipy_loggamma(arr), scalar)


def _em_cutoff(tmax: float) -> int:
    # Keep the correction-term ratio (|t| + 2J)/(2 pi N) at or under 1/2.
    n = int(math.ceil((tmax + 2.0 * _EM_CORRECTION_TERMS + 10.0) / math.pi))
    return max(n, 30)


def _factor_layers(cutoff: int) -> tuple[np.ndarray, list]:
    """How to build n^-s for 2 <= n < cutoff with one exp per prime.

    Returns the primes below cutoff and, for the composites, a list of
    layers (n, p, q) by Omega(n), the prime factors of n counted with
    multiplicity: p = spf(n) is the smallest prime factor and q = n/p.
    Every q lies in an earlier layer (or is prime), so filling the layers
    in order sets n^-s = p^-s q^-s from rows that are already there.
    """
    n = np.arange(cutoff)
    spf = n.copy()
    for p in range(2, math.isqrt(max(cutoff - 1, 0)) + 1):
        if spf[p] == p:
            tail = spf[p * p::p]
            np.minimum(tail, p, out=tail)
    is_prime = spf == n
    is_prime[:2] = False
    rest = np.nonzero(~is_prime)[0][2:]
    q = rest // spf[rest]
    filled = is_prime.copy()
    layers = []
    while rest.size:
        ready = filled[q]
        layer = rest[ready]
        layers.append((layer, spf[layer], q[ready]))
        filled[layer] = True
        rest, q = rest[~ready], q[~ready]
    return np.nonzero(is_prime)[0], layers


def zeta_threads() -> int:
    """Worker threads of the zeta pass: one per core this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _power_sums(s, cutoff, primes, layers, logn, total, dtotal) -> None:
    """Write sum n^-s and -sum n^-s log n, 1 <= n < cutoff, for each
    point of s into total and dtotal, from one table of n^-s."""
    # n-major, so each layer fills whole contiguous rows at once
    table = np.empty((cutoff, s.size), dtype=np.complex128)
    table[1] = 1.0
    table[primes] = np.exp(-logn[primes - 1, None] * s)
    for n, p, q in layers:
        table[n] = table[p] * table[q]
    # point-major for the sums: each point is one contiguous pairwise
    # sum, so its bits do not depend on the other points in the chunk
    powers = np.ascontiguousarray(table[1:].T)
    total[:] = powers.sum(axis=1)
    powers *= logn
    dtotal[:] = -powers.sum(axis=1)


def _em_finish(s: np.ndarray, cutoff: int, total: np.ndarray,
               dtotal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin tail and corrections for a flat array of s sharing
    one cutoff N: (zeta(s), zeta'(s)) from the main sums over n < N."""
    big_n = float(cutoff)
    lg = math.log(big_n)
    n_pow = np.exp(-s * lg)          # N^-s
    sm1 = s - 1.0
    tail = big_n * n_pow / sm1       # N^(1-s)/(s-1)
    half = 0.5 * n_pow
    total = total + tail + half
    dtotal = dtotal - big_n * n_pow * (lg / sm1 + 1.0 / (sm1 * sm1))
    dtotal = dtotal - 0.5 * lg * n_pow

    # Correction terms, built by recurrence so no intermediate factor can
    # overflow: term_j = term_{j-1} * (b_j/b_{j-1}) * (s+2j-3)(s+2j-2) / N^2.
    term = _EM_BERN[0] * big_n * n_pow / (big_n * big_n) * s
    recip = 1.0 / s                  # sum over the Pochhammer factors
    total = total + term
    dtotal = dtotal + term * (recip - lg)
    inv_n2 = 1.0 / (big_n * big_n)
    for j in range(2, _EM_CORRECTION_TERMS + 1):
        ratio = (_EM_BERN[j - 1] / _EM_BERN[j - 2]) * inv_n2
        f1 = s + (2 * j - 3)
        f2 = s + (2 * j - 2)
        term = term * ratio * f1 * f2
        recip = recip + 1.0 / f1 + 1.0 / f2
        total = total + term
        dtotal = dtotal + term * (recip - lg)
    return total, dtotal


def _em_bucket(need: int) -> int:
    """need rounded up to a multiple of 2^(floor(log2 need) - 3)."""
    step = 1 << max(need.bit_length() - 4, 0)
    return -(-need // step) * step


def zeta_pair(s):
    """(zeta(s), zeta'(s)) by Euler-Maclaurin for Re s >= 0.4, s away from 1.

    The main-sum length N is picked from |Im s| so the relative error
    stays at or below 1e-10 for |Im s| <= 2e4; zeta' is the term-wise
    derivative of the same sum.

    Args:
        s: complex scalar or array.

    Returns:
        Two values (scalars) or arrays with the shape of the input.
    """
    arr, scalar = _as_complex_array(s, "zeta")
    flat = np.atleast_1d(arr).ravel()
    if np.any(flat.real < 0.4):
        raise ValueError("zeta: Re s < 0.4 is outside the configured domain")
    if np.any(np.abs(flat - 1.0) <= 1e-6):
        raise ValueError("zeta: evaluation too close to the pole at s = 1")

    # Bucket by required cutoff, 8 buckets per octave, so mixed batches do
    # not all pay for the largest |Im s|; the bucket is a function of the
    # point alone.  Sorting by bucket makes each chunk a contiguous slice.
    buckets = np.array([_em_bucket(_em_cutoff(abs(t))) for t in flat.imag],
                       dtype=np.int64)
    order = np.argsort(buckets, kind="stable")
    pts = flat[order]
    total = np.empty(pts.shape, dtype=np.complex128)
    dtotal = np.empty(pts.shape, dtype=np.complex128)
    cutoffs, firsts = np.unique(buckets[order], return_index=True)
    spans = list(zip(cutoffs.tolist(), firsts.tolist(),
                     firsts[1:].tolist() + [pts.size]))
    threads = zeta_threads()
    entries = min(_CHUNK_ENTRIES, _TABLE_ENTRIES // threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        jobs = []
        for cutoff, lo, hi in spans:
            primes, layers = _factor_layers(cutoff)
            logn = np.log(np.arange(1, cutoff, dtype=np.float64))
            rows = max(1, entries // cutoff)
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                jobs.append(pool.submit(_power_sums, pts[a:b], cutoff, primes,
                                        layers, logn, total[a:b],
                                        dtotal[a:b]))
        for job in jobs:
            job.result()
    for cutoff, lo, hi in spans:
        total[lo:hi], dtotal[lo:hi] = _em_finish(
            pts[lo:hi], cutoff, total[lo:hi], dtotal[lo:hi])
    out = np.empty_like(total)
    dout = np.empty_like(dtotal)
    out[order] = total
    dout[order] = dtotal
    return (_unwrap(out.reshape(arr.shape), scalar),
            _unwrap(dout.reshape(arr.shape), scalar))


def zeta(s):
    """Riemann zeta, the first half of zeta_pair(s)."""
    return zeta_pair(s)[0]


def zeta_half() -> float:
    """zeta(1/2), computed once and cached."""
    global _ZETA_HALF
    if _ZETA_HALF is None:
        _ZETA_HALF = zeta(0.5)
    return _ZETA_HALF.real


def _log_cosh_pi(y):
    """log cosh(pi y) = pi|y| + log((1 + exp(-2 pi |y|))/2), for any y."""
    ay = np.abs(y) * np.pi
    return ay + np.log1p(np.exp(-2.0 * ay)) - math.log(2.0)


def log_gamma_abs_half_line(y):
    """log |Gamma(1/2 + i y)| from the closed form pi / cosh(pi y), exact."""
    return 0.5 * (math.log(math.pi) - _log_cosh_pi(y))


def log_gamma_abs_lower_bound(x: float, y):
    """Lower bound on log |Gamma(x + i y)| for x >= 1/2, from
    |Gamma(x + i y)| >= Gamma(x) sech(pi y)^(1/2)."""
    return math.lgamma(x) - 0.5 * _log_cosh_pi(y)
