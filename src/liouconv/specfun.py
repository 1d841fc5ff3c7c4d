"""Complex special functions used by the explicit-formula evaluators.

Everything here works in the log domain where Gamma factors are involved:
at ordinates gamma ~ 50 the direct value |Gamma(1/2 + i*gamma)| is already
below 1e-35, so ratios must be assembled from log_gamma and exponentiated
once at the end.

The zeta evaluator is plain Euler-Maclaurin with an adaptive main-sum
cutoff N, rounded up to 8 steps per octave.  One pass returns zeta and
zeta' together, from one table of n^-s per block of points that share
N: exp(-s log p) runs only for the primes p < N, and every composite is
the product of two rows already in the table, p^-s (n/p)^-s with p the
smallest prime factor of n.  That is accurate and simple for |Im s| up
to a few times 1e4, which is all the desk-scale experiments need; no
Riemann-Siegel here.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import loggamma as _scipy_loggamma
from scipy.special import zeta as _real_zeta

__all__ = [
    "log_gamma",
    "zeta",
    "zeta_pair",
    "zeta_half",
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

# Entries of one n^-s table (cutoff x points), about 4 MB of complex128.
_CHUNK_ENTRIES = 250_000

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


def _zeta_em_block(s: np.ndarray,
                   cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin core for a flat array of s sharing one cutoff N:
    (zeta(s), zeta'(s)) from one table of n^-s, 1 <= n < N."""
    primes, layers = _factor_layers(cutoff)
    logn = np.log(np.arange(1, cutoff, dtype=np.float64))
    total = np.empty(s.shape, dtype=np.complex128)
    dtotal = np.empty(s.shape, dtype=np.complex128)
    rows = max(1, _CHUNK_ENTRIES // cutoff)
    for lo in range(0, s.size, rows):
        sl = s[lo:lo + rows]
        # n-major, so each layer fills whole contiguous rows at once
        table = np.empty((cutoff, sl.size), dtype=np.complex128)
        table[1] = 1.0
        table[primes] = np.exp(-logn[primes - 1, None] * sl)
        for n, p, q in layers:
            table[n] = table[p] * table[q]
        # point-major for the sums: each point is one contiguous pairwise
        # sum, so its bits do not depend on the other points in the chunk
        powers = np.ascontiguousarray(table[1:].T)
        total[lo:lo + rows] = powers.sum(axis=1)
        powers *= logn
        dtotal[lo:lo + rows] = -powers.sum(axis=1)

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

    out = np.empty(flat.shape, dtype=np.complex128)
    dout = np.empty(flat.shape, dtype=np.complex128)
    # Bucket by required cutoff, 8 buckets per octave, so mixed batches do
    # not all pay for the largest |Im s|; the bucket is a function of the
    # point alone.
    buckets = np.array([_em_bucket(_em_cutoff(abs(t))) for t in flat.imag],
                       dtype=np.int64)
    for b in np.unique(buckets):
        mask = buckets == b
        out[mask], dout[mask] = _zeta_em_block(flat[mask], int(b))
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
