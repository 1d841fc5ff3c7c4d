"""Complex special functions used by the explicit-formula evaluators.

Everything here works in the log domain where Gamma factors are involved:
at ordinates gamma ~ 50 the direct value |Gamma(1/2 + i*gamma)| is already
below 1e-35, so ratios must be assembled from log_gamma and exponentiated
once at the end.  log_gamma is the Stirling series with a fixed number
of terms; points near the origin (|z| < 15 and Re z < 8) first move up
to Re z >= 8 by the recurrence.  Both sets of constants, the Stirling
coefficients and the Euler-Maclaurin ones, are exact Bernoulli numbers
from the integer tangent numbers, rounded once, so NumPy is the only
runtime dependency.

The zeta evaluator is plain Euler-Maclaurin with J = 78 corrections and
the least main-sum length N with (|t| + 2J + 10)/(2 pi N) <= 0.8,
rounded up to 8 steps per octave; ratio 1/2 and J = 25 need an N 1.6
times longer for the same remainder bound.  One pass gives up to three
values from one table of n^-s per chunk of points: zeta(s) and zeta'(s)
over n < N, and zeta(2s) over the squared table, n^-2s = (n^-s)^2, up to
the cutoff of a zeta call at 2s, which sets the table length.  The
exp(-s log p) runs only for the primes p, and each composite n is
p^-s (n/p)^-s from two rows already there, p its least prime factor.
Each chunk's table is sized for one core's cache, and the chunks, tail
and corrections included, run on a thread pool with one worker per
usable core (NumPy releases the GIL in the exp, the row gathers and
products and the row sums).  Each sum is one pairwise sum over the start
of a point's own row, so every output bit is independent of the chunk
size, the thread count, the table length and the other points in the
batch; the 10^4 bundled zeros take about 0.4 s on 2 cores.  That is
accurate and simple for |Im s| up to a few times 1e4, which is all the
desk-scale experiments need; no Riemann-Siegel here.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

__all__ = [
    "log_gamma",
    "zeta",
    "zeta_pair",
    "zeta_triple",
    "zeta_table_entries",
    "zeta_half",
    "zeta_threads",
    "log_gamma_abs_half_line",
    "log_gamma_abs_lower_bound",
]

# Correction depth for Euler-Maclaurin.  With N chosen so that r = (|t| +
# 2J + 10)/(2 pi N) <= 0.8, the remainder after J terms is at most
# 2 N^(1-sigma) r^(2J+2)/(sigma+2J+1) (Edwards 1974, section 6.4).  J = 78
# is the least J at which that is at most the bound of J = 25 at r = 1/2,
# 6.2e-18 against 8.6e-18 times N^(1-sigma), with a table 37% shorter.
_EM_CORRECTION_TERMS = 78
_EM_RATIO = 0.8


def _bernoulli(count: int) -> list:
    """The exact Bernoulli numbers B_2, B_4, ..., B_2count, from the
    integer tangent numbers T_k (Brent and Harvey 2011):
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    t = [math.factorial(k) for k in range(count)]
    for k in range(1, count):
        for j in range(k, count):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * tk, 4 ** k * (4 ** k - 1))
            for k, tk in enumerate(t, 1)]


_B = _bernoulli(_EM_CORRECTION_TERMS)
# B_{2j}/(2j)!, j = 1..J, each rounded once
_EM_BERN = np.array([float(b / math.factorial(2 * j))
                     for j, b in enumerate(_B, 1)])

# Stirling series log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
# + sum_k B_2k / (2k (2k-1) z^(2k-1)), summed for |z| >= _STIRLING_RADIUS
# or Re z >= _STIRLING_RE; any other point first moves up to Re z >= 8
# by recurrence.  The remainder after _STIRLING_TERMS terms is at most
# the next term times sec(arg z / 2)^22: for |z| >= 15 that is below
# 6192 / (462 * 15^21) * 2^11 < 6e-21, and for Re z >= 8, |Im z| < 15
# (arg z < 62 degrees) below 6192 / (462 * 8^21) * 1.17^22 < 5e-17.
_STIRLING_TERMS = 10
_STIRLING_RADIUS = 15.0
_STIRLING_RE = 8.0
_STIRLING = [float(b / (2 * k * (2 * k - 1)))
             for k, b in enumerate(_B[:_STIRLING_TERMS], 1)]
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
del _B

# Entries of one chunk's n^-s table (cutoff x points, or 2J x points for
# the correction rows where N < 2J): 96k complex128 is 1.5 MB, plus as
# much again for its point-major copy, near one core's L2.  On two cores
# 32k and 64k entries lost to per-chunk overhead and 96k-128k tied.  All
# threads together stay within _TABLE_ENTRIES, so peak memory does not
# grow with the core count.
_CHUNK_ENTRIES = 96_000
_TABLE_ENTRIES = 250_000


def _as_complex_array(z, name: str) -> tuple[np.ndarray, bool]:
    """Coerce to a complex128 array, rejecting NaN/inf components."""
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite input")
    return arr, arr.ndim == 0


def _unwrap(arr: np.ndarray, scalar: bool):
    return complex(arr[()]) if scalar else arr


def _log(z, r):
    """log z from r = |z|, as log r + i arg z."""
    out = np.empty_like(z)
    out.real = np.log(r)
    out.imag = np.arctan2(z.imag, z.real)
    return out


def _stirling(z, r):
    """The Stirling series at points z with |z| = r, each with r >=
    _STIRLING_RADIUS or Re z >= _STIRLING_RE.

    Only out-of-place complex products: NumPy's in-place product of
    one-element arrays rounds differently from its array loop."""
    w = 1.0 / z
    w2 = w * w
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * w2 + c
    return (z - 0.5) * _log(z, r) - z + (series * w + _HALF_LOG_2PI)


def log_gamma(z):
    """Principal-branch log Gamma for Re z > 0: the branch that is real
    on the positive axis and continuous in the right half-plane.

    Args:
        z: complex scalar or array, all components finite, Re z > 0.

    Returns:
        log Gamma(z), same shape as the input.  Every output depends
        on its own input point alone.

    Raises:
        ValueError: non-finite input or Re z <= 0.
    """
    arr, scalar = _as_complex_array(z, "log_gamma")
    if np.any(arr.real <= 0.0):
        raise ValueError("log_gamma: Re z <= 0 is outside the supported domain")
    flat = arr.ravel()
    r = np.abs(flat)
    low = (r < _STIRLING_RADIUS) & (flat.real < _STIRLING_RE)
    out = np.empty_like(flat)
    out[~low] = _stirling(flat[~low], r[~low])
    # log Gamma(z) = log Gamma(z + m) - sum_{j<m} log(z + j) for the
    # least m with Re(z + m) >= _STIRLING_RE; each z + j has Re > 0, so
    # the principal logs add up along the branch
    zs = flat[low]
    m = np.ceil(_STIRLING_RE - zs.real)
    up = zs + m
    acc = _stirling(up, np.abs(up))
    for j in range(int(m.max(initial=0))):
        step = zs + j
        acc = acc - np.where(j < m, _log(step, np.abs(step)), 0.0)
    out[low] = acc
    return _unwrap(out.reshape(arr.shape), scalar)


def _em_cutoffs(t) -> np.ndarray:
    """Main-sum lengths N for the ordinates t: the least N with
    (|t| + 2J + 10)/(2 pi N) <= _EM_RATIO, rounded up to a multiple of
    2^(floor(log2 N) - 3), 8 steps per octave, so that mixed batches
    share few lengths.  Each N is a function of its own t alone."""
    need = np.ceil((np.abs(t) + 2.0 * _EM_CORRECTION_TERMS + 10.0)
                   / (2.0 * math.pi * _EM_RATIO)).astype(np.int64)
    step = np.left_shift(1, np.maximum(np.frexp(need)[1] - 4, 0))
    return -(-need // step) * step


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


def _em_chunk(s, cut, cut2, plan, out) -> None:
    """zeta(s) and zeta'(s) into out[0] and out[1] for the points s of
    one chunk, which share the cutoff cut, and zeta(2s) with cutoff cut2
    into out[2] if out has it, all from one table of n^-s."""
    primes, layers, logn = plan
    # n-major, so each layer fills whole contiguous rows at once
    table = np.empty((logn.size + 1, s.size), dtype=np.complex128)
    table[1] = 1.0
    table[primes] = np.exp(-logn[primes - 1, None] * s)
    for n, p, q in layers:
        table[n] = table[p] * table[q]
    # point-major: each sum is one pairwise sum over the start of a row,
    # independent of the other points in the chunk and the table length
    powers = np.ascontiguousarray(table[1:].T)
    del table
    head = powers[:, :cut - 1]
    out[0][:], out[1][:] = _em_finish(s, cut, head.sum(axis=1),
                                      -(head * logn[:cut - 1]).sum(axis=1))
    if len(out) > 2:
        powers *= powers
        out[2][:] = _em_finish(2.0 * s, cut2,
                               powers[:, :cut2 - 1].sum(axis=1))[0]


def _em_finish(s, cut, total, dtotal=None):
    """Euler-Maclaurin tail and J corrections for a flat array of s with
    the cutoff N = cut: [zeta(s)] from the main sums over n < N in total,
    plus zeta'(s) when dtotal holds the derivative sums."""
    big_n = float(cut)
    lg = math.log(cut)
    n_pow = np.exp(-s * lg)          # N^-s
    sm1 = s - 1.0
    total = total + big_n * n_pow / sm1 + 0.5 * n_pow
    if dtotal is not None:
        dtotal = dtotal - big_n * n_pow * (lg / sm1 + 1.0 / (sm1 * sm1))
        dtotal = dtotal - 0.5 * lg * n_pow

    # Corrections j = 1..J, one row per point, by a running product so no
    # factor can overflow: term_1 = b_1 s N^(-s-1), term_j = term_{j-1}
    # (b_j/b_{j-1}) (s+2j-3)(s+2j-2)/N^2.  Each row is one sequential
    # product and one pairwise sum: its bits depend on its own point.
    f = s[:, None] + np.arange(2 * _EM_CORRECTION_TERMS - 1)  # s + k
    steps = np.empty((s.size, _EM_CORRECTION_TERMS), dtype=np.complex128)
    steps[:, 0] = _EM_BERN[0] * n_pow / big_n * s
    steps[:, 1:] = (_EM_BERN[1:] / _EM_BERN[:-1] / (big_n * big_n)
                    * f[:, 1::2] * f[:, 2::2])
    terms = np.multiply.accumulate(steps, axis=1)
    total = total + terms.sum(axis=1)
    if dtotal is not None:
        # d/ds log of s (s+1) ... (s+2j-2) N^(-s-2j+1)
        recip = np.add.accumulate(1.0 / f, axis=1)[:, ::2]
        dtotal = dtotal + (terms * (recip - lg)).sum(axis=1)
    return [total] if dtotal is None else [total, dtotal]


def _em_zeta(s, doubled=False) -> list:
    """[zeta(s), zeta'(s)], then zeta(2s) if doubled, by Euler-Maclaurin
    for Re s >= 0.4, s and 2s away from 1.  Each is a scalar or an array
    with the shape of s."""
    arr, scalar = _as_complex_array(s, "zeta")
    flat = np.atleast_1d(arr).ravel()
    if np.any(flat.real < 0.4):
        raise ValueError("zeta: Re s < 0.4 is outside the configured domain")
    if np.any(np.abs(flat - 1.0) <= 1e-6) or (
            doubled and np.any(np.abs(2.0 * flat - 1.0) <= 1e-6)):
        raise ValueError("zeta: evaluation too close to the pole at s = 1")

    cut = _em_cutoffs(flat.imag)
    cut2 = _em_cutoffs(2.0 * flat.imag) if doubled else cut
    # Sorting by (cut2, cut), cut2 >= cut being the table length, makes
    # each chunk a contiguous slice of points sharing a table and cutoffs.
    keys, inverse, counts = np.unique(
        np.stack([cut2, cut], axis=1), axis=0,
        return_inverse=True, return_counts=True)
    order = np.argsort(inverse.ravel(), kind="stable")
    pts = flat[order]
    out = [np.empty_like(pts) for _ in range(3 if doubled else 2)]
    threads = zeta_threads()
    entries = min(_CHUNK_ENTRIES, _TABLE_ENTRIES // threads)
    # One factorisation, for the longest table: the primes and each layer
    # are ascending, so a shorter table's plan is a prefix of it, cut by
    # one searchsorted per layer for all table lengths at once.
    primes, layers = _factor_layers(int(keys[-1, 0]))
    logn = np.log(np.arange(1, keys[-1, 0], dtype=np.float64))
    ends = np.array([np.searchsorted(x, keys[:, 0]) for x in
                     [primes] + [n for n, _, _ in layers]]).T.tolist()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        jobs = []
        for (size, c1), (k, *ks), hi, count in zip(
                keys.tolist(), ends, np.cumsum(counts).tolist(),
                counts.tolist()):
            plan = (primes[:k], [(n[:e], p[:e], q[:e]) for (n, p, q), e
                                 in zip(layers, ks)], logn[:size - 1])
            rows = max(1, entries // max(size, 2 * _EM_CORRECTION_TERMS))
            for a in range(hi - count, hi, rows):
                part = slice(a, min(a + rows, hi))
                jobs.append(pool.submit(_em_chunk, pts[part], c1, size, plan,
                                        [x[part] for x in out]))
        for job in jobs:
            job.result()
    back = np.argsort(order)
    return [_unwrap(x[back].reshape(arr.shape), scalar) for x in out]


def zeta_pair(s):
    """(zeta(s), zeta'(s)) by Euler-Maclaurin for Re s >= 0.4, s away from
    1, as scalars or arrays with the shape of s.  The least N with
    (|Im s| + 2J + 10)/(2 pi N) <= 0.8 and J = 78 corrections keep the
    relative error at or below 1e-10 for |Im s| <= 2e4; zeta' is the
    term-wise derivative of the same sum."""
    return tuple(_em_zeta(s))


def zeta_triple(s):
    """(zeta(s), zeta'(s), zeta(2s)): zeta_pair(s), bit for bit, and
    zeta(2s) from the squares of the same n^-s table, with the cutoff and
    corrections of zeta(2s).  2s must stay away from 1 too."""
    return tuple(_em_zeta(s, doubled=True))


def zeta_table_entries(t) -> int:
    """Entries of the n^-s tables zeta_triple fills for the ordinates t:
    the table length N(2t), the cutoff of zeta(2s), per point."""
    return int(_em_cutoffs(2.0 * np.asarray(t, dtype=np.float64)).sum())


def zeta(s):
    """Riemann zeta, the first half of zeta_pair(s)."""
    return _em_zeta(s)[0]


@functools.cache
def zeta_half() -> float:
    """zeta(1/2), computed once and cached."""
    return zeta(0.5).real


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
