"""d-fold additive convolutions of lambda/mu and their weighted averages.

S_d(n) = sum over m_1 + ... + m_d = n (each m_i >= 1) of v(m_1)...v(m_d),
where v is the Liouville or Moebius function.  Two independent routes are
kept: a time-domain integer route (the oracle) and an FFT route with a
rounding guard.  The continuous side is the d-fold Laplace self-convolution
of the summatory function, computed exactly from its piecewise-polynomial
structure; the Cesaro sum (1/(d-1)!) sum S_d(n)(x-n)^{d-1} must agree with
it to floating rounding, which is what the identity tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sieve import SieveTable

__all__ = [
    "ConvolutionSeries",
    "convolve_naive",
    "convolve_fft",
    "cesaro_sum",
    "laplace_convolution_exact",
    "export_csv",
]

# Rounding-guard constant for the FFT route (conservative).
GUARD_C = 8.0


@dataclass(frozen=True)
class ConvolutionSeries:
    """Exact integer values S_d(n) for 0 <= n <= limit.

    Attributes:
        kind: "liouville" or "moebius".
        d: number of summands, >= 2.
        limit: largest n covered.
        values: int64 array of length limit+1; entries below n = d are 0.
        method: how the values were produced ("naive", "fft",
            "fft-fallback"); informational only.
    """

    kind: str
    d: int
    limit: int
    values: np.ndarray
    method: str = field(default="naive", compare=False)


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


def _fft_guard_bound(d: int, limit: int, m: int) -> float:
    """Predicted worst-case rounding error of the FFT route.

    Uses the combinatorial bound max |S_d(n)| <= C(limit-1, d-1) for the
    coefficient magnitude; no sharper growth bound for individual S_d is
    available, so this is deliberately pessimistic.
    """
    try:
        coeff = float(math.comb(limit - 1, d - 1))
    except OverflowError:
        return math.inf
    eps = float(np.finfo(np.float64).eps)
    return eps * GUARD_C * m * math.log2(m) * coeff


def convolve_fft(table: SieveTable, d: int, limit: int) -> ConvolutionSeries:
    """FFT route for S_d, guarded so no unverified integer is emitted.

    The +-1 sequence is zero-padded to a power of two covering the full
    linear d-fold convolution (length d*(limit-1)+1; for d=2 this is the
    usual 2N padding), raised to the d-th power in the frequency domain
    and rounded back.  If the a-priori guard or the observed rounding
    residue exceeds 0.25, the exact time-domain route takes over.
    """
    _check_args(table, d, limit)

    m = 1
    while m < max(2 * limit, d * (limit - 1) + 1):
        m *= 2
    bound = _fft_guard_bound(d, limit, m)

    if bound < 0.25:
        v = np.zeros(m, dtype=np.float64)
        v[1:limit + 1] = table.values[1:limit + 1]
        spec = np.fft.rfft(v)
        raw = np.fft.irfft(spec ** d, n=m)[:limit + 1]
        rounded = np.rint(raw)
        residue = float(np.abs(raw - rounded).max())
        if residue < 0.25:
            out = rounded.astype(np.int64)
            out[:min(d, limit + 1)] = 0
            out.setflags(write=False)
            return ConvolutionSeries(kind=table.kind, d=d, limit=limit,
                                     values=out, method="fft")

    if float(math.comb(limit - 1, d - 1)) >= float(2 ** 62):
        raise ValueError(
            "exact int64 fallback could overflow for these (d, limit); "
            "reduce the range")
    series = convolve_naive(table, d, limit)
    return ConvolutionSeries(kind=series.kind, d=d, limit=limit,
                             values=series.values, method="fft-fallback")


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


# Cache of cell-coefficient representations keyed by
# (kind, table limit, d, built length).  Tables are deterministic per
# (kind, limit), so the key identifies the contents.
_CELL_CACHE: dict[tuple, np.ndarray] = {}
_CELL_CACHE_MAX = 8


def _iterated_cells(table: SieveTable, d: int, length: int) -> np.ndarray:
    """Piecewise-polynomial cells of the d-fold Laplace self-convolution.

    Returns coeff[k, j] with F_d(k+u) = sum_j coeff[k, j] u^j on the unit
    cell [k, k+1), 0 <= u < 1, for 0 <= k < length.

    Construction: F_1 = G is cell-wise constant (the prefix sums).  Since
    G(t) = sum_n v(n) H(t - n), each fold is
        F_{r+1}(x) = integral_0^x F_r(y) G(x-y) dy = sum_n v(n) A_r(x-n)
    with A_r the antiderivative of F_r, so the new cell coefficients are
    integer-shift convolutions of v with the antiderivative coefficients:
    one np.convolve per polynomial degree.  No quadrature anywhere.
    """
    key = (table.kind, table.limit, d, length)
    if key in _CELL_CACHE:
        return _CELL_CACHE[key]
    v = table.values[:length].astype(np.float64)  # v[0] = 0
    coeff = table.prefix[:length].astype(np.float64)[:, None]  # F_1 cells
    for r in range(1, d):
        deg = coeff.shape[1]  # F_r has degree deg-1 cells
        anti = np.empty((length, deg + 1))
        anti[:, 1:] = coeff / np.arange(1, deg + 1)
        # integration constants: A_r(k) = cumulative integral over cells < k
        cell_integrals = anti[:, 1:].sum(axis=1)
        anti[:, 0] = np.concatenate(([0.0], np.cumsum(cell_integrals[:-1])))
        coeff = np.empty((length, deg + 1))
        for j in range(deg + 1):
            coeff[:, j] = np.convolve(v, anti[:, j])[:length]
    if len(_CELL_CACHE) >= _CELL_CACHE_MAX:
        _CELL_CACHE.pop(next(iter(_CELL_CACHE)))
    _CELL_CACHE[key] = coeff
    return coeff


def laplace_convolution_exact(table: SieveTable, x, d: int = 2) -> float:
    """The d-fold Laplace self-convolution of L (or M) at x, exactly.

    d=2 is integral_0^x G(y) G(x-y) dy with G piecewise constant, done by
    breakpoint enumeration; d>2 iterates exact integration of the
    piecewise-polynomial cells.  Either way there is no quadrature error
    beyond floating rounding, which is what lets the Cesaro identity be
    tested at 1e-9.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError("laplace_convolution_exact: x must be nonnegative")
    if x > table.limit:
        raise ValueError(
            f"laplace_convolution_exact: x = {x} exceeds table limit "
            f"{table.limit}")
    if d < 2:
        raise ValueError("d must be at least 2")

    if d == 2:
        top = int(math.floor(x))
        if top < 1:
            return 0.0
        k = np.arange(1.0, top + 1.0)
        cuts = np.concatenate(([0.0], k, x - k, [x]))
        cuts = cuts[(cuts >= 0.0) & (cuts <= x)]
        cuts.sort()
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        left = table.prefix[np.floor(mids).astype(np.int64)]
        right = table.prefix[np.floor(x - mids).astype(np.int64)]
        return math.fsum(left * right * np.diff(cuts))

    # round the build length up so nearby x reuse the same cell table
    length = int(math.floor(x)) + 1
    build = min(table.limit + 1, -(-length // 1024) * 1024)
    coeff = _iterated_cells(table, d, max(build, length))
    k = int(math.floor(x))
    u = x - k
    return math.fsum(coeff[k] * u ** np.arange(coeff.shape[1]))


def export_csv(series: ConvolutionSeries, path) -> None:
    """Write `n,value` rows for d <= n <= limit."""
    with open(path, "w") as fh:
        fh.write("n,value\n")
        for n in range(series.d, series.limit + 1):
            fh.write(f"{n},{int(series.values[n])}\n")
