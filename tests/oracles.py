"""Exact d-fold Laplace self-convolution of L (or M), the oracle for
the Cesaro identity.

The Cesaro sum (1/(d-1)!) sum S_d(n) (x-n)^{d-1} equals the d-fold
Laplace self-convolution of the summatory function.  This module
computes the latter exactly from its piecewise-polynomial structure, so
the two must agree to floating rounding.
"""

import math

import numpy as np

from liouconv.sieve import SieveTable


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
