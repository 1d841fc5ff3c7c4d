"""Complex special functions used by the explicit-formula evaluators.

Everything here works in the log domain where Gamma factors are involved:
at ordinates gamma ~ 50 the direct value |Gamma(1/2 + i*gamma)| is already
below 1e-35, so ratios must be assembled from log_gamma and exponentiated
once at the end.

The zeta evaluator is plain Euler-Maclaurin with an adaptive main-sum
cutoff.  That is accurate and simple for |Im s| up to a few times 1e4,
which is all the desk-scale experiments need; no Riemann-Siegel here.
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
    "zeta_derivative",
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


def _zeta_em_block(s: np.ndarray, cutoff: int,
                   want_derivative: bool) -> np.ndarray:
    """Euler-Maclaurin core for a flat array of s sharing one cutoff."""
    n = np.arange(1, cutoff, dtype=np.float64)
    logn = np.log(n)
    # Chunk the outer product so memory stays modest for big batches.
    total = np.empty(s.shape, dtype=np.complex128)
    dtotal = np.empty(s.shape, dtype=np.complex128) if want_derivative else None
    rows = max(1, 3_000_000 // max(cutoff, 1))
    for lo in range(0, s.size, rows):
        sl = s[lo:lo + rows, None]
        powers = np.exp(-sl * logn[None, :])
        total[lo:lo + rows] = powers.sum(axis=1)
        if want_derivative:
            dtotal[lo:lo + rows] = -(powers * logn[None, :]).sum(axis=1)
        del powers

    big_n = float(cutoff)
    lg = math.log(big_n)
    n_pow = np.exp(-s * lg)          # N^-s
    sm1 = s - 1.0
    tail = big_n * n_pow / sm1       # N^(1-s)/(s-1)
    half = 0.5 * n_pow
    total = total + tail + half
    if want_derivative:
        dtotal = dtotal - big_n * n_pow * (lg / sm1 + 1.0 / (sm1 * sm1))
        dtotal = dtotal - 0.5 * lg * n_pow

    # Correction terms, built by recurrence so no intermediate factor can
    # overflow: term_j = term_{j-1} * (b_j/b_{j-1}) * (s+2j-3)(s+2j-2) / N^2.
    term = _EM_BERN[0] * big_n * n_pow / (big_n * big_n) * s
    recip = 1.0 / s                  # sum over the Pochhammer factors
    total = total + term
    if want_derivative:
        dtotal = dtotal + term * (recip - lg)
    inv_n2 = 1.0 / (big_n * big_n)
    for j in range(2, _EM_CORRECTION_TERMS + 1):
        ratio = (_EM_BERN[j - 1] / _EM_BERN[j - 2]) * inv_n2
        f1 = s + (2 * j - 3)
        f2 = s + (2 * j - 2)
        term = term * ratio * f1 * f2
        recip = recip + 1.0 / f1 + 1.0 / f2
        total = total + term
        if want_derivative:
            dtotal = dtotal + term * (recip - lg)
    return dtotal if want_derivative else total


def _zeta_dispatch(s, want_derivative: bool):
    arr, scalar = _as_complex_array(s, "zeta")
    flat = np.atleast_1d(arr).ravel()
    if np.any(flat.real < 0.4):
        raise ValueError("zeta: Re s < 0.4 is outside the configured domain")
    if np.any(np.abs(flat - 1.0) <= 1e-6):
        raise ValueError("zeta: evaluation too close to the pole at s = 1")

    out = np.empty(flat.shape, dtype=np.complex128)
    # Bucket by required cutoff (quantized to powers of two) so mixed
    # batches do not all pay for the largest |Im s|.
    need = np.array([_em_cutoff(abs(t)) for t in flat.imag])
    buckets = np.power(2, np.ceil(np.log2(need)).astype(int))
    for b in np.unique(buckets):
        mask = buckets == b
        out[mask] = _zeta_em_block(flat[mask], int(b), want_derivative)
    out = out.reshape(np.atleast_1d(arr).shape)
    if arr.ndim == 0:
        return complex(out[0])
    return out


def zeta(s):
    """Riemann zeta by Euler-Maclaurin for Re s >= 0.4, s away from 1.

    The main-sum length N is picked from |Im s| so the relative error
    stays at or below 1e-10 for |Im s| <= 1e4.

    Args:
        s: complex scalar or array.

    Returns:
        zeta(s) with the shape of the input.
    """
    return _zeta_dispatch(s, False)


def zeta_derivative(s):
    """zeta'(s), the term-wise derivative of the same Euler-Maclaurin sum."""
    return _zeta_dispatch(s, True)


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
