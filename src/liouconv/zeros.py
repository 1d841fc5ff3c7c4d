"""Zero-ordinate ingestion, enrichment, persistence and SZ diagnostics.

A ZeroSet stores only positive ordinates; the conjugate zeros are implied
and handled at summation time, which keeps every downstream output real
by construction.  Each zero carries the two coefficients every explicit
formula needs, zeta'(1/2 + i gamma) and zeta(1 + 2 i gamma), so they are
computed once per table rather than once per evaluation point.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import specfun

__all__ = [
    "ZeroSet",
    "load_ordinates",
    "enrich",
    "save_cache",
    "load_cache",
    "is_cache",
    "sz_diagnostic",
    "counting_sanity",
    "truncate",
    "export_csv",
    "bundled_ordinates",
    "RESIDUAL_TOL",
]

RESIDUAL_TOL = 1e-6
_MIN_ZPRIME = 1e-8
_FIRST_ORDINATE_FLOOR = 14.0

_CACHE_MAGIC = b"ZEROCACHE"
_CACHE_VERSION = 1


@dataclass(frozen=True)
class ZeroSet:
    """Ascending, gap-free collection of enriched zeros."""

    gammas: np.ndarray     # float64, strictly increasing
    zprimes: np.ndarray    # complex128
    z2rhos: np.ndarray     # complex128
    residual_tol: float = RESIDUAL_TOL

    def __post_init__(self):
        g = self.gammas
        if g.size and (np.any(np.diff(g) <= 0) or g[0] <= _FIRST_ORDINATE_FLOOR):
            raise ValueError("ordinates must be strictly increasing and > 14")

    def __len__(self) -> int:
        return int(self.gammas.size)

    @property
    def t_max(self) -> float:
        return float(self.gammas[-1]) if self.gammas.size else 0.0

    @property
    def rhos(self) -> np.ndarray:
        return 0.5 + 1j * self.gammas


def load_ordinates(source) -> list[float]:
    """Parse a text stream of ordinates, one per line.

    Each line is either `gamma` or `index gamma`; when the index column is
    present it must run 1, 2, 3, ... without gaps.  Ordinates must be
    positive and strictly increasing.  All failures carry the offending
    line number.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    out: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        parts = text.split()
        try:
            if len(parts) == 1:
                value = float(parts[0])
            elif len(parts) == 2:
                idx = int(parts[0])
                value = float(parts[1])
                if idx != len(out) + 1:
                    raise ValueError(
                        f"line {lineno}: index {idx}, expected {len(out) + 1}")
            else:
                raise ValueError(f"line {lineno}: expected 1 or 2 columns")
        except ValueError as exc:
            if str(exc).startswith("line "):
                raise
            raise ValueError(f"line {lineno}: cannot parse {text!r}") from None
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"line {lineno}: ordinate must be positive")
        if out and value <= out[-1]:
            raise ValueError(f"line {lineno}: non-monotone ordinate {value}")
        out.append(value)
    return out


def enrich(ordinates) -> ZeroSet:
    """Attach zeta'(rho) and zeta(2 rho) to each ordinate.

    Args:
        ordinates: ascending positive ordinates (list or array).

    Raises:
        ValueError: an ordinate with |zeta(1/2+i gamma)| at or above
            RESIDUAL_TOL (low-precision input shows up here), or a
            |zeta'| below 1e-8, which would break every 1/zeta'(rho)
            coefficient downstream.
    """
    g = np.asarray(list(ordinates), dtype=np.float64)
    if g.size == 0:
        return ZeroSet(gammas=g, zprimes=np.empty(0, np.complex128),
                       z2rhos=np.empty(0, np.complex128))
    s = 0.5 + 1j * g
    residual = np.abs(specfun.zeta(s))
    bad = np.nonzero(residual >= RESIDUAL_TOL)[0]
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"ordinate {g[k]!r} (position {k + 1}) fails the residual "
            f"check: |zeta(1/2+i gamma)| = {residual[k]:.3e} >= {RESIDUAL_TOL}")
    zprimes = np.asarray(specfun.zeta_derivative(s), dtype=np.complex128)
    small = np.nonzero(np.abs(zprimes) < _MIN_ZPRIME)[0]
    if small.size:
        k = int(small[0])
        raise ValueError(
            f"ordinate {g[k]!r}: |zeta'(rho)| = {np.abs(zprimes[k]):.3e} "
            f"< {_MIN_ZPRIME}; simple-zero assumption violated")
    z2 = np.asarray(specfun.zeta(1.0 + 2j * g), dtype=np.complex128)
    return ZeroSet(gammas=g, zprimes=zprimes, z2rhos=z2)


def truncate(zset: ZeroSet, count: int | None = None,
             t_max: float | None = None) -> ZeroSet:
    """Prefix of a ZeroSet by zero count or by ordinate ceiling (gamma < t_max)."""
    k = len(zset)
    if count is not None:
        k = min(k, int(count))
    if t_max is not None:
        k = min(k, int(np.searchsorted(zset.gammas, t_max, side="left")))
    return ZeroSet(gammas=zset.gammas[:k], zprimes=zset.zprimes[:k],
                   z2rhos=zset.z2rhos[:k], residual_tol=zset.residual_tol)


def save_cache(zset: ZeroSet, path) -> None:
    """Versioned binary cache: header, raw arrays, sha256 trailer."""
    body = (_CACHE_MAGIC
            + bytes([_CACHE_VERSION])
            + struct.pack("<Qd", len(zset), zset.residual_tol)
            + zset.gammas.tobytes()
            + zset.zprimes.tobytes()
            + zset.z2rhos.tobytes())
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_cache(path) -> ZeroSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 9 + 1 + 16 + 32:
        raise ValueError("zero cache: file too short")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("zero cache: checksum mismatch (truncated or corrupt)")
    if body[:9] != _CACHE_MAGIC:
        raise ValueError("zero cache: bad magic")
    if body[9] != _CACHE_VERSION:
        raise ValueError(f"zero cache: unsupported version {body[9]}")
    count, tol = struct.unpack_from("<Qd", body, 10)
    off = 10 + 16
    g = np.frombuffer(body, dtype=np.float64, count=count, offset=off).copy()
    off += 8 * count
    zp = np.frombuffer(body, dtype=np.complex128, count=count, offset=off).copy()
    off += 16 * count
    z2 = np.frombuffer(body, dtype=np.complex128, count=count, offset=off).copy()
    return ZeroSet(gammas=g, zprimes=zp, z2rhos=z2, residual_tol=tol)


def is_cache(path) -> bool:
    """Whether the file starts with the zero-cache magic bytes."""
    with open(path, "rb") as fh:
        return fh.read(len(_CACHE_MAGIC)) == _CACHE_MAGIC


def sz_diagnostic(zset: ZeroSet, t_ceiling: float) -> dict:
    """Partial sums behind the simple-zero conjecture, up to gamma < T.

    Returns sum_inv_zp = sum 1/|zeta'(rho)|, sum_z2_over_rho_zp =
    sum |zeta(2 rho)|/|rho zeta'(rho)|, and the first sum normalized by
    T (log T)^(1/2).
    """
    t_ceiling = float(t_ceiling)
    if t_ceiling > zset.t_max:
        raise ValueError(
            f"sz_diagnostic: T = {t_ceiling} exceeds t_max = {zset.t_max}; "
            f"silent truncation is not allowed")
    k = int(np.searchsorted(zset.gammas, t_ceiling, side="left"))
    inv = 1.0 / np.abs(zset.zprimes[:k])
    sum_inv = float(math.fsum(inv))
    rho_abs = np.abs(0.5 + 1j * zset.gammas[:k])
    sum_z2 = float(math.fsum(np.abs(zset.z2rhos[:k]) / (rho_abs *
                                                        np.abs(zset.zprimes[:k]))))
    norm = sum_inv / (t_ceiling * math.sqrt(math.log(t_ceiling))) \
        if t_ceiling > 1.0 else 0.0
    return {"sum_inv_zp": sum_inv, "sum_z2_over_rho_zp": sum_z2,
            "normalized": norm}


def counting_sanity(zset: ZeroSet, t_ceiling: float | None = None) -> dict:
    """Compare #{gamma < T} to the classical (T/2pi) log(T/(2 pi e))."""
    t = zset.t_max if t_ceiling is None else float(t_ceiling)
    count = int(np.searchsorted(zset.gammas, t, side="left"))
    predicted = t / (2 * math.pi) * math.log(t / (2 * math.pi * math.e))
    return {"count": count, "predicted": predicted,
            "ratio": count / predicted if predicted > 0 else math.inf}


def export_csv(zset: ZeroSet, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,gamma,zprime_re,zprime_im,z2_re,z2_im\n")
        for k in range(len(zset)):
            fh.write(f"{k + 1},{zset.gammas[k]:.13f},"
                     f"{zset.zprimes[k].real:.16e},{zset.zprimes[k].imag:.16e},"
                     f"{zset.z2rhos[k].real:.16e},{zset.z2rhos[k].imag:.16e}\n")


def bundled_ordinates(count: int | None = None) -> list[float]:
    """Ordinates shipped with the package (10^4 zeros, 13 decimals)."""
    ref = resources.files("liouconv").joinpath("data/zeros_10k.txt")
    with ref.open() as fh:
        ords = load_ordinates(fh)
    return ords if count is None else ords[:count]
