"""Zero-ordinate ingestion, enrichment and persistence.

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

    One specfun.zeta_triple call gives all three sums from one table of
    n^-rho per chunk of zeros: zeta(rho), for the residual check, and
    zeta'(rho) from the start of the table, bit for bit as zeta_pair
    gives them; zeta(2 rho) = zeta(1 + 2 i gamma) from its squares.

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
    zetas, zprimes, z2 = specfun.zeta_triple(0.5 + 1j * g)
    residual = np.abs(zetas)
    bad = np.nonzero(residual >= RESIDUAL_TOL)[0]
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"ordinate {g[k]!r} (position {k + 1}) fails the residual "
            f"check: |zeta(1/2+i gamma)| = {residual[k]:.3e} >= {RESIDUAL_TOL}")
    small = np.nonzero(np.abs(zprimes) < _MIN_ZPRIME)[0]
    if small.size:
        k = int(small[0])
        raise ValueError(
            f"ordinate {g[k]!r}: |zeta'(rho)| = {np.abs(zprimes[k]):.3e} "
            f"< {_MIN_ZPRIME}; simple-zero assumption violated")
    return ZeroSet(gammas=g, zprimes=zprimes, z2rhos=z2)


def truncate(zset: ZeroSet, count: int) -> ZeroSet:
    """The first count zeros of a ZeroSet (all of them if it has fewer)."""
    k = min(len(zset), int(count))
    return ZeroSet(gammas=zset.gammas[:k], zprimes=zset.zprimes[:k],
                   z2rhos=zset.z2rhos[:k])


def save_cache(zset: ZeroSet, path) -> None:
    """Versioned binary cache: header, raw arrays, sha256 trailer.

    The header records the enrichment residual bound RESIDUAL_TOL.
    """
    body = (_CACHE_MAGIC
            + bytes([_CACHE_VERSION])
            + struct.pack("<Qd", len(zset), RESIDUAL_TOL)
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
    (count,) = struct.unpack_from("<Q", body, 10)
    off = 10 + 16
    if len(body) != off + 40 * count:
        raise ValueError(
            f"zero cache: header says {count} zeros, which need a "
            f"{off + 40 * count}-byte body, but the body has {len(body)} bytes")
    g = np.frombuffer(body, dtype=np.float64, count=count, offset=off).copy()
    off += 8 * count
    zp = np.frombuffer(body, dtype=np.complex128, count=count, offset=off).copy()
    off += 16 * count
    z2 = np.frombuffer(body, dtype=np.complex128, count=count, offset=off).copy()
    return ZeroSet(gammas=g, zprimes=zp, z2rhos=z2)


def is_cache(path) -> bool:
    """Whether the file starts with the zero-cache magic bytes."""
    with open(path, "rb") as fh:
        return fh.read(len(_CACHE_MAGIC)) == _CACHE_MAGIC


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
