#!/usr/bin/env python3
"""Generate the bundled table of nontrivial-zero ordinates.

Strategy: bracket sign changes of the Riemann-Siegel Z function on a grid
fine enough to split the closest known pair below 1e4 (gap ~ 0.0377 near
t = 7005), then polish every bracket with Newton iterations driven by the
package's own Euler-Maclaurin zeta.  A random sample is cross-checked
against mpmath.zetazero and the total count against mpmath.nzeros.

Run from the repository root:

    python scripts/make_zero_table.py --count 10000 --out src/liouconv/data/zeros_10k.txt
"""

import argparse
import math
import sys
import time

import numpy as np

sys.path.insert(0, "src")
from liouconv import specfun  # noqa: E402


def rs_theta(t):
    """Riemann-Siegel theta, asymptotic form (fine for t >= 10)."""
    return (t / 2.0 * np.log(t / (2.0 * np.pi)) - t / 2.0 - np.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3))


def rs_z(t):
    """Riemann-Siegel Z with the first correction term.

    Error is below ~0.13 * t^(-3/4) (a few 1e-4 at t ~ 7000), enough to
    separate every pair below 1e4 on a 0.005 grid.
    """
    t = np.asarray(t, dtype=np.float64)
    a = np.sqrt(t / (2.0 * np.pi))
    m = np.floor(a).astype(np.int64)
    theta = rs_theta(t)
    z = np.zeros_like(t)
    for n in range(1, int(m.max()) + 1):
        mask = m >= n
        z[mask] += (n ** -0.5) * np.cos(theta[mask] - t[mask] * math.log(n))
    z *= 2.0
    p = a - m
    psi = np.cos(2.0 * np.pi * (p * p - p - 1.0 / 16.0)) / np.cos(2.0 * np.pi * p)
    z += (-1.0) ** (m + 1) * a ** -0.5 * psi
    return z


def bracket_zeros(t_lo, t_hi, step):
    grid = np.arange(t_lo, t_hi, step)
    z = np.empty_like(grid)
    chunk = 200_000
    for lo in range(0, grid.size, chunk):
        z[lo:lo + chunk] = rs_z(grid[lo:lo + chunk])
    sign = np.sign(z)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return grid[flips], grid[flips + 1]


def newton_polish(t0, sweeps=5):
    """Newton on zeta(1/2 + i t) along the critical line, vectorized."""
    t = t0.copy()
    for _ in range(sweeps):
        val, der = specfun.zeta_pair(0.5 + 1j * t)
        t = t - np.imag(val / der)
    return t


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=10000)
    ap.add_argument("--step", type=float, default=0.005)
    ap.add_argument("--out", default="src/liouconv/data/zeros_10k.txt")
    ap.add_argument("--sample", type=int, default=120,
                    help="random indices to cross-check against mpmath")
    args = ap.parse_args()

    # Invert N(T) ~ (T/2pi) log(T/(2 pi e)) for the window top, then pad.
    t_hi = 100.0
    for _ in range(60):
        t_hi = 2.0 * math.pi * args.count / math.log(t_hi / (2.0 * math.pi * math.e))
    t_hi = t_hi * 1.02 + 50
    t0 = time.time()
    lo, hi = bracket_zeros(14.0, t_hi, args.step)
    print(f"brackets: {lo.size} in [14, {t_hi:.0f}] ({time.time()-t0:.1f}s)")
    if lo.size < args.count:
        raise SystemExit("window too small, raise t_hi")
    mid = 0.5 * (lo[:args.count] + hi[:args.count])

    t0 = time.time()
    gam = newton_polish(mid)
    print(f"newton: {time.time()-t0:.1f}s")

    res = np.abs(specfun.zeta(0.5 + 1j * gam))
    print(f"max residual |zeta(1/2+i g)|: {res.max():.3e}")
    gaps = np.diff(gam)
    print(f"min gap: {gaps.min():.6f} (must be > 0)")
    if res.max() > 1e-9 or gaps.min() <= 0:
        raise SystemExit("polish failed")

    import mpmath as mp
    mp.mp.dps = 25
    rng = np.random.default_rng(7)
    idx = np.unique(np.concatenate([
        np.arange(1, 21),
        rng.integers(21, args.count + 1, size=args.sample),
        [args.count],
    ]))
    worst = 0.0
    t0 = time.time()
    for k in idx:
        ref = float(mp.im(mp.zetazero(int(k))))
        worst = max(worst, abs(ref - gam[k - 1]))
    print(f"mpmath sample ({idx.size} pts): worst |delta| = {worst:.3e} "
          f"({time.time()-t0:.0f}s)")
    if worst > 5e-11:
        raise SystemExit("sample check failed")

    n_below = int(mp.nzeros(float(gam[-1]) + 0.25 * float(gaps.min())))
    print(f"mpmath.nzeros just above gamma_{args.count}: {n_below}")
    if n_below != args.count:
        raise SystemExit("count mismatch: a zero was missed or duplicated")

    with open(args.out, "w") as fh:
        for k, g in enumerate(gam, start=1):
            fh.write(f"{k} {g:.13f}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
