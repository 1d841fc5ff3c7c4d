"""Output checks, run by ``run.py`` after each interpreter has exited.

Integers are checked bit-exact: digests measured on the first version of
the package, plus independent brute-force values at seed-chosen
positions.  Zero-sum reports are checked for shape and internal
consistency, and against an independent evaluation of the same truncated
formulas with ``scipy.special.loggamma`` at seed-chosen rows, at a
stated tolerance: a change to the summation order may move the last
bits.  Enriched zeta values are spot-checked against mpmath.

Every check returns a list of problems per CLI call name; an empty list
means the call's output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import loggamma

import workloads as W

SIEVE_VALUES_SHA256 = \
    "335e74f78e3c07376ed9df652c71b70093a808eb7ba779ed99fa9de000ea0d0e"
SIEVE_PREFIX_AT_LIMIT = -842          # L(10^7)
D2_VALUES_SHA256 = \
    "b904fda2ab568885291c952092971e44fd84883fdf5c9dcfe76161a2ef351399"
D3_VALUES_SHA256 = \
    "ae2058cf7d5e1e49344c81c56a13c4ded28da9db1c439cd3a7857a529a991232"

# Independent re-evaluation of a zero sum must agree to this share of the
# sum of the absolute values of its terms.  Pruned pair terms are each
# below 1e-18 of the formula's scale and add PRUNE_SHARE of it at most.
SUM_RTOL = 1e-9
PRUNE_SHARE = 1e-12
ZETA_RTOL = 1e-8          # enriched zeta values against mpmath
IDENTITY_TOL = 1e-8       # verify identity relative residuals
IMAG_TOL = 1e-8           # realness: discarded |Im| over 1 + |total|


# ---------------------------------------------------------------------------
# independent arithmetic


def liouville_trial(n):
    """lambda(n) by trial division."""
    omega = 0
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            omega += 1
        p += 1
    if n > 1:
        omega += 1
    return -1 if omega & 1 else 1


def liouville_upto(limit):
    """lambda(0..limit) from Omega counted over every prime power."""
    omega = np.zeros(limit + 1, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, limit + 1):
        if not is_prime[p]:
            continue
        is_prime[2 * p::p] = False
        pk = p
        while pk <= limit:
            omega[pk::pk] += 1
            pk *= p
    lam = np.where(omega & 1, -1, 1).astype(np.int64)
    lam[0] = 0
    return lam


def read_ordinates(path):
    """Ordinates of an ``index gamma`` text file, parsed as Python floats."""
    with open(path) as fh:
        return np.array([float(line.split()[-1]) for line in fh
                         if line.strip()])


def read_zero_cache(path):
    """(gammas, zeta'(rho), zeta(2 rho)) from a zero cache, checksum verified."""
    blob = Path(path).read_bytes()
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("checksum trailer does not match")
    if body[:9] != b"ZEROCACHE" or body[9] != 1:
        raise ValueError("not a version-1 zero cache")
    count, _tol = struct.unpack_from("<Qd", body, 10)
    off = 26
    g = np.frombuffer(body, np.float64, count, off)
    zp = np.frombuffer(body, np.complex128, count, off + 8 * count)
    z2 = np.frombuffer(body, np.complex128, count, off + 24 * count)
    return g, zp, z2


def read_report(path):
    """(columns, summary) of a CSV report; numeric columns become floats."""
    text = Path(path).read_text()
    table, _, tail = text.partition("\n\n")
    lines = table.splitlines()
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = {}
    for i, k in enumerate(names):
        column = [r[i] for r in rows]
        try:
            cols[k] = np.array([float(v) for v in column])
        except ValueError:
            cols[k] = np.array(column)
    summary = dict(ln.split(",", 1) for ln in tail.splitlines()[1:] if ln)
    return cols, summary


def read_series_csv(path, limit):
    """S_d(0..limit) from an ``n,value`` export, with 0 below the first row."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    values = np.zeros(limit + 1, dtype=np.int64)
    if data.shape[0] != limit - int(data[0, 0]) + 1 or \
            not np.array_equal(data[:, 0], np.arange(data[0, 0], limit + 1)):
        raise ValueError("rows do not run over consecutive n up to the limit")
    values[data[:, 0]] = data[:, 1]
    return values


# ---------------------------------------------------------------------------
# zero sums, evaluated independently


class ZeroSums:
    """The Liouville formulas' pieces, from a zero set read back from a cache."""

    def __init__(self, g, zp, z2):
        self.zh = float(mpmath.zeta(0.5))
        self.rho = 0.5 + 1j * g
        self.coeff = z2 / zp           # zeta(2 rho) / zeta'(rho)
        self.lg = loggamma(self.rho)
        self._pairs = None

    def cesaro(self, x):
        """(main, single, double, double mass, single mass), d = 2 Cesaro."""
        lx = math.log(x)
        rho, c = self.rho, self.coeff
        main = x * x * math.pi / (8.0 * self.zh * self.zh)
        st = (math.sqrt(math.pi) / self.zh) * c * np.exp(
            self.lg - loggamma(rho + 2.5) + (rho + 1.5) * lx)
        if self._pairs is None:
            # every ordered pair (i, j) with z2 = rho_j or conj rho_j; the
            # conjugate of both gives the complex conjugate term
            z1 = rho[:, None]
            self._pairs = []
            for zj, cj, lgj in ((rho, c, self.lg),
                                (np.conj(rho), np.conj(c), np.conj(self.lg))):
                self._pairs.append((c[:, None] * cj[None, :],
                                    self.lg[:, None] + lgj[None, :]
                                    - loggamma(z1 + zj[None, :] + 2.0),
                                    z1 + zj[None, :] + 1.0))
        double = 0.0
        mass = 0.0
        for cc, lgk, power in self._pairs:
            t = cc * np.exp(lgk + power * lx)
            double += 2.0 * float(np.sum(t.real))
            mass += 2.0 * float(np.sum(np.abs(t)))
        return (main, 2.0 * float(np.sum(st.real)),
                double, mass, 2.0 * float(np.sum(np.abs(st))))

    def summatory(self, x):
        """(main, single, single mass) of the Liouville L(x) formula."""
        t = self.coeff * np.exp(self.rho * math.log(x)) / self.rho
        return (math.sqrt(x) / self.zh + 1.0, 2.0 * float(np.sum(t.real)),
                2.0 * float(np.sum(np.abs(t))))

    def exponential(self, y):
        """(main, single, double, mass) of the Liouville exponential formula."""
        ly = math.log(y)
        inner = 2.0 * (self.coeff * np.exp(self.lg - self.rho * ly)).real
        single = 2.0 * ((math.sqrt(math.pi) / self.zh) * self.coeff
                        * np.exp(self.lg + (-self.rho - 0.5) * ly)).real
        s_in = float(np.sum(inner))
        mass = float(np.sum(np.abs(single))) + \
            float(np.sum(np.abs(inner))) * (abs(s_in) + 1.0)
        return (math.pi / (4.0 * self.zh * self.zh * y), float(np.sum(single)),
                s_in * s_in, mass)


def _check_cache(path, ordinates, picks):
    """Problems of an enriched zero cache, and its arrays when readable."""
    try:
        g, zp, z2 = read_zero_cache(path)
    except (OSError, ValueError) as exc:
        return [f"zero cache {path.name}: {exc}"], None
    problems = []
    if g.size != ordinates.size or not np.array_equal(g, ordinates):
        problems.append(f"cache ordinates differ from the {ordinates.size} "
                        f"input ordinates")
        return problems, None
    for k in picks["zero_index"]:
        s = mpmath.mpc(0.5, g[k])
        want_zp = complex(mpmath.zeta(s, derivative=1))
        want_z2 = complex(mpmath.zeta(2 * s))
        for label, got, want in (("zeta'(rho)", zp[k], want_zp),
                                 ("zeta(2 rho)", z2[k], want_z2)):
            if abs(got - want) > ZETA_RTOL * abs(want):
                problems.append(f"{label} at zero {k + 1}: {got!r} vs mpmath "
                                f"{want!r}")
    return problems, (g, zp, z2)


def _check_zero_report(path, rows, zeros_used, axis):
    """Shape, realness and total = main + single + double of a zero-sum report."""
    try:
        cols, summary = read_report(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"report {path.name}: {exc}"], None
    missing = {axis, "main_term", "single_sum", "double_sum", "total",
               "zeros_used"} - set(cols)
    if missing:
        return [f"{path.name}: no column {sorted(missing)}"], None
    problems = []
    if len(cols["total"]) != rows or summary.get("rows") != str(rows):
        problems.append(f"{path.name}: expected {rows} rows")
        return problems, None
    if not np.all(cols["zeros_used"] == zeros_used):
        problems.append(f"{path.name}: zeros_used is not {zeros_used}")
    parts = cols["main_term"] + cols["single_sum"] + cols["double_sum"]
    mass = (np.abs(cols["main_term"]) + np.abs(cols["single_sum"])
            + np.abs(cols["double_sum"]))
    if not np.all(np.abs(cols["total"] - parts) <= 1e-12 * mass):
        problems.append(f"{path.name}: total != main + single + double")
    if not all(np.all(np.isfinite(v)) for v in cols.values()
               if v.dtype.kind == "f"):
        problems.append(f"{path.name}: non-finite values")
    imag = float(summary.get("max_relative_imag", "nan"))
    if not imag < IMAG_TOL:
        problems.append(f"{path.name}: relative imaginary residue {imag}")
    return problems, cols


# ---------------------------------------------------------------------------
# per workload


def check_cesaro_pairs(work, plan, ordinates):
    out = {"zeros-enrich": [], "verify-cesaro": []}
    probs, zset = _check_cache(work / f"zeros-{W.CESARO_ZEROS}.npz",
                               ordinates[:W.CESARO_ZEROS], plan.picks)
    out["zeros-enrich"] += probs
    probs, cols = _check_zero_report(work / "cesaro.csv", W.CESARO_SAMPLES,
                                     W.CESARO_ZEROS, "x")
    out["verify-cesaro"] += probs
    if cols is None:
        return out
    grid = np.geomspace(plan.picks["lo"], W.CESARO_LIMIT, W.CESARO_SAMPLES)
    if not np.allclose(cols["x"], grid, rtol=1e-12, atol=0.0):
        out["verify-cesaro"].append("sample grid differs from the request")
    if zset is None:
        out["verify-cesaro"].append("no readable zero cache to check against")
        return out
    sums = ZeroSums(*zset)
    for r in plan.picks["rows"]:
        x = float(cols["x"][r])
        main, single, double, dmass, smass = sums.cesaro(x)
        scale = max(abs(main), abs(single), 1.0)
        for label, key, want, tol in (
                ("main", "main_term", main, SUM_RTOL * abs(main)),
                ("single", "single_sum", single, SUM_RTOL * smass),
                ("double", "double_sum", double,
                 SUM_RTOL * dmass + PRUNE_SHARE * scale)):
            if not abs(cols[key][r] - want) <= tol:
                out["verify-cesaro"].append(
                    f"{label} sum at x={x!r}: {cols[key][r]!r} vs independent "
                    f"{want!r} (tolerance {tol:.3g})")
    return out


def check_exact_series(work, plan):
    out = {"sieve": [], "convolve-d2": [], "convolve-d3": [],
           "verify-identity": []}
    lam = None
    try:
        raw = (work / "sieve-table.npz").read_bytes()
        body = np.frombuffer(raw, np.int8, offset=16)
        if raw[:9] != b"LAMBDATBL" or \
                int.from_bytes(raw[10:16], "little") != W.SIEVE_LIMIT:
            out["sieve"].append("table header is not lambda up to 10^7")
        elif hashlib.sha256(body).hexdigest() != SIEVE_VALUES_SHA256:
            out["sieve"].append("table values digest differs")
        lam = np.zeros(W.SIEVE_LIMIT + 1, dtype=np.int64)
        lam[1:] = body
        manifest = json.loads(
            (work / "sieve-table.npz.manifest.json").read_text())
        for label, got in (("table sum", int(lam.sum())),
                           ("manifest", manifest["results"]
                            ["summatory_at_limit"])):
            if got != SIEVE_PREFIX_AT_LIMIT:
                out["sieve"].append(f"L(10^7) from {label} is {got}")
        bad = [n for n in plan.picks["sieve_n"]
               if lam[n] != liouville_trial(n)]
        if bad:
            out["sieve"].append(f"lambda(n) wrong at n in {bad[:5]}")
    except (OSError, ValueError, KeyError) as exc:
        out["sieve"].append(f"sieve output: {exc}")
        lam = None

    series = {}
    for name, d, limit, digest, key in (
            ("convolve-d2", 2, W.D2_LIMIT, D2_VALUES_SHA256, "d2_n"),
            ("convolve-d3", 3, W.D3_LIMIT, D3_VALUES_SHA256, "d3_n")):
        path = work / f"conv-d{d}.csv"
        try:
            manifest = json.loads(
                Path(f"{path}.manifest.json").read_text())
            values = read_series_csv(path, limit)
        except (OSError, ValueError, KeyError) as exc:
            out[name].append(f"series output: {exc}")
            continue
        if manifest["results"]["values_sha256"] != digest:
            out[name].append("manifest values_sha256 differs")
        if hashlib.sha256(values.tobytes()).hexdigest() != digest:
            out[name].append("exported values digest differs")
        series[d] = values
        if lam is None or (d == 3 and 2 not in series):
            out[name].append("no checked input for the brute-force values")
            continue
        for n in plan.picks[key]:
            if d == 2:
                want = int(np.dot(lam[1:n], lam[n - 1:0:-1]))
            else:
                want = int(np.dot(lam[1:n - 1], series[2][n - 1:1:-1]))
            if int(values[n]) != want:
                out[name].append(f"S_{d}({n}) = {int(values[n])}, brute "
                                 f"force {want}")

    try:
        cols, summary = read_report(work / "identity.csv")
        if len(cols["rel_residual"]) != W.IDENTITY_TRIALS:
            out["verify-identity"].append("wrong row count")
        elif not (summary.get("identity_ok") == "true"
                  and np.all(cols["rel_residual"] <= IDENTITY_TOL)):
            out["verify-identity"].append("identity residual above 1e-8")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out["verify-identity"].append(f"identity report: {exc}")
    return out


def check_zeros_summatory(work, plan, ordinates):
    out = {"zeros-enrich": [], "verify-L": [], "verify-exponential": []}
    probs, zset = _check_cache(work / f"zeros-{W.ALL_ZEROS}.npz", ordinates,
                               plan.picks)
    out["zeros-enrich"] += probs
    probs, lcols = _check_zero_report(work / "L.csv", W.L_SAMPLES,
                                      W.ALL_ZEROS, "x")
    out["verify-L"] += probs
    probs, ecols = _check_zero_report(work / "exponential.csv",
                                      W.EXPONENTIAL_YS, W.EXPONENTIAL_ZEROS,
                                      "y")
    out["verify-exponential"] += probs
    if lcols is not None and "direct" in lcols:
        prefix = np.cumsum(liouville_upto(W.SUMMATORY_LIMIT))
        want = prefix[np.floor(lcols["x"]).astype(np.int64)]
        if not np.array_equal(lcols["direct"], want):
            out["verify-L"].append("direct L(x) differs from brute force")
    if zset is None:
        return out
    if lcols is not None:
        sums = ZeroSums(*zset)
        for r in plan.picks["rows"]:
            x = float(lcols["x"][r])
            main, single, mass = sums.summatory(x)
            for label, key, want, tol in (
                    ("main", "main_term", main, SUM_RTOL * abs(main)),
                    ("single", "single_sum", single, SUM_RTOL * mass)):
                if not abs(lcols[key][r] - want) <= tol:
                    out["verify-L"].append(
                        f"{label} at x={x!r}: {lcols[key][r]!r} vs {want!r}")
    if ecols is not None:
        g, zp, z2 = zset
        k = W.EXPONENTIAL_ZEROS
        sums = ZeroSums(g[:k], zp[:k], z2[:k])
        for r, y in enumerate(ecols["y"]):
            main, single, double, mass = sums.exponential(float(y))
            for label, key, want in (("main", "main_term", main),
                                     ("single", "single_sum", single),
                                     ("double", "double_sum", double)):
                tol = SUM_RTOL * (mass + abs(main))
                if not abs(ecols[key][r] - want) <= tol:
                    out["verify-exponential"].append(
                        f"{label} at y={y!r}: {ecols[key][r]!r} vs {want!r}")
    return out


def check(work, plan, ordinates):
    """Problems per call name for the outputs left in ``work``."""
    if plan.workload == "cesaro-pairs":
        return check_cesaro_pairs(work, plan, ordinates)
    if plan.workload == "exact-series":
        return check_exact_series(work, plan)
    return check_zeros_summatory(work, plan, ordinates)
