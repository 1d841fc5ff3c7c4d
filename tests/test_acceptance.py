"""The acceptance gate: thirteen timed end-to-end checks.

Each test computes its own verdict and hands `criterion` one line for
the summary table before asserting, so a failing criterion still shows
its measured numbers next to the passing ones.
"""

import json
import math
import subprocess
import sys
from time import perf_counter

import numpy as np

from liouconv import convolve, explicit, sieve, specfun, zeros
from oracles import laplace_convolution_exact


def test_criterion_01_sieve_identities(criterion):
    t0 = perf_counter()
    limit = 10 ** 5
    lam = sieve.build_sieve(sieve.KIND_LIOUVILLE, limit).values
    mu = sieve.build_sieve(sieve.KIND_MOEBIUS, limit).values

    div = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        div[d::d] += lam[d]
    squares = np.zeros(limit + 1, dtype=np.int64)
    squares[np.arange(1, math.isqrt(limit) + 1) ** 2] = 1
    ok_div = bool(np.array_equal(div[1:], squares[1:]))

    sq_sum = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        step = d * d
        sq_sum[step::step] += mu[1:limit // step + 1]
    ok_sq = bool(np.array_equal(sq_sum[1:], lam[1:].astype(np.int64)))

    dt = perf_counter() - t0
    ok = ok_div and ok_sq and dt < 5.0
    criterion(1, ok,
              f"divisor-sum and square-part identities for n <= 1e5 "
              f"(divisor {ok_div}, square {ok_sq}, {dt:.2f}s)")


def test_criterion_02_fft_equals_naive(criterion):
    t0 = perf_counter()
    limit = 4096
    mismatches = []
    for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
        table = sieve.build_sieve(kind, limit)
        for d in (2, 3, 4):
            fast = convolve.convolve_fft(table, d, limit)
            slow = convolve.convolve_naive(table, d, limit)
            if not np.array_equal(fast.values, slow.values):
                mismatches.append((kind, d))
    dt = perf_counter() - t0
    ok = not mismatches and dt < 10.0
    criterion(2, ok,
              f"fft == naive exactly, d in 2..4, both kinds, N=4096 "
              f"(mismatches {mismatches}, {dt:.2f}s)")


def test_criterion_03_convolution_bound(criterion):
    t0 = perf_counter()
    limit = 10 ** 6
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, limit)
    series = convolve.convolve_fft(table, 2, limit)
    n = np.arange(2, limit + 1, dtype=np.int64)
    slack = np.abs(series.values[2:]) - (n - 1)
    equality_ns = (np.where(slack == 0)[0] + 2).tolist()
    worst = int(slack.max())
    dt = perf_counter() - t0
    ok = worst < 0 and dt < 30.0
    criterion(3, ok,
              f"|S(N)| < N-1 for 2 <= N <= 1e6: max |S|-(N-1) = {worst}, "
              f"equality at N in {equality_ns}, strict elsewhere "
              f"({dt:.2f}s)")


def test_criterion_04_cesaro_laplace_identity(criterion):
    t0 = perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
        table = sieve.build_sieve(kind, 5000)
        for d in (2, 3):
            series = convolve.convolve_fft(table, d, 5000)
            for x in rng.uniform(0.0, 5000.0, 50):
                if x <= 0.0:
                    continue
                gap = abs(convolve.cesaro_sum(series, x)
                          - laplace_convolution_exact(table, x, d))
                worst = max(worst, gap / (1.0 + x * x))
    dt = perf_counter() - t0
    ok = worst <= 1e-9 and dt < 60.0
    criterion(4, ok,
              f"Cesaro vs exact Laplace convolution, 200 random x "
              f"(worst normalized gap {worst:.3e}, {dt:.2f}s)")


def test_criterion_05_weighted_identity(criterion):
    t0 = perf_counter()
    rng = np.random.default_rng(5150)
    limit = 4096
    tables = {k: sieve.build_sieve(k, limit)
              for k in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS)}
    worst = 0.0
    boundary_cases = 0
    for t in range(20):
        kind = (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS)[t % 2]
        d = 2 + ((t // 2) % 2)
        shape = t % 3
        if shape == 0:
            a = 0.0
        elif shape == 1:
            a = float(rng.uniform(0.05, 0.9))
        else:
            a = float(rng.uniform(1.0, 4.0))
        b = a + float(rng.uniform(1.0, 3.0))
        eta = float(rng.uniform(15.0, min(60.0, (limit - 2) / b)))
        power = int(rng.integers(2, 5))
        w = explicit.PolynomialWeight(a, b, eta, power=power)
        if w.boundary_applies:
            boundary_cases += 1
        wa = explicit.WeightedAverage(w, tables[kind], d)
        direct = explicit.weighted_average_direct(wa)
        rhs = explicit.weighted_average_rhs(wa)
        worst = max(worst, abs(direct - rhs) / max(1.0, abs(direct)))
    dt = perf_counter() - t0
    ok = worst <= 1e-8 and boundary_cases >= 5 and dt < 120.0
    criterion(5, ok,
              f"weighted-average identity, 20 randomized configs "
              f"({boundary_cases} with the boundary term, worst relative "
              f"residual {worst:.3e}, {dt:.2f}s)")


def test_criterion_06_dirichlet_partial_summation(criterion):
    t0 = perf_counter()
    n_cap = h_cap = 10 ** 4
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, n_cap)
    series = convolve.convolve_fft(table, 2, n_cap)
    vals = series.values.astype(np.float64)
    pref = np.cumsum(vals)
    pref_n = np.cumsum(vals * np.arange(n_cap + 1))
    worst = 0.0
    for s in (6.0 + 0j, 6.0 + 2.0j):
        direct = explicit.dirichlet_direct(series, s, n_cap)
        k = np.arange(1, h_cap, dtype=np.float64)
        piece = (pref[1:h_cap] * (k ** (-s) - (k + 1.0) ** (-s)) / s
                 + pref_n[1:h_cap]
                 * ((k + 1.0) ** (-s - 1) - k ** (-s - 1)) / (s + 1.0))
        integral = complex(math.fsum(piece.real), math.fsum(piece.imag))
        rhs = (s * (s + 1.0) * integral
               + (s + 1.0) * pref[n_cap] * h_cap ** (-s)
               - s * pref_n[n_cap] * h_cap ** (-s - 1.0))
        worst = max(worst, abs(direct - rhs))
    dt = perf_counter() - t0
    ok = worst < 1e-6 and dt < 30.0
    criterion(6, ok,
              f"Dirichlet partial-summation identity at s=6 and 6+2i, "
              f"N=H=1e4 (worst residual {worst:.3e}, {dt:.2f}s)")


def test_criterion_07_summatory_truncation_monotonicity(criterion, zs10k):
    t0 = perf_counter()
    grid = np.geomspace(10.0, 1e4, 50)
    detail = []
    ok = True
    for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
        table = sieve.build_sieve(kind, 10 ** 4)
        medians = []
        for count in (100, 1000, 10000):
            zsub = zeros.truncate(zs10k, count=count)
            resid = [abs(sieve.summatory(table, x)
                         - explicit.explicit_summatory(kind, float(x),
                                                       zsub).total)
                     for x in grid]
            medians.append(float(np.median(resid)))
        kind_ok = medians[0] > medians[1] > medians[2] and medians[2] <= 5.0
        ok = ok and kind_ok
        detail.append(f"{kind} medians "
                      + "/".join(f"{m:.3f}" for m in medians))
    dt = perf_counter() - t0
    ok = ok and dt < 240.0
    criterion(7, ok, "; ".join(detail) + f" ({dt:.1f}s)")


def test_criterion_08_cesaro_formula_scale(criterion, zs1000):
    t0 = perf_counter()
    limit = 10 ** 6
    detail = []
    ok = True
    for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
        table = sieve.build_sieve(kind, limit)
        series = convolve.convolve_fft(table, 2, limit)
        ratios = []
        for x in (1e3, 1e4, 1e5, 1e6):
            direct = convolve.cesaro_sum(series, x)
            bd = explicit.explicit_cesaro(kind, x, zs1000, d=2)
            ratios.append(abs(direct - bd.total) / x ** 1.5)
        kind_ok = max(ratios) <= 50.0
        detail.append(f"{kind} max |gap|/x^1.5 = {max(ratios):.2f}")
        if kind == sieve.KIND_LIOUVILLE:
            grid = np.geomspace(1e3, 1e6, 40)
            mean_ratio = float(np.mean(
                [convolve.cesaro_sum(series, float(x)) / float(x) ** 2
                 for x in grid]))
            lead = math.pi / (8.0 * specfun.zeta_half() ** 2)
            kind_ok = kind_ok and abs(mean_ratio - lead) <= 0.03
            detail.append(f"mean C/x^2 = {mean_ratio:.5f} vs {lead:.5f}")
        ok = ok and kind_ok
    dt = perf_counter() - t0
    ok = ok and dt < 600.0
    criterion(8, ok, "; ".join(detail) + f" ({dt:.1f}s)")


def test_criterion_09_exponential_average(criterion, zs10k):
    t0 = perf_counter()
    limit = 10 ** 4
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, limit)
    series = convolve.convolve_fft(table, 2, limit)
    target = math.pi / (4.0 * specfun.zeta_half() ** 2)
    deficits = []
    for y in (0.1, 0.05, 0.02, 0.01):
        direct = explicit.exponential_direct(series, y, limit)
        deficits.append(abs(y * direct - target))
    monotone = all(b < a for a, b in zip(deficits, deficits[1:]))
    z100 = zeros.truncate(zs10k, count=100)
    bd = explicit.exponential_explicit(sieve.KIND_LIOUVILLE, 0.01, z100)
    resid = abs(explicit.exponential_direct(series, 0.01, limit) - bd.total)
    dt = perf_counter() - t0
    ok = monotone and deficits[-1] < 0.05
    criterion(9, ok,
              f"exponential deficit monotone={monotone}, values "
              + "/".join(f"{v:.5f}" for v in deficits)
              + f", final < 0.05 required; 100-zero residual {resid:.3f} "
              f"vs envelope {bd.envelope:.3f} ({dt:.2f}s)")


def test_criterion_10_double_series_convergence(criterion, zs1000):
    t0 = perf_counter()
    ratios = {}
    for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
        cuts = explicit.double_series_diagnostic(zs1000, 1.0, kind, 1000)
        ratios[kind] = cuts[3] / cuts[2]
    dt = perf_counter() - t0
    ok = all(r < 1.01 for r in ratios.values()) and dt < 60.0
    criterion(10, ok,
              "A(1000)/A(500) = "
              + ", ".join(f"{k} {r:.4f}" for k, r in ratios.items())
              + f" vs < 1.01 required ({dt:.2f}s)")


def test_criterion_11_special_function_spot_checks(criterion):
    t0 = perf_counter()
    gamma_ok = True
    for y in (1.0, 14.134725, 50.0):
        sq = math.exp(2.0 * specfun.log_gamma(0.5 + 1j * y).real)
        want = math.pi / math.cosh(math.pi * y)
        gamma_ok = gamma_ok and abs(sq - want) <= 1e-10 * want
    zeta_ok = abs(specfun.zeta(2.0).real - math.pi ** 2 / 6.0) <= 1e-12

    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < 10:
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-100.0, 100.0))
        if abs(s - 1.0) < 0.1:
            continue
        got = specfun.zeta_pair(s)[1]
        fd = (specfun.zeta(s + h) - specfun.zeta(s - h)) / (2.0 * h)
        worst = max(worst, abs(got - fd) / abs(fd))
        checked += 1
    dt = perf_counter() - t0
    ok = gamma_ok and zeta_ok and worst <= 1e-6
    criterion(11, ok,
              f"gamma half-line {gamma_ok}, zeta(2) {zeta_ok}, "
              f"zeta' vs central difference worst rel {worst:.3e} "
              f"({dt:.2f}s)")


def _stderr_tail(proc):
    """Detail suffix naming a failed child's last stderr line; '' on exit 0."""
    if proc.returncode == 0:
        return ""
    lines = proc.stderr.strip().splitlines()
    return f"; stderr: {lines[-1] if lines else '(empty)'}"


def test_criterion_12_worker_count_reproducibility(criterion, zs1000,
                                                   tmp_path, cli_env):
    t0 = perf_counter()
    cache = tmp_path / "zeros-1000.npz"
    zeros.save_cache(zs1000, cache)
    outputs = {}
    codes = {}
    errors = ""
    for workers in (1, 8):
        out = tmp_path / f"cesaro-w{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "liouconv.cli", "verify", "cesaro",
             "--limit", "1000000", "--zeros", str(cache),
             "--count", "1000", "--samples", "log:40:1000:1000000",
             "--workers", str(workers), "--output", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env)
        codes[workers] = proc.returncode
        errors += _stderr_tail(proc)
        outputs[workers] = out.read_bytes() if out.exists() else b""
    identical = outputs[1] == outputs[8] and len(outputs[1]) > 0
    dt = perf_counter() - t0
    ok = identical and codes == {1: 0, 8: 0}
    criterion(12, ok,
              f"verify cesaro with 1 vs 8 workers: exit codes "
              f"{codes[1]}/{codes[8]}, reports "
              f"{'identical' if identical else 'DIFFER'} "
              f"({len(outputs[1])} bytes, {dt:.1f}s){errors}")


def test_criterion_13_fft_speedup(criterion, tmp_path, cli_env):
    t0 = perf_counter()
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "-m", "liouconv.cli", "bench",
         "--limit", str(1 << 18), "--format", "json",
         "--output", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env)
    manifest_path = tmp_path / "bench.json.manifest.json"
    speedup = 0.0
    if manifest_path.exists():
        results = json.loads(manifest_path.read_text())["results"]
        speedup = float(results.get("convolve_d2_speedup") or 0.0)
    dt = perf_counter() - t0
    ok = proc.returncode == 0 and speedup >= 10.0
    criterion(13, ok,
              f"bench at N=2^18 d=2: fft speedup {speedup:.1f}x vs 10x "
              f"required, exit {proc.returncode} ({dt:.1f}s)"
              f"{_stderr_tail(proc)}")
