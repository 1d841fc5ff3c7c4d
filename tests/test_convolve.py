"""Convolution series: brute-force oracles, method agreement, exact sums."""

import math
from fractions import Fraction

import numpy as np
import pytest

from liouconv import convolve, sieve
from oracles import laplace_convolution_exact


def _brute_series(values, d, limit):
    """Python-int repeated convolution; slow and unimpeachable."""
    cur = [int(v) for v in values[:limit + 1]]
    for _ in range(d - 1):
        nxt = [0] * (limit + 1)
        for i, vi in enumerate(cur):
            if vi == 0:
                continue
            for j in range(1, limit + 1 - i):
                nxt[i + j] += vi * int(values[j])
        cur = nxt
    cur[:min(d, limit + 1)] = [0] * min(d, limit + 1)
    return cur


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
@pytest.mark.parametrize("d", [2, 3])
def test_naive_matches_brute_force(kind, d):
    limit = 240
    table = sieve.build_sieve(kind, limit)
    series = convolve.convolve_naive(table, d, limit)
    brute = _brute_series(table.values, d, limit)
    assert series.values.tolist() == brute


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_fft_matches_naive(kind, d):
    limit = 2048
    table = sieve.build_sieve(kind, limit)
    fast = convolve.convolve_fft(table, d, limit)
    slow = convolve.convolve_naive(table, d, limit)
    assert np.array_equal(fast.values, slow.values)
    assert fast.values.dtype == np.int64
    assert fast.method == "fft-certified"
    assert fast.limbs == (1,) * (d - 1)
    assert fast.residue < 0.25
    assert slow.method == "naive"


# (limit, m): m = 2, 3 and 5 have no split (n1 = 1), 125 = 5 x 25,
# 2048 = 32 x 64, and 2700 = 50 x 54 has the factors 2, 3 and 5
@pytest.mark.parametrize("limit, m", [(1, 2), (2, 3), (3, 5), (63, 125),
                                      (1024, 2048), (1350, 2700)])
@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_fft_matches_naive_at_every_split(kind, d, limit, m):
    table = sieve.build_sieve(kind, limit)
    fast = convolve.convolve_fft(table, d, limit)
    assert fast.fft_length == m
    assert np.array_equal(fast.values,
                          convolve.convolve_naive(table, d, limit).values)


@pytest.mark.parametrize("m", [2, 3, 5, 125, 2048, 2700, 1 << 16])
def test_four_step_transform_pair(rng, m):
    # _rfft's [k1, k2] entry is the DFT at k1 + n1 k2, and _irfft
    # returns the zero-padded input in natural order
    n1 = convolve._split(m)
    x = rng.uniform(-1.0, 1.0, m // 2 + 1)
    spec = convolve._rfft(x, m)
    assert spec.shape == (n1 // 2 + 1, m // n1)
    k = np.arange(n1 // 2 + 1)[:, None] + n1 * np.arange(m // n1)
    assert np.abs(spec - np.fft.fft(x, m)[k]).max() < 1e-10
    back = convolve._irfft(spec, m)
    assert back.shape == (m,)
    assert np.abs(back - np.pad(x, (0, m - x.size))).max() < 1e-12


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
def test_residue_is_at_the_norm_scale(kind):
    # the residue of the last fold S_(d-1) * v stays within 1% of
    # eps log2(m) |S_(d-1)| |v|, the scale of the norm bound on the FFT's
    # rounding error (measured 0.2-0.3%, as with one-dimensional FFTs)
    limit = 1 << 16
    table = sieve.build_sieve(kind, limit)
    v = table.values[1:].astype(np.float64)
    prev = v
    for d in (2, 3, 4):
        series = convolve.convolve_fft(table, d, limit)
        scale = (np.finfo(np.float64).eps * math.log2(series.fft_length)
                 * np.linalg.norm(prev) * np.linalg.norm(v))
        assert series.residue < 0.01 * scale, d
        prev = series.values[1:].astype(np.float64)


def test_low_indices_are_zero():
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 600)
    for d in (2, 3, 4):
        series = convolve.convolve_fft(table, d, 600)
        assert not series.values[:d].any()
        assert series.values[d] != 0  # S_d(d) = lambda(1)^d


def test_multi_limb_agrees_with_naive():
    # at N = 2000 the limbs are 32 bits wide, and |S_7|, |S_8| pass 2^31,
    # so the last two folds split the accumulator into two limbs
    for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
        table = sieve.build_sieve(kind, 2000)
        a = convolve.convolve_fft(table, 9, 2000)
        b = convolve.convolve_naive(table, 9, 2000)
        assert a.limbs[-2:] == (2, 2)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("limit, index", [(2048, 100), (40000, 70000)])
def test_certificate_catches_a_shifted_value(monkeypatch, limit, index):
    # a whole-unit error keeps the rounding residue at zero, so only the
    # modular certificate can see it; at 40000 the product has 79 999
    # entries and the shift sits in its second block of the power table
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, limit)
    irfft = convolve._irfft

    def shifted(spec, m):
        out = irfft(spec, m)
        out[index] += 1.0
        return out

    monkeypatch.setattr(convolve, "_irfft", shifted)
    with pytest.raises(ValueError, match="certificate"):
        convolve.convolve_fft(table, 2, limit)


def test_exact_side_forms_no_prefix_sums():
    # the prefix sums cost 8 bytes per entry, and the folds never read them
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 3000)
    assert "prefix" not in vars(table)
    convolve.convolve_fft(table, 3, 3000)
    assert "prefix" not in vars(table)
    assert np.array_equal(table.prefix,
                          np.cumsum(table.values, dtype=np.int64))
    assert table.prefix is vars(table)["prefix"]


@pytest.mark.parametrize("index", [100, 3000])
def test_certificate_checks_every_limb(monkeypatch, index):
    # a one-unit shift in the second limb's product only, inside the kept
    # entries (100) or in the unstored tail past limit - 1 (3000)
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 2000)
    limbs = convolve.convolve_fft(table, 9, 2000).limbs
    first = limbs.index(2)
    target = sum(limbs[:first]) + 2       # inverse of that second limb
    irfft, calls = convolve._irfft, []

    def shifted(spec, m):
        out = irfft(spec, m)
        calls.append(1)
        if len(calls) == target:
            out[index] += 1.0
        return out

    monkeypatch.setattr(convolve, "_irfft", shifted)
    with pytest.raises(ValueError, match="certificate"):
        convolve.convolve_fft(table, 9, 2000)
    assert len(calls) == target


def test_fft_length_is_the_least_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    least = 5120                          # 2^10 * 5, the first past 5000
    for n in range(5000, 0, -1):
        if smooth(n):
            least = n
        assert convolve._fast_len(n) == least, n


def test_int64_overflow_raises():
    limit, d = 1000, 14
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, limit)
    v = table.values[:limit + 1].astype(np.float64)
    approx = v
    for _ in range(d - 1):
        approx = np.convolve(approx, v)[:limit + 1]
    assert np.abs(approx).max() > 2.0 ** 63    # the true values leave int64
    with pytest.raises(ValueError, match="overflow"):
        convolve.convolve_fft(table, d, limit)


def test_cesaro_sum_matches_direct_loop(rng):
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 1200)
    for d in (2, 3):
        series = convolve.convolve_fft(table, d, 1200)
        for x in rng.uniform(5.0, 1200.0, 8):
            expected = math.fsum(
                int(series.values[n]) * (x - n) ** (d - 1)
                for n in range(d, int(math.floor(x)) + 1)
            ) / math.factorial(d - 1)
            got = convolve.cesaro_sum(series, x)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_cesaro_sum_is_the_exact_sum_rounded_once(rng, kind, d):
    """At fractional x, cesaro_sum is the exact Fraction sum rounded once.
    At d = 9 the moments pass the int64 bound and are Python integers."""
    limit = 600
    series = convolve.convolve_fft(sieve.build_sieve(kind, limit), d, limit)
    vals = [int(v) for v in series.values]
    for x in rng.uniform(d, limit, 6).tolist() + [limit - 0.25]:
        xf = Fraction(x)
        exact = sum((vals[n] * (xf - n) ** (d - 1)
                     for n in range(d, int(x) + 1)), Fraction(0))
        want = float(exact / math.factorial(d - 1))
        assert convolve.cesaro_sum(series, x) == want, x


def test_cesaro_sum_edges():
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 100)
    series = convolve.convolve_fft(table, 2, 100)
    assert convolve.cesaro_sum(series, 1.5) == 0.0
    with pytest.raises(ValueError):
        convolve.cesaro_sum(series, 101.0)
    with pytest.raises(ValueError):
        convolve.cesaro_sum(series, -1.0)


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
def test_cesaro_prefix_matches_exact_sum(rng, kind):
    limit = 600
    table = sieve.build_sieve(kind, limit)
    s2 = _brute_series(table.values, 2, limit)
    xs = [0.0, 1.0, 1.5, 1.999, 2.0, 3.0, 17.0, 250.0, limit - 0.5,
          float(limit)] + rng.uniform(2.0, limit, 12).tolist()
    for x in xs:
        terms = [(Fraction(x) - n) * s2[n]
                 for n in range(2, int(math.floor(x)) + 1)]
        exact = sum(terms, Fraction(0))
        mass = float(sum(abs(t) for t in terms))
        got = convolve.cesaro_prefix(table, x)
        if x == math.floor(x):
            assert got == exact      # an integer below 2^53, unrounded
        else:
            # two roundings, each within half an ulp of the term mass
            assert abs(Fraction(got) - exact) <= 2.0 ** -52 * mass
    for bad in (-1.0, limit + 1.0, float("nan")):
        with pytest.raises(ValueError):
            convolve.cesaro_prefix(table, bad)


def test_laplace_identity_small(rng):
    # the full randomized identity sweep lives in the acceptance suite
    table = sieve.build_sieve(sieve.KIND_MOEBIUS, 800)
    series = convolve.convolve_fft(table, 2, 800)
    for x in rng.uniform(1.0, 800.0, 10):
        a = convolve.cesaro_sum(series, x)
        b = laplace_convolution_exact(table, x, 2)
        assert abs(a - b) <= 1e-9 * (1.0 + x * x)


def test_export_csv_roundtrip(tmp_path):
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 50)
    series = convolve.convolve_fft(table, 2, 50)
    path = tmp_path / "series.csv"
    convolve.export_csv(series, path)
    rows = path.read_text().strip().splitlines()
    body = [r for r in rows if not r.startswith("#") and "," in r]
    if body and not body[0][0].isdigit():
        body = body[1:]  # header row
    parsed = {int(a): int(b) for a, b in (r.split(",")[:2] for r in body)}
    for n in range(2, 51):
        assert parsed[n] == int(series.values[n])


def test_export_csv_bytes_across_blocks(tmp_path):
    # 70000 rows span two output blocks; every row is "n,value\n"
    table = sieve.build_sieve(sieve.KIND_MOEBIUS, 70000)
    series = convolve.convolve_fft(table, 3, 70000)
    path = tmp_path / "series.csv"
    convolve.export_csv(series, path)
    rows = "".join(f"{n},{int(series.values[n])}\n" for n in range(3, 70001))
    assert path.read_text() == "n,value\n" + rows
    assert series.values.min() < 0 < series.values.max()


def test_argument_validation():
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 100)
    with pytest.raises(ValueError):
        convolve.convolve_naive(table, 1, 100)
    with pytest.raises(ValueError):
        convolve.convolve_naive(table, 2, 101)


def test_export_csv_bytes_on_synthetic_series(tmp_path):
    # every digit count from 1 to 19 with both signs, n across every
    # power of ten up to 10^6 and many blocks; the first block holds only
    # one-digit values, so its value column is one digit wide
    edge = [0, 1, 9, 10, 99, 100, 2 ** 62 - 1]
    limit = 10 ** 6 + 5
    values = np.resize(np.array(edge + [-x for x in edge[1:]]), limit + 1)
    values[:convolve._BLOCK + 2] = np.resize([0, 1, -1, 9, -9],
                                             convolve._BLOCK + 2)
    series = convolve.ConvolutionSeries(kind=sieve.KIND_LIOUVILLE, d=2,
                                        limit=limit, values=values)
    path = tmp_path / "series.csv"
    convolve.export_csv(series, path)
    rows = "".join(f"{n},{v}\n"
                   for n, v in enumerate(values.tolist()) if n >= 2)
    assert path.read_bytes() == ("n,value\n" + rows).encode()


def test_export_csv_bytes_at_the_32_bit_edge(tmp_path, monkeypatch):
    # blocks of four rows whose largest |S| is 2^32 - 1 (uint32 digits),
    # 2^32 and 2^63 (uint64 digits)
    monkeypatch.setattr(convolve, "_BLOCK", 4)
    values = np.array([0, 0, 2 ** 32 - 1, -(2 ** 32 - 1), 5, 0,
                       2 ** 32, -7, 1, -(2 ** 32), 3, 2 ** 63 - 1,
                       -2 ** 63, 0], dtype=np.int64)
    series = convolve.ConvolutionSeries(kind=sieve.KIND_LIOUVILLE, d=2,
                                        limit=13, values=values)
    path = tmp_path / "series.csv"
    convolve.export_csv(series, path)
    rows = "".join(f"{n},{v}\n"
                   for n, v in enumerate(values.tolist()) if n >= 2)
    assert path.read_bytes() == ("n,value\n" + rows).encode()


def test_export_csv_below_d_is_the_header_only(tmp_path):
    series = convolve.ConvolutionSeries(kind=sieve.KIND_MOEBIUS, d=3,
                                        limit=2,
                                        values=np.zeros(3, dtype=np.int64))
    path = tmp_path / "series.csv"
    convolve.export_csv(series, path)
    assert path.read_bytes() == b"n,value\n"
