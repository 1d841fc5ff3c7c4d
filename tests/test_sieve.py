"""Sieve tables against a linear sieve and trial division."""

import hashlib
import math

import numpy as np
import pytest

from liouconv import sieve


def _linear_sieve(limit):
    """Smallest-prime-factor recurrence lambda(p n) = -lambda(n) over the
    whole range, with no segments.  It shares the package's multiplicative
    route, so _trial_division below is the independent oracle."""
    lam = np.zeros(limit + 1, dtype=np.int8)
    mu = np.zeros(limit + 1, dtype=np.int8)
    spf = np.zeros(limit + 1, dtype=np.int64)
    lam[1] = mu[1] = 1
    primes = []
    for n in range(2, limit + 1):
        if spf[n] == 0:
            spf[n] = n
            primes.append(n)
            lam[n] = -1
            mu[n] = -1
        for p in primes:
            if p * n > limit:
                break
            spf[p * n] = p
            lam[p * n] = -lam[n]
            mu[p * n] = 0 if p == spf[n] else -mu[n]
            if p == spf[n]:
                break
    return lam, mu


def test_values_match_linear_sieve():
    limit = 20000
    lam, mu = _linear_sieve(limit)
    t_lam = sieve.build_sieve(sieve.KIND_LIOUVILLE, limit)
    t_mu = sieve.build_sieve(sieve.KIND_MOEBIUS, limit)
    assert np.array_equal(t_lam.values[1:], lam[1:])
    assert np.array_equal(t_mu.values[1:], mu[1:])


def test_prefix_is_cumulative(lio_100k, moe_100k):
    for table in (lio_100k, moe_100k):
        assert table.prefix[0] == 0
        assert np.array_equal(table.prefix,
                              np.cumsum(table.values, dtype=np.int64))


def test_lambda_completely_multiplicative(lio_100k, rng):
    v = lio_100k.values
    for _ in range(300):
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 100))
        if m * n <= lio_100k.limit:
            assert v[m * n] == v[m] * v[n]


def test_mu_multiplicative_on_coprime_pairs(moe_100k, rng):
    v = moe_100k.values
    checked = 0
    while checked < 200:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 100))
        if m * n > moe_100k.limit or math.gcd(m, n) != 1:
            continue
        assert v[m * n] == v[m] * v[n]
        checked += 1


def test_mu_vanishes_on_square_multiples(moe_100k, rng):
    v = moe_100k.values
    for _ in range(200):
        d = int(rng.integers(2, 300))
        k = int(rng.integers(1, moe_100k.limit // (d * d) + 1))
        assert v[d * d * k] == 0


def test_summatory_floors_its_argument(lio_100k):
    assert sieve.summatory(lio_100k, 10.7) == int(lio_100k.prefix[10])
    assert sieve.summatory(lio_100k, 10.0) == int(lio_100k.prefix[10])
    assert sieve.summatory(lio_100k, 0.4) == 0
    assert isinstance(sieve.summatory(lio_100k, 99.9), int)


def test_dump_load_roundtrip(tmp_path):
    """dump_table's bytes, read back as an outside reader would: a
    16-byte header (magic, version 1, 6-byte little-endian limit), then
    values[1:] as int8."""
    limit = 2 * sieve._SEGMENT + 12345    # three segments
    table = sieve.build_sieve(sieve.KIND_MOEBIUS, limit)
    path = tmp_path / "table.bin"
    sieve.dump_table(table, path)
    raw = path.read_bytes()
    assert len(raw) == 16 + limit
    assert raw[:9] == b"MOEBSTBL\x00"
    assert raw[9] == 1
    assert raw[10:16] == limit.to_bytes(6, "little")
    assert np.array_equal(np.frombuffer(raw, np.int8, offset=16),
                          table.values[1:])
    assert table.values.dtype == np.int8
    assert table.prefix.dtype == np.int64
    assert not table.values.flags.writeable
    assert not table.prefix.flags.writeable


@pytest.fixture(scope="module")
def linear_20000():
    return _linear_sieve(20000)


@pytest.mark.parametrize("segment", [1, 7, 128, 1000])
def test_segment_length_does_not_change_values(monkeypatch, linear_20000,
                                               segment):
    lam, mu = linear_20000
    monkeypatch.setattr(sieve, "_SEGMENT", segment)
    for kind, want in ((sieve.KIND_LIOUVILLE, lam), (sieve.KIND_MOEBIUS, mu)):
        table = sieve.build_sieve(kind, 20000)
        assert np.array_equal(table.values[1:], want[1:])
        assert np.array_equal(table.prefix,
                              np.cumsum(want, dtype=np.int64))


def _trial_division(lo, hi):
    """Omega(n) and squarefreeness on [lo, hi), dividing the whole window
    by each prime up to sqrt(hi) for as long as any entry is divisible."""
    rest = np.arange(lo, hi, dtype=np.int64)
    big_omega = np.zeros(rest.size, dtype=np.int64)
    squarefree = np.ones(rest.size, dtype=bool)
    for p in sieve._small_primes(math.isqrt(hi)).tolist():
        times = np.zeros(rest.size, dtype=np.int64)
        while (hit := rest % p == 0).any():
            rest[hit] //= p
            times += hit
        big_omega += times
        squarefree &= times < 2
    big_omega += rest > 1
    return big_omega, squarefree


@pytest.mark.parametrize("lo, hi, segment", [
    (1, 5000, None),
    (8500, 12000, 1000),     # across the segment starts 9024, 10024, 11024
    (3_000_000 - 600, 3_000_000, None),
], ids=["1-5000", "8500-12000-segment-1000", "2999400-3000000"])
def test_segment_matches_trial_division(monkeypatch, lo, hi, segment):
    """Windows [lo, hi) of tables built to hi - 1."""
    if segment is not None:
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
    big_omega, squarefree = _trial_division(lo, hi)
    lam = 1 - 2 * (big_omega & 1)
    for kind, want in ((sieve.KIND_LIOUVILLE, lam),
                       (sieve.KIND_MOEBIUS, lam * squarefree)):
        assert np.array_equal(sieve.build_sieve(kind, hi - 1).values[lo:],
                              want)


def test_lambda_pinned_at_1e7():
    """10^7 spans ten segments; the digest is the one perfbench pins."""
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, 10 ** 7)
    digest = hashlib.sha256(table.values[1:].tobytes()).hexdigest()
    assert digest == ("335e74f78e3c07376ed9df652c71b700"
                      "93a808eb7ba779ed99fa9de000ea0d0e")
    assert sieve.summatory(table, 10 ** 7) == -842


def test_mu_pinned_at_3e6():
    """3 * 10^6 spans several default segments."""
    table = sieve.build_sieve(sieve.KIND_MOEBIUS, 3 * 10 ** 6)
    digest = hashlib.sha256(table.values[1:].tobytes()).hexdigest()
    assert digest == ("1def1bf1970f55adb5aa085e9631e137"
                      "a29e46042f0a610df4f3f8c33fc95461")
    assert sieve.summatory(table, 3 * 10 ** 6) == 107


def test_growth_diagnostic_stays_small(lio_100k, moe_100k):
    assert sieve.growth_diagnostic(lio_100k) < 3.0
    assert sieve.growth_diagnostic(moe_100k) < 3.0


def test_growth_diagnostic_matches_the_full_scan():
    # blocks that cannot beat the running worst are skipped; the value
    # must still be the maximum over every k, across several blocks, up
    # to a last block of one or two entries (N = 100 + 1024 k and
    # 100 + 1024 k + 1), and 0.0 below 100
    for limit in (99, 100 + (1 << 16), 100 + 1024 * 300,
                  100 + 1024 * 300 + 1, 3 * 10 ** 6):
        for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
            table = sieve.build_sieve(kind, limit)
            k = np.arange(100, table.limit + 1, dtype=np.float64)
            full = float((np.abs(table.prefix[100:]) / k ** 0.6)
                         .max(initial=0.0))
            assert sieve.growth_diagnostic(table) == full


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        sieve.build_sieve("mertens", 100)
    with pytest.raises(ValueError):
        sieve.build_sieve(sieve.KIND_LIOUVILLE, 0)
