"""Zero ingestion, enrichment and persistence."""

import hashlib
import io
import math
import struct

import mpmath
import numpy as np
import pytest

from liouconv import specfun, zeros

mpmath.mp.dps = 30

_GAMMA_1 = 14.1347251417347


def test_bundled_ordinates_shape_and_endpoints():
    ords = zeros.bundled_ordinates()
    assert len(ords) == 10 ** 4
    assert ords[0] == pytest.approx(_GAMMA_1, abs=1e-10)
    assert ords[-1] == pytest.approx(9877.782654005501, abs=1e-6)
    assert all(b > a for a, b in zip(ords, ords[1:]))


def test_load_ordinates_accepts_both_layouts():
    bare = io.StringIO("14.1\n\n21.0\n25.0\n")
    assert zeros.load_ordinates(bare) == [14.1, 21.0, 25.0]
    indexed = io.StringIO("1 14.1\n2 21.0\n3 25.0\n")
    assert zeros.load_ordinates(indexed) == [14.1, 21.0, 25.0]


def test_load_ordinates_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        zeros.load_ordinates(io.StringIO("1 14.1\n3 21.0\n"))
    with pytest.raises(ValueError, match="line 2"):
        zeros.load_ordinates(io.StringIO("14.1\n13.9\n"))
    with pytest.raises(ValueError, match="line 1"):
        zeros.load_ordinates(io.StringIO("1 14.1 0.5\n"))


@pytest.mark.parametrize("text, message", [
    ("14.1\nabc\n", "line 2: cannot parse 'abc'"),
    ("1 14.1\ntwo 21.0\n", "line 2: cannot parse 'two 21.0'"),
    ("14.1\n-21.0\n", "line 2: ordinate must be positive"),
    ("0.0\n", "line 1: ordinate must be positive"),
    ("nan\n", "line 1: ordinate must be positive"),
], ids=["word", "index", "negative", "zero", "nan"])
def test_load_ordinates_rejects_bad_values(text, message):
    with pytest.raises(ValueError, match=message):
        zeros.load_ordinates(io.StringIO(text))


def test_enrich_against_mpmath():
    ords = zeros.bundled_ordinates(3) + zeros.bundled_ordinates()[-1:]
    zset = zeros.enrich(ords)
    for k, g in enumerate(ords):
        rho = mpmath.mpc(0.5, g)
        want_zp = complex(mpmath.zeta(rho, derivative=1))
        want_z2 = complex(mpmath.zeta(mpmath.mpc(1.0, 2.0 * g)))
        assert complex(zset.zprimes[k]) == pytest.approx(want_zp, rel=1e-9)
        assert complex(zset.z2rhos[k]) == pytest.approx(want_z2, rel=1e-9)


def test_enrich_of_a_prefix_is_a_prefix_of_the_enrichment():
    # the zeta pass splits its batch into chunks by cutoff and core count;
    # no coefficient may depend on which other zeros share its batch
    ords = zeros.bundled_ordinates(1000)
    small, large = zeros.enrich(ords[:300]), zeros.enrich(ords)
    assert small.zprimes.tobytes() == large.zprimes[:300].tobytes()
    assert small.z2rhos.tobytes() == large.z2rhos[:300].tobytes()


def test_enrich_matches_zeta_pair_bits(zs10k):
    # one n^-rho table per chunk serves zeta(2 rho) too; zeta'(rho) keeps
    # the bits of a zeta_pair call at the same points
    zprimes = specfun.zeta_pair(0.5 + 1j * zs10k.gammas)[1]
    assert zs10k.zprimes.tobytes() == zprimes.tobytes()


def test_enrich_double_matches_a_direct_zeta(zs10k):
    # zeta(2 rho) from the squared table keeps a direct zeta(1 + 2 i gamma)
    # call's cutoff, so the two differ only by the rounding of the
    # squares; a different cutoff moves it by up to ~4e-13 near 1e4
    direct = specfun.zeta(1.0 + 2j * zs10k.gammas)
    rel = np.abs(zs10k.z2rhos - direct) / np.abs(direct)
    assert rel.max() < 1e-14


def test_enrich_frozen_first_zero_coefficient(zs1000):
    assert complex(zs1000.zprimes[0]) == pytest.approx(
        0.7832965118670309 + 0.1246998297481711j, rel=1e-9)


def test_enrich_rejects_an_ordinate_off_the_line():
    with pytest.raises(ValueError, match="residual"):
        zeros.enrich([_GAMMA_1, 20.5])


def test_truncate_by_count(zs1000):
    small = zeros.truncate(zs1000, count=10)
    assert len(small) == 10
    assert np.array_equal(small.gammas, zs1000.gammas[:10])
    assert np.array_equal(small.zprimes, zs1000.zprimes[:10])


def test_zeroset_rejects_disorder():
    g = np.array([14.2, 14.1])
    c = np.zeros(2, dtype=np.complex128)
    with pytest.raises(ValueError):
        zeros.ZeroSet(gammas=g, zprimes=c, z2rhos=c)
    with pytest.raises(ValueError):
        zeros.ZeroSet(gammas=np.array([13.0]),
                      zprimes=c[:1], z2rhos=c[:1])


def test_cache_roundtrip_is_bitwise(tmp_path, zs1000):
    subset = zeros.truncate(zs1000, count=64)
    path = tmp_path / "cache.bin"
    zeros.save_cache(subset, path)
    back = zeros.load_cache(path)
    assert len(back) == len(subset)
    assert np.array_equal(back.gammas, subset.gammas)
    assert np.array_equal(back.zprimes, subset.zprimes)
    assert np.array_equal(back.z2rhos, subset.z2rhos)


def test_cache_detects_corruption(tmp_path, zs1000):
    subset = zeros.truncate(zs1000, count=8)
    path = tmp_path / "cache.bin"
    zeros.save_cache(subset, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        zeros.load_cache(path)


def test_cache_rejects_a_short_file(tmp_path):
    path = tmp_path / "cache.bin"
    path.write_bytes(bytes(9 + 1 + 16 + 31))
    with pytest.raises(ValueError, match="zero cache: file too short"):
        zeros.load_cache(path)


@pytest.mark.parametrize("offset, value, message", [
    (0, ord("X"), "bad magic"),
    (9, 2, "unsupported version 2"),
], ids=["magic", "version"])
def test_cache_rejects_a_bad_header(tmp_path, zs1000, offset, value,
                                    message):
    # a valid checksum over the edited header, so the named check fires
    path = tmp_path / "cache.bin"
    zeros.save_cache(zeros.truncate(zs1000, count=5), path)
    body = bytearray(path.read_bytes()[:-32])
    body[offset] = value
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    with pytest.raises(ValueError, match=f"zero cache: {message}"):
        zeros.load_cache(path)


@pytest.mark.parametrize("count", [4, 6])
def test_cache_rejects_a_count_that_does_not_match_the_body(tmp_path, zs1000,
                                                           count):
    # a valid checksum over a header whose zero count disagrees with the
    # five zeros in the body
    path = tmp_path / "cache.bin"
    zeros.save_cache(zeros.truncate(zs1000, count=5), path)
    body = bytearray(path.read_bytes()[:-32])
    struct.pack_into("<Q", body, 10, count)
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    with pytest.raises(ValueError, match=f"zero cache: .*{count} zeros.*"
                                         f"{len(body)}"):
        zeros.load_cache(path)


def _counting_sanity(zset, t_ceiling=None):
    """Compare #{gamma < T} to the classical (T/2pi) log(T/(2 pi e))."""
    t = zset.t_max if t_ceiling is None else float(t_ceiling)
    count = int(np.searchsorted(zset.gammas, t, side="left"))
    predicted = t / (2 * math.pi) * math.log(t / (2 * math.pi * math.e))
    return {"count": count, "ratio": count / predicted}


def _sz_diagnostic(zset, t_ceiling):
    """sum 1/|zeta'(rho)| over gamma < T, raw and over T (log T)^(1/2),
    the partial sums behind the simple-zero conjecture."""
    if t_ceiling > zset.t_max:
        raise ValueError(f"T = {t_ceiling} exceeds t_max = {zset.t_max}")
    k = int(np.searchsorted(zset.gammas, t_ceiling, side="left"))
    sum_inv = math.fsum(1.0 / np.abs(zset.zprimes[:k]))
    return {"sum_inv_zp": sum_inv,
            "normalized": sum_inv / (t_ceiling
                                     * math.sqrt(math.log(t_ceiling)))}


def test_counting_sanity_tracks_the_classical_density(zs10k):
    out = _counting_sanity(zs10k)
    # strict gamma < T, so the zero sitting exactly at t_max is excluded
    assert out["count"] == len(zs10k) - 1
    assert 0.98 < out["ratio"] < 1.02
    halfway = _counting_sanity(zs10k, t_ceiling=5000.0)
    assert halfway["count"] == int(np.searchsorted(zs10k.gammas, 5000.0))
    assert 0.98 < halfway["ratio"] < 1.02


def test_sz_diagnostic_normalization(zs10k):
    t_small = float(zs10k.gammas[999])
    small = _sz_diagnostic(zs10k, t_small)
    full = _sz_diagnostic(zs10k, zs10k.t_max)
    assert small["sum_inv_zp"] > 0.0
    assert full["sum_inv_zp"] > small["sum_inv_zp"]
    # the normalized sum should be roughly flat if zeros stay simple
    assert full["normalized"] <= 3.0 * small["normalized"]
    with pytest.raises(ValueError):
        _sz_diagnostic(zs10k, zs10k.t_max + 1.0)


def test_export_csv_layout(tmp_path, zs1000):
    subset = zeros.truncate(zs1000, count=5)
    path = tmp_path / "zeros.csv"
    zeros.export_csv(subset, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,gamma,zprime_re,zprime_im,z2_re,z2_im"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(_GAMMA_1, abs=1e-10)


def test_rhos_property(zs1000):
    rhos = zs1000.rhos
    assert np.all(rhos.real == 0.5)
    assert np.array_equal(rhos.imag, zs1000.gammas)
