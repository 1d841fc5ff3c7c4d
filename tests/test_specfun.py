"""Special-function layer against mpmath and closed-form identities."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from liouconv import specfun, zeros

mpmath.mp.dps = 30


def test_log_gamma_against_mpmath(rng):
    for _ in range(40):
        z = complex(rng.uniform(0.2, 25.0), rng.uniform(-200.0, 200.0))
        got = specfun.log_gamma(z)
        want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _near(got, want, tol=5e-14):
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_log_gamma_across_the_shift_boundary(rng):
    # the series alone for |z| >= 15 or Re z >= 8, shift and series for
    # the rest, on both sides of both edges, and the imaginary axis
    # approached from the right, where arg z nears pi/2
    radius, edge = specfun._STIRLING_RADIUS, specfun._STIRLING_RE
    pts = [radius * (1.0 + e) * complex(math.cos(t), math.sin(t))
           for e in (-1e-9, 1e-9) for t in np.linspace(-1.57, 1.57, 9)]
    pts += [complex(edge * (1.0 + e), y)
            for e in (-1e-9, 1e-9) for y in np.linspace(-12.0, 12.0, 7)]
    pts += [complex(10.0 ** rng.uniform(-12.0, -1.0), rng.uniform(-30.0, 30.0))
            for _ in range(20)]
    pts += [complex(rng.uniform(1e-6, 40.0), rng.uniform(-40.0, 40.0))
            for _ in range(40)]
    for z in pts:
        want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert _near(specfun.log_gamma(z), want), z


def test_log_gamma_at_large_ordinates(rng):
    for _ in range(20):
        y = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(2.0, 4.3))
        for x in (1e-9, 0.5, 1.0, 3.5):
            want = complex(mpmath.loggamma(mpmath.mpc(x, y)))
            assert _near(specfun.log_gamma(complex(x, y)), want, 1e-15)


def test_log_gamma_on_the_real_axis():
    for x in np.concatenate([np.linspace(1e-3, 40.0, 801), [1.0, 2.0, 1e-9]]):
        got = specfun.log_gamma(float(x))
        assert got.imag == 0.0
        assert _near(got.real, math.lgamma(x)), x


def test_log_gamma_batch_matches_scalar(rng):
    z = np.concatenate([
        rng.uniform(1e-6, 30.0, 300) + 1j * rng.uniform(-40.0, 40.0, 300),
        1.0 + 1j * rng.uniform(-2e4, 2e4, 100)])
    batch = specfun.log_gamma(z)
    assert all(specfun.log_gamma(complex(p)) == batch[k]
               for k, p in enumerate(z))
    again = specfun.log_gamma(z[::-1].reshape(20, 20))
    assert again.ravel()[::-1].tobytes() == batch.tobytes()


def test_em_constants_are_bernoulli_numbers():
    # B_2j/(2j)! to 30 digits, rounded once: the same double
    for j, got in enumerate(specfun._EM_BERN, 1):
        assert got == float(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j))
    # and the tangent-number route gives every B_2j exactly
    exact = specfun._bernoulli(specfun._EM_CORRECTION_TERMS)
    assert len(exact) == specfun._EM_CORRECTION_TERMS
    for j, got in enumerate(exact, 1):
        assert got == Fraction(*mpmath.bernfrac(2 * j)), j


def test_log_gamma_recurrence():
    for z in (0.5 + 14.134725141734695j, 3.0 + 100.0j, 1.5 - 7.0j):
        lhs = specfun.log_gamma(z + 1.0) - specfun.log_gamma(z)
        # both sides use the principal branch, and Re z > 0 keeps log z on it
        assert lhs == pytest.approx(np.log(complex(z)), rel=1e-13)


def test_log_gamma_rejects_left_half_plane():
    with pytest.raises(ValueError):
        specfun.log_gamma(-1.5 + 2.0j)
    with pytest.raises(ValueError):
        specfun.log_gamma(complex("inf"))


def test_gamma_abs_half_line_matches_log_gamma():
    # the closed form pi/cosh(pi y) against the Stirling series route;
    # two independent evaluations of the same magnitude
    for y in (0.0, 1.0, 14.134725141734695, 50.0, 200.0):
        closed = specfun.log_gamma_abs_half_line(y)
        via_log = specfun.log_gamma(0.5 + 1j * y).real
        assert closed == pytest.approx(via_log, rel=0.0, abs=1e-12)


def test_gamma_abs_lower_bound_holds(rng):
    for _ in range(25):
        x = float(rng.uniform(0.5, 4.0))
        y = float(rng.uniform(-60.0, 60.0))
        bound = specfun.log_gamma_abs_lower_bound(x, y)
        actual = specfun.log_gamma(complex(x, y)).real
        assert bound <= actual + 1e-12


def test_zeta_known_values():
    assert specfun.zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
    assert specfun.zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-13)
    assert specfun.zeta_half() == pytest.approx(-1.4603545088095873,
                                                rel=1e-12)
    # the first zero really is a zero at this precision
    rho1 = 0.5 + 14.134725141734695j
    assert abs(specfun.zeta(rho1)) < 1e-9


def test_zeta_against_mpmath(rng):
    pts = [complex(rng.uniform(0.45, 3.0), rng.uniform(-400.0, 400.0))
           for _ in range(15)]
    # enrichment-scale ordinates: rho near the last bundled zero, and
    # 1 + 2i gamma for it
    pts += [0.5 + 9876.5j, 1.0 + 19755.6j]
    # the smallest N, where 2J dominates the cutoff, and the edge of the
    # documented domain, |t| = 2e4
    pts += [0.4 + 0.5j, 3.0 - 0.7j, 0.4 + 2e4j, 0.5 - 2e4j, 1.0 + 2e4j]
    for s in pts:
        if abs(s - 1.0) < 0.05:
            continue
        got = specfun.zeta(s)
        want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_zeta_batch_matches_scalar(rng, monkeypatch):
    pts = [complex(rng.uniform(0.5, 2.0), rng.uniform(-300.0, 300.0))
           for _ in range(12)]
    # three more cutoff buckets, several points in one chunk for the last
    pts += [0.5 + 2500.0j, 0.5 + 6000.0j, 0.5 + 9990.0j, 0.5 + 9995.0j]
    # 200 more in that last bucket span several chunks, so several
    # threads fill it
    pts += list(0.5 + 1j * rng.uniform(9980.0, 9995.0, 200))
    pts = np.array(pts)
    batch, dbatch = specfun.zeta_pair(pts)
    assert np.array_equal(batch, specfun.zeta(pts))
    for i, s in enumerate(pts):
        one, done = specfun.zeta_pair(complex(s))
        assert batch[i] == one
        assert dbatch[i] == done
    # one worker with the largest chunks, then more workers than cores
    # with smaller chunks and a short switch interval: the same bits
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 8):
            monkeypatch.setattr(specfun, "zeta_threads", lambda: threads)
            again, dagain = specfun.zeta_pair(pts)
            assert again.tobytes() == batch.tobytes()
            assert dagain.tobytes() == dbatch.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_zeta_triple_shares_zeta_pair_bits(rng):
    # zeta(s) and zeta'(s) come from the start of the longer table that
    # zeta(2s) needs, with zeta_pair's cutoffs and sums, bit for bit
    gammas = np.array(zeros.bundled_ordinates()[::25])
    pts = np.concatenate([0.5 + 1j * gammas, rng.uniform(0.5, 2.0, 40)
                          + 1j * rng.uniform(-300.0, 300.0, 40)])
    z, dz, z2 = specfun.zeta_triple(pts)
    pz, pdz = specfun.zeta_pair(pts)
    assert z.tobytes() == pz.tobytes()
    assert dz.tobytes() == pdz.tobytes()
    assert specfun.zeta_triple(complex(pts[3]))[2] == z2[3]


def test_zeta_triple_double_against_mpmath():
    # zeta(2 rho) = zeta(1 + 2 i gamma) at the first and last bundled zero
    for g in (zeros.bundled_ordinates()[0], zeros.bundled_ordinates()[-1]):
        got = specfun.zeta_triple(0.5 + 1j * g)[2]
        want = complex(mpmath.zeta(mpmath.mpc(1.0, 2.0 * g)))
        assert got == pytest.approx(want, rel=1e-12)


def test_zeta_triple_double_ignores_threads(rng, monkeypatch):
    pts = 0.5 + 1j * np.concatenate([rng.uniform(14.0, 3000.0, 30),
                                     rng.uniform(9980.0, 9995.0, 200)])
    batch = specfun.zeta_triple(pts)[2]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 8):
            monkeypatch.setattr(specfun, "zeta_threads", lambda: threads)
            assert specfun.zeta_triple(pts)[2].tobytes() == batch.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_double_cutoff_covers_the_single_one():
    # the table is as long as the zeta(2 rho) sum, and the zeta(rho) and
    # zeta'(rho) sums run over its start, so N_2rho >= N_rho must hold
    g = np.concatenate([np.linspace(14.0, 2e5, 2_000_001),
                        np.array(zeros.bundled_ordinates())])
    single = specfun._em_cutoffs(g)
    double = specfun._em_cutoffs(2.0 * g)
    assert np.all(double >= single)


def test_em_cutoffs_meet_the_ratio():
    # each N meets (|t| + 2J + 10)/(2 pi N) <= 0.8 and is at most 1/8
    # above the least N that does (least - 1 fails the ratio)
    t = np.linspace(-4e4, 4e4, 800_001)
    n = specfun._em_cutoffs(t)
    need = np.abs(t) + 2.0 * specfun._EM_CORRECTION_TERMS + 10.0
    least = np.ceil(need / (2.0 * math.pi * 0.8))
    assert np.all(need / (2.0 * math.pi * n) <= 0.8)
    assert np.all(need / (2.0 * math.pi * (least - 1)) > 0.8)
    assert np.all((n >= least) & (n <= 1.125 * least))


def test_zeta_derivative_against_mpmath(rng):
    pts = [complex(rng.uniform(0.5, 2.0), rng.uniform(-150.0, 150.0))
           for _ in range(10)]
    pts.append(0.5 + 9876.5j)
    # as in test_zeta_against_mpmath: the smallest N and |t| = 2e4
    pts += [0.4 + 0.5j, 3.0 - 0.7j, 0.4 + 2e4j, 0.5 - 2e4j, 1.0 + 2e4j]
    for s in pts:
        if abs(s - 1.0) < 0.05:
            continue
        got = specfun.zeta_pair(s)[1]
        want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), derivative=1))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_zeta_derivative_at_first_zero():
    rho1 = 0.5 + 14.134725141734695j
    got = specfun.zeta_pair(rho1)[1]
    assert got == pytest.approx(0.7832965118670309 + 0.1246998297481711j,
                                rel=1e-10)


def test_zeta_domain_guards():
    with pytest.raises(ValueError):
        specfun.zeta(0.2 + 5.0j)
    with pytest.raises(ValueError):
        specfun.zeta(1.0 + 1e-9j)
    with pytest.raises(ValueError):      # 2s at the pole
        specfun.zeta_triple(0.5 + 1e-8j)


@pytest.mark.parametrize("cutoff", [2, 3, 4, 31, 4097])
def test_factor_layers_cover_each_n_once(cutoff):
    primes, layers = specfun._factor_layers(cutoff)
    assert all(p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
               for p in primes.tolist())
    filled = set(primes.tolist())
    seen = list(primes.tolist())
    for n, p, q in layers:
        assert np.array_equal(p * q, n)
        assert set(p.tolist()) <= set(primes.tolist())
        assert set(q.tolist()) <= filled
        filled |= set(n.tolist())
        seen += n.tolist()
    assert sorted(seen) == list(range(2, cutoff))
