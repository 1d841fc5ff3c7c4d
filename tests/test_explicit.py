"""Explicit-formula evaluators: summation engine, breakdowns, identities."""

import math
from itertools import product

import mpmath
import numpy as np
import pytest
from scipy.special import loggamma

from liouconv import convolve, explicit, sieve, specfun, zeros

mpmath.mp.dps = 30


@pytest.fixture(scope="module")
def lio_10k():
    return sieve.build_sieve(sieve.KIND_LIOUVILLE, 10 ** 4)


@pytest.fixture(scope="module")
def lio_series_10k(lio_10k):
    return convolve.convolve_fft(lio_10k, 2, 10 ** 4)


# ---------------------------------------------------------------------------
# the summation engine


def test_blocked_sum_matches_fsum(rng):
    for size in (0, 1, 63, 64, 65, 200, 4097):
        vals = rng.normal(0.0, 1.0, size) * 10.0 ** rng.integers(-8, 8, size)
        got = explicit.blocked_sum(vals)
        assert isinstance(got, float)
        assert got == math.fsum(vals)


def test_blocked_sum_complex(rng):
    vals = rng.normal(size=513) + 1j * rng.normal(size=513)
    got = explicit.blocked_sum(vals)
    assert got == complex(math.fsum(vals.real), math.fsum(vals.imag))


@pytest.mark.parametrize("parts", [1, 2])
def test_blocked_sum_ignores_term_order(rng, parts):
    size = 4097
    vals = [rng.normal(0.0, 1.0, size) * 10.0 ** rng.integers(-8, 8, size)
            for _ in range(parts)]
    vals = vals[0] if parts == 1 else vals[0] + 1j * vals[1]
    fwd = explicit.blocked_sum(vals)
    back = explicit.blocked_sum(vals[::-1])
    assert type(fwd) is type(back)
    assert (fwd.real, fwd.imag) == (back.real, back.imag)


def _assert_real_by_construction(bd):
    """A Hermitian breakdown holds Python floats: its sums are formed
    from real parts, so no imaginary part is ever discarded."""
    for value in (bd.main_term, bd.single_sum, bd.double_sum, bd.total):
        assert type(value) is float


# ---------------------------------------------------------------------------
# summatory formulas


def test_breakdown_parts_sum_exactly(zs1000, lio_10k):
    bd = explicit.explicit_summatory(sieve.KIND_LIOUVILLE, 500.0, zs1000)
    assert bd.total == bd.main_term + bd.single_sum + bd.double_sum
    _assert_real_by_construction(bd)
    assert bd.double_sum == 0.0
    assert bd.pair_terms == 0


def test_summatory_truncation_accounting(zs1000):
    for k in (1, 29, 1000):
        bd = explicit.explicit_summatory(sieve.KIND_LIOUVILLE, 100.0,
                                         zeros.truncate(zs1000, count=k))
        assert bd.zeros_used == k
        assert bd.truncation_T == zs1000.gammas[k - 1]


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
def test_every_formula_on_an_empty_zero_set(kind):
    """No zeros: T reads 1.0 and every zero sum is an exact 0."""
    empty = zeros.enrich([])
    w = explicit.PolynomialWeight(1.0, 2.5, 40.0)
    table = sieve.build_sieve(kind, 200)
    for bd in (explicit.explicit_summatory(kind, 100.0, empty),
               explicit.explicit_cesaro(kind, 100.0, empty),
               explicit.dirichlet_explicit(kind, 3.0 + 1.0j, empty),
               explicit.exponential_explicit(kind, 0.1, empty),
               explicit.weighted_average_explicit(
                   explicit.WeightedAverage(w, table), empty)):
        assert bd.truncation_T == 1.0
        assert bd.zeros_used == 0
        assert bd.pair_terms == 0
        assert bd.single_sum == 0.0
        assert bd.double_sum == 0.0
        assert bd.total == bd.main_term


def test_summatory_single_sum_brute(zs1000):
    """Assemble the zero sum with a plain python loop and compare."""
    x = 350.0
    zsub = zeros.truncate(zs1000, count=50)
    bd = explicit.explicit_summatory(sieve.KIND_LIOUVILLE, x, zsub)
    acc = []
    for k in range(50):
        rho = complex(zsub.rhos[k])
        coeff = complex(zsub.z2rhos[k]) / (complex(zsub.zprimes[k]) * rho)
        term = coeff * x ** rho
        acc.append(term + term.conjugate())
    brute = math.fsum(t.real for t in acc)
    assert bd.single_sum == pytest.approx(brute, rel=1e-12)
    assert bd.main_term == pytest.approx(
        math.sqrt(x) / specfun.zeta_half() + 1.0, rel=1e-14)


def test_summatory_residual_within_envelope(zs1000, lio_10k):
    bd = explicit.explicit_summatory(sieve.KIND_LIOUVILLE, 2000.0, zs1000)
    direct = sieve.summatory(lio_10k, 2000.0)
    assert abs(direct - bd.total) < bd.envelope


def test_summatory_moebius_main_is_the_residue_constant(zs1000):
    bd = explicit.explicit_summatory(sieve.KIND_MOEBIUS, 777.0, zs1000)
    assert bd.main_term == -2.0


# ---------------------------------------------------------------------------
# Cesaro formulas and the double-sum engine


def test_cesaro_main_term_closed_form(zs1000):
    x = 4000.0
    bd = explicit.explicit_cesaro(sieve.KIND_LIOUVILLE, x, zs1000, d=2)
    want = x * x * math.pi / (8.0 * specfun.zeta_half() ** 2)
    assert bd.main_term == pytest.approx(want, rel=1e-14)
    assert bd.pair_terms > 0
    assert bd.total == bd.main_term + bd.single_sum + bd.double_sum


def _brute_pair_terms(zsub, coeff, shift, factor):
    """c1 c2 Gamma(z1) Gamma(z2) / Gamma(z1 + z2 + shift) * factor(z1 + z2)
    over every ordered pair of zeros and all four sign patterns."""
    terms = []
    for i, j in product(range(len(zsub)), repeat=2):
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            z1 = 0.5 + s1 * 1j * zsub.gammas[i]
            z2 = 0.5 + s2 * 1j * zsub.gammas[j]
            c1 = coeff[i] if s1 > 0 else np.conj(coeff[i])
            c2 = coeff[j] if s2 > 0 else np.conj(coeff[j])
            terms.append(complex(c1 * c2 * factor(z1 + z2) * np.exp(
                loggamma(z1) + loggamma(z2) - loggamma(z1 + z2 + shift))))
    return terms


def _brute_single_terms(zsub, coeff, offset, shift, factor):
    """c(z) Gamma(z) / Gamma(z + offset + shift) * factor(z + offset) over
    z = rho and conj rho of every zero; shift None drops the denominator."""
    terms = []
    for k in range(len(zsub)):
        for sign in (1, -1):
            z = 0.5 + sign * 1j * zsub.gammas[k]
            c = coeff[k] if sign > 0 else np.conj(coeff[k])
            log_kernel = loggamma(z)
            if shift is not None:
                log_kernel -= loggamma(z + offset + shift)
            terms.append(complex(c * factor(z + offset)
                                 * np.exp(log_kernel)))
    return terms


@pytest.mark.parametrize("case", ["cesaro-2", "cesaro-3", "dirichlet",
                                  "exponential", "exponential-inner",
                                  "weighted-2", "weighted-3"])
def test_single_sums_brute(lio_10k, zs1000, case):
    """Every single sum is 2a * sum of c Gamma K(rho + 1/2), with the pole
    residue a = Gamma(1/2) / (2 zeta(1/2)) and the formula's kernel K."""
    zsub = zeros.truncate(zs1000, count=12)
    coeff = zsub.z2rhos / zsub.zprimes
    a = math.sqrt(math.pi) / (2.0 * float(mpmath.zeta(0.5)))
    kind = sieve.KIND_LIOUVILLE
    name, _, d = case.partition("-")
    offset = 0.5
    if name == "cesaro":
        d, x = int(d), 900.0
        got = explicit.explicit_cesaro(kind, x, zsub, d=d).single_sum
        terms = _brute_single_terms(zsub, coeff, offset, d,
                                    lambda u: x ** (u + d - 1))
    elif name == "dirichlet":
        s = 3.0 + 1.0j
        got = explicit.dirichlet_explicit(kind, s, zsub).single_sum
        terms = _brute_single_terms(zsub, coeff, offset, 2.0,
                                    lambda u: s * (s + 1.0) / (s - u))
    elif name == "exponential":
        y = 0.05
        bd = explicit.exponential_explicit(kind, y, zsub)
        got = bd.single_sum
        if d == "inner":
            got = bd.double_sum
            offset = 0.0
        terms = _brute_single_terms(zsub, coeff, offset, None,
                                    lambda u: y ** (-u))
    else:
        d = int(d)
        w = explicit.PolynomialWeight(0.5, 3.0, 50.0, power=3)
        got = explicit.weighted_average_explicit(
            explicit.WeightedAverage(w, lio_10k, d), zsub).single_sum
        terms = _brute_single_terms(
            zsub, coeff, offset, d, lambda u: w.eta ** (u + d - 2)
            * complex(w.moments(np.array([u + d - 2.0]))[0]))
    brute = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    want = brute * brute if offset == 0.0 else 2.0 * a * brute
    if name != "dirichlet":
        want = want.real
    assert got == pytest.approx(want, rel=1e-12)


def test_pair_term_against_mpmath(rng):
    """One engine term c1 c2 Gamma(z1) Gamma(z2) / Gamma(z1 + z2 + shift)."""
    gammas = np.sort(rng.uniform(14.0, 80.0, 20))
    coeff = rng.normal(size=20) + 1j * rng.normal(size=20)
    for _ in range(20):
        i, j = (int(v) for v in rng.integers(0, 20, 2))
        s1, s2 = (int(v) for v in rng.choice((-1, 1), 2))
        shift = float(rng.uniform(1.0, 4.0))
        got = explicit._pattern_terms(
            gammas, coeff, shift, lambda z, lk: np.exp(lk), s1, s2,
            np.array([i]), np.array([j]))[0]
        z1 = mpmath.mpc(0.5, s1 * gammas[i])
        z2 = mpmath.mpc(0.5, s2 * gammas[j])
        c1 = coeff[i] if s1 > 0 else np.conj(coeff[i])
        c2 = coeff[j] if s2 > 0 else np.conj(coeff[j])
        want = complex(c1 * c2) * complex(mpmath.gamma(z1) * mpmath.gamma(z2)
                                          / mpmath.gamma(z1 + z2 + shift))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_cesaro_double_sum_brute(zs1000):
    """All four conjugate sign patterns, summed the slow way."""
    x = 900.0
    zsub = zeros.truncate(zs1000, count=12)
    bd = explicit.explicit_cesaro(sieve.KIND_LIOUVILLE, x, zsub, d=2)
    coeff = zsub.z2rhos / zsub.zprimes
    terms = _brute_pair_terms(zsub, coeff, 2.0,
                              lambda z: np.exp((z + 1.0) * math.log(x)))
    brute = math.fsum(t.real for t in terms)
    assert bd.double_sum == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
def test_dirichlet_complex_s_double_sum_brute(zs1000, kind):
    """Off the real axis the two mixed patterns are pruned separately."""
    s = 3.0 + 1.0j
    zsub = zeros.truncate(zs1000, count=12)
    bd = explicit.dirichlet_explicit(kind, s, zsub)
    if kind == sieve.KIND_LIOUVILLE:
        coeff = zsub.z2rhos / zsub.zprimes
    else:
        coeff = 1.0 / zsub.zprimes
    pref = s * (s + 1.0)
    terms = _brute_pair_terms(zsub, coeff, 2.0, lambda z: pref / (s - z))
    brute = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    assert bd.double_sum == pytest.approx(brute, rel=1e-10)
    assert bd.pair_terms > 2 * 78


@pytest.mark.parametrize("case", ["dirichlet", "cesaro"])
def test_four_pattern_pair_sum_matches_the_hermitian_one(zs1000, case):
    """With a Hermitian kernel the four sign patterns, (-, -) and (-, +)
    included, give the doubled real part of (+, +) and (+, -): the same
    total, no imaginary part, and twice the evaluated count, since the
    mixed-sign bound is even in Im z."""
    zsub = zeros.truncate(zs1000, count=40)
    kind = sieve.KIND_LIOUVILLE
    if case == "dirichlet":
        s = 3.0
        bd = explicit.dirichlet_explicit(kind, s, zsub)

        def factor(w, log_kernel):
            return s * (s + 1.0) * np.exp(log_kernel) / (s - w)

        log_bound = math.log(s * (s + 1.0) / (s - 1.0))
    else:
        lx = math.log(1e4)
        bd = explicit.explicit_cesaro(kind, 1e4, zsub)

        def factor(w, log_kernel):
            return np.exp(log_kernel + (w + 1.0) * lx)

        log_bound = 2.0 * lx
    coeff = zsub.z2rhos / zsub.zprimes
    parts = (bd.main_term, bd.single_sum)
    herm, four = (explicit._pair_total(zsub.gammas, coeff, 2.0, factor,
                                       log_bound, parts, hermitian)
                  for hermitian in (True, False))
    assert herm == (bd.double_sum, bd.pair_terms)
    assert abs(four[0] - herm[0]) <= 1e-13 * abs(herm[0])
    assert abs(four[0].imag) <= 1e-13 * abs(four[0])
    assert four[1] == 2 * herm[1]


def _weighted_pair_terms(zsub, coeff, w, d):
    def factor(z):
        e = z + (d - 2.0)
        return w.eta ** e * complex(w.moments(np.array([e]))[0])

    return _brute_pair_terms(zsub, coeff, 2.0, factor)


@pytest.mark.parametrize("d", [2, 3])
def test_weighted_explicit_double_sum_brute(lio_10k, zs1000, d):
    zsub = zeros.truncate(zs1000, count=12)
    w = explicit.PolynomialWeight(0.5, 3.0, 50.0, power=3)
    bd = explicit.weighted_average_explicit(
        explicit.WeightedAverage(w, lio_10k, d), zsub)
    terms = _weighted_pair_terms(zsub, zsub.z2rhos / zsub.zprimes, w, d)
    brute = math.fsum(t.real for t in terms)
    assert bd.double_sum == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_weighted_explicit_moebius_is_double_only(zs1000, d):
    """The kind comes from the table: a moebius table has no pole residue,
    and with eta*a < 1 no boundary term joins main_term either."""
    zsub = zeros.truncate(zs1000, count=12)
    w = explicit.PolynomialWeight(0.0, 3.0, 50.0, power=3)
    assert not w.boundary_applies
    table = sieve.build_sieve(sieve.KIND_MOEBIUS, 256)
    bd = explicit.weighted_average_explicit(
        explicit.WeightedAverage(w, table, d), zsub)
    assert bd.main_term == 0.0
    assert bd.single_sum == 0.0
    terms = _weighted_pair_terms(zsub, 1.0 / zsub.zprimes, w, d)
    brute = math.fsum(t.real for t in terms)
    assert bd.double_sum == pytest.approx(brute, rel=1e-10)


def test_cesaro_residual_scale(zs1000, lio_series_10k):
    x = 5000.0
    direct = convolve.cesaro_sum(lio_series_10k, x)
    bd = explicit.explicit_cesaro(sieve.KIND_LIOUVILLE, x, zs1000, d=2)
    assert abs(direct - bd.total) / x ** 1.5 < 50.0


def test_cesaro_moebius_is_double_only(zs1000):
    bd = explicit.explicit_cesaro(sieve.KIND_MOEBIUS, 1500.0, zs1000, d=2)
    assert bd.main_term == 0.0
    assert bd.single_sum == 0.0
    assert bd.double_sum != 0.0


def test_cesaro_extrapolation_flag(zs1000):
    with pytest.raises(ValueError):
        explicit.explicit_cesaro(sieve.KIND_MOEBIUS, 500.0, zs1000, d=3)


# ---------------------------------------------------------------------------
# Dirichlet and exponential weightings


def test_dirichlet_direct_brute(lio_series_10k, rng):
    s = 3.0 + 1.0j
    got = explicit.dirichlet_direct(lio_series_10k, s, 400)
    vals = lio_series_10k.values
    acc = [int(vals[n]) * complex(n) ** (-s) for n in range(2, 401)]
    want = complex(math.fsum(t.real for t in acc),
                   math.fsum(t.imag for t in acc))
    assert got == pytest.approx(want, rel=1e-13)


def test_dirichlet_explicit_real_axis(zs1000, lio_series_10k):
    s = 3.0 + 0j
    direct = explicit.dirichlet_direct(lio_series_10k, s, 10 ** 4)
    bd = explicit.dirichlet_explicit(sieve.KIND_LIOUVILLE, s, zs1000)
    _assert_real_by_construction(bd)
    # the formula carries an O(1) defect by design, so only the reported
    # envelope is load bearing here
    assert abs(direct - bd.total) < bd.envelope
    assert bd.pair_terms > 0


def test_dirichlet_pole_has_residue_a_squared(zs1000):
    """sum S(n) n^(-s) ~ a^2 / (s - 1) as s -> 1+, since
    sum_{n<=x} S(n) ~ a^2 x: the integral of x^(w-s-1) over x >= 1 is
    1 / (s - w), so the main term's pole enters with a plus sign."""
    s = 1.001
    bd = explicit.dirichlet_explicit(sieve.KIND_LIOUVILLE, s,
                                     zeros.truncate(zs1000, count=100))
    a = math.sqrt(math.pi) / (2.0 * float(mpmath.zeta(0.5)))
    assert (s - 1.0) * bd.total == pytest.approx(a * a, abs=1e-3)


def test_dirichlet_domain_and_pole_guards(zs1000):
    with pytest.raises(ValueError):
        explicit.dirichlet_explicit(sieve.KIND_LIOUVILLE, 0.9 + 0j, zs1000)
    near_pole = (1.0 + 1e-9) + 1j * float(zs1000.gammas[0])
    with pytest.raises(ValueError):
        explicit.dirichlet_explicit(sieve.KIND_LIOUVILLE, near_pole, zs1000)
    # every expansion denominator has modulus >= Re s - 1, so the domain
    # rule Re s > 1 + 1e-6 alone keeps them off zero
    with pytest.raises(ValueError, match=r"Re s > 1 \+ 1e-6"):
        explicit.dirichlet_explicit(sieve.KIND_LIOUVILLE, 1.0 + 1e-7 + 5j,
                                    zs1000)
    bd = explicit.dirichlet_explicit(sieve.KIND_LIOUVILLE, 1.0 + 2e-6 + 5j,
                                     zeros.truncate(zs1000, count=50))
    assert math.isfinite(abs(bd.total))


def test_exponential_direct_needs_decayed_tail(lio_series_10k):
    with pytest.raises(ValueError):
        explicit.exponential_direct(lio_series_10k, 0.001, 10 ** 4)


def test_exponential_formula_structure(zs1000, lio_series_10k):
    y = 0.05
    direct = explicit.exponential_direct(lio_series_10k, y, 10 ** 4)
    bd = explicit.exponential_explicit(sieve.KIND_LIOUVILLE, y, zs1000)
    want_main = math.pi / (4.0 * specfun.zeta_half() ** 2 * y)
    assert bd.main_term == pytest.approx(want_main, rel=1e-14)
    assert bd.pair_terms == 0          # the double sum is a factored square
    assert abs(direct - bd.total) < bd.envelope
    mu = explicit.exponential_explicit(sieve.KIND_MOEBIUS, y, zs1000)
    assert mu.double_sum >= 0.0
    # the moebius inner sum is negative at this y, where 2 * 0.0 * inner
    # would give -0.0: no pole means exact +0.0 terms
    for term in (mu.main_term, mu.single_sum):
        assert term == 0.0 and math.copysign(1.0, term) == 1.0


# ---------------------------------------------------------------------------
# weighted averages and the exact identity


def _brute_weighted(w, table, d):
    """Triple loop over the cut first factor and the (d-1)-fold rest."""
    v = [int(t) for t in table.values]
    rest = [0] * (table.limit + 1)
    rest[0] = 1
    for _ in range(d - 1):
        nxt = [0] * (table.limit + 1)
        for i, r in enumerate(rest):
            if r == 0:
                continue
            for j in range(1, table.limit + 1 - i):
                nxt[i + j] += r * v[j]
        rest = nxt
    cut = int(math.floor(w.eta * w.a))
    acc = []
    for m in range(cut + 1, table.limit + 1):
        if v[m] == 0:
            continue
        for j in range(d - 1, table.limit + 1 - m):
            if rest[j]:
                acc.append(v[m] * rest[j] * float(w.f((m + j) / w.eta)))
    return math.fsum(acc)


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
@pytest.mark.parametrize("d", [2, 3])
def test_weighted_direct_brute(kind, d):
    table = sieve.build_sieve(kind, 64)
    w = explicit.PolynomialWeight(0.3, 2.1, 8.0, power=3)
    got = explicit.weighted_average_direct(
        explicit.WeightedAverage(w, table, d))
    want = _brute_weighted(w, table, d)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
def test_exact_identity_spot(kind):
    table = sieve.build_sieve(kind, 2048)
    # the last two have 0 < eta*a = 0.6 < 1: a non-integer cut with no
    # boundary term, so both kink families of the kernel are live
    for a, b, eta, p, d in ((0.0, 2.5, 37.0, 2, 2),
                            (1.3, 3.3, 25.0, 3, 3),
                            (0.02, 2.5, 30.0, 2, 2),
                            (0.02, 2.5, 30.0, 3, 3)):
        wa = explicit.WeightedAverage(
            explicit.PolynomialWeight(a, b, eta, power=p), table, d)
        direct = explicit.weighted_average_direct(wa)
        rhs = explicit.weighted_average_rhs(wa)
        assert abs(direct - rhs) / max(1.0, abs(direct)) < 1e-10


def test_polynomial_weight_moments_against_quadrature():
    w = explicit.PolynomialWeight(0.5, 3.0, 40.0, power=3)
    p = 3
    for z in (0.3 + 0j, 1.5 + 2.0j, 2.0 - 5.0j):
        got = complex(w.moments(np.array([z]))[0])
        f2 = lambda t: p * (p - 1) * (3.0 - t) ** (p - 2) * t ** (z + 1.0)
        want = complex(mpmath.quad(f2, [0.5, 3.0]))
        assert got == pytest.approx(want, rel=1e-10)
    # a = 0 at real z: the exact |f''| moment the envelopes use
    w = explicit.PolynomialWeight(0.0, 3.0, 40.0, power=3)
    got = float(w.moments(0.6).real)
    want = float(mpmath.quad(lambda t: 6.0 * (3.0 - t) * t ** 1.6,
                             [0.0, 3.0]))
    assert got == pytest.approx(want, rel=1e-13)


def test_polynomial_weight_derivatives_consistent():
    w = explicit.PolynomialWeight(0.5, 3.0, 40.0, power=4)
    h = 1e-4
    for t in (0.8, 1.7, 2.9):
        fd2 = (w.f(t + h) - 2.0 * w.f(t) + w.f(t - h)) / (h * h)
        assert float(w.f_second(t)) == pytest.approx(float(fd2), rel=1e-6)
    assert float(w.f(3.0)) == 0.0
    assert float(w.f(0.4)) == 0.0   # support starts at a


def test_weight_validation():
    with pytest.raises(ValueError):
        explicit.PolynomialWeight(-0.5, 2.0, 10.0)
    with pytest.raises(ValueError):
        explicit.PolynomialWeight(2.0, 2.0, 10.0)
    with pytest.raises(ValueError):
        explicit.PolynomialWeight(0.0, math.inf, 10.0)
    with pytest.raises(ValueError):
        explicit.PolynomialWeight(0.0, 2.0, -1.0)
    with pytest.raises(ValueError):
        explicit.PolynomialWeight(0.0, 2.0, 10.0, power=1)


def test_boundary_flag():
    assert not explicit.PolynomialWeight(0.0, 2.0, 50.0).boundary_applies
    assert explicit.PolynomialWeight(1.0, 2.0, 50.0).boundary_applies


def test_weighted_explicit_formula_breakdown(lio_10k, zs1000):
    zsub = zeros.truncate(zs1000, count=300)
    w = explicit.PolynomialWeight(0.5, 3.0, 50.0, power=3)
    wa = explicit.WeightedAverage(w, lio_10k, 2)
    direct = explicit.weighted_average_direct(wa)
    bd = explicit.weighted_average_explicit(wa, zsub)
    _assert_real_by_construction(bd)
    assert abs(direct - bd.total) < bd.envelope


# ---------------------------------------------------------------------------
# the absolute double-series diagnostic


def test_double_series_against_independent_sum(zs1000):
    K = 64
    zsub = zeros.truncate(zs1000, count=K)
    for kind in (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS):
        mine = explicit.double_series_diagnostic(zsub, 1.0, kind, K)
        for pos, cut in enumerate((K // 8, K // 4, K // 2, K)):
            g = zsub.gammas[:cut]
            if kind == sieve.KIND_LIOUVILLE:
                c = np.abs(zsub.z2rhos[:cut] / zsub.zprimes[:cut])
            else:
                c = np.abs(1.0 / zsub.zprimes[:cut])
            i, j = np.triu_indices(cut)
            r1 = 0.5 + 1j * g[i]
            r2 = 0.5 + 1j * g[j]
            lg = loggamma(r1).real + loggamma(r2).real
            pp = np.exp(lg - loggamma(r1 + r2 + 2.0).real)
            pm = np.exp(lg - loggamma(r1 + np.conj(r2) + 2.0).real)
            want = float(np.sum(np.where(i == j, 1.0, 2.0)
                                * 2.0 * c[i] * c[j] * (pp + pm)))
            assert mine[pos] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("k", [1.0, 1.5])
@pytest.mark.parametrize("kind", [sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS])
def test_absolute_double_series_is_the_ordered_signed_sum(zs1000, kind, k):
    K = 8
    zsub = zeros.truncate(zs1000, count=K)
    cabs = np.abs((zsub.z2rhos if kind == sieve.KIND_LIOUVILLE else 1.0)
                  / zsub.zprimes)
    mine = explicit.double_series_diagnostic(zs1000, k, kind, K)
    for pos, cut in enumerate((K // 8, K // 4, K // 2, K)):
        want = math.fsum(abs(t) for t in _brute_pair_terms(
            zeros.truncate(zsub, count=cut), cabs, 1.0 + k, lambda z: 1.0))
        assert mine[pos] == pytest.approx(want, rel=1e-12)


def test_double_series_partial_sums_increase(zs1000):
    out = explicit.double_series_diagnostic(zs1000, 1.0,
                                            sieve.KIND_LIOUVILLE, 800)
    assert out[0] < out[1] < out[2] < out[3]


def test_double_series_guards(zs1000):
    with pytest.raises(ValueError):
        explicit.double_series_diagnostic(zs1000, 0.5, sieve.KIND_LIOUVILLE,
                                          100)
    with pytest.raises(ValueError):
        explicit.double_series_diagnostic(zs1000, 1.0, sieve.KIND_LIOUVILLE,
                                          5000)
