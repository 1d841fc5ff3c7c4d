"""Truncated explicit formulas over the nontrivial zeta zeros.

Every average this package cares about (summatory functions, Cesaro
averages of the pair convolution, Dirichlet and exponential generating
series, smoothly weighted convolution sums) has an expansion of the
shape

    main term + single zero sum + double zero sum + error,

truncated here to the zeros of the given ZeroSet: every formula sums
over all of them (cut it with zeros.truncate first) and reports T as
its last ordinate.  The evaluators below report the three pieces
separately so they can be laid against sieved ground truth.

Realness and closure.  Zeros enter in conjugate pairs, so a sum that is
real in exact arithmetic is computed as term(rho) + term(conj rho) per
positive ordinate, which collapses to 2 Re term(rho) when the remaining
parameters are real.  Such a sum is real by construction: it is formed
from real parts only and its pole terms are real, so its breakdown
holds Python floats and there is no imaginary part to discard or to
check.  Double sums run over unordered positive-index pairs (i <= j)
with weight 2 off the diagonal; the two sign patterns (rho_i, rho_j)
and (rho_i, conj rho_j) then cover all four quadrant combinations.
Mixed-sign terms carry a factor that decays like
exp(-pi min(gamma_i, gamma_j)) and are pruned against a log-magnitude
bound; same-sign terms decay only polynomially and are always
evaluated.  pair_terms records how many (pair, pattern) values were
actually evaluated after pruning.

Residues and one kernel.  Each factor of a sum over v = lambda or mu is
an inverse Mellin integral of D(s) Gamma(s), where D(s) = zeta(2s)/zeta(s)
for lambda and 1/zeta(s) for mu.  Shifting the contours left picks up
one residue per factor: a = Gamma(1/2) / (2 zeta(1/2)) at the pole
s = 1/2 (lambda only) and c(rho) Gamma(rho) at each zero, with
c(rho) = zeta(2 rho)/zeta'(rho) or 1/zeta'(rho).  A two-factor formula
applies its kernel K(w) = F(w) / Gamma(w + shift) to the sum w of the
two residue points:

    main   = a^2 K(1),
    single = 2a * sum over z = rho, conj rho of c(z) Gamma(z) K(z + 1/2),
    double = sum of c(z1) c(z2) Gamma(z1) Gamma(z2) K(z1 + z2).

A formula supplies only F (through factor), the shift, a number bounding
log |F| on Re w = 1 and its envelope; _expand does the rest.
The exponential kernel y^(-w) is multiplicative instead, so that
expansion is the square of one factor, a y^(-1/2) + sum c(z) Gamma(z) y^(-z).

Weighted averages.  One weight type, PolynomialWeight, stands for
f(w) = (b - w)^p on [a, b) at scale eta.  WeightedAverage(w, table, d)
builds S_(d-1) and the prefix sums of v and S_(d-1) once, and the three
weighted functions read only it.  weighted_average_rhs restates
weighted_average_direct exactly, as a boundary term plus
int f''(w) K(eta w) dw with K built from those prefix sums;
weighted_average_explicit expands it over the zeros through the closed
form of I(z) = int f''(w) w^(z+1) dw.  The kind comes from the table.

Determinism.  Every floating sum is one math.fsum, which rounds the
exact total of its terms once.  The result does not depend on the order
of the terms, so the same inputs always give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .convolve import ConvolutionSeries, convolve_fft
from .sieve import KIND_LIOUVILLE, KIND_MOEBIUS, SieveTable

__all__ = [
    "ExplicitBreakdown",
    "PolynomialWeight",
    "blocked_sum",
    "explicit_summatory",
    "explicit_cesaro",
    "dirichlet_direct",
    "dirichlet_explicit",
    "exponential_direct",
    "exponential_explicit",
    "WeightedAverage",
    "weighted_average_direct",
    "weighted_average_rhs",
    "weighted_average_explicit",
    "double_series_diagnostic",
]

PRUNE_EPS = 1e-18
ENV_EPS = 0.1

# Hard cap on the unordered pair count of a double sum; past this the
# index and value buffers stop being desk-scale objects.
_PAIR_CAP = 1 << 23
# Pairs per chunk: each chunk temporary is 4 MB of complex128.  The pair
# total is one exactly rounded sum, so the chunk size moves no bit.
# 2^16 is about 20% faster (the temporaries stay in cache) and lowers
# the peak by about 45 MB; ROADMAP "Fix first" 1 says why it waits.
_CHUNK = 1 << 18


# ---------------------------------------------------------------------------
# exactly rounded reduction


def blocked_sum(values):
    """Exactly rounded total of a 1-D array.

    One math.fsum over all entries, so the result is the exact sum
    rounded once and does not depend on the order of the entries.
    Complex input sums its real and imaginary parts separately.

    Returns a float for real input, a complex for complex input.
    """
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        return complex(math.fsum(arr.real), math.fsum(arr.imag))
    return math.fsum(arr)


# ---------------------------------------------------------------------------
# breakdown container and shared helpers


@dataclass(frozen=True)
class ExplicitBreakdown:
    """Term-by-term value of one truncated explicit formula.

    total equals main_term + single_sum + double_sum by construction.
    The four values are Python floats when the formula is Hermitian
    (every parameter real) and complex otherwise.  envelope is the
    error term of the formula evaluated with constant 1 and epsilon
    0.1; it is a reporting scale for residuals, not a certified bound.
    pair_terms counts the (pair, pattern) values evaluated in the
    double sum after pruning.
    """

    main_term: object
    single_sum: object
    double_sum: object
    total: object
    truncation_T: float
    zeros_used: int
    pair_terms: int
    envelope: float


def _check_kind(kind):
    if kind not in (KIND_LIOUVILLE, KIND_MOEBIUS):
        raise ValueError(f"unknown kind {kind!r}")


def _cut(zs):
    """The truncation ordinate T of a zero set: its last ordinate, 1.0
    when it is empty."""
    return zs.t_max if len(zs) else 1.0


def _residues(kind, zs):
    """(a, c): the residue a = Gamma(1/2) / (2 zeta(1/2)) of D(s) Gamma(s)
    at s = 1/2 (None for moebius, whose D has no pole there), and c(rho)
    per zero: zeta(2 rho)/zeta'(rho) for liouville, else 1/zeta'(rho)."""
    if kind == KIND_LIOUVILLE:
        return (math.sqrt(math.pi) / (2.0 * specfun.zeta_half()),
                zs.z2rhos / zs.zprimes)
    return None, 1.0 / zs.zprimes


def _assemble(main, single, double, zs, pairs, envelope, hermitian):
    if hermitian:
        main, single, double = (complex(v).real for v in (main, single,
                                                          double))
    return ExplicitBreakdown(
        main_term=main, single_sum=single, double_sum=double,
        total=main + single + double, truncation_T=_cut(zs),
        zeros_used=len(zs), pair_terms=int(pairs), envelope=float(envelope))


# ---------------------------------------------------------------------------
# double-sum engine


def _pair_layout(count):
    """Unordered index pairs i <= j as two aligned arrays."""
    npairs = count * (count + 1) // 2
    if npairs > _PAIR_CAP:
        raise ValueError(
            f"double sum over {count} zeros needs {npairs} pairs; the cap "
            f"is {_PAIR_CAP}, truncate the zero set first")
    return np.triu_indices(count)


def _log_kernel(gammas, s1, s2, ci, cj, shift):
    """z = z1 + z2 and log Gamma(z1) + log Gamma(z2) - log Gamma(z + shift)
    at z1 = 1/2 + s1*i*gamma[ci], z2 = 1/2 + s2*i*gamma[cj]."""
    z1 = 0.5 + 1j * s1 * gammas[ci]
    z2 = 0.5 + 1j * s2 * gammas[cj]
    z = z1 + z2
    return z, (specfun.log_gamma(z1) + specfun.log_gamma(z2)
               - specfun.log_gamma(z + shift))


def _pattern_terms(gammas, coeff, shift, factor, s1, s2, ci, cj):
    """Pair terms of one sign pattern; c(conj rho) = conj c(rho)."""
    c1 = coeff[ci] if s1 > 0 else np.conj(coeff[ci])
    c2 = coeff[cj] if s2 > 0 else np.conj(coeff[cj])
    return c1 * c2 * factor(*_log_kernel(gammas, s1, s2, ci, cj, shift))


def _pair_total(gammas, coeff, shift, factor, log_bound, parts, hermitian):
    """The double sum over all zeros below the cut.

    Sums c(z1) c(z2) Gamma(z1) Gamma(z2) / Gamma(z1 + z2 + shift) F(z)
    over z1 = 1/2 +- i gamma_i, z2 = 1/2 +- i gamma_j and z = z1 + z2,
    with c(rho) per zero in coeff.  factor(z, log_kernel) returns
    exp(log_kernel) F(z), log_kernel being the log of the Gamma ratio,
    so a power x^z can share its one exponential.  hermitian means
    F(conj z) == conj F(z), true whenever every other parameter of the
    formula is real; then only the sign patterns (+, +) and (+, -) are
    evaluated, each doubled in real part.  Same-sign patterns are
    evaluated in full.  A mixed-sign term is skipped when the closed-form
    size of its Gamma ratio times exp(log_bound), a bound on |F| at
    Re z = 1, is below PRUNE_EPS times the largest of 1 and the
    magnitudes in parts (the formula's main and single terms).

    Returns (total, evaluated_pattern_count).  Pairs are evaluated in
    chunks of _CHUNK to bound memory; the total is one exactly rounded
    sum, so it does not depend on the pair order.
    """
    ii, jj = _pair_layout(gammas.size)
    weight = np.where(ii == jj, 1.0, 2.0)
    npairs = ii.size
    scale = max([abs(complex(p)) for p in parts] + [1.0])
    prune_log = math.log(PRUNE_EPS * scale)
    logc = np.log(np.abs(coeff))
    log_half = specfun.log_gamma_abs_half_line(gammas)
    patterns = (((+1, +1), (+1, -1)) if hermitian
                else ((+1, +1), (-1, -1), (+1, -1), (-1, +1)))

    combined = np.zeros(npairs, dtype=np.complex128)
    evaluated = 0
    for lo in range(0, npairs, _CHUNK):
        hi = min(lo + _CHUNK, npairs)
        ci, cj = ii[lo:hi], jj[lo:hi]
        shared = logc[ci] + logc[cj] + log_half[ci] + log_half[cj]
        vals = combined[lo:hi]
        for s1, s2 in patterns:
            keep = slice(None)
            if s1 != s2:
                imag = s1 * gammas[ci] + s2 * gammas[cj]
                keep = shared - specfun.log_gamma_abs_lower_bound(
                    1.0 + shift, imag) + log_bound >= prune_log
            ki, kj = ci[keep], cj[keep]
            if not ki.size:
                continue
            terms = _pattern_terms(gammas, coeff, shift, factor,
                                   s1, s2, ki, kj)
            vals[keep] += 2.0 * terms.real if hermitian else terms
            evaluated += ki.size
    return blocked_sum(weight * combined), evaluated


# ---------------------------------------------------------------------------
# the residue expansion


def _expand(kind, zs, shift, factor, log_bound, envelope, hermitian=True,
            pair_shift=None, boundary=None):
    """The two-factor residue expansion over every zero of zs.

    K(w) = F(w) / Gamma(w + shift) comes through the factor(w, log_kernel)
    contract of _pair_total.  main = a^2 K(1) and single = 2a times the
    sum of c(z) Gamma(z) K(z + 1/2) over z = rho, conj rho (hermitian:
    z = rho, doubled in real part), both 0.0 for moebius, which has no
    pole residue a.  The double sum divides by Gamma(w + pair_shift)
    (pair_shift defaults to shift) and prunes with the number log_bound;
    boundary, when given, joins main first and so counts toward the
    pruning scale.
    """
    a, coeff = _residues(kind, zs)
    main, single = 0.0, 0.0
    if a is not None:
        main = a * a * complex(factor(1.0, -specfun.log_gamma(1.0 + shift)))
        z, c = zs.rhos, coeff
        if not hermitian:       # one row for z = rho, one for conj rho
            z, c = np.stack((z, z.conj())), np.stack((c, c.conj()))
        w = z + 0.5
        terms = c * factor(w, specfun.log_gamma(z)
                           - specfun.log_gamma(w + shift))
        single = 2.0 * a * blocked_sum(
            2.0 * terms.real if hermitian else terms.sum(axis=0))
    if boundary is not None:
        main = complex(main) + boundary
    double, pairs = _pair_total(
        zs.gammas, coeff, shift if pair_shift is None else pair_shift,
        factor, log_bound, (main, single), hermitian)
    return _assemble(main, single, double, zs, pairs, envelope, hermitian)


# ---------------------------------------------------------------------------
# summatory functions


def explicit_summatory(kind, x, zs):
    """Truncated explicit formula for the summatory function.

    liouville: L(x) = x^(1/2)/zeta(1/2) + 1
        + sum over rho of zeta(2 rho) x^rho / (zeta'(rho) rho).
    moebius: M(x) = -2 + sum over rho of x^rho / (zeta'(rho) rho).
    rho runs over the zeros of zs and their conjugates.

    This is the one-factor case with kernel K(w) = x^w / Gamma(w + 1):
    the zero terms c(rho) Gamma(rho) K(rho) are kept in the closed form
    c(rho) x^rho / rho, which the Gamma ratio taken through logs would
    blur by about 1e-11 at gamma ~ 1e4.  main_term collects every
    residue of the Perron integrand off the critical line: the pole at
    s = 1/2 (liouville only), a K(1/2), and the residue at s = 0, which
    is D(0) = 1 for liouville and 1/zeta(0) = -2 for moebius.  Leaving
    the s = 0 piece in the remainder (it fits under
    the O(1) there) would put a constant floor of that size under the
    residual, so refining the truncation could never be seen to
    converge; with it the residual shrinks as zeros are added.  The
    residues at the trivial zeros vanish identically for liouville and
    stay below (2 pi/x)^2 / (2 zeta(3)) for moebius; both are left in
    the remainder.

    envelope is 1 + x(|log x| + 1)/T, with T the last ordinate of zs:
    the part of the remainder that shrinks with the truncation.  The
    full remainder with constant 1 adds (x - x^(1/4)) / (T^(1-eps) log x),
    and for moebius x^eps with the power 1/4 replaced by eps.
    """
    _check_kind(kind)
    x = float(x)
    if not x > 0.0:
        raise ValueError("x must be positive")
    rhos = zs.rhos
    a, coeff = _residues(kind, zs)
    main = -2.0 if a is None else a * math.sqrt(x) / math.gamma(1.5) + 1.0
    terms = coeff / rhos * np.exp(rhos * math.log(x))
    single = blocked_sum(2.0 * terms.real)
    envelope = 1.0 + x * (abs(math.log(x)) + 1.0) / _cut(zs)
    return _assemble(main, single, 0.0, zs, 0, envelope, hermitian=True)


# ---------------------------------------------------------------------------
# Cesaro average of the pair convolution


def explicit_cesaro(kind, x, zs, d=2):
    """Truncated explicit formula for the weighted partial sum
    (1/(d-1)!) sum_{n <= x} S_d(n) (x - n)^(d-1).

    Kernel K(w) = x^(w + d - 1) / Gamma(w + d), so the main term is
    a^2 x^d / d! = x^d pi / (4 zeta(1/2)^2 d!) for liouville.  moebius
    has the double sum alone, stated for d = 2 only; other d raise.

    d = 2 is the case verified against sieved data at desk scale.  For
    d >= 3 the evaluated series is the (d-2)-fold iterated integral of
    the d = 2 expansion, while the sieved average itself grows like
    x^(3d/2 - 1); past d = 2 the two disagree at leading order, so this
    evaluator is a term-size diagnostic there, not a prediction.
    """
    _check_kind(kind)
    d = int(d)
    if d < 2:
        raise ValueError("d must be at least 2")
    if kind == KIND_MOEBIUS and d != 2:
        raise ValueError("the moebius expansion is stated for d=2 only")
    x = float(x)
    if not x > 0.0:
        raise ValueError("x must be positive")
    lx = math.log(x)

    def factor(w, log_kernel):
        return np.exp(log_kernel + (w + (d - 1)) * lx)

    if kind == KIND_LIOUVILLE:
        tail = x ** (d - 1)
    else:
        tail = x ** (d - 2 + ENV_EPS)
    envelope = x ** (d - 0.5 + ENV_EPS) + tail
    return _expand(kind, zs, d, factor, d * lx, envelope)


# ---------------------------------------------------------------------------
# Dirichlet series


def dirichlet_direct(series: ConvolutionSeries, s, N):
    """Partial sum of S(n) n^(-s) up to N, as one exactly rounded sum."""
    N = int(N)
    if N < 1:
        raise ValueError("N must be positive")
    if N > series.limit:
        raise ValueError(f"N={N} exceeds the series limit {series.limit}")
    s = complex(s)
    n = np.arange(1, N + 1, dtype=np.float64)
    terms = series.values[1:N + 1] * np.exp(-s * np.log(n))
    return blocked_sum(terms)


def dirichlet_explicit(kind, s, zs):
    """Zero expansion of the Dirichlet series of S(n), Re s > 1 + 1e-6.

    Kernel K(w) = s(s+1) / (Gamma(w + 2) (s - w)), from the integral of
    x^(w-s-1) over x >= 1; for liouville the main term is
    a^2 K(1) = s(s+1) pi / (8 zeta(1/2)^2 (s - 1)), so (s - 1) times the
    total tends to a^2 as s -> 1, and moebius keeps the double sum alone.
    Every denominator of the expansion (s - 1, s - rho1 - rho2 and
    s - rho - 1/2) has modulus at least Re s - 1, so the domain rule
    alone keeps them off zero.

    The error term O(|s(s+1)| / (Re s - 1/2 - eps)) of this expansion
    does not shrink as zeros are added, so agreement with
    dirichlet_direct is a structural diagnostic rather than a
    convergence statement; envelope reports that bound with constant 1
    and eps 0.1.  The breakdown is real only when Im s = 0.
    """
    _check_kind(kind)
    s = complex(s)
    if not s.real > 1.0 + 1e-6:
        raise ValueError("need Re s > 1 + 1e-6")
    pref = s * (s + 1.0)

    def factor(w, log_kernel):
        return pref * np.exp(log_kernel) / (s - w)

    # |s - w| >= Re s - 1 on Re w = 1
    return _expand(kind, zs, 2.0, factor,
                   math.log(abs(pref) / (s.real - 1.0)),
                   abs(pref) / (s.real - 0.5 - ENV_EPS),
                   hermitian=s.imag == 0.0)


# ---------------------------------------------------------------------------
# exponential series


def exponential_direct(series: ConvolutionSeries, y, N):
    """Partial sum of S(n) e^(-n y) up to N.

    Requires N*y >= 20 so the dropped tail sits below e^(-20) of the
    retained scale.
    """
    y = float(y)
    N = int(N)
    if y <= 0.0:
        raise ValueError("y must be positive")
    if N > series.limit:
        raise ValueError(f"N={N} exceeds the series limit {series.limit}")
    if N * y < 20.0:
        raise ValueError(
            f"N*y = {N * y:.3f} is below 20, the dropped tail would bite")
    n = np.arange(1, N + 1, dtype=np.float64)
    return blocked_sum(series.values[1:N + 1] * np.exp(-y * n))


def exponential_explicit(kind, y, zs):
    """Zero expansion of sum S(n) e^(-n y), the square of one factor.

    The factor is pole + inner, with pole = a y^(-1/2) (0 for moebius)
    and inner the sum of c(z) Gamma(z) y^(-z) over z = rho, conj rho, so
    main_term = pole^2 = pi / (4 zeta(1/2)^2 y) for liouville,
    single_sum = 2 pole inner, double_sum = inner^2 and pair_terms = 0.
    """
    _check_kind(kind)
    y = float(y)
    if y <= 0.0:
        raise ValueError("y must be positive")
    rhos = zs.rhos
    a, coeff = _residues(kind, zs)
    inner = blocked_sum(2.0 * (coeff * np.exp(
        specfun.log_gamma(rhos) - rhos * math.log(y))).real)
    main, single = 0.0, 0.0
    if a is not None:
        pole = a * y ** -0.5
        main, single = pole * pole, 2.0 * pole * inner
    return _assemble(main, single, inner * inner, zs, 0,
                     y ** (-0.5 - ENV_EPS) + 1.0, hermitian=True)


# ---------------------------------------------------------------------------
# convergence diagnostic for the double series


def double_series_diagnostic(zs, k, coeff_kind, K):
    """Absolute partial sums of the double zero series at shift 1 + k.

    A(K') sums |t(z1, z2)| over ordered pairs of signed zeros, z1 and z2
    each ranging over {rho_i, conj rho_i : i <= K'}, with
    t(z1, z2) = f(z1) f(z2) Gamma(z1) Gamma(z2) / Gamma(z1 + z2 + 1 + k)
    and f = zeta(2 rho)/zeta' (liouville) or 1/zeta' (moebius), reported
    modulo the global factor 2 from conjugation symmetry: each unordered
    positive pair, the diagonal included, contributes
    2 |c_i c_j| (|pp| + |pm|).

    Returns [A(K/8), A(K/4), A(K/2), A(K)] with integer division;
    absolute convergence needs k > 1/2 and shows up as the tail ratios
    settling toward 1.
    """
    _check_kind(coeff_kind)
    k = float(k)
    K = int(K)
    if K < 1 or K > len(zs):
        raise ValueError("K must satisfy 1 <= K <= number of zeros")
    if k <= 0.5:
        raise ValueError("absolute convergence needs k > 1/2")
    gam = zs.gammas[:K]
    cabs = np.abs(_residues(coeff_kind, zs)[1][:K])
    shift = 1.0 + k
    # i <= j, so the pairs of the K'-zero set are those with j < K'
    ii, jj = _pair_layout(K)
    terms = np.empty(ii.size)
    for lo in range(0, ii.size, _CHUNK):
        ci = ii[lo:lo + _CHUNK]
        cj = jj[lo:lo + _CHUNK]
        mag_pp = np.exp(_log_kernel(gam, +1, +1, ci, cj, shift)[1].real)
        mag_pm = np.exp(_log_kernel(gam, +1, -1, ci, cj, shift)[1].real)
        terms[lo:lo + _CHUNK] = 2.0 * (cabs[ci] * cabs[cj]) * (mag_pp + mag_pm)
    return [float(blocked_sum(terms[jj < cut]))
            for cut in (max(1, K // 8), max(1, K // 4), max(1, K // 2), K)]


# ---------------------------------------------------------------------------
# weighted averages


@dataclass(frozen=True)
class PolynomialWeight:
    """Weight f(w) = (b - w)^power on [a, b), zero elsewhere.

    power >= 2 keeps f(b-) = f'(b-) = 0.  f'' = p(p-1)(b - w)^(p-2) is
    nonnegative on [a, b), so every absolute moment int |f''| w^p dw an
    envelope needs is the moment I(p - 1) itself.
    """

    a: float
    b: float
    eta: float
    power: int = 2

    def __post_init__(self):
        for name, cast in (("a", float), ("b", float), ("eta", float),
                           ("power", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        if not 0.0 <= self.a < self.b < math.inf:
            raise ValueError("need 0 <= a < b < inf")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be a positive finite real")
        if self.power < 2:
            raise ValueError(
                "power must be at least 2 so f and f' vanish at b")

    def f(self, w):
        w = np.asarray(w, dtype=np.float64)
        return np.where((w >= self.a) & (w < self.b),
                        (self.b - w) ** self.power, 0.0)

    def f_second(self, w):
        w = np.asarray(w, dtype=np.float64)
        p = self.power
        return np.where((w >= self.a) & (w < self.b),
                        p * (p - 1) * (self.b - w) ** (p - 2), 0.0)

    def moments(self, z):
        """I(z) = int_a^b f''(w) w^(z+1) dw for complex z, vectorized, in
        closed form by expanding (b - w)^(power-2) binomially."""
        z = np.asarray(z, dtype=np.complex128)
        p = self.power
        log_a = math.log(self.a) if self.a > 0.0 else None
        log_b = math.log(self.b)
        out = np.zeros(z.shape, dtype=np.complex128)
        for k in range(p - 1):
            ck = math.comb(p - 2, k) * (-1.0) ** k * self.b ** (p - 2 - k)
            e = z + (2.0 + k)
            lower = 0.0 if log_a is None else np.exp(e * log_a)
            out = out + ck * (np.exp(e * log_b) - lower) / e
        return p * (p - 1) * out

    @property
    def boundary_applies(self):
        """Whether the summatory boundary term at eta*a is active."""
        return self.eta * self.a >= 1.0


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class WeightedAverage:
    """One weighted d-fold sum as data: weight w over table, order d >= 2.

    Checks once that the table reaches floor(eta b) + 1, and builds once
    what the weighted functions read: inner = S_(d-1)(0..floor(eta b) + 1)
    (S_1 = v) and the prefix sums p1 of v and p2 of S_(d-1).
    """

    w: PolynomialWeight
    table: SieveTable
    d: int = 2
    inner: np.ndarray = field(init=False, repr=False, compare=False)
    p1: np.ndarray = field(init=False, repr=False, compare=False)
    p2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d", int(self.d))
        if self.d < 2:
            raise ValueError("d must be at least 2")
        top = int(math.floor(self.w.eta * self.w.b)) + 1
        if top > self.table.limit:
            raise ValueError(
                f"the weighted average needs sieve values to {top}, table "
                f"stops at {self.table.limit}")
        if self.d == 2:
            inner = self.table.values[:top + 1].astype(np.int64)
        else:
            inner = convolve_fft(self.table, self.d - 1, top).values
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "p1", self.table.prefix[:top + 1])
        object.__setattr__(self, "p2", np.cumsum(inner, dtype=np.int64))


def weighted_average_direct(wa: WeightedAverage):
    """Exact weighted sum over d-tuples, first index cut at eta*a.

    Computes the sum over eta*a < n <= eta*b and m >= 1 of
    v(n) S_(d-1)(m) f((n+m)/eta), where v is the sieved coefficient and
    S_(d-1) its (d-1)-fold additive convolution (S_1 = v).  The support
    of f imposes n + m < eta*b, so the sum is finite; everything is
    integer convolution work plus one f evaluation per attained total.
    """
    w = wa.w
    hi = int(math.floor(w.eta * w.b))
    vcut = wa.table.values[:hi + 1].astype(np.int64)
    vcut[:int(math.floor(w.eta * w.a)) + 1] = 0
    totals = np.convolve(vcut, wa.inner[:hi + 1])[:hi + 1]
    idx = np.nonzero(totals)[0]
    terms = totals[idx] * np.asarray(w.f(idx / w.eta), dtype=np.float64)
    return float(blocked_sum(terms))


def _kink_kernel(p1, p2, na, nb):
    """Exact kink positions and values of K(x) = int G2(s) G1(x-s) ds.

    The integral runs over s in [0, x - na]; G1 and G2 are the step
    summatories with prefix arrays p1 (the cut factor) and p2.  K is
    piecewise linear with kinks on the integers and on na + integers.
    Both kink families come out of exact discrete convolutions of the
    prefix arrays; when na is itself an integer the families coincide
    and only the shifted one is produced.

    Returns ascending (positions, values) covering [na, floor(nb) + 1].
    """
    F = int(math.floor(na))
    beta = na - F
    top = int(math.floor(nb)) + 1
    ja = top - F
    p2f = p2[:ja + 1].astype(np.float64)
    # shifted family x = na + t: the inner sum pairs P2 against the
    # fractional blend of P1 around na
    t = np.arange(ja + 1)
    q = np.zeros(ja + 1)
    q[1:] = beta * p1[F + t[1:]] + (1.0 - beta) * p1[F + t[1:] - 1]
    ka = np.convolve(p2f, q)[:ja + 1]
    xa = na + np.arange(ja + 1, dtype=np.float64)
    if beta == 0.0:
        return xa, ka
    # integer family x = j for F < j <= top
    js = np.arange(F + 1, top + 1)
    p1m = p1[:top + 1].astype(np.float64).copy()
    p1m[:F + 1] = 0.0
    conv = np.convolve(p2f, p1m)
    kz = conv[js - 1] + (1.0 - beta) * p2f[js - F - 1] * float(p1[F])
    xs = np.concatenate((xa, js.astype(np.float64)))
    ks = np.concatenate((ka, kz))
    order = np.argsort(xs, kind="stable")
    return xs[order], ks[order]


def _boundary_term(w: PolynomialWeight, p1, p2):
    """G1(eta a) times int_a^b G2(eta v - eta a) f'(v) dv, exactly.

    G2 is constant between the breakpoints v_k = a + k/eta, so the
    integral telescopes through exact f evaluations.  Zero whenever
    eta a < 1 since G1 has no mass yet.
    """
    na = w.eta * w.a
    g1a = float(p1[int(math.floor(na))]) if na >= 1.0 else 0.0
    if g1a == 0.0:
        return 0.0
    kmax = int(math.ceil(w.eta * (w.b - w.a))) + 1
    vk = np.minimum(w.a + np.arange(kmax + 1) / w.eta, w.b)
    fv = np.asarray(w.f(vk), dtype=np.float64)
    fv[vk >= w.b] = 0.0
    steps = p2[np.minimum(np.arange(kmax), p2.size - 1)].astype(np.float64)
    return g1a * math.fsum(steps * (fv[1:] - fv[:-1]))


def weighted_average_rhs(wa: WeightedAverage):
    """Right-hand side of the exact weighted-average identity.

    The boundary term plus (1/eta) int f''(w) K(eta w) dw, where K is the
    exact convolution integral of the two step summatories.  This is an
    unconditional restatement of the double sum and must match
    weighted_average_direct to rounding.
    """
    w, p1, p2 = wa.w, wa.p1, wa.p2
    na = w.eta * w.a
    nb = w.eta * w.b
    # the kink positions start at na, so only the top needs trimming
    xs, ks = _kink_kernel(p1, p2, na, nb)
    hi_i = min(int(np.searchsorted(xs, nb, side="left")), xs.size - 1)
    xs = xs[:hi_i + 1]
    ks = ks[:hi_i + 1]
    dx = xs[1:] - xs[:-1]
    lefts = xs[:-1]
    rights = np.minimum(xs[1:], nb)
    keep = (dx > 1e-9) & (rights - lefts > 1e-12)
    x0 = xs[:-1][keep]
    k0 = ks[:-1][keep]
    slope = (ks[1:][keep] - k0) / dx[keep]
    lefts = lefts[keep]
    rights = rights[keep]
    # 16-point Gauss-Legendre per piece, exact through degree 31: K(eta w)
    # is linear there, so f'' of degree <= 30 (power <= 32) is exact
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    xn = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    kn = k0[:, None] + (xn - x0[:, None]) * slope[:, None]
    fn = np.asarray(w.f_second(xn / w.eta), dtype=np.float64)
    piece = (half / w.eta) * np.einsum("ij,ij,j->i", fn, kn, _GL_WEIGHTS)
    kernel = float(blocked_sum(piece)) / w.eta
    return _boundary_term(w, p1, p2) + kernel


def weighted_average_explicit(wa: WeightedAverage, zs):
    """Zero expansion of the weighted average, as an ExplicitBreakdown.

    With I(z) = int f''(w) w^(z+1) dw, the kernel is
    K(u) = eta^(u+d-2) I(u+d-2) / Gamma(u + d) in the main term
    a^2 K(1) = pi eta^(d-1) I(d-1) / (4 zeta(1/2)^2 d!) and the single
    sum, while the double sum divides by Gamma(u + 2) instead; the two
    agree at d = 2.  The table's kind picks the coefficients; moebius
    keeps the double sum alone.  When eta*a >= 1 the boundary term is
    computed exactly from wa's prefix sums and folded into main_term,
    keeping the total-sum invariant.  Only d = 2 is numerically
    confirmed as an asymptotic for these exponents; see explicit_cesaro
    on the d >= 3 caveat.
    """
    w, d = wa.w, wa.d
    leta = math.log(w.eta)

    def factor(u, log_kernel):
        return np.exp(log_kernel + (u + (d - 2)) * leta) \
            * w.moments(u + (d - 2.0))

    boundary = (_boundary_term(w, wa.p1, wa.p2)
                if w.boundary_applies else None)

    # f'' >= 0 on [a, b), so int |f''| w^p dw = I(p - 1); in particular
    # |I(z + d - 2)| <= I(d - 1) on Re z = 1
    def abs_moment(p):
        return float(w.moments(p - 1.0).real)

    log_bound = (d - 2) * leta + math.log(abs_moment(d))
    envelope = (w.eta ** (d - 1.5 + ENV_EPS) * abs_moment(d - 0.5 + ENV_EPS)
                + w.eta ** (d - 2) * abs_moment(d - 1))
    return _expand(wa.table.kind, zs, d, factor, log_bound, envelope,
                   pair_shift=2.0, boundary=boundary)
