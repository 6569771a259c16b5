import cmath
import functools
import math
import os
import random
import subprocess
import sys

import mpmath
import pytest

import epolylog
from epolylog import kronecker
from epolylog.errors import BadModulus, OnSingularLocus, OutOfRegion, TruncationTooSmall
from epolylog.kronecker import (
    EllipticPoint,
    LatticeContext,
    eisenstein_E,
    kronecker_F,
    lattice_constant,
    omega_coefficients,
    theta,
    theta_prime0,
    zeta_even,
)
from epolylog.precision import get_context
from oracles import point_add, point_from_xi, point_neg, point_sub

TAU = 0.1 + 0.8j


@pytest.fixture(scope="module")
def ctx():
    return LatticeContext(TAU, 15)


def F(xi, eta, ctx, definition="theta_ratio"):
    return kronecker_F(xi, eta, ctx, definition)


# -------------------------------------------------------------------- context


def test_precision_context_shared_per_digit_count():
    assert get_context(30) is get_context(30)
    assert get_context(15) is get_context(12)
    assert get_context(40) is not get_context(30)
    a = LatticeContext(TAU, 30)
    b = LatticeContext(-0.2 + 0.45j, 30)
    assert a.prec is b.prec is get_context(30)
    assert LatticeContext(TAU, 15).prec is get_context(15)


@pytest.mark.parametrize("digits", [17.9, "30", "extended", math.nan], ids=repr)
def test_precision_must_be_an_int_digit_count(digits):
    """A digit count is an int: a float is not rounded, and a string is not
    parsed."""
    with pytest.raises(ValueError, match="must be an integer"):
        get_context(digits)
    with pytest.raises(ValueError, match="must be an integer"):
        LatticeContext(TAU, digits)


def test_precision_must_be_a_positive_digit_count():
    for digits in (0, -30):
        with pytest.raises(ValueError, match="must be >= 1"):
            get_context(digits)


@pytest.mark.parametrize("digits", [15, 30])
def test_context_repr(digits):
    """The repr formats |q| as a float at every precision (an mpf refuses
    the :g format)."""
    assert repr(LatticeContext(TAU, digits)) == "LatticeContext(tau=(0.1+0.8j), |q|=0.006561)"


@pytest.mark.parametrize("digits", [15, 30])
@pytest.mark.parametrize(
    "tau",
    [
        0.5 - 0.3j,  # lower half-plane
        0.3 + 0.02j,  # |q| too close to 1
        200j,  # |q| underflows a double to 0
        complex(0.1, math.nan),
        complex(math.inf, 1.0),
    ],
    ids=repr,
)
def test_bad_modulus_rejected(tau, digits):
    with pytest.raises(BadModulus):
        LatticeContext(tau, digits)


@pytest.mark.parametrize("digits, tol", [(15, 1e-14), (30, 1e-28)])
def test_cot_pi_in_both_half_planes(digits, tol):
    prec = get_context(digits)
    for w in (prec.complex(0.31, 0.42), prec.complex(-0.27, -1.3), prec.complex(0.6, 2.5e-3), 0.37):
        with mpmath.workdps(digits + 15):
            want = mpmath.cot(mpmath.pi * mpmath.mpmathify(w))
            assert abs(prec.cot_pi(w) - want) < tol * abs(want)


@pytest.mark.parametrize("digits", [15, 30])
def test_to_complex_returns_a_builtin_complex(digits):
    prec = get_context(digits)
    values = [3, -0.25, 0.5 - 1.5j]
    if digits == 30:
        values.append(mpmath.mpc(0.5, -1.5))
    for z in values:
        got = prec.to_complex(z)
        assert type(got) is complex and got == z


def test_point_roundtrip(ctx):
    p = point_from_xi(0.31 + 0.17 * TAU, TAU)
    assert abs(p.s - 0.31) < 1e-12 and abs(p.r - 0.17) < 1e-12
    assert abs(p.s + p.r * TAU - (0.31 + 0.17 * TAU)) < 1e-14


ENTRY_POINTS = {
    "eisenstein_E": lambda p, ctx: eisenstein_E(3, p, ctx),
    "omega_coefficients": lambda p, ctx: omega_coefficients(p, 3, ctx),
    "kronecker_F": lambda p, ctx: kronecker_F(p, EllipticPoint(0.22, -0.05), ctx),
    "theta": theta,
}


@pytest.mark.parametrize("coords", [(math.nan, 0.17), (0.31, math.inf), (-math.inf, 0.17)], ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_point_refused(ctx, entry, coords):
    """A NaN or infinite coordinate is refused with OutOfRegion when the
    point is built, before it reaches the lattice check's round() (which
    raised ValueError or OverflowError)."""
    with pytest.raises(OutOfRegion):
        ENTRY_POINTS[entry](EllipticPoint(*coords), ctx)


# ---------------------------------------------------------------------- theta


def test_theta_vanishes_at_origin(ctx):
    assert abs(theta(EllipticPoint(0.0, 0.0), ctx)) < 1e-14


def test_theta_odd(ctx):
    p = EllipticPoint(0.31, 0.17)
    assert abs(theta(EllipticPoint(-0.31, -0.17), ctx) + theta(p, ctx)) < 1e-13


def test_theta_periods(ctx):
    p = EllipticPoint(0.31, 0.17)
    t = theta(p, ctx)
    assert abs(theta(EllipticPoint(p.s + 1, p.r), ctx) + t) < 1e-13
    # shift by tau: factor -q^{-1/2} z^{-1}
    fac = -ctx.prec.e(-ctx.tau / 2) / p.z(ctx)
    assert abs(theta(p.shift(dr=1), ctx) - fac * t) < 1e-12
    # deep reductions stay finite
    far = theta(EllipticPoint(p.s - 3, p.r + 5), ctx)
    assert cmath.isfinite(far)


def test_theta_prime0_matches_difference_quotient(ctx):
    h = 1e-5
    num = (theta(EllipticPoint(h, 0), ctx) - theta(EllipticPoint(-h, 0), ctx)) / (2 * h)
    assert abs(theta_prime0(ctx) - num) < 1e-8


# ----------------------------------------------------------------- eisenstein


def test_odd_lattice_constants_vanish(ctx):
    for j in (1, 3, 5, 7):
        assert abs(complex(lattice_constant(j, ctx))) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda ctx: lattice_constant(2.5, ctx),  # unchecked, j % 2 is truthy and e_j reads 0j
        lambda ctx: lattice_constant(3.5, ctx),
        lambda ctx: lattice_constant(2.0, ctx),
        lambda ctx: lattice_constant(math.nan, ctx),
        lambda ctx: eisenstein_E(2.0, EllipticPoint(0.31, 0.17), ctx),
        lambda ctx: omega_coefficients(EllipticPoint(0.31, 0.17), 2.5, ctx),
        lambda ctx: zeta_even(4.0),
    ],
    ids=["e_2.5", "e_3.5", "e_2.0", "e_nan", "E_K2.0", "omega_K2.5", "zeta_4.0"],
)
def test_orders_and_indices_must_be_integers(ctx, call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(ctx)


def test_lattice_constants_against_q_expansions(ctx):
    # classical normalized q-series with sigma divisor sums
    q = complex(ctx.q)

    def sig(k, n):
        return sum(d**k for d in range(1, n + 1) if n % d == 0)

    E2 = 1 - 24 * sum(sig(1, n) * q**n for n in range(1, 40))
    E4 = 1 + 240 * sum(sig(3, n) * q**n for n in range(1, 40))
    E6 = 1 - 504 * sum(sig(5, n) * q**n for n in range(1, 40))
    assert abs(complex(lattice_constant(2, ctx)) - math.pi**2 / 3 * E2) < 1e-12
    assert abs(complex(lattice_constant(4, ctx)) - math.pi**4 / 45 * E4) < 1e-12
    assert abs(complex(lattice_constant(6, ctx)) - 2 * math.pi**6 / 945 * E6) < 1e-11


# The q-expansions below are the oracle at 60 digits: for 0 < r < 1 the rows
# n >= 0 of E_j sum to z^k / (1 - q^k) and the rows n < 0 to z^-k q^k / (1 - q^k),
# E_j = (-2 pi i)^j / (j-1)! sum_k k^(j-1) (z^k + (-1)^j z^-k q^k) / (1 - q^k),
# minus pi i for j = 1; e_j = 2 zeta(j) + 2 (-2 pi i)^j / (j-1)! sum_k k^(j-1) q^k / (1 - q^k).
# Other r are reduced into [0, 1) first, in mpmath: E_1(xi + tau) = E_1(xi) - 2 pi i,
# and E_j is tau-periodic for j >= 2.
QEXP_DPS = 60
# each term left out is below 3e-40 for |q| <= 0.16 and r - floor(r) in [0.37, 0.63]
QEXP_TERMS = 200


@functools.lru_cache(maxsize=None)
def _qexp_terms(s, r, tau):
    """What the expansion of E_j at (s, r) shares across j: the shift
    m = floor(r), and for k = 1 .. QEXP_TERMS - 1 the pair z0^k / (1 - q^k),
    z0^-k q^k / (1 - q^k) at z0 = e(s + (r - m) tau), r - m formed in mpmath."""
    with mpmath.workdps(QEXP_DPS):
        shift = math.floor(r)
        t = mpmath.mpc(tau.real, tau.imag)
        q = mpmath.exp(2j * mpmath.pi * t)
        z = mpmath.exp(2j * mpmath.pi * (mpmath.mpf(s) + (mpmath.mpf(r) - shift) * t))
        zk = qk = mpmath.mpc(1)
        terms = []
        for _ in range(1, QEXP_TERMS):
            zk, qk = zk * z, qk * q
            terms.append((zk / (1 - qk), qk / (zk * (1 - qk))))
        return shift, terms


def _qexp_E(j, s, r, tau):
    shift, terms = _qexp_terms(s, r, tau)
    with mpmath.workdps(QEXP_DPS):
        tot = mpmath.fsum(k ** (j - 1) * (a + (-1) ** j * b) for k, (a, b) in enumerate(terms, 1))
        val = (-2j * mpmath.pi) ** j / mpmath.factorial(j - 1) * tot
        return val - 1j * mpmath.pi * (1 + 2 * shift) if j == 1 else val


def _qexp_e(j, tau):
    with mpmath.workdps(QEXP_DPS):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
        tot = mpmath.fsum(k ** (j - 1) * q**k / (1 - q**k) for k in range(1, QEXP_TERMS))
        return 2 * mpmath.zeta(j) + 2 * (-2j * mpmath.pi) ** j / mpmath.factorial(j - 1) * tot


def _rel_err(got, ref):
    with mpmath.workdps(QEXP_DPS):
        return float(abs(mpmath.mpc(got) - ref) / max(1, abs(ref)))


@pytest.mark.parametrize("tau", [0.1 + 0.3j, 0.1 + 0.8j, -0.2 + 0.45j])
def test_extended_eisenstein_against_q_expansion(tau):
    """30 digits: the cotangent rows carry their exact coefficients and r -/+ n
    in the context's type, and 2 zeta(j) comes from its closed form; rounded
    to doubles, these held E_j near 1e-13 and e_j near 1e-12.  tau = 0.1+0.3i
    is the bench's largest |q|; r = 1.37 and -0.45 lie outside [0, 1), which
    the walk takes as it is and the oracle reduces first.  At r = 20.37 and
    -19.45 the walk needs the int(|r|) rows it adds past the lattice cutoff:
    the spare rows of the cutoff cover |r| near 1, not near 20."""
    ctx = LatticeContext(tau, 30)
    worst_E = max(
        _rel_err(E, _qexp_E(j, s, r, tau))
        for s, r in ((0.31, 0.37), (0.62, 0.55), (0.31, 1.37), (0.62, -0.45), (0.31, 20.37), (0.62, -19.45))
        for j, E in enumerate(eisenstein_E(9, EllipticPoint(s, r), ctx), 1)
    )
    worst_e = max(_rel_err(lattice_constant(j, ctx), _qexp_e(j, tau)) for j in range(2, 9, 2))
    assert worst_E < 1e-24
    assert worst_e < 1e-24


def test_zeta_even_values():
    assert abs(zeta_even(2) - math.pi**2 / 6) < 1e-15
    assert abs(zeta_even(4) - math.pi**4 / 90) < 1e-15
    assert abs(zeta_even(6) - math.pi**6 / 945) < 1e-14


def test_E1_laurent_expansion(ctx):
    a = EllipticPoint(0.03, 0.02)
    alpha = a.s + a.r * TAU
    want = (
        1 / alpha
        - lattice_constant(2, ctx) * alpha
        - lattice_constant(4, ctx) * alpha**3
        - lattice_constant(6, ctx) * alpha**5
    )
    assert abs(eisenstein_E(1, a, ctx)[-1] - want) < 1e-9


def test_E1_is_dlog_theta(ctx):
    p = EllipticPoint(0.31, 0.17)
    h = 1e-5
    num = (
        cmath.log(theta(EllipticPoint(p.s + h, p.r), ctx))
        - cmath.log(theta(EllipticPoint(p.s - h, p.r), ctx))
    ) / (2 * h)
    assert abs(num - eisenstein_E(1, p, ctx)[-1]) < 1e-8


def test_E_recursion(ctx):
    # dE_j/dxi = -j E_{j+1}, differencing in s
    p = EllipticPoint(0.27, 0.33)
    h = 1e-5
    for j in (1, 2):
        d = (
            eisenstein_E(j, EllipticPoint(p.s + h, p.r), ctx)[-1]
            - eisenstein_E(j, EllipticPoint(p.s - h, p.r), ctx)[-1]
        ) / (2 * h)
        assert abs(d + j * eisenstein_E(j + 1, p, ctx)[-1]) < 1e-6


def test_weierstrass_equation(ctx):
    p = EllipticPoint(0.31, 0.17)
    wp = eisenstein_E(2, p, ctx)[-1] - lattice_constant(2, ctx)
    wpp = -2 * eisenstein_E(3, p, ctx)[-1]
    g2 = 60 * lattice_constant(4, ctx)
    g3 = 140 * lattice_constant(6, ctx)
    assert abs(wpp**2 - (4 * wp**3 - g2 * wp - g3)) < 1e-7


def test_on_lattice_rejected(ctx):
    with pytest.raises(OnSingularLocus):
        eisenstein_E(2, EllipticPoint(1.0, -2.0), ctx)


@pytest.mark.parametrize("digits", [15, 30])
def test_cot_poly_parity(digits):
    """P_j has the parity of j, exactly, with every coefficient of that
    parity nonzero; the row constants hold exactly those coefficients, high
    to low, each rounded once, so the walk's two-degree Horner steps skip
    only exact zeros."""
    prec = get_context(digits)
    for j in range(1, 17):
        poly = kronecker._cot_poly(j)
        assert len(poly) == j + 1
        assert all(poly[d] == 0 for d in range(1 - j % 2, j + 1, 2))
        assert all(poly[d] != 0 for d in range(j % 2, j + 1, 2))
        lead, rest, odd, pi_j = kronecker._row_constants(j, prec)
        held = [lead, *rest]
        assert held == [prec.real(poly[d]) for d in range(j, -1, -2)]
        assert all(type(c) is type(prec.pi) for c in held)
        assert odd == (j % 2 == 1) and pi_j == prec.pi**j


@pytest.mark.parametrize("digits", [15, 30])
def test_eisenstein_prefix_independent(digits):
    """Each E_j keeps its own total and stop row on the shared walk, so it
    does not depend on how far the ladder was asked for."""
    ctx = LatticeContext(TAU, digits)
    for s, r in ((0.31, 0.17), (0.62, -1.35), (-0.4, 2.3)):
        p = EllipticPoint(s, r)
        ladder = eisenstein_E(9, p, ctx)
        for j in range(1, 10):
            assert ladder[:j] == eisenstein_E(j, p, ctx)


@pytest.mark.parametrize("digits", [15, 30])
def test_one_row_walk_per_point(digits, monkeypatch):
    """One omega_coefficients call walks the lattice rows once for the whole
    ladder E_1 .. E_K, to the context's row count: two cotangents per
    row n = 1 .. lattice_cutoff + int(|r|) plus row 0, once the context
    holds its lattice constants."""
    ctx = LatticeContext(TAU, digits)
    omega_coefficients(EllipticPoint(0.31, 0.17), 8, ctx)  # builds e_j
    calls = []
    cot_pi = ctx.prec.cot_pi

    def counted(w):
        calls.append(w)
        return cot_pi(w)

    monkeypatch.setattr(ctx.prec, "cot_pi", counted)
    for s, r in ((0.31, 0.17), (0.62, -1.35), (-0.4, 2.3)):
        calls.clear()
        omega_coefficients(EllipticPoint(s, r), 8, ctx)
        n_min = int(abs(r)) + 1
        assert len(calls) == 2 * (ctx.lattice_cutoff + n_min - 1) + 1


@pytest.mark.parametrize("digits", [15, 30])
def test_omega_asks_only_for_the_orders_it_returns(digits, monkeypatch):
    """omega_0 .. omega_K are the alpha^-1 .. alpha^(K-1) coefficients: one
    ladder E_1 .. E_K serves them, and K = 0 needs no Eisenstein function."""
    ctx = LatticeContext(TAU, digits)
    asked = []
    ladder = kronecker.eisenstein_E

    def spy(K, *rest):
        asked.append(K)
        return ladder(K, *rest)

    monkeypatch.setattr(kronecker, "eisenstein_E", spy)
    p = EllipticPoint(0.31, 0.17)
    omega_coefficients(p, 8, ctx)
    assert asked == [8]
    asked.clear()
    assert omega_coefficients(p, 0, ctx) == [1 + 0j]
    assert asked == []


@pytest.mark.parametrize("digits", [15, 30])
def test_omega_and_F_series_prefix_independent(digits):
    """A coefficient of the exponential depends only on E_j of lower or
    equal order, so cutting the series at K returns the same values as
    cutting a longer one."""
    ctx = LatticeContext(TAU, digits)
    for s, r in ((0.31, 0.17), (0.62, -1.35), (-0.4, 2.3)):
        p = EllipticPoint(s, r)
        omega, fser = omega_coefficients(p, 8, ctx), kronecker._F_series(p, 8, ctx)
        for k in range(9):
            assert omega[: k + 1] == omega_coefficients(p, k, ctx)
            assert fser[: k + 1] == kronecker._F_series(p, k, ctx)


# ------------------------------------------------------------------- kernel F


def test_kernel_definitions_agree(ctx):
    xi = EllipticPoint(0.31, 0.17)
    eta = EllipticPoint(0.22, -0.05)
    a = F(xi, eta, ctx)
    b = F(xi, eta, ctx, "double_q_series")
    alpha = eta.s + eta.r * TAU
    c = sum(coef * alpha ** (k - 1) for k, coef in enumerate(kronecker._F_series(xi, 40, ctx)))
    assert abs(a - b) < 1e-9
    assert abs(a - c) < 1e-9


def test_kernel_symmetric_and_odd(ctx):
    xi = EllipticPoint(0.31, 0.17)
    eta = EllipticPoint(0.22, -0.05)
    a = F(xi, eta, ctx)
    assert abs(a - F(eta, xi, ctx)) < 1e-13
    assert abs(F(point_neg(xi), point_neg(eta), ctx) + a) < 1e-12


def test_kernel_series_leading_term(ctx):
    xi = EllipticPoint(0.31, 0.17)
    ser = kronecker._F_series(xi, 6, ctx)  # alpha^-1 .. alpha^5
    assert len(ser) == 7
    assert abs(ser[0] - 1.0) < 1e-14
    assert abs(ser[1] - complex(eisenstein_E(1, xi, ctx)[-1])) < 1e-12


def test_kernel_quasi_periodicity(ctx):
    xi = EllipticPoint(0.31, 0.17)
    eta = EllipticPoint(0.22, -0.05)
    a = F(xi, eta, ctx)
    w = eta.z(ctx)
    assert abs(F(EllipticPoint(xi.s + 1, xi.r), eta, ctx) - a) < 1e-12
    assert abs(F(xi.shift(dr=1), eta, ctx) - a / w) < 1e-12
    # deep reduction through the q-series route, including the cross factor
    b = kronecker_F(xi.shift(dr=3), eta, ctx, "double_q_series")
    assert abs(b - a / w**3) < 1e-9 * max(1, abs(b))



@pytest.mark.parametrize("digits", [15, 30])
def test_qseries_matches_theta_ratio_at_largest_modulus(digits):
    """At the largest supported |q| = 0.7, with r at or next to the
    reduction's edges -1/2 and 1/2, the double series has no pole past its
    n = 0 term and agrees with the theta ratio."""
    ctx = LatticeContext(0.1 + 1j * (-math.log(0.7) / (2 * math.pi)), digits)
    assert abs(abs(complex(ctx.q)) - 0.7) < 1e-15
    for rx in (0.4999999, 0.5, -0.5, -0.4999999, 1.5):
        for re in (0.4999999, -0.5, 0.5, -1.4999999):
            xi, eta = EllipticPoint(0.31, rx), EllipticPoint(0.22, re)
            a = complex(F(xi, eta, ctx))
            b = complex(F(xi, eta, ctx, "double_q_series"))
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

def _near_lattice(p):
    return abs(p.s - round(p.s)) < 1e-3 and abs(p.r - round(p.r)) < 1e-3


def test_kernel_random_cross_battery(ctx):
    random.seed(7)
    checked = 0
    while checked < 12:
        x = EllipticPoint(random.uniform(-1.5, 1.5), random.uniform(-1.5, 1.5))
        h = EllipticPoint(random.uniform(-1.5, 1.5), random.uniform(-1.5, 1.5))
        if any(_near_lattice(p) for p in (x, h, point_add(x, h))):
            continue
        a = F(x, h, ctx)
        b = F(x, h, ctx, "double_q_series")
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        checked += 1


def test_kernel_average_representation(ctx):
    # F(xi; u) equals -2*pi*i sum_n u^n q^n z/(1-q^n z) on 1 < |u| < 1/|q|
    q = complex(ctx.q)
    xi = EllipticPoint(0.31, 0.27)
    z = xi.z(ctx)
    for eta in (EllipticPoint(0.13, -0.4), EllipticPoint(-0.37, -0.85)):
        u = eta.z(ctx)
        assert 1 < abs(u) < 1 / abs(q)
        tot = sum(u**n * (q**n * z) / (1 - q**n * z) for n in range(-80, 81))
        assert abs(F(xi, eta, ctx) + 2j * cmath.pi * tot) < 1e-10


def test_fay_identity(ctx):
    x1 = EllipticPoint(0.23, 0.11)
    x2 = EllipticPoint(-0.17, 0.29)
    h1 = EllipticPoint(0.05, 0.13)
    h2 = EllipticPoint(0.31, -0.22)
    lhs = F(x1, h1, ctx) * F(x2, h2, ctx)
    rhs = F(x1, point_add(h1, h2), ctx) * F(point_sub(x2, x1), h2, ctx) + F(x2, point_add(h1, h2), ctx) * F(
        point_sub(x1, x2), h1, ctx
    )
    assert abs(lhs - rhs) < 1e-9 * max(1, abs(lhs))


def test_fay_derivative_corollary(ctx):
    xi = EllipticPoint(0.31, 0.17)
    h1 = EllipticPoint(0.05, 0.13)
    h2 = EllipticPoint(0.31, -0.22)
    h = 1e-5

    def d2F(a, b):
        return (
            F(a, EllipticPoint(b.s + h, b.r), ctx)
            - F(a, EllipticPoint(b.s - h, b.r), ctx)
        ) / (2 * h)

    lhs = F(xi, h1, ctx) * d2F(xi, h2) - d2F(xi, h1) * F(xi, h2, ctx)
    rhs = F(xi, point_add(h1, h2), ctx) * (
        eisenstein_E(2, h1, ctx)[-1] - eisenstein_E(2, h2, ctx)[-1]
    )
    assert abs(lhs - rhs) < 1e-7 * max(1, abs(lhs))


def test_mixed_heat_equation(ctx):
    xi_c = 0.31 + 0.17 * TAU
    eta_c = 0.22 - 0.05 * TAU

    def val(xic, etac, t):
        c = LatticeContext(t, 15)
        return kronecker_F(point_from_xi(xic, t), point_from_xi(etac, t), c)

    def residual(h):
        dtau = (val(xi_c, eta_c, TAU + h) - val(xi_c, eta_c, TAU - h)) / (2 * h)
        d2 = (
            val(xi_c + h, eta_c + h, TAU)
            - val(xi_c + h, eta_c - h, TAU)
            - val(xi_c - h, eta_c + h, TAU)
            + val(xi_c - h, eta_c - h, TAU)
        ) / (4 * h * h)
        return 2j * cmath.pi * dtau - d2

    r1 = residual(1e-3)
    r2 = residual(5e-4)
    assert abs((4 * r2 - r1) / 3) < 1e-5


QUASI_PERIOD_OVERFLOW = [
    # theta's factor e(-k^2 tau / 2) e(-k xi0): cmath.exp overflowed at
    # r = 17.2; at r = 16.95 both exponentials are finite doubles and their
    # product overflowed to NaN silently
    ("theta", (0.3, 17.2), None),
    ("theta", (0.3, 16.95), None),
    ("theta_ratio", (0.3, 17.2), (0.2, 0.1)),
    # the q-series' factor w^-k z^-l q^-kl: q^-900 overflowed a complex power
    ("double_q_series", (0.3, 30.2), (0.2, 30.1)),
    # xi + eta has r = 0.1 and |F| is about 3.2e-322: theta(xi) * theta(eta)
    # overflowed to a NaN ratio, and the q-series ended on a subnormal
    ("theta_ratio", (0.3, 12.2), (0.2, -12.1)),
    ("double_q_series", (0.3, 12.2), (0.2, -12.1)),
]


@pytest.mark.parametrize("what, x, e", QUASI_PERIOD_OVERFLOW, ids=str)
def test_quasi_period_overflow_refused_at_double(ctx, what, x, e):
    with pytest.raises(OutOfRegion):
        if what == "theta":
            theta(EllipticPoint(*x), ctx)
        else:
            kronecker_F(EllipticPoint(*x), EllipticPoint(*e), ctx, what)


@pytest.mark.parametrize(
    "x, e", [((0.3, 17.2), (0.2, 0.1)), ((0.3, 30.2), (0.2, 30.1)), ((0.3, 12.2), (0.2, -12.1))]
)
def test_quasi_period_factors_finite_at_30_digits(x, e):
    """The same points at 30 digits: mpmath does not overflow, and the two
    evaluators agree (1.2e-13, 1.1e-12 and 9e-30 relative when this was
    written)."""
    ctx30 = LatticeContext(TAU, 30)
    xi, eta = EllipticPoint(*x), EllipticPoint(*e)
    assert mpmath.isfinite(theta(xi, ctx30))
    a = kronecker_F(xi, eta, ctx30, "theta_ratio")
    b = kronecker_F(xi, eta, ctx30, "double_q_series")
    assert mpmath.isfinite(a) and mpmath.isfinite(b)
    assert abs(a - b) < 1e-10 * abs(b)


@pytest.mark.parametrize(
    "tau, x, e",
    [(0.1 + 0.3j, (0.1, 0.7), (0.2, 0.4)), (0.1 + 0.3j, (0.31, 0.17), (0.22, -0.05)),
     (TAU, (-0.4, 1.3), (0.13, -0.45)), (-0.2 + 0.45j, (0.8, -1.6), (0.45, 1.2))],
)
def test_theta_ratio_30_digits_against_jacobi_theta(tau, x, e):
    """F = theta'(0) theta(xi + eta) / (theta(xi) theta(eta)) at 30 digits,
    against mpmath's theta_1 at the exact sums of the given doubles: the
    sum point and the reductions stay in the context's reals."""
    with mpmath.workdps(50):
        s, r = (mpmath.mpf(a) + mpmath.mpf(b) for a, b in zip(x, e))
        assert (s, r) != (mpmath.mpf(x[0] + e[0]), mpmath.mpf(x[1] + e[1]))  # not a double sum
        t = mpmath.mpc(tau.real, tau.imag)
        nome = mpmath.expjpi(t)

        def theta1(s, r):
            return mpmath.jtheta(1, mpmath.pi * (mpmath.mpf(s) + mpmath.mpf(r) * t), nome)

        want = mpmath.pi * mpmath.jtheta(1, 0, nome, 1) * theta1(s, r) / (theta1(*x) * theta1(*e))
        got = kronecker_F(EllipticPoint(*x), EllipticPoint(*e), LatticeContext(tau, 30), "theta_ratio")
        assert abs(got - want) <= 1e-28 * abs(want)


def test_singular_locus_rejected(ctx):
    with pytest.raises(OnSingularLocus):
        F(EllipticPoint(0.0, 1.0), EllipticPoint(0.2, 0.1), ctx)
    with pytest.raises(OnSingularLocus):
        kronecker._F_series(EllipticPoint(2.0, 0.0), 5, ctx)
    with pytest.raises(OnSingularLocus):
        omega_coefficients(EllipticPoint(2.0, 0.0), 0, ctx)


def test_unsettled_q_series_refused():
    """A cutoff too short for the q-series raises instead of returning the
    partial sum."""
    short = LatticeContext(TAU, 15)
    short.q_series_cutoff = 1
    xi = EllipticPoint(0.31, 0.17)
    eta = EllipticPoint(0.22, -0.05)
    with pytest.raises(TruncationTooSmall):
        kronecker_F(xi, eta, short, "double_q_series")


# ------------------------------------------------------------------ one-forms


# (tau, xi, eta, digits, F by theta_ratio, F by double_q_series, omega up to
# K = 8), recorded when each E_j walked the lattice rows on its own; the shared
# walk keeps every E_j's rows, order and stop row, so the values hold exactly.
# At 30 digits F is (real, imag) as decimal strings that round-trip; four of
# the theta_ratio values were recorded again when theta came to reduce its
# point, and F to sum xi + eta, in the context's reals (each moved from about
# 16 to 30 digits against mpmath's Jacobi theta).
OMEGA_GOLDEN = [
    ((0.1+0.8j), (0.31, 0.17), (0.22, -0.05), 15,
     (5.277262857837642-0.708303200356511j),
     (5.277262857837642-0.708303200356512j),
     [(1+0j), (1.6052705843991317-0.5346864402754892j), (-2.1640870124803664+1.1522362053419284j), (-2.4026038191897023-3.4213723201951933j), (0.1108954231975563+1.5844670772878566j), (4.29195404574667+1.0826802171305234j), (-3.0213000518859756-2.5580167380818306j), (-5.653353967151162-8.229707578394907j), (1.6761632648453517+3.170775259080518j)]),
    ((0.1+0.8j), (0.31, 0.17), (0.22, -0.05), 30,
     ('5.277262857837642589994875382705', '-0.7083032003565119906662099281023'),
     ('5.2772628578376425899948753827117', '-0.708303200356511990666209928102645'),
     [(1+0j), (1.6052705843991315-0.534686440275488j), (-2.164087012480367+1.15223620534193j), (-2.4026038191897046-3.421372320195203j), (0.11089542319756492+1.5844670772878413j), (4.291954045746697+1.0826802171305372j), (-3.0213000518857407-2.558016738081806j), (-5.65335396715079-8.22970757839454j), (1.67616326484268+3.1707752590816884j)]),
    ((0.1+0.8j), (0.31, 1.17), (0.62, -0.35), 15,
     (-0.20952195491193784+0.009103783862091864j),
     (-0.20952195491193776+0.00910378386209175j),
     [(1+0j), (1.605270584399131-0.5346864402754896j), (-2.164087012480369+1.152236205341925j), (-2.402603819189686-3.421372320195232j), (0.11089542319754742+1.5844670772878828j), (4.291954045746451+1.082680217131042j), (-3.0213000518851914-2.5580167380818466j), (-5.653353967149087-8.229707578395619j), (1.6761632648456555+3.1707752590823475j)]),
    ((0.1+0.8j), (0.31, 1.17), (0.62, -0.35), 30,
     ('-0.20952195491193770057582865335353', '0.009103783862091768393589597627908'),
     ('-0.209521954911937700575828653353603', '0.00910378386209176839358959762793868'),
     [(1+0j), (1.6052705843991317-0.5346864402754878j), (-2.1640870124803677+1.1522362053419297j), (-2.4026038191897037-3.4213723201952027j), (0.11089542319756371+1.584467077287841j), (4.291954045746697+1.0826802171305379j), (-3.0213000518857416-2.5580167380818057j), (-5.65335396715079-8.22970757839454j), (1.6761632648426792+3.1707752590816884j)]),
    ((0.1+0.8j), (-0.4, 2.3), (0.13, -1.45), 15,
     (1.530092410616676e-07-4.3012155157698855e-08j),
     (1.530092410616673e-07-4.3012155157698716e-08j),
     [(1+0j), (-0.7914054832349711-0.5026715960046726j), (-1.7047527404342304-1.3489289261319453j), (1.9276279073154257-1.6426329366865957j), (4.580371664640552+1.3299509632976196j), (-2.3764987826717743-4.60013509260807j), (-3.4974060857493896-3.4078920559504695j), (3.4760642083019775+2.1736366784898564j), (5.229513241225504+7.824549479919369j)]),
    ((0.1+0.8j), (-0.4, 2.3), (0.13, -1.45), 30,
     ('0.000000153009241061667161452621534877029', '-0.0000000430121551576987380714672522742375'),
     ('0.000000153009241061667161452621534877053', '-0.0000000430121551576987380714672522742551'),
     [(1+0j), (-0.7914054832349707-0.5026715960046737j), (-1.7047527404342333-1.3489289261319437j), (1.927627907315448-1.6426329366865926j), (4.580371664641216+1.329950963297929j), (-2.376498782673486-4.600135092603319j), (-3.497406085737551-3.4078920559635035j), (3.476064208348698+2.1736366782794967j), (5.2295132409664555+7.824549480237023j)]),
    ((-0.2+0.45j), (0.62, 0.55), (0.27, 0.33), 15,
     (0.14298494090370323-2.2982277348072855j),
     (0.14298494090370362-2.2982277348072904j),
     [(1+0j), (-1.4349135497651195+0.7630797862958105j), (-3.6961013497160202+4.96534352051704j), (4.006700576486217-8.05854402260396j), (0.16228199824192124-21.995113733663956j), (24.959319979476092+38.87452088258952j), (87.82936977819227+60.370882338805615j), (-189.4054273784888-42.589854980911355j), (-408.59351303366293+82.09458060714968j)]),
    ((-0.2+0.45j), (0.62, 0.55), (0.27, 0.33), 30,
     ('0.1429849409037048723450508002819', '-2.298227734807287307504826628748'),
     ('0.142984940903704872345050800280216', '-2.2982277348072873075048266287461'),
     [(1+0j), (-1.4349135497651209+0.7630797862958097j), (-3.6961013497160193+4.965343520517044j), (4.0067005764862325-8.058544022603963j), (0.1622819982418959-21.995113733663967j), (24.95931997947604+38.8745208825895j), (87.82936977819257+60.37088233880563j), (-189.4054273784887-42.589854980910786j), (-408.5935130336646+82.09458060715058j)]),
    ((-0.2+0.45j), (0.8, -1.6), (0.45, 1.2), 15,
     (-0.014887422472243582-1.543885537991453e-05j),
     (-0.0148874224722436-1.5438855379908828e-05j),
     [(1+0j), (-2.3616932566745152+1.5039311518806056j), (2.9504195658140873-1.708961381959412j), (7.573585152415205-18.63104712655121j), (1.5066172277975056+5.464849253532634j), (33.317390367154076+55.67576914377901j), (-34.71578837322431-24.5380617227911j), (-265.91781135936253-59.656512840347204j), (173.10593155313472-32.98101937900174j)]),
    ((-0.2+0.45j), (0.8, -1.6), (0.45, 1.2), 30,
     ('-0.01488742247224359513755256867076', '-0.00001543885537989896935847950006301'),
     ('-0.0148874224722435951375525686707746', '-0.0000154388553798989693584795000579475'),
     [(1+0j), (-2.3616932566745152+1.5039311518806124j), (2.9504195658140726-1.708961381959426j), (7.5735851524152595-18.63104712655124j), (1.506617227797614+5.464849253532437j), (33.317390367153685+55.67576914378042j), (-34.71578837322437-24.538061722787123j), (-265.91781135935327-59.65651284034837j), (173.1059315531553-32.98101937902319j)]),
    ((0.25+1.2j), (0.13, 3.4), (-0.71, -2.2), 15,
     (2.0067463075921044e-25+9.767676668113577e-25j),
     (2.006746307592144e-25+9.7676766681136e-25j),
     [(1+0j), (0.29975467929567834-0.5835584900575626j), (1.7633506466260371+0.8087879574733083j), (-0.9112653544667921-1.4089046811211574j), (0.922020404763316-0.9025519414179257j), (0.4290459821595505-0.548671523341909j), (1.9859181252832059+0.3523477088092477j), (-0.03351116957492195-1.5232879156828858j), (1.6079773764358833-0.14489807368954644j)]),
    ((0.25+1.2j), (0.13, 3.4), (-0.71, -2.2), 30,
     ('2.00674630759211220236397017204073e-25', '9.76767666811359498175825526021066e-25'),
     ('2.00674630759211220236397017204909e-25', '9.76767666811359498175825526014214e-25'),
     [(1+0j), (0.29975467929567834-0.5835584900575658j), (1.7633506466260687+0.8087879574733072j), (-0.9112653544668077-1.408904681120277j), (0.9220204047529708-0.902551941417988j), (0.42904598215873063-0.5486715234115217j), (1.985918125787182+0.3523477088033095j), (-0.03351116958704031-1.5232879098327456j), (1.6079773661232664-0.1448980730560646j)]),
]


@pytest.mark.parametrize(
    "case", OMEGA_GOLDEN, ids=[f"tau{c[0]}-r{c[1][1]}-{c[3]}d" for c in OMEGA_GOLDEN]
)
def test_omega_golden_values(case):
    tau, x, e, digits, f_theta, f_q, omega = case
    ctx = LatticeContext(tau, digits)
    if digits > 16:
        f_theta, f_q = ctx.prec.complex(*f_theta), ctx.prec.complex(*f_q)
    xi, eta = EllipticPoint(*x), EllipticPoint(*e)
    assert kronecker_F(xi, eta, ctx, "theta_ratio") == f_theta
    assert kronecker_F(xi, eta, ctx, "double_q_series") == f_q
    assert omega_coefficients(xi, 8, ctx) == omega


def test_omega_negative_order_refused(ctx):
    for K in (-1, -3):
        with pytest.raises(ValueError, match="K must be"):
            omega_coefficients(EllipticPoint(0.31, 0.17), K, ctx)


def test_omega_leading_coefficient_is_one(ctx):
    p = EllipticPoint(0.31, 0.17)
    assert abs(omega_coefficients(p, 4, ctx)[0] - 1.0) < 1e-13


def test_omega_parity(ctx):
    # c_k(-xi) = (-1)^k c_k(xi); with the sign flip of d(xi_i - xi_j) this
    # is the antisymmetry of the forms under swapping i and j
    p = EllipticPoint(0.31, 0.17)
    c = omega_coefficients(p, 5, ctx)
    cm = omega_coefficients(point_neg(p), 5, ctx)
    for k in range(6):
        assert abs(cm[k] - (-1) ** k * c[k]) < 1e-10 * max(1, abs(c[k]))


def test_omega_lattice_invariance(ctx):
    p = EllipticPoint(0.31, 0.17)
    c = omega_coefficients(p, 4, ctx)
    for shifted in (p.shift(dr=1), EllipticPoint(p.s + 1, p.r), EllipticPoint(p.s - 2, p.r + 1)):
        cs = omega_coefficients(shifted, 4, ctx)
        assert max(abs(a - b) for a, b in zip(c, cs)) < 1e-10


def test_omega_residues(ctx):
    # small-contour integrals around the pole; the smooth r-dependence
    # contributes at eps^2, removed by extrapolation
    def contour(k, eps, n=200):
        tot = 0.0
        for i in range(n):
            th = 2 * cmath.pi * i / n
            xi = eps * cmath.exp(1j * th)
            dxi = eps * 1j * cmath.exp(1j * th) * (2 * cmath.pi / n)
            tot += omega_coefficients(point_from_xi(xi, TAU), k, ctx)[k] * dxi
        return tot

    for k in range(3):
        v1 = contour(k, 0.05)
        v2 = contour(k, 0.025)
        got = (4 * v2 - v1) / 3
        expect = 2j * cmath.pi if k == 1 else 0.0
        assert abs(got - expect) < 1e-4


def test_omega_exterior_derivative(ctx):
    # tau * d/ds c_{k+1} - d/dr c_{k+1} = -2 pi i c_k
    p = EllipticPoint(0.31, 0.17)
    h = 1e-4
    for k in range(3):
        ds = (
            omega_coefficients(EllipticPoint(p.s + h, p.r), k + 1, ctx)[k + 1]
            - omega_coefficients(EllipticPoint(p.s - h, p.r), k + 1, ctx)[k + 1]
        ) / (2 * h)
        dr = (
            omega_coefficients(EllipticPoint(p.s, p.r + h), k + 1, ctx)[k + 1]
            - omega_coefficients(EllipticPoint(p.s, p.r - h), k + 1, ctx)[k + 1]
        ) / (2 * h)
        ck = omega_coefficients(p, k, ctx)[k]
        assert abs(complex(TAU) * ds - dr + 2j * cmath.pi * ck) < 1e-5


def _omega_by_theta(s, r, tau, K):
    """[omega_0 .. omega_K] at 50 digits: the Taylor coefficients of
    alpha e(alpha r) F(xi, alpha), F from mpmath's theta_1, by the trapezoid
    rule on |alpha| = 0.05 with 64 nodes (aliasing about (0.05 / 0.8)^64)."""
    nodes, radius = 64, 0.05
    with mpmath.workdps(50):
        t = mpmath.mpc(tau.real, tau.imag)
        nome = mpmath.expjpi(t)

        def th(z):
            return mpmath.jtheta(1, mpmath.pi * z, nome)

        x = mpmath.mpf(s) + mpmath.mpf(r) * t
        d0 = mpmath.pi * mpmath.jtheta(1, 0, nome, 1)
        vals = []
        for m in range(nodes):
            a = radius * mpmath.expjpi(mpmath.mpf(2 * m) / nodes)
            f = d0 * th(x + a) / (th(x) * th(a))
            vals.append(a * mpmath.exp(2j * mpmath.pi * a * mpmath.mpf(r)) * f)
        return [
            mpmath.fsum(v * mpmath.expjpi(-mpmath.mpf(2 * m * k) / nodes) for m, v in enumerate(vals))
            / nodes
            / mpmath.mpf(radius) ** k
            for k in range(K + 1)
        ]


def test_extended_omega_against_theta():
    """30 digits: the series are expanded in the context's type and only the
    returned values are rounded to doubles; the series used to be collapsed
    to doubles first (errors near 1e-12 at r > 1)."""
    ctx30 = LatticeContext(TAU, 30)
    for s, r in ((0.31, 1.17), (0.62, -0.35)):
        got = omega_coefficients(EllipticPoint(s, r), 8, ctx30)
        want = _omega_by_theta(s, r, TAU, 8)
        assert all(isinstance(v, complex) for v in got)
        assert max(_rel_err(g, w) for g, w in zip(got, want)) < 2e-16


def test_exp_keeps_extended_precision():
    """An mpmath series keeps its 30 digits through the kernel's list
    exponential: 1/k! is not rounded to a double."""
    c = get_context(30).complex(0.3, 0.2)
    e = kronecker._exp([0, c] + [0] * 7, get_context(30))
    with mpmath.workdps(50):
        want = mpmath.taylor(lambda x: mpmath.exp(mpmath.mpc(c) * x), 0, 8)
        worst = max(abs(mpmath.mpc(got) - w) for got, w in zip(e, want))
    assert len(e) == 9 and worst < 1e-29


def test_kernel_imports_no_numpy():
    """kronecker's import path is free of numpy, mpmath and series: importing
    kronecker and evaluating the kernel by both evaluators and the one-form
    ladder at double precision loads none of them (start-up time and memory
    of every caller that needs only the kernel)."""
    src = os.path.dirname(os.path.dirname(epolylog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from epolylog.kronecker import EllipticPoint, LatticeContext, kronecker_F, omega_coefficients\n"
        "ctx = LatticeContext(0.1 + 0.8j, 15)\n"
        "xi, eta = EllipticPoint(0.31, 0.17), EllipticPoint(0.22, -0.05)\n"
        "kronecker_F(xi, eta, ctx, 'theta_ratio')\n"
        "kronecker_F(xi, eta, ctx, 'double_q_series')\n"
        "omega_coefficients(xi, 4, ctx)\n"
        "sys.exit(' '.join(sorted({'numpy', 'mpmath', 'epolylog.series'} & set(sys.modules))) or None)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True)
    assert run.returncode == 0, f"loaded: {run.stderr.strip()}"
