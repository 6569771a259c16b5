import cmath
import math
import random

import mpmath
import pytest

from epolylog import kronecker
from epolylog.errors import BadModulus, OnLattice, OnSingularLocus, TruncationTooSmall
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
from oracles import point_from_xi, point_neg, point_sub

TAU = 0.1 + 0.8j


@pytest.fixture(scope="module")
def ctx():
    return LatticeContext(TAU)


def F(xi, eta, ctx, definition="theta_ratio"):
    return kronecker_F(xi, eta, ctx, definition)


# -------------------------------------------------------------------- context


def test_precision_context_shared_per_digit_count():
    assert get_context(30) is get_context(30) is get_context("extended")
    assert get_context(15) is get_context("double") is get_context(12)
    assert get_context(40) is not get_context(30)
    a = LatticeContext(TAU, 30)
    b = LatticeContext(-0.2 + 0.45j, 30)
    assert a.prec is b.prec is get_context(30)
    assert LatticeContext(TAU, 15).prec is get_context(15)


def test_bad_modulus_rejected():
    with pytest.raises(BadModulus):
        LatticeContext(0.5 - 0.3j)
    with pytest.raises(BadModulus):
        LatticeContext(0.3 + 0.02j)  # |q| too close to 1


def test_point_roundtrip(ctx):
    p = point_from_xi(0.31 + 0.17 * TAU, TAU)
    assert abs(p.s - 0.31) < 1e-12 and abs(p.r - 0.17) < 1e-12
    assert abs(p.s + p.r * TAU - (0.31 + 0.17 * TAU)) < 1e-14


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
    fac = -ctx.e(-ctx.tau / 2) / p.z(ctx)
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
QEXP_DPS = 60
QEXP_TERMS = 200  # each term left out is below 1e-50 on the moduli below


def _qexp_E(j, s, r, tau):
    with mpmath.workdps(QEXP_DPS):
        t = mpmath.mpc(tau.real, tau.imag)
        q = mpmath.exp(2j * mpmath.pi * t)
        z = mpmath.exp(2j * mpmath.pi * (mpmath.mpf(s) + mpmath.mpf(r) * t))
        tot = mpmath.fsum(
            k ** (j - 1) * (z**k + (-1) ** j * z**-k * q**k) / (1 - q**k)
            for k in range(1, QEXP_TERMS)
        )
        val = (-2j * mpmath.pi) ** j / mpmath.factorial(j - 1) * tot
        return val - 1j * mpmath.pi if j == 1 else val


def _qexp_e(j, tau):
    with mpmath.workdps(QEXP_DPS):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
        tot = mpmath.fsum(k ** (j - 1) * q**k / (1 - q**k) for k in range(1, QEXP_TERMS))
        return 2 * mpmath.zeta(j) + 2 * (-2j * mpmath.pi) ** j / mpmath.factorial(j - 1) * tot


def _rel_err(got, ref):
    with mpmath.workdps(QEXP_DPS):
        return float(abs(mpmath.mpc(got) - ref) / max(1, abs(ref)))


@pytest.mark.parametrize("tau", [0.1 + 0.8j, -0.2 + 0.45j])
def test_extended_eisenstein_against_q_expansion(tau):
    """30 digits: the cotangent rows carry their exact coefficients and r -/+ n
    in the context's type, and 2 zeta(j) comes from its closed form; rounded
    to doubles, these held E_j near 1e-13 and e_j near 1e-12."""
    ctx = LatticeContext(tau, 30)
    worst_E = max(
        _rel_err(eisenstein_E(j, EllipticPoint(s, r), ctx)[-1], _qexp_E(j, s, r, tau))
        for s, r in ((0.31, 0.37), (0.62, 0.55))
        for j in range(1, 10)
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
    with pytest.raises(OnLattice):
        eisenstein_E(2, EllipticPoint(1.0, -2.0), ctx)


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
    ladder E_1 .. E_(K+1): two cotangents per row n >= 1 plus row 0, once the
    context holds its lattice constants."""
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
        assert 0 < len(calls) <= 2 * (ctx.lattice_cutoff + n_min) + 1


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


def _near_lattice(p):
    return abs(p.s - round(p.s)) < 1e-3 and abs(p.r - round(p.r)) < 1e-3


def test_kernel_random_cross_battery(ctx):
    random.seed(7)
    checked = 0
    while checked < 12:
        x = EllipticPoint(random.uniform(-1.5, 1.5), random.uniform(-1.5, 1.5))
        h = EllipticPoint(random.uniform(-1.5, 1.5), random.uniform(-1.5, 1.5))
        if any(_near_lattice(p) for p in (x, h, x + h)):
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
    rhs = F(x1, h1 + h2, ctx) * F(point_sub(x2, x1), h2, ctx) + F(x2, h1 + h2, ctx) * F(
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
    rhs = F(xi, h1 + h2, ctx) * (
        eisenstein_E(2, h1, ctx)[-1] - eisenstein_E(2, h2, ctx)[-1]
    )
    assert abs(lhs - rhs) < 1e-7 * max(1, abs(lhs))


def test_mixed_heat_equation(ctx):
    xi_c = 0.31 + 0.17 * TAU
    eta_c = 0.22 - 0.05 * TAU

    def val(xic, etac, t):
        c = LatticeContext(t)
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


def test_singular_locus_rejected(ctx):
    with pytest.raises(OnSingularLocus):
        F(EllipticPoint(0.0, 1.0), EllipticPoint(0.2, 0.1), ctx)
    with pytest.raises(OnSingularLocus):
        kronecker._F_series(EllipticPoint(2.0, 0.0), 5, ctx)


def test_unsettled_q_series_refused():
    """A cutoff too short for the q-series raises instead of returning the
    partial sum."""
    short = LatticeContext(TAU)
    short.q_series_cutoff = 1
    xi = EllipticPoint(0.31, 0.17)
    eta = EllipticPoint(0.22, -0.05)
    with pytest.raises(TruncationTooSmall):
        kronecker_F(xi, eta, short, "double_q_series")


# ------------------------------------------------------------------ one-forms


# (tau, xi, eta, digits, F by theta_ratio, F by double_q_series, omega up to
# K = 8), recorded when each E_j walked the lattice rows on its own; the shared
# walk keeps every E_j's rows, order and stop row, so the values hold exactly.
# At 30 digits F is (real, imag) as decimal strings that round-trip.
OMEGA_GOLDEN = [
    ((0.1+0.8j), (0.31, 0.17), (0.22, -0.05), 15,
     (5.277262857837642-0.708303200356511j),
     (5.277262857837642-0.708303200356512j),
     [(1+0j), (1.6052705843991317-0.5346864402754892j), (-2.1640870124803664+1.1522362053419284j), (-2.4026038191897023-3.4213723201951933j), (0.1108954231975563+1.5844670772878566j), (4.29195404574667+1.0826802171305234j), (-3.0213000518859756-2.5580167380818306j), (-5.653353967151162-8.229707578394907j), (1.6761632648453517+3.170775259080518j)]),
    ((0.1+0.8j), (0.31, 0.17), (0.22, -0.05), 30,
     ('5.27726285783764251355241266981464', '-0.70830320035651141833355335199949'),
     ('5.2772628578376425899948753827117', '-0.708303200356511990666209928102645'),
     [(1+0j), (1.6052705843991315-0.534686440275488j), (-2.164087012480367+1.15223620534193j), (-2.4026038191897046-3.421372320195203j), (0.11089542319756492+1.5844670772878413j), (4.291954045746697+1.0826802171305372j), (-3.0213000518857407-2.558016738081806j), (-5.65335396715079-8.22970757839454j), (1.67616326484268+3.1707752590816884j)]),
    ((0.1+0.8j), (0.31, 1.17), (0.62, -0.35), 15,
     (-0.20952195491193784+0.009103783862091864j),
     (-0.20952195491193776+0.00910378386209175j),
     [(1+0j), (1.605270584399131-0.5346864402754896j), (-2.164087012480369+1.152236205341925j), (-2.402603819189686-3.421372320195232j), (0.11089542319754742+1.5844670772878828j), (4.291954045746451+1.082680217131042j), (-3.0213000518851914-2.5580167380818466j), (-5.653353967149087-8.229707578395619j), (1.6761632648456555+3.1707752590823475j)]),
    ((0.1+0.8j), (0.31, 1.17), (0.62, -0.35), 30,
     ('-0.209521954911937733779302134535882', '0.00910378386209175992878468823958636'),
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
     ('0.142984940903704420664773539294372', '-2.2982277348072875774926474107146'),
     ('0.142984940903704872345050800280216', '-2.2982277348072873075048266287461'),
     [(1+0j), (-1.4349135497651209+0.7630797862958097j), (-3.6961013497160193+4.965343520517044j), (4.0067005764862325-8.058544022603963j), (0.1622819982418959-21.995113733663967j), (24.95931997947604+38.8745208825895j), (87.82936977819257+60.37088233880563j), (-189.4054273784887-42.589854980910786j), (-408.5935130336646+82.09458060715058j)]),
    ((-0.2+0.45j), (0.8, -1.6), (0.45, 1.2), 15,
     (-0.014887422472243582-1.543885537991453e-05j),
     (-0.0148874224722436-1.5438855379908828e-05j),
     [(1+0j), (-2.3616932566745152+1.5039311518806056j), (2.9504195658140873-1.708961381959412j), (7.573585152415205-18.63104712655121j), (1.5066172277975056+5.464849253532634j), (33.317390367154076+55.67576914377901j), (-34.71578837322431-24.5380617227911j), (-265.91781135936253-59.656512840347204j), (173.10593155313472-32.98101937900174j)]),
    ((-0.2+0.45j), (0.8, -1.6), (0.45, 1.2), 30,
     ('-0.0148874224722435932656973083482347', '-0.0000154388553798980802687964972526211'),
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
    e = kronecker._exp([0, c] + [0] * 7)
    with mpmath.workdps(50):
        want = mpmath.taylor(lambda x: mpmath.exp(mpmath.mpc(c) * x), 0, 8)
        worst = max(abs(mpmath.mpc(got) - w) for got, w in zip(e, want))
    assert len(e) == 9 and worst < 1e-29
