import cmath
import itertools
import math
import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest

from epolylog import polylog
from epolylog.errors import Inadmissible, MissingConstants, OutOfRegion
from epolylog.kronecker import LatticeContext, zeta_even
from epolylog.polylog import (
    DebyeSeries,
    MultiIndex,
    SimplicialPoint,
    SpiralShift,
    asymptotic_eval,
    constants_order,
    continue_debye,
    debye_lambda,
    eval_classical,
    transport_debye,
    transport_ray,
)
from epolylog.quadrature import LineArc
from epolylog.series import MultiSeries

TAU = 0.1 + 0.8j


@pytest.fixture(scope="module")
def ctx():
    return LatticeContext(TAU)


def coeffs1(series, K):
    return np.array([series.coeff((k,)) for k in range(K)])


def coeffs2(series, K):
    return np.array([[series.coeff((i, j)) for j in range(K)] for i in range(K)])


def exp_coeffs(L, n):
    return np.array([(-L) ** k / math.factorial(k) for k in range(n)])


def constants_series(K):
    M = constants_order(K)
    terms = {(-1,): -1.0 + 0j, (0,): 1j * math.pi}
    for k in range(1, (M + 2) // 2 + 1):
        if 2 * k - 1 <= M:
            terms[(2 * k - 1,)] = 2 * zeta_even(2 * k)
    return MultiSeries(("b",), terms, (M,), (-1,))


def constants_split(lab, K):
    """Regular part of the tail constant composed at c1*b1 + c2*b2."""
    out = np.zeros((K, K), dtype=complex)
    orders = {0: 1j * math.pi}
    for k in range(1, K + 1):
        if 2 * k - 1 <= 2 * (K - 1):
            orders[2 * k - 1] = 2 * zeta_even(2 * k)
    c1, c2 = lab
    for n, cv in orders.items():
        for i in range(min(n, K - 1) + 1):
            j = n - i
            if j < K:
                out[i, j] += cv * math.comb(n, i) * c1**i * c2**j
    return out


# --------------------------------------------------------- classical evaluator


@pytest.mark.parametrize("idx", [(1, 1), (2, 1), (1, 2)])
def test_modes_agree(idx):
    pt = SimplicialPoint((0.06, 0.3))
    a = eval_classical(MultiIndex(idx), pt, mode="li_series")
    b = eval_classical(MultiIndex(idx), pt, mode="simplicial_series")
    c = eval_classical(MultiIndex(idx), pt, mode="iterated_integral")
    assert abs(a - b) < 1e-13
    assert abs(a - c) < 1e-11


def test_double_sum_matches_brute():
    t1, t2 = 0.06, 0.3
    brute = sum(
        t1**a * t2**b / (a * (a + b))
        for a in range(1, 201)
        for b in range(1, 201)
    )
    got = eval_classical(
        MultiIndex((1, 1)), SimplicialPoint((t1, t2)), mode="simplicial_series"
    )
    assert abs(brute - got) < 1e-13


@pytest.mark.parametrize("ab", [(1, 1), (2, 1)])
def test_stuffle_identity(ab):
    a, b = ab
    x, y = 0.2, 0.3
    La = eval_classical(MultiIndex((a,)), SimplicialPoint((x,)))
    Lb = eval_classical(MultiIndex((b,)), SimplicialPoint((y,)))
    Lab = eval_classical(MultiIndex((a, b)), SimplicialPoint((x * y, y)))
    Lba = eval_classical(MultiIndex((b, a)), SimplicialPoint((x * y, x)))
    Lsum = eval_classical(MultiIndex((a + b,)), SimplicialPoint((x * y,)))
    assert abs(La * Lb - (Lab + Lba + Lsum)) < 1e-13


def test_integral_path_detour():
    pt = SimplicialPoint((0.06, 0.3))
    direct = eval_classical(MultiIndex((1, 1)), pt, mode="iterated_integral")
    detour = eval_classical(
        MultiIndex((1, 1)),
        pt,
        mode="iterated_integral",
        path=[LineArc(0.0, 0.4 - 0.3j), LineArc(0.4 - 0.3j, 1.0)],
    )
    assert abs(direct - detour) < 1e-11


def test_classical_argument_checks():
    with pytest.raises(OutOfRegion):
        eval_classical(MultiIndex((1,)), SimplicialPoint((0.999,)))
    with pytest.raises(ValueError):
        eval_classical(MultiIndex((1, 1)), SimplicialPoint((0.3,)))
    with pytest.raises(ValueError):
        eval_classical(MultiIndex((1,)), SimplicialPoint((0.3,)), mode="bogus")


def test_series_too_long_for_tolerance_refused():
    # |x| = 0.9999 needs ~4e5 terms for 1e-14; a clamped sum would be off by ~5e-2
    with pytest.raises(OutOfRegion):
        eval_classical(MultiIndex((1,)), SimplicialPoint((0.9999,)), delta=1e-6)


# --------------------------------------------------------- generating series


def test_depth1_beta_samples():
    t = 0.4
    ser = debye_lambda(1, SimplicialPoint((t,)), 10)
    a = np.arange(1, 4001)
    for beta in (0.1, 0.07 - 0.03j):
        brute = t ** (-beta) * np.sum(t**a / (a - beta))
        assert abs(ser.value.eval_at({"b": beta}) - brute) < 1e-9


def test_depth2_beta_samples():
    ser = debye_lambda(2, SimplicialPoint((0.2, 0.35)), 10)
    a = np.arange(1, 301)
    tot = np.add.outer(a, a)
    for be1, be2 in ((0.06 + 0.02j, -0.05 + 0.03j), (0.04, 0.03)):
        den = np.outer(a - be1, np.ones(300)) * (tot - be1 - be2)
        brute = 0.2 ** (-be1) * 0.35 ** (-be2) * np.sum(
            np.outer(0.2**a, 0.35**a) / den
        )
        assert abs(ser.value.eval_at({"b1": be1, "b2": be2}) - brute) < 1e-11


def test_depth2_channels_match_depth1():
    K = 6
    ser = debye_lambda(2, SimplicialPoint((0.2, 0.35)), K)
    Kp = 2 * K - 1
    for name, t in (("c1", 0.2), ("c2", 0.35)):
        chan = np.asarray(ser.channels[name])
        assert len(chan) >= Kp
        d1 = coeffs1(debye_lambda(1, SimplicialPoint((t,)), Kp).value, Kp)
        assert np.max(np.abs(chan[:Kp] - d1)) == 0.0


def test_series_argument_checks():
    with pytest.raises(ValueError):
        debye_lambda(3, SimplicialPoint((0.1, 0.1, 0.1)), 4)
    assert debye_lambda(1, SimplicialPoint((0.0,)), 5).value.is_zero()


def test_exp_coeffs_batched_matches_scalar_recurrence():
    from epolylog.polylog import _exp_coeffs

    rng = np.random.default_rng(5)
    logs = rng.normal(size=(3, 7)) + 4j * rng.normal(size=(3, 7))
    K = 13
    got = _exp_coeffs(logs, K)
    assert got.shape == (3, 7, K)
    for idx in np.ndindex(logs.shape):
        want, term = [], 1.0 + 0.0j
        for k in range(K):
            want.append(term)
            term *= -logs[idx] / (k + 1)
        # same operations in the same order; the bound allows a few ulp per step
        np.testing.assert_allclose(got[idx], want, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(_exp_coeffs(logs[0, 0], K), got[0, 0])


def li_tail_column(t, K, shift):
    """Coefficients of sum_a t^a / (a - shift)^? expanded: sum t^a / a^(k+1)."""
    a = np.arange(1, 3001, dtype=float)
    return np.array([np.sum(t**a / a ** (k + 1)) for k in range(K)])


@pytest.mark.parametrize("axis", [0, 1])
def test_scaling_derivative_matches_depth1_data(axis):
    K = 4
    ts = (0.004 + 0.001j, 0.0065 - 0.002j)
    t1, t2 = ts
    h = 1e-6 * abs(ts[axis])

    def arr(point):
        return coeffs2(debye_lambda(2, SimplicialPoint(point), K).value, K)

    up, dn = list(ts), list(ts)
    up[axis] += h
    dn[axis] -= h
    fd = ts[axis] * (arr(tuple(up)) - arr(tuple(dn))) / (2 * h)

    n = np.arange(1, 61)
    Kp = 2 * K
    S1 = np.array([np.sum(t1**n / n ** (k + 1)) for k in range(Kp)])
    S2 = np.array([np.sum(t2**n / n ** (k + 1)) for k in range(Kp)])
    bracket = (t2 * S1 - t1 * S2) / (t1 - t2)
    B = np.zeros((Kp, Kp), dtype=complex)
    for k in range(Kp):
        for i in range(k + 1):
            if k - i < Kp:
                B[i, k - i] += math.comb(k, i) * bracket[k]
    if axis == 1:
        A2 = np.zeros((Kp, Kp), dtype=complex)
        A2[:, 0] = S1 * (t2 / (1 - t2))
        B = A2 - B
    pref = np.outer(exp_coeffs(cmath.log(t1), Kp), exp_coeffs(cmath.log(t2), Kp))
    from scipy.signal import convolve2d

    rhs = convolve2d(pref, B)[:K, :K]
    assert np.max(np.abs(fd - rhs)) < 1e-10


# --------------------------------------------------------------- continuation


def test_inversion_identity_upper_detour():
    K = 12
    base = debye_lambda(1, SimplicialPoint((0.4,)), K)
    legs = [
        LineArc(0.4, 0.4 + 0.5j),
        LineArc(0.4 + 0.5j, 2.5 + 0.5j),
        LineArc(2.5 + 0.5j, 2.5),
    ]
    cont = continue_debye(base, legs)
    flip = coeffs1(base.value, K) * np.array([(-1.0) ** k for k in range(K)])
    rhs = exp_coeffs(cmath.log(2.5), K + 2)[1 : K + 1].copy()
    rhs[0] += 1j * math.pi
    for k in range(1, (K + 2) // 2):
        if 2 * k - 1 < K:
            rhs[2 * k - 1] += 2 * zeta_even(2 * k)
    assert np.max(np.abs(coeffs1(cont.value, K) - flip - rhs)) < 1e-13


def test_full_loop_monodromy():
    K = 12
    base = debye_lambda(1, SimplicialPoint((0.5,)), K)
    poly = [0.5, 0.5 - 0.4j, 1.5 - 0.4j, 1.5 + 0.4j, 0.5 + 0.4j, 0.5]
    loop = continue_debye(base, [LineArc(poly[i], poly[i + 1]) for i in range(5)])
    delta = coeffs1(loop.value, K) - coeffs1(base.value, K)
    assert abs(delta[0] + 2j * math.pi) < 1e-13
    assert np.max(np.abs(delta[1:])) < 1e-13
    assert abs(loop.logs[0] - base.logs[0]) < 1e-12
    assert "continued" in loop.branch_tag


def test_large_argument_column_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    K = 8
    b1 = 0.05 * cmath.exp(2.5j)
    cont = continue_debye(
        debye_lambda(1, SimplicialPoint((b1,)), K), [LineArc(b1, 512 * b1)]
    )
    got = coeffs1(cont.value, K)
    s = mp.mpc(512 * b1)
    L = mp.mpc(cont.logs[0])
    N, R = 64, 0.45
    cauchy = np.zeros(K, dtype=complex)
    for j in range(N):
        sig = R * mp.e ** (2j * mp.pi * j / N)
        f = mp.e ** (-sig * L) * s * mp.lerchphi(s, 1, 1 - sig)
        for k in range(K):
            cauchy[k] += complex(f / sig**k) / N
    assert np.max(np.abs(cauchy - got)) < 1e-12


def test_short_channels_rejected():
    b = debye_lambda(2, SimplicialPoint((0.1, 0.2)), 5)
    short = DebyeSeries(
        b.point,
        b.value,
        b.branch_tag,
        b.logs,
        {"c1": b.channels["c1"][:3], "c2": b.channels["c2"][:3]},
    )
    with pytest.raises(ValueError, match="stale"):
        continue_debye(short, [(1, LineArc(0.1, 0.3))])


# ------------------------------------------------------------ lattice transport


def test_spiral_zero_shift_identity(ctx):
    p = SimplicialPoint((0.23 + 0.11j,))
    tr = transport_debye(SpiralShift((0,), p, ctx), 6)
    d0 = debye_lambda(1, p, 6)
    assert np.max(np.abs(coeffs1(tr.value, 6) - coeffs1(d0.value, 6))) < 1e-15
    assert tr.logs == d0.logs


def test_spiral_branch_oracle():
    ctx2 = LatticeContext(0.3 + 0.25j)
    K, t = 12, 0.005
    tr = transport_debye(SpiralShift((-3,), SimplicialPoint((t,)), ctx2), K)
    L = cmath.log(t) - 3 * 2j * math.pi * (0.3 + 0.25j)
    endpoint = t * cmath.exp(-3 * 2j * math.pi * (0.3 + 0.25j))
    assert abs(endpoint) < 1
    assert abs(tr.logs[0] - L) == 0.0
    col = li_tail_column(endpoint, K, 0)
    oracle = np.convolve(exp_coeffs(L, K), col)[:K]
    for k in range(1, K):
        oracle[k] += oracle[k - 1] * 0  # column already cumulative in k
    got = coeffs1(tr.value, K)
    assert np.max(np.abs(got - oracle)) < 1e-12


@pytest.mark.parametrize("route", ["diagonal", "axes"])
def test_transport_matches_direct_sum(ctx, route):
    K = 10
    base = SimplicialPoint((0.002 + 0.0007j, 0.004 - 0.0015j))
    tr = transport_debye(SpiralShift((-1, -1), base, ctx), K, route=route)
    e1, e2 = tr.point.ts
    assert abs(e1) < 1 and abs(e2) < 1
    a = np.arange(1, 301)
    tot = np.add.outer(a, a)
    for be1, be2 in ((0.06 + 0.02j, -0.05 + 0.03j), (0.03, 0.02)):
        den = np.outer(a - be1, np.ones(300)) * (tot - be1 - be2)
        brute = (
            cmath.exp(-be1 * tr.logs[0])
            * cmath.exp(-be2 * tr.logs[1])
            * np.sum(np.outer(e1**a, e2**a) / den)
        )
        got = tr.value.eval_at({"b1": be1, "b2": be2})
        assert abs(got - brute) < 1e-10


@pytest.mark.parametrize("j", [1, 2])
def test_transport_ray_matches_direct_sum(j):
    K = 10
    ts = (0.2, 0.35)
    tr = transport_ray(SimplicialPoint(ts), j, 1.5, K)
    e1, e2 = tr.point.ts
    assert abs(tr.point.ts[j - 1] - 1.5 * ts[j - 1]) < 1e-14
    assert tr.point.ts[2 - j] == ts[2 - j]
    a = np.arange(1, 301)
    tot = np.add.outer(a, a)
    be1, be2 = 0.05 + 0.01j, -0.04 + 0.02j
    den = np.outer(a - be1, np.ones(300)) * (tot - be1 - be2)
    brute = (
        cmath.exp(-be1 * tr.logs[0])
        * cmath.exp(-be2 * tr.logs[1])
        * np.sum(np.outer(e1**a, e2**a) / den)
    )
    assert abs(tr.value.eval_at({"b1": be1, "b2": be2}) - brute) < 1e-10


def test_route_homotopy_agreement(ctx):
    K = 6
    sh = SpiralShift((-1, -1), SimplicialPoint((0.25 + 0.1j, 0.5 - 0.2j)), ctx)
    da = coeffs2(transport_debye(sh, K, route="diagonal").value, K)
    db = coeffs2(transport_debye(sh, K, route="axes").value, K)
    scale = np.max(np.abs(da))
    assert np.max(np.abs(da - db)) < 1e-10 * scale


def test_spiral_point_on_orbit_rejected(ctx):
    t_bad = cmath.exp(2j * math.pi * 0.6 * TAU)
    with pytest.raises(Inadmissible):
        SpiralShift((1,), SimplicialPoint((t_bad,)), ctx).validate()
    t1 = 0.3 + 0.1j
    t2 = t1 * cmath.exp(-2j * math.pi * 1.3 * TAU)
    with pytest.raises(Inadmissible):
        SpiralShift((1, 0), SimplicialPoint((t1, t2)), ctx).validate()


def test_spiral_zero_coordinate_rejected(ctx):
    with pytest.raises(OutOfRegion):
        SpiralShift((1,), SimplicialPoint((0.0,)), ctx).validate()


# ------------------------------------------------------- asymptotic predictions


def test_region_argument_checks():
    C = constants_series(4)
    with pytest.raises(ValueError):
        asymptotic_eval(2, set(), SimplicialPoint((2.0, 3.0)), 4, constants=C)
    with pytest.raises(ValueError):
        asymptotic_eval(2, {3}, SimplicialPoint((2.0, 3.0)), 4, constants=C)
    with pytest.raises(ValueError):
        asymptotic_eval(3, {1}, SimplicialPoint((2.0, 3.0, 4.0)), 4, constants=C)
    with pytest.raises(MissingConstants):
        asymptotic_eval(2, {1, 2}, SimplicialPoint((20.0, 30.0)), 4)
    short = MultiSeries(("b",), {(-1,): -1.0 + 0j, (0,): 1j * math.pi}, (1,), (-1,))
    with pytest.raises(MissingConstants):
        asymptotic_eval(2, {1, 2}, SimplicialPoint((20.0, 30.0)), 4, constants=short)


def test_symbolic_term_list_structure():
    from fractions import Fraction

    terms = asymptotic_eval(3, {1}, SimplicialPoint((2.0, 3.0, 4.0)), 3, symbolic=True)
    assert isinstance(terms, list) and len(terms) == 2
    for term in terms:
        assert len(term) == 4
        assert isinstance(term[0], Fraction)


def test_symbolic_term_list_is_a_fresh_list():
    pt = SimplicialPoint((2.0, 3.0))
    first = asymptotic_eval(2, {1}, pt, 4, symbolic=True)
    n = len(first)
    first.clear()
    assert len(asymptotic_eval(2, {1}, pt, 4, symbolic=True)) == n > 0


def _compose_reference(coeffs, lab, M):
    """sum_n c_n (lab . beta)^n by the multinomial sum over all compositions."""
    terms = {}
    for n, cn in enumerate(coeffs[: M + 1]):
        for k in itertools.product(range(n + 1), repeat=len(lab)):
            if sum(k) != n:
                continue
            coef = cn * math.factorial(n)
            for ki, li in zip(k, lab):
                coef = coef * li**ki / math.factorial(ki)
            if coef != 0:
                terms[k] = terms.get(k, 0) + coef
    return terms


@pytest.mark.parametrize(
    "lab, M", [((0.7 - 0.2j,), 9), ((0.0, -1.3 + 0.4j), 9), ((0.5 + 0.1j, -1.3), 9),
               ((1.0, 2.0), 4)],
)
def test_compose_linear_matches_composition_sum(lab, M):
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
    coeffs[3] = 0
    vars = ("b",) if len(lab) == 1 else ("b1", "b2")
    got = polylog._compose_linear(coeffs, lab, vars, M)
    want = _compose_reference(coeffs, lab, M)
    assert got.max_order == (M,) * len(lab) and set(got.terms) == set(want)
    for e, c in want.items():
        assert abs(got.terms[e] - c) <= 1e-14 * max(1.0, abs(c))


def test_compose_linear_three_active_refused():
    with pytest.raises(NotImplementedError):
        polylog._compose_linear([1.0, 2.0], (1.0, 1.0, 1.0), ("b1", "b2", "b3"), 4)


def test_nested_table_blocks_agree(monkeypatch):
    t1, t2 = 0.6 * cmath.exp(0.4j), 0.75 * cmath.exp(-1.1j)
    whole = polylog._nested_table(t1, t2, 6, 1e-15)
    monkeypatch.setattr(polylog, "_NESTED_BLOCK", 7)
    blocked = polylog._nested_table(t1, t2, 6, 1e-15)
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * max(1.0, np.max(np.abs(whole)))


def test_depth2_near_unit_circle_memory_bounded():
    """|t| = 0.99 needs N = 3899 terms: the nested table must not hold
    N x N arrays (about 120 MB each)."""
    pt = SimplicialPoint((0.99, 0.5 * cmath.exp(1j)))
    tracemalloc.start()
    try:
        s = debye_lambda(2, pt, 4, delta=0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    direct = eval_classical(MultiIndex((1, 1)), pt, mode="simplicial_series", delta=0.005)
    assert abs(s.value.coeff((0, 0)) - direct) < 1e-10 * max(1.0, abs(direct))


def test_spiral_asymptote_sharpens(ctx):
    K = 6
    p = SimplicialPoint((0.23 + 0.11j,))
    C = constants_series(K)
    errs = {}
    cell0 = {}
    for m in (-2, -3):
        tr = transport_debye(SpiralShift((m,), p, ctx), K)
        pred = asymptotic_eval(1, {1}, tr.point, K, constants=C)
        assert pred.polar_part().is_zero()
        d = coeffs1(tr.value, K) - coeffs1(pred, K)
        errs[m] = np.max(np.abs(d))
        cell0[m] = abs(d[0])
    assert errs[-2] / errs[-3] > 15
    assert cell0[-2] / cell0[-3] > 60


def test_single_ray_error_decays():
    K = 4
    b1 = 0.04 * cmath.exp(0.9j)
    b2 = 0.05 * cmath.exp(2.5j)
    base = debye_lambda(2, SimplicialPoint((b1, b2)), K)
    C = constants_series(K)
    for J, j in (({1}, 1), ({2}, 2)):
        es = {}
        for T in (8, 32):
            t = (b1, b2)[j - 1]
            cont = continue_debye(base, [(j, LineArc(t, T * t))])
            pred = asymptotic_eval(2, J, cont.point, K, constants=C)
            es[T] = np.max(np.abs(coeffs2(cont.value, K) - coeffs2(pred, K)))
        assert es[32] < 0.55 * es[8]


def test_prepared_ray_slope(ctx):
    K = 2
    b1 = 0.31 * cmath.exp(0.9j)
    b2 = 0.27 * cmath.exp(2.5j)
    C = constants_series(K)
    xs = np.log([8.0, 16.0, 32.0])
    design = np.vstack([xs, np.ones(3)]).T
    for J, j, m in (({1}, 1, (-3, 0)), ({2}, 2, (0, -3))):
        prep = transport_debye(SpiralShift(m, SimplicialPoint((b1, b2)), ctx), K)
        tstar = prep.point.ts[j - 1]
        errs = []
        for T in (8, 16, 32):
            cont = continue_debye(prep, [(j, LineArc(tstar, T * tstar))])
            pred = asymptotic_eval(2, J, cont.point, K, constants=C)
            errs.append(np.max(np.abs(coeffs2(cont.value, K) - coeffs2(pred, K))))
        slope = la.lstsq(design, np.log(errs), rcond=None)[0][0]
        assert slope <= -0.8


def test_double_ray_error_decays():
    K = 3
    b1 = 0.04 * cmath.exp(0.9j)
    b2 = 0.05 * cmath.exp(2.5j)
    base = debye_lambda(2, SimplicialPoint((b1, b2)), K)
    C = constants_series(K)
    es = {}
    for T in (32, 512):
        cont = continue_debye(
            base, [(1, LineArc(b1, T * b1)), (2, LineArc(b2, T * b2))]
        )
        pred = asymptotic_eval(2, {1, 2}, cont.point, K, constants=C)
        d = coeffs2(cont.value, K) - coeffs2(pred, K)
        es[T] = (np.max(np.abs(d)), abs(d[0, 0]))
    assert es[512][0] < 0.75 * es[32][0]
    assert es[512][1] < 0.4


def test_far_cells_freeze_until_onset():
    K = 5
    b1 = 0.04 * cmath.exp(0.9j)
    b2 = 0.05 * cmath.exp(2.5j)
    base = debye_lambda(2, SimplicialPoint((b1, b2)), K)
    C = constants_series(K)
    d = {}
    for T in (8, 512):
        cont = continue_debye(
            base, [(1, LineArc(b1, T * b1)), (2, LineArc(b2, T * b2))]
        )
        pred = asymptotic_eval(2, {1, 2}, cont.point, K, constants=C)
        d[T] = np.abs(coeffs2(cont.value, K) - coeffs2(pred, K))
    assert d[512][0, 0] / d[8][0, 0] < 0.1
    assert 0.9 < d[512][4, 4] / d[8][4, 4] < 1.1


def test_lower_half_ratio_sheet_offset(ctx):
    K = 3
    b1 = 0.31 * cmath.exp(0.9j)
    b2 = 0.27 * cmath.exp(2.5j)
    assert cmath.log(b1 / b2).imag < 0 and abs(b1) > abs(b2)
    C = constants_series(K)
    prep = transport_debye(SpiralShift((-3, -3), SimplicialPoint((b1, b2)), ctx), K)
    t1, t2 = prep.point.ts
    cont = continue_debye(
        prep, [(1, LineArc(t1, 512 * t1)), (2, LineArc(t2, 512 * t2))]
    )
    pred = asymptotic_eval(2, {1, 2}, cont.point, K, constants=C)
    gap = coeffs2(pred, K) - coeffs2(cont.value, K)
    offset = 2j * math.pi * constants_split((1.0, 1.0), K)
    assert np.max(np.abs(gap - offset)) < 5e-3
