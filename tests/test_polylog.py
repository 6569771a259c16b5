import cmath
import itertools
import math
import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest

import oracles
from epolylog import hopf, polylog, quadrature
from epolylog.errors import Inadmissible, MissingConstants, OutOfRegion, PathTooClose, UnsupportedPrecision
from epolylog.kronecker import LatticeContext, zeta_even
from epolylog.polylog import (
    DebyeSeries,
    SimplicialPoint,
    SpiralShift,
    asymptotic_eval,
    constants_order,
    continue_debye,
    debye_lambda,
    transport_debye,
)
from epolylog.quadrature import LineArc, SpiralArc, check_clearance
from epolylog.series import MultiSeries, exp_column

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


# ------------------------------------------------------ nested sums, integrals


def simplicial_integral(ts, orders, arcs=(LineArc(0.0, 1.0),)):
    """(-1)^r times the iterated integral from 0 to 1 of the forms
    dz/(z - rho), rho running over 1/t_i followed by n_i - 1 zeros: the
    integral representation of the nested sum I_{n_1..n_r}(t_1..t_r)."""
    rho = []
    for t, n in zip(ts, orders):
        rho.extend([1.0 / t] + [0.0] * (n - 1))
    forms = [lambda z, v, r=r: v / (z - r) for r in reversed(rho)]
    return (-1) ** len(ts) * complex(oracles.chain(list(arcs), forms, tol=1e-11))


@pytest.mark.parametrize("idx", [(1, 1), (2, 1), (1, 2)])
def test_modes_agree(idx):
    ts = (0.06, 0.3)
    want = oracles.simplicial_nested(ts, idx, 1e-14)
    assert abs(simplicial_integral(ts, idx) - want) < 1e-11


def test_double_sum_matches_brute():
    t1, t2 = 0.06, 0.3
    brute = sum(
        t1**a * t2**b / (a * (a + b))
        for a in range(1, 201)
        for b in range(1, 201)
    )
    got = oracles.simplicial_nested((t1, t2), (1, 1), 1e-14)
    assert abs(brute - got) < 1e-13


@pytest.mark.parametrize("ab", [(1, 1), (2, 1)])
def test_stuffle_identity(ab):
    """Li_a(x) Li_b(y) = Li_{a,b}(x, y) + Li_{b,a}(y, x) + Li_{a+b}(xy), with
    the depth-2 values read from the nested table at (xy, y) and (xy, x)."""
    a, b = ab
    x, y = 0.2, 0.3
    La = polylog._li_column(x, a, 1e-15)[a - 1]
    Lb = polylog._li_column(y, b, 1e-15)[b - 1]
    Lab = polylog._nested_table(x * y, y, 2, 1e-15)[a - 1, b - 1]
    Lba = polylog._nested_table(x * y, x, 2, 1e-15)[b - 1, a - 1]
    Lsum = polylog._li_column(x * y, a + b, 1e-15)[a + b - 1]
    assert abs(La * Lb - (Lab + Lba + Lsum)) < 1e-13


def test_integral_path_detour():
    ts = (0.06, 0.3)
    direct = simplicial_integral(ts, (1, 1))
    detour = simplicial_integral(ts, (1, 1), (LineArc(0.0, 0.4 - 0.3j), LineArc(0.4 - 0.3j, 1.0)))
    assert abs(direct - detour) < 1e-11


def test_series_too_long_for_tolerance_refused():
    # |x| = 0.9999 needs ~4e5 terms for 1e-14; a clamped sum would be off by ~5e-2
    with pytest.raises(OutOfRegion):
        polylog._tail_length(0.9999, 1e-14)


# --------------------------------------------------------- generating series


def test_depth1_beta_samples():
    t = 0.4
    ser = debye_lambda(1, SimplicialPoint((t,)), 10)
    a = np.arange(1, 4001)
    for beta in (0.1, 0.07 - 0.03j):
        brute = t ** (-beta) * np.sum(t**a / (a - beta))
        assert abs(oracles.eval_at(ser.value, {"b": beta}) - brute) < 1e-9


def test_depth2_beta_samples():
    ser = debye_lambda(2, SimplicialPoint((0.2, 0.35)), 10)
    a = np.arange(1, 301)
    tot = np.add.outer(a, a)
    for be1, be2 in ((0.06 + 0.02j, -0.05 + 0.03j), (0.04, 0.03)):
        den = np.outer(a - be1, np.ones(300)) * (tot - be1 - be2)
        brute = 0.2 ** (-be1) * 0.35 ** (-be2) * np.sum(
            np.outer(0.2**a, 0.35**a) / den
        )
        assert abs(oracles.eval_at(ser.value, {"b1": be1, "b2": be2}) - brute) < 1e-11


def test_depth2_channels_match_depth1():
    K = 6
    ser = debye_lambda(2, SimplicialPoint((0.2, 0.35)), K)
    Kp = 2 * K - 1
    for chan, t in zip(ser.channels, (0.2, 0.35)):
        assert len(chan) >= Kp
        d1 = coeffs1(debye_lambda(1, SimplicialPoint((t,)), Kp).value, Kp)
        assert np.max(np.abs(chan[:Kp] - d1)) == 0.0


def test_series_argument_checks():
    with pytest.raises(ValueError):
        debye_lambda(3, SimplicialPoint((0.1, 0.1, 0.1)), 4)
    assert not debye_lambda(1, SimplicialPoint((0.0,)), 5).value.terms
    # K < 1 leaves an empty window, which would read as known zero coefficients
    for ts in ((0.3,), (0.3, 0.2)):
        with pytest.raises(ValueError, match="at least 1"):
            debye_lambda(len(ts), SimplicialPoint(ts), 0)


@pytest.mark.parametrize("ts", [(0.4 - 0.1j,), (0.2, 0.35 + 0.1j)])
def test_value_is_the_coeffs_view(ts):
    K = 5
    ser = debye_lambda(len(ts), SimplicialPoint(ts), K)
    assert ser.coeffs.shape == (K,) * len(ts) and ser.order() == K
    assert ser.value.max_order == (K - 1,) * len(ts)
    for e in np.ndindex(ser.coeffs.shape):
        assert ser.value.coeff(e) == ser.coeffs[e]


def test_transported_value_shares_the_array(ctx):
    """A K = 8 depth-2 transport: value wraps coeffs without a copy, and reads
    as the dict of nonzero coefficients the series used to build per leg."""
    tr = transport_debye(SpiralShift((1, 1), SimplicialPoint((-0.55 + 0.4j, 0.35 - 0.5j)), ctx), 8)
    assert np.shares_memory(tr.value.a, tr.coeffs)
    view = {e: complex(c) for e, c in np.ndenumerate(tr.coeffs) if c != 0}
    assert dict(tr.value.terms) == view and len(view) == 64
    for e in np.ndindex(tr.coeffs.shape):
        assert tr.value.coeff(e) == view.get(e, 0)


def test_exp_coeffs_batched_matches_scalar_recurrence():
    """The transport's exp(-b*l) columns come from series.exp_column at -l."""
    rng = np.random.default_rng(5)
    logs = rng.normal(size=(3, 7)) + 4j * rng.normal(size=(3, 7))
    K = 13
    got = exp_column(-logs, K)
    assert got.shape == (3, 7, K)
    for idx in np.ndindex(logs.shape):
        want, term = [], 1.0 + 0.0j
        for k in range(K):
            want.append(term)
            term *= -logs[idx] / (k + 1)
        # same operations in the same order; the bound allows a few ulp per step
        np.testing.assert_allclose(got[idx], want, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(exp_column(-logs[0, 0], K), got[0, 0])


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
    K = 8
    b1 = 0.05 * cmath.exp(2.5j)
    cont = continue_debye(
        debye_lambda(1, SimplicialPoint((b1,)), K), [LineArc(b1, 512 * b1)]
    )
    got = coeffs1(cont.value, K)
    N, R = 64, 0.45
    cauchy = np.zeros(K, dtype=complex)
    # 20 digits keep the oracle's own error far below the 1e-12 bound
    with mp.workdps(20):
        s = mp.mpc(512 * b1)
        L = mp.mpc(cont.logs[0])
        for j in range(N):
            sig = R * mp.e ** (2j * mp.pi * j / N)
            f = mp.e ** (-sig * L) * s * mp.lerchphi(s, 1, 1 - sig)
            for k in range(K):
                cauchy[k] += complex(f / sig**k) / N
    assert np.max(np.abs(cauchy - got)) < 1e-12


def test_short_channels_rejected():
    b = debye_lambda(2, SimplicialPoint((0.1, 0.2)), 5)
    c1, c2 = b.channels
    short = DebyeSeries(b.point, b.coeffs, b.logs, (c1[:3], c2[:3]), b.branch_tag)
    with pytest.raises(ValueError, match="stale"):
        continue_debye(short, [(1, LineArc(0.1, 0.3))])


def test_continue_refuses_bad_legs():
    b1 = debye_lambda(1, SimplicialPoint((0.3,)), 4)
    b2 = debye_lambda(2, SimplicialPoint((0.2, 0.35)), 4)
    for j in (0, 3):
        with pytest.raises(ValueError, match="coordinate index must be 1 or 2"):
            continue_debye(b2, [(j, LineArc(0.2, 0.4))])
    log_q = 2j * math.pi * TAU
    elsewhere = [
        (b1, LineArc(0.25, 0.5)),
        (b1, SpiralArc(cmath.log(0.25), log_q)),
        (b2, (1, LineArc(0.35, 0.5))),
        (b2, (2, SpiralArc(cmath.log(0.2), log_q))),
    ]
    for series, leg in elsewhere:
        with pytest.raises(ValueError, match="does not start"):
            continue_debye(series, [leg])
    for series, leg in [(b1, (0.3, 0.5)), (b2, (1, (0.2, 0.4)))]:
        with pytest.raises(TypeError, match="unsupported arc type"):
            continue_debye(series, [leg])


def test_zero_coordinate_has_no_channels():
    b = debye_lambda(2, SimplicialPoint((0.0, 0.3)), 4)
    assert b.channels is None and not b.value.terms
    for leg in [(2, LineArc(0.3, 0.6)), (1, LineArc(0.0, 0.5))]:
        with pytest.raises(OutOfRegion, match="no log branch"):
            continue_debye(b, [leg])


def test_depth1_zero_coordinate_not_continued():
    b = debye_lambda(1, SimplicialPoint((0.0,)), 4)
    with pytest.raises(OutOfRegion, match="no log branch"):
        continue_debye(b, [LineArc(0.0, 0.5)])


@pytest.mark.parametrize(
    "ts", [(math.nan,), (math.inf,), (complex(3, math.inf), 2.0), (0.3, complex(math.nan, 0.1))]
)
def test_non_finite_coordinate_refused(ts):
    """A non-finite coordinate has no series and no prediction: the point
    itself refuses it, before debye_lambda or asymptotic_eval could return
    NaN coefficients or fail inside a tail-length estimate."""
    r, K = len(ts), 4
    with pytest.raises(OutOfRegion, match="non-finite"):
        debye_lambda(r, SimplicialPoint(ts), K)
    with pytest.raises(OutOfRegion, match="non-finite"):
        asymptotic_eval(r, {1}, SimplicialPoint(ts), K, constants_series(K))


def _snapshot(s):
    chans = None if s.channels is None else tuple(c.copy() for c in s.channels)
    return s.coeffs.copy(), chans, s.logs, s.branch_tag, s.point.ts


def _assert_unchanged(s, snap):
    coeffs, chans, logs, tag, ts = snap
    np.testing.assert_array_equal(s.coeffs, coeffs)
    if chans is None:
        assert s.channels is None
    else:
        for c, c0 in zip(s.channels, chans):
            np.testing.assert_array_equal(c, c0)
    assert (s.logs, s.branch_tag, s.point.ts) == (logs, tag, ts)


def test_continuation_leaves_input_untouched():
    b1 = debye_lambda(1, SimplicialPoint((0.3 + 0.2j,)), 6)
    b2 = debye_lambda(2, SimplicialPoint((0.2, 0.35 + 0.1j)), 4)
    snaps = [_snapshot(b1), _snapshot(b2)]
    c1 = continue_debye(b1, [LineArc(0.3 + 0.2j, 0.6 + 0.4j)])
    c2 = continue_debye(b2, [(1, LineArc(0.2, 0.5)), (2, LineArc(0.35 + 0.1j, 0.7 + 0.2j))])
    _assert_unchanged(b1, snaps[0])
    _assert_unchanged(b2, snaps[1])
    assert c1.coeffs is not b1.coeffs and c2.coeffs is not b2.coeffs
    # a continued series is itself a valid input, and stays as it was too
    snap = _snapshot(c2)
    continue_debye(c2, [(2, LineArc(c2.point.ts[1], 0.5 * c2.point.ts[1]))])
    _assert_unchanged(c2, snap)


def test_continue_without_legs_is_a_fresh_series():
    b = debye_lambda(2, SimplicialPoint((0.2, 0.35)), 4)
    snap = _snapshot(b)
    c = continue_debye(b, [])
    assert c is not b
    assert c.branch_tag == "origin-canonical -> continued[0 legs]"
    _assert_unchanged(b, snap)
    np.testing.assert_array_equal(c.coeffs, b.coeffs)
    assert c.logs == b.logs and c.point.ts == b.point.ts


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
        got = oracles.eval_at(tr.value, {"b1": be1, "b2": be2})
        assert abs(got - brute) < 1e-10


def ray(pt, j, factor, K):
    """The depth-2 series at pt continued radially, t_j -> factor * t_j;
    the base series comes through polylog, where a test may patch it."""
    t = pt.ts[j - 1]
    return continue_debye(polylog.debye_lambda(2, pt, K), [(j, LineArc(t, factor * t))])


@pytest.mark.parametrize("j", [1, 2])
def test_transport_ray_matches_direct_sum(j):
    K = 10
    ts = (0.2, 0.35)
    tr = ray(SimplicialPoint(ts), j, 1.5, K)
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
    assert abs(oracles.eval_at(tr.value, {"b1": be1, "b2": be2}) - brute) < 1e-10


@pytest.mark.parametrize("ts, route", [((0.23 + 0.11j,), "diagonal"),
                                       ((0.25 + 0.1j, 0.5 - 0.2j), "diagonal"),
                                       ((0.25 + 0.1j, 0.5 - 0.2j), "axes")])
def test_transport_leaves_base_untouched(ctx, monkeypatch, ts, route):
    bases = []

    def kept(*args, **kwargs):
        s = debye_lambda(*args, **kwargs)
        bases.append((s, _snapshot(s)))
        return s

    monkeypatch.setattr(polylog, "debye_lambda", kept)
    shift = SpiralShift((-1,) * len(ts), SimplicialPoint(ts), ctx)
    tr = transport_debye(shift, 4, route=route)
    cont = ray(SimplicialPoint((0.2, 0.35)), 1, 1.5, 4)
    assert len(bases) == 2
    for s, snap in bases:
        _assert_unchanged(s, snap)
    assert tr.branch_tag.startswith("transported[") and "continued" in cont.branch_tag


def test_route_homotopy_agreement(ctx):
    K = 6
    sh = SpiralShift((-1, -1), SimplicialPoint((0.25 + 0.1j, 0.5 - 0.2j)), ctx)
    da = coeffs2(transport_debye(sh, K, route="diagonal").value, K)
    db = coeffs2(transport_debye(sh, K, route="axes").value, K)
    scale = np.max(np.abs(da))
    assert np.max(np.abs(da - db)) < 1e-10 * scale


# Transported coefficients recorded before the panel pass moved onto
# stacked-rule matmuls and Toeplitz convolution; summation order differs
# since, so the pin is 1e-10 * max(1, |c|), not bit equality.  Rows: name,
# base point, spiral exponents, K, route, then a ray (j, factor) or None,
# coefficients (row-major; for the K = 8 case rows 0 and 7 only).  A ray
# continues the transported series along t_j -> factor * t_j, a line leg
# whose ratio arcs at depth 2 no spiral row reaches.
TRANSPORT_GOLDEN = [
    ("depth-1 spiral", (0.6 + 0.3j,), (1,), 4, "diagonal", None, [
        (0.002022366083395455+0.003914431985698741j), (0.01727255724852994+0.02294105142555647j),
        (0.06903987940664313+0.06621779025391651j), (0.17842825146771957+0.12561206183939752j),
    ]),
    ("diagonal K=4", (0.45 + 0.35j, -0.3 + 0.6j), (1, 1), 4, "diagonal", None, [
        (-5.6449305371741865e-06-5.966405647957109e-06j), (-4.9342516803274616e-05-2.032447668931514e-05j),
        (-0.00017397737775093347+4.735190066162964e-06j), (-0.0003438237113800313+0.00016185928735454325j),
        (-4.7714276649291065e-05-3.50100249143781e-05j), (-0.00037741544096800417-8.189583690032531e-05j),
        (-0.0012402263201535257+0.00025224051637440237j), (-0.0022784803249412677+0.0015893457872377947j),
        (-0.00019523521056302728-9.703065941557565e-05j), (-0.0014280643747538735-6.457326095254956e-05j),
        (-0.004398739583919786+0.001681730860830677j), (-0.007472224570691632+0.007228360414037904j),
        (-0.0005250667502235129-0.00016211321548947888j), (-0.003598583808665401+0.0004086359193486988j),
        (-0.010417659879257801+0.005952980686638409j), (-0.016198935706807527+0.021166619730450587j),
    ]),
    ("axes K=4", (0.45 + 0.35j, -0.3 + 0.6j), (1, 1), 4, "axes", None, [
        (-5.64493064891293e-06-5.96640579581453e-06j), (-4.934251712970794e-05-2.0324476604237363e-05j),
        (-0.00017397737790883494+4.735190324390431e-06j), (-0.00034382371142160917+0.00016185928756748402j),
        (-4.7714276645460796e-05-3.50100249151275e-05j), (-0.0003774154409699193-8.189583691448066e-05j),
        (-0.0012402263201782837+0.00025224051637184886j), (-0.002278480324967691+0.0015893457872556138j),
        (-0.00019523521056036275-9.703065941740752e-05j), (-0.0014280643747671962-6.457326096298566e-05j),
        (-0.00439873958395931+0.0016817308608393366j), (-0.007472224570710506+0.007228360414082313j),
        (-0.0005250667502219586-0.0001621132154920324j), (-0.0035985838086841637+0.00040863591934287014j),
        (-0.010417659879292662+0.005952980686666498j), (-0.016198935706875583+0.021166619730497827j),
    ]),
    ("axes K=8", (-0.55 + 0.4j, 0.35 - 0.5j), (1, 1), 8, "axes", None, [
        (-8.452480259955875e-06+2.924502390587967e-06j), (-5.1855691622471056e-05+1.4800538812593644e-05j),
        (-0.00015960142805204747+3.631021262156045e-05j), (-0.0003289628956991558+5.65598116231969e-05j),
        (-0.0005115164263521654+6.0600714468249384e-05j), (-0.0006410330208453212+4.293976610679137e-05j),
        (-0.0006756682463760245+1.1777172990804982e-05j), (-0.0006174339952063467-1.860347656031298e-05j),
        (0.0036125133357849393+0.0011240974943641513j), (0.022227718459048473+0.008696600387706033j),
        (0.06890173589907334+0.03293784707542602j), (0.14367804046173716+0.08243139084057383j),
        (0.22710546102980078+0.15471119584031873j), (0.290745312928141+0.2339353297456852j),
        (0.3145689622931981+0.29870293039519125j), (0.2962991691424578+0.33316615374446146j),
    ]),
    ("depth-1 ray", (0.6 + 0.3j,), (1,), 4, "axes", (1, 20.0), [
        (0.038100105410709253+0.08125385762070093j), (0.22068069877539703+0.23554941809921756j),
        (0.5280666051800125+0.3199759785215678j), (0.8081205093110629+0.27203287733009596j),
    ]),
    ("axes then ray j=1", (0.45 + 0.35j, -0.3 + 0.6j), (1, 1), 4, "axes", (1, 20.0), [
        (-0.00011078262362148563-0.00012263778252407975j), (-0.0009834891670838551-0.00043118988141956235j),
        (-0.0035026819717843306+1.891884123064961e-05j), (-0.006988095169113083+0.003111319021195005j),
        (-0.0006131261122636931-0.00035680616208193613j), (-0.004612317565773481-0.0005094900666443103j),
        (-0.01455797124010516+0.004528809611066463j), (-0.025517731944182415+0.021793885928647803j),
        (-0.0015562502744079151-0.00040506912550358255j), (-0.010468840213589199+0.0016462612532266421j),
        (-0.0297401374048481+0.018644355704211055j), (-0.0449481277227093+0.06367840652729723j),
        (-0.0025954255599555083-6.660132034707201e-05j), (-0.01602896452411885+0.006374295256270944j),
        (-0.04119838885912697+0.040326030305246265j), (-0.051454594753712356+0.11860139611603968j),
    ]),
    ("axes then ray j=2", (0.45 + 0.35j, -0.3 + 0.6j), (1, 1), 4, "axes", (2, 20.0), [
        (-0.00010481522863506706-0.00011625712982358697j), (-0.0006180734326199377-6.20578919645869e-05j),
        (-0.0010044244813084803+0.0007183721689844747j), (-0.00040240281914556155+0.0015870534905568087j),
        (-0.0008943255325039934-0.000689377723632302j), (-0.004493765619089813+0.00033018241159605367j),
        (-0.006370074678099493+0.006369400979821383j), (-0.0011421106091191232+0.01195595496593655j),
        (-0.00368554665427676-0.0019401811708386965j), (-0.01624884713965261+0.003940425107363056j),
        (-0.019831444123992688+0.027163440426161846j), (0.00212094056419976+0.04506697398605899j),
        (-0.009970084669456465-0.003330656234638098j), (-0.03925010698987773+0.016225204447737028j),
        (-0.0402543744256646+0.07600564237334198j), (0.020443432649499375+0.11434616359267484j),
    ]),
]


@pytest.mark.parametrize("case", TRANSPORT_GOLDEN, ids=[c[0] for c in TRANSPORT_GOLDEN])
def test_transport_golden_values(ctx, case):
    _, ts, m, K, route, ray, want = case
    tr = transport_debye(SpiralShift(m, SimplicialPoint(ts), ctx), K, route=route)
    if ray is not None:
        j, factor = ray
        arc = LineArc(tr.point.ts[j - 1], factor * tr.point.ts[j - 1])
        tr = continue_debye(tr, [arc] if len(ts) == 1 else [(j, arc)])
    got = tr.coeffs if K < 8 else tr.coeffs[[0, K - 1]]
    got = got.ravel()
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), k


# seed-0 bench inputs at K = 8, on the worst coefficient a panel rule scaled
# by a padded table let through: (ts, route, ray on (j, factor) or None)
TOL_CASES = [
    ((-0.7223578398472613 - 0.4390595330357425j, -0.23869185815633476 - 0.7049619448640156j),
     "axes", None),
    ((0.19983086852201223 - 0.4524181417031072j, -0.18402144054551067 - 0.6257346300424599j),
     "diagonal", (2, 32.7908281121951)),
]


@pytest.mark.parametrize("ts, route, ray_leg", TOL_CASES, ids=["axes", "diagonal-ray"])
def test_transport_meets_default_tol(ctx, ts, route, ray_leg):
    K = 8
    out = transport_debye(SpiralShift((1, 1), SimplicialPoint(ts), ctx), K, route=route)
    logs = [cmath.log(t) + 2j * math.pi * TAU for t in ts]
    if ray_leg is not None:
        j, factor = ray_leg
        t = out.point.ts[j - 1]
        out = continue_debye(out, [(j, LineArc(t, factor * t))])
        logs[j - 1] += math.log(factor)
    want = oracles.debye_coefficients([cmath.exp(l) for l in logs], logs, K)
    err = np.abs(out.coeffs - want)
    assert np.all(err <= polylog.DEFAULT_TOL * np.maximum(1.0, np.abs(want))), err.max()


def test_one_pass_per_leg(ctx, monkeypatch):
    """Every leg is one adaptive pass that evaluates each distinct column
    once per panel and order: arc1, arc2 and the one ratio arc on a diagonal
    leg, the moving arc and the ratio arc on an axis leg (spiral or line),
    the one arc at depth 1."""
    sizes = []
    call = quadrature.BranchedForm.__call__

    def counted(self, us):
        sizes.append(len(us))
        return call(self, us)

    monkeypatch.setattr(quadrature.BranchedForm, "__call__", counted)

    def calls_per_pass(leg):
        # the panel passes alternate between orders 16 and 20, so a run of
        # calls on one node count is one pass
        sizes.clear()
        leg()
        assert set(sizes) == {16, 20}
        return {len(list(run)) for _, run in itertools.groupby(sizes)}

    pt2 = SimplicialPoint((0.25 + 0.1j, 0.5 - 0.2j))
    b2 = debye_lambda(2, pt2, 4)
    b1 = debye_lambda(1, SimplicialPoint((0.3 + 0.2j,)), 6)
    assert calls_per_pass(lambda: transport_debye(SpiralShift((1, 1), pt2, ctx), 4)) == {3}
    axes = SpiralShift((1, 1), pt2, ctx)
    assert calls_per_pass(lambda: transport_debye(axes, 4, route="axes")) == {2}
    for j, t in zip((1, 2), pt2.ts):
        assert calls_per_pass(lambda: continue_debye(b2, [(j, LineArc(t, 1.5 * t))])) == {2}
    assert calls_per_pass(lambda: continue_debye(b1, [LineArc(0.3 + 0.2j, 0.6 + 0.4j)])) == {1}


def test_spiral_ratio_arcs_are_pointwise_quotients(ctx, monkeypatch):
    """Each spiral leg samples one ratio arc, a log-linear arc that is the
    quotient t1/t2 of the coordinate arcs (a fixed coordinate is its
    constant point): point, velocity and branch, at the panel nodes.  The
    second block of its forms is the form of the explicit inverse quotient
    t2/t1."""
    legs = []
    advance, form, ratio_forms = polylog._advance, polylog._form, polylog._ratio_forms

    def spy_advance(series, arcs, tag):
        legs.append((series.logs, [a is not None for a in arcs], [], []))
        return advance(series, arcs, tag)

    def spy_form(arc, K):
        legs[-1][2].append(arc)
        return form(arc, K)

    def spy_ratio_forms(arc, K):
        legs[-1][3].append(arc)
        return ratio_forms(arc, K)

    monkeypatch.setattr(polylog, "_advance", spy_advance)
    monkeypatch.setattr(polylog, "_form", spy_form)
    monkeypatch.setattr(polylog, "_ratio_forms", spy_ratio_forms)
    x, _ = quadrature._panel_rule(quadrature.PANEL_ORDER + 4)
    us = (x + 1.0) / 2.0
    K = 4
    shift = SpiralShift((1, 1), SimplicialPoint((0.25 + 0.1j, 0.5 - 0.2j)), ctx)
    for route, count in (("diagonal", 1), ("axes", 2)):
        legs.clear()
        transport_debye(shift, K, route=route)
        assert len(legs) == count
        for logs, moving, arcs, ratios in legs:
            (rho,) = ratios
            it = iter(arcs)
            coords = [next(it) if m else SpiralArc(l, 0.0) for m, l in zip(moving, logs)]
            (pa, va, la), (pb, vb, lb) = ((c.point(us), c.velocity(us), c.log_point(us)) for c in coords)
            # each expected value next to the size of its terms, the scale of
            # its own rounding
            for got, want, scale in (
                (rho.point(us), pa / pb, np.abs(pa / pb)),
                (rho.velocity(us), (va * pb - pa * vb) / pb**2,
                 (np.abs(va * pb) + np.abs(pa * vb)) / np.abs(pb) ** 2),
                (rho.log_point(us), la - lb, np.abs(la) + np.abs(lb)),
            ):
                assert np.all(np.abs(got - want) <= 1e-15 * scale), route
            a, b = coords
            inverse = form(SpiralArc(b.log_t - a.log_t, b.dlog - a.dlog), K)(us)
            got = ratio_forms(rho, K)(us)[:, 1]
            assert np.all(np.abs(got - inverse) <= 1e-14 * np.abs(inverse)), route


def test_spiral_continuation_is_the_axes_route(ctx):
    """continue_debye along the two spirals, one coordinate at a time, is
    transport_debye's axes route, to the last bit."""
    K = 4
    pt = SimplicialPoint((0.25 + 0.1j, 0.5 - 0.2j))
    base = debye_lambda(2, pt, K)
    log_q = 2j * math.pi * TAU
    l1, l2 = base.logs
    cont = continue_debye(base, [(1, SpiralArc(l1, log_q)), (2, SpiralArc(l2, log_q))])
    tr = transport_debye(SpiralShift((1, 1), pt, ctx), K, route="axes")
    assert np.array_equal(cont.coeffs, tr.coeffs)
    assert all(np.array_equal(a, b) for a, b in zip(cont.channels, tr.channels))
    assert cont.logs == tr.logs and cont.point.ts == tr.point.ts


def test_leg_crossing_between_clearance_samples_refused():
    # the second leg passes through t = 1 at u = 1/64, between two samples
    L = 0.6 + 1e-6j
    z0 = 1 - L / 64
    a = continue_debye(debye_lambda(1, SimplicialPoint((0.5,)), 4), [LineArc(0.5, z0)])
    with pytest.raises(PathTooClose):
        continue_debye(a, [LineArc(z0, z0 + L)])


@pytest.mark.parametrize("end", [-0.5, -0.5 + 1e-9j])
def test_line_leg_through_zero_refused_up_front(monkeypatch, end):
    """A line leg through 0, or 1e-9 from it, where log t and the form are
    singular, is refused by the clearance check before any panel pass."""

    def integrate(*args):
        raise AssertionError("the leg reached the integrator")

    monkeypatch.setattr(polylog, "iterated_integral", integrate)
    with pytest.raises(PathTooClose, match="singular point 0"):
        continue_debye(debye_lambda(1, SimplicialPoint((0.5,)), 4), [LineArc(0.5, end)])


def test_transport_refuses_extended_context():
    shift = SpiralShift((1,), SimplicialPoint((0.3 + 0.1j,)), LatticeContext(TAU, 30))
    with pytest.raises(UnsupportedPrecision, match="30 digits"):
        transport_debye(shift, 4)


def test_debye_lambda_refuses_extended_environment(monkeypatch):
    monkeypatch.setenv("ELLIP_PRECISION", "extended")
    with pytest.raises(UnsupportedPrecision, match="30 digits"):
        debye_lambda(1, SimplicialPoint((0.3,)), 4)


def _through_one(kind):
    """An arc of each kind the transport checks, through 1 at u = 1/64."""
    L = 0.6 + 1e-6j
    if kind == "line":
        return LineArc(1 - L / 64, 1 + 63 * L / 64, start_log=0.0)
    return SpiralArc(-2j * math.pi * TAU / 64, 2j * math.pi * TAU)


@pytest.mark.parametrize("kind", ["line", "spiral"])
def test_clearance_finds_closest_approach(kind):
    arc = _through_one(kind)
    assert abs(arc.point(1 / 64) - 1) < 1e-12
    with pytest.raises(PathTooClose):
        check_clearance([arc], 1.0, polylog.CLEARANCE)


@pytest.mark.parametrize("j", [1, 2])
def test_line_leg_ratio_through_one_refused(monkeypatch, j):
    """A depth-2 line leg moving t_j whose t1/t2 passes through 1 at u =
    1/64, between two clearance samples, is refused before any panel pass:
    t_j/t for j = 1, its inverse for j = 2."""

    def integrate(*args):
        raise AssertionError("the leg reached the integrator")

    t, L = 0.4 + 0.2j, 0.3 + 0.1j
    z0 = t - L / 64
    ts = (z0, t) if j == 1 else (t, z0)
    base = debye_lambda(2, SimplicialPoint(ts), 4)
    leg = LineArc(z0, z0 + L)
    assert abs(leg.point(1 / 64) / t - 1) < 1e-12
    monkeypatch.setattr(polylog, "iterated_integral", integrate)
    with pytest.raises(PathTooClose, match="singular point 1"):
        continue_debye(base, [(j, leg)])


def test_spiral_point_on_orbit_rejected(ctx):
    t_bad = cmath.exp(2j * math.pi * 0.6 * TAU)
    with pytest.raises(Inadmissible):
        SpiralShift((1,), SimplicialPoint((t_bad,)), ctx).validate()
    t1 = 0.3 + 0.1j
    t2 = t1 * cmath.exp(-2j * math.pi * 1.3 * TAU)
    with pytest.raises(Inadmissible):
        SpiralShift((1, 0), SimplicialPoint((t1, t2)), ctx).validate()


def test_spiral_zero_coordinate_rejected(ctx):
    for ts in [(0.0,), (0.0, 0.3), (0.3, 0.0)]:
        with pytest.raises(OutOfRegion, match="zero coordinate"):
            SpiralShift((1,) * len(ts), SimplicialPoint(ts), ctx).validate()


# the last point lies on a real q-power: the route is checked before the shift
@pytest.mark.parametrize("ts", [(0.23 + 0.11j,), (0.25 + 0.1j, 0.5 - 0.2j),
                                (cmath.exp(2j * math.pi * 0.6 * TAU),)])
def test_transport_rejects_unknown_route(ctx, ts):
    shift = SpiralShift((-1,) * len(ts), SimplicialPoint(ts), ctx)
    with pytest.raises(ValueError, match="unknown route"):
        transport_debye(shift, 4, route="no-such-route")


# ------------------------------------------------------- asymptotic predictions


def test_region_argument_checks():
    C = constants_series(4)
    with pytest.raises(ValueError):
        asymptotic_eval(2, set(), SimplicialPoint((2.0, 3.0)), 4, constants=C)
    with pytest.raises(ValueError):
        asymptotic_eval(2, {3}, SimplicialPoint((2.0, 3.0)), 4, constants=C)
    with pytest.raises(ValueError):
        asymptotic_eval(3, {1}, SimplicialPoint((2.0, 3.0, 4.0)), 4, constants=C)
    with pytest.raises(ValueError, match="depth mismatch"):
        asymptotic_eval(1, {1}, SimplicialPoint((20.0, 3.0)), 4, constants=C)
    with pytest.raises(ValueError, match="depth mismatch"):
        asymptotic_eval(2, {1}, SimplicialPoint((20.0,)), 4, constants=C)
    with pytest.raises(TypeError):
        asymptotic_eval(2, {1, 2}, SimplicialPoint((20.0, 30.0)), 4)
    for K in (0, -1, -2):
        with pytest.raises(ValueError, match=f"order K = {K} must be at least 1"):
            asymptotic_eval(2, {1}, SimplicialPoint((20.0, 0.3)), K, constants=C)
    short = MultiSeries(("b",), {(-1,): -1.0 + 0j, (0,): 1j * math.pi}, (1,), (-1,))
    with pytest.raises(MissingConstants):
        asymptotic_eval(2, {1, 2}, SimplicialPoint((20.0, 30.0)), 4, constants=short)


@pytest.mark.parametrize("ts, J", [((0.0,), {1}), ((0.0, 20.0), {1}), ((20.0, 0.0), {2}),
                                   ((0.0, 0.0), {1, 2})])
def test_zero_coordinate_in_J_refused(ts, J):
    """A coordinate sent to infinity has a log in the leading monomials: at 0
    the prediction is refused, not read with log 0 as 0."""
    with pytest.raises(OutOfRegion, match="coordinate in J is 0"):
        asymptotic_eval(len(ts), J, SimplicialPoint(ts), 4, constants=constants_series(4))


def test_zero_coordinate_outside_J_predicts_zero():
    """t2 = 0 outside J: the series is 0 there, and so is the prediction."""
    pred = asymptotic_eval(2, {1}, SimplicialPoint((20.0, 0.0)), 4, constants=constants_series(4))
    assert not any(pred.terms.values())


# Recorded predictions of asymptotic_eval, K = 3, which a change of its
# series arithmetic must reproduce: (case, r, J, ts, (min_order,
# max_order), the coefficients on [0, K)^r in row-major order, polar
# terms).  Polar terms None: no term below exponent 0, the pole terms cancel
# exactly.  Otherwise the genuine polar terms (|c| > 1e-9); any other term
# below exponent 0 is a rounding residue of the cancellation, at most 1e-15
# of the largest regular coefficient.
GOLDEN_K = 3
GOLDEN = [
    (
        'depth 1', 1, {1},
        ((15.29684374568977+12.88435374475382j),),
        ((-1,), (16,)),
        [
            (-2.995732273553991+2.441592653589793j), (7.532074061102934+2.0970125914877933j),
            (-3.746868131250726-3.0838774825178703j),
        ],
        None,
    ),
    (
        'J = {1}', 2, {1},
        ((15.54024920676661+19.583172740687086j), (-0.2403430846640801+0.17954164323118696j)),
        ((-1, 0), (16, 17)),
        [
            (0.17118278136695286-0.8082694761400385j), (-1.897312117152599-2.101378967735724j),
            (-5.027703846724504+0.2348097358088146j), (-1.578870759172902+0.3683258152063762j),
            (-2.212035757412772+4.867184793810651j), (3.5429170696422454+8.225129355644777j),
            (0.7109436004038194+0.345918314705985j), (2.01426979010321-1.0694233406304008j),
            (0.4417413420906051-2.915724182760325j),
        ],
        None,
    ),
    (
        'J = {2}', 2, {2},
        ((0.18648299048119932+0.234998072888245j), (-20.028590388673344+14.961803602598915j)),
        ((0, -1), (17, 16)),
        [
            (-0.17820206661037363-0.257858231576902j), (-0.25394340013692207+1.0292150334508858j),
            (1.496849645842182-0.9545828583371658j), (-0.8124391409894838-0.6426799601232402j),
            (0.011926339650394358+3.246078521844833j), (3.3930038093944335-3.6940165844263104j),
            (-1.7747977676653317-0.8750133008883942j), (0.7681505054454174+5.576439342432765j),
            (4.143755877801538-6.506355507641764j),
        ],
        None,
    ),
    (
        'J = {1, 2}', 2, {1, 2},
        ((-16.022872310938673+11.96944288207913j), (18.64829904811993+23.499807288824503j)),
        ((-6, -1), (11, 3)),
        [
            (5.197720482890878-3.1047397091716187j), (-15.305327894207508+0.13494058283309585j),
            (18.500821334806474+6.42382247174346j), (-10.194914667753896-15.082305886425265j),
            (5.92577516401656+41.4472467602974j), (3.860363488466948-52.46741883171317j),
            (-16.112477921695593+12.06193362618376j), (35.3150807968248-14.620098858093641j),
            (-43.68675490817489+20.845637342156245j),
        ],
        {},
    ),
    (
        'ratio outside the unit disk', 2, {1},
        ((15.54024920676661+19.583172740687086j), (-2.403430846640801+1.7954164323118698j)),
        ((-6, -1), (11, 4)),
        [
            (1.4651097691708035-3.702022035941783j), (-11.225869468774638-4.009416168914301j),
            (-6.913090941458942+14.922017037680895j), (-7.803025877588825-0.007877380263172418j),
            (0.40102503773869547+21.711614259026135j), (25.502435894023723+1.9711573019632265j),
            (2.3736544967757123+2.4983948810161585j), (4.644561060739655-6.2860490770643835j),
            (-8.431733009802452-0.8141079914938523j),
        ],
        {},
    ),
    (
        'lower half-plane sheet', 2, {1, 2},
        ((310659640.7289723-468179283.2755821j), (399694534.79131746+282365815.2033294j)),
        ((-6, -1), (11, 3)),
        [
            (175.2208862454215-81.54020721664675j), (-2742.9838643378584+734.2433029456516j),
            (20694.599796083894-3844.2884960376796j), (-1416.2572720218698+227.40247998948942j),
            (21095.191044965854-1794.024032294581j), (-168244.16104980162+7031.47713207348j),
            (6762.935574504907-1338.8491456378097j), (-109199.38300699617+15955.405341922753j),
            (914793.733296008-93565.81188693075j),
        ],
        {
            (-4, 3): (-1.7208456881689926e-15+6.283185307179586j),
            (-3, 2): (1.7208456881689926e-15-6.283185307179586j),
            (-2, 1): (-1.7208456881689926e-15+6.283185307179586j),
            (-1, 0): (-0-6.283185307179586j),
        },
    ),
]


@pytest.mark.parametrize("case", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_asymptotic_golden_values(case):
    _, r, J, ts, window, coeffs, polar = case
    pred = asymptotic_eval(r, J, SimplicialPoint(ts), GOLDEN_K, constants=constants_series(GOLDEN_K))
    assert (pred.min_order, pred.max_order) == window
    cells = list(itertools.product(range(GOLDEN_K), repeat=r))
    for e, want in zip(cells, coeffs):
        assert abs(pred.coeff(e) - want) <= 1e-12 * max(1.0, abs(want)), e
    below = {e: c for e, c in pred.terms.items() if min(e) < 0}
    if polar is None:
        assert not below
        return
    scale = max(1.0, max(abs(c) for c in coeffs))
    for e, c in below.items():
        want = polar.get(e, 0)
        bound = 1e-12 * max(1.0, abs(want)) if e in polar else 1e-15 * scale
        assert abs(c - want) <= bound, e
    assert set(polar) <= set(below)


def test_asymptotic_eval_never_reads_terms(monkeypatch):
    """The assembly stays on the arrays: no path of it builds the terms dict."""
    reads, read = [], MultiSeries.terms.fget
    C = constants_series(GOLDEN_K)
    monkeypatch.setattr(MultiSeries, "terms", property(lambda s: reads.append(s) or read(s)))
    for _, r, J, ts, *_ in GOLDEN:
        asymptotic_eval(r, J, SimplicialPoint(ts), GOLDEN_K, constants=C)
    assert not reads


def test_constants_refused_when_misread():
    """asymptotic_eval reads C's regular orders and its simple pole only: a
    deeper pole or a second variable is refused, not ignored."""
    C = constants_series(4)
    pt = SimplicialPoint((20.0, 30.0))
    deep = MultiSeries(("b",), {**C.terms, (-2,): 1.0}, C.max_order, (-2,))
    with pytest.raises(ValueError, match="simple pole"):
        asymptotic_eval(2, {1, 2}, pt, 4, constants=deep)
    two = MultiSeries(("b", "c"), {(e, 0): c for (e,), c in C.terms.items()}, C.max_order * 2, (-1, 0))
    with pytest.raises(ValueError, match="one variable"):
        asymptotic_eval(2, {1, 2}, pt, 4, constants=two)


@pytest.mark.parametrize("r", [1, 2])
def test_boundary_constant_symbols_have_length_2_or_3(r):
    """Every C-slot symbol of the term list at depth <= 2 has length 2 or 3,
    the two lengths asymptotic_eval realizes."""
    want = {1: {(1,): [2]}, 2: {(1,): [2], (2,): [], (1, 2): [2, 3]}}[r]
    for k in range(1, r + 1):
        for J in itertools.combinations(range(1, r + 1), k):
            lengths = [len(s.labels) for t in polylog._asymptotic_terms(r, frozenset(J)) for s in t[3]]
            assert sorted(set(lengths)) == want[J], J


def test_symbolic_term_list_structure():
    from fractions import Fraction

    terms = hopf.assemble_asymptotic(hopf.canonical_symbol(4), {1})
    assert isinstance(terms, list) and len(terms) == 2
    for term in terms:
        assert len(term) == 4
        assert isinstance(term[0], Fraction)


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
    "lab, M, column",
    [((0.7 - 0.2j,), 9, None), ((0.0, -1.3 + 0.4j), 9, None), ((0.5 + 0.1j, -1.3), 9, None),
     ((1.0, 2.0), 4, None), ((0.5 + 0.1j, -1.3), 9, [0, 1]), ((0.0, -1.3 + 0.4j), 9, [0, 1]),
     ((0.0, 0.0), 9, [0, 1]), ((0.0, 0.0), 9, None)],
    ids=["lab0-9", "lab1-9", "lab2-9", "lab3-4", "exp-lab4-9", "exp-lab5-9", "exp-zero-9", "zero-9"],
)
def test_compose_linear_matches_composition_sum(lab, M, column):
    """Random columns, and the column [0, 1] that turns a label into the
    linear series exp() reads: a zero label leaves c_0 alone."""
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
    coeffs[3] = 0
    coeffs = coeffs if column is None else column
    vars = ("b",) if len(lab) == 1 else ("b1", "b2")
    got = polylog._compose_linear(coeffs, lab, vars, M)
    want = _compose_reference(coeffs, lab, M)
    assert got.max_order == (M,) * len(lab) and set(got.terms) == set(want)
    for e, c in want.items():
        assert abs(got.terms[e] - c) <= 1e-14 * max(1.0, abs(c))


def test_compose_linear_three_active_refused():
    with pytest.raises(NotImplementedError):
        polylog._compose_linear([1.0, 2.0], (1.0, 1.0, 1.0), ("b1", "b2", "b3"), 4)


def test_nested_table_matches_brute_force():
    """Every cell against the double sum over (a1, a2) pairs, which shares
    nothing with the partial-sum recurrence of the table and the oracle."""
    t1, t2 = 0.3 * cmath.exp(0.4j), 0.25 * cmath.exp(-1.1j)
    K = 6
    got = polylog._nested_table(t1, t2, K, 1e-15)
    a = np.arange(1, 61, dtype=float)
    pairs = np.multiply.outer(t1**a, t2**a)
    s = np.add.outer(a, a)
    want = np.array([[np.sum(pairs / (a[:, None] ** m1 * s**m2)) for m2 in range(1, K + 1)]
                     for m1 in range(1, K + 1)])
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_nested_table_near_unit_circle():
    """|t1| = 0.99 needs N = 3899 terms of the recurrence."""
    t1, t2 = 0.99, 0.5 * cmath.exp(1j)
    K = 3
    got = polylog._nested_table(t1, t2, K, 1e-15)
    for m1, m2 in itertools.product(range(1, K + 1), repeat=2):
        want = oracles.simplicial_nested((t1, t2), (m1, m2), 1e-15)
        assert abs(got[m1 - 1, m2 - 1] - want) <= 1e-13 * max(1.0, abs(want))


def test_depth2_near_unit_circle_memory_bounded(monkeypatch):
    """|t| = 0.99 needs N = 3899 terms: the nested table must not hold
    N x N arrays (about 120 MB each)."""
    pt = SimplicialPoint((0.99, 0.5 * cmath.exp(1j)))
    monkeypatch.setattr(polylog, "DEFAULT_MARGIN", 0.005)
    tracemalloc.start()
    try:
        s = debye_lambda(2, pt, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    direct = oracles.simplicial_nested(pt.ts, (1, 1), 1e-14)
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
        assert all(min(e) >= 0 for e in pred.terms)
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
