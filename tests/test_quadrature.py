import cmath
import itertools
import math

import numpy as np
import pytest

from epolylog import quadrature
from epolylog.errors import PathTooClose, QuadratureDiverged
from epolylog.quadrature import (
    BranchedForm,
    LineArc,
    SpiralArc,
    check_clearance,
    convolve_product,
    iterated_integral,
)
from oracles import chain, closest_approach


def line(a, b):
    return [LineArc(a, b)]


def spiral(t, m, tau):
    """The q-power spiral from t to q^m t, q = exp(2 pi i tau)."""
    return SpiralArc(cmath.log(t), m * 2j * cmath.pi * tau)


def test_polynomial_integral_exact():
    p = line(0.2 - 0.3j, 1.1 + 0.7j)
    val = chain(p, [lambda z, v: z**2 * v])
    a, b = 0.2 - 0.3j, 1.1 + 0.7j
    assert abs(val - (b**3 - a**3) / 3) < 1e-13


def test_winding_integral():
    # full loop around the origin picked up by a spiral with real tau
    loop = [spiral(1.0, 1, 1.0)]
    val = chain(loop, [lambda z, v: v / z])
    assert abs(val - 2j * cmath.pi) < 1e-12


def test_spiral_endpoint_and_log():
    tau = 0.1 + 0.9j
    arc = spiral(0.5 + 0.2j, 3, tau)
    q = cmath.exp(2j * cmath.pi * tau)
    assert abs(arc.point(1.0) - (0.5 + 0.2j) * q**3) < 1e-14
    assert abs(arc.log_point(1.0) - (cmath.log(0.5 + 0.2j) + 3 * 2j * cmath.pi * tau)) < 1e-14


def test_line_log_tracking():
    start = 1.0 + 0.0j
    arc = LineArc(start, -1.0 + 0.5j, start_log=0.0)
    l = arc.log_point(1.0)
    assert abs(cmath.exp(l) - (-1.0 + 0.5j)) < 1e-14
    # stays on the branch reached through the upper half plane
    assert 0 < l.imag < cmath.pi


def test_iterated_matches_closed_form():
    b = 0.8 + 0.6j
    p = line(0.0, b)
    w1 = lambda z, v: z * v
    w2 = lambda z, v: z**2 * v
    val = chain(p, [w1, w2])
    # int_0^b z (z^3/3) dz = b^5/15
    assert abs(val - b**5 / 15) < 1e-13


def test_shuffle_identity():
    p = line(0.1, 1.3 + 0.4j)
    f = lambda z, v: v / (1 + z)
    g = lambda z, v: z * v
    single_f = chain(p, [f])
    single_g = chain(p, [g])
    fg = chain(p, [f, g])
    gf = chain(p, [g, f])
    assert abs(single_f * single_g - (fg + gf)) < 1e-11


def test_path_composition():
    # holomorphic forms: value independent of the intermediate point
    a, m1, m2, b = 0.0, 0.7 + 0.2j, 0.3 + 0.8j, 1.0 + 1.0j
    f = lambda z, v: z * v
    g = lambda z, v: cmath.exp(z) * v
    v1 = chain([LineArc(a, m1), LineArc(m1, b)], [f, g])
    v2 = chain([LineArc(a, m2), LineArc(m2, b)], [f, g])
    assert abs(v1 - v2) < 1e-11


def test_reversal_antisymmetry():
    p = line(0.0, 1.0 + 0.5j)
    back = line(1.0 + 0.5j, 0.0)
    f = lambda z, v: z * v
    assert abs(chain(back, [f]) + chain(p, [f])) < 1e-12
    g = lambda z, v: z**2 * v
    rev = chain(back, [f, g])
    swapped = chain(p, [g, f])
    assert abs(rev - swapped) < 1e-11


def test_all_prefixes_ladder():
    p = line(0.0, 1.0)
    f = lambda z, v: v
    g = lambda z, v: z * v
    ladder = [chain(p, [f, g][k:]) for k in (2, 1, 0)]
    assert abs(ladder[0] - 1.0) < 1e-15
    assert abs(ladder[1] - 0.5) < 1e-13  # int z dz
    assert abs(ladder[2] - 1.0 / 6.0) < 1e-13  # int dz z dz


def test_branched_form_sees_arc():
    tau = 0.05 + 0.9j
    arc = spiral(1.0, 2, tau)
    # integrate d(log z) from the form's own arc
    w = BranchedForm(lambda us: arc.velocity(us) / arc.point(us))
    (val,) = iterated_integral(w, [(0j, lambda s, lower: s)], 1e-11)
    assert abs(val - 2 * 2j * cmath.pi * tau) < 1e-11


def test_branched_form_gets_node_vector_once_per_panel_pass():
    arc = LineArc(0.0, 1.0 + 0.5j)
    calls = []

    def f(us):
        calls.append(us)
        return np.stack([arc.velocity(us) * arc.point(us) ** k for k in range(3)], axis=1)

    (vals,) = iterated_integral(BranchedForm(f), [(0j, lambda s, lower: s)], 1e-11)
    # orders 16 and 20 on the starting panel, not bisected
    assert [np.shape(us) for us in calls] == [(16,), (20,)]
    b = 1.0 + 0.5j
    assert np.allclose(vals, [b, b**2 / 2, b**3 / 3], rtol=0, atol=1e-13)


def _brute_convolve(f, g):
    """Every (node, f index, g index) pair summed into the truncated window."""
    f, g = np.asarray(f), np.asarray(g)
    nd = max(f.ndim, g.ndim) - 1
    f = f.reshape(f.shape[:1] + (1,) * (nd - f.ndim + 1) + f.shape[1:])
    g = g.reshape(g.shape[:1] + (1,) * (nd - g.ndim + 1) + g.shape[1:])
    window = tuple(max(a, b) for a, b in zip(f.shape[1:], g.shape[1:]))
    out = np.zeros(f.shape[:1] + window, dtype=complex)
    for n in range(f.shape[0]):
        for i in np.ndindex(*f.shape[1:]):
            for j in np.ndindex(*g.shape[1:]):
                k = tuple(a + b for a, b in zip(i, j))
                if all(x < s for x, s in zip(k, window)):
                    out[(n,) + k] += f[(n,) + i] * g[(n,) + j]
    return out


def _sparse_block(rng, shape, density):
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    keep = rng.random(shape[1:]) < density
    return vals * keep


# f lies along one coefficient axis: (n, p, 1) is a column, (n, 1, q) and a
# 1-D trailing axis against a 2-D g are rows
@pytest.mark.parametrize(
    "fshape, gshape",
    [((4,), (4,)), ((4, 6), (4, 6)), ((3, 5, 1), (3, 5, 5)), ((3, 4, 1), (3, 1, 3)),
     ((3, 4), (3, 4, 4)), ((3, 6, 1), (3, 4, 6))],
)
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_convolve_product_matches_brute_force(fshape, gshape, density):
    rng = np.random.default_rng(len(fshape) * 10 + len(gshape) + int(10 * density))
    f = _sparse_block(rng, fshape, density) if len(fshape) > 1 else rng.normal(size=fshape)
    g = _sparse_block(rng, gshape, 0.5)
    got = convolve_product(f, g)
    want = _brute_convolve(f, g)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    if density == 0.0 and len(fshape) > 1:
        assert not np.any(got)


def _pair_sum_convolve(f, g):
    """Every (f index, g index) pair summed into the truncated window, as
    one slice-add of g shifted by (a, b) per entry f[:, a, b] (2-D trailing
    axes)."""
    P, Q = (max(a, b) for a, b in zip(f.shape[1:], g.shape[1:]))
    out = np.zeros((g.shape[0], P, Q), dtype=complex)
    for a, b in itertools.product(range(f.shape[1]), range(f.shape[2])):
        part = g[:, : P - a, : Q - b]
        out[:, a : a + part.shape[1], b : b + part.shape[2]] += f[:, a, b, None, None] * part
    return out


def _transport_support(rng, kind, shape):
    """A node block with the support of one of the transport's factors: one
    nonzero row (a column laid along b2), one nonzero column (laid along
    b1), or dense (the table the factors multiply)."""
    n, p, q = shape
    cplx = lambda *s: rng.normal(size=s) + 1j * rng.normal(size=s)
    if kind == "dense":
        return cplx(n, p, q)
    out = np.zeros(shape, dtype=complex)
    if kind == "row":
        out[:, 0, :] = cplx(n, q)
    else:
        out[:, :, 0] = cplx(n, p)
    return out


@pytest.mark.parametrize(
    "fshape, gshape",
    [((20, 11, 11), (20, 11, 11)), ((20, 15, 15), (20, 15, 15)), ((1, 15, 15), (1, 15, 15)),
     ((20, 11, 7), (20, 11, 11)), ((20, 6, 15), (20, 15, 15))],
)
@pytest.mark.parametrize("kind", ["row", "column", "rank1"])
def test_convolve_product_matches_brute_force_on_transport_supports(fshape, gshape, kind):
    """One-axis factors as the table integrand passes them, and the rank-1
    prefactor of debye_lambda applied as a row product then a column one."""
    rng = np.random.default_rng(sum(fshape) + sum(gshape) + len(kind))
    if kind == "rank1":
        col = _transport_support(rng, "column", fshape)[:, :, :1]
        row = _transport_support(rng, "row", fshape)[:, :1, :]
        f = col * row
        g = _transport_support(rng, "dense", gshape)
        got = convolve_product(col, convolve_product(row, g))
    else:
        f = _transport_support(rng, kind, fshape)
        g = _transport_support(rng, "dense", gshape)
        got = convolve_product(f[:, :, :1] if kind == "column" else f[:, :1, :], g)
    want = _pair_sum_convolve(f, g)
    bound = 1e-14 * np.max(np.abs(want)) * fshape[-1]
    assert got.shape == want.shape == gshape
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("fshape", [(3, 4, 4), (3, 2, 5), (1, 3, 1, 3)])
def test_convolve_product_refuses_two_axis_factor(fshape):
    f = np.ones(fshape, dtype=complex)
    g = np.ones(fshape[:1] + (5,) * (len(fshape) - 1), dtype=complex)
    with pytest.raises(ValueError, match="more than one coefficient axis"):
        convolve_product(f, g)


def test_clearance_validation():
    with pytest.raises(PathTooClose):
        check_clearance([LineArc(0.0, 1.0)], 0.5 + 1e-5j, 1e-3)
    check_clearance([LineArc(0.0, 1.0)], 0.5 + 0.2j, 1e-3)


def _random_arc(rng, kind, s):
    """A line or spiral arc near s in {0, 1}: its closest approach is near a
    log-uniform distance in [1e-6, 1e-1], or nearer where a line's tilt or
    end takes it there.  A spiral near 0 has its modulus there."""
    d = 10 ** rng.uniform(-6, -1)
    if kind == "line":
        theta = rng.uniform(0, 2 * np.pi)
        p = s + d * cmath.exp(1j * theta)
        e = cmath.exp(1j * (theta + np.pi / 2 + rng.normal(0, 0.3)))
        L, a = rng.uniform(0.1, 1.5), rng.uniform(-0.2, 1.2)
        return LineArc(p - a * L * e, p + (1 - a) * L * e)
    dlog = rng.normal(0, 0.5) + 1j * rng.choice([-1, 1]) * rng.uniform(1, 15)
    if s == 0:
        return SpiralArc(math.log(d) + 1j * rng.uniform(-np.pi, np.pi), dlog)
    off = d * 1j * dlog / abs(dlog) * rng.choice([-1, 1]) * cmath.exp(1j * rng.normal(0, 0.3))
    return SpiralArc(off - rng.uniform(-0.1, 1.1) * dlog, dlog)


def _random_arcs(kind):
    rng = np.random.default_rng(len(kind))
    return [(_random_arc(rng, kind, s), s) for s in (0.0, 1.0) * 100]


def _closed_form_distance(arc, s):
    us = [0.0, 1.0] + [min(max(u.real, 0.0), 1.0) for u in arc.singular_params(s)]
    return min(abs(arc.point(u) - s) for u in us)


def _refused(arc, s, clearance):
    try:
        check_clearance([arc], s, clearance)
    except PathTooClose:
        return True
    return False


@pytest.mark.parametrize("kind", ["line", "spiral"])
def test_closed_form_clearance_matches_sampled_search(kind):
    """On 200 random arcs near 0 and 1, check_clearance refuses at 1e-3
    exactly where the sampled search does, and below 1e-2 the closed-form
    distance agrees with the sampled one within 1 %."""
    near = 0
    for arc, s in _random_arcs(kind):
        sampled = closest_approach(arc, s, 1e-3)
        assert _refused(arc, s, 1e-3) == (sampled < 1e-3)
        if sampled < 1e-2:
            near += 1
            assert abs(_closed_form_distance(arc, s) - sampled) <= 0.01 * sampled
    assert near >= 100


@pytest.mark.parametrize("kind", ["line", "spiral"])
def test_singular_params_meet_the_point(kind):
    for arc, s in _random_arcs(kind):
        for u in arc.singular_params(s):
            assert abs(arc.point(u) - s) <= 1e-12 * max(1.0, abs(s))


def _two_winding_spiral():
    """Two windings, dlog = 0.8 + 4*pi*i, from modulus e^-0.5: the arc meets
    1 at the complex parameters u_0 ~ 1/8, where its point at Re u_0 is
    e^-0.4, and u_1 ~ 5/8, where it passes 2e-4 from 1 across its path."""
    dlog = 0.8 + 4j * math.pi
    return SpiralArc(2j * math.pi - 0.625 * dlog + 2e-4j * dlog / abs(dlog), dlog)


def test_two_winding_spiral_lists_both_crossings():
    arc = _two_winding_spiral()
    us = arc.singular_params(1.0)
    windings = np.round((arc.log_point(us) / (2j * math.pi)).real)
    assert {0.0, 1.0} <= set(windings)
    for k in (0, 1):
        u = us[windings == k][0]
        assert abs(arc.point(u) - 1.0) <= 1e-12
        assert abs(u - (1 + 4 * k) / 8) < 0.05


def test_two_winding_spiral_refused_at_second_crossing():
    arc = _two_winding_spiral()
    with pytest.raises(PathTooClose, match="within 2.00e-04"):
        check_clearance([arc], 1.0, 1e-3)
    # its first half holds only the k = 0 crossing, e^-0.4 from 1 at its closest
    check_clearance([SpiralArc(arc.log_t, arc.dlog / 2)], 1.0, 0.3)


def test_still_spiral_clearance():
    with pytest.raises(PathTooClose):
        check_clearance([SpiralArc(cmath.log(1 + 5e-4j), 0.0)], 1.0, 1e-3)
    check_clearance([SpiralArc(cmath.log(1 + 2e-3), 0.0)], 1.0, 1e-3)


def test_line_end_clearance_is_exact():
    """A segment whose closest point to 1 is its end z1 reads |z1 - 1|."""
    z1 = 1 - 2.0**-11
    arc = LineArc(0.5, z1)
    check_clearance([arc], 1.0, abs(z1 - 1))
    with pytest.raises(PathTooClose):
        check_clearance([arc], 1.0, np.nextafter(abs(z1 - 1), 1.0))


def test_divergence_reported(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 6)
    p = line(0.0, 1.0)
    f = lambda z, v: v / (z - (0.5 + 1e-12j))
    with pytest.raises(QuadratureDiverged):
        chain(p, [f], tol=1e-13)


def test_non_finite_panel_refused():
    p = line(0.0, 1.0)
    nan_half = lambda z, v: (np.nan if z.real > 0.5 else 1.0) * v
    inf_end = lambda z, v: (np.inf if z.real > 0.99 else 1.0) * v
    for form in (nan_half, inf_end):
        with pytest.raises(QuadratureDiverged):
            chain(p, [form])
    # a non-finite outer level behind a finite inner one
    with pytest.raises(QuadratureDiverged):
        chain(p, [nan_half, lambda z, v: v])


def test_vector_valued_single_form():
    p = line(0.0, 1.0)
    f = lambda z, v: np.array([v, z * v, z**2 * v])
    vals = chain(p, [f])
    assert np.allclose(vals, [1.0, 0.5, 1.0 / 3.0])


def test_convolution_product_iterated():
    # coefficient rows stand for c0 + c1*B; check the B-expansion of the
    # iterated integral against scalar runs of each coefficient combination
    p = line(0.0, 1.0)
    f0 = lambda z, v: v
    f1 = lambda z, v: z * v
    g0 = lambda z, v: 2.0 * v
    g1 = lambda z, v: z**2 * v
    F = lambda z, v: np.array([f0(z, v), f1(z, v)])
    G = lambda z, v: np.array([g0(z, v), g1(z, v)])
    out = chain(p, [F, G])
    order0 = chain(p, [f0, g0])
    order1 = chain(p, [f0, g1]) + chain(p, [f1, g0])
    assert abs(out[0] - order0) < 1e-12
    assert abs(out[1] - order1) < 1e-12


def test_convolution_outer_product_shapes():
    # disjoint variables: (P,1) x (1,Q) convolves to the full (P,Q) table
    p = line(0.0, 1.0)
    F = lambda z, v: np.array([[v], [z * v]])
    G = lambda z, v: np.array([[v, z * v]])
    out = chain(p, [F, G])
    assert out.shape == (2, 2)
    assert abs(out[0, 0] - chain(p, [lambda z, v: v] * 2)) < 1e-12
    assert (
        abs(
            out[1, 1]
            - chain(p, [lambda z, v: z * v, lambda z, v: z * v])
        )
        < 1e-12
    )
