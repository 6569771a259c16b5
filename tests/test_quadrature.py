import cmath

import numpy as np
import pytest

from epolylog import quadrature
from epolylog.errors import PathTooClose, QuadratureDiverged
from epolylog.quadrature import (
    BranchedForm,
    LineArc,
    PathSpec,
    SpiralArc,
    convolve_product,
    iterated_integral,
)


def line(a, b):
    return PathSpec([LineArc(a, b)])


def test_polynomial_integral_exact():
    p = line(0.2 - 0.3j, 1.1 + 0.7j)
    val = iterated_integral(p, [lambda z, v: z**2 * v])
    a, b = 0.2 - 0.3j, 1.1 + 0.7j
    assert abs(val - (b**3 - a**3) / 3) < 1e-13


def test_winding_integral():
    # full loop around the origin picked up by a spiral with real tau
    loop = PathSpec([SpiralArc(1.0, 1, 1.0)])
    val = iterated_integral(loop, [lambda z, v: v / z])
    assert abs(val - 2j * cmath.pi) < 1e-12


def test_spiral_endpoint_and_log():
    tau = 0.1 + 0.9j
    arc = SpiralArc(0.5 + 0.2j, 3, tau)
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
    val = iterated_integral(p, [w1, w2])
    # int_0^b z (z^3/3) dz = b^5/15
    assert abs(val - b**5 / 15) < 1e-13


def test_shuffle_identity():
    p = line(0.1, 1.3 + 0.4j)
    f = lambda z, v: v / (1 + z)
    g = lambda z, v: z * v
    single_f = iterated_integral(p, [f])
    single_g = iterated_integral(p, [g])
    fg = iterated_integral(p, [f, g])
    gf = iterated_integral(p, [g, f])
    assert abs(single_f * single_g - (fg + gf)) < 1e-11


def test_path_composition():
    # holomorphic forms: value independent of the intermediate point
    a, m1, m2, b = 0.0, 0.7 + 0.2j, 0.3 + 0.8j, 1.0 + 1.0j
    f = lambda z, v: z * v
    g = lambda z, v: cmath.exp(z) * v
    v1 = iterated_integral(PathSpec([LineArc(a, m1), LineArc(m1, b)]), [f, g])
    v2 = iterated_integral(PathSpec([LineArc(a, m2), LineArc(m2, b)]), [f, g])
    assert abs(v1 - v2) < 1e-11


def test_reversal_antisymmetry():
    p = line(0.0, 1.0 + 0.5j)
    back = line(1.0 + 0.5j, 0.0)
    f = lambda z, v: z * v
    assert abs(iterated_integral(back, [f]) + iterated_integral(p, [f])) < 1e-12
    g = lambda z, v: z**2 * v
    rev = iterated_integral(back, [f, g])
    swapped = iterated_integral(p, [g, f])
    assert abs(rev - swapped) < 1e-11


def test_all_prefixes_ladder():
    p = line(0.0, 1.0)
    f = lambda z, v: v
    g = lambda z, v: z * v
    ladder = [iterated_integral(p, [f, g][k:]) for k in (2, 1, 0)]
    assert abs(ladder[0] - 1.0) < 1e-15
    assert abs(ladder[1] - 0.5) < 1e-13  # int z dz
    assert abs(ladder[2] - 1.0 / 6.0) < 1e-13  # int dz z dz


def test_branched_form_sees_arc():
    tau = 0.05 + 0.9j
    arc = SpiralArc(1.0, 2, tau)
    p = PathSpec([arc])
    # integrate d(log z) using the arc's own branch data
    w = BranchedForm(lambda a, u: a.velocity(u) / a.point(u))
    val = iterated_integral(p, [w])
    assert abs(val - 2 * 2j * cmath.pi * tau) < 1e-11


def test_branched_form_gets_node_vector_once_per_panel_pass():
    arc = LineArc(0.0, 1.0 + 0.5j)
    calls = []

    def f(a, us):
        calls.append(us)
        return np.stack([a.velocity(us) * a.point(us) ** k for k in range(3)], axis=1)

    vals = iterated_integral(PathSpec([arc]), [BranchedForm(f)])
    b = 1.0 + 0.5j
    assert np.allclose(vals, [b, b**2 / 2, b**3 / 3], rtol=0, atol=1e-13)
    # orders 16 and 20 on the single panel
    assert [np.shape(us) for us in calls] == [(16,), (20,)]


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
    one einsum against 0/1 index-sum tensors (2-D trailing axes)."""
    window = tuple(max(a, b) for a, b in zip(f.shape[1:], g.shape[1:]))
    hits = [
        np.equal.outer(np.add.outer(np.arange(a), np.arange(b)), np.arange(w)).astype(float)
        for a, b, w in zip(f.shape[1:], g.shape[1:], window)
    ]
    return np.einsum("nab,ncd,ack,bdl->nkl", f, g, *hits, optimize=True)


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
    p = PathSpec([LineArc(0.0, 1.0)], singular=[0.5 + 1e-5j], clearance=1e-3)
    with pytest.raises(PathTooClose):
        p.validate()
    ok = PathSpec([LineArc(0.0, 1.0)], singular=[0.5 + 0.2j], clearance=1e-3)
    ok.validate()


def test_divergence_reported(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 6)
    p = line(0.0, 1.0)
    f = lambda z, v: v / (z - (0.5 + 1e-12j))
    with pytest.raises(QuadratureDiverged):
        iterated_integral(p, [f], tol=1e-13)


def test_non_finite_panel_refused():
    p = line(0.0, 1.0)
    nan_half = lambda z, v: (np.nan if z.real > 0.5 else 1.0) * v
    inf_end = lambda z, v: (np.inf if z.real > 0.99 else 1.0) * v
    for form in (nan_half, inf_end):
        with pytest.raises(QuadratureDiverged):
            iterated_integral(p, [form])
    # a non-finite outer level behind a finite inner one
    with pytest.raises(QuadratureDiverged):
        iterated_integral(p, [nan_half, lambda z, v: v])


def test_vector_valued_single_form():
    p = line(0.0, 1.0)
    f = lambda z, v: np.array([v, z * v, z**2 * v])
    vals = iterated_integral(p, [f])
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
    out = iterated_integral(p, [F, G])
    order0 = iterated_integral(p, [f0, g0])
    order1 = iterated_integral(p, [f0, g1]) + iterated_integral(p, [f1, g0])
    assert abs(out[0] - order0) < 1e-12
    assert abs(out[1] - order1) < 1e-12


def test_convolution_outer_product_shapes():
    # disjoint variables: (P,1) x (1,Q) convolves to the full (P,Q) table
    p = line(0.0, 1.0)
    F = lambda z, v: np.array([[v], [z * v]])
    G = lambda z, v: np.array([[v, z * v]])
    out = iterated_integral(p, [F, G])
    assert out.shape == (2, 2)
    assert abs(out[0, 0] - iterated_integral(p, [lambda z, v: v] * 2)) < 1e-12
    assert (
        abs(
            out[1, 1]
            - iterated_integral(p, [lambda z, v: z * v, lambda z, v: z * v])
        )
        < 1e-12
    )
