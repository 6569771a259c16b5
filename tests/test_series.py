import cmath
import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epolylog.errors import PoleOverflow, TruncationTooSmall
import epolylog
from epolylog.series import INF, MultiSeries

VARS = ("a", "b")


def S(terms, max_order=8, min_order=0):
    return MultiSeries(VARS, terms, max_order, min_order)


def close(x, y, tol=1e-12):
    return abs(x - y) <= tol


# --------------------------------------------------------------- construction


def test_above_window_dropped_silently():
    s = S({(9, 0): 1.0, (1, 1): 2.0}, max_order=8)
    assert (9, 0) not in s.terms
    assert s.coeff((1, 1)) == 2.0


def test_below_window_raises():
    with pytest.raises(PoleOverflow):
        S({(-1, 0): 1.0}, max_order=8, min_order=0)


def test_coeff_refuses_exponent_arity_mismatch():
    s = MultiSeries(VARS, {(1, 0): 2.0}, 4)
    for e in [(1,), (1, 0, 7)]:
        with pytest.raises(ValueError, match="arity"):
            s.coeff(e)
    assert s.coeff((1, 0)) == 2.0


def test_coeff_beyond_window_raises():
    s = S({(1, 0): 1.0}, max_order=4)
    with pytest.raises(TruncationTooSmall):
        s.coeff((5, 0))
    assert s.coeff((2, 0)) == 0


def test_zero_coefficients_pruned():
    s = S({(1, 0): 0.0, (0, 1): 0j})
    assert s.is_zero() and not s.terms


def test_terms_view_types():
    """terms is a read-only view of the nonzero coefficients: plain-int
    exponent tuples and Python complex values, exact zeros left out."""
    s = MultiSeries(VARS, {(2, 0): 1.5, (0, 1): -2j, (1, 1): 0.0}, 4)
    terms = s.terms
    assert dict(terms) == {(2, 0): 1.5, (0, 1): -2j}
    for e, c in terms.items():
        assert type(c) is complex
        assert all(type(x) is int for x in e)
    with pytest.raises(TypeError):
        terms[(3, 0)] = 1.0
    assert (3, 0) not in s.terms


# -------------------------------------------------------------------- windows


def test_add_window_is_componentwise_min():
    x = MultiSeries(VARS, {(1, 0): 1, (4, 0): 2}, (5, 7))
    y = MultiSeries(VARS, {(0, 1): 1, (0, 8): 3}, (3, 9))
    s = x + y
    assert s.max_order == (3, 7)
    # each operand is wider than the result in one variable: its terms
    # beyond the result window are dropped
    assert s.terms == {(1, 0): 1, (0, 1): 1}
    # an operand whose window is the result's keeps every term
    z = MultiSeries(VARS, {(3, 7): 4, (1, 0): -1}, (3, 7))
    assert (z + x).terms == (x + z).terms == {(3, 7): 4}


def test_mul_window_laurent_rule():
    # max = min(max_a + min_b, max_b + min_a) per variable
    x = MultiSeries(("a",), {(-1,): 1.0}, (5,), (-1,))
    y = MultiSeries(("a",), {(0,): 1.0}, (3,), (0,))
    z = x * y
    assert z.max_order == (2,)
    assert z.min_order == (-1,)


def test_const_is_exact():
    c = MultiSeries.const(VARS, 3, INF)
    assert c.max_order == (INF, INF)
    s = S({(1, 1): 2}, max_order=6)
    assert (s * c).max_order == (6, 6)


# ------------------------------------------------------------------ ring laws

# small-integer complex coefficients: every sum and product below is exact
small = st.integers(min_value=-4, max_value=4)
coeffs = st.builds(complex, small, small)
exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
series_st = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: MultiSeries(VARS, d, 6)
)


@settings(max_examples=60, deadline=None)
@given(series_st, series_st, series_st)
def test_ring_laws(x, y, z):
    assert ((x + y) + z).terms == (x + (y + z)).terms
    assert (x * y).terms == (y * x).terms
    lhs = x * (y + z)
    rhs = x * y + x * z
    assert lhs.terms == rhs.terms
    # associativity of * (all windows here are 6, so they agree)
    assert ((x * y) * z).terms == (x * (y * z)).terms


@settings(max_examples=40, deadline=None)
@given(series_st)
def test_additive_inverse(x):
    assert (x + (-1) * x).is_zero()


# ------------------------------------------------------------- transcendental


def test_exp_is_homomorphism():
    x = S({(1, 0): 1 + 1j}, max_order=6)
    y = S({(0, 1): -1 + 2j}, max_order=6)
    _assert_same((x + y).exp(), x.exp() * y.exp())


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        S({(0, 0): 1.0, (1, 0): 1.0}, max_order=4).exp()
    # exp takes a linear series only: no term of degree 2, no pole
    with pytest.raises(ValueError):
        S({(1, 1): 1.0, (1, 0): 1.0}, max_order=4).exp()
    with pytest.raises(ValueError):
        S({(-1, 0): 1.0, (0, 1): 1.0}, max_order=4, min_order=(-1, 0)).exp()


# ------------------------------------------------------------- evaluation


def test_linear_pole_expansion():
    # 1/(a - t*b) = sum_k t^k b^k a^{-k-1}, built as an explicit geometric sum
    t = 0.37 + 0.21j
    K = 4
    a_inv = MultiSeries(VARS, {(-1, 0): 1.0}, INF, (-1, 0))
    step = MultiSeries(VARS, {(-1, 1): t}, INF, (-1, 0))
    out = a_inv
    term = a_inv
    for _ in range(K):
        term = term * step
        out = out + term
    for k in range(K + 1):
        assert close(out.coeff((-k - 1, k)), t**k)
    # numeric sanity in the region |a| > |t b|
    a, b = 2.0 + 0.1j, 0.6 - 0.2j
    approx = out.eval_at({"a": a, "b": b})
    assert abs(approx - 1.0 / (a - t * b)) < abs(t * b / a) ** (K + 1)


def test_eval_matches_direct():
    s = S({(2, 0): 1.5, (1, 1): -2.0, (0, 0): 0.5}, max_order=6)
    a, b = 0.3 + 0.1j, -0.2 + 0.4j
    want = 1.5 * a**2 - 2.0 * a * b + 0.5
    assert close(s.eval_at({"a": a, "b": b}), want)


def test_exp_eval_consistency():
    s = S({(1, 0): 0.2, (0, 1): 0.1}, max_order=12)
    v = s.exp().eval_at({"a": 0.5, "b": 0.25})
    assert close(v, cmath.exp(0.2 * 0.5 + 0.1 * 0.25), 1e-10)


# ------------------------------------------------- products and power sums


def _wadd(a, b):
    return INF if a >= INF or b >= INF else a + b


def _pairwise_product(x, y):
    """Reference product: every term pair, the window checked per pair, and
    the pairs of each output summed in the order the product sums them
    (over the sparser factor's terms, ascending).  Pairs are multiplied by
    numpy's complex multiply, as in the product: it rounds differently from
    Python's."""
    top = tuple(
        min(_wadd(ma, nb), _wadd(mb, na))
        for ma, na, mb, nb in zip(x.max_order, x.min_order, y.max_order, y.min_order)
    )
    f, g = sorted((x, y), key=lambda s: len(s.terms))
    out = {}
    for e1, c1 in sorted(f.terms.items()):
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(a <= m for a, m in zip(e, top)):
                out[e] = out.get(e, 0) + complex(np.multiply(c1, c2))
    return top, {e: c for e, c in out.items() if c != 0}


def _random_series(rng, vars, exact, density=0.4):
    """Laurent windows, some INF orders, and rows with holes."""
    lo = [rng.randint(-2, 0) for _ in vars]
    hi = [rng.choice([rng.randint(0, 5), INF]) for _ in vars]
    terms = {}
    for e in itertools.product(*(range(a, min(b, a + 6) + 1) for a, b in zip(lo, hi))):
        if rng.random() < density:
            if exact:
                terms[e] = complex(rng.randint(-5, 5), rng.randint(-5, 5))
            else:
                terms[e] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return MultiSeries(vars, terms, tuple(hi), tuple(lo))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("exact", [True, False])
def test_product_matches_pairwise_reference(nvars, exact):
    rng = random.Random(17 * nvars + exact)
    vars = ("a", "b", "c")[:nvars]
    for _ in range(12):
        x = _random_series(rng, vars, exact)
        y = _random_series(rng, vars, exact, density=rng.choice([0.15, 0.4, 1.0]))
        z = x * y
        top, want = _pairwise_product(x, y)
        assert z.max_order == top
        if exact:
            assert z.terms == want
        else:
            assert set(z.terms) == set(want)
            for e, c in want.items():
                assert abs(z.terms[e] - c) <= 1e-15 * max(1.0, abs(c))


def test_product_prunes_exact_cancellation_and_empty_window():
    x = S({(0, 0): 1 + 0j, (1, 0): 1 + 0j, (0, 2): 3 + 0j})
    y = S({(0, 0): 1 + 0j, (1, 0): -1 + 0j, (0, 2): -3 + 0j})
    p = x * y  # 1 - a^2 - 6 a b^2 - 9 b^4: the a and b^2 terms cancel
    assert (1, 0) not in p.terms and (0, 2) not in p.terms
    assert p.terms == _pairwise_product(x, y)[1]
    high = MultiSeries(("a",), {(2,): 1.0}, (2,)) * MultiSeries(("a",), {(1,): 1.0}, (4,))
    assert high.max_order == (2,) and high.is_zero()


def _repeated_add(u, c0, coef):
    """Reference power sum: out = out + u^k * coef(k, u^k), copying the
    whole series at every step."""
    budget = sum(m for m in u.max_order if m < INF)
    out = MultiSeries.const(u.vars, c0, u.max_order)
    term = MultiSeries.const(u.vars, 1, u.max_order)
    for k in range(1, budget + 1):
        term = term * u
        if term.is_zero():
            break
        out = out + term * coef(k)
    return out


def _exp_coef(k):
    return 1 / math.factorial(k)


def _assert_same(got, want):
    assert got.max_order == want.max_order and got.min_order == want.min_order
    assert set(got.terms) == set(want.terms)
    for e, c in want.terms.items():
        assert abs(got.terms[e] - c) <= 1e-15 * max(1.0, abs(c))


# the exact=True case pinned bit-equality with the power sum's summation
# order, which the closed form does not follow
@pytest.mark.parametrize("exact", [False])
def test_power_sums_match_repeated_add(exact):
    """The closed-form exp of a linear series against its power sum."""
    u = MultiSeries(VARS, {(1, 0): complex(1 / 2, 2 / 7), (0, 1): complex(-2 / 3, 3 / 7)}, (6, 4))
    _assert_same(u.exp(), _repeated_add(u, 1, _exp_coef))


def test_power_sums_refuse_untruncated_variable():
    """A positive power of a variable with an INF window has no finite power
    sum: exp refuses instead of truncating."""
    a = MultiSeries(("a",), {(1,): 1.0}, INF)
    with pytest.raises(TruncationTooSmall):
        a.exp()
    with pytest.raises(TruncationTooSmall):
        MultiSeries(VARS, {(0, 1): 1.0}, (4, INF)).exp()
    # a series in the finite-window variable only is unchanged
    e = MultiSeries(VARS, {(1, 0): 1.0}, (4, INF)).exp()
    assert e.max_order == (4, INF)
    assert e.terms == {(k, 0): 1 / math.factorial(k) for k in range(5)}
    # and the zero series has the exact exp 1 whatever its window
    assert MultiSeries(("a",), {}, INF).exp().terms == {(0,): 1}


def test_series_imports_no_numpy():
    """The numpy-free rule that once held for series now holds for
    kronecker's import path: importing kronecker and evaluating a
    double-precision kernel loads neither numpy, nor mpmath, nor series
    (start-up time and memory of every caller that needs only the kernel)."""
    src = os.path.dirname(os.path.dirname(epolylog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from epolylog.kronecker import EllipticPoint, LatticeContext, omega_coefficients\n"
        "omega_coefficients(EllipticPoint(0.31, 0.17), 4, LatticeContext(0.1 + 0.8j, 15))\n"
        "sys.exit(' '.join(sorted({'numpy', 'mpmath', 'epolylog.series'} & set(sys.modules))) or None)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True)
    assert run.returncode == 0, f"loaded: {run.stderr.strip()}"
