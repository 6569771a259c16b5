import cmath
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epolylog.errors import NotInvertible, PoleOverflow, TruncationTooSmall
import epolylog
from epolylog.series import INF, MultiSeries, _geometric

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


def test_coeff_beyond_window_raises():
    s = S({(1, 0): 1.0}, max_order=4)
    with pytest.raises(TruncationTooSmall):
        s.coeff((5, 0))
    assert s.coeff((2, 0)) == 0


def test_zero_coefficients_pruned():
    s = S({(1, 0): 0.0, (0, 1): Fraction(0)})
    assert s.is_zero()


# -------------------------------------------------------------------- windows


def test_add_window_is_componentwise_min():
    x = MultiSeries(VARS, {(1, 0): 1}, (5, 7))
    y = MultiSeries(VARS, {(0, 1): 1}, (3, 9))
    assert (x + y).max_order == (3, 7)


def test_mul_window_laurent_rule():
    # max = min(max_a + min_b, max_b + min_a) per variable
    x = MultiSeries(("a",), {(-1,): 1.0}, (5,), (-1,))
    y = MultiSeries(("a",), {(0,): 1.0}, (3,), (0,))
    z = x * y
    assert z.max_order == (2,)
    assert z.min_order == (-1,)


def test_const_is_exact():
    c = MultiSeries.const(VARS, 3)
    assert c.max_order == (INF, INF)
    s = S({(1, 1): 2}, max_order=6)
    assert (s * c).max_order == (6, 6)


def test_restrict_refuses_to_drop_live_low_terms():
    s = MultiSeries(("a",), {(-2,): 1.0}, (4,), (-2,))
    with pytest.raises(PoleOverflow):
        s.restrict(min_order=0)
    t = s.restrict(max_order=1)
    assert t.max_order == (1,)


# ------------------------------------------------------------------ ring laws

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
series_st = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: MultiSeries(VARS, d, 6)
)


@settings(max_examples=60, deadline=None)
@given(series_st, series_st, series_st)
def test_ring_laws(x, y, z):
    assert ((x + y) + z).diff_norm(x + (y + z)) == 0
    assert (x * y).diff_norm(y * x) == 0
    lhs = x * (y + z)
    rhs = x * y + x * z
    assert lhs.diff_norm(rhs) == 0
    # associativity of * on the common window
    assert ((x * y) * z).diff_norm(x * (y * z)) == 0


@settings(max_examples=40, deadline=None)
@given(series_st)
def test_additive_inverse(x):
    assert (x - x).is_zero()


# ------------------------------------------------------------------ inversion


def test_invert_power_series():
    one_minus_a = S({(0, 0): 1, (1, 0): -1}, max_order=6)
    inv = one_minus_a.invert()
    for k in range(7):
        assert inv.coeff((k, 0)) == 1


def test_invert_roundtrip():
    s = S({(0, 0): 2.0, (1, 0): 0.5, (0, 1): -1.0, (1, 1): 0.25}, max_order=5)
    p = s * s.invert()
    assert close(p.coeff((0, 0)), 1.0)
    assert p.diff_norm(MultiSeries.const(VARS, 1.0, p.max_order)) < 1e-13


def test_invert_monomial_lead():
    # a^2 * (1 + b): inverse starts at a^{-2}
    s = S({(2, 0): 1.0, (2, 1): 1.0}, max_order=6)
    inv = s.invert()
    assert inv.min_order == (-2, 0)
    assert close(inv.coeff((-2, 0)), 1.0)
    assert close(inv.coeff((-2, 1)), -1.0)


def test_invert_no_dominating_monomial():
    s = S({(1, 0): 1, (0, 1): 1})
    with pytest.raises(NotInvertible):
        s.invert()
    with pytest.raises(NotInvertible):
        MultiSeries.zero(VARS).invert()


def test_pow_negative():
    s = S({(0, 0): 1.0, (1, 0): 1.0}, max_order=5)
    p = s ** -2
    # (1+a)^{-2} = 1 - 2a + 3a^2 - ...
    assert close(p.coeff((2, 0)), 3.0)


# ------------------------------------------------------------- transcendental


def test_exp_log_roundtrip():
    s = S({(1, 0): 0.3, (0, 1): -0.7, (1, 1): 0.2}, max_order=5)
    back = s.exp().log()
    assert back.diff_norm(s) < 1e-12


def test_exp_is_homomorphism():
    x = S({(1, 0): Fraction(1)}, max_order=6)
    y = S({(0, 1): Fraction(1, 2)}, max_order=6)
    lhs = (x + y).exp()
    rhs = x.exp() * y.exp()
    assert lhs.diff_norm(rhs) == 0


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        S({(0, 0): 1.0, (1, 0): 1.0}, max_order=4).exp()


def test_log_of_geometric():
    # -log(1-a) = sum a^k / k
    s = S({(0, 0): 1.0, (1, 0): -1.0}, max_order=7)
    l = -s.log()
    for k in range(1, 8):
        assert close(l.coeff((k, 0)), 1.0 / k)


# ---------------------------------------------------------------- composition


def test_linear_pole_expansion():
    # 1/(a - t*b) = sum_k t^k b^k a^{-k-1}, built as an explicit geometric
    # sum (a - t*b has no dominating monomial, so invert() refuses it)
    t = 0.37 + 0.21j
    with pytest.raises(NotInvertible):
        MultiSeries(VARS, {(1, 0): 1.0, (0, 1): -t}, (8, 8)).invert()
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


def test_subs_linear_change():
    # f(a,b) = a*b under a -> a + 2b keeps total degree
    f = S({(1, 1): 1}, max_order=6)
    img = f.subs(
        {"a": MultiSeries(VARS, {(1, 0): 1, (0, 1): 2}, (6, 6))},
        max_order=(6, 6),
    )
    assert img.coeff((1, 1)) == 1
    assert img.coeff((0, 2)) == 2


def test_subs_negative_power_needs_window():
    f = MultiSeries(("a",), {(-1,): 1}, (4,), (-1,))
    target = MultiSeries(("t",), {(0,): 1.0, (1,): 1.0}, (4,))
    out = f.subs({"a": target}, max_order=(4,), min_order=(0,))
    # 1/(1+t) is pole free, so this works even with min_order 0
    assert close(out.coeff((1,)), -1.0)
    pole = MultiSeries(("t",), {(1,): 1.0}, (4,))
    with pytest.raises(PoleOverflow):
        f.subs({"a": pole}, max_order=(4,), min_order=(0,))


# ------------------------------------------------------------------- calculus


def test_derivative():
    s = S({(3, 1): 2.0, (0, 2): 1.0}, max_order=6)
    d = s.derivative("a")
    assert close(d.coeff((2, 1)), 6.0)
    assert d.coeff((0, 2)) == 0
    assert d.max_order == (5, 6)


def test_polar_regular_split():
    s = MultiSeries(VARS, {(-1, 0): 1.0, (0, 0): 2.0, (1, -1): 3.0}, (4, 4), (-1, -1))
    p = s.polar_part(["a"])
    r = s.regular_part(["a"])
    assert (-1, 0) in p.terms and (1, -1) in r.terms
    assert (p + r).diff_norm(s) == 0


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
    """Reference product: every term pair, the window checked per pair."""
    top = tuple(
        min(_wadd(ma, nb), _wadd(mb, na))
        for ma, na, mb, nb in zip(x.max_order, x.min_order, y.max_order, y.min_order)
    )
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(a <= m for a, m in zip(e, top)):
                out[e] = out.get(e, 0) + c1 * c2
    return top, {e: c for e, c in out.items() if c != 0}


def _random_series(rng, vars, exact, density=0.4):
    """Laurent windows, some INF orders, and rows with holes."""
    lo = [rng.randint(-2, 0) for _ in vars]
    hi = [rng.choice([rng.randint(0, 5), INF]) for _ in vars]
    terms = {}
    for e in itertools.product(*(range(a, min(b, a + 6) + 1) for a, b in zip(lo, hi))):
        if rng.random() < density:
            if exact:
                terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
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
    x = S({(0, 0): Fraction(1), (1, 0): Fraction(1), (0, 2): Fraction(3)})
    y = S({(0, 0): Fraction(1), (1, 0): Fraction(-1), (0, 2): Fraction(-3)})
    p = x * y  # 1 - a^2 - 6 a b^2 - 9 b^4: the a and b^2 terms cancel
    assert (1, 0) not in p.terms and (0, 2) not in p.terms
    assert p.terms == _pairwise_product(x, y)[1]
    high = MultiSeries(("a",), {(2,): 1.0}, (2,)) * MultiSeries(("a",), {(1,): 1.0}, (4,))
    assert high.max_order == (2,) and high.is_zero()


def _repeated_add(u, c0, coef):
    """Reference power sum: out = out + u^k * coef(k, u^k), copying the
    whole series at every step."""
    budget = sum(m for m in u.max_order if m < INF)
    out = MultiSeries.const(u.vars, c0, u.max_order, 0)
    term = MultiSeries.const(u.vars, 1, u.max_order, 0)
    for k in range(1, budget + 1):
        term = term * u
        if term.is_zero():
            break
        out = out + term * coef(k, term)
    return out


def _exp_coef(k, term):
    c = Fraction(1, math.factorial(k))
    return c if all(isinstance(v, Fraction) for v in term.terms.values()) else float(c)


def _assert_same(got, want, exact):
    assert got.max_order == want.max_order and got.min_order == want.min_order
    if exact:
        assert got.terms == want.terms
        return
    assert set(got.terms) == set(want.terms)
    for e, c in want.terms.items():
        assert abs(got.terms[e] - c) <= 1e-15 * max(1.0, abs(c))


@pytest.mark.parametrize("exact", [True, False])
def test_power_sums_match_repeated_add(exact):
    num = (lambda p, q: Fraction(p, q)) if exact else (lambda p, q: complex(p / q, q / 7))
    u = MultiSeries(VARS, {(1, 0): num(1, 2), (0, 1): num(-2, 3), (2, 1): num(1, 5)}, (6, 4))
    _assert_same(u.exp(), _repeated_add(u, 1, _exp_coef), exact)
    _assert_same(_geometric(u), _repeated_add(u, 1, lambda k, t: (-1) ** k), exact)
    s = u + num(3, 2)
    shifted = s * (1.0 / s.constant_term()) - 1
    want = _repeated_add(
        shifted, cmath.log(complex(s.constant_term())), lambda k, t: (-1) ** (k + 1) / k
    )
    _assert_same(s.log(), want, False)


def test_series_imports_no_numpy():
    """kronecker -> series must stay numpy-free (start-up time and memory of
    every caller that needs only the kernel)."""
    src = os.path.dirname(os.path.dirname(epolylog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, epolylog.kronecker; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
