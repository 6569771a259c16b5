import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from epolylog.hopf import kid_terms
from epolylog.rational import Poly, rational_sum
from oracles import poly_value

V = ("x", "y", "z")
X, Y, Z, ONE = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)


def test_poly_arithmetic():
    p = Poly(V, {X: 1, Y: 1}) * Poly(V, {X: 1, Y: -1})
    q = Poly(V, {(2, 0, 0): 1, (0, 2, 0): -1})
    assert p == q
    assert (p + Poly(V, {(2, 0, 0): -1, (0, 2, 0): 1})).is_zero()


def test_poly_eval():
    p = Poly(V, {(3, 0, 0): 1, X: -2, ONE: 1})
    assert poly_value(p, {"x": Fraction(2), "y": 0, "z": 0}) == Fraction(5)


def test_rational_sum_telescopes():
    # 1/(x(x+1)) = 1/x - 1/(x+1), so the three-part sum cancels exactly
    x = Poly(V, {X: 1})
    x1 = Poly(V, {X: 1, ONE: 1})
    num, lcm = rational_sum([(1, [x, x1]), (-1, [x]), (1, [x1])])
    assert num.is_zero()
    assert lcm == [x, x1]


def test_rational_sum_nonzero():
    # 1/x + 1/x = 2/x: the LCM is x, not the product x^2
    x = Poly(V, {X: 1})
    num, lcm = rational_sum([(1, [x]), (1, [x])])
    assert not num.is_zero()
    assert num == Poly.const(V, 2) and lcm == [x]


def test_rational_sum_keeps_multiplicity():
    # 1/x^2 - 1/(x(x+1)) = 1/(x^2(x+1)): LCM x^2 (x+1), numerator 1
    x = Poly(V, {X: 1})
    x1 = Poly(V, {X: 1, ONE: 1})
    num, lcm = rational_sum([(1, [x, x]), (-1, [x, x1])])
    assert num == Poly.const(V, 1)
    assert lcm == [x, x, x1]


def test_rational_sum_rejects_zero_factor():
    x = Poly(V, {X: 1})
    with pytest.raises(ZeroDivisionError):
        rational_sum([(1, [x]), (1, [Poly(V, {})])])
    with pytest.raises(ValueError):
        rational_sum([])


def test_integral_coefficients_are_ints():
    p = Poly(V, {X: Fraction(4, 2), Y: Fraction(1, 3), Z: 2.0})
    assert p.terms == {X: 2, Y: Fraction(1, 3), Z: 2}
    assert [type(p.terms[e]) for e in (X, Y, Z)] == [int, Fraction, int]
    # a Fraction sum that comes out integral is stored as an int as well
    assert type((p + Poly(V, {Y: Fraction(2, 3)})).terms[Y]) is int
    x1 = Poly(V, {X: 1, ONE: 1})
    y = Poly(V, {Y: 1})
    for q in (x1 * y, x1 + y, x1 * x1 * Poly.const(V, -3), Poly.const(V, 0) + x1):
        assert all(type(c) is int for c in q.terms.values())
    # the LCM numerator of a broken identity: every coefficient an int
    parts = kid_terms(6, "kid1")[0]
    flipped = [(-parts[0][0], parts[0][1])] + parts[1:]
    num = rational_sum(flipped)[0]
    assert not num.is_zero()
    assert all(type(c) is int for c in num.terms.values())


def test_arithmetic_refuses_different_variable_tuples():
    """Exponent tuples are only comparable over one variable tuple: mixing
    two is refused rather than zipped into a wrong answer."""
    x = Poly(("x",), {(1,): 1})
    y = Poly(("x", "y"), {(0, 1): 1})
    both = r"\('x',\) and \('x', 'y'\)"
    with pytest.raises(ValueError, match=both):
        x * y
    with pytest.raises(ValueError, match=both):
        x + y
    xy = Poly(("x", "y"), {(1, 0): 1})
    y_only = Poly(("y",), {(1,): 1})
    for parts in ([(1, [xy]), (-1, [y_only])], [(1, [xy, y_only])]):
        with pytest.raises(ValueError, match="variable tuples differ"):
            rational_sum(parts)



def test_constructor_refuses_non_monomial_exponents():
    """An exponent must have one nonnegative int entry per variable: a short
    key once made x^2 a 1-tuple that equality and zero tests then misread,
    and a float key made 2*x^1.5, whose square had the key (3.0,)."""
    for bad in ({(1,): 1, (0, 1): 2}, {(1, 0, 0): 1}, {(-1, 0): 1}, {(1.5, 0): 1}, {(float("nan"), 0): 1}):
        with pytest.raises(ValueError, match="not a monomial"):
            Poly(("x", "y"), bad)
    with pytest.raises(ValueError, match="not a monomial"):
        Poly(("x",), {(-1,): 1})
    assert Poly((), {(): 3}) == Poly.const((), 3)


def test_equal_polys_hash_equal_however_built():
    """The cached hash follows the value: a dict literal, a sum of variables
    and a product give one hash, so equal factors match in rational_sum."""
    x, y = Poly(V, {X: 1}), Poly(V, {Y: 1})
    literal = Poly(V, {Y: 1, X: 1})
    built = [x + y, y + x, (x + y) * Poly.const(V, 1), Poly.const(V, 0) + y + x]
    for p in built:
        assert p == literal and hash(p) == hash(literal)
    square = Poly(V, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})
    assert hash((x + y) * (y + x)) == hash(square)
    num, lcm = rational_sum([(1, [x + y]), (-1, [y + x])])
    assert num.is_zero()
    assert lcm == [literal]


@pytest.mark.parametrize("which, n", [("kid1", 6), ("kid1", 7), ("kid2", 6), ("kid2", 7)])
def test_kid_terms_build_each_run_once(which, n):
    """Within one call, factors equal by value are one shared object."""
    factors = [f for parts in kid_terms(n, which) for _, fs in parts for f in fs]
    assert len({id(f) for f in factors}) == len(set(factors)) < len(factors)


def _kid_sums_and_breaks():
    """Every kid_terms sum (kid1 n = 3..7, kid2 n = 4..7), each followed by
    its single sign flips and single drops, interleaved per term."""
    for which, ns in (("kid1", range(3, 8)), ("kid2", range(4, 8))):
        for n in ns:
            for parts in kid_terms(n, which):
                yield parts
                for j in range(len(parts)):
                    yield parts[:j] + [(-parts[j][0], parts[j][1])] + parts[j + 1:]
                    yield parts[:j] + parts[j + 1:]


def test_kid_lcm_arithmetic_digest():
    """The exact LCM arithmetic is pinned: sha256 over the concatenated
    repr((num, lcm)) of rational_sum, with no separator, for the 115 sums of
    _kid_sums_and_breaks: any change to the numerators or LCM lists shows."""
    h = hashlib.sha256()
    count = 0
    for parts in _kid_sums_and_breaks():
        h.update(repr(rational_sum(parts)).encode())
        count += 1
    assert count == 115
    assert h.hexdigest() == "3aa85371b956b6eb431b8e1f619318dc8116e6581ab21205406b0796c8e5a2c0"

small = st.integers(min_value=-3, max_value=3)
# nonzero linear forms c_x x + c_y y + c_z z + c_0 over V
linear_forms = st.tuples(small, small, small, small).filter(lambda t: any(t[:3])).map(
    lambda t: Poly(V, dict(zip((X, Y, Z, ONE), t)))
)
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(linear_forms, min_size=1, max_size=4),
    st.lists(
        st.tuples(fractions, st.lists(st.integers(0, 3), max_size=4)), min_size=1, max_size=5
    ),
    st.tuples(fractions, fractions, fractions),
)
def test_rational_sum_matches_fraction_sum(pool, picks, point):
    """num / prod(lcm) equals the plain Fraction sum of the terms at a
    rational point where no factor vanishes."""
    parts = [(c, [pool[i % len(pool)] for i in idx]) for c, idx in picks]
    at = dict(zip(V, point))
    assume(all(poly_value(f, at) != 0 for f in pool))
    want = Fraction(0)
    for c, fs in parts:
        den = Fraction(1)
        for f in fs:
            den *= poly_value(f, at)
        want += c / den
    num, lcm = rational_sum(parts)
    den = Fraction(1)
    for f in lcm:
        den *= poly_value(f, at)
    assert poly_value(num, at) / den == want
