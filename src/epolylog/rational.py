"""Exact multivariate polynomials and sums of reciprocals of linear forms.

Coefficients are ints when integral and Fractions otherwise (_exact, shared
with hopf's labels): a verdict's LCM expansion multiplies thousands of
coefficients, all integers, and Fraction arithmetic on them cost most of its
time.  Exponents live in a fixed variable tuple, which both operands of a
sum or product share; the constructor refuses an exponent that is not a
monomial in it.  Results of + and * are built unchecked from their checked
operands (_poly), and a Poly's hash is computed once and cached.  The only
rational functions we meet are signed sums sum_i c_i / prod(F_i) in which
every denominator F_i is a multiset of linear Polys, and the only question
asked of them is "is this identically zero?".
rational_sum answers it over the least common multiple of the denominators:
the LCM is the per-factor maximum multiplicity, each term's numerator is
c_i times the LCM factors its own denominator lacks, and the sum is zero iff
those numerators add up to the zero Poly.  Nothing is cross-multiplied, so
the numerator has the degree of the LCM rather than of the product of all
denominators.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import add


def _exact(c):
    """One exact number: an int, or a Fraction when it is not integral."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Multivariate polynomial: dict exponent-tuple -> int or Fraction.

    The constructor raises ValueError for an exponent whose length is not
    len(vars) or with an entry that is not an int >= 0 (1.5, nan); + and *
    build their results unchecked.  A Poly is not mutated after
    construction, so its hash is computed once, on first use, and cached."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {}
        self._hash = None
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != len(self.vars) or any(not isinstance(x, int) or x < 0 for x in e):
                raise ValueError(f"exponent {e} is not a monomial in {self.vars}")
            c = _exact(c)
            if c:
                self.terms[e] = c

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(tuple(vars)): c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable tuples differ: {self.vars} and {other.vars}")
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return _poly(self.vars, out)

    def __mul__(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable tuples differ: {self.vars} and {other.vars}")
        out = {}
        get = out.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return _poly(self.vars, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{v}^{n}" if n != 1 else v for v, n in zip(self.vars, e) if n
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _poly(vars, terms):
    """The Poly of a sum or product of checked operands, without the
    constructor's checks: its exponents are sums of valid ones.  Zeros are
    dropped and integral Fractions become ints."""
    p = object.__new__(Poly)
    p.vars = vars
    p.terms = {e: c if type(c) is int else _exact(c) for e, c in terms.items() if c}
    p._hash = None
    return p


def rational_sum(parts):
    """Numerator and denominator factors of sum_i c_i / prod(factors_i).

    parts: iterable of (c_i, factors_i), c_i a number and factors_i a list of
    nonzero linear Polys, all over one variable tuple (else ValueError).
    Returns (num, lcm): lcm lists the factors of the least common multiple
    of the denominators with multiplicity, and the sum equals
    num / prod(lcm).  Factors are matched as Polys, so x and -x count as
    different factors; the result is then over a common multiple that is not
    least, which changes num but not whether it is zero."""
    parts = [(c, Counter(fs)) for c, fs in parts]
    if not parts:
        raise ValueError("empty sum")
    lcm = Counter()
    for _, fs in parts:
        lcm |= fs
    if any(f.is_zero() for f in lcm):
        raise ZeroDivisionError("zero denominator factor")
    vars = next(iter(lcm)).vars if lcm else ()
    for f in lcm:
        if f.vars != vars:
            raise ValueError(f"variable tuples differ: {vars} and {f.vars}")
    num = Poly(vars, {})
    for c, fs in parts:
        piece = Poly.const(vars, c)
        for f in (lcm - fs).elements():
            piece = piece * f
        num = num + piece
    return num, list(lcm.elements())
