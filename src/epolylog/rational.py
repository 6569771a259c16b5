"""Exact multivariate polynomials and sums of reciprocals of linear forms.

Coefficients are ints when integral and Fractions otherwise (_exact, shared
with hopf's labels): a verdict's LCM expansion multiplies thousands of
coefficients, all integers, and Fraction arithmetic on them cost most of its
time.  Exponents live in a fixed variable tuple, which both operands of a
sum or product share.  The only rational functions we meet are signed sums
sum_i c_i / prod(F_i) in which every denominator F_i is a multiset of linear
Polys, and the only question asked of them is "is this identically zero?".
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


def _exact(c):
    """One exact number: an int, or a Fraction when it is not integral."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Multivariate polynomial: dict exponent-tuple -> int or Fraction."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = {}
        for e, c in (terms or {}).items():
            c = _exact(c)
            if c:
                self.terms[tuple(e)] = c

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(tuple(vars)): c})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        e = tuple(1 if v == name else 0 for v in vars)
        if sum(e) != 1:
            raise ValueError(f"unknown variable {name!r}")
        return cls(vars, {e: 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable tuples differ: {self.vars} and {other.vars}")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.vars, out)

    def __mul__(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable tuples differ: {self.vars} and {other.vars}")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.vars, out)

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
