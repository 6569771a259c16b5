"""Truncated multivariate Laurent series.

The generating series handled here live in a finite list of formal variables
(expansion parameters such as weight exponents or pole coordinates) and are
stored as a plain dict mapping exponent tuples to coefficients.  Each series
carries, per variable, a truncation order `max_order` (coefficients above it
are unknown and silently dropped) and a pole bound `min_order` (the series is
guaranteed to have no terms below it; for ordinary power series this is 0).

The operations are the ones the Kronecker expansion and the asymptotic
assembly need: series + series, series * series, scalar * series, exp of a
series without constant term, coefficient lookup and numeric evaluation.

Window semantics follow the usual rules for truncated arithmetic:

* addition intersects knowledge: new max = min(max_a, max_b); the pole bound
  is the weaker of the two.
* multiplication: a Laurent product coefficient at order k mixes orders from
  both factors, so the sound truncation is
  ``new_max = min(max_a + min_b, max_b + min_a)`` per variable, and
  ``new_min = min_a + min_b``.
* exact objects (constants, honest polynomials) use the sentinel order INF so
  they never degrade a window.

Coefficients are whatever supports ring arithmetic: complex, Fraction,
mpmath.mpc, numpy scalars.  Exact zero coefficients are pruned; tiny numeric
coefficients are kept.

Products go by rows: the right factor is bucketed into dense rows along the
last variable, keyed by the other exponents (holes hold 0), and each left
term adds c * row into its output row with one list comprehension.  An
output exponent receives one contribution per left term, in left-term order,
so the sums are those of the pairwise loop; exact zeros are pruned once, at
the end.  exp sums the powers of its argument in one accumulator.

The module is pure Python and must not import numpy: kronecker loads it and
nothing else numeric, and a numpy-backed prototype took the kernel ladder
benchmark from 22.2 to 35.7 MB peak RSS and from 0.19 to 0.35 s set-up.

Dropping a coefficient above max_order is sound (that knowledge was never
claimed); dropping one below a requested min_order is not, and raises
PoleOverflow.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, islice
from operator import mul

from .errors import PoleOverflow, TruncationTooSmall

INF = 10**9  # sentinel truncation order for exact objects


def _cap(n):
    return INF if n >= INF else (-INF if n <= -INF else n)


def _wsum(a, b):
    """Saturating window sum: INF means exact, and exactness is absorbing."""
    if a >= INF or b >= INF:
        return INF
    if a <= -INF or b <= -INF:
        return -INF
    return a + b


def _is_zero(c):
    return c == 0


class MultiSeries:
    __slots__ = ("vars", "terms", "max_order", "min_order")

    def __init__(self, vars, terms, max_order, min_order=None):
        self.vars = tuple(vars)
        k = len(self.vars)
        if isinstance(max_order, int):
            max_order = (max_order,) * k
        self.max_order = tuple(_cap(m) for m in max_order)
        if min_order is None:
            min_order = (0,) * k
        elif isinstance(min_order, int):
            min_order = (min_order,) * k
        self.min_order = tuple(_cap(m) for m in min_order)
        if len(self.max_order) != k or len(self.min_order) != k:
            raise ValueError("window length does not match variable count")
        self.terms = {}
        for e, c in terms.items():
            if len(e) != k:
                raise ValueError("exponent arity mismatch")
            if _is_zero(c):
                continue
            if self._above(e):
                continue  # unknown region, drop silently
            if self._below(e):
                raise PoleOverflow(
                    f"term {e} below pole bound {self.min_order} in vars {self.vars}"
                )
            self.terms[tuple(e)] = c

    # ------------------------------------------------------------------ util
    def _above(self, e):
        return any(x > m for x, m in zip(e, self.max_order))

    def _below(self, e):
        return any(x < m for x, m in zip(e, self.min_order))

    @classmethod
    def zero(cls, vars, max_order=INF, min_order=None):
        return cls(vars, {}, max_order, min_order)

    @classmethod
    def const(cls, vars, c, max_order=INF, min_order=None):
        z = (0,) * len(tuple(vars))
        return cls(vars, {z: c}, max_order, min_order)

    def is_zero(self):
        return not self.terms

    def coeff(self, e):
        """Coefficient of the monomial with exponent tuple e (0 if absent)."""
        e = tuple(e)
        if self._above(e):
            raise TruncationTooSmall(f"order {e} beyond window {self.max_order}")
        return self.terms.get(e, 0)

    def __repr__(self):
        n = len(self.terms)
        return (
            f"MultiSeries({self.vars}, {n} terms, "
            f"window {self.min_order}..{self.max_order})"
        )

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_vars(other)
        max_o = tuple(min(a, b) for a, b in zip(self.max_order, other.max_order))
        min_o = tuple(min(a, b) for a, b in zip(self.min_order, other.min_order))
        out = MultiSeries.zero(self.vars, max_o, min_o)
        out.terms = dict(_clip(self, out))
        for e, c in _clip(other, out):
            s = out.terms.get(e, 0) + c
            if _is_zero(s):
                out.terms.pop(e, None)
            else:
                out.terms[e] = s
        return out

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            # scalar fast path
            if _is_zero(other):
                return MultiSeries.zero(self.vars, self.max_order, self.min_order)
            out = MultiSeries.zero(self.vars, self.max_order, self.min_order)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._check_vars(other)
        max_o = tuple(
            min(_wsum(ma, nb), _wsum(mb, na))
            for ma, na, mb, nb in zip(
                self.max_order, self.min_order, other.max_order, other.min_order
            )
        )
        min_o = tuple(_wsum(a, b) for a, b in zip(self.min_order, other.min_order))
        out = MultiSeries.zero(self.vars, max_o, min_o)
        if self.terms and other.terms:
            out.terms = _row_product(self.terms, other.terms, max_o)
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    # ------------------------------------------------------- transcendental
    def exp(self):
        """exp of a series with no constant term and no poles: the powers of
        the series up to _budget or until one vanishes, summed in one
        accumulator.  1/k! becomes a float when the coefficients are all
        machine numbers and stays an exact Fraction otherwise, so Fraction
        and mpmath coefficients keep their own precision."""
        if any(m < 0 for m in self.min_order) or any(
            e == (0,) * len(self.vars) for e in self.terms
        ):
            raise ValueError("exp needs zero constant term and no poles")
        if _unbounded(self):
            raise TruncationTooSmall("exp of a series untruncated in a variable it contains")
        acc = {(0,) * len(self.vars): 1}
        term = MultiSeries.const(self.vars, 1, self.max_order, 0)
        machine = all(isinstance(v, (int, float, complex)) for v in self.terms.values())
        inv_fact = (Fraction(1, f) for f in accumulate(count(1), mul))
        for c in islice(inv_fact, _budget(self)):
            term = term * self
            if term.is_zero():
                break
            for e, v in (term * (float(c) if machine else c)).terms.items():
                acc[e] = acc.get(e, 0) + v
        out = MultiSeries.zero(self.vars, self.max_order, 0)
        out.terms = {e: v for e, v in acc.items() if not _is_zero(v)}
        return out

    # ------------------------------------------------------------ evaluation
    def eval_at(self, values):
        """Numeric evaluation; values maps every variable to a number."""
        vals = [values[v] for v in self.vars]
        total = 0
        for e, c in sorted(self.terms.items()):
            m = c
            for x, n in zip(vals, e):
                if n:
                    m = m * x**n
            total = total + m
        return total


def _clip(s, out):
    """The terms of s inside the window of out.  Terms of s already lie
    inside its own window, so only an s wider than out needs the test."""
    if s.max_order == out.max_order:
        return s.terms.items()
    return [(e, c) for e, c in s.terms.items() if not out._above(e)]


def _unbounded(u):
    """Whether u has a positive power of a variable whose window is INF; then
    no power of u leaves the window and no finite power sum is exact."""
    inf = [i for i, m in enumerate(u.max_order) if m >= INF]
    return any(e[i] > 0 for i in inf for e in u.terms)


def _budget(u):
    """Highest power of a series without constant term that survives its
    window, for u that is not _unbounded."""
    return sum(m for m in u.max_order if m < INF)


def _row_product(left, right, max_o):
    """Terms of left * right up to the orders max_o, by rows (module notes)."""
    *pmax, top = max_o
    buckets = {}
    for e, c in right.items():
        buckets.setdefault(e[:-1], {})[e[-1]] = c
    rows = [(p, min(r), [r.get(j, 0) for j in range(min(r), max(r) + 1)])
            for p, r in buckets.items()]
    lo = min(e[-1] for e in left) + min(b for _, b, _ in rows)
    hi = max(e[-1] for e in left) + max(b + len(row) - 1 for _, b, row in rows)
    width = min(top, hi) - lo + 1
    out, dests = {}, {}
    for e1, c1 in left.items():
        p1, a = e1[:-1], e1[-1]
        if p1 not in dests:
            keys = [(tuple(x + y for x, y in zip(p1, p2)), b, row) for p2, b, row in rows]
            dests[p1] = [(out.setdefault(k, [0] * width), b - lo, row) for k, b, row in keys
                         if width > 0 and all(x <= m for x, m in zip(k, pmax))]
        for dest, off, row in dests[p1]:
            s, n = a + off, min(len(row), width - a - off)
            if n > 0:
                dest[s:s + n] = [x + c1 * y for x, y in zip(dest[s:s + n], row)]
    return {k + (lo + i,): v for k, dest in out.items() for i, v in enumerate(dest) if v != 0}
