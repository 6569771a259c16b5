"""Truncated multivariate Laurent series.

The generating series handled here live in a finite list of formal variables
(expansion parameters such as weight exponents or pole coordinates) and are
stored as a plain dict mapping exponent tuples to coefficients.  Each series
carries, per variable, a truncation order `max_order` (coefficients above it
are unknown and silently dropped) and a pole bound `min_order` (the series is
guaranteed to have no terms below it; for ordinary power series this is 0).

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
the end.  exp, log and the geometric series share one power-sum loop.

The module is pure Python and must not import numpy: kronecker loads it and
nothing else numeric, and a numpy-backed prototype took the kernel ladder
benchmark from 22.2 to 35.7 MB peak RSS and from 0.19 to 0.35 s set-up.

Dropping a coefficient above max_order is sound (that knowledge was never
claimed); dropping one below a requested min_order is not, and raises
PoleOverflow.  This is what catches accidental division blow-ups like
1/gamma expansions pushed past their declared pole depth.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import accumulate, count, cycle, islice
from operator import mul

from .errors import NotInvertible, PoleOverflow, TruncationTooSmall

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

    @classmethod
    def variable(cls, vars, name, max_order=INF, min_order=None):
        vars = tuple(vars)
        e = tuple(1 if v == name else 0 for v in vars)
        if sum(e) != 1:
            raise ValueError(f"unknown variable {name!r}")
        return cls(vars, {e: 1}, max_order, min_order)

    def copy(self):
        s = MultiSeries.zero(self.vars, self.max_order, self.min_order)
        s.terms = dict(self.terms)
        return s

    def is_zero(self):
        return not self.terms

    def coeff(self, e):
        """Coefficient of the monomial with exponent tuple e (0 if absent)."""
        e = tuple(e)
        if self._above(e):
            raise TruncationTooSmall(f"order {e} beyond window {self.max_order}")
        return self.terms.get(e, 0)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        n = len(self.terms)
        return (
            f"MultiSeries({self.vars}, {n} terms, "
            f"window {self.min_order}..{self.max_order})"
        )

    # -------------------------------------------------------------- windows
    def restrict(self, max_order=None, min_order=None):
        """Narrow the window.  Raising min past a live term is an error."""
        k = len(self.vars)
        if max_order is None:
            max_order = self.max_order
        elif isinstance(max_order, int):
            max_order = (max_order,) * k
        if min_order is None:
            min_order = self.min_order
        elif isinstance(min_order, int):
            min_order = (min_order,) * k
        out = MultiSeries.zero(self.vars, max_order, min_order)
        for e, c in self.terms.items():
            if out._above(e):
                continue
            if out._below(e):
                raise PoleOverflow(f"restrict would drop live term {e}")
            out.terms[e] = c
        return out

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # ----------------------------------------------------------- arithmetic
    def _coerce(self, other):
        if isinstance(other, MultiSeries):
            return other
        if isinstance(other, (int, float, complex, Fraction)) or hasattr(other, "__mul__"):
            return MultiSeries.const(self.vars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_vars(other)
        max_o = tuple(min(a, b) for a, b in zip(self.max_order, other.max_order))
        min_o = tuple(min(a, b) for a, b in zip(self.min_order, other.min_order))
        out = MultiSeries.zero(self.vars, max_o, min_o)
        for e, c in self.terms.items():
            if not out._above(e):
                out.terms[e] = c
        for e, c in other.terms.items():
            if out._above(e):
                continue
            s = out.terms.get(e, 0) + c
            if _is_zero(s):
                out.terms.pop(e, None)
            else:
                out.terms[e] = s
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiSeries.zero(self.vars, self.max_order, self.min_order)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.invert() ** (-n)
        out = MultiSeries.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, MultiSeries):
            return self * other.invert()
        if isinstance(other, int) and _frac_terms(self):
            return self * Fraction(1, other)
        return self * (1.0 / other)

    # ------------------------------------------------------------- inversion
    def leading_monomial(self):
        """The unique exponent tuple dominated componentwise by all terms.

        Raises NotInvertible when no such term exists (e.g. a + b)."""
        if not self.terms:
            raise NotInvertible("zero series")
        lead = tuple(min(e[i] for e in self.terms) for i in range(len(self.vars)))
        if lead not in self.terms:
            raise NotInvertible(f"no dominating monomial (floor {lead} absent)")
        return lead

    def invert(self):
        lead = self.leading_monomial()
        c0 = self.terms[lead]
        inv_c0 = Fraction(1, 1) / c0 if isinstance(c0, Fraction) else 1.0 / c0
        # u = S / (c0 x^lead) - 1, ordinary series without constant term
        rel_max = tuple(_wsum(m, -l) for m, l in zip(self.max_order, lead))
        u = MultiSeries.zero(self.vars, rel_max, 0)
        for e, c in self.terms.items():
            if e == lead:
                continue
            e2 = tuple(a - b for a, b in zip(e, lead))
            if not u._above(e2):
                u.terms[e2] = c * inv_c0
        geom = _geometric(u)
        out_max = tuple(_wsum(m, -2 * l) for m, l in zip(self.max_order, lead))
        out_min = tuple(-l for l in lead)
        out = MultiSeries.zero(self.vars, out_max, out_min)
        for e, c in geom.terms.items():
            e2 = tuple(a - b for a, b in zip(e, lead))
            if not out._above(e2):
                out.terms[e2] = c * inv_c0
        return out

    # ------------------------------------------------------- transcendental
    def exp(self):
        """exp of a series with no constant term and no poles."""
        if any(m < 0 for m in self.min_order) or any(
            e == (0,) * len(self.vars) for e in self.terms
        ):
            raise ValueError("exp needs zero constant term and no poles")
        if _budget(self) >= INF:
            raise TruncationTooSmall("exp of an untruncated series")
        return _power_sum(self, 1, (Fraction(1, f) for f in accumulate(count(1), mul)))

    def log(self):
        """log of a series with invertible constant term and no poles."""
        if any(m < 0 for m in self.min_order):
            raise ValueError("log needs a pole-free series")
        c0 = self.constant_term()
        if _is_zero(c0):
            raise ValueError("log needs a unit constant term")
        u = self * (1.0 / c0) - 1
        if _budget(u) >= INF:
            raise TruncationTooSmall("log of an untruncated series")
        coefs = (Fraction((-1) ** (k + 1), k) for k in count(1))
        return _power_sum(u, cmath.log(complex(c0)), coefs)

    # ---------------------------------------------------------- composition
    def subs(self, mapping, max_order=None, min_order=None):
        """Substitute series for variables.

        mapping: dict var -> MultiSeries (all over the same target variable
        set).  Unmapped variables must exist in the target set and are sent
        to themselves.  Negative powers go through Laurent inversion; the
        caller must supply a window wide enough for them (PoleOverflow
        otherwise).
        """
        some = next(iter(mapping.values()))
        tvars = some.vars
        k = len(tvars)
        if max_order is None:
            max_order = tuple(min(m.max_order[i] for m in mapping.values()) for i in range(k))
        if min_order is None:
            min_order = 0
        images = []
        for v in self.vars:
            if v in mapping:
                images.append(mapping[v])
            else:
                images.append(MultiSeries.variable(tvars, v))
        out = MultiSeries.zero(tvars, max_order, min_order)
        pow_cache = [dict() for _ in images]

        def power(i, n):
            cache = pow_cache[i]
            if n not in cache:
                if n == 0:
                    cache[n] = MultiSeries.const(tvars, 1)
                elif n > 0:
                    cache[n] = power(i, n - 1) * images[i]
                else:
                    if -1 not in cache:
                        cache[-1] = images[i].invert()
                    cache[n] = power(i, n + 1) * cache[-1]
            return cache[n]

        for e, c in self.terms.items():
            mono = MultiSeries.const(tvars, c)
            for i, n in enumerate(e):
                if n:
                    mono = mono * power(i, n)
            for e2, c2 in mono.terms.items():
                if out._above(e2):
                    continue
                if out._below(e2):
                    raise PoleOverflow(
                        f"substitution produced order {e2} below window {min_order}"
                    )
                s = out.terms.get(e2, 0) + c2
                if _is_zero(s):
                    out.terms.pop(e2, None)
                else:
                    out.terms[e2] = s
        return out

    # ------------------------------------------------------------- calculus
    def derivative(self, var):
        i = self.vars.index(var)
        out_max = list(self.max_order)
        out_max[i] = _wsum(out_max[i], -1)
        out_min = list(self.min_order)
        if out_min[i] != 0:
            out_min[i] = _wsum(out_min[i], -1)
        out = MultiSeries.zero(self.vars, out_max, out_min)
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            if not out._above(e2):
                out.terms[e2] = c * e[i]
        return out

    # ----------------------------------------------------------- projections
    def polar_part(self, in_vars=None):
        """Terms with a negative exponent in any of in_vars (default: all)."""
        idx = self._var_indices(in_vars)
        out = MultiSeries.zero(self.vars, self.max_order, self.min_order)
        out.terms = {
            e: c for e, c in self.terms.items() if any(e[i] < 0 for i in idx)
        }
        return out

    def regular_part(self, in_vars=None):
        idx = self._var_indices(in_vars)
        out = MultiSeries.zero(self.vars, self.max_order, self.min_order)
        out.terms = {
            e: c for e, c in self.terms.items() if all(e[i] >= 0 for i in idx)
        }
        return out

    def _var_indices(self, in_vars):
        if in_vars is None:
            return range(len(self.vars))
        return [self.vars.index(v) for v in in_vars]

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

    def diff_norm(self, other):
        """max |coeff difference| over the intersection window."""
        keys = set(self.terms) | set(other.terms)
        worst = 0.0
        for e in keys:
            if self._above(e) or other._above(e):
                continue
            d = abs(self.terms.get(e, 0) - other.terms.get(e, 0))
            worst = max(worst, d)
        return worst


def _frac_terms(s):
    return all(isinstance(c, Fraction) for c in s.terms.values())


def _geometric(u):
    """(1 + u)^{-1} for a series u with positive total valuation."""
    if any(m < 0 for m in u.min_order) or (0,) * len(u.vars) in u.terms:
        raise NotInvertible("geometric expansion needs valuation >= 1")
    if _budget(u) >= INF:
        if u.is_zero():
            return MultiSeries.const(u.vars, 1, u.max_order, 0)
        raise NotInvertible("cannot invert an untruncated non-monomial series")
    return _power_sum(u, 1, cycle((-1, 1)))


def _budget(u):
    """Highest power of a series without constant term that survives its window."""
    return sum(m for m in u.max_order if m < INF)


def _power_sum(u, c0, coefs):
    """c0 + sum_{k >= 1} coefs[k-1] * u^k in one accumulator, for u without
    constant term or poles: powers up to _budget(u) or until one vanishes;
    coefs stay exact on a Fraction power and become floats otherwise."""
    acc = {(0,) * len(u.vars): c0}
    term = MultiSeries.const(u.vars, 1, u.max_order, 0)
    for c in islice(coefs, _budget(u)):
        term = term * u
        if term.is_zero():
            break
        for e, v in (term * (c if _frac_terms(term) else float(c))).terms.items():
            acc[e] = acc.get(e, 0) + v
    out = MultiSeries.zero(u.vars, u.max_order, 0)
    out.terms = {e: v for e, v in acc.items() if not _is_zero(v)}
    return out


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
