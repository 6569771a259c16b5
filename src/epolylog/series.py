"""Truncated multivariate Laurent series.

The generating series handled here live in a finite list of formal variables
(the label variables of the asymptotic assembly, the coordinates' deformation
variables of a Debye series) and are stored as one dense complex ndarray, one
axis per variable.  Each series carries, per variable, a truncation order
`max_order` (coefficients above it are unknown and silently dropped) and a
pole bound `min_order` (the series is guaranteed to have no terms below it;
for ordinary power series this is 0).  Index 0 of the array is always
min_order: entry i along an axis is the coefficient of exponent
min_order + i, and the array never reaches past max_order.  A pole bound
far below the lowest term therefore costs array space; no caller passes one
(the asymptotic assembly's constants have their -1 term at bound -1).

The operations are the ones the asymptotic assembly needs: series + series,
series * series, scalar * series, exp of a linear series (the leading
monomials' exponents, linear forms in the label variables) and coefficient
lookup, plus exp_column, the one-variable exponential
column that the transport forms share.  `terms` is a read-only dict view
of the nonzero coefficients, {exponent tuple of ints: complex}.

Window semantics follow the usual rules for truncated arithmetic:

* addition intersects knowledge: new max = min(max_a, max_b); the pole bound
  is the weaker of the two.
* multiplication: a Laurent product coefficient at order k mixes orders from
  both factors, so the sound truncation is
  ``new_max = min(max_a + min_b, max_b + min_a)`` per variable, and
  ``new_min = min_a + min_b``.
* exact objects (constants, honest polynomials) use the sentinel order INF so
  they never degrade a window.

A product is one slice-add per nonzero of the sparser factor: the other
factor's array, clipped to the result window, scaled and added at the
nonzero's offset.  exp of sum_i c_i x_i is the outer product over the
variables of the columns exp(c_i x_i), each cut at its variable's window.

numpy is allowed here because kronecker, the one caller that must start
without it, keeps its one-variable Laurent expansions on plain lists and
does not import this module; the callers here already hold their
coefficients in ndarrays (a DebyeSeries value wraps its array unchanged).

Dropping a coefficient above max_order is sound (that knowledge was never
claimed); dropping one below a requested min_order is not, and raises
PoleOverflow.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .errors import PoleOverflow, TruncationTooSmall

INF = 10**9  # sentinel truncation order for exact objects


def _wsum(a, b):
    """Saturating window sum: INF means exact, and exactness is absorbing."""
    if a >= INF or b >= INF:
        return INF
    return a + b


def _window(order, k):
    return (order,) * k if isinstance(order, int) else tuple(order)


class MultiSeries:
    __slots__ = ("vars", "a", "max_order", "min_order")

    def __init__(self, vars, terms, max_order, min_order=0):
        """The series of the coefficients terms, {exponent tuple: number},
        on the window min_order..max_order (an int or one per variable)."""
        vars = tuple(vars)
        k = len(vars)
        max_order, min_order = _window(max_order, k), _window(min_order, k)
        if len(max_order) != k or len(min_order) != k:
            raise ValueError("window length does not match variable count")
        kept = {}
        for e, c in terms.items():
            if len(e) != k:
                raise ValueError("exponent arity mismatch")
            if c == 0 or any(x > m for x, m in zip(e, max_order)):
                continue  # exact zeros and the unknown region are dropped silently
            if any(x < m for x, m in zip(e, min_order)):
                raise PoleOverflow(f"term {e} below pole bound {min_order} in vars {vars}")
            kept[tuple(e)] = c
        hi = [max(x) for x in zip(*kept)] if kept else [x - 1 for x in min_order]
        a = np.zeros([h - l + 1 for l, h in zip(min_order, hi)], dtype=complex)
        for e, c in kept.items():
            a[tuple(x - l for x, l in zip(e, min_order))] = complex(c)
        self._set(vars, a, min_order, max_order)

    def _set(self, vars, a, min_order, max_order):
        self.vars = vars
        self.a = a
        self.min_order = tuple(min_order)
        self.max_order = tuple(max_order)

    @classmethod
    def _of(cls, vars, a, min_order, max_order):
        """The series held by the array a, whose index 0 is the exponent
        min_order (a pole bound far below the lowest term costs array
        space), without copying a or checking it against the window: the
        caller keeps a within max_order."""
        out = cls.__new__(cls)
        out._set(tuple(vars), a, min_order, max_order)
        return out

    @classmethod
    def const(cls, vars, c, max_order):
        """c in a one-element array, on the window 0..max_order (each >= 0)."""
        k = len(vars)
        return cls._of(vars, np.full((1,) * k, complex(c)), (0,) * k, _window(max_order, k))

    @property
    def terms(self):
        """Read-only {exponent tuple: complex} of the nonzero coefficients."""
        idx = np.nonzero(self.a)
        exps = zip(*((i + l).tolist() for i, l in zip(idx, self.min_order)))
        return MappingProxyType(dict(zip(exps, self.a[idx].tolist())))

    def coeff(self, e):
        """Coefficient of the monomial with exponent tuple e (0 if absent)."""
        if len(e) != len(self.vars):
            raise ValueError("exponent arity mismatch")
        if any(x > m for x, m in zip(e, self.max_order)):
            raise TruncationTooSmall(f"order {tuple(e)} beyond window {self.max_order}")
        i = tuple(x - l for x, l in zip(e, self.min_order))
        if all(0 <= x < n for x, n in zip(i, self.a.shape)):
            return self.a[i].item()
        return 0j

    def __repr__(self):
        return (
            f"MultiSeries({self.vars}, {np.count_nonzero(self.a)} terms, "
            f"window {self.min_order}..{self.max_order})"
        )

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _add_into(self, out, lo):
        """Add the array, cut to the box of out (whose index 0 is the
        exponent lo <= self.min_order), into out."""
        src = self.a[tuple(slice(0, max(0, b + n - l)) for l, b, n in zip(self.min_order, lo, out.shape))]
        out[tuple(slice(l - b, l - b + n) for l, b, n in zip(self.min_order, lo, src.shape))] += src

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_vars(other)
        max_o = tuple(min(a, b) for a, b in zip(self.max_order, other.max_order))
        min_o = tuple(map(min, self.min_order, other.min_order))
        top = [min(m, max(l1 + n1, l2 + n2) - 1) for m, l1, n1, l2, n2 in zip(
            max_o, self.min_order, self.a.shape, other.min_order, other.a.shape)]
        out = np.zeros([max(0, t - l + 1) for l, t in zip(min_o, top)], dtype=complex)
        self._add_into(out, min_o)
        other._add_into(out, min_o)
        return MultiSeries._of(self.vars, out, min_o, max_o)

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return MultiSeries._of(self.vars, self.a * other, self.min_order, self.max_order)
        self._check_vars(other)
        max_o = tuple(
            min(_wsum(ma, nb), _wsum(mb, na))
            for ma, na, mb, nb in zip(
                self.max_order, self.min_order, other.max_order, other.min_order
            )
        )
        min_o = tuple(map(sum, zip(self.min_order, other.min_order)))
        f, g = sorted((self.a, other.a), key=np.count_nonzero)
        shape = [max(0, min(nf + ng - 1, m - l + 1))
                 for nf, ng, m, l in zip(f.shape, g.shape, max_o, min_o)]
        out = np.zeros(shape, dtype=complex)
        f = f[tuple(map(slice, shape))]  # nonzeros beyond the window add nothing
        for idx in zip(*np.nonzero(f)):
            src = g[tuple(slice(0, n - i) for i, n in zip(idx, shape))]
            out[tuple(slice(i, i + n) for i, n in zip(idx, src.shape))] += f[idx] * src
        return MultiSeries._of(self.vars, out, min_o, max_o)

    def __rmul__(self, other):
        return self.__mul__(other)

    # ------------------------------------------------------- transcendental
    def exp(self):
        """exp of a linear series sum_i c_i x_i (no constant term, no poles,
        no term of degree 2 or more): the outer product over the variables
        of exp_column(c_i, max_order_i + 1), a length-1 column where c_i = 0.
        A nonzero c_i on an INF window has no finite expansion and raises
        TruncationTooSmall."""
        if any(m < 0 for m in self.min_order):
            raise ValueError("exp needs a series without poles")
        exps = np.argwhere(self.a) + self.min_order  # one row per nonzero, each >= 0
        bad = exps[exps.sum(axis=1) != 1].tolist()
        if bad:
            raise ValueError(f"exp needs a linear series, not the term {tuple(bad[0])}")
        c = np.zeros(len(self.vars), dtype=complex)
        c[exps.argmax(axis=1)] = self.a[self.a != 0]  # degree 1 is one unit exponent
        out = np.ones((), dtype=complex)
        for ci, m in zip(c, self.max_order):
            if ci != 0 and m >= INF:
                raise TruncationTooSmall("exp of a series untruncated in a variable it contains")
            out = np.multiply.outer(out, exp_column(ci, m + 1 if ci != 0 else 1))
        return MultiSeries._of(self.vars, out, (0,) * len(self.vars), self.max_order)


def exp_column(x, n):
    """Coefficients of exp(x*b) up to b^(n-1), on a trailing axis after the
    shape of x (one number or an array of them): the running products of
    x/k."""
    x = np.asarray(x, dtype=complex)[..., None]
    steps = np.concatenate([np.ones_like(x), x / np.arange(1, n)], axis=-1)
    return np.cumprod(steps, axis=-1)
