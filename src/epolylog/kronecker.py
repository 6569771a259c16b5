"""Elliptic building blocks: theta, Eisenstein functions, the two-variable
elliptic kernel F, and the one-form coefficient ladder it generates.

Conventions.  e(x) = exp(2*pi*i*x), q = e(tau) with Im(tau) > 0.  Points on
the curve are carried as the real pair (s, r) with xi = s + r*tau: keeping
the decomposition explicit fixes branches (z^(1/2) = e(xi/2)) and makes the
non-holomorphic coordinate r available to the one-form machinery (nu is
2*pi*i*dr).

The kernel F(xi, eta) has two interchangeable evaluators:

* theta_ratio       theta'(0) theta(xi+eta) / (theta(xi) theta(eta))
* double_q_series   the absolutely convergent double q-series, after
                    reducing r-coordinates into [-1/2, 1/2) by
                    quasi-periodicity (each tau-shift of xi contributes a
                    factor 1/e(eta)) and resumming the inner geometric series

Its Laurent expansion in a formal second slot alpha -- a simple pole times
the exponential of weighted Eisenstein functions -- is the generating
series of the one-form coefficients (omega_coefficients).  That expansion
is one-variable, so it is kept on plain coefficient lists in the context's
scalar type (_mul, _exp): the module needs neither numpy nor the series
module, and a double-precision kernel evaluation loads neither numpy nor
mpmath.

Eisenstein sums use the conditionally convergent double-sum order: the inner
(integer) direction is summed in closed form via cotangent polynomials,
which is its exact limit, and the outer direction is accumulated
symmetrically n, -n.  Reordering is not allowed.  One walk over the rows
serves the whole ladder E_1 .. E_K at a point: each row's two cotangents
cot(pi(xi +/- n tau)) are computed once and fed to every j's polynomial,
while each j keeps its own total and stops after its own two settled rows,
so E_j does not depend on K.  The lattice constants e_j share the rows'
cot(pi n tau) the same way, computed once per context.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import BadModulus, OnLattice, OnSingularLocus, TruncationTooSmall
from .precision import get_context

_LATTICE_TOL = 1e-12


@lru_cache(maxsize=None)
def _cot_poly(j):
    """Coefficients (low to high, exact) of the polynomial P_j with
    sum_m 1/(x+m)^j = pi^j P_j(cot(pi x));  P_1 = c, P_{j+1} = (1+c^2)P_j'/j."""
    if j == 1:
        return (Fraction(0), Fraction(1))
    prev = _cot_poly(j - 1)
    deriv = tuple(prev[k + 1] * (k + 1) for k in range(len(prev) - 1))
    out = [Fraction(0)] * (len(prev) + 1)
    for k, c in enumerate(deriv):
        out[k] += c
        out[k + 2] += c
    return tuple(c / (j - 1) for c in out)


@lru_cache(maxsize=None)
def _bernoulli(n):
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += Fraction(math.comb(n + 1, j)) * _bernoulli(j)
    return -total / (n + 1)


def zeta_even(j):
    """zeta(j) for positive even j, from the Bernoulli closed form."""
    if j <= 0 or j % 2:
        raise ValueError("even positive index required")
    k = j // 2
    b = _bernoulli(j)
    return float((-1) ** (k + 1) * b * Fraction(2) ** (j - 1)) * math.pi**j / math.factorial(j)


class EllipticPoint:
    """A point on the universal cover, stored as the real pair (s, r) with
    xi = s + r*tau.  The pair is never re-derived from xi, so branch data
    survives arithmetic exactly."""

    __slots__ = ("s", "r")

    def __init__(self, s, r):
        self.s = float(s)
        self.r = float(r)

    def z(self, ctx):
        return ctx.prec.e(self.s + self.r * ctx.tau)

    def __add__(self, other):
        return EllipticPoint(self.s + other.s, self.r + other.r)

    def shift(self, dr):
        """The point moved by dr periods tau."""
        return EllipticPoint(self.s, self.r + dr)

    def is_lattice(self):
        ds = abs(self.s - round(self.s))
        dr = abs(self.r - round(self.r))
        return ds < _LATTICE_TOL and dr < _LATTICE_TOL

    def __repr__(self):
        return f"EllipticPoint(s={self.s!r}, r={self.r!r})"


class LatticeContext:
    """Fixed modulus tau plus truncation policy.

    Both truncations are derived from |q| and the working precision:
    q_series_cutoff bounds the number of q-powers in theta products and the
    kernel's double series; lattice_cutoff = q_series_cutoff + 4 bounds the
    rows of the outer symmetric Eisenstein sum (the inner direction is
    summed in closed form, its exact limit).  Moduli with |q| > 0.7 are
    refused: every truncation bound here assumes a reasonable decay rate,
    and the conditionally convergent sums degrade badly as |q| -> 1.
    """

    def __init__(self, tau, precision=None):
        self.prec = get_context(precision)
        self.tau = self.prec.complex(tau)
        if self.prec.im(self.tau) <= 0:
            raise BadModulus("Im(tau) must be positive")
        self.q = self.prec.e(self.tau)
        qa = abs(self.q)
        if qa > 0.7:
            raise BadModulus(f"|q| = {qa:.3f} exceeds the supported range (0.7)")
        decade = -math.log10(qa)
        self.q_series_cutoff = int(math.ceil((self.prec.digits + 4) / decade)) + 2
        self.lattice_cutoff = self.q_series_cutoff + 4
        self._e_cache = {}
        self._lattice_cots = None
        self._theta_prime0 = None

    def e(self, x):
        return self.prec.e(x)

    def __repr__(self):
        return f"LatticeContext(tau={complex(self.tau)!r}, |q|={abs(self.q):.4g})"


# ----------------------------------------------------------------- theta


def theta(p, ctx):
    """The odd theta function, normalized so theta'(0) = 2*pi*i*q^(1/12)
    prod(1-q^j)^2.  Arbitrary (s, r) handled by exact quasi-periodicity
    reduction into s, r in [0, 1)."""
    m = math.floor(p.s)
    k = math.floor(p.r)
    s0 = p.s - m
    r0 = p.r - k
    e = ctx.e
    xi0 = s0 + r0 * ctx.tau
    sign = -1 if (m + k) % 2 else 1
    pref = sign * e(-(k * k) * ctx.tau / 2) * e(-k * xi0)
    return pref * _theta_reduced(s0, r0, ctx)


def _theta_reduced(s0, r0, ctx):
    e = ctx.e
    xi0 = s0 + r0 * ctx.tau
    z = e(xi0)
    val = e(ctx.tau / 12) * (e(xi0 / 2) - e(-xi0 / 2))
    q = ctx.q
    qj = q
    for _ in range(ctx.q_series_cutoff):
        val *= (1 - qj * z) * (1 - qj / z)
        qj *= q
    return val


def theta_prime0(ctx):
    """theta'(0), from the closed form (derivative of the prefactor times
    the product at z = 1)."""
    if ctx._theta_prime0 is None:
        q = ctx.q
        prod = ctx.prec.complex(1)
        qj = q
        for _ in range(ctx.q_series_cutoff):
            prod *= (1 - qj) ** 2
            qj *= q
        ctx._theta_prime0 = ctx.prec.two_pi_i * ctx.e(ctx.tau / 12) * prod
    return ctx._theta_prime0


# ------------------------------------------------------------- eisenstein


def _row_constants(j, prec):
    """(coefficients of P_j high to low, pi^j) in the context's scalar type,
    each exact coefficient rounded once; built once per precision context."""
    row = prec.cache.get(j)
    if row is None:
        coeffs = tuple(prec.real(c) for c in reversed(_cot_poly(j)))
        row = prec.cache[j] = (coeffs, prec.pi**j)
    return row


def _inner_row(row, c, prec):
    """sum over the integer direction of 1/(x + m)^j, in closed form, from
    the row constants of j and c = cot(pi x)."""
    coeffs, pi_j = row
    acc = prec.zero
    for coef in coeffs:
        acc = acc * c + coef
    return pi_j * acc


def eisenstein_E(K, p, ctx):
    """[E_1(p), ..., E_K(p)]: each the conditionally convergent lattice sum
    of 1/(xi + m + n*tau)^j, inner direction exact, outer symmetric.

    One walk over the rows n serves every j: each row's two cotangents are
    computed once, and each j runs its own cotangent polynomial on them,
    keeps its own total and stops at its own row, so E_j is the same
    whichever K it was asked with."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if p.is_lattice():
        raise OnLattice(f"E_j pole at {p!r}")
    tau = ctx.tau
    prec = ctx.prec
    rows = [_row_constants(j, prec) for j in range(1, K + 1)]
    c = prec.cot_pi(p.s + p.r * tau)
    totals = [_inner_row(row, c, prec) for row in rows]
    eps = 10.0 ** (-(prec.digits + 2))
    settled = [0] * K
    live = range(K)  # the j - 1 whose sums have not stopped
    n_min = int(abs(p.r)) + 1
    r = prec.real(p.r)  # r -/+ n in the context's type, not rounded to a double
    for n in range(1, ctx.lattice_cutoff + n_min):
        c_up = prec.cot_pi(p.s + (r + n) * tau)
        c_down = prec.cot_pi(p.s + (r - n) * tau)
        for i in live:
            inc = _inner_row(rows[i], c_up, prec) + _inner_row(rows[i], c_down, prec)
            totals[i] += inc
            if n >= n_min and abs(inc) < eps * (abs(totals[i]) + 1):
                settled[i] += 1
            else:
                settled[i] = 0
        live = [i for i in live if settled[i] < 2]
        if not live:
            break
    return totals


def lattice_constant(j, ctx):
    """e_j: the lattice sum without the origin; vanishes for odd j.  The
    row cotangents cot(pi n tau) do not depend on j and are computed once
    per context."""
    if j < 1:
        raise ValueError("index must be >= 1")
    if j % 2:
        return ctx.prec.complex(0)
    if j in ctx._e_cache:
        return ctx._e_cache[j]
    prec = ctx.prec
    if ctx._lattice_cots is None:
        ctx._lattice_cots = [prec.cot_pi(n * ctx.tau) for n in range(1, ctx.lattice_cutoff + 1)]
    row = _row_constants(j, prec)
    # 2 zeta(j) from the Bernoulli closed form, its rational factor rounded once
    factor = (-1) ** (j // 2 + 1) * _bernoulli(j) * Fraction(2) ** j / math.factorial(j)
    total = prec.complex(prec.real(factor) * row[1])
    eps = 10.0 ** (-(prec.digits + 2))
    settled = 0
    for c in ctx._lattice_cots:
        inc = 2 * _inner_row(row, c, prec)  # even j: n and -n agree
        total += inc
        if abs(inc) < eps * (abs(total) + 1):
            settled += 1
            if settled >= 2:
                break
        else:
            settled = 0
    ctx._e_cache[j] = total
    return total


# ----------------------------------------------------------------- kernel


def kronecker_F(xi, eta, ctx, definition="theta_ratio"):
    """The elliptic kernel F(xi, eta) at two EllipticPoints, by the
    evaluator named by definition: "theta_ratio" or "double_q_series"
    (OnSingularLocus on the lattice, TruncationTooSmall when the q-series
    does not settle within its cutoff)."""
    if definition == "theta_ratio":
        return _F_theta(xi, eta, ctx)
    if definition == "double_q_series":
        return _F_qseries(xi, eta, ctx)
    raise ValueError(f"unknown definition {definition!r}")


def _F_theta(xi, eta, ctx):
    if xi.is_lattice() or eta.is_lattice():
        raise OnSingularLocus("kernel pole: argument on the lattice")
    return theta_prime0(ctx) * theta(xi + eta, ctx) / (theta(xi, ctx) * theta(eta, ctx))


def _F_qseries(xi, eta, ctx):
    if xi.is_lattice() or eta.is_lattice():
        raise OnSingularLocus("kernel pole: argument on the lattice")
    # reduce r into [-1/2, 1/2): the resummed series decays like
    # |q|^(n(1-|r|)), so the nearest-integer representative conditions best
    k = math.floor(xi.r + 0.5)
    l = math.floor(eta.r + 0.5)
    x0 = xi.shift(dr=-k)
    e0 = eta.shift(dr=-l)
    z = x0.z(ctx)
    w = e0.z(ctx)
    # tau-shifts of xi cost e(eta)^-1 with the *unreduced* eta, and shifts
    # of eta cost e(xi0)^-1; together w0^-k z0^-l q^-kl
    factor = w ** (-k) * z ** (-l) * ctx.q ** (-k * l)
    if abs(1 - z) < _LATTICE_TOL or abs(1 - w) < _LATTICE_TOL:
        raise OnSingularLocus("kernel pole after reduction")
    total = z / (1 - z) + 1 / (1 - w)
    q = ctx.q
    eps = 10.0 ** (-(ctx.prec.digits + 2))
    qn = ctx.prec.complex(1)
    wn = ctx.prec.complex(1)
    win = ctx.prec.complex(1)
    for n in range(1, 8 * ctx.q_series_cutoff):
        qn *= q
        wn *= w
        win /= w
        d1 = 1 - qn * z
        d2 = 1 - qn / z
        if abs(d1) < _LATTICE_TOL or abs(d2) < _LATTICE_TOL:
            raise OnSingularLocus("kernel pole after reduction")
        inc = wn * (qn * z) / d1 - win * (qn / z) / d2
        total += inc
        if abs(inc) < eps * (abs(total) + 1):
            break
    else:
        raise TruncationTooSmall(f"kernel q-series unsettled after {n} terms")
    return -ctx.prec.two_pi_i * total * factor


def _mul(f, g, n):
    """First n coefficients of the product of two power series given as
    coefficient lists (low to high): the contributions to each coefficient
    are summed over the nonzero entries of f in ascending order."""
    out = [0] * n
    for i, c in enumerate(f[:n]):
        if c != 0:
            for k, y in enumerate(g[: n - i], i):
                out[k] = out[k] + c * y
    return out


def _exp(g):
    """exp of the power series g (a list with g[0] == 0) to len(g)
    coefficients: the powers of g weighted by 1/k! and summed in one
    accumulator.  1/k! is a float when the coefficients are machine numbers
    and stays an exact Fraction otherwise, so mpmath coefficients keep their
    own precision."""
    n = len(g)
    machine = all(isinstance(c, (int, float, complex)) for c in g)
    acc = [1] + [0] * (n - 1)
    term = acc
    for k in range(1, n):
        term = _mul(term, g, n)
        w = Fraction(1, math.factorial(k))
        w = float(w) if machine else w
        acc = [a + t * w if t != 0 else a for a, t in zip(acc, term)]
    return acc


def _F_series(xi, K, ctx):
    """Laurent coefficients of F(xi, alpha) in the formal variable alpha,
    the list of alpha^-1 .. alpha^(K-1): the simple pole 1/alpha times
    exp(sum_j -(-1)^j (E_j(xi) - e_j) alpha^j / j), so entry i is the
    coefficient of alpha^i in the exponential."""
    if xi.is_lattice():
        raise OnSingularLocus("kernel pole: xi on the lattice")
    arg = [0]
    for j, E in enumerate(eisenstein_E(K, xi, ctx), 1):
        val = E - lattice_constant(j, ctx)
        arg.append(-((-1) ** j) * val / j)
    return _exp(arg)


# ---------------------------------------------------------------- one-forms


def omega_coefficients(p, K, ctx):
    """Values of the one-form coefficients at the point p: entry k is the
    dxi-coefficient of the alpha^(k-1) term of e(alpha*r) F(xi; alpha).
    The series are expanded in the context's scalar type and only the
    returned values are collapsed to machine complex numbers."""
    if K < 0:
        raise ValueError("K must be >= 0")
    fser = _F_series(p, K + 1, ctx)
    r2pi = ctx.prec.two_pi_i * p.r
    eser = [r2pi**k / math.factorial(k) for k in range(K + 1)]
    return [ctx.prec.to_complex(c) for c in _mul(fser, eser, K + 1)]
