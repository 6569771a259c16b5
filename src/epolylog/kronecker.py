"""Elliptic building blocks: theta, Eisenstein functions, the two-variable
elliptic kernel F, and the one-form coefficient ladder it generates.

Conventions.  e(x) = exp(2*pi*i*x), q = e(tau) with Im(tau) > 0.  Points on
the curve are carried as the real pair (s, r) with xi = s + r*tau: keeping
the decomposition explicit fixes branches (z^(1/2) = e(xi/2)) and makes the
non-holomorphic coordinate r available to the one-form machinery (nu is
2*pi*i*dr).

The kernel F(xi, eta) has two interchangeable evaluators, behind one
lattice check in kronecker_F:

* theta_ratio       theta'(0) theta(xi+eta) / (theta(xi) theta(eta)), where
                    theta and theta'(0) share one truncated q-product
* double_q_series   the absolutely convergent double q-series, after
                    reducing r-coordinates into [-1/2, 1/2) by
                    quasi-periodicity (each tau-shift of xi contributes a
                    factor 1/e(eta)) and resumming the inner geometric series

Its Laurent expansion in a formal second slot alpha -- a simple pole times
the exponential of weighted Eisenstein functions -- generates the one-form
coefficients (omega_coefficients): omega_0 .. omega_K need E_1 .. E_K and
K + 1 exponential coefficients, no E_j for K = 0.  It is one-variable, so
it is kept on plain coefficient lists in the context's scalar type (_mul,
_exp): the module needs neither numpy nor the series module, and a
double-precision kernel evaluation loads neither numpy nor mpmath.

Eisenstein sums use the conditionally convergent double-sum order: the inner
(integer) direction is summed in closed form via cotangent polynomials,
which is its exact limit, and the outer direction is accumulated
symmetrically n, -n.  Reordering is not allowed.  One walk over the rows
serves the whole ladder E_1 .. E_K at a point: each row's two cotangents
cot(pi(xi +/- n tau)) are computed once and fed to every j's polynomial,
and each j keeps its own total.  The walk has a fixed length, the
context's lattice_cutoff rows past |r|, and nothing stops early, so E_j
does not depend on K.  The lattice constants e_j share the rows'
cot(pi n tau) the same way, computed once per context.

The cotangent polynomial P_j has the parity of j, so each row runs Horner
over its nonzero coefficients only, two degrees a step, and the walk moves
both cotangents of a row through that loop inline: at double precision the
cost of a call per row, cotangent and j was most of an evaluation.  The
walk is chosen once per call, by precision.  The extended walk runs Horner
in c^2, each cotangent squared once and pi^j applied once per row: that
moves E_j only at the 30-digit floor (about 1e-27 relative), so an output
collapsed to doubles moves only if it sits that close to a rounding tie.
The double walk steps (acc * c) * c + coef, which rounds as the full
Horner scheme over the zero coefficients did and which the golden values
pin with ==; acc * c^2 waits there for a change that re-pins them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from .errors import BadModulus, OnSingularLocus, OutOfRegion, TruncationTooSmall
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
    survives arithmetic exactly.  Non-finite coordinates are refused with
    OutOfRegion."""

    __slots__ = ("s", "r")

    def __init__(self, s, r):
        self.s = float(s)
        self.r = float(r)
        if not (math.isfinite(self.s) and math.isfinite(self.r)):
            raise OutOfRegion(f"non-finite coordinate in {self!r}")

    def z(self, ctx):
        return ctx.prec.e(self.s + self.r * ctx.tau)

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
    kernel's double series; lattice_cutoff = q_series_cutoff + 4 is the
    fixed number of rows the outer symmetric Eisenstein sum walks, past |r|
    for E_j, with no early stop (the inner direction is summed in closed
    form, its exact limit).  Moduli with |q| > 0.7 are
    refused: every truncation bound here assumes a reasonable decay rate,
    and the conditionally convergent sums degrade badly as |q| -> 1.  So
    is a tau whose |q| is not a positive double (a NaN or infinite tau, or
    an Im(tau) so large that |q| underflows to 0): it leaves no decay rate
    to count terms by.
    """

    def __init__(self, tau, precision=None):
        self.prec = get_context(precision)
        self.tau = self.prec.complex(tau)
        if not self.tau.imag > 0:  # refuses a NaN Im(tau) as well
            raise BadModulus("Im(tau) must be positive")
        self.q = self.prec.e(self.tau)
        qa = float(abs(self.q))
        if not 0 < qa <= 0.7:
            raise BadModulus(f"|q| = {qa:.3g} is outside the supported range (0, 0.7]")
        decade = -math.log10(qa)
        self.q_series_cutoff = int(math.ceil((self.prec.digits + 4) / decade)) + 2
        self.lattice_cutoff = self.q_series_cutoff + 4
        self._e_cache = {}
        self._lattice_cots = None
        self._theta_prime0 = None

    def __repr__(self):
        return f"LatticeContext(tau={complex(self.tau)!r}, |q|={float(abs(self.q)):.4g})"


def _quasi_period_factor(form, where):
    """form(): the factor quasi-periodicity moves a point by, in the
    context's scalar type.  OutOfRegion when it leaves the double range:
    cmath.exp and complex powers raise OverflowError there, and a product
    of finite doubles overflows to inf or NaN, which times 0 is not 0.
    mpmath scalars do not overflow."""
    try:
        f = form()
    except OverflowError:
        f = math.inf
    if f * 0 != 0:
        raise OutOfRegion(f"the quasi-periodicity factor at {where} leaves the double range")
    return f


# ----------------------------------------------------------------- theta


def _q_product(z, ctx, val):
    """val * prod_j (1 - q^j z)(1 - q^j / z) over the context's
    q_series_cutoff factors, each pair multiplied into val in turn."""
    q = ctx.q
    qj = q
    for _ in range(ctx.q_series_cutoff):
        val *= (1 - qj * z) * (1 - qj / z)
        qj *= q
    return val


def theta(p, ctx):
    """The odd theta function, normalized so theta'(0) = 2*pi*i*q^(1/12)
    prod(1-q^j)^2.  p carries s and r as doubles or as the context's reals;
    arbitrary (s, r) are handled by exact quasi-periodicity reduction, in
    the context's reals, into s, r in [0, 1); the reduced value is q^(1/12)
    (z^(1/2) - z^(-1/2)) times the q-product at z = e(xi0)."""
    m = math.floor(p.s)
    k = math.floor(p.r)
    e, real = ctx.prec.e, ctx.prec.real
    xi0 = (real(p.s) - m) + (real(p.r) - k) * ctx.tau
    sign = -1 if (m + k) % 2 else 1
    pref = _quasi_period_factor(lambda: sign * e(-(k * k) * ctx.tau / 2) * e(-k * xi0), p)
    val = e(ctx.tau / 12) * (e(xi0 / 2) - e(-xi0 / 2))
    return pref * _q_product(e(xi0), ctx, val)


def theta_prime0(ctx):
    """theta'(0), from the closed form: the derivative of theta's prefactor
    at 0 times theta's q-product at z = 1."""
    if ctx._theta_prime0 is None:
        prec = ctx.prec
        prod = _q_product(prec.one, ctx, prec.one)
        ctx._theta_prime0 = prec.two_pi_i * prec.e(ctx.tau / 12) * prod
    return ctx._theta_prime0


# ------------------------------------------------------------- eisenstein


@lru_cache(maxsize=None)
def _row_constants(j, prec):
    """(leading coefficient of P_j, its other nonzero coefficients high to
    low, j odd, pi^j) in the context's scalar type, each exact coefficient
    rounded once; built once per precision context.  P_j has the parity of
    j, so its nonzero coefficients are those of degree j, j - 2, ... down
    to 1 or 0."""
    coeffs = [prec.real(c) for c in reversed(_cot_poly(j)[j % 2 :: 2])]
    return coeffs[0], tuple(coeffs[1:]), j % 2 == 1, prec.pi**j


def _inner_row(row, c):
    """sum over the integer direction of 1/(x + m)^j, in closed form, from
    the row constants of j and c = cot(pi x): Horner in c from the leading
    coefficient, two degrees a step, each step (acc * c) * c + coef."""
    lead, rest, odd, pi_j = row
    acc = lead
    for coef in rest:
        acc = acc * c * c + coef
    if odd:
        acc = acc * c
    return pi_j * acc


def eisenstein_E(K, p, ctx):
    """[E_1(p), ..., E_K(p)]: each the conditionally convergent lattice sum
    of 1/(xi + m + n*tau)^j, inner direction exact, outer symmetric.

    One walk over the rows n = 1 .. lattice_cutoff + int(|r|) serves every
    j: each row's two cotangents are computed once, and each j runs its own
    cotangent polynomial on them and keeps its own total.  Every j walks
    every row, so E_j is the same whichever K it was asked with.  The
    extended walk runs Horner in c^2, the double walk (acc * c) * c steps
    (module docstring)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if p.is_lattice():
        raise OnSingularLocus(f"E_j pole at {p!r}")
    tau = ctx.tau
    prec = ctx.prec
    cot_pi = prec.cot_pi
    rows = [_row_constants(j, prec) for j in range(1, K + 1)]
    c = cot_pi(p.s + p.r * tau)
    totals = [_inner_row(row, c) for row in rows]
    r = prec.real(p.r)  # r -/+ n in the context's type, not rounded to a double
    walk = range(1, ctx.lattice_cutoff + int(abs(p.r)) + 1)
    if prec.digits > 16:  # Horner in c^2, chosen once per call
        for n in walk:
            c_up = cot_pi(p.s + (r + n) * tau)
            c_down = cot_pi(p.s + (r - n) * tau)
            s_up, s_down = c_up * c_up, c_down * c_down
            for i, (lead, rest, odd, pi_j) in enumerate(rows):
                up = down = lead
                for coef in rest:
                    up = up * s_up + coef
                    down = down * s_down + coef
                if odd:
                    up = up * c_up
                    down = down * c_down
                totals[i] = totals[i] + pi_j * (up + down)
        return totals
    for n in walk:
        c_up = cot_pi(p.s + (r + n) * tau)
        c_down = cot_pi(p.s + (r - n) * tau)
        for i, (lead, rest, odd, pi_j) in enumerate(rows):
            # _inner_row at c_up and c_down, inline; the steps stay
            # (acc * c) * c, which the golden values pin
            up = down = lead
            for coef in rest:
                up = up * c_up * c_up + coef
                down = down * c_down * c_down + coef
            if odd:
                up = up * c_up
                down = down * c_down
            totals[i] = totals[i] + (pi_j * up + pi_j * down)
    return totals


def lattice_constant(j, ctx):
    """e_j: the lattice sum without the origin over the rows n = 1 ..
    lattice_cutoff, all of them; vanishes for odd j.  The row cotangents
    cot(pi n tau) do not depend on j and are computed once per context."""
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
    total = prec.complex(prec.real(factor) * row[3])
    for c in ctx._lattice_cots:
        total += 2 * _inner_row(row, c)  # even j: n and -n agree
    ctx._e_cache[j] = total
    return total


# ----------------------------------------------------------------- kernel


def kronecker_F(xi, eta, ctx, definition="theta_ratio"):
    """The elliptic kernel F(xi, eta) at two EllipticPoints, by the
    evaluator named by definition: "theta_ratio" or "double_q_series"
    (OnSingularLocus on the lattice, TruncationTooSmall when the q-series
    does not settle within its cutoff).  At double precision a value whose
    modulus is not a finite normal double (an overflow, or lost digits) is
    OutOfRegion."""
    if xi.is_lattice() or eta.is_lattice():
        raise OnSingularLocus("kernel pole: argument on the lattice")
    if definition == "theta_ratio":
        f = _F_theta(xi, eta, ctx)
    elif definition == "double_q_series":
        f = _F_qseries(xi, eta, ctx)
    else:
        raise ValueError(f"unknown definition {definition!r}")
    modulus = math.hypot(f.real, f.imag)
    if ctx.prec.complex is complex and not sys.float_info.min <= modulus < math.inf:
        raise OutOfRegion(f"F = {f} at {xi!r}, {eta!r} is not a finite normal double")
    return f


def _F_theta(xi, eta, ctx):
    # the sum point's coordinates are summed in the context's reals: a sum
    # of doubles would cap a 30-digit F near 16 digits
    real = ctx.prec.real
    both = SimpleNamespace(s=real(xi.s) + real(eta.s), r=real(xi.r) + real(eta.r))
    return theta_prime0(ctx) * theta(both, ctx) / (theta(xi, ctx) * theta(eta, ctx))


def _F_qseries(xi, eta, ctx):
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
    factor = _quasi_period_factor(lambda: w ** (-k) * z ** (-l) * ctx.q ** (-k * l), (xi, eta))
    # only the n = 0 denominators can vanish: for n >= 1 the reduced
    # |q^n z| and |q^n / z| are at most |q|^(1/2), and LatticeContext
    # refuses |q| > 0.7, so 1 - q^n z^(+-1) stays above 1 - 0.7^(1/2) > 0.16
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
        a, b = qn * z, qn / z
        inc = wn * a / (1 - a) - win * b / (1 - b)
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


@lru_cache(maxsize=None)
def _inv_factorial(k, prec):
    """1/k!, rounded once to the real scalar of the precision context."""
    return prec.real(Fraction(1, math.factorial(k)))


def _exp(g, prec):
    """exp of g (a series list, g[0] == 0) to len(g) coefficients: the powers
    g^k weighted by 1/k! in prec's reals, so mpmath keeps its digits.  g^k[m]
    sums g^(k-1)[i] g[m - i] over i = k - 1 .. m - 1, the full product's order
    less its c * 0 terms, and is written over g^(k-1) from the top m down."""
    n = len(g)
    acc = [1] + [0] * (n - 1)
    term = acc[:]
    for k in range(1, n):
        w = _inv_factorial(k, prec)
        for m in range(n - 1, k - 1, -1):
            s = 0
            for i in range(k - 1, m):
                if term[i] != 0:
                    s += term[i] * g[m - i]
            term[m] = s
            if s != 0:
                acc[m] += s * w
    return acc


def _F_series(xi, K, ctx):
    """Laurent coefficients of F(xi, alpha) at alpha^-1 .. alpha^(K-1): the
    pole 1/alpha times exp(sum_j -(-1)^j (E_j(xi) - e_j) alpha^j / j), so
    entry i is the coefficient of alpha^i in the exponential and needs only
    E_1 .. E_i.  K = 0 gives [1] and calls no Eisenstein function."""
    if xi.is_lattice():
        raise OnSingularLocus("kernel pole: xi on the lattice")
    if K == 0:
        return [1]
    arg = [0]
    for j, E in enumerate(eisenstein_E(K, xi, ctx), 1):
        arg.append(-((-1) ** j) * (E - lattice_constant(j, ctx)) / j)
    return _exp(arg, ctx.prec)


# ---------------------------------------------------------------- one-forms


def omega_coefficients(p, K, ctx):
    """Values of the one-form coefficients at the point p: entry k is the
    dxi-coefficient of the alpha^(k-1) term of e(alpha*r) F(xi; alpha), so
    omega_0 .. omega_K need E_1 .. E_K (none for K = 0).  The series are kept
    in the context's scalar type; only the returned values become complex."""
    if K < 0:
        raise ValueError("K must be >= 0")
    fser = _F_series(p, K, ctx)
    r2pi = ctx.prec.two_pi_i * p.r
    eser = [r2pi**k / math.factorial(k) for k in range(K + 1)]
    return [ctx.prec.to_complex(c) for c in _mul(fser, eser, K + 1)]
