"""Independent references for the benchmark's correctness checks.

None of these call into ``epolylog``: the Debye coefficients come from direct
double sums in numpy, the kernel values from mpmath's Jacobi theta function
at a higher working precision.  They run outside the timed region.
"""

import math

import mpmath
import numpy as np


def _exp_row(log, K):
    """Coefficients of exp(-b * log) up to b^(K-1)."""
    return np.array([(-log) ** k / math.factorial(k) for k in range(K)], dtype=complex)


def _terms_needed(tmax, eps=1e-20):
    return max(16, int(math.ceil(math.log(eps) / math.log(tmax))) + 8)


def debye_coefficients(ts, logs, K):
    """Taylor coefficients (order < K in each variable) of the Debye
    generating series at a point of the open unit polydisk, with the
    prefactor t^(-b) taken on the branch given by ``logs``.

    depth 1:  sum_{a>=1} t^(a-b) / (a - b)
    depth 2:  sum_{a,c>=1} t1^(a-b1) t2^(c-b2) / ((a - b1)(a + c - b1 - b2))

    Each coefficient is a direct sum over a (and c), truncated once the
    geometric tail drops below 1e-20, so the result is exact at order K
    rather than a truncated series evaluated at a point.
    """
    if len(ts) == 1:
        (t,), (log,) = ts, logs
        N = _terms_needed(abs(t))
        a = np.arange(1, N + 1, dtype=float)
        ta = t**a
        body = np.array([np.sum(ta / a ** (m + 1)) for m in range(K)])
        return np.convolve(_exp_row(log, K), body)[:K]
    t1, t2 = ts
    l1, l2 = logs
    N = _terms_needed(max(abs(t1), abs(t2)))
    a = np.arange(1, N + 1, dtype=float)
    total = a[:, None] + a[None, :]
    inv_total = 1.0 / total
    t2c = t2**a
    # V[a, k] = sum_c t2^c (a + c)^-(k+1)
    V = np.empty((N, 2 * K - 1), dtype=complex)
    power = np.ones_like(total)
    for k in range(2 * K - 1):
        power = power * inv_total
        V[:, k] = power @ t2c
    # T[i, k] = sum_a t1^a a^-(i+1) V[a, k]
    W = np.array([t1**a / a ** (i + 1) for i in range(K)])
    T = W @ V
    # expand (b1 + b2)^k and collect b1^x b2^y
    R = np.zeros((K, K), dtype=complex)
    for x in range(K):
        for y in range(K):
            R[x, y] = sum(math.comb(y + p, p) * T[x - p, y + p] for p in range(x + 1))
    E1, E2 = _exp_row(l1, K), _exp_row(l2, K)
    out = np.zeros((K, K), dtype=complex)
    for u in range(K):
        for v in range(K):
            out[u:, v:] += E1[u] * E2[v] * R[: K - u, : K - v]
    return out


def _theta1(z, nome):
    return mpmath.jtheta(1, mpmath.pi * z, nome)


def kronecker_reference(xi, eta, tau, dps=45):
    """F(xi, eta) = theta'(0) theta(xi + eta) / (theta(xi) theta(eta)), with
    points given as real pairs (s, r) meaning s + r*tau."""
    with mpmath.workdps(dps):
        t = mpmath.mpc(tau.real, tau.imag)
        nome = mpmath.expjpi(t)
        x = mpmath.mpf(xi[0]) + mpmath.mpf(xi[1]) * t
        y = mpmath.mpf(eta[0]) + mpmath.mpf(eta[1]) * t
        d0 = mpmath.jtheta(1, 0, nome, 1)
        return +(mpmath.pi * d0 * _theta1(x + y, nome) / (_theta1(x, nome) * _theta1(y, nome)))


def omega_reference(xi, tau, K, dps=45, nodes=48, radius=0.05):
    """[omega_0 .. omega_K]: omega_k is the coefficient of alpha^(k-1) in
    e(alpha r) F(xi, alpha).  alpha e(alpha r) F(xi, alpha) is analytic on
    |alpha| < |nearest non-zero lattice point| (>= 0.3 for the benchmark's
    moduli), so its Taylor coefficients come from the trapezoid rule on a
    circle of the given radius; the aliasing error is about
    (radius / 0.3)^nodes, below 1e-36 here."""
    with mpmath.workdps(dps):
        t = mpmath.mpc(tau.real, tau.imag)
        nome = mpmath.expjpi(t)
        x = mpmath.mpf(xi[0]) + mpmath.mpf(xi[1]) * t
        r = mpmath.mpf(xi[1])
        d0 = mpmath.jtheta(1, 0, nome, 1)
        thx = _theta1(x, nome)
        rho = mpmath.mpf(radius)
        vals = []
        for j in range(nodes):
            a = rho * mpmath.expjpi(mpmath.mpf(2 * j) / nodes)
            f = mpmath.pi * d0 * _theta1(x + a, nome) / (thx * _theta1(a, nome))
            vals.append(a * mpmath.exp(2j * mpmath.pi * a * r) * f)
        out = []
        for k in range(K + 1):
            s = mpmath.fsum(
                vals[j] * mpmath.expjpi(-mpmath.mpf(2 * j * k) / nodes) for j in range(nodes)
            )
            out.append(+(s / nodes / rho**k))
        return out


def digits(err, scale):
    """Correct significant digits of a result with absolute error ``err``
    against a reference of magnitude ``scale`` (99 when exact)."""
    if err == 0:
        return 99.0
    return float(-mpmath.log10(mpmath.mpf(err) / mpmath.mpf(scale)))
