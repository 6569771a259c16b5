"""Reference computations for the tests, kept out of src/epolylog.

Neither pipeline (Debye transport -> asymptotic prediction, string coproduct
-> identity verdicts) runs these; they exist to check pipeline code, so they
live beside the tests that use them.  The module name does not match
pytest's test_*.py pattern, so nothing here is collected.

* simplicial_nested: the nested sum I_{n1,n2,...}(t1, t2, ...) by partial
  sums over a1 + ... + ak, the recurrence polylog._nested_table also uses;
  the oracle of test_nested_table_near_unit_circle,
  test_depth2_near_unit_circle_memory_bounded and the iterated-integral
  check test_modes_agree.  Because it shares the table's recurrence, brute
  force over (a1, a2) pairs keeps both honest: test_double_sum_matches_brute
  for the oracle, test_nested_table_matches_brute_force for every cell of
  the table (all in test_polylog.py).
* debye_coefficients: the depth-2 Debye coefficients at a point of the unit
  polydisk on given log branches, from simplicial_nested; the oracle of
  test_transport_meets_default_tol (test_polylog.py).
* delta_prime, apply_delta, iterated_delta: the full coproduct and its
  iterates.  iterated_delta(sym, 3) followed by the essential / regular /
  essential filter is the oracle of hopf.assemble_asymptotic, which builds
  only the surviving terms (test_assemble_matches_full_delta3); the
  coproduct tests of test_hopf.py check the structure of these elements.
* monomial_exponent: the monomial character, invariant under the reduced
  coproduct (test_monomial_character_invariant).
* point_from_xi: an EllipticPoint from a complex xi, for the kernel tests
  that step xi or tau by finite differences (test_kronecker.py).
* point_sub, point_neg: EllipticPoint difference and negation, for the Fay
  identity and the parity tests of test_kronecker.py.
* poly_value: a Poly evaluated at a rational point, for test_rational.py.
"""

import math
from fractions import Fraction

import numpy as np

from epolylog import hopf
from epolylog.kronecker import EllipticPoint


def simplicial_nested(ts, orders, tol):
    """sum over a_i >= 1 of prod t_i^{a_i} / (a_1)^{n_1} (a_1+a_2)^{n_2} ...,
    truncated where the geometric tail in max |t_i| falls below tol."""
    mod = max(abs(t) for t in ts)
    if min(abs(t) for t in ts) == 0.0:
        return 0.0 + 0.0j
    N = max(24, int(math.ceil(math.log(tol * (1.0 - mod)) / math.log(mod))) + 4)
    A = np.arange(1, N + 1, dtype=float)
    f = ts[0] ** A / A ** orders[0]
    for t, n in zip(ts[1:], orders[1:]):
        g = np.zeros(N, dtype=complex)
        for B in range(1, N):
            g[B] = t * (g[B - 1] + f[B - 1])
        f = g / A ** n
    return complex(f.sum())


def debye_coefficients(ts, logs, K):
    """Coefficients of b1^x b2^y (x, y < K) of
    sum_{a,c>=1} t1^(a-b1) t2^(c-b2) / ((a - b1)(a + c - b1 - b2)), with
    t_i^(-b_i) = exp(-b_i logs[i]).  Expanding 1/(a - b1) in b1 and
    1/(a + c - s) in s = b1 + b2 gives the body's coefficient
    sum_p C(p + y, p) I_{x-p+1, p+y+1}(t1, t2), I the nested double sum."""
    body = np.zeros((K, K), dtype=complex)
    for x in range(K):
        for y in range(K):
            body[x, y] = sum(
                math.comb(p + y, p) * simplicial_nested(ts, (x - p + 1, p + y + 1), 1e-20)
                for p in range(x + 1)
            )
    pref = [np.array([(-l) ** k / math.factorial(k) for k in range(K)]) for l in logs]
    out = np.zeros((K, K), dtype=complex)
    for u in range(K):
        for v in range(K):
            out[u:, v:] += pref[0][u] * pref[1][v] * body[: K - u, : K - v]
    return out


def _delta_full(sym):
    """Full coproduct of one symbol: 1 (x) sym, sym (x) 1 and the reduced part."""
    terms = [(Fraction(1), (sym,), ()), (Fraction(1), (), (sym,))]
    terms.extend((c, left, (q,)) for c, left, q in hopf._delta_prime_symbol(sym, lambda cut, rest: True))
    return terms


def _delta_slot(slot):
    """Full coproduct of a product slot: expand factorwise."""
    acc = [(Fraction(1), (), ())]
    for sym in slot:
        acc = [
            (c0 * c1, tuple(sorted(l0 + l1)), tuple(sorted(r0 + r1)))
            for c0, l0, r0 in acc
            for c1, l1, r1 in _delta_full(sym)
        ]
    return acc


def delta_prime(sym):
    """Reduced coproduct of a single symbol as a rank-2 element."""
    el = hopf.HopfElement()
    for coeff, left, q in hopf._delta_prime_symbol(sym, lambda cut, rest: True):
        el.add((left, (q,)), coeff)
    return el


def apply_delta(element, slot_index):
    """Replace one tensor slot by its full coproduct, raising the rank by 1."""
    out = hopf.HopfElement()
    for key, coeff in element.terms.items():
        for c, left, right in _delta_slot(key[slot_index]):
            out.add(key[:slot_index] + (left, right) + key[slot_index + 1 :], coeff * c)
    return out


def iterated_delta(sym, m):
    """The m-fold coproduct (m >= 2) of one symbol, a rank-m element."""
    el = hopf.HopfElement()
    el.add(((sym,),), 1)
    for _ in range(m - 1):
        el = apply_delta(el, 0)
    return el


def monomial_exponent(slots):
    """Exponent vectors of the monomial character, per point index: each
    symbol goes to prod t_{i_k}^{label_k}, and the product over the slots is
    returned as a dict index -> label vector (zero vectors dropped)."""
    out = {}
    for sym in slots:
        for i, lab in zip(sym.ts, sym.labels):
            out[i] = tuple(a + b for a, b in zip(out[i], lab)) if i in out else lab
    return {i: v for i, v in out.items() if any(c != 0 for c in v)}


def point_from_xi(xi, tau):
    """The EllipticPoint (s, r) with xi = s + r * tau."""
    xi, tau = complex(xi), complex(tau)
    r = xi.imag / tau.imag
    return EllipticPoint(xi.real - r * tau.real, r)


def point_sub(a, b):
    """The EllipticPoint a - b, pair by pair."""
    return EllipticPoint(a.s - b.s, a.r - b.r)


def point_neg(a):
    """The EllipticPoint -a."""
    return EllipticPoint(-a.s, -a.r)


def poly_value(p, values):
    """The Poly p at the point values (variable name -> rational)."""
    total = Fraction(0)
    for e, c in p.terms.items():
        m = c
        for v, n in zip(p.vars, e):
            if n:
                m *= Fraction(values[v]) ** n
        total += m
    return total
