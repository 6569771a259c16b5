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
* chain: the iterated integral of a chain of per-node forms along a path of
  arcs, one iterated_integral per arc with the state carried from arc to
  arc; the multi-arc and chain checks of test_quadrature.py and
  simplicial_integral in test_polylog.py.  The package integrates one leg
  at a time over the shared parameter and has no chain mode.
* eval_at: a MultiSeries evaluated at a point, reading its array from
  index 0 at min_order, for the evaluation checks of test_series.py and the
  direct-sum checks of test_polylog.py.
* strings, string_sign, collections_by_recursion: the directed strings of
  a symbol, their signs and their admissible collections, each from its
  definition and without hopf's enumeration; the oracles of
  test_string_constraints, test_admissible_collections_order and, filtered
  to essential strings, test_essential_string_collections_match_filtered_oracle.
* delta_prime, apply_delta, iterated_delta: the full coproduct and its
  iterates, on the collections above, with string symbols and quotients cut
  from their definitions.  iterated_delta(sym, 3) followed by the
  essential / regular / essential filter is the oracle of
  hopf.assemble_asymptotic, which builds only the surviving terms: for
  every J of the canonical symbols up to n = 7
  (test_assemble_matches_full_delta3) and of two n = 6 symbols whose point
  indices are out of position order
  (test_assemble_matches_full_delta3_permuted_points).  At n = 8 the oracle
  is too slow, so test_assemble_n8_term_lists_digest pins the term lists
  of all 127 J by a sha256 recorded from the parity-checked assembly.  The
  coproduct tests of test_hopf.py check the structure of these elements.
* monomial_exponent: the monomial character, invariant under the reduced
  coproduct (test_monomial_character_invariant).
* point_from_xi: an EllipticPoint from a complex xi, for the kernel tests
  that step xi or tau by finite differences (test_kronecker.py).
* point_add, point_sub, point_neg: EllipticPoint sum, difference and
  negation, in doubles, for the Fay identities, the parity tests and the
  random battery's lattice clearance in test_kronecker.py.
* poly_value: a Poly evaluated at a rational point, for test_rational.py.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from epolylog import hopf
from epolylog.kronecker import EllipticPoint
from epolylog.quadrature import convolve_product, iterated_integral


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


def chain(arcs, forms, tol=1e-11):
    """int w_1 w_2 ... w_n along the path arcs, taken in order (w_1 attached
    to the path endpoint; no forms integrate to 1).  A form is f(z, v) =
    f(z) * v at one point z and v = dz/du: a scalar or coefficients, every
    form but the innermost w_n a convolve_product factor.  Each arc is one
    iterated_integral from its own suggested panel count, its one form the
    list of every w's node values, level k being w_(n-k) times level k-1,
    started where the arc before left the levels."""
    if not forms:
        return 1.0
    n = len(forms)

    def link(s, lower):
        w = s[n - 1 - len(lower)]
        return convolve_product(w, lower[-1]) if lower else w

    state = [0j] * n
    for arc in arcs:

        def nodes(us, a=arc):
            return [np.array([w(a.point(u), a.velocity(u)) for u in us], dtype=complex) for w in forms]

        state = iterated_integral(arc.suggested_panels(), nodes, [(s0, link) for s0 in state], tol)
    return state[-1]


def eval_at(series, values):
    """Numeric value of a MultiSeries, whose array starts at min_order;
    values maps every variable to a number."""
    out = series.a
    for v, l in zip(series.vars, series.min_order):
        powers = complex(values[v]) ** np.arange(l, l + out.shape[0])
        out = np.tensordot(powers, out, axes=(0, 0))
    return complex(out)


@lru_cache(maxsize=None)
def strings(total):
    """The directed strings of a length-`total` symbol, by their definition:
    tuples of 1-based positions of length 2..total-1, consecutive in one
    direction, that do not start at the final position.  Listed by lowest,
    then highest position, the ascending run first."""
    found = [
        s
        for l in range(2, total)
        for s in itertools.permutations(range(1, total + 1), l)
        if s[0] != total and {b - a for a, b in zip(s, s[1:])} in ({1}, {-1})
    ]
    return sorted(found, key=lambda s: (min(s), max(s), s[0] > s[1]))


def string_sign(s):
    """+1 for an ascending string; a descending one of length l has l - 1
    steps down, each a factor -1."""
    return 1 if s[0] < s[1] else (-1) ** (len(s) - 1)


def _admissible_pair(a, b):
    """Two strings may sit in one collection when they are disjoint or meet
    only in a last position they share."""
    return set(a).isdisjoint(b) or (a[-1] == b[-1] and len(set(a) & set(b)) == 1)


@lru_cache(maxsize=None)
def collections_by_recursion(total):
    """Non-empty admissible collections in reference order: depth first, each
    collection extended by the later admissible strings in string order."""
    found = strings(total)

    def extend(start, chosen):
        for i in range(start, len(found)):
            s = found[i]
            if all(_admissible_pair(s, c) for c in chosen):
                yield chosen + (s,)
                yield from extend(i + 1, chosen + (s,))

    return list(extend(0, ()))


def _label_sum(sym, positions):
    """Sum of the labels of sym at the given 1-based positions."""
    return tuple(sum(col) for col in zip(*(sym.labels[p - 1] for p in positions)))


def _cut(sym, s):
    """A_S: the points of sym along the string, the labels of all but its last
    position, and minus their sum on the last."""
    head = [sym.labels[p - 1] for p in s[:-1]]
    return hopf.ASymbol([sym.ts[p - 1] for p in s], head + [tuple(-c for c in _label_sum(sym, s[:-1]))])


def _quotient(sym, coll):
    """sym / coll on the positions the collection leaves (uncovered, or last
    in a string), each carrying the labels it absorbs: its own and those of
    every string position before it in a string ending there; None when fewer
    than two positions are left."""
    covered = {p for s in coll for p in s}
    absorbed = {p: [p] for p in range(1, sym.length + 1) if p not in covered}
    for s in coll:
        absorbed.setdefault(s[-1], [s[-1]]).extend(s[:-1])
    if len(absorbed) < 2:
        return None
    kept = sorted(absorbed)
    return hopf.ASymbol([sym.ts[p - 1] for p in kept], [_label_sum(sym, absorbed[p]) for p in kept])


def _reduced(sym):
    """(coeff, left slot, quotient) of the reduced coproduct of one symbol."""
    out = []
    for coll in collections_by_recursion(sym.length):
        q = _quotient(sym, coll)
        if q is not None:
            coeff = math.prod(string_sign(s) for s in coll)
            out.append((Fraction(coeff), tuple(sorted(_cut(sym, s) for s in coll)), q))
    return out


def _delta_full(sym):
    """Full coproduct of one symbol: 1 (x) sym, sym (x) 1 and the reduced part."""
    terms = [(Fraction(1), (sym,), ()), (Fraction(1), (), (sym,))]
    terms.extend((c, left, (q,)) for c, left, q in _reduced(sym))
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
    for coeff, left, q in _reduced(sym):
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


def point_add(a, b):
    """The EllipticPoint a + b, pair by pair."""
    return EllipticPoint(a.s + b.s, a.r + b.r)


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
