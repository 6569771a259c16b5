"""String Hopf algebra on ordered point sequences.

Symbols (t_{i_1}:...:t_{i_l}; labels) with integer labels summing to zero
(a non-integral label entry stays an exact Fraction), directed consecutive
strings, admissible collections, the reduced coproduct of one symbol, the
divisor-asymptotics assembly built from it, and the partial-fraction
identities used for residue bookkeeping.  A string is the plain tuple of its
1-based positions in the symbol, in the order it runs.  The assembly is one
filtered coproduct, applied to the symbol and then once to each distinct
left-slot factor, each searching only strings that a kept term can hold.
Everything here is exact; numeric realizations are supplied by callers as
callbacks.
"""

from fractions import Fraction
from functools import partial
from operator import itemgetter

from .errors import SizeBudgetExceeded
from .rational import Poly, _exact, rational_sum

DEFAULT_SIZE_BUDGET = 10**6


def _vec_sum(vecs):
    return tuple(map(sum, zip(*vecs)))


def _vec_neg(a):
    return tuple(-x for x in a)


def label_str(vec):
    """Render a label vector like '-b1-b2' over b1, b2, ...."""
    bits = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        name = f"b{i + 1}"
        if c == 1:
            bits.append(f"+{name}")
        elif c == -1:
            bits.append(f"-{name}")
        else:
            bits.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
    if not bits:
        return "0"
    out = "".join(bits)
    return out[1:] if out.startswith("+") else out


class ASymbol(tuple):
    """One bracket symbol (t_{i_1}: ... : t_{i_l}; labels), the validated
    pair (ts, labels): it equals, hashes and orders as that plain pair.

    `ts` are 1-based point indices into the ambient tuple (index n is the
    slot fixed at 1 in realizations).  Labels are exact vectors over a free
    basis b_1..b_w and must sum to zero; the last label of a string symbol
    is minus the sum of the others by construction.  rational._exact, which
    Poly coefficients share, stores an integral entry as an int
    (Fraction(1) == 1 with the same hash, so hashes, order and reprs do not
    depend on how it was given) and any other entry as an exact Fraction.
    """

    __slots__ = ()

    def __new__(cls, ts, labels):
        ts = tuple(int(i) for i in ts)
        labels = tuple(tuple(map(_exact, lab)) for lab in labels)
        if len(ts) < 2:
            raise ValueError("symbol needs at least two slots")
        if len(labels) != len(ts):
            raise ValueError("one label per slot required")
        if any(len(lab) != len(labels[0]) for lab in labels):
            raise ValueError("ragged label vectors")
        if any(c != 0 for c in _vec_sum(labels)):
            raise ValueError("labels must sum to zero")
        return super().__new__(cls, (ts, labels))

    def __getnewargs__(self):
        return tuple(self)

    ts = property(itemgetter(0))
    labels = property(itemgetter(1))

    @property
    def length(self):
        return len(self.ts)

    def __repr__(self):
        heads = ":".join(f"t{i}" for i in self.ts)
        tails = ", ".join(label_str(lab) for lab in self.labels)
        return f"({heads}; {tails})"


def canonical_symbol(n):
    """(t_1:...:t_n; b_1,...,b_{n-1}, -sum) over the free basis b_1..b_{n-1}."""
    if n < 2:
        raise ValueError("need at least two slots")
    width = n - 1
    labels = [tuple(int(j == i) for j in range(width)) for i in range(width)]
    labels.append(_vec_neg(_vec_sum(labels)))
    return ASymbol(range(1, n + 1), labels)


def enumerate_strings(total):
    """All strings inside a symbol of the given length: runs of consecutive
    positions, ascending or descending, of length 2..total-1 that do not
    start at the final position.  Ordered by lowest, then highest position,
    the ascending run first."""
    out = []
    for lo in range(1, total + 1):
        for hi in range(lo + 1, total + 1):
            if hi - lo + 1 >= total:
                continue
            out.append(tuple(range(lo, hi + 1)))
            if hi != total:
                out.append(tuple(range(hi, lo - 1, -1)))
    return out


def _string_sign(s):
    """+1 for an ascending string, (-1)^(l-1) for a descending one of length l."""
    return 1 if s[1] > s[0] else (-1) ** (len(s) - 1)


def _compatible(a, b):
    """Disjoint, or sharing exactly their common last position."""
    inter = set(a) & set(b)
    return not inter or (inter == {a[-1]} and a[-1] == b[-1])


def _string_collections(strings):
    """Non-empty admissible collections (pairwise disjoint or sharing exactly
    a common last position) of a list of strings, depth first in list order:
    for a sublist of enumerate_strings, those admissible collections whose
    strings all lie in the sublist, in their order."""
    out = []
    # depth-first, children in string order: each entry is (first string
    # index left to try, collection so far); a found extension goes on top of
    # the stack above the search for its next sibling
    stack = [(0, ())]
    while stack:
        start, chosen = stack.pop()
        for i in range(start, len(strings)):
            s = strings[i]
            if all(_compatible(s, c) for c in chosen):
                combo = chosen + (s,)
                out.append(combo)
                stack.append((i + 1, chosen))
                stack.append((i + 1, combo))
                break
    return out


def string_symbol(sym, string):
    """The symbol A_S cut out of `sym` by a string of positions."""
    ts = tuple(sym.ts[p - 1] for p in string)
    body = [sym.labels[p - 1] for p in string[:-1]]
    return ASymbol(ts, body + [_vec_neg(_vec_sum(body))])


def _remaining(total, collection):
    """Sorted positions of a length-`total` symbol left by a collection: the
    uncovered ones and the last position of every string."""
    covered = set()
    for s in collection:
        covered.update(s)
    return sorted((set(range(1, total + 1)) - covered) | {s[-1] for s in collection})


def _quotient_at(sym, collection, remaining):
    """The quotient of `sym` by an admissible collection on its remaining
    positions (two or more)."""
    labels = [
        _vec_sum([sym.labels[p - 1]] + [sym.labels[q - 1] for s in collection if s[-1] == p for q in s[:-1]])
        for p in remaining
    ]
    return ASymbol((sym.ts[p - 1] for p in remaining), labels)


class HopfElement:
    """Accumulator for a formal sum of tensors of symbol products with exact
    coefficients: it starts empty and grows by add.

    Keys are tuples of slots; a slot is a sorted tuple of ASymbol (the empty
    tuple is the algebra unit).  An element may hold at most
    DEFAULT_SIZE_BUDGET terms.
    """

    def __init__(self):
        self.terms = {}

    def add(self, key, coeff):
        coeff = Fraction(coeff)
        if coeff == 0:
            return
        cur = self.terms.get(key, Fraction(0)) + coeff
        if cur == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = cur
            if len(self.terms) > DEFAULT_SIZE_BUDGET:
                raise SizeBudgetExceeded(f"element exceeds {DEFAULT_SIZE_BUDGET} terms")

    def __eq__(self, other):
        return isinstance(other, HopfElement) and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        bits = []
        for key, c in self.sorted_terms():
            slots = " (x) ".join(
                "1" if not slot else ".".join(repr(s) for s in slot) for slot in key
            )
            bits.append(f"{c} * {slots}")
        return " + ".join(bits) if bits else "0"


def essential(ts, J):
    """Point indices ts of a string symbol are essential when every one but
    the last goes to infinity (lies in J) and the last one stays finite."""
    return ts[-1] not in J and all(i in J for i in ts[:-1])


def regular(ts, J):
    """Point indices ts are regular when all lie inside J or all outside."""
    inside = [i in J for i in ts]
    return all(inside) or not any(inside)


def _kept_terms(sym, left_ok, right_ok):
    """[(coeff, left_slot, right_slot)]: the terms of the coproduct of one
    symbol whose slots pass two tests on point indices.  sym (x) 1 is kept
    when sym passes left_ok and 1 (x) sym when it passes right_ok; the
    collections are searched among the strings that pass left_ok, and each
    is signed against its quotient and kept when the quotient's remaining
    point indices (two or more) pass right_ok."""
    out = [(1, (sym,), ())] if left_ok(sym.ts) else []
    if right_ok(sym.ts):
        out.append((1, (), (sym,)))
    strings = [s for s in enumerate_strings(sym.length) if left_ok([sym.ts[p - 1] for p in s])]
    for coll in _string_collections(strings):
        remaining = _remaining(sym.length, coll)
        if len(remaining) < 2 or not right_ok([sym.ts[p - 1] for p in remaining]):
            continue
        coeff = 1
        for s in coll:
            coeff *= _string_sign(s)
        left = tuple(sorted(string_symbol(sym, s) for s in coll))
        out.append((coeff, left, (_quotient_at(sym, coll, remaining),)))
    return out


def assemble_asymptotic(sym, J):
    """The terms of mu_3 (Phi (x) Lambda^reg (x) C) Delta^(3) relative to the
    set J of indices sent to infinity: a non-empty subset of sym.ts[:-1],
    since the last slot is the one fixed at 1.

    Returns the classified term list [(coeff, phi_slot, lambda_slot, c_slot)]
    in key order: the terms of the iterated coproduct whose phi and C slots
    are all essential and whose Lambda slot is all regular.  Only those terms
    are built, by one filtered coproduct applied twice.  The first keeps the
    terms of sym whose right slot is essential, searched among the strings
    whose last point is in J or is sym's last point.  That drops no kept
    term: the final position is covered only as a string's last position, so
    it is always the quotient's last slot, and any other string's last
    position is a non-last quotient slot, which essential requires in J.  The
    second expands each distinct left-slot factor once per call into its
    (essential, regular) terms, searched among its essential strings, and the
    product over factors multiplies them out.
    The classification is a conjunction over factors, so nothing that
    survives is dropped.  The test oracles hold the full
    Delta^(3)-then-filter path.  Callers realize the slots and multiply the
    values per term (polylog.asymptotic_eval).
    """
    J = frozenset(J)
    if not J or not J <= set(sym.ts[:-1]):
        raise ValueError(f"J must be a non-empty subset of the point indices {sym.ts[:-1]}")
    ess, reg = partial(essential, J=J), partial(regular, J=J)
    kept = {}  # left-slot factor -> its (essential, regular) terms
    el = HopfElement()
    last = sym.ts[-1]
    for c0, left, c_slot in _kept_terms(sym, lambda ts: ts[-1] in J or ts[-1] == last, ess):
        acc = [(c0, (), ())]
        for f in left:
            if f not in kept:
                kept[f] = _kept_terms(f, ess, reg)
            acc = [
                (c * c1, phi + phi1, lam + lam1)
                for c, phi, lam in acc
                for c1, phi1, lam1 in kept[f]
            ]
        for c, phi, lam in acc:
            el.add((tuple(sorted(phi)), tuple(sorted(lam)), c_slot), c)
    return [(coeff, *key) for key, coeff in el.sorted_terms()]


def _a_factor(run, i, j):
    """Factors of a_[i,j] = beta_i (beta_i+beta_{i-1}) ... (beta_i+...+beta_j);
    none when i < j."""
    return [run(i, k) for k in range(i, j - 1, -1)]


def _b_factor(run, i, j):
    """Factors of b_[i,j] = beta_i (beta_i+beta_{i+1}) ... (beta_i+...+beta_j);
    none when i > j."""
    return [run(i, k) for k in range(i, j + 1)]


def kid_terms(n, which):
    """The alternating partial-fraction sums behind the residue bookkeeping,
    each as a list of (sign, denominator factors) for rational_sum.

    kid1 (n >= 3): sum_{i=1}^{n-1} (-1)^{i-1} / (a_[i,2] b_[i+1,n-1]).
    kid2 (n >= 4): for each 1 < k < n-1, the analogous sum with the
    b_[1,k-1] prefix, summed over i = k..n-1 (the i = k and i = n-1 boundary
    terms carry empty a / b factors).  Each run beta_lo + ... + beta_hi is
    built once per call, as one linear Poly that every term holding it shares.
    """
    if which not in ("kid1", "kid2"):
        raise ValueError(f"unknown identity {which!r}")
    low = 3 if which == "kid1" else 4
    if n < low:
        raise ValueError(f"{which} is an identity for n >= {low}, not n = {n}")
    vars = tuple(f"b{i}" for i in range(1, n + 1))
    units = [tuple(int(i == k) for i in range(1, n + 1)) for k in range(1, n + 1)]
    runs = {}

    def run(lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        if (lo, hi) not in runs:
            runs[lo, hi] = Poly(vars, {units[k - 1]: 1 for k in range(lo, hi + 1)})
        return runs[lo, hi]

    if which == "kid1":
        return [[
            ((-1) ** (i - 1), _a_factor(run, i, 2) + _b_factor(run, i + 1, n - 1))
            for i in range(1, n)
        ]]
    return [[
        ((-1) ** ((i - k + 1) % 2),
         _b_factor(run, 1, k - 1) + _a_factor(run, i, k + 1)
         + _b_factor(run, i + 1, n - 1))
        for i in range(k, n)
    ] for k in range(2, n - 1)]


def kid_identity(n, which):
    """Numerator Poly of each kid_terms sum over the LCM of its denominators;
    every one is the zero Poly when the identity holds."""
    return [rational_sum(parts)[0] for parts in kid_terms(n, which)]


def verify_identities(n, which):
    """Verdict report for the exact identities kid1 / kid2: sum each
    identity over the LCM of its linear denominator factors and test the
    numerator for exact vanishing (kid_terms refuses any other name)."""
    ok = all(s.is_zero() for s in kid_identity(n, which))
    return {"identity": which, "n": n, "ok": ok, "residual": 0 if ok else None}
