import copy
import gc
import hashlib
import itertools
import json
import pathlib
import pickle
from fractions import Fraction
from functools import lru_cache

import pytest

from epolylog import hopf
from epolylog.errors import SizeBudgetExceeded
from epolylog.hopf import (
    ASymbol,
    HopfElement,
    assemble_asymptotic,
    canonical_symbol,
    enumerate_strings,
    essential,
    kid_terms,
    regular,
    verify_identities,
)
from epolylog.rational import rational_sum
from oracles import (
    apply_delta,
    collections_by_recursion,
    delta_prime,
    iterated_delta,
    monomial_exponent,
    string_sign,
    strings,
)

F = Fraction


def vec(width, entries):
    v = [F(0)] * width
    for i, c in entries.items():
        v[i] = F(c)
    return tuple(v)


def sym2(a, b, lab, width):
    """Pair (t_a:t_b) with label vector lab, -lab."""
    return ASymbol((a, b), [lab, tuple(-c for c in lab)])


def test_symbol_validation():
    with pytest.raises(ValueError):
        ASymbol((1,), [(F(1),)])
    with pytest.raises(ValueError):
        ASymbol((1, 2), [(F(1),), (F(1),)])
    with pytest.raises(ValueError, match="ragged"):
        ASymbol((1, 2, 3), [(1, 0), (0,), (-1, 0)])
    s = canonical_symbol(3)
    assert s.length == 3
    assert s.labels[2] == (F(-1), F(-1))


@pytest.mark.parametrize("sym", [canonical_symbol(4), ASymbol((2, 1), [(F(1, 2),), (F(-1, 2),)])])
def test_symbol_is_its_pair_through_copy_and_pickle(sym):
    """A symbol equals and hashes as its plain (ts, labels) pair, and copy,
    deepcopy and pickle rebuild it through the checked constructor."""
    assert sym == (sym.ts, sym.labels) and hash(sym) == hash((sym.ts, sym.labels))
    for other in (copy.copy(sym), copy.deepcopy(sym), pickle.loads(pickle.dumps(sym))):
        assert type(other) is ASymbol
        assert other == sym and hash(other) == hash(sym) and repr(other) == repr(sym)
        assert other.ts == sym.ts and other.labels == sym.labels


def test_string_constraints():
    """enumerate_strings yields exactly the valid strings, in order, and each
    string's sign is +1 ascending, (-1)^(l-1) descending."""
    for total in range(2, 8):
        got = enumerate_strings(total)
        assert got == strings(total)
        assert [hopf._string_sign(s) for s in got] == [string_sign(s) for s in got]
    assert enumerate_strings(4) == [(1, 2), (2, 1), (1, 2, 3), (3, 2, 1), (2, 3), (3, 2), (2, 3, 4), (3, 4)]
    signs = {(3, 2, 1): 1, (2, 1): -1, (1, 2, 3): 1, (5, 4, 3, 2): -1, (4, 3, 2, 1): -1}
    assert {s: hopf._string_sign(s) for s in signs} == signs


def test_string_count_n4():
    assert len(enumerate_strings(4)) == 8


def test_admissibility_dichotomy():
    # shared last position is fine, any other overlap is not
    colls = hopf._string_collections(enumerate_strings(4))
    assert any(set(x) == {(1, 2), (3, 2)} for x in colls if len(x) == 2)
    assert not any(set(x) == {(1, 2), (2, 3)} for x in colls if len(x) == 2)
    assert not any(set(x) == {(1, 2), (2, 1)} for x in colls if len(x) == 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_admissible_collections_order(n):
    assert hopf._string_collections(enumerate_strings(n)) == collections_by_recursion(n)


@pytest.mark.parametrize("total", range(2, 9))
def test_essential_string_collections_match_filtered_oracle(total):
    """A factor's collections searched among its essential strings alone are
    the oracle's admissible collections whose strings are all essential, in
    the same order: for every J and for point indices in canonical, reversed
    (a factor such as (t3:t2:t1)) and interleaved order."""
    every = collections_by_recursion(total)
    canonical = tuple(range(1, total + 1))
    for ts in (canonical, canonical[::-1], canonical[1::2] + canonical[::2]):
        for k in range(total + 1):
            for J in map(frozenset, itertools.combinations(canonical, k)):
                flags = {s: essential([ts[p - 1] for p in s], J) for s in strings(total)}
                got = hopf._string_collections([s for s in enumerate_strings(total) if flags[s]])
                assert got == [c for c in every if all(flags[s] for s in c)], (ts, sorted(J))


def test_assembly_leaves_no_reference_cycles():
    """The collections are enumerated without a self-referencing closure, so
    an assembly leaves nothing for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        assemble_asymptotic(canonical_symbol(6), {1, 3})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_depth2_coproduct_exact():
    sym = canonical_symbol(3)
    w = 2
    b1 = vec(w, {0: 1})
    b2 = vec(w, {1: 1})
    b12 = vec(w, {0: 1, 1: 1})
    expected = {
        ((sym2(1, 2, b1, w),), (sym2(2, 3, b12, w),)): F(1),
        ((sym2(2, 1, b2, w),), (sym2(1, 3, b12, w),)): F(-1),
        ((sym2(2, 3, b2, w),), (sym2(1, 3, b1, w),)): F(1),
    }
    assert delta_prime(sym).terms == expected


def test_monomial_character_invariant():
    for n in (3, 4, 5):
        sym = canonical_symbol(n)
        target = monomial_exponent((sym,))
        for key, _ in delta_prime(sym).sorted_terms():
            assert monomial_exponent(key[0] + key[1]) == target


def test_grading_invariant():
    for n in (3, 4, 5):
        sym = canonical_symbol(n)
        for key, _ in delta_prime(sym).sorted_terms():
            total = sum(s.length - 1 for slot in key for s in slot)
            assert total == n - 1


def pair_component(sym, side):
    """Terms of the full coproduct whose left (side 0: one-star) or right
    (side 1: star-one) slot is a single length-2 symbol."""
    terms = iterated_delta(sym, 2).terms
    return {k: c for k, c in terms.items() if len(k[side]) == 1 and k[side][0].length == 2}


def test_one_star_component():
    sym = canonical_symbol(4)
    comp = pair_component(sym, 0)
    assert len(comp) == 5
    pairs = set()
    for key, coeff in sorted(comp.items()):
        (left,) = key[0]
        assert left.length == 2
        pairs.add(left.ts)
        step = left.ts[1] - left.ts[0]
        assert coeff == (1 if step == 1 else -1)
    # ascending pairs (i-1, i) for i = 2..4, descending (i, i-1) for i = 2..3,
    # and never the descending pair starting at the final slot
    assert pairs == {(1, 2), (2, 3), (3, 4), (2, 1), (3, 2)}
    assert (4, 3) not in pairs


def test_one_star_primitive_base_case():
    sym = canonical_symbol(2)
    assert pair_component(sym, 0) == {((sym,), ()): F(1)}
    assert pair_component(sym, 1) == {((), (sym,)): F(1)}


def test_star_one_count_and_shape():
    for n in (3, 4, 5):
        sym = canonical_symbol(n)
        comp = pair_component(sym, 1)
        assert len(comp) == (n - 1) + (n - 1) * (n - 2) // 2
        for key in sorted(comp):
            (q,) = key[1]
            assert q.length == 2
            assert q.ts[1] == n
            assert 1 <= q.ts[0] < n


def test_star_one_families_n5():
    n, w = 5, 4
    sym = canonical_symbol(n)
    comp = pair_component(sym, 1)
    b1234 = vec(w, {0: 1, 1: 1, 2: 1, 3: 1})
    b12 = vec(w, {0: 1, 1: 1})
    b123 = vec(w, {0: 1, 1: 1, 2: 1})
    full_up = ASymbol(
        (1, 2, 3, 4),
        [vec(w, {0: 1}), vec(w, {1: 1}), vec(w, {2: 1}), vec(w, {0: -1, 1: -1, 2: -1})],
    )
    full_down = ASymbol(
        (4, 3, 2, 1),
        [vec(w, {3: 1}), vec(w, {2: 1}), vec(w, {1: 1}), vec(w, {1: -1, 2: -1, 3: -1})],
    )
    tail_345 = ASymbol(
        (3, 4, 5), [vec(w, {2: 1}), vec(w, {3: 1}), vec(w, {2: -1, 3: -1})]
    )
    cases = [
        # single ascending run over 1..4, quotient (t4:t5)
        (((full_up,), (sym2(4, 5, b1234, w),)), F(1)),
        # single descending run over 4..1, quotient (t1:t5)
        (((full_down,), (sym2(1, 5, b1234, w),)), F(-1)),
        # split at 2: descending pair then ascending tail, quotient (t1:t5)
        ((tuple(sorted((sym2(2, 1, vec(w, {1: 1}), w), tail_345))), (sym2(1, 5, b12, w),)), F(-1)),
        # three runs sharing the pivot at 2, quotient (t2:t5)
        (
            (
                tuple(
                    sorted(
                        (
                            sym2(1, 2, vec(w, {0: 1}), w),
                            sym2(3, 2, vec(w, {2: 1}), w),
                            sym2(4, 5, vec(w, {3: 1}), w),
                        )
                    )
                ),
                (sym2(2, 5, b123, w),),
            ),
            F(-1),
        ),
        # ascending pair then ascending tail, quotient (t2:t5)
        ((tuple(sorted((sym2(1, 2, vec(w, {0: 1}), w), tail_345))), (sym2(2, 5, b12, w),)), F(1)),
    ]
    for key, coeff in cases:
        assert comp.get(key) == coeff


def test_delta_prime_typical_term_n6():
    n, w = 6, 5
    sym = canonical_symbol(n)
    el = delta_prime(sym)
    head = ASymbol(
        (1, 2, 3), [vec(w, {0: 1}), vec(w, {1: 1}), vec(w, {0: -1, 1: -1})]
    )
    down = sym2(4, 3, vec(w, {3: 1}), w)
    tail = sym2(5, 6, vec(w, {4: 1}), w)
    quotient = ASymbol(
        (3, 6),
        [vec(w, {0: 1, 1: 1, 2: 1, 3: 1}), vec(w, {0: -1, 1: -1, 2: -1, 3: -1})],
    )
    key = (tuple(sorted((head, down, tail))), (quotient,))
    assert el.terms.get(key) == F(-1)


def test_coassociativity():
    for n in (3, 4, 5):
        el = iterated_delta(canonical_symbol(n), 2)
        assert apply_delta(el, 0) == apply_delta(el, 1)


def test_iterated_delta3_n3():
    sym = canonical_symbol(3)
    el = iterated_delta(sym, 3)
    assert len(el.terms) == 12
    unit_patterns = sorted(
        tuple(not slot for slot in key) for key in el.terms
    )
    # three terms with two unit slots, nine with one
    assert unit_patterns.count((False, True, True)) == 1
    assert unit_patterns.count((True, False, True)) == 1
    assert unit_patterns.count((True, True, False)) == 1
    assert sum(p.count(True) == 1 for p in unit_patterns) == 9


def test_kid_identities():
    for n in (3, 4, 5, 6):
        assert verify_identities(n, "kid1")["ok"]
    for n in (4, 5, 6):
        assert verify_identities(n, "kid2")["ok"]
    with pytest.raises(ValueError):
        verify_identities(4, "diff_vs_coproduct")


@pytest.mark.parametrize("which, n", [("kid1", 1), ("kid1", 2), ("kid2", 2), ("kid2", 3)])
def test_kid_identities_refuse_n_outside_their_range(which, n):
    low = 3 if which == "kid1" else 4
    with pytest.raises(ValueError, match=f"{which} is an identity for n >= {low}"):
        verify_identities(n, which)
    with pytest.raises(ValueError, match=f"{which} is an identity for n >= {low}"):
        kid_terms(n, which)


def test_kid_identities_n7_n8():
    for n in (7, 8):
        assert verify_identities(n, "kid1")["ok"]
        assert verify_identities(n, "kid2")["ok"]


@pytest.mark.parametrize("which", ["kid1", "kid2"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_kid_sums_break_on_any_flip_or_drop(which, n):
    for parts in kid_terms(n, which):
        assert rational_sum(parts)[0].is_zero()
        for j, (sign, factors) in enumerate(parts):
            flipped = parts[:j] + [(-sign, factors)] + parts[j + 1:]
            assert not rational_sum(flipped)[0].is_zero()
            assert not rational_sum(parts[:j] + parts[j + 1:])[0].is_zero()


def test_assemble_depth1():
    sym = canonical_symbol(2)
    kept = assemble_asymptotic(sym, {1})
    assert len(kept) == 2
    shapes = {(len(p), len(l), len(c)) for _, p, l, c in kept}
    assert shapes == {(1, 0, 0), (0, 0, 1)}
    with pytest.raises(ValueError):
        assemble_asymptotic(sym, set())


@pytest.mark.parametrize("J", [{7}, {0}, {4}, {1, 4}])
def test_assemble_refuses_J_outside_the_moving_slots(J):
    """J must lie in the slots that can grow: not the slot fixed at 1 (4)
    and not an index the symbol lacks."""
    with pytest.raises(ValueError, match="non-empty subset"):
        assemble_asymptotic(canonical_symbol(4), J)


def test_assemble_depth2_term_structure():
    sym = canonical_symbol(3)
    w = 2
    b1 = vec(w, {0: 1})
    b2 = vec(w, {1: 1})
    b12 = vec(w, {0: 1, 1: 1})

    kept = assemble_asymptotic(sym, {1})
    got = {(coeff, p, l, c) for coeff, p, l, c in kept}
    assert got == {
        (F(1), (sym2(1, 2, b1, w),), (sym2(2, 3, b12, w),), ()),
        (F(1), (), (sym2(2, 3, b2, w),), (sym2(1, 3, b1, w),)),
    }

    kept = assemble_asymptotic(sym, {2})
    got = {(coeff, p, l, c) for coeff, p, l, c in kept}
    assert got == {
        (F(1), (sym2(2, 3, b2, w),), (sym2(1, 3, b1, w),), ()),
        (F(-1), (sym2(2, 1, b2, w),), (sym2(1, 3, b12, w),), ()),
    }

    kept = assemble_asymptotic(sym, {1, 2})
    got = {(coeff, p, l, c) for coeff, p, l, c in kept}
    assert got == {
        (F(1), (sym,), (), ()),
        (F(1), (), (), (sym,)),
        (F(1), (sym2(2, 3, b2, w),), (), (sym2(1, 3, b1, w),)),
        (F(1), (), (sym2(1, 2, b1, w),), (sym2(2, 3, b12, w),)),
        (F(-1), (), (sym2(2, 1, b2, w),), (sym2(1, 3, b12, w),)),
    }


@lru_cache(maxsize=None)
def _full_delta3(sym):
    return iterated_delta(sym, 3)


def _classified(key, J):
    phi_slot, lam_slot, c_slot = key
    return (
        all(essential(s.ts, J) for s in phi_slot)
        and all(regular(s.ts, J) for s in lam_slot)
        and all(essential(s.ts, J) for s in c_slot)
    )


def full_delta3_then_filter(sym, J):
    """Oracle: the whole iterated coproduct, then the essential / regular /
    essential classification over its sorted terms."""
    J = frozenset(J)
    return [(coeff, *key) for key, coeff in _full_delta3(sym).sorted_terms() if _classified(key, J)]


def _all_J(n):
    return [J for k in range(1, n) for J in itertools.combinations(range(1, n), k)]


def assert_same_terms(got, want):
    assert got == want
    assert [tuple(map(repr, t)) for t in got] == [tuple(map(repr, t)) for t in want]
    assert all(type(t[0]) is Fraction for t in got)
    assert [hash(t[1:]) for t in got] == [hash(t[1:]) for t in want]


def test_assemble_matches_bench_reference_table():
    """Term count and exact coefficient sum of every (n, J) the bench's
    coproduct workload draws, n = 4..6, against bench/reference.json."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    table = json.loads(path.read_text())["coproduct_identities"]["assembled"]
    assert len(table) == 53
    for key, want in table.items():
        n, J = key.split(":")
        terms = assemble_asymptotic(canonical_symbol(int(n)), {int(j) for j in J.split(",")})
        assert (len(terms), str(sum(t[0] for t in terms))) == (want["terms"], want["coeff_sum"]), key


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_assemble_matches_full_delta3(n):
    sym = canonical_symbol(n)
    for J in _all_J(n):
        assert_same_terms(assemble_asymptotic(sym, set(J)), full_delta3_then_filter(sym, J))


@pytest.mark.parametrize("ts", [(2, 5, 1, 4, 3, 6), (3, 6, 1, 5, 2, 4)])
def test_assemble_matches_full_delta3_permuted_points(ts):
    """The assembly tests point indices, while the exactness of its string
    pruning is argued on positions.  Point indices out of position order
    check that mapping; in the second symbol the last point (4) is not the
    last position (6)."""
    sym = ASymbol(ts, canonical_symbol(6).labels)
    moving = sorted(ts[:-1])
    for k in range(1, 6):
        for J in itertools.combinations(moving, k):
            assert_same_terms(assemble_asymptotic(sym, set(J)), full_delta3_then_filter(sym, J))


def test_assemble_n8_term_lists_digest():
    """The n = 8 term lists for all 127 J, pinned by the sha256 of their
    newline-joined reprs: the full Delta^(3) oracle is too slow at n = 8."""
    sym = canonical_symbol(8)
    text = "\n".join(repr(assemble_asymptotic(sym, set(J))) for J in _all_J(8))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5c8f2d1473bd966436de7e951b3af51e792c63d9893aae914358c16d86147eee"
    )


def test_assemble_n2_to_n7_term_lists_digest():
    """The term lists of all 120 (n, J) with n = 2..7, n ascending and then
    in _all_J order, pinned like the n = 8 lists: reprs, so the digest holds
    the symbols' exact format at every n."""
    text = "\n".join(
        repr(assemble_asymptotic(canonical_symbol(n), set(J))) for n in range(2, 8) for J in _all_J(n)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "16166d22324aac8812de7763377515983828b691116a7c0a93a2bfa6fa26f730"
    )


def test_first_step_searches_only_strings_ending_in_J_or_last(monkeypatch):
    """The first coproduct step searches only the strings whose last point
    can close an essential quotient: 12 of the 48 at n = 8 with J = {1}."""
    searched = []
    collections_of = hopf._string_collections

    def spy(strings):
        searched.append(strings)
        return collections_of(strings)

    monkeypatch.setattr(hopf, "_string_collections", spy)
    sym, J = canonical_symbol(8), {1}
    assemble_asymptotic(sym, J)
    assert len(searched[0]) == 12
    assert all(sym.ts[s[-1] - 1] in J | {sym.ts[-1]} for s in searched[0])


def test_assemble_matches_full_delta3_rational_labels():
    half = F(1, 2)
    labels = [(half, 0, 0), (0, 1, 0), (0, 0, F(3, 2)), (-half, -1, F(-3, 2))]
    sym = ASymbol((1, 2, 3, 4), labels)
    for J in _all_J(4):
        got = assemble_asymptotic(sym, set(J))
        assert_same_terms(got, full_delta3_then_filter(sym, J))
    assert any(type(c) is Fraction for t in got for slot in t[1:] for s in slot for lab in s.labels for c in lab)


@pytest.mark.parametrize("J", [{1, 3}, set(range(1, 7))])
def test_assemble_builds_only_surviving_terms(monkeypatch, J):
    """No key that the classification drops ever reaches an accumulator:
    building the whole Delta^(3) and filtering afterwards fails here."""
    inserted = []
    add = HopfElement.add

    def spy(self, key, coeff):
        inserted.append(key)
        return add(self, key, coeff)

    monkeypatch.setattr(HopfElement, "add", spy)
    kept = assemble_asymptotic(canonical_symbol(7), J)
    frozen = frozenset(J)
    dropped = [key for key in inserted if len(key) != 3 or not _classified(key, frozen)]
    assert not dropped, f"{len(dropped)} dropped keys inserted, e.g. {dropped[0]}"
    assert {t[1:] for t in kept} == set(inserted)


def test_labels_are_ints_with_exact_rational_fallback():
    for n in (2, 5):
        assert all(type(c) is int for lab in canonical_symbol(n).labels for c in lab)
    by_int = ASymbol((1, 2, 3), [(1, 0), (0, 1), (-1, -1)])
    by_frac = ASymbol((1, 2, 3), [(F(1), F(0)), (F(0), F(1)), (F(-1), F(-1))])
    assert by_frac == by_int == canonical_symbol(3)
    assert hash(by_frac) == hash(by_int)
    assert repr(by_frac) == repr(by_int)
    assert all(type(c) is int for lab in by_frac.labels for c in lab)
    halves = ASymbol((1, 2), [(F(1, 2),), (F(-1, 2),)])
    assert halves.labels == ((F(1, 2),), (F(-1, 2),))
    assert type(halves.labels[0][0]) is Fraction
    assert repr(halves) == "(t1:t2; 1/2*b1, -1/2*b1)"
    with pytest.raises(ValueError):
        ASymbol((1, 2), [(1,), (1,)])
    with pytest.raises(ValueError):
        ASymbol((1, 2), [(F(1, 2),), (F(-1, 3),)])


@pytest.mark.parametrize("n, most", [(7, 37), (8, 50)])
def test_assembly_expands_each_symbol_once(monkeypatch, n, most):
    """One assembly enumerates strings once for the symbol and once for each
    distinct left-slot factor, however many first-step terms hold it."""
    calls = []
    strings_of = hopf.enumerate_strings

    def spy(total):
        calls.append(total)
        return strings_of(total)

    monkeypatch.setattr(hopf, "enumerate_strings", spy)
    assemble_asymptotic(canonical_symbol(n), set(range(1, n)))
    assert calls[0] == n and len(calls) <= most


def test_size_budget(monkeypatch):
    monkeypatch.setattr(hopf, "DEFAULT_SIZE_BUDGET", 3)
    with pytest.raises(SizeBudgetExceeded):
        assemble_asymptotic(canonical_symbol(5), {1, 2, 3, 4})
