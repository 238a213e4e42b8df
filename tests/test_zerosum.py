import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nufact import zerosum
from nufact.abelian import CapExceeded, enumerate_elements, make_group
from nufact.zerosum import (
    ZSeq,
    _atoms,
    atoms,
    concat,
    davenport,
    factorizations,
    format_seq,
    half_factorial_witness,
    is_minimal_zero_sum,
    is_zero_sum,
    length_set,
    parse_seq,
    seq_sum,
)

Z3 = make_group([3])
K4 = make_group([2, 2])


def seqs(group, text):
    return parse_seq(group, text)


# ---------------------------------------------------------------- oracles

def naive_is_minimal(S: ZSeq) -> bool:
    """Check minimality by scanning every sub-multiset explicitly."""
    if S.is_empty() or not is_zero_sum(S):
        return False
    items = list(S.counts.items())
    zero_count = 0
    for mults in itertools.product(*(range(m + 1) for _, m in items)):
        sub = ZSeq(S.group, {c: k for (c, _), k in zip(items, mults) if k})
        if is_zero_sum(sub):
            zero_count += 1
    return zero_count == 2  # the empty and the full sub-multiset only


def brute_force_atoms(G0, group, max_len):
    """Independent enumeration: filter every multiset up to max_len."""
    coords = sorted({e.coords for e in G0})
    found = set()
    for L in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(coords, L):
            counts = {}
            for c in combo:
                counts[c] = counts.get(c, 0) + 1
            S = ZSeq(group, counts)
            if naive_is_minimal(S):
                found.add(S)
    return found


# ---------------------------------------------------------------- examples

def test_seq_sum_examples():
    assert seq_sum(seqs(Z3, "1 2")) == Z3.zero()
    assert seq_sum(ZSeq.empty(Z3)) == Z3.zero()
    assert seq_sum(seqs(Z3, "1^2")) == Z3.element([2])


def test_concat_examples():
    S = concat(seqs(Z3, "1^3"), seqs(Z3, "2^3"))
    assert S == seqs(Z3, "1^3 2^3")
    T = seqs(Z3, "1 2")
    assert concat(T, ZSeq.empty(Z3)) == T
    assert concat(T, T) == seqs(Z3, "1^2 2^2")
    with pytest.raises(ValueError):
        concat(T, ZSeq.empty(K4))


def test_is_zero_sum_examples():
    assert is_zero_sum(seqs(Z3, "1 2"))
    assert not is_zero_sum(seqs(Z3, "1"))
    assert is_zero_sum(ZSeq.empty(Z3))


def test_is_minimal_zero_sum_examples():
    assert is_minimal_zero_sum(seqs(Z3, "1^3"))
    assert not is_minimal_zero_sum(seqs(Z3, "1^3 2^3"))
    assert is_minimal_zero_sum(seqs(Z3, "0"))
    assert not is_minimal_zero_sum(seqs(Z3, "0^2"))
    assert not is_minimal_zero_sum(ZSeq.empty(Z3))


def test_minimality_matches_naive_oracle():
    for L in range(0, 6):
        for combo in itertools.combinations_with_replacement([(0,), (1,), (2,)], L):
            counts = {}
            for c in combo:
                counts[c] = counts.get(c, 0) + 1
            S = ZSeq(Z3, counts)
            assert is_minimal_zero_sum(S) == naive_is_minimal(S)


def test_atoms_of_z3_exactly():
    got = {format_seq(S) for S in atoms(enumerate_elements(Z3))}
    assert got == {"0", "1 2", "1^3", "2^3"}


def test_atoms_single_zero():
    got = atoms([Z3.zero()])
    assert got == [seqs(Z3, "0")]


def test_atoms_of_klein_four():
    # the identity atom, the three squares, and the all-involutions triple
    got = {format_seq(S) for S in atoms(enumerate_elements(K4))}
    assert got == {"0,0", "0,1^2", "1,0^2", "1,1^2", "0,1 1,0 1,1"}


@pytest.mark.parametrize("moduli,expected", [([1], 1), ([3], 3), ([2, 2], 3)])
def test_davenport_examples(moduli, expected):
    assert davenport(make_group(moduli)) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_davenport_cyclic(n):
    assert davenport(make_group([n])) == n


# every finite abelian group of order <= 16, in invariant factor form
GROUPS_UP_TO_16 = [[n] for n in range(1, 17)] + [
    [2, 2], [2, 4], [2, 2, 2], [3, 3], [2, 6],
    [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2]]


@pytest.mark.parametrize("moduli", GROUPS_UP_TO_16, ids=lambda m: "x".join(map(str, m)))
def test_davenport_matches_the_atom_search(moduli):
    G = make_group(moduli)
    coords = tuple(e.coords for e in enumerate_elements(G))
    assert davenport(G) == _atoms(G.moduli, coords)[-1].length


@pytest.mark.parametrize("moduli", [
    [18], [20], [24], [3, 6], [2, 12], [3, 9], [3, 3, 3],
    [2, 2, 2, 2, 2], [2, 2, 2, 2, 2, 2]], ids=lambda m: "x".join(map(str, m)))
def test_davenport_equals_d_star(moduli):
    # D*(G) = 1 + sum(n_i - 1) equals D(G) for p-groups and groups of rank
    # <= 2 (Olson 1969; Geroldinger-Halter-Koch 2006, ch. 5)
    assert davenport(make_group(moduli)) == 1 + sum(n - 1 for n in moduli)


def test_davenport_state_budget(monkeypatch):
    # Z/16 has more than 2000 distinct subset-sum states; Z/8 has fewer
    monkeypatch.setattr(zerosum, "DAVENPORT_BUDGET", 2000)
    with pytest.raises(CapExceeded, match=r"searched 2000 subset-sum states, "
                                          r"reached length \d+$"):
        davenport(make_group([16]))
    assert davenport(make_group([8])) == 8
    # beyond order 64 the budget shrinks in proportion to the order; a group
    # whose length-1 level alone is over budget is refused before any work
    monkeypatch.undo()
    with pytest.raises(CapExceeded, match="length 1 alone needs 999999"):
        davenport(make_group([10**6]), cap=10**6)


def test_atoms_state_budget(monkeypatch):
    # the atom search builds 7235 subset-sum states on Z/16 and 145 on Z/8
    _atoms.cache_clear()
    monkeypatch.setattr(zerosum, "ATOM_BUDGET", 1000)
    with pytest.raises(CapExceeded, match=r"searched 1000 subset-sum states, "
                                          r"found \d+ atoms$"):
        atoms(enumerate_elements(make_group([16])))
    assert len(atoms(enumerate_elements(make_group([8])))) == 65
    # beyond order 64 the budget shrinks in proportion to the order; a search
    # whose length 1 alone is over it is refused before any work
    monkeypatch.undo()
    G = make_group([10**8])
    with pytest.raises(CapExceeded, match="length 1 alone needs 1 of 0"):
        atoms([G.element([1])], cap=10**8)


def translate(mask, steps):
    for up, above, down, below in steps:
        mask = (mask << up) & above | (mask >> down) & below
    return mask


@pytest.mark.parametrize("moduli", [[1], [6], [4, 2], [3, 3], [2, 2, 2], [2, 3, 4]],
                         ids=lambda m: "x".join(map(str, m)))
def test_translation_table_adds_coordinatewise(moduli):
    # davenport and the atom search share this table, so it gets an oracle of
    # its own: bit p stands for the p-th element in lexicographic order
    elements = list(itertools.product(*map(range, moduli)))
    place = {x: p for p, x in enumerate(elements)}

    def plus(x, g):
        return tuple((a + b) % n for a, b, n in zip(x, g, moduli))

    rng = random.Random(len(elements))
    moves = zerosum._translations(tuple(moduli), elements)
    for g, (bit, neg_bit, steps) in zip(elements, moves):
        assert bit == 1 << place[g]
        assert neg_bit == 1 << place[tuple(-a % n for a, n in zip(g, moduli))]
        for x in elements:
            assert translate(1 << place[x], steps) == 1 << place[plus(x, g)]
        for _ in range(5):
            xs = rng.sample(elements, rng.randint(0, len(elements)))
            assert (translate(sum(1 << place[x] for x in xs), steps)
                    == sum(1 << place[plus(x, g)] for x in xs))


@pytest.mark.parametrize("moduli", [[3], [4], [2, 2], [5], [2, 4]])
def test_atoms_match_brute_force(moduli):
    G = make_group(moduli)
    els = enumerate_elements(G)
    # D*(G) = 1 + sum(n_i - 1) equals D(G) for cyclic groups and p-groups
    # (Olson 1969); it keeps this oracle independent of the atom search
    expected = brute_force_atoms(els, G, 1 + sum(n - 1 for n in moduli))
    assert set(atoms(els)) == expected
    assert all(is_minimal_zero_sum(S) for S in atoms(els))


def test_atoms_cap():
    with pytest.raises(CapExceeded):
        atoms(enumerate_elements(make_group([65])))  # default cap: order 64
    with pytest.raises(CapExceeded):
        atoms(enumerate_elements(make_group([10])), cap=5)


def test_factorizations_of_the_worked_example():
    S = seqs(Z3, "1^3 2^3")
    facts = factorizations(S)
    shapes = [sorted(format_seq(p) for p in F) for F in facts]
    assert len(facts) == 2
    assert ["1^3", "2^3"] in shapes
    assert ["1 2", "1 2", "1 2"] in shapes


def test_factorizations_trivial_cases():
    assert [tuple(F) for F in factorizations(ZSeq.empty(Z3))] == [()]
    zz = factorizations(seqs(Z3, "0^2"))
    assert len(zz) == 1 and [format_seq(p) for p in zz[0]] == ["0", "0"]


def test_factorizations_reject_non_zero_sum():
    with pytest.raises(ValueError):
        factorizations(seqs(Z3, "1"))


def brute_force_factorizations(S):
    """Independent enumeration: scan each candidate atom's multiplicity in
    index order instead of consuming smallest elements."""
    cands = [A for A in atoms(S.support(), group=S.group) if S.contains(A)]
    out = set()

    def rec(i, remaining, parts):
        if remaining.is_empty():
            out.add(tuple(sorted(p.expanded() for p in parts)))
            return
        if i == len(cands):
            return
        rec(i + 1, remaining, parts)
        if remaining.contains(cands[i]):
            rec(i, remaining.minus(cands[i]), parts + [cands[i]])

    rec(0, S, [])
    return out


@pytest.mark.parametrize("moduli,text", [
    ([3], "1^3 2^3"),
    ([3], "0^2 1^3 2^3"),
    ([3], "1^6 2^6"),
    ([4], "1^2 2 3^2 2"),
    ([4], "1^4 3^4"),
    ([2, 2], "0,1^2 1,0^2 1,1^2"),
    ([2, 2], "0,1 1,0 1,1 0,0^2"),
    ([5], "1^2 4^2 2 3"),
])
def test_factorizations_match_independent_enumeration(moduli, text):
    S = seqs(make_group(moduli), text)
    got = {tuple(sorted(p.expanded() for p in F)) for F in factorizations(S)}
    assert got == brute_force_factorizations(S)


def test_factorization_parts_concat_back():
    for text in ["1^3 2^3", "0^3 1 2", "1^6", "1^3 2^3 0"]:
        S = seqs(Z3, text)
        for F in factorizations(S):
            acc = ZSeq.empty(Z3)
            for p in F:
                assert is_minimal_zero_sum(p)
                acc = concat(acc, p)
            assert acc == S


def test_length_set_examples():
    assert length_set(seqs(Z3, "1^3 2^3")) == {2, 3}
    assert length_set(seqs(Z3, "1^3")) == {1}
    assert length_set(ZSeq.empty(Z3)) == {0}


def test_half_factorial_witness_examples():
    z3_els = enumerate_elements(Z3)
    w = half_factorial_witness(z3_els, 6)
    assert w is not None and len(length_set(w)) > 1 and w.length <= 6
    assert half_factorial_witness(enumerate_elements(make_group([2])), 8) is None
    assert half_factorial_witness([Z3.zero()], 5) is None


def test_half_factorial_witness_cap():
    with pytest.raises(CapExceeded):
        half_factorial_witness(enumerate_elements(Z3), 30)
    # each zero-sum candidate runs an atom search, which has no order cap of
    # its own, so the group order is capped here: 64 by default, or cap=
    Z100 = make_group([100])
    with pytest.raises(CapExceeded, match="group of order 100 exceeds cap 64"):
        half_factorial_witness(enumerate_elements(Z100), 2)
    assert half_factorial_witness([Z100.element([1]), Z100.element([99])], 4, cap=100) is None


def test_half_factorial_witness_budget(monkeypatch):
    # lengths in increasing order, each in combinations order over the sorted
    # coordinates: the README witness 1^2 2^2 3^2 over Z/4 is candidate k
    k = sum(math.comb(4 + L - 1, L) for L in range(1, 6)) + 1 + \
        list(itertools.combinations_with_replacement(range(4), 6)).index((1, 1, 2, 2, 3, 3))
    Z4 = make_group([4])
    monkeypatch.setattr(zerosum, "WITNESS_BUDGET", k)
    assert format_seq(half_factorial_witness(enumerate_elements(Z4), 8)) == "1^2 2^2 3^2"
    monkeypatch.setattr(zerosum, "WITNESS_BUDGET", k - 1)
    with pytest.raises(CapExceeded, match=rf"^witness search over order 4 exceeds its budget: "
                                          rf"scanned {k - 1} candidates, reached length 6$"):
        half_factorial_witness(enumerate_elements(Z4), 8)
    # beyond order 64 the budget shrinks in proportion to the order; 2 * 64 // 100
    # is 1, so the two candidates of length 1 alone are refused before any work
    monkeypatch.setattr(zerosum, "WITNESS_BUDGET", 2)
    Z100 = make_group([100])
    with pytest.raises(CapExceeded, match="length 1 alone needs 2 of 1 candidates$"):
        half_factorial_witness([Z100.element([1]), Z100.element([99])], 4, cap=100)


# ---------------------------------------------------------------- properties

small_groups = st.sampled_from([make_group(m) for m in ([2], [3], [4], [2, 2])])


@st.composite
def zseq_pairs(draw):
    G = draw(small_groups)
    els = enumerate_elements(G)
    pick = lambda: [draw(st.sampled_from(els)) for _ in range(draw(st.integers(0, 4)))]
    return G, ZSeq.from_elements(G, pick()), ZSeq.from_elements(G, pick())


@given(zseq_pairs())
@settings(max_examples=150)
def test_concat_monoid_laws(data):
    G, S, T = data
    assert concat(S, T) == concat(T, S)
    assert concat(S, ZSeq.empty(G)) == S
    assert concat(concat(S, T), S) == concat(S, concat(T, S))
    from nufact.abelian import add
    assert seq_sum(concat(S, T)) == add(seq_sum(S), seq_sum(T))


@given(zseq_pairs())
@settings(max_examples=60, deadline=None)
def test_length_sets_superadditive(data):
    G, S, T = data
    if not (is_zero_sum(S) and is_zero_sum(T)):
        return
    ls, lt = length_set(S), length_set(T)
    combined = length_set(concat(S, T))
    assert {x + y for x in ls for y in lt} <= combined


@pytest.mark.parametrize("moduli", [[3], [4], [2, 2]])
def test_witness_exists_within_twice_davenport(moduli):
    G = make_group(moduli)
    w = half_factorial_witness(enumerate_elements(G), 2 * davenport(G))
    assert w is not None
    assert len(length_set(w)) >= 2


def test_parse_format_round_trip():
    S = seqs(Z3, "2^3 1^3")
    assert parse_seq(Z3, format_seq(S)) == S
    assert format_seq(ZSeq.empty(Z3)) == ""
    K = seqs(K4, "1,0^2 0,1")
    assert parse_seq(K4, format_seq(K)) == K
