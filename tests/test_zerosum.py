import functools
import inspect
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nufact
from nufact import zerosum
from nufact import CapExceeded
from nufact.abelian import FinAbGroup, enumerate_elements
from nufact.zerosum import (
    _atoms,
    atoms,
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

Z3 = FinAbGroup([3])
K4 = FinAbGroup([2, 2])


def seqs(group, text):
    return parse_seq(group, text)


# ---------------------------------------------------------------- oracles
# Sequences are tuples of (element, multiplicity) pairs; the oracles below
# do their multiset arithmetic on Counters instead.

def multiset(S) -> Counter:
    return Counter(dict(S))


def as_seq(counts: Counter) -> tuple:
    return tuple(sorted((c, m) for c, m in counts.items() if m))


def expanded(S) -> tuple:
    return tuple(sorted(multiset(S).elements()))


def length(S) -> int:
    return multiset(S).total()


def concat(S, T) -> tuple:
    """Concatenation, the monoid product: multiplicities add."""
    counts = dict(S)
    for c, m in T:
        counts[c] = counts.get(c, 0) + m
    return tuple(sorted(counts.items()))


def naive_is_minimal(G, S) -> bool:
    """Check minimality by scanning every sub-multiset explicitly."""
    counts = multiset(S)
    if not counts or not is_zero_sum(G, S):
        return False
    items = list(counts.items())
    zero_count = 0
    for mults in itertools.product(*(range(m + 1) for _, m in items)):
        sub = Counter({c: k for (c, _), k in zip(items, mults)})
        if is_zero_sum(G, sub.items()):
            zero_count += 1
    return zero_count == 2  # the empty and the full sub-multiset only


def brute_force_atoms(group, max_len):
    """Independent enumeration: filter every multiset up to max_len."""
    coords = enumerate_elements(group)
    found = set()
    for L in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(coords, L):
            S = as_seq(Counter(combo))
            if naive_is_minimal(group, S):
                found.add(S)
    return found


# ---------------------------------------------------------------- examples

def test_seq_sum_examples():
    assert seq_sum(Z3, seqs(Z3, "1 2")) == Z3.zero()
    assert seq_sum(Z3, ()) == Z3.zero()
    assert seq_sum(Z3, seqs(Z3, "1^2")) == Z3.element([2])


def test_concat_examples():
    S = concat(seqs(Z3, "1^3"), seqs(Z3, "2^3"))
    assert S == seqs(Z3, "1^3 2^3")
    T = seqs(Z3, "1 2")
    assert concat(T, ()) == T
    assert concat(T, T) == seqs(Z3, "1^2 2^2")
    assert concat(seqs(Z3, "2"), seqs(Z3, "0 1")) == seqs(Z3, "0 1 2")


def test_is_zero_sum_examples():
    assert is_zero_sum(Z3, seqs(Z3, "1 2"))
    assert not is_zero_sum(Z3, seqs(Z3, "1"))
    assert is_zero_sum(Z3, ())


def test_is_minimal_zero_sum_examples():
    assert is_minimal_zero_sum(Z3, seqs(Z3, "1^3"))
    assert not is_minimal_zero_sum(Z3, seqs(Z3, "1^3 2^3"))
    assert is_minimal_zero_sum(Z3, seqs(Z3, "0"))
    assert not is_minimal_zero_sum(Z3, seqs(Z3, "0^2"))
    assert not is_minimal_zero_sum(Z3, ())
    # longer than the group's order, so not minimal, without the dynamic program
    assert not is_minimal_zero_sum(Z3, (((1,), 3 * 10**19),))


def test_minimality_matches_naive_oracle():
    for G in (Z3, K4):
        for L in range(0, G.order + 3):
            for combo in itertools.combinations_with_replacement(enumerate_elements(G), L):
                S = as_seq(Counter(combo))
                assert is_minimal_zero_sum(G, S) == naive_is_minimal(G, S)


def test_atoms_of_z3_exactly():
    got = {format_seq(S) for S in atoms(Z3)}
    assert got == {"0", "1 2", "1^3", "2^3"}


def test_atoms_single_zero():
    got = atoms(Z3, [Z3.zero()])
    assert got == [seqs(Z3, "0")]


def test_atoms_of_klein_four():
    # the identity atom, the three squares, and the all-involutions triple
    got = {format_seq(S) for S in atoms(K4)}
    assert got == {"0,0", "0,1^2", "1,0^2", "1,1^2", "0,1 1,0 1,1"}


@pytest.mark.parametrize("moduli,expected", [([1], 1), ([3], 3), ([2, 2], 3)])
def test_davenport_examples(moduli, expected):
    assert davenport(FinAbGroup(moduli)) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_davenport_cyclic(n):
    assert davenport(FinAbGroup([n])) == n


# every finite abelian group of order <= 16, in invariant factor form
GROUPS_UP_TO_16 = [[n] for n in range(1, 17)] + [
    [2, 2], [2, 4], [2, 2, 2], [3, 3], [2, 6],
    [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2]]


@pytest.mark.parametrize("moduli", GROUPS_UP_TO_16, ids=lambda m: "x".join(map(str, m)))
def test_davenport_matches_the_atom_search(moduli):
    G = FinAbGroup(moduli)
    coords = tuple(enumerate_elements(G))
    assert davenport(G) == max(map(length, _atoms(G.moduli, coords)))


@pytest.mark.parametrize("moduli", [
    [18], [20], [24], [3, 6], [2, 12], [3, 9], [3, 3, 3],
    [2, 2, 2, 2, 2], [2, 2, 2, 2, 2, 2]], ids=lambda m: "x".join(map(str, m)))
def test_davenport_equals_d_star(moduli):
    # D*(G) = 1 + sum(n_i - 1) equals D(G) for p-groups and groups of rank
    # <= 2 (Olson 1969; Geroldinger-Halter-Koch 2006, ch. 5)
    assert davenport(FinAbGroup(moduli)) == 1 + sum(n - 1 for n in moduli)


@functools.cache
def davenport_states(moduli: tuple) -> tuple[int, int | None, int]:
    """Brute force, on sets of elements rather than bitmasks: the states
    the Davenport search builds, one per set Sigma of a level and non-zero
    g with -g not in Sigma, duplicates included; the length it reports
    while building the last of them; and D(G), one more than the last
    non-empty level."""
    elements = enumerate_elements(FinAbGroup(moduli))[1:]

    def add(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, moduli))

    built, last, length, level = 0, None, 0, {frozenset()}
    while level:
        nxt = set()
        for sigma in level:
            for g in elements:
                if tuple(-x % n for x, n in zip(g, moduli)) in sigma:
                    continue
                built, last = built + 1, length + 1
                nxt.add(sigma | {g} | {add(s, g) for s in sigma})
        level, length = nxt, length + 1
    return built, last, length


def davenport_pin_failures(search, set_budget, moduli) -> list:
    """How search departs from the brute force's charge on the group: it
    must answer D(G) at a budget of exactly the states built, and at one
    less be refused while building the last of them."""
    built, last, d = davenport_states(tuple(moduli))
    G = FinAbGroup(moduli)
    failures = []
    set_budget(built)
    try:
        if search(G) != d:
            failures.append("wrong value")
    except CapExceeded as exc:
        failures.append(f"refused at {built}: {exc}")
    if built:
        set_budget(built - 1)
        want = (f"Davenport search over order {G.order} exceeds its budget: "
                f"searched {built - 1} subset-sum states, reached length {last}")
        try:
            search(G)
            failures.append(f"answered at {built - 1}")
        except CapExceeded as exc:
            if str(exc) != want:
                failures.append(f"refused with {exc}")
    return failures


@pytest.mark.parametrize("moduli", GROUPS_UP_TO_16, ids=lambda m: "x".join(map(str, m)))
def test_davenport_charges_exactly_the_states_it_builds(moduli, monkeypatch):
    # the search charges len(moves) - |Sigma| per set before expanding it
    set_budget = lambda b: monkeypatch.setattr(zerosum, "DAVENPORT_BUDGET", b)
    assert davenport_pin_failures(davenport, set_budget, moduli) == []


@pytest.mark.parametrize("off", ["+ 1", "- 1"])
def test_davenport_pin_catches_an_off_by_one_charge(off):
    # negative control: a copy whose charge per set is one off fails the
    # pin on every group with a state to build
    source = inspect.getsource(zerosum.davenport)
    charge = "meter.charge(len(moves) - M.bit_count())"
    assert source.count(charge) == 1
    namespace = dict(vars(zerosum))
    exec(source.replace(charge, f"meter.charge(len(moves) - M.bit_count() {off})"), namespace)
    set_budget = lambda b: namespace.__setitem__("DAVENPORT_BUDGET", b)
    assert all(davenport_pin_failures(namespace["davenport"], set_budget, moduli)
               for moduli in GROUPS_UP_TO_16[1:])


def test_davenport_state_budget(monkeypatch):
    # Z/16 has more than 2000 distinct subset-sum states; Z/8 has fewer
    monkeypatch.setattr(zerosum, "DAVENPORT_BUDGET", 2000)
    with pytest.raises(CapExceeded, match=r"searched 2000 subset-sum states, "
                                          r"reached length \d+$"):
        davenport(FinAbGroup([16]))
    assert davenport(FinAbGroup([8])) == 8


def test_atoms_state_budget(monkeypatch):
    # the atom search builds 7235 subset-sum states on Z/16 and 145 on Z/8
    monkeypatch.setattr(zerosum, "ATOM_BUDGET", 1000)
    with pytest.raises(CapExceeded, match=r"searched 1000 subset-sum states, "
                                          r"found \d+ atoms$"):
        atoms(FinAbGroup([16]))
    assert len(atoms(FinAbGroup([8]))) == 65
    # beyond order 64 the budget shrinks in proportion to the order; a search
    # whose length 1 alone is over it is refused before any work
    monkeypatch.undo()
    monkeypatch.setattr(zerosum, "GROUP_CAP", 10**8)
    G = FinAbGroup([10**8])
    with pytest.raises(CapExceeded, match="length 1 alone needs 1 of 0"):
        atoms(G, [(1,)])


def bounded_atom_cases():
    """(moduli, support, bounds, expected): every support of up to three
    elements of each group, with every bound vector of entries 1 to 3;
    expected is the unbounded atom list filtered to the atoms that fit."""
    for moduli in (5,), (6,), (2, 2), (2, 4), (3, 3):
        elements = enumerate_elements(FinAbGroup(moduli))
        for k in 1, 2, 3:
            for support in itertools.combinations(elements, k):
                unbounded = _atoms(moduli, support)
                for bounds in itertools.product(range(1, 4), repeat=k):
                    fit = dict(zip(support, bounds))
                    yield moduli, support, bounds, tuple(
                        A for A in unbounded if all(m <= fit[c] for c, m in A))


def test_bounded_atom_search_filters_the_unbounded_one():
    cases = list(bounded_atom_cases())
    for moduli, support, bounds, expected in cases:
        assert _atoms(moduli, support, bounds) == expected
    # the bounds cut atoms, and the kept atoms reach their bounds
    assert any(len(expected) < len(_atoms(moduli, support)) for moduli, support, _, expected
               in cases)
    assert any(m == 3 for *_, expected in cases for A in expected for _, m in A)


def test_bounded_atom_oracle_catches_an_off_by_one_bound():
    # negative control: a copy that allows one copy more than each bound
    # must disagree with the filtered lists
    source = inspect.getsource(zerosum._atoms)
    check = "chosen.count(coords[i]) == bounds[i]"
    assert check in source
    namespace = dict(vars(zerosum))
    exec(source.replace(check, "chosen.count(coords[i]) > bounds[i]"), namespace)
    loose = namespace["_atoms"]
    assert any(loose(moduli, support, bounds) != expected
               for moduli, support, bounds, expected in bounded_atom_cases())


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
    G = FinAbGroup(moduli)
    # D*(G) = 1 + sum(n_i - 1) equals D(G) for cyclic groups and p-groups
    # (Olson 1969); it keeps this oracle independent of the atom search
    expected = brute_force_atoms(G, 1 + sum(n - 1 for n in moduli))
    assert set(atoms(G)) == expected
    assert all(is_minimal_zero_sum(G, S) for S in atoms(G))


def test_atoms_cap(monkeypatch):
    with pytest.raises(CapExceeded, match="^group of order 65 exceeds cap 64$"):
        atoms(FinAbGroup([65]))
    with pytest.raises(CapExceeded, match="^group of order 65 exceeds cap 64$"):
        davenport(FinAbGroup([65]))
    monkeypatch.setattr(zerosum, "GROUP_CAP", 5)
    with pytest.raises(CapExceeded, match="^group of order 10 exceeds cap 5$"):
        atoms(FinAbGroup([10]))


@pytest.mark.parametrize("search", [atoms, davenport,
                                    lambda G: half_factorial_witness(G, 24)],
                         ids=["atoms", "davenport", "half_factorial_witness"])
def test_a_group_of_order_a_million_is_refused_by_the_order_cap(search):
    # the order cap is the one bound on a group's element list
    with pytest.raises(CapExceeded, match="^group of order 1000000 exceeds cap 64$"):
        search(FinAbGroup([10**6]))


def test_ground_set_passes_through_element(monkeypatch):
    # each given tuple is reduced once by G.element: (3,) is 0 in Z/3.  The
    # search over {1} builds 2 states; unreduced, (3,) never closes a zero
    # sum and the search runs to its budget, which is small here.  The
    # elements of a sequence to factor are reduced the same way
    monkeypatch.setattr(zerosum, "ATOM_BUDGET", 100)
    assert [format_seq(S) for S in atoms(Z3, [(1,), (3,)])] == ["0", "1^3"]
    assert format_seq(half_factorial_witness(Z3, 6, [(4,), (-1,)])) == "1^3 2^3"
    assert factorizations(Z3, (((3,), 1),)) == [((((0,), 1),),)]
    assert factorizations(Z3, (((1,), 2), ((4,), 1))) == [((((1,), 3),),)]
    with pytest.raises(CapExceeded, match="sequence length 25 exceeds cap 24"):
        factorizations(Z3, (((0,), 20), ((3,), 5)))
    for bad in [(1, 0)], [(1.5,)], [("1",)], [(True,)]:
        with pytest.raises(ValueError):
            atoms(Z3, bad)
        with pytest.raises(ValueError):
            half_factorial_witness(Z3, 4, bad)
        with pytest.raises(ValueError):
            factorizations(Z3, ((bad[0], 1),))
    for m in 0, -3, 1.0, True:
        with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
            factorizations(Z3, (((0,), 3), ((1,), m)))


def test_factorizations_of_the_worked_example():
    S = seqs(Z3, "1^3 2^3")
    facts = factorizations(Z3, S)
    shapes = [sorted(format_seq(p) for p in F) for F in facts]
    assert len(facts) == 2
    assert ["1^3", "2^3"] in shapes
    assert ["1 2", "1 2", "1 2"] in shapes


def test_factorizations_trivial_cases():
    assert factorizations(Z3, ()) == [()]
    zz = factorizations(Z3, seqs(Z3, "0^2"))
    assert len(zz) == 1 and [format_seq(p) for p in zz[0]] == ["0", "0"]


def test_factorizations_reject_non_zero_sum():
    with pytest.raises(ValueError):
        factorizations(Z3, seqs(Z3, "1"))


def brute_force_factorizations(G, S):
    """Independent enumeration: scan each candidate atom's multiplicity in
    index order instead of consuming smallest elements."""
    whole = multiset(S)
    cands = [multiset(A) for A in atoms(G, whole) if multiset(A) <= whole]
    out = set()

    def rec(i, remaining, parts):
        if not remaining:
            out.add(tuple(sorted(expanded(p) for p in parts)))
            return
        if i == len(cands):
            return
        rec(i + 1, remaining, parts)
        if cands[i] <= remaining:
            rec(i, remaining - cands[i], parts + [cands[i]])

    rec(0, whole, [])
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
    # sequences whose support has atoms that do not fit in them
    ([6], "1 2 3"),
    ([6], "1^3 2 3^3 4"),
    ([7], "1 2 4"),
    ([2, 2], "0,1 1,0 1,1"),
    ([2, 4], "0,1^2 0,2 1,1 1,3"),
    # an atom used twice: (1^3)(1^3)
    ([3], "1^6"),
])
def test_factorizations_match_independent_enumeration(moduli, text):
    G = FinAbGroup(moduli)
    S = seqs(G, text)
    got = {tuple(sorted(expanded(p) for p in F)) for F in factorizations(G, S)}
    assert got == brute_force_factorizations(G, S)


def test_walk_that_never_repeats_an_atom_misses_factorizations(monkeypatch,
                                                              never_repeating_walk):
    # negative control: with the planted bug the walk loses 1^6 = (1^3)(1^3),
    # and the brute force must tell
    S = seqs(Z3, "1^6")
    assert brute_force_factorizations(Z3, S) == {(((1,),) * 3,) * 2}
    monkeypatch.setattr(zerosum, "factorization_walk", never_repeating_walk)
    assert factorizations(Z3, S) == []


def test_factorizations_memory_follows_their_output():
    # ten non-zero elements of (Z/2)^4, each twice: 2,052 factorizations.
    # Copied dicts as search states and the sort on expanded parts peaked
    # at twice what the result holds
    G = FinAbGroup([2, 2, 2, 2])
    S = tuple((c, 2) for c in enumerate_elements(G)[1:11])
    tracemalloc.start()
    try:
        facts = factorizations(G, S)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(facts) == 2052
    assert peak <= 1.5 * held


def test_factorization_parts_concat_back():
    for text in ["1^3 2^3", "0^3 1 2", "1^6", "1^3 2^3 0"]:
        S = seqs(Z3, text)
        for F in factorizations(Z3, S):
            acc = ()
            for p in F:
                assert is_minimal_zero_sum(Z3, p)
                acc = concat(acc, p)
            assert acc == S


def test_length_set_examples():
    assert length_set(Z3, seqs(Z3, "1^3 2^3")) == {2, 3}
    assert length_set(Z3, seqs(Z3, "1^3")) == {1}
    assert length_set(Z3, ()) == {0}


def test_factorization_walk_budget(monkeypatch):
    # over Z/3, 1^3 2^3 has the candidate atoms 1^3 < 1 2 < 2^3, and the
    # walk tests 2 from the whole sequence, 1 from each of 1^2 2^2 and 1 2,
    # and 1 from 2^3 (popped last): 5 in all
    S = seqs(Z3, "1^3 2^3")
    monkeypatch.setattr(nufact, "FACTORIZATION_BUDGET", 5)
    assert length_set(Z3, S) == {2, 3}
    monkeypatch.setattr(nufact, "FACTORIZATION_BUDGET", 4)
    with pytest.raises(CapExceeded, match=r"^factorization search of length 6 exceeds its "
                                          r"budget: 4 candidate atoms, "
                                          r"found 1 factorizations$"):
        factorizations(Z3, S)


def test_half_factorial_witness_examples():
    w = half_factorial_witness(Z3, 6)
    assert w is not None and len(length_set(Z3, w)) > 1 and length(w) <= 6
    assert half_factorial_witness(FinAbGroup([2]), 8) is None
    assert half_factorial_witness(Z3, 5, [Z3.zero()]) is None


def test_half_factorial_witness_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        half_factorial_witness(Z3, 30)
    with pytest.raises(ValueError, match="^max_len must be >= 0$"):
        half_factorial_witness(Z3, -1)
    # each zero-sum candidate runs an atom search, which has no order cap of
    # its own, so the group order is capped here
    Z100 = FinAbGroup([100])
    with pytest.raises(CapExceeded, match="group of order 100 exceeds cap 64"):
        half_factorial_witness(Z100, 2)
    monkeypatch.setattr(zerosum, "GROUP_CAP", 100)
    assert half_factorial_witness(Z100, 4, [(1,), (99,)]) is None


def test_half_factorial_witness_budget(monkeypatch):
    # lengths in increasing order, each in combinations order over the sorted
    # coordinates: the README witness 1^2 2^2 3^2 over Z/4 is candidate k
    k = sum(math.comb(4 + L - 1, L) for L in range(1, 6)) + 1 + \
        list(itertools.combinations_with_replacement(range(4), 6)).index((1, 1, 2, 2, 3, 3))
    Z4 = FinAbGroup([4])
    monkeypatch.setattr(zerosum, "WITNESS_BUDGET", k)
    assert format_seq(half_factorial_witness(Z4, 8)) == "1^2 2^2 3^2"
    monkeypatch.setattr(zerosum, "WITNESS_BUDGET", k - 1)
    with pytest.raises(CapExceeded, match=rf"^witness search over order 4 exceeds its budget: "
                                          rf"scanned {k - 1} candidates, reached length 6$"):
        half_factorial_witness(Z4, 8)


# ---------------------------------------------------------------- properties

small_groups = st.sampled_from([FinAbGroup(m) for m in ([2], [3], [4], [2, 2])])


@st.composite
def zseq_pairs(draw):
    G = draw(small_groups)
    els = enumerate_elements(G)
    pick = lambda: Counter(draw(st.sampled_from(els)) for _ in range(draw(st.integers(0, 4))))
    return G, as_seq(pick()), as_seq(pick())


@given(zseq_pairs())
@settings(max_examples=150)
def test_concat_monoid_laws(data):
    G, S, T = data
    assert concat(S, T) == concat(T, S)
    assert concat(S, ()) == S
    assert concat(concat(S, T), S) == concat(S, concat(T, S))
    assert concat(S, T) == as_seq(multiset(S) + multiset(T))
    assert (seq_sum(G, concat(S, T))
            == G.element(map(operator.add, seq_sum(G, S), seq_sum(G, T))))


@given(zseq_pairs())
@settings(max_examples=60, deadline=None)
def test_length_sets_superadditive(data):
    G, S, T = data
    if not (is_zero_sum(G, S) and is_zero_sum(G, T)):
        return
    ls, lt = length_set(G, S), length_set(G, T)
    combined = length_set(G, concat(S, T))
    assert {x + y for x in ls for y in lt} <= combined


@pytest.mark.parametrize("moduli", [[3], [4], [2, 2]])
def test_witness_exists_within_twice_davenport(moduli):
    G = FinAbGroup(moduli)
    w = half_factorial_witness(G, 2 * davenport(G))
    assert w is not None
    assert len(length_set(G, w)) >= 2


def test_parse_format_round_trip():
    S = seqs(Z3, "2^3 1^3")
    assert parse_seq(Z3, format_seq(S)) == S
    assert S == (((1,), 3), ((2,), 3))
    assert format_seq(()) == ""
    K = seqs(K4, "1,0^2 0,1")
    assert parse_seq(K4, format_seq(K)) == K
