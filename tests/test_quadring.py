import inspect
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nufact
from nufact import quadring
from nufact.quadring import (
    ONE,
    CapExceeded,
    QuadInt,
    canonical_associate,
    divides,
    element_factorizations,
    elements_of_norm,
    format_quadint,
    is_atom,
    norm,
    parse_quadint,
    qmul,
    qneg,
)


def brute_elements_of_norm(n):
    """Independent box scan; the box provably covers all solutions."""
    out = set()
    bmax = math.isqrt(n) + 1
    amax = 2 * math.isqrt(n) + 2
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            if norm(QuadInt(a, b)) == n:
                out.add(QuadInt(a, b))
    return out


def test_qmul_examples():
    w = QuadInt(0, 1)
    assert qmul(w, w) == QuadInt(-6, 1)
    assert qmul(QuadInt(2, 0), QuadInt(2, 0)) == QuadInt(4, 0)
    assert qmul(QuadInt(1, 1), QuadInt(2, -1)) == QuadInt(8, 0)
    assert norm(QuadInt(1, 1)) * norm(QuadInt(2, -1)) == norm(QuadInt(8, 0))


def test_quadint_orders_by_coordinates():
    xs = [QuadInt(1, -1), QuadInt(0, 5), QuadInt(1, -2), QuadInt(-3, 9)]
    assert sorted(xs) == [QuadInt(-3, 9), QuadInt(0, 5), QuadInt(1, -2), QuadInt(1, -1)]
    assert QuadInt(1, -2) < QuadInt(1, -1) and repr(QuadInt(1, 1)) == "QuadInt(1+1*w)"
    assert len({QuadInt(2, 0), QuadInt(2, 0)}) == 1


def test_norm_examples():
    assert norm(QuadInt(2, 0)) == 4
    assert norm(QuadInt(1, 1)) == 8
    assert norm(ONE) == 1


def test_elements_of_norm_examples():
    assert elements_of_norm(2) == []
    assert set(elements_of_norm(1)) == {QuadInt(1, 0), QuadInt(-1, 0)}
    assert set(elements_of_norm(4)) == {QuadInt(2, 0), QuadInt(-2, 0)}
    # no element has a negative norm
    assert elements_of_norm(-5) == elements_of_norm(-1) == []


@pytest.mark.parametrize("n", list(range(0, 40)) + [64, 100, 529])
def test_elements_of_norm_against_box_scan(n):
    assert set(elements_of_norm(n)) == brute_elements_of_norm(n)


def test_elements_of_norm_cap():
    with pytest.raises(CapExceeded):
        elements_of_norm(10**7)


def test_divides_examples():
    assert divides(QuadInt(2, 0), QuadInt(8, 0)) == QuadInt(4, 0)
    q = divides(QuadInt(1, 1), QuadInt(8, 0))
    assert q is not None and norm(q) == 8
    assert divides(QuadInt(1, 1), QuadInt(2, 0)) is None
    with pytest.raises(ValueError, match="^division by zero$"):
        divides(QuadInt(0, 0), ONE)


def test_is_atom_examples():
    assert is_atom(QuadInt(2, 0))
    assert is_atom(QuadInt(1, 1))
    assert not is_atom(QuadInt(8, 0))
    with pytest.raises(ValueError):
        is_atom(QuadInt(0, 0))
    with pytest.raises(ValueError):
        is_atom(QuadInt(-1, 0))


def test_is_atom_cap(monkeypatch):
    # norm 2 * 500024500303 with the second factor prime: a divisor scan
    # would find nothing below it in 5 * 10**11 steps
    with pytest.raises(CapExceeded, match="^norm 1000049000606 exceeds cap 1000000$"):
        is_atom(QuadInt(1000024, 1))
    # refused even with a small divisor: 8 has norm 64
    monkeypatch.setattr(quadring, "NORM_CAP", 63)
    with pytest.raises(CapExceeded, match="^norm 64 exceeds cap 63$"):
        is_atom(QuadInt(8, 0))
    monkeypatch.setattr(quadring, "NORM_CAP", 64)
    assert not is_atom(QuadInt(8, 0))


def brute_is_atom(x):
    """Independent atom test: no element of norm strictly between 1 and
    norm(x) divides x."""
    n = norm(x)
    return not any(divides(y, x) is not None
                   for d in range(2, n) if n % d == 0 for y in elements_of_norm(d))


def test_is_atom_matches_a_full_divisor_scan():
    # is_atom scans divisor norms up to sqrt(N); this oracle scans up to N
    verdicts = Counter()
    for n in range(2, 2001):
        for x in elements_of_norm(n):
            atom = is_atom(x)
            assert atom == brute_is_atom(x), x
            verdicts[atom] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def associate_free(factorization):
    return sorted(canonical_associate(y) for y in factorization)


def test_factorizations_of_eight():
    facts = element_factorizations(QuadInt(8, 0))
    assert len(facts) == 2
    shapes = [associate_free(F) for F in facts]
    assert associate_free([QuadInt(2, 0)] * 3) in shapes
    assert associate_free([QuadInt(1, 1), QuadInt(2, -1)]) in shapes
    for F in facts:
        for y in F:
            assert is_atom(y)


def test_factorization_of_an_atom_is_itself():
    facts = element_factorizations(QuadInt(1, 1))
    assert len(facts) == 1 and len(facts[0]) == 1
    assert canonical_associate(facts[0][0]) == QuadInt(1, 1)


def test_factorization_of_four():
    facts = element_factorizations(QuadInt(4, 0))
    assert len(facts) == 1
    assert associate_free(facts[0]) == associate_free([QuadInt(2, 0), QuadInt(2, 0)])


def brute_force_factorizations(x):
    """Independent enumeration: find the atom divisors by a scan of every
    norm up to N(x), then take each with every feasible multiplicity in
    (norm, coordinates) order.  Lists the factorizations as
    element_factorizations orders them."""
    n = norm(x)
    cands = set()
    for d in range(2, n + 1):
        if n % d:
            continue
        for y in elements_of_norm(d):
            y = canonical_associate(y)
            if divides(y, x) is not None and brute_is_atom(y):
                cands.add(y)
    cands = sorted(cands, key=lambda y: (norm(y), y.a, y.b))
    out = []

    def rec(i, rest, parts):
        if norm(rest) == 1:
            out.append(tuple(parts))
            return
        if i == len(cands):
            return
        rec(i + 1, rest, parts)
        q = divides(cands[i], rest)
        if q is not None:
            rec(i, q, parts + [cands[i]])

    rec(0, x, [])
    return sorted(out, key=lambda F: (len(F), [(norm(y), y.a, y.b) for y in F]))


@pytest.mark.parametrize("x", [
    QuadInt(8, 0), QuadInt(4, 0), QuadInt(6, 0), QuadInt(16, 0),
    QuadInt(27, 0), QuadInt(1, 3), QuadInt(-5, 2), QuadInt(12, 0),
])
def test_factorizations_match_independent_enumeration(x):
    assert element_factorizations(x) == brute_force_factorizations(x)


# one associate of every element of norm 2..1000; the units are tested apart
CANONICAL_UP_TO_1000 = sorted({canonical_associate(x)
                               for n in range(2, 1001) for x in elements_of_norm(n)})


def test_factorizations_match_brute_force_up_to_norm_1000():
    assert len(CANONICAL_UP_TO_1000) == 658
    for x in CANONICAL_UP_TO_1000:
        assert element_factorizations(x) == brute_force_factorizations(x), x


def test_divisor_pairs_without_cofactors_miss_factorizations():
    # negative control: a copy of _divisor_pairs that yields only the small
    # divisor y misses the atoms of norm above sqrt(N), and must disagree
    namespace = dict(vars(quadring))
    source = inspect.getsource(quadring._divisor_pairs)
    assert "yield y, q\n" in source
    exec(source.replace("yield y, q\n", "yield (y,)\n"), namespace)
    exec(inspect.getsource(quadring.element_factorizations), namespace)
    broken = namespace["element_factorizations"]
    wrong = [x for x in CANONICAL_UP_TO_1000
             if broken(x) != brute_force_factorizations(x)]
    assert wrong[0] == QuadInt(0, 2) and len(wrong) == 299


def test_walk_that_never_repeats_an_atom_misses_factorizations(monkeypatch,
                                                              never_repeating_walk):
    # negative control: with the planted bug the walk loses 8 = 2*2*2, and
    # the brute force must tell
    two, eight = QuadInt(2, 0), QuadInt(8, 0)
    assert (two, two, two) in brute_force_factorizations(eight)
    monkeypatch.setattr(quadring, "factorization_walk", never_repeating_walk)
    assert element_factorizations(eight) == [(QuadInt(1, 1), QuadInt(2, -1))]


def test_factorization_walk_budget(monkeypatch):
    # 8 has the atoms 2 < 1+w < 2-w; the walk tests 3 from 8, 1 from
    # (8 / (2-w)), 2 from (8 / (1+w)), 3 from 4 and 3 from 2: 12 in all
    monkeypatch.setattr(nufact, "FACTORIZATION_BUDGET", 12)
    assert len(element_factorizations(QuadInt(8, 0))) == 2
    monkeypatch.setattr(nufact, "FACTORIZATION_BUDGET", 11)
    with pytest.raises(CapExceeded, match=r"^factorization search of norm 64 exceeds its "
                                          r"budget: 11 candidate atoms, "
                                          r"found 1 factorizations$"):
        element_factorizations(QuadInt(8, 0))


def test_factorizations_multiply_back_up_to_sign():
    for x in [QuadInt(8, 0), QuadInt(-8, 0), QuadInt(4, 0), QuadInt(6, 0),
              QuadInt(27, 0), QuadInt(1, 3), QuadInt(-5, 2)]:
        for F in element_factorizations(x):
            acc = ONE
            for y in F:
                acc = qmul(acc, y)
            assert acc == x or acc == qneg(x)


def test_unit_factors_as_empty_product():
    assert element_factorizations(ONE) == [()]
    assert element_factorizations(QuadInt(-1, 0)) == [()]


def test_factorization_cap():
    with pytest.raises(CapExceeded):
        element_factorizations(QuadInt(2000, 0))


coords = st.integers(-30, 30)


@given(coords, coords, coords, coords)
@settings(max_examples=200)
def test_norm_multiplicative(a, b, c, d):
    x, y = QuadInt(a, b), QuadInt(c, d)
    assert norm(qmul(x, y)) == norm(x) * norm(y)


def test_norm_multiplicative_exhaustive_small_box():
    box = [QuadInt(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for x in box:
        for y in box:
            assert norm(qmul(x, y)) == norm(x) * norm(y)


@given(coords, coords, coords, coords, coords, coords)
@settings(max_examples=100)
def test_qmul_commutative_associative(a, b, c, d, e, f):
    x, y, z = QuadInt(a, b), QuadInt(c, d), QuadInt(e, f)
    assert qmul(x, y) == qmul(y, x)
    assert qmul(qmul(x, y), z) == qmul(x, qmul(y, z))
    assert qmul(x, ONE) == x


def test_parse_and_format():
    assert parse_quadint("1+1*w") == QuadInt(1, 1)
    assert parse_quadint("8") == QuadInt(8, 0)
    assert parse_quadint("-2+3*w") == QuadInt(-2, 3)
    assert parse_quadint("w") == QuadInt(0, 1)
    assert parse_quadint("-w") == QuadInt(0, -1)
    assert parse_quadint("+w") == QuadInt(0, 1)
    assert parse_quadint("3w") == QuadInt(0, 3)
    for x in [QuadInt(8, 0), QuadInt(-2, 3), QuadInt(0, -1), QuadInt(5, 7)]:
        assert parse_quadint(format_quadint(x)) == x
    with pytest.raises(ValueError):
        parse_quadint("2+x")
    with pytest.raises(ValueError):
        parse_quadint("")


@pytest.mark.parametrize("text", ["1++w", "1+-w", "w-", "1-", "+", "--", "*w", "1+*w", "-*w"])
def test_parse_refuses_malformed_sign_runs(text):
    # each was read as a nearby element while unmatched signs were skipped,
    # or (the last three) while a `*` with no digits before it read as 1
    with pytest.raises(ValueError, match=r"^bad element syntax "):
        parse_quadint(text)
