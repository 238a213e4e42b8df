import functools
import inspect
import itertools
import math
import operator
import os
import pathlib
import random
import subprocess
import sys

import pytest

from nufact import CapExceeded, Meter, toracle, tring
from nufact.divcalc import apply_lifted, compose, is_realizable, landing
from nufact.toracle import _bump_candidates, _chain_divisor, enumerate_ideals, oracle_report
from nufact.tring import (
    _as_matrix,
    _bump,
    cycle_structure,
    divisor_of,
    format_matrix,
    intersect,
    is_ideal,
    maximal_ideals,
    mul,
    mul_texts,
    parse_matrix,
    ring_matrix,
    tau_ideal,
)

T3 = ring_matrix(3)
Q1, Q2, Q3 = maximal_ideals(3)
J3 = intersect(intersect(Q1, Q2), Q3)
CS3 = cycle_structure(3)


def left_dual(A):
    """Largest fractional matrix X with X*A inside the ring:
    x[i][j] = max_k (t[i][k] - a[j][k]).  Taken twice it is tau on ideals,
    the oracle for `tau_ideal` and for the order of `maximal_ideals`."""
    A = _as_matrix(A)
    t = ring_matrix(len(A))
    return tuple(tuple(max(map(operator.sub, trow, arow)) for arow in A) for trow in t)


def naive_is_ideal(A):
    """Triple-loop closure check, independent of the min-plus formulation."""
    l = len(A)
    t = ring_matrix(l)
    if any(A[i][j] < t[i][j] for i in range(l) for j in range(l)):
        return False
    for i in range(l):
        for j in range(l):
            for k in range(l):
                if t[i][j] + A[j][k] < A[i][k]:
                    return False
                if A[i][j] + t[j][k] < A[i][k]:
                    return False
    return True


def test_ring_matrix_shapes():
    assert ring_matrix(3) == ((0, 1, 1), (0, 0, 1), (0, 0, 0))
    assert ring_matrix(2) == ((0, 1), (0, 0))
    assert mul(T3, T3) == T3
    with pytest.raises(ValueError):
        ring_matrix(1)


def test_is_ideal_examples():
    assert is_ideal([[0, 1, 1], [0, 0, 1], [0, 0, 1]])  # Q1
    assert is_ideal(T3)
    assert not is_ideal([[0, 1, 1], [0, 0, 1], [1, 0, 0]])
    assert not naive_is_ideal([[0, 1, 1], [0, 0, 1], [1, 0, 0]])


def test_is_ideal_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(300):
        A = tuple(tuple(t + rng.randint(0, 2) for t in row) for row in T3)
        assert is_ideal(A) == naive_is_ideal(A)


def every_matrix(l, lo, hi):
    """Every l x l matrix with entries in lo..hi."""
    for flat in itertools.product(range(lo, hi + 1), repeat=l * l):
        yield tuple(flat[r * l:(r + 1) * l] for r in range(l))


# (l, lo, hi): every 3 x 3 matrix with entries -1..2 (262,144), every
# 2 x 2 one with entries -1..4 (1,296)
SMALL_BOXES = [(3, -1, 2), (2, -1, 4)]


def rule_disagreements(check, l, lo, hi):
    """The matrices of the box on which check differs from naive_is_ideal."""
    return [A for A in every_matrix(l, lo, hi) if check(A) != naive_is_ideal(A)]


@pytest.mark.parametrize("l, lo, hi", SMALL_BOXES)
def test_closure_rule_matches_naive_on_every_small_matrix(l, lo, hi):
    assert rule_disagreements(tring._is_ideal, l, lo, hi) == []


def without_wrap_term(term):
    """_is_ideal of a copy of the module whose closure rule drops one of its
    two +1 terms across the wrap."""
    src = inspect.getsource(tring._bound)
    assert src.count(term) == 1
    namespace = dict(vars(tring))
    exec(src.replace(term, ""), namespace)
    exec(inspect.getsource(tring._is_ideal), namespace)
    return namespace["_is_ideal"]


@pytest.mark.parametrize("term", [" + (i == 0)", " + (j == l - 1)"])
def test_closure_rule_negative_control(term):
    # the rule without either wrap term refuses ideals of T(2) and of T(3)
    check = without_wrap_term(term)
    for box in (2, -1, 4), (3, 0, 2):
        missed = rule_disagreements(check, *box)
        assert missed and all(naive_is_ideal(A) and not check(A) for A in missed)


def deep_product(l, seed):
    """The product of 40 * l seeded random maximal ideals of T(l): every
    entry at least 3 for l = 6 to 12."""
    rng = random.Random(seed)
    A = ring_matrix(l)
    for _ in range(40 * l):
        A = mul(A, maximal_ideals(l)[rng.randrange(l)])
    return A


@pytest.mark.parametrize("l", range(6, 13))
def test_closure_rule_on_deep_ideals_and_their_neighbours(l):
    A = deep_product(l, l)
    assert min(map(min, A)) >= 3 and is_ideal(A)
    for i, j, d in itertools.product(range(l), range(l), (-1, 1)):
        B = [list(row) for row in A]
        B[i][j] += d
        assert is_ideal(B) == naive_is_ideal(B)


def test_ideal_check_divisor_and_tau_take_no_product(monkeypatch):
    calls, product = [], tring._mul
    monkeypatch.setattr(tring, "_mul", lambda A, B: calls.append(A) or product(A, B))
    ideals = enumerate_ideals(3, 2) + [deep_product(8, 8)]
    assert calls  # the spy sees the products that built the deep ideal
    calls.clear()
    for A in ideals:
        assert is_ideal(A)
        divisor_of(A), tau_ideal(A)
    non_ideal = ((0, 1, 1), (0, 0, 1), (1, 0, 0))
    assert not is_ideal(non_ideal)
    for f in divisor_of, tau_ideal:
        with pytest.raises(ValueError, match="^not an integral ideal$"):
            f(non_ideal)
    assert calls == []


def test_mul_displayed_products():
    assert mul(Q1, Q2) == ((0, 1, 1), (0, 1, 1), (0, 1, 1))
    assert mul(Q2, Q1) == ((0, 1, 1), (0, 1, 1), (0, 0, 1))
    assert mul(Q2, Q1) == intersect(Q1, Q2)
    assert mul(mul(Q1, Q2), Q1) == mul(Q1, Q2)
    A = mul(Q1, Q3)
    assert mul(A, T3) == A and mul(T3, A) == A
    with pytest.raises(ValueError):
        mul(T3, ring_matrix(2))


def test_intersect_examples():
    assert intersect(Q1, Q2) == ((0, 1, 1), (0, 1, 1), (0, 0, 1))
    assert intersect(Q1, Q1) == Q1
    assert J3 == ((1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_maximal_ideals_are_diagonal_bumps():
    assert Q1 == ((0, 1, 1), (0, 0, 1), (0, 0, 1))
    assert Q2 == ((0, 1, 1), (0, 1, 1), (0, 0, 0))
    assert Q3 == ((1, 1, 1), (0, 0, 1), (0, 0, 0))
    for Q in maximal_ideals(3) + maximal_ideals(2):
        assert mul(Q, Q) == Q
    assert len(maximal_ideals(2)) == 2


def test_left_dual_examples():
    # (R : R) = R exactly
    assert left_dual(T3) == T3
    dj = left_dual(J3)
    # strictly larger than the ring
    assert all(x <= y for dr, tr in zip(dj, T3) for x, y in zip(dr, tr)) and dj != T3
    frac = left_dual(Q1)
    assert not is_ideal(frac)  # genuinely fractional
    assert is_ideal(left_dual(left_dual(Q1)))


def test_tau_cycle_on_maximal_ideals():
    assert tau_ideal(Q1) == Q2
    assert tau_ideal(Q2) == Q3
    assert tau_ideal(Q3) == Q1
    assert tau_ideal(J3) == J3
    with pytest.raises(ValueError):
        tau_ideal([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


# (l, max_exp) of the corpora tau is checked on
TAU_CORPORA = [(2, 10), (3, 4), (4, 2), (5, 1)]


def rotate_back(A):
    """The rotation the other way: tau's inverse."""
    l = len(A)
    return tuple(tuple(A[i - 1][j - 1] - (j == 0) + (i == 0) for j in range(l))
                 for i in range(l))


def conjugate(A):
    """Pi^-1 * A * Pi by min-plus products, Pi the generator of the radical:
    units below the diagonal and pi in the top-right corner.  A zero entry
    of Pi or Pi^-1 gets an exponent past every sum that involves A."""
    l = len(A)
    far = 2 * max(map(max, A)) + 4 * l + 4
    pi = tuple(tuple(0 if i == j + 1 else 1 if (i, j) == (0, l - 1) else far
                     for j in range(l)) for i in range(l))
    pi_inv = tuple(tuple(0 if j == i + 1 else -1 if (i, j) == (l - 1, 0) else far
                         for j in range(l)) for i in range(l))
    t = ring_matrix(l)
    assert mul(pi, t) == mul(t, pi) == functools.reduce(intersect, maximal_ideals(l))  # J
    return mul(mul(pi_inv, A), pi)


def tau_samples():
    """Every ideal of TAU_CORPORA, and seeded products of maximal ideals at
    l = 6 to 32."""
    for l, max_exp in TAU_CORPORA:
        yield from enumerate_ideals(l, max_exp)
    for l in (6, 7, 9, 12, 16, 24, 32):
        rng = random.Random(l)
        A = ring_matrix(l)
        for _ in range(3):
            for _ in range(2 * l):
                A = mul(A, maximal_ideals(l)[rng.randrange(l)])
            yield A


def test_tau_is_the_double_left_dual_and_the_conjugation_by_pi():
    for A in tau_samples():
        assert tau_ideal(A) == left_dual(left_dual(A)) == conjugate(A)


def test_tau_negative_control():
    # the rotation the other way agrees with the double left dual exactly
    # on the ideals that tau**2 fixes: on all of T(2), since tau**l is the
    # identity on ideals, and on some but not all of each larger corpus.
    # It disagrees on every sampled product
    for l, max_exp in TAU_CORPORA:
        corpus = enumerate_ideals(l, max_exp)
        agree = [rotate_back(A) == left_dual(left_dual(A)) for A in corpus]
        assert agree == [left_dual(left_dual(left_dual(left_dual(A)))) == A for A in corpus]
        assert all(agree) == (l == 2)
    for A in itertools.islice(tau_samples(), sum(len(enumerate_ideals(*c))
                                                 for c in TAU_CORPORA), None):
        assert rotate_back(A) != left_dual(left_dual(A))
        assert rotate_back(tau_ideal(A)) == A


def test_tau_matches_cycle_structure_successor():
    maxi = maximal_ideals(3)
    labels = CS3.labels()
    for idx, Q in enumerate(maxi):
        img = tau_ideal(Q)
        hits = [i for i, R in enumerate(maxi) if R == img]
        assert labels[hits[0]] == CS3.successor(labels[idx])


def test_divisor_of_examples():
    assert divisor_of(Q1) == CS3.parse_divisor("Q1")
    assert divisor_of(Q2) == CS3.parse_divisor("Q2")
    assert divisor_of(J3) == CS3.parse_divisor("Q1+Q2+Q3")
    assert divisor_of(mul(Q1, Q2)) == CS3.parse_divisor("2Q1+Q2")
    assert divisor_of(mul(Q2, Q1)) == CS3.parse_divisor("Q1+Q2")
    assert divisor_of(T3) == CS3.zero()
    with pytest.raises(ValueError):
        divisor_of([[0, 1, 1], [0, 0, 1], [1, 0, 0]])


def test_enumerate_ideals_small():
    assert enumerate_ideals(2, 0) == [ring_matrix(2)]
    with pytest.raises(ValueError, match="^max_exp must be >= 0$"):
        enumerate_ideals(3, -1)

    keys = set(enumerate_ideals(2, 1))
    t2 = ring_matrix(2)
    m1, m2 = maximal_ideals(2)
    j2 = intersect(m1, m2)
    for A in (t2, m1, m2, j2):
        assert A in keys

    displayed = [T3, Q1, Q2, Q3, J3, mul(Q1, Q2), mul(Q2, Q1), mul(T3, T3)]
    keys3 = set(enumerate_ideals(3, 1))
    for A in displayed:
        assert A in keys3
    assert all(is_ideal(A) for A in enumerate_ideals(3, 1))


def test_enumerate_ideals_cap(monkeypatch):
    with pytest.raises(CapExceeded, match="^T\\(4\\) with exponents <= 5 has more than 447 "
                                          "ideals; the oracle's pair budget 200000 admits "
                                          "at most 447$"):
        enumerate_ideals(4, 5)
    # T(4) with exponents <= 1 has 42 ideals: admitted while 42 * 42 pairs fit
    monkeypatch.setattr(toracle, "ORACLE_PAIR_BUDGET", 1764)
    assert len(enumerate_ideals(4, 1)) == 42
    monkeypatch.setattr(toracle, "ORACLE_PAIR_BUDGET", 1763)
    with pytest.raises(CapExceeded, match="^T\\(4\\) with exponents <= 1 has more than 41 "
                                          "ideals; the oracle's pair budget 1763 admits "
                                          "at most 41$"):
        enumerate_ideals(4, 1)


def test_mul_associative_and_identity_on_corpus():
    corpus2 = enumerate_ideals(2, 2)
    for A, B, C in itertools.product(corpus2, repeat=3):
        assert mul(mul(A, B), C) == mul(A, mul(B, C))
    corpus3 = enumerate_ideals(3, 2)
    t = ring_matrix(3)
    rng = random.Random(11)
    for A in corpus3:
        assert mul(A, t) == A
        assert mul(t, A) == A
    for _ in range(2000):
        A, B, C = (corpus3[rng.randrange(len(corpus3))] for _ in range(3))
        assert mul(mul(A, B), C) == mul(A, mul(B, C))


def test_mul_texts_budget_boundary(monkeypatch):
    # each product is charged max(l**3, MUL_FLOOR) before any is taken: at
    # the real constants 370 products of 2 x 2 matrices fit, and 371 are
    # refused by their floors before any text is parsed
    Z = "[[0,0],[0,0]]"
    parsed, products = [], []
    monkeypatch.setattr(tring, "parse_matrix", lambda text: parsed.append(text) or
                        parse_matrix(text))
    monkeypatch.setattr(tring, "mul", lambda A, B: products.append(A) or mul(A, B))
    assert mul_texts([Z] * 371) == ((0, 0), (0, 0))
    assert len(parsed) == 371 and len(products) == 370
    parsed.clear(), products.clear()
    with pytest.raises(CapExceeded, match="^multiplying 372 matrices costs at least 10017000 "
                                          "steps, over the budget of 10000000$"):
        mul_texts([Z] * 372)
    assert parsed == products == []
    # a refusal by the floors reads no text, not even a malformed one
    with pytest.raises(CapExceeded, match="^multiplying 372 matrices costs at least"):
        mul_texts(["not json"] * 372)
    # above the floor a product costs l**3, the excess charged once the
    # first text is parsed: three 3 x 3 matrices cost 54 at a floor of 10
    A, B = "[[0,1,1],[0,0,1],[0,0,1]]", "[[0,1,1],[0,1,1],[0,0,0]]"
    Q1Q2 = ((0, 1, 1), (0, 1, 1), (0, 1, 1))
    monkeypatch.setattr(tring, "MUL_FLOOR", 10)
    monkeypatch.setattr(tring, "MUL_BUDGET", 54)
    assert mul_texts([A, B, A]) == Q1Q2
    parsed.clear(), products.clear()
    monkeypatch.setattr(tring, "MUL_BUDGET", 53)
    with pytest.raises(CapExceeded, match="^multiplying 3 matrices of size 3 costs 54 steps, "
                                          "over the budget of 53$"):
        mul_texts([A, B, A])
    assert parsed == [A] and products == []
    # below the floor the floors are the whole cost: three 2 x 2 matrices
    # cost 20, and so do three 3 x 3 ones at a budget of 19, both refused
    # before any text is parsed
    monkeypatch.setattr(tring, "MUL_BUDGET", 20)
    assert mul_texts([Z] * 3) == ((0, 0), (0, 0))
    parsed.clear()
    monkeypatch.setattr(tring, "MUL_BUDGET", 19)
    for texts in [Z] * 3, [A, B, A]:
        with pytest.raises(CapExceeded, match="^multiplying 3 matrices costs at least 20 "
                                              "steps, over the budget of 19$"):
            mul_texts(texts)
    assert parsed == []
    # a single matrix takes no product, and is validated
    monkeypatch.setattr(tring, "MUL_BUDGET", 0)
    assert mul_texts(["[[0,1],[0,0]]"]) == ((0, 1), (0, 0))
    with pytest.raises(ValueError, match="must be square"):
        mul_texts(["[[0,1]]"])


def test_mul_texts_refuses_no_texts_before_any_charge(monkeypatch):
    # with no matrix there is no size, so no identity to return; the
    # refusal comes before the budget is built or charged
    meters = []
    monkeypatch.setattr(tring, "Meter", lambda *a: meters.append(a) or Meter(*a))
    with pytest.raises(ValueError, match="^need at least one matrix$"):
        mul_texts([])
    assert meters == []
    assert mul_texts(["[[0,1],[0,0]]"]) == ((0, 1), (0, 0)) and len(meters) == 1


def test_products_of_ideals_are_ideals():
    corpus = enumerate_ideals(3, 1)
    for A, B in itertools.product(corpus, repeat=2):
        assert is_ideal(mul(A, B))


def test_divisor_homomorphism_on_l2_corpus():
    cs2 = cycle_structure(2)
    corpus = enumerate_ideals(2, 2)
    divs = [divisor_of(A) for A in corpus]
    for (A, DA), (B, DB) in itertools.product(zip(corpus, divs), repeat=2):
        assert divisor_of(mul(A, B)) == compose(cs2, DA, DB)


def test_divisor_outputs_realizable():
    for A in enumerate_ideals(3, 2):
        assert is_realizable(CS3, divisor_of(A))


def test_chain_independence_randomized():
    rng = random.Random(101)
    corpus = enumerate_ideals(3, 2)
    for _ in range(60):
        A = corpus[rng.randrange(len(corpus))]
        assert _chain_divisor(A, rng) == divisor_of(A)


@pytest.mark.parametrize("l, max_exp", [(2, 12), (3, 4), (4, 2)])
def test_row_sum_divisor_matches_a_seeded_chain_walk(l, max_exp):
    rng = random.Random(0)
    for A in enumerate_ideals(l, max_exp):
        assert _chain_divisor(A, rng) == divisor_of(A)


def l_products_chain_divisor(A, rng):
    """The chain walk with l full products per step: each step labels
    itself by forming P * e for every maximal ideal P."""
    l = len(A)
    maxi = maximal_ideals(l)
    counts = [0] * l
    e = ring_matrix(l)
    while e != A:
        candidates = _bump_candidates(e, A)
        i, j = candidates[rng.randrange(len(candidates))]
        f = _bump(e, i, j)
        hits = [idx for idx, Q in enumerate(maxi)
                if all(x >= y for rq, rf in zip(mul(Q, e), f) for x, y in zip(rq, rf))]
        assert len(hits) == 1
        counts[hits[0]] += 1
        e = f
    return tuple(counts)


CHAIN_CORPORA = [(2, 6), (3, 3), (4, 1)]


@pytest.mark.parametrize("l, max_exp", CHAIN_CORPORA)
def test_shared_step_product_matches_l_products(l, max_exp):
    # the same covers, hence the same rng draws, on both sides
    for A in enumerate_ideals(l, max_exp):
        for seed in (0, 3, 11):
            assert _chain_divisor(A, random.Random(seed)) == \
                l_products_chain_divisor(A, random.Random(seed))


def test_shared_step_product_negative_control():
    # a copy that takes every row of P * e from e unchanged finds no label
    src = inspect.getsource(_chain_divisor)
    line = "Qe[r] = tuple(min(map(add, Q[r], col)) for col in cols)"
    assert src.count(line) == 1
    namespace = dict(vars(toracle))
    exec(src.replace(line, "Qe[r] = e[r]"), namespace)
    for l, max_exp in CHAIN_CORPORA:
        with pytest.raises(RuntimeError, match="^chain step admits 0 maximal ideals"):
            namespace["_chain_divisor"](enumerate_ideals(l, max_exp)[-1], random.Random(0))


# the entries whose cover candidacy a raise of (i, j) can change
RETESTED = ["(i, j)", "((i + 1) % l, j)", "(i, (j - 1) % l)"]


def checked_chain_divisor(retested=RETESTED):
    """A copy of _chain_divisor that re-tests the given entries after each
    raise and asserts, before each step, that its covers are those the
    fresh cover test lists, in the same order."""
    src = inspect.getsource(_chain_divisor)
    update = "{" + ", ".join(RETESTED) + "}"
    check = "        if not candidates:\n"
    assert src.count(update) == 1 and src.count(check) == 1
    src = src.replace(update, "{" + ", ".join(retested) + "}")
    src = src.replace(check, "        assert candidates == _bump_candidates(e, A)\n" + check)
    namespace = dict(vars(toracle))
    exec(src, namespace)
    return namespace["_chain_divisor"]


def stale_walks(walk, l, max_exp):
    """The number of seeded walks over the corpus whose covers drift from
    the fresh cover test's."""
    stale = 0
    for A in enumerate_ideals(l, max_exp):
        for seed in (0, 3, 11):
            try:
                walk(A, random.Random(seed))
            except AssertionError:
                stale += 1
    return stale


@pytest.mark.parametrize("l, max_exp", CHAIN_CORPORA)
def test_incremental_covers_are_the_fresh_covers(l, max_exp):
    assert stale_walks(checked_chain_divisor(), l, max_exp) == 0


@pytest.mark.parametrize("neighbour", RETESTED)
def test_incremental_covers_negative_control(neighbour):
    # a copy that does not re-test one of the three entries a raise moves
    # drifts from the fresh cover test on every corpus
    walk = checked_chain_divisor([n for n in RETESTED if n != neighbour])
    for l, max_exp in CHAIN_CORPORA:
        assert stale_walks(walk, l, max_exp) > 0, (l, max_exp)


@pytest.mark.parametrize("A", [
    [[0, 1], [0, 1]],
    [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
    [[1, 1, 2], [1, 1, 2], [1, 1, 1]],
])
def test_chain_divisor_accepts_lists(A):
    # divisor_of validates list input; the walk takes a validated matrix
    for rng in (random.Random(0), random.Random(7)):
        assert _chain_divisor(_as_matrix(A), rng) == divisor_of(A)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_row_labels_are_the_diagonal_bumps(l):
    t = ring_matrix(l)
    rows = tuple(next(i for i in range(l) if Q[i][i] != t[i][i]) for Q in maximal_ideals(l))
    assert sorted(rows) == list(range(l))
    for j, i in enumerate(rows):
        bump = tuple(tuple(v + (r == c == i) for c, v in enumerate(row))
                     for r, row in enumerate(t))
        assert maximal_ideals(l)[j] == bump
        assert divisor_of(bump) == tuple(int(k == j) for k in range(l))
    # the double dual orders the bumps from the last diagonal entry up:
    # label Q_k, at index k - 1, raises row l - k
    assert rows == tuple(l - k for k in range(1, l + 1))


ORACLE_PROPERTIES = ["homomorphism", "injectivity", "realizability_image", "chain_independence"]


def test_oracle_report_default_passes():
    report = oracle_report(l=3, max_exp=2, seed=1, chain_trials=10)
    assert report["all_pass"]
    assert list(report["properties"]) == ORACLE_PROPERTIES


def test_oracle_report_l2_passes():
    assert oracle_report(l=2, max_exp=1, seed=0, chain_trials=5)["all_pass"]
    assert oracle_report(l=2, max_exp=3, seed=0, chain_trials=10)["all_pass"]


def test_oracle_report_l4_passes():
    assert oracle_report(l=4, max_exp=1, seed=0, chain_trials=10)["all_pass"]


def test_oracle_report_size_and_trial_caps():
    # checked before any ring is built, so a huge size is refused at once
    with pytest.raises(CapExceeded, match="size 33 exceeds the oracle's size cap 32$"):
        oracle_report(l=33, max_exp=0)
    with pytest.raises(CapExceeded, match="size 10000000000 exceeds"):
        oracle_report(l=10**10)
    with pytest.raises(CapExceeded, match="101 chain trials exceed cap 100$"):
        oracle_report(l=2, max_exp=1, chain_trials=101)
    assert oracle_report(l=2, max_exp=1, chain_trials=100)["all_pass"]


def test_oracle_report_pair_budget(monkeypatch):
    # T(4) with exponents <= 1 has 42 ideals, so 1764 pairs; enumerate_ideals
    # refuses the 42nd ideal when the budget admits at most 41
    monkeypatch.setattr(toracle, "ORACLE_PAIR_BUDGET", 1764)
    assert oracle_report(l=4, max_exp=1, chain_trials=0)["corpus_size"] == 42
    monkeypatch.setattr(toracle, "ORACLE_PAIR_BUDGET", 1763)
    with pytest.raises(CapExceeded, match="^T\\(4\\) with exponents <= 1 has more than 41 "
                                          "ideals; the oracle's pair budget 1763 admits "
                                          "at most 41$"):
        oracle_report(l=4, max_exp=1, chain_trials=0)


def test_parse_matrix_refuses_deep_nesting():
    with pytest.raises(ValueError, match="expected a JSON array of integer rows"):
        parse_matrix("[" * 100_000)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 8, 16, 32])
def test_tau_orbit_general_size(l):
    # the double left dual walks the diagonal bumps from last to first; this
    # is the oracle for the closed form of maximal_ideals, up to
    # ORACLE_SIZE_CAP, and the rotation walks them alike
    t = ring_matrix(l)
    Qs = maximal_ideals(l)
    for idx, Q in enumerate(Qs):
        bump = [(r, c) for r in range(l) for c in range(l) if Q[r][c] != t[r][c]]
        assert bump == [(l - 1 - idx, l - 1 - idx)]
        assert left_dual(left_dual(Q)) == tau_ideal(Q) == Qs[(idx + 1) % l]


def assert_t3_report(report, corpus_size=44, **counterexamples):
    """The whole report of oracle_report(3, 2), in key order: every property
    passes except those given, each with its counterexample."""
    expected = {"ring_size": 3, "max_exp": 2, "seed": 0, "corpus_size": corpus_size,
                "properties": {name: {"pass": name not in counterexamples}
                               for name in ORACLE_PROPERTIES}}
    for name, counterexample in counterexamples.items():
        expected["properties"][name]["counterexample"] = counterexample
    expected["all_pass"] = not counterexamples
    assert report == expected
    assert list(report) == list(expected)
    assert list(report["properties"]) == ORACLE_PROPERTIES


def chain_wrong_on(monkeypatch, ideal):
    """Patch the chain walk to add the number of walks so far to the first
    count of the given ideal's divisor, so the counterexample names the
    first trial that draws it."""
    calls = 0

    def wrong(A, rng):
        nonlocal calls
        calls += 1
        got = _chain_divisor(A, rng)
        return (got[0] + calls,) + got[1:] if A == ideal else got

    monkeypatch.setattr(toracle, "_chain_divisor", wrong)


# The counterexamples below were captured before each property became a
# generator of its counterexamples.  Corpus ideals 12 and 43 of T(3) with
# exponents <= 2 are ((1,1,1),(1,1,1),(0,1,1)) and the ideal of all 2s.

def test_oracle_injectivity_negative_control(monkeypatch):
    corpus = enumerate_ideals(3, 2)
    monkeypatch.setattr(toracle, "divisor_of",
                        lambda A: divisor_of(corpus[12] if A == corpus[43] else A))
    # every ideal is a product, A * T(3), so the homomorphism breaks too
    assert_t3_report(oracle_report(3, 2), homomorphism={
        "A": ((0, 1, 1), (0, 0, 1), (0, 0, 1)),
        "B": ((2, 2, 2), (2, 2, 2), (1, 1, 1)),
        "divisor_of_product": "2Q1+2Q2+Q3",
        "composed": "6Q1+5Q2+4Q3",
    }, injectivity={"A": corpus[12], "B": corpus[43], "divisor": "2Q1+2Q2+Q3"})


def test_oracle_realizability_negative_control_attained(monkeypatch):
    monkeypatch.setattr(toracle, "is_realizable",
                        lambda cs, D: D != (1, 1, 1) and is_realizable(cs, D))
    assert_t3_report(oracle_report(3, 2), realizability_image={
        "A": ((1, 1, 1), (0, 1, 1), (0, 0, 1)), "divisor": "Q1+Q2+Q3"})


def test_oracle_realizability_negative_control_missing(monkeypatch):
    # drop the one ideal of divisor Q2+Q3; its counts are <= max_exp - 1
    dropped = ((1, 1, 1), (0, 1, 1), (0, 0, 0))
    assert divisor_of(dropped) == (0, 1, 1)
    monkeypatch.setattr(toracle, "enumerate_ideals",
                        lambda l, max_exp: [A for A in enumerate_ideals(l, max_exp)
                                            if A != dropped])
    assert_t3_report(oracle_report(3, 2), corpus_size=43,
                     realizability_image={"missing_divisor": "Q2+Q3"})


def test_oracle_chain_independence_negative_control(monkeypatch):
    # seed 0 first draws corpus ideal 12 in the 7th of 20 trials: 2 + 7 = 9
    chain_wrong_on(monkeypatch, enumerate_ideals(3, 2)[12])
    assert_t3_report(oracle_report(3, 2), chain_independence={
        "A": ((1, 1, 1), (1, 1, 1), (0, 1, 1)), "expected": "2Q1+2Q2+Q3",
        "got": "9Q1+2Q2+Q3"})


def checked_cases(cs, D, E):
    """The cases whose lifted-map checks compose(cs, D, E) runs: at each
    label i, (i, D[i], E[j]) with j the label where D's move of (i, 0)
    lands."""
    return {(i, c, E[apply_lifted(cs, D, (i, 0))[0]]) for i, c in enumerate(D)}


def first_reaching_pairs(cs, divs):
    """The pairs of divs, in A-major order, whose compose checks reach a
    case that no earlier pair of the list reaches, and every case reached."""
    pairs, reached = [], set()
    for D, E in itertools.product(divs, repeat=2):
        cases = checked_cases(cs, D, E)
        if not cases <= reached:
            pairs.append((D, E))
            reached |= cases
    return pairs, reached


def compose_spy(calls, corrupt=lambda out: out):
    """A compose that records its (D, E) in calls and returns corrupt of its
    value."""

    def spy(cs, D, E):
        calls.append((D, E))
        return corrupt(compose(cs, D, E))

    return spy


def landing_spy(monkeypatch, *wrong):
    """Patch the oracle's landing pass to record its divisors and, for the
    given ideals, to land Q2's move where Q3's lands; compose keeps its own
    landing pass.  Returns the recorded divisors."""
    wrong = set(map(divisor_of, wrong))
    calls = []

    def spy(cs, D):
        calls.append(D)
        lands = landing(cs, D)
        return [lands[0], lands[2], *lands[2:]] if D in wrong else lands

    monkeypatch.setattr(toracle, "landing", spy)
    return calls


def divisor_of_spy(monkeypatch):
    """Patch the oracle's divisor_of to record its ideals; returns them."""
    calls = []

    def spy(A):
        calls.append(A)
        return divisor_of(A)

    monkeypatch.setattr(toracle, "divisor_of", spy)
    return calls


def wrong_landing_failures(corpus, wrong):
    """(a, b, counterexample) for each pair of corpus indices, in A-major
    order, with a in wrong, where the formula with corpus[a]'s Q2 landing
    where its Q3 lands differs from the divisor of the product, by mul and
    divisor_of."""
    cs = cycle_structure(3)
    for (a, A), (b, B) in itertools.product(enumerate(corpus), repeat=2):
        if a in wrong:
            DA, DB, got = divisor_of(A), divisor_of(B), divisor_of(mul(A, B))
            lands = [apply_lifted(cs, DA, (i, 0))[0] for i in range(3)]
            composed = tuple(c + DB[j] for c, j in zip(DA, [lands[0], lands[2], lands[2]]))
            if composed != got:
                yield a, b, {"A": A, "B": B, "divisor_of_product": cs.format_divisor(got),
                             "composed": cs.format_divisor(composed)}


def test_oracle_lands_once_per_corpus_divisor_in_corpus_order(monkeypatch):
    divs = [divisor_of(A) for A in enumerate_ideals(3, 2)]
    landed = landing_spy(monkeypatch)
    assert_t3_report(oracle_report(3, 2))
    assert landed == divs


def test_oracle_composes_each_pair_that_first_reaches_a_case(monkeypatch):
    # compose runs, in A-major order, on exactly the pairs whose checks
    # reach a case that no pair composed before reached: 107 of the 1,936
    # pairs, for the 109 cases the pairs reach
    divs = [divisor_of(A) for A in enumerate_ideals(3, 2)]
    pairs, reached = first_reaching_pairs(CS3, divs)
    calls = []
    monkeypatch.setattr(toracle, "compose", compose_spy(calls))
    assert_t3_report(oracle_report(3, 2))
    assert calls == pairs
    assert len(calls) == 107 and len(reached) == 109


def unchecked_cases(l, max_exp, calls):
    """The cases the pairs of the corpus reach, by brute force over the
    pairs, that no compose call in calls checks; no pair may be composed
    twice."""
    cs = cycle_structure(l)
    divs = [divisor_of(A) for A in enumerate_ideals(l, max_exp)]
    assert len(set(calls)) == len(calls) <= len(divs) ** 2
    reached = set().union(*(checked_cases(cs, D, E) for D, E in itertools.product(divs, repeat=2)))
    return reached - set().union(*(checked_cases(cs, D, E) for D, E in calls))


@pytest.mark.parametrize("l, max_exp", [(3, 2), (2, 4)])
def test_oracle_compose_checks_every_case_the_pairs_reach(monkeypatch, l, max_exp):
    calls = []
    monkeypatch.setattr(toracle, "compose", compose_spy(calls))
    assert oracle_report(l, max_exp, chain_trials=0)["all_pass"]
    assert unchecked_cases(l, max_exp, calls) == set()


@pytest.mark.parametrize("l, max_exp", [(3, 2), (2, 4)])
def test_coverage_catches_a_cover_that_skips_a_case(l, max_exp):
    # negative control: a cover that composes no pair reaching (0, 0, 0),
    # the first label's case of the ring times itself, still passes, and
    # leaves exactly that case unchecked
    source = inspect.getsource(oracle_report)
    pick = "if pending and any(DB[j] in counts for j, counts in zip(lands, left)):"
    assert source.count(pick) == 1
    calls = []
    namespace = dict(vars(toracle), compose=compose_spy(calls))
    exec(source.replace(pick, pick[:-1] + " and (0, DA[0], DB[lands[0]]) != (0, 0, 0):"),
         namespace)
    assert namespace["oracle_report"](l, max_exp, chain_trials=0)["all_pass"]
    assert unchecked_cases(l, max_exp, calls) == {(0, 0, 0)}


def test_oracle_report_negative_control(monkeypatch):
    # a compose wrong at every pair fails at the first pair, the ring times
    # itself, which reaches a case first: compose runs on that pair alone,
    # since the loop stops there
    corpus = enumerate_ideals(3, 2)
    divs = [divisor_of(A) for A in corpus]
    calls = []
    monkeypatch.setattr(toracle, "compose",
                        compose_spy(calls, lambda out: (out[0] + 1,) + out[1:]))
    landed = landing_spy(monkeypatch)
    assert_t3_report(oracle_report(3, 2), homomorphism={
        "A": T3, "B": T3, "divisor_of_product": "0", "composed": "Q1"})
    assert landed == divs[:1]
    assert calls == first_reaching_pairs(CS3, divs)[0][:1] == [(divs[0], divs[0])]


def test_oracle_reports_the_a_major_first_failing_pair(monkeypatch):
    # Q2 landing where Q3 lands first fails at (0, 2) for corpus ideal 0,
    # the ring, and at (5, 1) for ideal 5: (0, 2) comes first in A-major
    # order and (5, 1) in B-major order
    corpus = enumerate_ideals(3, 2)
    failures = list(wrong_landing_failures(corpus, {0, 5}))
    assert failures[0][:2] == (0, 2)
    assert min(failures, key=lambda f: (f[1], f[0]))[:2] == (5, 1)
    landed = landing_spy(monkeypatch, corpus[0], corpus[5])
    validated = divisor_of_spy(monkeypatch)
    assert_t3_report(oracle_report(3, 2), homomorphism=failures[0][2])
    # the loop stops at the first failing pair: the landing pass ran for
    # ideal 0 alone, and divisor_of validated the corpus and the products
    # of (0, 0), (0, 1) and (0, 2), while (0, 3) gives a new product
    pairs = [(corpus[0], B) for B in corpus[:4]]
    assert len({mul(A, B) for A, B in pairs}) == 4
    assert landed == [divisor_of(corpus[0])]
    assert validated == corpus + [mul(A, B) for A, B in pairs[:3]]


def test_oracle_reports_every_failing_property(monkeypatch):
    # one failed property does not stop the others
    corpus = enumerate_ideals(3, 2)
    a, b, counterexample = next(wrong_landing_failures(corpus, {7}))
    landed = landing_spy(monkeypatch, corpus[7])
    validated = divisor_of_spy(monkeypatch)
    chain_wrong_on(monkeypatch, corpus[12])
    assert_t3_report(oracle_report(3, 2), homomorphism=counterexample, chain_independence={
        "A": ((1, 1, 1), (1, 1, 1), (0, 1, 1)), "expected": "2Q1+2Q2+Q3",
        "got": "9Q1+2Q2+Q3"})
    # the homomorphism stops at its first failing pair, (7, 1)
    assert (a, b) == (7, 1)
    assert landed == [divisor_of(A) for A in corpus[:8]]
    pairs = itertools.islice(itertools.product(corpus, repeat=2), a * len(corpus) + b + 1)
    assert validated == corpus + list(dict.fromkeys(itertools.starmap(mul, pairs)))


@pytest.mark.parametrize("l, max_exp, calls", [(2, 10, 177), (3, 3, 227), (3, 4, 317),
                                               (4, 1, 152)])
def test_oracle_validates_each_corpus_ideal_and_distinct_product_once(
        monkeypatch, l, max_exp, calls):
    corpus = enumerate_ideals(l, max_exp)
    distinct = set(map(mul, *zip(*itertools.product(corpus, repeat=2))))
    seen = divisor_of_spy(monkeypatch)
    assert oracle_report(l=l, max_exp=max_exp, chain_trials=0)["all_pass"]
    assert len(seen) == len(corpus) + len(distinct) == calls
    assert seen[:len(corpus)] == corpus
    assert set(seen[len(corpus):]) == distinct


@pytest.mark.parametrize("l, max_exp", [(3, 2), (2, 4), (4, 1)])
def test_product_key_negative_control(l, max_exp):
    # a copy whose cache key drops the product's last row id reuses one
    # product's divisor for another
    src = inspect.getsource(oracle_report)
    assert src.count("product_divisors.get(key)") == src.count("product_divisors[key]") == 1
    namespace = dict(vars(toracle))
    exec(src.replace("product_divisors.get(key)", "product_divisors.get(key[:-1])")
         .replace("product_divisors[key]", "product_divisors[key[:-1]]"), namespace)
    report = namespace["oracle_report"](l=l, max_exp=max_exp, chain_trials=0)
    assert not report["properties"]["homomorphism"]["pass"]
    assert oracle_report(l=l, max_exp=max_exp, chain_trials=0)["all_pass"]


def cover_disagreements(candidates, l, max_exp):
    """Pairs e <= a of ideals where candidates(e, a) differs from the
    brute-force filter: every position below a whose bump passes the
    triple-loop closure check."""
    corpus = enumerate_ideals(l, max_exp)
    bad = 0
    for e, a in itertools.product(corpus, repeat=2):
        if all(x <= y for re, ra in zip(e, a) for x, y in zip(re, ra)):
            brute = [(i, j) for i in range(l) for j in range(l)
                     if e[i][j] < a[i][j] and naive_is_ideal(_bump(e, i, j))]
            bad += candidates(e, a) != brute
    return bad


COVER_SIZES = [(2, 6), (3, 2), (4, 1)]


@pytest.mark.parametrize("l, max_exp", COVER_SIZES)
def test_local_cover_test_matches_brute_force(l, max_exp):
    assert cover_disagreements(_bump_candidates, l, max_exp) == 0


def weak_cover_namespace():
    """A copy of the module whose cover test lets an entry reach one past
    its closure bound, as if the closure inequalities were weak."""
    src = inspect.getsource(_bump_candidates)
    assert src.count("_bound(e, i, j))") == 1
    namespace = dict(vars(toracle))
    exec(src.replace("_bound(e, i, j))", "_bound(e, i, j) + 1)"), namespace)
    return namespace


def test_local_cover_test_negative_control():
    # the weak cover test disagrees with brute force on every size
    weak = weak_cover_namespace()["_bump_candidates"]
    for l, max_exp in COVER_SIZES:
        assert cover_disagreements(weak, l, max_exp) > 0


def test_matrix_io():
    A = parse_matrix("[[0,1,1],[0,0,1],[0,0,1]]")
    assert A == Q1
    text = format_matrix(A)
    assert "D" in text and "(pi)" in text
    assert format_matrix([[0, 2], [0, 0]]).count("(pi^2)") == 1
    with pytest.raises(ValueError):
        parse_matrix("not json")
    for text in ("[[0,1],[0,0],[0,0]]", "[]", "[[]]", "[[0,1],[0]]", "5", "null"):
        with pytest.raises(ValueError, match="square"):
            parse_matrix(text)
    for text in ("[[0.5,1],[0,0]]", "[[true,1],[0,0]]", '[[0,"1"],[0,0]]', "[[0,1.0],[0,0]]"):
        with pytest.raises(ValueError, match="integers"):
            parse_matrix(text)
    with pytest.raises(ValueError, match="integers"):
        mul([[0, 1], [0, 0]], [[0, 1], [0, False]])


def brute_force_ideals(l, max_exp):
    """Every candidate in the box, in lexicographic order, kept when the
    triple-loop closure check accepts it."""
    t = ring_matrix(l)
    ranges = [range(t[i][j], max(t[i][j], max_exp) + 1)
              for i in range(l) for j in range(l)]
    brute = []
    for flat in itertools.product(*ranges):
        A = tuple(flat[r * l:(r + 1) * l] for r in range(l))
        if naive_is_ideal(A):
            brute.append(A)
    return brute


BRUTE_SIZES = [(2, e) for e in range(5)] + [(3, e) for e in range(3)] + [(4, 1)]


@pytest.mark.parametrize("l, max_exp", BRUTE_SIZES)
def test_enumerate_ideals_matches_brute_force(l, max_exp):
    assert enumerate_ideals(l, max_exp) == brute_force_ideals(l, max_exp)


def test_cover_walk_negative_control():
    # the walk over the weak cover test admits non-ideals in every box
    # larger than the ring alone; past 447 of them it refuses, which
    # disagrees too, since no brute-force box holds that many ideals
    namespace = weak_cover_namespace()
    exec(inspect.getsource(enumerate_ideals), namespace)
    weak = namespace["enumerate_ideals"]
    for l, max_exp in BRUTE_SIZES:
        if max_exp:
            try:
                got = weak(l, max_exp)
            except CapExceeded:
                got = None
            assert got != brute_force_ideals(l, max_exp)


def fill_enumerate_ideals(l, max_exp):
    """Reference enumeration, independent of the cover test: a depth-first
    fill in row-major order, each cell ranging over the values that the
    closure inequalities against the cells already filled allow, so every
    completed matrix is an ideal, in lexicographic order.  It refuses the
    448th ideal with enumerate_ideals' message."""
    t = ring_matrix(l)
    limit = math.isqrt(toracle.ORACLE_PAIR_BUDGET)
    a = [[0] * l for _ in range(l)]

    def values(pos):
        p, q = divmod(pos, l)
        lo = max([t[p][q]]
                 + [a[i][q] - t[i][p] for i in range(p)]
                 + [a[p][k] - t[q][k] for k in range(q)])
        hi = min([max(t[p][q], max_exp)]
                 + [t[p][j] + a[j][q] for j in range(p)]
                 + [a[p][j] + t[j][q] for j in range(q)])
        return range(lo, hi + 1)

    out = []
    stack = [iter(values(0))]
    while stack:
        pos = len(stack) - 1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        p, q = divmod(pos, l)
        a[p][q] = v
        if pos + 1 == l * l:
            if len(out) == limit:
                raise CapExceeded(f"T({l}) with exponents <= {max_exp} has more than {limit} "
                                  f"ideals; the oracle's pair budget {toracle.ORACLE_PAIR_BUDGET} "
                                  f"admits at most {limit}")
            out.append(tuple(map(tuple, a)))
        else:
            stack.append(iter(values(pos + 1)))
    return out


@pytest.mark.parametrize("l, max_exp", [(2, 50), (3, 10), (4, 2), (5, 1), (6, 1), (32, 0)])
def test_cover_walk_matches_the_fill(l, max_exp):
    # shapes out of brute force's reach: (3, 10) alone has 11**6 * 10**3 candidates
    assert enumerate_ideals(l, max_exp) == fill_enumerate_ideals(l, max_exp)


@pytest.mark.parametrize("l, max_exp", [(7, 1), (9, 2), (32, 1)])
def test_cover_walk_and_fill_refuse_alike(l, max_exp):
    with pytest.raises(CapExceeded) as walk:
        enumerate_ideals(l, max_exp)
    with pytest.raises(CapExceeded) as fill:
        fill_enumerate_ideals(l, max_exp)
    assert str(walk.value) == str(fill.value)


def test_triangular_oracle_demo_runs():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(root / "demos" / "triangular_oracle.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "tau(Q1) == Q2: True" in proc.stdout
    assert "all properties pass: True" in proc.stdout
