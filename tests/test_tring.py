import inspect
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from nufact import tring
from nufact.divcalc import compose, is_realizable
from nufact.tring import (
    CapExceeded,
    _as_matrix,
    _bump,
    _bump_candidates,
    _chain_divisor,
    cycle_structure,
    divisor_of,
    double_dual,
    enumerate_ideals,
    format_matrix,
    intersect,
    is_ideal,
    left_dual,
    maximal_ideals,
    mul,
    oracle_report,
    parse_matrix,
    ring_matrix,
    tau_ideal,
)

T3 = ring_matrix(3)
Q1, Q2, Q3 = maximal_ideals(3)
J3 = intersect(intersect(Q1, Q2), Q3)
CS3 = cycle_structure(3)


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
    assert is_ideal(double_dual(Q1))


def test_tau_cycle_on_maximal_ideals():
    assert tau_ideal(Q1) == Q2
    assert tau_ideal(Q2) == Q3
    assert tau_ideal(Q3) == Q1
    assert tau_ideal(J3) == J3
    with pytest.raises(ValueError):
        tau_ideal([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


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
    with pytest.raises(CapExceeded, match="^T\\(4\\) with exponents <= 5 has more than 300 "
                                          "ideals; the oracle's pair budget 90000 admits "
                                          "at most 300$"):
        enumerate_ideals(4, 5)
    # T(4) with exponents <= 1 has 42 ideals: admitted while 42 * 42 pairs fit
    monkeypatch.setattr(tring, "ORACLE_PAIR_BUDGET", 1764)
    assert len(enumerate_ideals(4, 1)) == 42
    monkeypatch.setattr(tring, "ORACLE_PAIR_BUDGET", 1763)
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
def test_row_sum_divisor_matches_lex_chain_walk(l, max_exp):
    for A in enumerate_ideals(l, max_exp):
        assert _chain_divisor(A, None) == divisor_of(A)


def l_products_chain_divisor(A, rng):
    """The chain walk with l full products per step: each step labels
    itself by forming P * e for every maximal ideal P."""
    l = len(A)
    maxi = maximal_ideals(l)
    counts = [0] * l
    e = ring_matrix(l)
    while e != A:
        candidates = _bump_candidates(e, A)
        i, j = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
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
        for seed in (None, 3, 11):
            assert _chain_divisor(A, seed and random.Random(seed)) == \
                l_products_chain_divisor(A, seed and random.Random(seed))


def test_shared_step_product_negative_control():
    # a copy that takes every row of P * e from t * e finds no label
    src = inspect.getsource(_chain_divisor)
    line = "Qe[r] = tuple(min(map(add, Q[r], col)) for col in cols)"
    assert src.count(line) == 1
    namespace = dict(vars(tring))
    exec(src.replace(line, "Qe[r] = te[r]"), namespace)
    for l, max_exp in CHAIN_CORPORA:
        with pytest.raises(RuntimeError, match="^chain step admits 0 maximal ideals"):
            namespace["_chain_divisor"](enumerate_ideals(l, max_exp)[-1], None)


@pytest.mark.parametrize("A", [
    [[0, 1], [0, 1]],
    [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
    [[1, 1, 2], [1, 1, 2], [1, 1, 1]],
])
def test_chain_divisor_accepts_lists(A):
    # divisor_of validates list input; the walk takes a validated matrix
    for rng in (None, random.Random(7)):
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
    monkeypatch.setattr(tring, "ORACLE_PAIR_BUDGET", 1764)
    assert oracle_report(l=4, max_exp=1, chain_trials=0)["corpus_size"] == 42
    monkeypatch.setattr(tring, "ORACLE_PAIR_BUDGET", 1763)
    with pytest.raises(CapExceeded, match="^T\\(4\\) with exponents <= 1 has more than 41 "
                                          "ideals; the oracle's pair budget 1763 admits "
                                          "at most 41$"):
        oracle_report(l=4, max_exp=1, chain_trials=0)


def test_parse_matrix_refuses_deep_nesting():
    with pytest.raises(ValueError, match="expected a JSON array of integer rows"):
        parse_matrix("[" * 100_000)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 8, 16, 32])
def test_tau_orbit_general_size(l):
    # the double dual walks the diagonal bumps from last to first; this is
    # the oracle for the closed form of maximal_ideals, up to ORACLE_SIZE_CAP
    t = ring_matrix(l)
    Qs = maximal_ideals(l)
    for idx, Q in enumerate(Qs):
        bump = [(r, c) for r in range(l) for c in range(l) if Q[r][c] != t[r][c]]
        assert bump == [(l - 1 - idx, l - 1 - idx)]
        assert tau_ideal(Q) == Qs[(idx + 1) % l]


def test_oracle_report_negative_control(monkeypatch):
    def corrupted(cs, D, E):
        good = compose(cs, D, E)
        return (good[0] + 1,) + good[1:]

    monkeypatch.setattr(tring, "compose", corrupted)
    report = oracle_report(l=3, max_exp=1)
    assert not report["all_pass"]
    assert not report["properties"]["homomorphism"]["pass"]
    assert "counterexample" in report["properties"]["homomorphism"]


def test_oracle_composes_once_per_pair_in_a_major_order(monkeypatch):
    corpus = enumerate_ideals(3, 2)
    divs = [divisor_of(A) for A in corpus]
    calls = []

    def counting(cs, D, E):
        calls.append((D, E))
        return compose(cs, D, E)

    monkeypatch.setattr(tring, "compose", counting)
    report = oracle_report(l=3, max_exp=2)
    assert report["all_pass"]
    assert len(calls) == report["corpus_size"] ** 2 == 44 ** 2
    assert calls == list(itertools.product(divs, repeat=2))


def test_oracle_reports_the_a_major_first_failing_pair(monkeypatch):
    # (7, 20) comes first in A-major order and (12, 3) in B-major order; the
    # expected counterexample was captured before the products were
    # row-factored
    corpus = enumerate_ideals(3, 2)
    divs = [divisor_of(A) for A in corpus]
    corrupt = {(divs[7], divs[20]), (divs[12], divs[3])}
    calls = 0

    def corrupted(cs, D, E):
        nonlocal calls
        calls += 1
        good = compose(cs, D, E)
        return (good[0], good[1] + 1) + good[2:] if (D, E) in corrupt else good

    monkeypatch.setattr(tring, "compose", corrupted)
    report = oracle_report(l=3, max_exp=2)
    assert report["properties"]["homomorphism"] == {"pass": False, "counterexample": {
        "A": ((1, 1, 1), (0, 1, 1), (0, 0, 0)),
        "B": ((1, 1, 2), (1, 1, 2), (0, 0, 1)),
        "divisor_of_product": "Q1+3Q2+2Q3",
        "composed": "Q1+4Q2+2Q3",
    }}
    assert calls == 7 * 44 + 21  # the loop stops at the first failing pair
    assert [name for name, p in report["properties"].items() if not p["pass"]] == [
        "homomorphism"]


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

    monkeypatch.setattr(tring, "_chain_divisor", wrong)


# The counterexamples below were captured before each property became a
# generator of its counterexamples.  Corpus ideals 12 and 43 of T(3) with
# exponents <= 2 are ((1,1,1),(1,1,1),(0,1,1)) and the ideal of all 2s.

def test_oracle_injectivity_negative_control(monkeypatch):
    corpus = enumerate_ideals(3, 2)
    monkeypatch.setattr(tring, "divisor_of",
                        lambda A: divisor_of(corpus[12] if A == corpus[43] else A))
    # every ideal is a product, A * T(3), so the homomorphism breaks too
    assert_t3_report(oracle_report(3, 2), homomorphism={
        "A": ((0, 1, 1), (0, 0, 1), (0, 0, 1)),
        "B": ((2, 2, 2), (2, 2, 2), (1, 1, 1)),
        "divisor_of_product": "2Q1+2Q2+Q3",
        "composed": "6Q1+5Q2+4Q3",
    }, injectivity={"A": corpus[12], "B": corpus[43], "divisor": "2Q1+2Q2+Q3"})


def test_oracle_realizability_negative_control_attained(monkeypatch):
    monkeypatch.setattr(tring, "is_realizable",
                        lambda cs, D: D != (1, 1, 1) and is_realizable(cs, D))
    assert_t3_report(oracle_report(3, 2), realizability_image={
        "A": ((1, 1, 1), (0, 1, 1), (0, 0, 1)), "divisor": "Q1+Q2+Q3"})


def test_oracle_realizability_negative_control_missing(monkeypatch):
    # drop the one ideal of divisor Q2+Q3; its counts are <= max_exp - 1
    dropped = ((1, 1, 1), (0, 1, 1), (0, 0, 0))
    assert divisor_of(dropped) == (0, 1, 1)
    monkeypatch.setattr(tring, "enumerate_ideals",
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


def test_oracle_reports_every_failing_property(monkeypatch):
    # one failed property does not stop the others
    corpus = enumerate_ideals(3, 2)
    divs = [divisor_of(A) for A in corpus]

    def corrupted(cs, D, E):
        good = compose(cs, D, E)
        return (good[0], good[1] + 1) + good[2:] if (D, E) == (divs[7], divs[20]) else good

    monkeypatch.setattr(tring, "compose", corrupted)
    chain_wrong_on(monkeypatch, corpus[12])
    assert_t3_report(oracle_report(3, 2), homomorphism={
        "A": ((1, 1, 1), (0, 1, 1), (0, 0, 0)),
        "B": ((1, 1, 2), (1, 1, 2), (0, 0, 1)),
        "divisor_of_product": "Q1+3Q2+2Q3",
        "composed": "Q1+4Q2+2Q3",
    }, chain_independence={
        "A": ((1, 1, 1), (1, 1, 1), (0, 1, 1)), "expected": "2Q1+2Q2+Q3",
        "got": "9Q1+2Q2+Q3"})


@pytest.mark.parametrize("l, max_exp, calls", [(2, 10, 177), (3, 3, 227), (3, 4, 317),
                                               (4, 1, 152)])
def test_oracle_validates_each_corpus_ideal_and_distinct_product_once(
        monkeypatch, l, max_exp, calls):
    corpus = enumerate_ideals(l, max_exp)
    distinct = set(map(mul, *zip(*itertools.product(corpus, repeat=2))))
    seen = []

    def counting(A):
        seen.append(A)
        return divisor_of(A)

    monkeypatch.setattr(tring, "divisor_of", counting)
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
    namespace = dict(vars(tring))
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
    """A copy of the module whose cover test has its two strict
    inequalities made weak."""
    src = inspect.getsource(_bump_candidates)
    assert src.count(" > e[i][j] for k in") == 2
    namespace = dict(vars(tring))
    exec(src.replace(" > e[i][j] for k in", " >= e[i][j] for k in"), namespace)
    return namespace


def test_local_cover_test_negative_control():
    weak = weak_cover_namespace()["_bump_candidates"]
    assert all(cover_disagreements(weak, l, max_exp) > 0 for l, max_exp in COVER_SIZES)


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
    # larger than the ring alone; past 300 of them it refuses, which
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
    301st ideal with enumerate_ideals' message."""
    t = ring_matrix(l)
    limit = math.isqrt(tring.ORACLE_PAIR_BUDGET)
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
                                  f"ideals; the oracle's pair budget {tring.ORACLE_PAIR_BUDGET} "
                                  f"admits at most {limit}")
            out.append(tuple(map(tuple, a)))
        else:
            stack.append(iter(values(pos + 1)))
    return out


@pytest.mark.parametrize("l, max_exp", [(2, 50), (3, 10), (4, 2), (5, 1), (32, 0)])
def test_cover_walk_matches_the_fill(l, max_exp):
    # shapes out of brute force's reach: (3, 10) alone has 11**6 * 10**3 candidates
    assert enumerate_ideals(l, max_exp) == fill_enumerate_ideals(l, max_exp)


@pytest.mark.parametrize("l, max_exp", [(6, 1), (9, 2), (32, 1)])
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
