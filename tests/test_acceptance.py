"""Acceptance suite: every criterion is exact (no tolerances) and prints one
line when it holds.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines."""

import itertools
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

from nufact import (abelian, divcalc, divdraw, divwords, quadring, quatcheck, toracle, tring,
                    zerosum)

SVG_NS = "{http://www.w3.org/2000/svg}"


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_zero_sum_model():
    G = abelian.FinAbGroup([3])
    atom_set = {zerosum.format_seq(S) for S in zerosum.atoms(G)}
    assert atom_set == {"0", "1 2", "1^3", "2^3"}
    S = zerosum.parse_seq(G, "1^3 2^3")
    facts = zerosum.factorizations(G, S)
    assert len(facts) == 2
    assert zerosum.length_set(G, S) == {2, 3}
    report(1, "B(Z/3) atoms {0, 1·2, 1^3, 2^3}; 1^3·2^3 has 2 factorizations, lengths {2,3}")


def test_criterion_2_quadratic_order():
    assert quadring.elements_of_norm(2) == []
    facts = quadring.element_factorizations(quadring.QuadInt(8, 0))
    shapes = {tuple(sorted(quadring.canonical_associate(y) for y in F)) for F in facts}
    two = quadring.QuadInt(2, 0)
    expected = {
        (two, two, two),
        tuple(sorted([quadring.QuadInt(1, 1), quadring.QuadInt(2, -1)])),
    }
    assert shapes == expected
    for F in facts:
        assert all(quadring.is_atom(y) for y in F)
    lengths = {len(F) for F in facts}
    G = abelian.FinAbGroup([3])
    assert lengths == zerosum.length_set(G, zerosum.parse_seq(G, "1^3 2^3"))
    report(2, "8 = 2·2·2 = (1+w)(2-w) exactly; no norm-2 elements; lengths transfer to B(Z/3)")


def test_criterion_3_half_factorial_boundary():
    for moduli in ([1], [2]):
        G = abelian.FinAbGroup(moduli)
        assert zerosum.half_factorial_witness(G, 8) is None
    for moduli in ([3], [4], [2, 2]):
        G = abelian.FinAbGroup(moduli)
        bound = 2 * zerosum.davenport(G)
        W = zerosum.half_factorial_witness(G, bound)
        assert W is not None and sum(m for _, m in W) <= bound
        assert len(zerosum.length_set(G, W)) >= 2
    report(3, "half-factorial iff |G| <= 2: no witness for |G|<=2 up to length 8, "
              "witnesses within 2*davenport for Z/3, Z/4, Z/2xZ/2")


def test_criterion_4_quaternion_identities():
    target = quatcheck.parse_quat("1-2i+k")
    displayed = [
        ["i+j", "-1-i-k"],
        ["-1-j+k", "i+j"],
        ["(1/2)-i+((r3-2)/2)k", "((r3+2)/2)-j+(1/2)k"],
    ]
    for factors in displayed:
        assert quatcheck.verify_identity(
            [quatcheck.parse_quat(t) for t in factors], target)
    rng = random.Random(1729)

    def rand_quat():
        comp = lambda: quatcheck.SqrtRat(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        return quatcheck.QuatQ3(comp(), comp(), comp(), comp())

    for _ in range(1000):
        p, q = rand_quat(), rand_quat()
        assert quatcheck.qnorm(quatcheck.hmul(p, q)) == \
            quatcheck.qnorm(p) * quatcheck.qnorm(q)
    report(4, "all three displayed factorizations of 1-2i+k verify; "
              "norm multiplicative on 1000 random exact quaternions")


def test_criterion_5_divisor_calculus():
    cs = divcalc.CycleStructure.from_text("Q1>Q2>Q3")
    Q1, Q2, Q3 = (cs.indicator(p) for p in ("Q1", "Q2", "Q3"))
    assert divcalc.compose(cs, Q1, Q2) == cs.parse_divisor("2Q1+Q2")
    assert divcalc.compose(cs, Q2, Q1) == cs.parse_divisor("Q1+Q2")
    assert divcalc.compose_texts(cs, ["Q1", "Q2", "Q1"]) == divcalc.compose(cs, Q1, Q2)
    assert divcalc.compose_texts(cs, ["Q1", "Q2", "Q3"]) == cs.parse_divisor("3Q1+2Q2+Q3")

    words, _ = divwords.enumerate_factorizations_ex(cs, cs.parse_divisor("3Q1+2Q2+Q3"), 5)
    assert ["Q1", "Q2", "Q3"] in words
    assert ["Q2", "Q1", "Q3", "Q2", "Q3"] in words

    D = cs.parse_divisor("2Q1+Q3")
    for n in (-1, 0, 4):
        # a lifted point is (label index, level): Q1, Q2, Q3 are 0, 1, 2
        assert divcalc.apply_lifted(cs, D, (0, n)) == (2, n)
        assert divcalc.apply_lifted(cs, D, (1, n)) == (1, n)
        assert divcalc.apply_lifted(cs, D, (2, n)) == (0, n + 1)
    wind = cs.parse_divisor("4Q1")
    assert divcalc.apply_lifted(cs, wind, (0, 0)) == (1, 1)
    report(5, "compose reproduces the worked divisor products, Fig.2 words found, "
              "lifted-map values and winding as displayed")


def test_criterion_6_oracle_equivalence():
    cs = tring.cycle_structure(3)
    corpus3 = toracle.enumerate_ideals(3, 3)
    divisors3 = [tring.divisor_of(A) for A in corpus3]

    # (a) homomorphism over every pair
    for (A, DA), (B, DB) in itertools.product(zip(corpus3, divisors3), repeat=2):
        assert tring.divisor_of(tring.mul(A, B)) == divcalc.compose(cs, DA, DB)

    # (b) injectivity on the exponent <= 2 corpus
    corpus2 = toracle.enumerate_ideals(3, 2)
    seen = {}
    for A in corpus2:
        D = tring.divisor_of(A)
        assert D not in seen or seen[D] == A
        seen[D] = A
    assert len(seen) == len(corpus2)

    # (c) realizability of outputs; attainment of realizable divisors <= 2
    attained = set(divisors3)
    for D in divisors3:
        assert divcalc.is_realizable(cs, D)
    for D in itertools.product(range(3), repeat=3):
        if divcalc.is_realizable(cs, D):
            assert D in attained

    # (d) the tau cycle on maximal ideals
    Q1, Q2, Q3 = tring.maximal_ideals(3)
    assert tring.tau_ideal(Q1) == Q2
    assert tring.tau_ideal(Q2) == Q3
    assert tring.tau_ideal(Q3) == Q1
    report(6, f"T(3) oracle: homomorphism on {len(corpus3)}^2 pairs, injectivity on "
              f"{len(corpus2)} ideals, realizability image exact, tau 3-cycle")


def test_criterion_7_chain_independence():
    corpus = toracle.enumerate_ideals(3, 3)
    rng = random.Random(2024)
    for _ in range(100):
        A = corpus[rng.randrange(len(corpus))]
        base = tring.divisor_of(A)
        for _ in range(2):
            assert toracle._chain_divisor(A, rng) == base
    report(7, "100 seeded random T(3) ideals: alternative maximal chains "
              "give identical divisors")


def test_criterion_8_svg_rendering():
    cs = divcalc.CycleStructure.from_text("Q1>Q2>Q3")
    l = 3
    fig1 = ["Q1", "Q2", "Q3", "Q1+Q2+Q3", "7Q1+6Q2+8Q3"]
    for text in fig1:
        D = cs.parse_divisor(text)
        svg = divdraw.render_svg(cs, D)
        root = ET.fromstring(svg)  # well-formed XML
        paths = root.findall(f".//{SVG_NS}path")
        assert len(paths) == l
        for i, label in enumerate(cs.labels()):
            p = next(q for q in paths if q.get("data-source") == label)
            expected_winding = (i + D[i]) // l
            assert int(p.get("data-winding")) == expected_winding
            assert p.get("d").count("M") == expected_winding + 1
    report(8, "Fig.1 divisors render as well-formed SVG with l strands per panel "
              "and the predicted winding counts")
