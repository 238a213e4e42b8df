import random
from fractions import Fraction

import pytest

from nufact.quatcheck import (
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    QuatQ3,
    SqrtRat,
    format_quat,
    hadd,
    hmul,
    hneg,
    in_order,
    order_element,
    parse_quat,
    qnorm,
    verify_identity,
)

TARGET = parse_quat("1-2i+k")

DISPLAYED = [
    ["i+j", "-1-i-k"],
    ["-1-j+k", "i+j"],
    ["(1/2)-i+((r3-2)/2)k", "((r3+2)/2)-j+(1/2)k"],
]


def test_hmul_first_identity():
    assert hmul(parse_quat("i+j"), parse_quat("-1-i-k")) == TARGET


def test_hmul_second_identity():
    assert hmul(parse_quat("-1-j+k"), parse_quat("i+j")) == TARGET


def test_hmul_unit():
    q = parse_quat("(1/2)-i+((r3-2)/2)k")
    assert hmul(q, Q_ONE) == q
    assert hmul(Q_ONE, q) == q


def test_qnorm_examples():
    assert qnorm(parse_quat("i+j")) == SqrtRat.of(2)
    assert qnorm(TARGET) == SqrtRat.of(6)
    assert qnorm(Q_ONE) == SqrtRat.of(1)


def test_in_order_examples():
    assert in_order(parse_quat("i+j"))
    assert in_order(parse_quat("(1/2)-i+((r3-2)/2)k"))
    assert not in_order(parse_quat("1/2"))


@pytest.mark.parametrize("factors", DISPLAYED)
def test_displayed_factorizations_verify(factors):
    assert verify_identity([parse_quat(t) for t in factors], TARGET)


def test_verify_identity_rejects_wrong_product():
    assert not verify_identity([Q_ONE], Q_I)


def test_verify_identity_rejects_outside_order():
    # right product but a factor outside the lattice
    half = parse_quat("1/2")
    two = parse_quat("2")
    assert hmul(half, two) == Q_ONE
    assert not verify_identity([half, two], Q_ONE)


def test_parse_nesting_limit():
    assert parse_quat("(" * 100 + "i" + ")" * 100) == Q_I
    with pytest.raises(ValueError, match="^parentheses nested deeper than 100$"):
        parse_quat("(" * 101 + "i" + ")" * 101)
    assert parse_quat("-" * 5001 + "i") == hneg(Q_I)  # signs do not recurse


def test_values_are_tuples_with_exact_repr():
    q = parse_quat("(1/2)-i+((r3-2)/2)k")
    assert repr(q) == "QuatQ3(1/2-i+(-1+1/2*r3)k)"
    assert repr(SqrtRat.of(1, -1)) == "SqrtRat(1-r3)"
    assert q == QuatQ3(*q) and hash(q) == hash(QuatQ3(*q))
    assert {q, QuatQ3(*q)} == {q}


def test_verify_identity_needs_factors():
    with pytest.raises(ValueError):
        verify_identity([], Q_ONE)


def test_non_commutativity_witness():
    assert hmul(Q_I, Q_J) == Q_K
    assert hmul(Q_J, Q_I) == hneg(Q_K)


def rand_sqrtrat(rng, span=6):
    return SqrtRat(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                   Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def rand_quat(rng):
    return QuatQ3(*(rand_sqrtrat(rng) for _ in range(4)))


def test_qnorm_multiplicative_randomized():
    rng = random.Random(20230)
    for _ in range(300):
        p, q = rand_quat(rng), rand_quat(rng)
        assert qnorm(hmul(p, q)) == qnorm(p) * qnorm(q)


def test_hmul_associative_randomized():
    rng = random.Random(919)
    for _ in range(200):
        p, q, r = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        assert hmul(hmul(p, q), r) == hmul(p, hmul(q, r))


def rand_order_element(rng):
    coeff = lambda: SqrtRat(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
    return order_element(coeff(), coeff(), coeff(), coeff())


def test_order_is_closed_under_product_and_sum():
    rng = random.Random(4242)
    for _ in range(200):
        p, q = rand_order_element(rng), rand_order_element(rng)
        assert in_order(p) and in_order(q)
        assert in_order(hmul(p, q))
        assert in_order(hadd(p, q))


def test_parser_round_trips():
    for text in ["1-2i+k", "i+j", "-1-i-k", "(1/2)-i+((r3-2)/2)k",
                 "((r3+2)/2)-j+(1/2)k", "r3", "0", "-j"]:
        q = parse_quat(text)
        assert parse_quat(format_quat(q)) == q


def test_zero_has_no_inverse():
    for text in ["1/0", "1/(r3-r3)"]:
        with pytest.raises(ValueError, match=r"^zero has no inverse in Q\(sqrt\(3\)\)$"):
            parse_quat(text)


def test_parser_rejects_garbage():
    for text in ["1++", "(1", "2m", "1/j", ""]:
        with pytest.raises((ValueError, IndexError)):
            parse_quat(text)
