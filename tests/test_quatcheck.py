import inspect
import random
import time
from fractions import Fraction

import pytest

from nufact import quatcheck
from nufact.quatcheck import (
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    R0,
    SQRT3,
    QuatQ3,
    SqrtRat,
    format_quat,
    hadd,
    hmul,
    hneg,
    in_order,
    parse_quat,
    qnorm,
    scalar_mul,
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


def test_deep_input_parses_in_linear_time():
    # no recursion, so no nesting cap: 100,000 parentheses are a list of frames
    n = 100_000
    for text, value in [("(" * n + "i" + ")" * n, Q_I), ("-" * (n + 1) + "i", hneg(Q_I)),
                        ("2" + "(" * n + "-i" + ")" * n + "j", hneg(parse_quat("2k")))]:
        start = time.perf_counter()
        assert parse_quat(text) == value
        assert time.perf_counter() - start < 1


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


def order_element(a: SqrtRat, b: SqrtRat, c: SqrtRat, d: SqrtRat) -> QuatQ3:
    """The order element with basis coordinates a, b, c, d."""
    half = SqrtRat.of(Fraction(1, 2))
    basis3 = QuatQ3(R0, half * SQRT3, half, R0)   # (sqrt(3) i + j)/2
    basis4 = QuatQ3(half * SQRT3, R0, R0, half)   # (sqrt(3) + k)/2
    out = QuatQ3(a, b, R0, R0)
    out = hadd(out, scalar_mul(c, basis3))
    return hadd(out, scalar_mul(d, basis4))


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


EXPECTED = "expected a number, r3, i, j, k, or '('"
GARBAGE = [
    ("1++", EXPECTED),
    ("", EXPECTED),
    ("()", EXPECTED),
    ("2*/i", EXPECTED),
    ("(1+)", EXPECTED),
    ("(1", "unbalanced parentheses in quaternion expression"),
    ("((i)j", "unbalanced parentheses in quaternion expression"),
    ("1)", "trailing input in quaternion expression '1)'"),
    ("(1))+i", "trailing input in quaternion expression '(1))+i'"),
    ("2m", "unexpected character 'm' in quaternion expression"),
    ("r 3", "unexpected character 'r' in quaternion expression"),
    ("1)+x", "unexpected character 'x' in quaternion expression"),  # tokenized first
    ("2²", "unexpected character '²' in quaternion expression"),
    ("1/j", "can only divide by a scalar"),
    ("1/(i-i+j))", "can only divide by a scalar"),
]


def test_parser_rejects_garbage():
    for text, message in GARBAGE:
        with pytest.raises(ValueError) as info:
            parse_quat(text)
        assert str(info.value) == message, text


def random_expression(rng, depth):
    """A random expression as (text, value, level), the value computed with
    the arithmetic directly; level 0 is a sum, 1 a product, 2 a signed
    operand and 3 an atom (a literal, a unit or a parenthesis)."""
    kind = rng.choice(["atom"] * 2 + ["sum", "product", "sign", "paren"] * (depth > 0))
    if kind == "atom":
        n = rng.randint(0, 12)
        return rng.choice([(str(n), QuatQ3.of(n)), ("r3", QuatQ3.of(SqrtRat.of(0, 1))),
                           ("i", Q_I), ("j", Q_J), ("k", Q_K)]) + (3,)
    if kind == "paren":
        text, value, _ = random_expression(rng, depth - 1)
        n = rng.choice([1, 1, 1, 2, 150])  # 150: nesting past 100 parses too
        return "(" * n + text + ")" * n, value, 3
    if kind == "sign":
        text, value, level = random_expression(rng, depth - 1)
        if level < 3:
            text = f"({text})"
        signs = "".join(rng.choice("+-") for _ in range(rng.randint(1, 3)))
        return signs + text, hneg(value) if signs.count("-") % 2 else value, 2
    left, lvalue, llevel = random_expression(rng, depth - 1)
    right, rvalue, rlevel = random_expression(rng, depth - 1)
    if kind == "sum":  # left-associative: the right operand is a product or tighter
        if rlevel < 1:
            right = f"({right})"
        op = rng.choice("+-")
        return left + op + right, hadd(lvalue, rvalue if op == "+" else hneg(rvalue)), 0
    if llevel < 1:
        left = f"({left})"
    op = rng.choice(["*", "/", ""])
    if op == "/":  # only by a non-zero scalar
        right, rvalue = rng.choice([("2", QuatQ3.of(2)), ("-3", QuatQ3.of(-3)),
                                    ("r3", QuatQ3.of(SqrtRat.of(0, 1))),
                                    ("(r3-1)", QuatQ3.of(SqrtRat.of(-1, 1)))])
        return left + op + right, scalar_mul(rvalue.w.inverse(), lvalue), 1
    if rlevel < 2 or op == "" and rlevel < 3:  # adjacency takes an atom
        right = f"({right})"
    if op == "" and left[-1].isdigit() and right[0].isdigit():
        op = " "
    return left + op + right, hmul(lvalue, rvalue), 1


def expression_cases():
    rng = random.Random(1616)
    return [random_expression(rng, 4)[:2] for _ in range(400)]


def test_parser_matches_the_arithmetic():
    cases = expression_cases()
    for text, value in cases:
        assert parse_quat(text) == value, text
    assert any("(" * 101 in text for text, _ in cases)
    assert any("--" in text or "+-" in text for text, _ in cases)
    assert sum(not value.is_scalar() for _, value in cases) > 200


@pytest.mark.parametrize("rule, broken", [
    ("prod = q if prod is None else hmul(prod, q)", "prod = q if prod is None else hmul(q, prod)"),
    ('neg ^= t == "-"', 'neg = t == "-"'),
], ids=["products-right-to-left", "last-sign-only"])
def test_arithmetic_oracle_catches_a_broken_rule(rule, broken):
    # negative control: a copy of the parser with one rule broken must disagree
    source = inspect.getsource(quatcheck.parse_quat)
    assert rule in source
    namespace = dict(vars(quatcheck))
    exec(source.replace(rule, broken), namespace)
    parse = namespace["parse_quat"]
    assert any(parse(text) != value for text, value in expression_cases())
