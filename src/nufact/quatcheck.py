"""Exact quaternion arithmetic over Q(sqrt(3)) and identity verification.

Scalars are u + v*sqrt(3) with rational u, v; quaternions carry four such
scalars with the usual relations i^2 = j^2 = k^2 = ijk = -1.  The point of
the module is to check displayed factorization identities exactly, including
membership in the order

    O = { a + b*i + c*(sqrt(3)*i + j)/2 + d*(sqrt(3) + k)/2 : a,b,c,d in Z[sqrt(3)] },

so there is no floating point anywhere.  Factors are written as text such
as "(1/2)-i+((r3-2)/2)k", which `parse_quat` evaluates in one pass over its
tokens, at any depth of parentheses.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from . import Meter

# steps `verify_texts` may charge its texts before parsing them: ten per
# character, which may cost a product, and one per parenthesis, which only
# opens or closes a frame.  The largest admitted, 1,499 one-letter factors
# and a one-letter product, take 0.5 to 0.7 s end to end.
VERIFY_BUDGET = 15_000


class SqrtRat(namedtuple("SqrtRat", "u v")):
    """u + v*sqrt(3) with exact rational u, v."""

    __slots__ = ()

    @classmethod
    def of(cls, u, v=0) -> "SqrtRat":
        return cls(Fraction(u), Fraction(v))

    def __add__(self, other):
        return SqrtRat(self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return SqrtRat(self.u - other.u, self.v - other.v)

    def __neg__(self):
        return SqrtRat(-self.u, -self.v)

    def __mul__(self, other):
        # (u + v s)(u' + v' s) with s^2 = 3
        return SqrtRat(self.u * other.u + 3 * self.v * other.v,
                       self.u * other.v + self.v * other.u)

    def inverse(self) -> "SqrtRat":
        d = self.u * self.u - 3 * self.v * self.v
        if d == 0:
            raise ValueError("zero has no inverse in Q(sqrt(3))")
        return SqrtRat(self.u / d, -self.v / d)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_integral(self) -> bool:
        """Membership in Z[sqrt(3)]."""
        return self.u.denominator == 1 and self.v.denominator == 1

    def __repr__(self):
        return f"SqrtRat({format_sqrtrat(self)})"


R0 = SqrtRat.of(0)
SQRT3 = SqrtRat.of(0, 1)


class QuatQ3(namedtuple("QuatQ3", "w x y z")):
    """w + x*i + y*j + z*k with SqrtRat components."""

    __slots__ = ()

    @classmethod
    def of(cls, w=0, x=0, y=0, z=0) -> "QuatQ3":
        conv = lambda c: c if isinstance(c, SqrtRat) else SqrtRat.of(c)
        return cls(conv(w), conv(x), conv(y), conv(z))

    def is_scalar(self) -> bool:
        return self.x.is_zero() and self.y.is_zero() and self.z.is_zero()

    def __repr__(self):
        return f"QuatQ3({format_quat(self)})"


Q_ONE = QuatQ3.of(1)
Q_I = QuatQ3.of(0, 1)
Q_J = QuatQ3.of(0, 0, 1)
Q_K = QuatQ3.of(0, 0, 0, 1)


def hadd(p: QuatQ3, q: QuatQ3) -> QuatQ3:
    return QuatQ3(p.w + q.w, p.x + q.x, p.y + q.y, p.z + q.z)


def hneg(p: QuatQ3) -> QuatQ3:
    return QuatQ3(-p.w, -p.x, -p.y, -p.z)


def hmul(p: QuatQ3, q: QuatQ3) -> QuatQ3:
    """Quaternion product (non-commutative): ij = k, jk = i, ki = j."""
    return QuatQ3(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def scalar_mul(s: SqrtRat, q: QuatQ3) -> QuatQ3:
    return QuatQ3(s * q.w, s * q.x, s * q.y, s * q.z)


def qnorm(q: QuatQ3) -> SqrtRat:
    """w^2 + x^2 + y^2 + z^2; multiplicative."""
    return q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z


def in_order(q: QuatQ3) -> bool:
    """Membership in the order O with Z[sqrt(3)] coordinates in the basis
    1, i, (sqrt(3) i + j)/2, (sqrt(3) + k)/2.

    Solving the change of basis: c = 2y, d = 2z, a = w - sqrt(3) z,
    b = x - sqrt(3) y, and all four must lie in Z[sqrt(3)].
    """
    c = q.y + q.y
    d = q.z + q.z
    a = q.w - SQRT3 * q.z
    b = q.x - SQRT3 * q.y
    return all(t.is_integral() for t in (a, b, c, d))


def verify_identity(factors: list[QuatQ3], product: QuatQ3) -> bool:
    """True iff the ordered product of the factors equals `product` and every
    factor, as well as the product, lies in the order."""
    if not factors:
        raise ValueError("need at least one factor")
    acc = Q_ONE
    for f in factors:
        acc = hmul(acc, f)
    if acc != product:
        return False
    return all(in_order(f) for f in factors) and in_order(product)


def verify_texts(factor_texts, product_text: str) -> tuple[list[QuatQ3], QuatQ3, bool]:
    """The factors and the product the texts name, and `verify_identity` of
    them.  The texts are charged against VERIFY_BUDGET before any is parsed:
    ten steps per character and one per parenthesis."""
    texts = [*factor_texts, product_text]
    Meter(VERIFY_BUDGET,
          lambda m: f"verifying {len(texts)} texts costs {m.used} steps, over the budget "
                    f"of {m.budget}: 10 per character, 1 per parenthesis"
          ).charge(sum(10 * len(t) - 9 * (t.count("(") + t.count(")")) for t in texts))
    *factors, product = map(parse_quat, texts)
    return factors, product, verify_identity(factors, product)


# ----------------------------------------------------------------------
# expression syntax: "1-2i+k", "(1/2)-i+((r3-2)/2)k", with r3 = sqrt(3);
# adjacency means multiplication, so "2i" is 2*i and "(r3+2)/2" a scalar.

_ATOMS = {"r3": QuatQ3(SQRT3, R0, R0, R0), "i": Q_I, "j": Q_J, "k": Q_K}
_SYMBOLS = {"+", "-", "*", "/", "(", ")", *_ATOMS}


def _plus(total, term):
    return term if total is None else hadd(total, term)


def parse_quat(text: str) -> QuatQ3:
    """Evaluate a quaternion expression with exact arithmetic.

    Sums and products are left-associative, adjacency multiplies like `*`,
    a run of signs before an operand is a sign on that operand alone, and
    `/` divides by a scalar only.  The whole text is tokenized before any
    of it is evaluated, so an unknown character is reported first.  One
    pass over the tokens keeps a frame per open parenthesis, so any depth
    parses in time linear in the text.
    """
    toks = re.findall(r"\d+|r3|\S", text)
    for t in toks:
        if t not in _SYMBOLS and not t.isdecimal():
            raise ValueError(f"unexpected character {t!r} in quaternion expression")
    # a frame: the sum of the finished terms (None for none), the product of
    # the current term (None before its first operand), the operator waiting
    # for an operand (None right after one) and the sign of the next operand
    stack = []
    total, prod, op, neg = None, None, "*", False
    for t in toks:
        if t in ("+", "-"):
            if op is None:  # after an operand a sign ends the term
                total, prod, op = _plus(total, prod), None, "*"
            neg ^= t == "-"
            continue
        if op is None and t in ("*", "/"):
            op = t
            continue
        if op is None and t == ")":
            if not stack:
                raise ValueError(f"trailing input in quaternion expression {text!r}")
            q = _plus(total, prod)
            total, prod, op, neg = stack.pop()
        elif t in ("*", "/", ")"):
            raise ValueError("expected a number, r3, i, j, k, or '('")
        elif t == "(":
            stack.append((total, prod, op, neg))
            total, prod, op, neg = None, None, "*", False
            continue
        else:
            q = _ATOMS[t] if t in _ATOMS else QuatQ3.of(int(t))
        if neg:
            q = hneg(q)
        if op == "/":
            if not q.is_scalar():
                raise ValueError("can only divide by a scalar")
            prod = scalar_mul(q.w.inverse(), prod)
        else:  # "*", or None: adjacency
            prod = q if prod is None else hmul(prod, q)
        op, neg = None, False
    if op is not None:
        raise ValueError("expected a number, r3, i, j, k, or '('")
    if stack:
        raise ValueError("unbalanced parentheses in quaternion expression")
    return _plus(total, prod)


def format_sqrtrat(s: SqrtRat) -> str:
    if s.v == 0:
        return str(s.u)
    vpart = "r3" if s.v == 1 else ("-r3" if s.v == -1 else f"{s.v}*r3")
    if s.u == 0:
        return vpart
    sign = "+" if s.v > 0 else ""
    return f"{s.u}{sign}{vpart}"


def format_quat(q: QuatQ3) -> str:
    terms = []
    for comp, unit in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k")):
        if comp.is_zero():
            continue
        body = format_sqrtrat(comp)
        if unit:
            if body == "1":
                body = unit
            elif body == "-1":
                body = "-" + unit
            elif "+" in body[1:] or "-" in body[1:] or "/" in body:
                body = f"({body}){unit}"
            else:
                body = f"{body}{unit}"
        terms.append(body)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out
