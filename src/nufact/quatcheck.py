"""Exact quaternion arithmetic over Q(sqrt(3)) and identity verification.

Scalars are u + v*sqrt(3) with rational u, v; quaternions carry four such
scalars with the usual relations i^2 = j^2 = k^2 = ijk = -1.  The point of
the module is to check displayed factorization identities exactly, including
membership in the order

    O = { a + b*i + c*(sqrt(3)*i + j)/2 + d*(sqrt(3) + k)/2 : a,b,c,d in Z[sqrt(3)] },

so there is no floating point anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


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
            raise ZeroDivisionError("zero has no inverse in Q(sqrt(3))")
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


def order_element(a: SqrtRat, b: SqrtRat, c: SqrtRat, d: SqrtRat) -> QuatQ3:
    """The order element with basis coordinates a, b, c, d."""
    half = SqrtRat.of(Fraction(1, 2))
    basis3 = QuatQ3(R0, half * SQRT3, half, R0)   # (sqrt(3) i + j)/2
    basis4 = QuatQ3(half * SQRT3, R0, R0, half)   # (sqrt(3) + k)/2
    out = QuatQ3(a, b, R0, R0)
    out = hadd(out, scalar_mul(c, basis3))
    return hadd(out, scalar_mul(d, basis4))


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


# ----------------------------------------------------------------------
# expression syntax: "1-2i+k", "(1/2)-i+((r3-2)/2)k", with r3 = sqrt(3);
# adjacency means multiplication, so "2i" is 2*i and "(r3+2)/2" a scalar.

# the parser recurses a few calls deep per parenthesis; deeper nesting is refused
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        i = depth = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j]))
                i = j
            elif text.startswith("r3", i):
                self.toks.append(("r3", "r3"))
                i += 2
            elif ch in "ijk":
                self.toks.append(("unit", ch))
                i += 1
            elif ch in "+-*/()":
                depth += (ch == "(") - (ch == ")")
                if depth > MAX_NESTING:
                    raise ValueError(f"parentheses nested deeper than {MAX_NESTING}")
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in quaternion expression")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


_UNITS = {"i": Q_I, "j": Q_J, "k": Q_K}


def parse_quat(text: str) -> QuatQ3:
    """Evaluate a quaternion expression with exact arithmetic."""
    toks = _Tokens(text)
    q = _parse_sum(toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input in quaternion expression {text!r}")
    return q


def _parse_sum(toks) -> QuatQ3:
    q = _parse_product(toks)
    while toks.peek() in ("+", "-"):
        op, _ = toks.next()
        rhs = _parse_product(toks)
        q = hadd(q, rhs if op == "+" else hneg(rhs))
    return q


def _parse_product(toks) -> QuatQ3:
    q = _parse_unary(toks)
    while True:
        nxt = toks.peek()
        if nxt in ("*", "/"):
            op, _ = toks.next()
            rhs = _parse_unary(toks)
            if op == "*":
                q = hmul(q, rhs)
            else:
                if not rhs.is_scalar():
                    raise ValueError("can only divide by a scalar")
                q = scalar_mul(rhs.w.inverse(), q)
        elif nxt in ("int", "r3", "unit", "("):
            q = hmul(q, _parse_unary(toks))  # juxtaposition
        else:
            return q


def _parse_unary(toks) -> QuatQ3:
    sign = 1
    while toks.peek() in ("+", "-"):
        op, _ = toks.next()
        if op == "-":
            sign = -sign
    q = _parse_atom(toks)
    return q if sign == 1 else hneg(q)


def _parse_atom(toks) -> QuatQ3:
    kind = toks.peek()
    if kind == "int":
        _, val = toks.next()
        return QuatQ3.of(int(val))
    if kind == "r3":
        toks.next()
        return QuatQ3(SQRT3, R0, R0, R0)
    if kind == "unit":
        _, name = toks.next()
        return _UNITS[name]
    if kind == "(":
        toks.next()
        q = _parse_sum(toks)
        if toks.peek() != ")":
            raise ValueError("unbalanced parentheses in quaternion expression")
        toks.next()
        return q
    raise ValueError("expected a number, r3, i, j, k, or '('")


def format_sqrtrat(s: SqrtRat) -> str:
    def frac(f: Fraction) -> str:
        return str(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    if s.v == 0:
        return frac(s.u)
    vpart = "r3" if s.v == 1 else ("-r3" if s.v == -1 else f"{frac(s.v)}*r3")
    if s.u == 0:
        return vpart
    sign = "+" if s.v > 0 else ""
    return f"{frac(s.u)}{sign}{vpart}"


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
