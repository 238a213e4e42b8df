"""Exhaustive factorization in the quadratic order Z[w], w = (1 + sqrt(-23))/2.

Elements are pairs (a, b) meaning a + b*w with w^2 = w - 6.  The norm form is
a^2 + ab + 6b^2; it is multiplicative and never takes the value 2, which is
what makes the small factorizations here interesting.  Units are exactly +-1,
and factorizations are reported up to order and associates using a fixed sign
convention.  The divisors of x come from one scan of the divisor norms up to
sqrt(N(x)), each divisor paired with its cofactor (`_divisor_pairs`).
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from . import CapExceeded, factorization_walk

NORM_CAP = 10**6


class QuadInt(namedtuple("QuadInt", "a b")):
    """a + b*w with integer a, b; ordered by (a, b)."""

    __slots__ = ()

    def __repr__(self):
        return f"QuadInt({format_quadint(self)})"


ONE = QuadInt(1, 0)


def qmul(x: QuadInt, y: QuadInt) -> QuadInt:
    # (a + bw)(c + dw) with w^2 = w - 6
    a, b, c, d = x.a, x.b, y.a, y.b
    return QuadInt(a * c - 6 * b * d, a * d + b * c + b * d)


def qneg(x: QuadInt) -> QuadInt:
    return QuadInt(-x.a, -x.b)


def conj(x: QuadInt) -> QuadInt:
    # conjugate of w is 1 - w
    return QuadInt(x.a + x.b, -x.b)


def norm(x: QuadInt) -> int:
    """a^2 + ab + 6b^2; nonnegative, zero only at zero, multiplicative."""
    return x.a * x.a + x.a * x.b + 6 * x.b * x.b


def _check_norm(n: int) -> None:
    if n > NORM_CAP:
        raise CapExceeded(f"norm {n} exceeds cap {NORM_CAP}")


def elements_of_norm(n: int) -> list[QuadInt]:
    """All elements of norm n, complete and duplicate-free.

    4*norm = (2a + b)^2 + 23 b^2 bounds |b| by sqrt(4n/23); the remaining
    square condition is checked exactly.  A root s of 4n - 23 b^2 always
    gives an integer a = (s - b)/2, since s^2 = b^2 (mod 2).
    """
    if n < 0:
        return []
    _check_norm(n)
    out = []
    bmax = math.isqrt(4 * n // 23)
    for b in range(-bmax, bmax + 1):
        m = 4 * n - 23 * b * b
        s = math.isqrt(m)
        if s * s != m:
            continue
        for sign in {s, -s}:
            out.append(QuadInt((sign - b) // 2, b))
    return sorted(out)


def divides(y: QuadInt, x: QuadInt) -> QuadInt | None:
    """Exact quotient q with x = y*q, or None when y does not divide x."""
    ny = norm(y)
    if ny == 0:
        raise ValueError("division by zero")
    num = qmul(x, conj(y))
    if num.a % ny or num.b % ny:
        return None
    return QuadInt(num.a // ny, num.b // ny)


def canonical_associate(x: QuadInt) -> QuadInt:
    """Pick one representative of {x, -x}: the one with positive leading
    coordinate (a > 0, or a == 0 and b >= 0)."""
    if (x.a, x.b) >= (-x.a, -x.b):
        return x
    return qneg(x)


def _divisor_pairs(x: QuadInt):
    """(y, x/y) for each y dividing x with 1 < norm(y) <= sqrt(norm(x)).

    If x = y*z with both norms above 1, the smaller norm is at most
    sqrt(norm(x)), so every divisor of x that is neither a unit nor an
    associate of x appears here, as a y or as a cofactor."""
    n = norm(x)
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            for y in elements_of_norm(d):
                q = divides(y, x)
                if q is not None:
                    yield y, q


def is_atom(x: QuadInt) -> bool:
    """True iff x is irreducible: it has no divisor pair.  Norms above the
    cap are refused before the search."""
    n = norm(x)
    if n == 0:
        raise ValueError("zero is not factorable")
    if n == 1:
        raise ValueError("units are not atoms")
    _check_norm(n)
    return next(_divisor_pairs(x), None) is None


def element_factorizations(x: QuadInt) -> list[tuple[QuadInt, ...]]:
    """All factorizations of x into atoms, up to order and associates.

    Each factorization is a non-decreasing tuple of canonical atom
    representatives whose product is x up to sign, shortest first, then by
    (norm, coordinates) of the atoms.  Units give the single empty
    factorization.  The candidate atoms are x itself and the canonical
    associates in its divisor pairs.  The shared `factorization_walk` takes
    parts in non-decreasing order; each state tests `divides` on every atom
    from the index of the last part on and charges them to the walk's
    budget.
    """
    n = norm(x)
    if n == 0:
        raise ValueError("zero is not factorable")
    _check_norm(n)
    divisors = {canonical_associate(y) for pair in _divisor_pairs(x) for y in pair}
    divisors.add(canonical_associate(x))
    atoms = sorted((y for y in divisors if norm(y) > 1 and is_atom(y)),
                   key=lambda y: (norm(y), y.a, y.b))

    def moves(rest, first):
        if norm(rest) == 1:
            return None
        return len(atoms) - first, [(idx, q) for idx in range(first, len(atoms))
                                    if (q := divides(atoms[idx], rest)) is not None]

    return factorization_walk(x, moves, atoms, f"norm {n}")


# ----------------------------------------------------------------------
# text syntax: "a+b*w", e.g. "8", "1+1*w", "-2+3*w", "w", "-w"

_TERM = re.compile(r"^([+-]?\d+)$|^([+-]?)(?:(\d+)\*?)?w$")


def parse_quadint(text: str) -> QuadInt:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element")
    # split into signed terms, which must join back to the whole text
    terms = re.findall(r"[+-]?[^+-]+", s)
    matches = [_TERM.match(t) for t in terms]
    if "".join(terms) != s or not all(matches):
        raise ValueError(f"bad element syntax {text!r}; expected forms like '1+1*w'")
    a = b = 0
    seen_const = seen_w = False
    for m in matches:
        if m.group(1) is not None:
            if seen_const:
                raise ValueError(f"duplicate constant term in {text!r}")
            a = int(m.group(1))
            seen_const = True
        else:
            if seen_w:
                raise ValueError(f"duplicate w term in {text!r}")
            b = int(m.group(2) + (m.group(3) or "1"))
            seen_w = True
    return QuadInt(a, b)


def format_quadint(x: QuadInt) -> str:
    if x.b == 0:
        return str(x.a)
    wpart = f"{x.b}*w"
    if x.a == 0:
        return wpart
    return f"{x.a}{'+' if x.b >= 0 else ''}{wpart}"
