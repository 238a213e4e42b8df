"""Exact ideal arithmetic in the triangular order T(l) over a discrete
valuation ring, used as an oracle for the divisor calculus.

An ideal of T(l) is encoded by the l x l matrix of valuations of its entry
modules; the ring itself has valuation 0 on and below the diagonal and 1
above.  Containment is entrywise comparison (larger exponents = smaller
ideal), ideal multiplication is the min-plus matrix product, and intersection
is the entrywise maximum.  The valuation picture is independent of the chosen
DVR, so the uniformizer stays symbolic throughout.  Matrices are tuples of
rows of Python ints, so the arithmetic is exact at any size.

A matrix A above the ring's is a two-sided ideal iff each entry is at most
the entry above it and at most the entry to its right, indices cyclic with
+1 across the wrap: one closure rule, O(l**2) to check and O(1) per entry
to keep.  Divisors of ideals count the steps of maximal chains of
two-sided ideals by maximal ideal, which comes down to row sums of the
exponent matrix; they are tuples of counts in the label order of the cycle
structure of the maximal ideals, whose successor map is tau, the double
left dual: on ideals, a rotation of both indices by one.

The oracle that checks :mod:`nufact.divcalc` against this arithmetic, with
the ideal enumeration and the chain walks it runs, lives in
:mod:`nufact.toracle`, so that `tring divisor`, `tau` and `mul` do not
compile it.  `tring.enumerate_ideals` and `tring.oracle_report` still name
them: the first read imports the oracle module.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, ge, sub

from . import Meter, _forward
# kept only for perfbench's tests, which patch `nufact.tring.compose`;
# toracle imports its own
from .divcalc import CycleStructure, compose

# min-plus steps `mul_texts` may take, l**3 per product of l x l matrices;
# one product of two 215 x 215 matrices takes 0.6 to 0.9 s end to end
MUL_BUDGET = 10_000_000
# the least a product is charged.  A step costs more the smaller the
# matrices: at l**3 alone, on a shared 2-core Xeon, the budget's chains of
# 30 x 30 matrices took 1.0 s end to end, 9,000 of 10 x 10 1.7 to 1.8 s
# and 80,000 of 2 x 2 1.9 to 2.0 s.  At 30**3, at most 370 products of
# any size up to 30 are taken, the 30 x 30 chain the slowest
MUL_FLOOR = 30**3

Matrix = tuple[tuple[int, ...], ...]
# the ideal enumeration and the oracle, compiled only by `tring oracle`
__getattr__ = _forward(globals(), {"enumerate_ideals": "toracle", "oracle_report": "toracle"})


def _as_matrix(A) -> Matrix:
    """Validate a matrix from outside the program: a non-empty square array
    whose entries all have type int (bool, float and str are refused)."""
    try:
        M = tuple(map(tuple, A))
    except TypeError:
        raise ValueError("exponent matrix must be square") from None
    if not M or set(map(len, M)) != {len(M)}:
        raise ValueError("exponent matrix must be square")
    if set(map(type, itertools.chain.from_iterable(M))) != {int}:
        bad = next(v for row in M for v in row if type(v) is not int)
        raise ValueError(f"exponent matrix entries must be integers, got {bad!r}")
    return M


def _pair(A, B) -> tuple[Matrix, Matrix]:
    A, B = _as_matrix(A), _as_matrix(B)
    if len(A) != len(B):
        raise ValueError("size mismatch")
    return A, B


def _geq(A: Matrix, B: Matrix) -> bool:
    """Entrywise A >= B."""
    return all(map(ge, itertools.chain.from_iterable(A), itertools.chain.from_iterable(B)))


def _bump(A: Matrix, i: int, j: int) -> Matrix:
    """A with entry (i, j) raised by one."""
    row = A[i]
    return A[:i] + (row[:j] + (row[j] + 1,) + row[j + 1:],) + A[i + 1:]


@functools.lru_cache(maxsize=16)
def ring_matrix(l: int) -> Matrix:
    """The exponent matrix of T(l) itself: 0 on and below the diagonal, 1
    above.  Sizes l >= 2 only; a 1x1 "triangular" order is just the DVR and
    has none of the cycle structure this module studies."""
    if l < 2:
        raise ValueError("triangular order needs size l >= 2")
    return tuple(tuple(int(j > i) for j in range(l)) for i in range(l))


def _mul(A: Matrix, B: Matrix) -> Matrix:
    cols = tuple(zip(*B))
    return tuple(tuple(min(map(add, row, col)) for col in cols) for row in A)


def mul(A, B) -> Matrix:
    """Min-plus product: c[i][k] = min_j (a[i][j] + b[j][k])."""
    return _mul(*_pair(A, B))


def mul_texts(texts) -> Matrix:
    """The min-plus product of the matrices the JSON texts name, left to
    right.

    Every product taken is of two l x l matrices, l the first's size, since
    a size mismatch stops the products.  Each is charged max(l**3,
    MUL_FLOOR) steps against MUL_BUDGET before any is taken: MUL_FLOOR
    before any text is parsed, and the excess once the first one is.
    """
    if not texts:
        raise ValueError("need at least one matrix")
    what = f"{len(texts)} matrices costs at least"  # the refusal reads it when it is made
    meter = Meter(MUL_BUDGET, lambda m: f"multiplying {what} {m.used} steps, over the "
                                        f"budget of {m.budget}")
    meter.charge((len(texts) - 1) * MUL_FLOOR)
    acc = parse_matrix(texts[0])
    what = f"{len(texts)} matrices of size {len(acc)} costs"
    meter.charge((len(texts) - 1) * max(len(acc)**3 - MUL_FLOOR, 0))
    return functools.reduce(mul, map(parse_matrix, texts[1:]), acc)


def intersect(A, B) -> Matrix:
    """Ideal intersection: entrywise maximum of the exponents."""
    A, B = _pair(A, B)
    return tuple(tuple(map(max, ra, rb)) for ra, rb in zip(A, B))


def is_ideal(A) -> bool:
    """Two-sidedness: contains no entries below the ring's and is closed
    under multiplication by the ring on both sides."""
    return _is_ideal(_as_matrix(A))


def _bound(A: Matrix, i: int, j: int) -> int:
    """The closure bound on entry (i, j): the least of the entry above it and
    the entry to its right, indices mod l, each +1 across the wrap.

    Row i of the ring matrix t is 0 up to column i and 1 after it, so t * A
    >= A says that no entry exceeds the entries above it, nor, plus one, the
    entries below it: by chaining, that A[i][j] <= A[i-1][j] for i > 0 and
    A[0][j] <= A[l-1][j] + 1.  A * t >= A says the same of each row, read
    rightward.  So a matrix A >= t is an ideal iff no entry exceeds its
    bound, and raising entry (i, j) of an ideal keeps an ideal iff it stays
    within this bound: the raise only loosens the bounds of its neighbours.
    """
    l = len(A)
    return min(A[i - 1][j] + (i == 0), A[i][(j + 1) % l] + (j == l - 1))


def _is_ideal(A: Matrix) -> bool:
    """A >= t and every entry within its closure bound: O(l**2), no product."""
    r = range(len(A))
    return _geq(A, ring_matrix(len(A))) and all(A[i][j] <= _bound(A, i, j) for i in r for j in r)


@functools.lru_cache(maxsize=16)
def maximal_ideals(l: int) -> tuple[Matrix, ...]:
    """The l maximal ideals, ordered so that the double dual steps through
    them cyclically.

    Each maximal ideal raises exactly one diagonal entry of the ring matrix
    to 1, and tau, the double left dual, takes the bump of entry d to the
    bump of entry d - 1 (cyclically).  So label Q_k, at index k - 1, raises
    entry l - k: the tuple starts at the bump of the last diagonal entry,
    matching the usual presentation for l = 3.  The tests walk the orbit of
    the double left dual, their helper `left_dual` taken twice, as the
    oracle for this.
    """
    t = ring_matrix(l)
    return tuple(_bump(t, d, d) for d in reversed(range(l)))


def cycle_structure(l: int) -> CycleStructure:
    """The one-cycle structure Q1 > Q2 > ... > Ql matching maximal_ideals."""
    return CycleStructure([[f"Q{i + 1}" for i in range(l)]])


def tau_ideal(A) -> Matrix:
    """tau, the double left dual, on (and validated on) ideals.

    The radical of T(l) is J = Pi * T(l) = T(l) * Pi, with Pi holding units
    below the diagonal and pi in the top-right corner, and on ideals tau is
    the conjugation A -> Pi^-1 * A * Pi.  In exponents that rotates both
    indices by one:

        tau(A)[i][j] = A[i+1][j+1] + [j = l-1] - [i = l-1], indices mod l.

    The tests compare it with their helper `left_dual` taken twice.
    """
    A = _as_matrix(A)
    if not _is_ideal(A):
        raise ValueError("not an integral ideal")
    rows = [row[1:] + (row[0] + 1,) for row in A]
    return tuple(rows[1:]) + (tuple(v - 1 for v in rows[0]),)


def divisor_of(A) -> tuple[int, ...]:
    """The divisor of an ideal A, as counts in label order: the count at the
    label of P_i, the maximal ideal raising diagonal entry i, is the row sum
    sum_j (a[i][j] - t[i][j]).  Label Q_k is P_(l-k), so the counts are the
    row excesses in reverse row order.

    This is what any maximal chain of ideals from the ring down to A records,
    one label per step: the unique maximal ideal P with P * (previous link)
    inside the next link.  Each step e -> f raises one entry (i, j) by one,
    and its label is P_i.  For d != i, row i of P_d * e equals row i of e, so
    P_d * e is not inside f; left closure of f puts P_i * e inside f.  So
    the steps labelled P_i are exactly those that raise row i, on every
    chain.  `toracle._chain_divisor` walks such chains and stays as the
    oracle that the tests and the chain_independence property compare this
    formula with.
    """
    A = _as_matrix(A)
    if not _is_ideal(A):
        raise ValueError("not an integral ideal")
    excess = tuple(map(sub, map(sum, A), map(sum, ring_matrix(len(A)))))
    return excess[::-1]


# ----------------------------------------------------------------------
# matrix I/O: JSON rows for machine use, the bracket style for humans

def parse_matrix(text: str) -> Matrix:
    import json  # here, so only a command that reads a matrix loads it

    try:
        rows = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        raise ValueError(f"expected a JSON array of integer rows, got {text!r}")
    return _as_matrix(rows)


def format_matrix(A) -> str:
    """Bracket style with D / (pi^k) entries, one row per line."""

    def entry(v: int) -> str:
        if v == 0:
            return "D"
        if v == 1:
            return "(pi)"
        return f"(pi^{v})"

    cells = [[entry(v) for v in row] for row in _as_matrix(A)]
    width = max(len(c) for row in cells for c in row)
    lines = ["[ " + "  ".join(c.ljust(width) for c in row) + " ]" for row in cells]
    return "\n".join(lines)
