"""Exact ideal arithmetic in the triangular order T(l) over a discrete
valuation ring, used as an oracle for the divisor calculus.

An ideal of T(l) is encoded by the l x l matrix of valuations of its entry
modules; the ring itself has valuation 0 on and below the diagonal and 1
above.  Containment is entrywise comparison (larger exponents = smaller
ideal), ideal multiplication is the min-plus matrix product, and intersection
is the entrywise maximum.  The valuation picture is independent of the chosen
DVR, so the uniformizer stays symbolic throughout.  Matrices are tuples of
rows of Python ints, so the arithmetic is exact at any size.

Divisors of ideals count the steps of maximal chains of two-sided ideals by
maximal ideal, which comes down to row sums of the exponent matrix; they
are tuples of counts in the label order of the cycle structure of the
maximal ideals, whose successor map is the double left dual.  Everything
here is desk scale and exhaustively checkable against :mod:`nufact.divcalc`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from operator import add, ge, itemgetter, sub

from . import CapExceeded, Meter
from .divcalc import CycleStructure, compose, is_realizable, landing

# the oracle's largest ring (T(32) with exponents <= 0 takes about 0.3 s)
# and most chain walks (100 add at most about 0.4 s to an admitted corpus)
ORACLE_SIZE_CAP = 32
CHAIN_TRIAL_CAP = 100
# corpus pairs of the homomorphism check: enumeration stops past 300 ideals,
# and the slowest admitted, T(2) with exponents <= 50 (299), takes about
# 0.6 s end to end (T(3) with exponents <= 10, 284 ideals, about 0.35 s)
ORACLE_PAIR_BUDGET = 90_000
# min-plus steps `mul_all` may take, l**3 per product of l x l matrices;
# one product of two 215 x 215 matrices takes 0.6 to 0.9 s end to end
MUL_BUDGET = 10_000_000
# the least a product is charged.  A step costs more the smaller the
# matrices: at l**3 alone, on a shared 2-core Xeon, the budget's chains of
# 30 x 30 matrices took 1.0 s end to end, 9,000 of 10 x 10 1.7 to 1.8 s
# and 80,000 of 2 x 2 1.9 to 2.0 s.  At 30**3, at most 370 products of
# any size up to 30 are taken, the 30 x 30 chain the slowest
MUL_FLOOR = 30**3

Matrix = tuple[tuple[int, ...], ...]


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


def mul_all(matrices) -> Matrix:
    """The min-plus product of the matrices, left to right.

    Every product taken is of two l x l matrices, l the first's size, since
    a size mismatch stops the products.  Each is charged max(l**3,
    MUL_FLOOR) steps against MUL_BUDGET before any is taken.
    """
    acc = _as_matrix(matrices[0])
    n, l = len(matrices) - 1, len(acc)
    Meter(MUL_BUDGET, lambda m: f"multiplying {n + 1} matrices of size {l} costs {m.used} "
                                f"steps, over the budget of {m.budget}"
          ).charge(n * max(l**3, MUL_FLOOR))
    return functools.reduce(mul, matrices[1:], acc)


def intersect(A, B) -> Matrix:
    """Ideal intersection: entrywise maximum of the exponents."""
    A, B = _pair(A, B)
    return tuple(tuple(map(max, ra, rb)) for ra, rb in zip(A, B))


def is_ideal(A) -> bool:
    """Two-sidedness: contains no entries below the ring's and is closed
    under multiplication by the ring on both sides."""
    return _is_ideal(_as_matrix(A))


def _is_ideal(A: Matrix) -> bool:
    t = ring_matrix(len(A))
    return _geq(A, t) and _geq(_mul(t, A), A) and _geq(_mul(A, t), A)


def left_dual(A) -> Matrix:
    """Largest fractional matrix X with X*A inside the ring:
    x[i][j] = max_k (t[i][k] - a[j][k])."""
    A = _as_matrix(A)
    t = ring_matrix(len(A))
    return tuple(tuple(max(map(sub, trow, arow)) for arow in A) for trow in t)


def double_dual(A) -> Matrix:
    """The double left dual; a bijection on nonzero ideals whose restriction
    to maximal ideals is the cycle successor."""
    return left_dual(left_dual(A))


@functools.lru_cache(maxsize=16)
def maximal_ideals(l: int) -> tuple[Matrix, ...]:
    """The l maximal ideals, ordered so that the double dual steps through
    them cyclically.

    Each maximal ideal raises exactly one diagonal entry of the ring matrix
    to 1, and the double dual takes the bump of entry d to the bump of entry
    d - 1 (cyclically).  So label Q_k, at index k - 1, raises entry l - k:
    the tuple starts at the bump of the last diagonal entry, matching the
    usual presentation for l = 3.  The tests walk the double-dual orbit as
    the oracle for this.
    """
    t = ring_matrix(l)
    return tuple(_bump(t, d, d) for d in reversed(range(l)))


def cycle_structure(l: int) -> CycleStructure:
    """The one-cycle structure Q1 > Q2 > ... > Ql matching maximal_ideals."""
    return CycleStructure([[f"Q{i + 1}" for i in range(l)]])


def tau_ideal(A) -> Matrix:
    """Double dual restricted to (and validated on) ideals."""
    if not is_ideal(A):
        raise ValueError("not an integral ideal")
    return double_dual(A)


def _bump_candidates(e: Matrix, a: Matrix) -> list[tuple[int, int]]:
    """Positions where raising the ideal e by one step stays an ideal inside
    the box toward a.  These are exactly the covers of e above a: all maximal
    chains of ideals step one valuation unit at a time.

    Only the closure inequalities through entry (i, j) can break, so raising
    e[i][j] keeps an ideal iff t[i][k] + e[k][j] > e[i][j] for every k != i
    and e[i][k] + t[k][j] > e[i][j] for every k != j; the brute-force closure
    check of each bumped matrix is the test oracle for this.
    """
    l = len(e)
    t = ring_matrix(l)
    cols = tuple(zip(*e))
    return [(i, j) for i in range(l) for j in range(l)
            if e[i][j] < a[i][j]
            and all(t[i][k] + cols[j][k] > e[i][j] for k in range(l) if k != i)
            and all(e[i][k] + t[k][j] > e[i][j] for k in range(l) if k != j)]


def _chain_divisor(A: Matrix, rng: random.Random | None) -> tuple[int, ...]:
    """Walk a maximal chain of ideals from the ring down to the ideal A, which
    is not validated, and record, for each step, the unique maximal ideal P
    with P * (previous link) inside the next link.  With rng=None every step
    takes the lexicographically least cover; an rng picks uniformly among
    the covers.  The test oracle for divisor_of; its cost grows with A.

    Row r of a product depends only on row r of its left factor, and each
    maximal ideal differs from the ring matrix t in one row.  So a step forms
    t * e once and each P * e from it, with the rows where P differs from t
    recomputed: exact products, one full product per step instead of l."""
    l = len(A)
    t = ring_matrix(l)
    maxi = maximal_ideals(l)
    changed = [[r for r in range(l) if Q[r] != t[r]] for Q in maxi]
    counts = [0] * l
    e = t
    while e != A:
        candidates = _bump_candidates(e, A)
        if not candidates:
            raise RuntimeError("no maximal ideal step found; chain search is broken")
        if rng is None:
            i, j = candidates[0]  # positions enumerated in lex order
        else:
            i, j = candidates[rng.randrange(len(candidates))]
        f = _bump(e, i, j)
        te = _mul(t, e)
        cols = tuple(zip(*e))
        hits = []
        for idx, (Q, rows) in enumerate(zip(maxi, changed)):
            Qe = list(te)
            for r in rows:
                Qe[r] = tuple(min(map(add, Q[r], col)) for col in cols)
            if _geq(Qe, f):
                hits.append(idx)
        if len(hits) != 1:
            raise RuntimeError(
                f"chain step admits {len(hits)} maximal ideals; expected exactly one")
        counts[hits[0]] += 1
        e = f
    return tuple(counts)


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
    chain.  `_chain_divisor` walks such chains and stays as the oracle that
    the tests and the chain_independence property compare this formula with.
    """
    A = _as_matrix(A)
    if not _is_ideal(A):
        raise ValueError("not an integral ideal")
    excess = tuple(map(sub, map(sum, A), map(sum, ring_matrix(len(A)))))
    return excess[::-1]


def enumerate_ideals(l: int, max_exp: int) -> list[Matrix]:
    """All integral ideals with every entry at most max(max_exp, ring entry),
    in lexicographic order of the exponent rows; more than
    isqrt(ORACLE_PAIR_BUDGET) of them are refused at the first one too many.

    Every ideal A in the box lies on a maximal chain of covers from the
    ring whose links all lie below A, hence in the box; `_chain_divisor`
    walks such chains.  So a walk that expands each ideal it finds once by
    its covers in the box, `_bump_candidates(e, top)`, finds them all, and
    counting ideals bounds its work.  A negative max_exp is refused.
    """
    if max_exp < 0:
        raise ValueError("max_exp must be >= 0")
    t = ring_matrix(l)
    top = tuple(tuple(max(v, max_exp) for v in row) for row in t)
    limit = math.isqrt(ORACLE_PAIR_BUDGET)
    seen = {t}
    stack = [t]
    while stack:
        e = stack.pop()
        for i, j in _bump_candidates(e, top):
            f = _bump(e, i, j)
            if f not in seen:
                if len(seen) == limit:
                    raise CapExceeded(f"T({l}) with exponents <= {max_exp} has more than {limit} "
                                      f"ideals; the oracle's pair budget {ORACLE_PAIR_BUDGET} "
                                      f"admits at most {limit}")
                seen.add(f)
                stack.append(f)
    return sorted(seen)


# ----------------------------------------------------------------------
# cross-validation of the divisor calculus against this oracle

def oracle_report(l: int = 3, max_exp: int = 2, seed: int = 0,
                  chain_trials: int = 20) -> dict:
    """Exhaustively compare the abstract divisor composition with actual
    ideal arithmetic in T(l).

    Checks, over all ideals with exponents <= max_exp: the homomorphism law
    divisor_of(A*B) = divisor_of(A) o divisor_of(B); injectivity of
    divisor_of; realizability of every attained divisor plus attainment of
    every realizable divisor with counts <= max_exp - 1; and agreement of
    divisor_of with the labels read off random maximal chains.  Sizes below
    2 or above ORACLE_SIZE_CAP, a negative number or more than CHAIN_TRIAL_CAP of chain
    trials and a corpus of more than ORACLE_PAIR_BUDGET pairs
    (enumerate_ideals stops past its square root) are refused.

    Each property is a generator, named after it, of its counterexamples in
    the order it checks its cases, and the report takes the first one: a
    property stops at its first failure, and a failed property does not
    stop the others.  The pairs are checked in A-major order by the
    composition formula, with one landing pass per left factor, and compose
    runs its lifted-map self-check on one pair per case the pairs reach: a
    label, A's count at it, and B's count at the label where A's move from
    it lands.

    Returns a report dict with one pass/fail entry per property and a
    counterexample for every failure.
    """
    if l > ORACLE_SIZE_CAP:
        raise CapExceeded(f"size {l} exceeds the oracle's size cap {ORACLE_SIZE_CAP}")
    if chain_trials < 0:
        raise ValueError("chain trials must be >= 0")
    if chain_trials > CHAIN_TRIAL_CAP:
        raise CapExceeded(f"{chain_trials} chain trials exceed cap {CHAIN_TRIAL_CAP}")
    corpus = enumerate_ideals(l, max_exp)  # refuses l < 2 before cycle_structure(l)
    cs = cycle_structure(l)
    divisors = [divisor_of(A) for A in corpus]

    def homomorphism():
        # the divisor of a product is the composition of the divisors.  Row
        # i of A*B depends only on row i of A and on B, so each distinct
        # corpus row is multiplied by each B once.  Each distinct product row
        # gets a small int id, by_row[r][b] that of row r times corpus[b],
        # and the ids of A's rows, zipped across the B's, give the key of
        # every A*B at once.  The corpus is enumerated, so its products skip
        # input validation; each distinct product is rebuilt from its key
        # and validated once, by divisor_of.
        rows: dict = {}
        row_ids = [tuple(rows.setdefault(r, len(rows)) for r in A) for A in corpus]
        distinct_rows = tuple(rows)
        products: dict = {}
        by_row = list(zip(*([products.setdefault(p, len(products)) for p in _mul(distinct_rows, B)]
                            for B in corpus)))
        product_rows = tuple(products)
        product_divisors: dict = {}
        # Each pair is composed by the formula, from one landing pass per A:
        # A o B counts DA[i] + DB[j] at label i, with j where A's move at i
        # lands (l >= 2, so at_lands gives a tuple).  compose's self-check at
        # label i depends only on the case (i, DA[i], DB[j]), so it runs once
        # per case the pairs reach: todo[i, c] holds the counts at c's
        # landing label not checked yet, and A composes with each B, in
        # corpus order, that checks one of its cases left, until none is
        # left.  A pair whose compose value differs from the formula fails
        # like one whose product does.
        values = [set(counts) for counts in zip(*divisors)]
        todo: dict = {}
        for A, ids, DA in zip(corpus, row_ids, divisors):
            lands = landing(cs, DA)
            left = [todo.setdefault((i, c), set(values[j]))
                    for i, (c, j) in enumerate(zip(DA, lands))]
            checked = {}
            for DB in divisors:
                if not any(left):
                    break
                if any(DB[j] in counts for j, counts in zip(lands, left)):
                    checked[DB] = compose(cs, DA, DB)
                    for j, counts in zip(lands, left):
                        counts.discard(DB[j])
            at_lands = itemgetter(*lands)
            for B, key, DB in zip(corpus, zip(*map(by_row.__getitem__, ids)), divisors):
                got = product_divisors.get(key)
                if got is None:
                    got = product_divisors[key] = divisor_of(
                        tuple(map(product_rows.__getitem__, key)))
                want = tuple(map(add, DA, at_lands(DB)))
                composed = checked.get(DB, want) if got == want else want
                if composed != got:
                    yield {"A": A, "B": B, "divisor_of_product": cs.format_divisor(got),
                           "composed": cs.format_divisor(composed)}

    def injectivity():
        seen: dict = {}
        for A, DA in zip(corpus, divisors):
            if seen.setdefault(DA, A) != A:
                yield {"A": seen[DA], "B": A, "divisor": cs.format_divisor(DA)}

    def realizability_image():
        # attained divisors satisfy the tau inequality, and every realizable
        # divisor with counts <= max_exp - 1 is attained
        for A, DA in zip(corpus, divisors):
            if not is_realizable(cs, DA):
                yield {"A": A, "divisor": cs.format_divisor(DA)}
        attained = set(divisors)
        for combo in itertools.product(range(max_exp), repeat=l):
            if is_realizable(cs, combo) and combo not in attained:
                yield {"missing_divisor": cs.format_divisor(combo)}

    def chain_independence():
        # random maximal chains give the divisor_of value
        rng = random.Random(seed)
        for _ in range(chain_trials):
            idx = rng.randrange(len(corpus))
            A, base = corpus[idx], divisors[idx]
            alt = _chain_divisor(A, rng)
            if alt != base:
                yield {"A": A, "expected": cs.format_divisor(base), "got": cs.format_divisor(alt)}

    first = {prop.__name__: next(prop(), None)
             for prop in (homomorphism, injectivity, realizability_image, chain_independence)}
    return {"ring_size": l, "max_exp": max_exp, "seed": seed, "corpus_size": len(corpus),
            "properties": {name: {"pass": True} if bad is None
                           else {"pass": False, "counterexample": bad}
                           for name, bad in first.items()},
            "all_pass": all(bad is None for bad in first.values())}


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
