"""The triangular-order oracle: the ideals of T(l) in a box, maximal chains
of ideals, and `oracle_report`, which checks the divisor calculus of
:mod:`nufact.divcalc` against the ideal arithmetic of :mod:`nufact.tring`.

`tring oracle` runs it, and no other command compiles it.
`tring.enumerate_ideals` and `tring.oracle_report` name the same functions.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import insort
from operator import add

from . import CapExceeded
from .divcalc import composer, is_realizable
from .tring import (Matrix, _bound, _bump, _geq, _mul, cycle_structure, divisor_of,
                    maximal_ideals, ring_matrix)

# the oracle's largest ring (T(32) with exponents <= 0 takes about 0.3 s)
# and most chain walks (100 add at most about 0.4 s to an admitted corpus)
ORACLE_SIZE_CAP = 32
CHAIN_TRIAL_CAP = 100
# corpus pairs of the homomorphism check: enumeration stops past 447 ideals,
# and the largest admitted, T(2) with exponents <= 74 (443) and T(6) with
# exponents <= 1 (429), take about 0.3 s end to end
ORACLE_PAIR_BUDGET = 200_000


def _bump_candidates(e: Matrix, a: Matrix) -> list[tuple[int, int]]:
    """Positions where raising the ideal e by one step stays an ideal inside
    the box toward a.  These are exactly the covers of e above a: all maximal
    chains of ideals step one valuation unit at a time.

    Raising e[i][j] can break only its own closure bound, so it keeps an
    ideal iff e[i][j] < _bound(e, i, j): O(1) per entry.  The brute-force
    closure check of each bumped matrix is the test oracle for this.
    """
    r = range(len(e))
    return [(i, j) for i in r for j in r if e[i][j] < min(a[i][j], _bound(e, i, j))]


def _chain_divisor(A: Matrix, rng: random.Random) -> tuple[int, ...]:
    """Walk a maximal chain of ideals from the ring down to the ideal A, which
    is not validated, and record, for each step, the unique maximal ideal P
    with P * (previous link) inside the next link.  Each step draws its
    cover uniformly from rng.  The test oracle for divisor_of; its cost
    grows with A.

    Row r of a product depends only on row r of its left factor, each
    maximal ideal differs from the ring matrix t in one row, and t * e = e
    for every ideal e.  So a step forms each P * e from e itself, with the
    rows where P differs from t recomputed: exact products, l rows per step
    instead of l full products.  Raising entry (i, j) moves only the closure
    bounds that read it, so a step re-tests the cover candidacy of (i, j),
    the entry below it and the entry to its left, indices mod l, and keeps
    the candidates in lexicographic order, the order of _bump_candidates, so
    a seed draws the same covers from either."""
    l = len(A)
    t = ring_matrix(l)
    maxi = maximal_ideals(l)
    changed = [[r for r in range(l) if Q[r] != t[r]] for Q in maxi]
    counts = [0] * l
    e = t
    candidates = _bump_candidates(e, A)
    while e != A:
        if not candidates:
            raise RuntimeError("no maximal ideal step found; chain search is broken")
        i, j = candidates[rng.randrange(len(candidates))]
        f = _bump(e, i, j)
        cols = tuple(zip(*e))
        hits = []
        for idx, (Q, rows) in enumerate(zip(maxi, changed)):
            Qe = list(e)
            for r in rows:
                Qe[r] = tuple(min(map(add, Q[r], col)) for col in cols)
            if _geq(Qe, f):
                hits.append(idx)
        if len(hits) != 1:
            raise RuntimeError(
                f"chain step admits {len(hits)} maximal ideals; expected exactly one")
        counts[hits[0]] += 1
        e = f
        for r, c in {(i, j), ((i + 1) % l, j), (i, (j - 1) % l)}:
            if (r, c) in candidates:
                candidates.remove((r, c))
            if e[r][c] < min(A[r][c], _bound(e, r, c)):
                insort(candidates, (r, c))
    return tuple(counts)


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
    stop the others.  The pairs are checked in A-major order, in one loop
    over B per left factor A, by `divcalc.composer`'s map for A, the
    function `compose` applies too.

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
        # corpus row is multiplied by each B once: by_row maps it to the
        # small int ids of its product rows, one per B in corpus order, and
        # the ids of A's rows, zipped across the B's, give the key of every
        # A*B at once.  The corpus is enumerated, so its products skip input
        # validation; each distinct product is rebuilt from its key and
        # validated once, by divisor_of.
        distinct = tuple(dict.fromkeys(r for A in corpus for r in A))
        products: dict = {}
        by_row = dict(zip(distinct, zip(*([products.setdefault(p, len(products))
                                           for p in _mul(distinct, B)] for B in corpus))))
        product_rows = tuple(products)
        product_divisors: dict = {}
        # each pair is composed by one map per A, from one landing pass
        for A, DA in zip(corpus, divisors):
            after = composer(cs, DA)
            for B, key, DB in zip(corpus, zip(*map(by_row.__getitem__, A)), divisors):
                got = product_divisors.get(key)
                if got is None:
                    got = product_divisors[key] = divisor_of(
                        tuple(map(product_rows.__getitem__, key)))
                want = after(DB)
                if want != got:
                    yield {"A": A, "B": B, "divisor_of_product": cs.format_divisor(got),
                           "composed": cs.format_divisor(want)}

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
