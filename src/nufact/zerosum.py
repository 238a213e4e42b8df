"""The monoid of zero-sum sequences over a subset of a finite abelian group.

A sequence is a finite multiset over a set G0 of group elements, each a
tuple of reduced residues (see ``abelian``); it is zero-sum when its
entries add to the group identity.  Zero-sum sequences form a monoid under
concatenation whose atoms are the minimal zero-sum sequences, and the
factorization combinatorics of that monoid (length sets in particular)
model factorization in rings with the matching class group.

A sequence is a tuple of (element, multiplicity) pairs: distinct elements
in ascending order, each with an int multiplicity >= 1, so the empty
sequence is () and equal sequences are equal tuples.  Pairs rather than
the repeated elements keep a sequence as small as its support, so a length
such as 1^(10**20) is refused by the length cap without being built.
Functions that need the group take it first.

>>> G = FinAbGroup([3])
>>> S = parse_seq(G, "4^3 2 2^2")
>>> S
(((1,), 3), ((2,), 3))
>>> length_set(G, S)
{2, 3}

Everything here is exhaustive search at desk scale, guarded by caps that
are module constants: sequences up to length SEQ_CAP = 24, and groups up to
order GROUP_CAP = 64 for atoms, davenport and the witness search.  The atoms
and the Davenport constant come from searches over subset-sum bitmasks,
which budgets of work bound as well: they finish on every group of order up
to 26 and 32 respectively.  The half-factoriality witness search has a
budget of candidate sequences.  The factorization walk is
`nufact.factorization_walk`, shared with ``quadring``, whose budget of
candidate atoms tested answers or refuses every length the length cap
admits in seconds.
"""

from __future__ import annotations

import functools
import itertools
from math import prod
from operator import le, sub

from . import CapExceeded, factorization_walk
from .abelian import FinAbGroup, enumerate_elements, format_element

SEQ_CAP = 24
GROUP_CAP = 64
# subset-sum states one search may build, for groups up to order 64; the
# Davenport search on Z/32 needs 2.2 million, the atom search on Z/26 0.26 million
DAVENPORT_BUDGET = 2_500_000
ATOM_BUDGET = 300_000
# candidate sequences the half-factoriality witness search may scan, for
# groups up to order 64: at most about 0.5 s in process, over Z/17, Z/19, Z/23
WITNESS_BUDGET = 50_000


def _expanded(S) -> tuple:
    """The coordinate tuples of S, each repeated by its multiplicity; the
    canonical sort key of sequences."""
    return tuple(c for c, m in S for _ in range(m))


def _pairs(coords) -> tuple:
    """The sequence of a sorted tuple of coordinate tuples."""
    return tuple((c, len(list(run))) for c, run in itertools.groupby(coords))


def seq_sum(G: FinAbGroup, S) -> tuple[int, ...]:
    """Sum of all entries of S (with multiplicity) in G."""
    total = [0] * len(G.moduli)
    for c, m in S:
        for i, x in enumerate(c):
            total[i] += x * m
    return tuple(t % n for t, n in zip(total, G.moduli))


def is_zero_sum(G: FinAbGroup, S) -> bool:
    return not any(seq_sum(G, S))


def is_minimal_zero_sum(G: FinAbGroup, S) -> bool:
    """True iff S is non-empty, zero-sum, and has no non-empty proper
    zero-sum sub-multiset.

    Counts the sub-multisets summing to zero by dynamic programming over the
    support; minimality means exactly two (the empty and the full one).  A
    zero-sum S longer than |G| >= D(G) has a proper non-empty zero-sum
    subsequence, so a longer S is not minimal and skips the dynamic program.
    """
    if not S or sum(m for _, m in S) > G.order or not is_zero_sum(G, S):
        return False
    moduli = G.moduli
    zero = G.zero()
    reach = {zero: 1}
    for c, m in S:
        nxt: dict = {}
        for s, cnt in reach.items():
            t = s
            for mult in range(m + 1):
                nxt[t] = nxt.get(t, 0) + cnt
                t = tuple((a + b) % n for a, b, n in zip(t, c, moduli))
        reach = nxt
    return reach.get(zero, 0) == 2


def _check_order(G: FinAbGroup) -> None:
    if G.order > GROUP_CAP:
        raise CapExceeded(f"group of order {G.order} exceeds cap {GROUP_CAP}")


def davenport(G: FinAbGroup) -> int:
    """Maximum length D(G) of a minimal zero-sum sequence over all of G.

    Breadth-first search over subset-sum sets: level k holds the distinct
    sets Sigma(S) of non-empty subsequence sums of the zero-sum free
    sequences S of length k.  S*g is zero-sum free iff S is, g != 0 and -g
    is not in Sigma(S), and then Sigma(S*g) = Sigma(S) | {g} | (Sigma(S) + g).
    So the next level depends on Sigma(S) alone, and D(G) is one more than
    the last non-empty level.  Each set is one int, a bit per element.

    Every subset-sum state built, duplicates included, counts against
    DAVENPORT_BUDGET; past it the search stops with CapExceeded and its
    progress.  The order cap keeps length 1 within the budget.
    """
    _check_order(G)
    order = G.order
    moves = _translations(G.moduli, enumerate_elements(G)[1:])
    searched, length, level = 0, 0, {0}
    while True:
        nxt = set()
        for M in level:
            for bit, neg_bit, steps in moves:
                if M & neg_bit:
                    continue
                searched += 1
                if searched > DAVENPORT_BUDGET:
                    raise CapExceeded(
                        f"Davenport search over order {order} exceeds its budget: "
                        f"searched {DAVENPORT_BUDGET} subset-sum states, "
                        f"reached length {length + 1}")
                T = M
                for up, above, down, below in steps:
                    T = (T << up) & above | (T >> down) & below
                nxt.add(M | bit | T)
        if not nxt:
            return length + 1
        level = nxt
        length += 1


def _atom_budget(order: int, first_level: int) -> int:
    """Subset-sum states an atom search over this order may build:
    ATOM_BUDGET up to order 64, and ATOM_BUDGET * 64 / order beyond, where
    each state is a wider mask.  A search whose length 1 alone is over
    budget is refused before any work."""
    budget = ATOM_BUDGET * 64 // max(order, 64)
    if first_level > budget:
        raise CapExceeded(f"atom search over order {order} exceeds its budget: "
                          f"length 1 alone needs {first_level} of {budget} subset-sum states")
    return budget


def _translations(moduli: tuple, coords) -> list:
    """(bit of g, bit of -g, steps) for each g in coords, of Z/n1 x ... x Z/nk.

    The element x has bit index sum_i x_i * s_i with s_i = n_{i+1}*...*n_k,
    so coordinate i runs in blocks of n_i * s_i bits.  Each step translates
    one coordinate i by x_i != 0 within every block: positions with
    coordinate >= x_i (the mask `above`) take the bits from x_i * s_i lower,
    the others (`below`) wrap around from (n_i - x_i) * s_i higher.  Steps
    are built only for coordinate values that occur, once each.
    """
    order = prod(moduli)
    strides = [prod(moduli[i + 1:]) for i in range(len(moduli))]

    @functools.cache
    def step(i, x):  # translates coordinate i by x
        n, s = moduli[i], strides[i]
        below = ((1 << x * s) - 1) * sum(1 << q for q in range(0, order, n * s))
        return x * s, ((1 << order) - 1) ^ below, (n - x) * s, below

    moves = []
    for g in coords:
        p = sum(x * s for x, s in zip(g, strides))
        neg = sum(-x % n * s for x, n, s in zip(g, moduli, strides))
        moves.append((1 << p, 1 << neg, tuple(step(i, x) for i, x in enumerate(g) if x)))
    return moves


def _ground_set(G: FinAbGroup, coords) -> tuple:
    """The sorted distinct elements given by coords, each passed once
    through G.element; all of G for None."""
    if coords is None:
        return tuple(enumerate_elements(G))
    return tuple(sorted({G.element(c) for c in coords}))


def atoms(G: FinAbGroup, coords=None) -> list[tuple]:
    """All minimal zero-sum sequences over the elements given by coords
    (coordinate tuples; None for all of G), in canonical order.

    The order cap is checked before any element is built."""
    _check_order(G)
    return list(_atoms(G.moduli, _ground_set(G, coords)))


def _atoms(moduli: tuple, coords: tuple, bounds=None) -> tuple:
    """All minimal zero-sum multisets over the sorted coordinate tuples with at
    most bounds[i] copies of coords[i], shortest first, then in canonical order.

    Depth-first search, on davenport's bitmasks, over non-decreasing zero-sum
    free sequences S of non-zero elements: S*g is zero-sum free iff -g is not
    in Sigma(S), and a minimal zero-sum sequence if -g is the total of S.  A
    bound (None for none) is checked before each move.  An explicit stack of
    (first allowed index, S, bit of its total, Sigma(S)) keeps the depth free
    of the recursion limit.  Each state built counts against ATOM_BUDGET (see
    _atom_budget); past it CapExceeded gives the progress.
    """
    order = prod(moduli)
    out = []  # each atom as its sorted coordinate tuples
    if coords and not any(coords[0]):
        out.append(coords[:1])
        coords, bounds = coords[1:], bounds and bounds[1:]
    budget = _atom_budget(order, len(coords))
    moves = _translations(moduli, coords)
    searched = 0
    stack = [(0, (), 1, 0)]
    while stack:
        start, chosen, total, M = stack.pop()
        for i in range(start, len(coords)):
            if bounds and chosen.count(coords[i]) == bounds[i]:
                continue
            bit, neg_bit, steps = moves[i]
            if M & neg_bit:
                if neg_bit == total:
                    out.append(chosen + (coords[i],))
                continue
            searched += 1
            if searched > budget:
                raise CapExceeded(f"atom search over order {order} exceeds its budget: "
                                  f"searched {budget} subset-sum states, found {len(out)} atoms")
            T, t = M, total
            for up, above, down, below in steps:
                T = (T << up) & above | (T >> down) & below
                t = (t << up) & above | (t >> down) & below
            stack.append((i, chosen + (coords[i],), t, M | bit | T))
    return tuple(_pairs(A) for A in sorted(out, key=lambda A: (len(A), A)))


def factorizations(G: FinAbGroup, S) -> list[tuple]:
    """All factorizations of the sequence S over G into minimal zero-sum
    sequences, each a tuple of atoms, shortest first, then in canonical order.

    Each element of S is passed once through G.element and equal ones are
    merged before the length cap is checked.  Only the atoms that divide S
    are searched for, as multiplicity vectors over its support.  The
    shared `factorization_walk` takes parts in non-decreasing canonical
    order; each state tests the run of atoms whose least element is the
    smallest remaining one, from the index of the last part on, and charges
    them to the walk's budget.
    """
    counts: dict = {}
    for c, m in S:
        if type(m) is not int or m < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {m!r}")
        e = G.element(c)
        counts[e] = counts.get(e, 0) + m
    length = sum(counts.values())
    if length > SEQ_CAP:
        raise CapExceeded(f"sequence length {length} exceeds cap {SEQ_CAP}")
    if not is_zero_sum(G, counts.items()):
        raise ValueError("sequence is not zero-sum")
    support = tuple(sorted(counts))
    have = tuple(counts[c] for c in support)
    # in canonical order, so the walk's order of atom indices is canonical
    candidates = sorted(_atoms(G.moduli, support, have), key=_expanded)
    vectors = [tuple(dict(A).get(c, 0) for c in support) for A in candidates]
    # the atoms whose least element is support[g] are vectors[runs[g]:runs[g + 1]]
    runs = [sum(any(A[:g]) for A in vectors) for g in range(len(support) + 1)]

    def moves(rest, first):
        g = next(itertools.compress(range(len(rest)), rest), None)  # the least element left
        if g is None:
            return None
        lo, hi = max(first, runs[g]), runs[g + 1]
        return hi - lo, [(idx, tuple(map(sub, rest, vectors[idx]))) for idx in range(lo, hi)
                         if all(map(le, vectors[idx], rest))]

    return factorization_walk(have, moves, candidates, f"length {length}")


def length_set(G: FinAbGroup, S) -> set[int]:
    """Set of factorization lengths of S over G; {0} for the empty sequence."""
    return {len(F) for F in factorizations(G, S)}


def half_factorial_witness(G: FinAbGroup, max_len: int, coords=None) -> tuple | None:
    """A zero-sum sequence over the elements given by coords (None for all
    of G) of length <= max_len whose length set is not a singleton, or None
    if no such sequence exists up to that bound.

    Scans lengths in increasing order, so a returned witness is shortest
    possible.  The caps are checked before any element is built, as in
    `atoms`.  Every candidate sequence scanned counts against
    WITNESS_BUDGET; past it the search stops with CapExceeded and its
    progress.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > SEQ_CAP:
        raise CapExceeded(f"max_len {max_len} exceeds sequence cap {SEQ_CAP}")
    _check_order(G)
    coords = _ground_set(G, coords)
    scanned = 0
    for L in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(coords, L):
            scanned += 1
            if scanned > WITNESS_BUDGET:
                raise CapExceeded(f"witness search over order {G.order} exceeds its budget: "
                                  f"scanned {WITNESS_BUDGET} candidates, reached length {L}")
            if any(sum(column) % n for column, n in zip(zip(*combo), G.moduli)):
                continue
            S = _pairs(combo)
            if len(length_set(G, S)) > 1:
                return S
    return None


# ----------------------------------------------------------------------
# text syntax: "1^3 2^3" means the multiset with 1 three times, 2 three times

def parse_seq(group: FinAbGroup, text: str) -> tuple:
    counts: dict = {}
    for token in text.split():
        elem_part, hat, mult_part = token.partition("^")
        mult = 1
        if hat:
            try:
                mult = int(mult_part)
            except ValueError:
                raise ValueError(f"bad multiplicity in {token!r}")
            if mult < 0:
                raise ValueError(f"negative multiplicity in {token!r}")
        e = group.parse_element(elem_part)
        counts[e] = counts.get(e, 0) + mult
    return tuple(sorted((c, m) for c, m in counts.items() if m))


def format_seq(S) -> str:
    """Inverse of :func:`parse_seq`; empty string for the empty sequence."""
    parts = []
    for c, m in S:
        e = format_element(c)
        parts.append(e if m == 1 else f"{e}^{m}")
    return " ".join(parts)
