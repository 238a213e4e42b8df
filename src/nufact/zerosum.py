"""The monoid of zero-sum sequences over a subset of a finite abelian group.

A sequence is a finite multiset over a set G0 of group elements, each a
tuple of reduced residues (see ``abelian``); it is zero-sum when its
entries add to the group identity.  Zero-sum sequences form a monoid under
concatenation whose atoms are the minimal zero-sum sequences, and the
factorization combinatorics of that monoid (length sets in particular)
model factorization in rings with the matching class group.

Everything here is exhaustive search at desk scale, guarded by caps:
sequences up to length 24, groups up to order 64 by default.  The atoms and
the Davenport constant come from searches over subset-sum bitmasks, which
budgets of work bound as well: they finish on every group of order up to 26
and 32 respectively.  The half-factoriality witness search has a budget of
candidate sequences.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import prod

from .abelian import CapExceeded, FinAbGroup, format_element

DEFAULT_SEQ_CAP = 24
DEFAULT_GROUP_CAP = 64
# subset-sum states one search may build, for groups up to order 64; the
# Davenport search on Z/32 needs 2.2 million, the atom search on Z/26 0.26 million
DAVENPORT_BUDGET = 2_500_000
ATOM_BUDGET = 300_000
# candidate sequences the half-factoriality witness search may scan, for
# groups up to order 64: at most about 3.3 s in process, over Z/17, Z/19, Z/23
WITNESS_BUDGET = 50_000


class ZSeq:
    """A finite multiset over elements of one group (a "sequence").

    Stored as a multiplicity map; the canonical form sorts the support
    lexicographically by coordinates.  Immutable and hashable.
    """

    __slots__ = ("group", "counts", "_key")

    def __init__(self, group: FinAbGroup, counts: dict):
        # counts maps coordinate tuples to multiplicities >= 1
        self.group = group
        self.counts = {c: m for c, m in sorted(counts.items()) if m > 0}
        if any(m < 0 for m in counts.values()):
            raise ValueError("negative multiplicity")
        self._key = (group.moduli, tuple(self.counts.items()))

    @classmethod
    def empty(cls, group: FinAbGroup) -> "ZSeq":
        return cls(group, {})

    @property
    def length(self) -> int:
        return sum(self.counts.values())

    def is_empty(self) -> bool:
        return not self.counts

    def expanded(self) -> tuple:
        """Coordinate tuples with multiplicity; the canonical sort key."""
        out = []
        for c, m in self.counts.items():
            out.extend([c] * m)
        return tuple(out)

    def contains(self, other: "ZSeq") -> bool:
        """Sub-multiset test."""
        return all(self.counts.get(c, 0) >= m for c, m in other.counts.items())

    def minus(self, other: "ZSeq") -> "ZSeq":
        if not self.contains(other):
            raise ValueError("not a sub-multiset")
        counts = dict(self.counts)
        for c, m in other.counts.items():
            counts[c] -= m
        return ZSeq(self.group, counts)

    def __eq__(self, other):
        if not isinstance(other, ZSeq):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        if self.group != other.group:
            raise ValueError("sequences over different groups")
        return self.expanded() < other.expanded()

    def __repr__(self):
        return f"ZSeq({format_seq(self)!r})"


def seq_sum(S: ZSeq) -> tuple[int, ...]:
    """Sum of all entries of S (with multiplicity) in the parent group."""
    moduli = S.group.moduli
    total = [0] * len(moduli)
    for c, m in S.counts.items():
        for i, x in enumerate(c):
            total[i] += x * m
    return tuple(t % n for t, n in zip(total, moduli))


def concat(S: ZSeq, T: ZSeq) -> ZSeq:
    """Concatenation: multiplicities add.  The monoid product."""
    if S.group != T.group:
        raise ValueError("sequences over different groups")
    counts = dict(S.counts)
    for c, m in T.counts.items():
        counts[c] = counts.get(c, 0) + m
    return ZSeq(S.group, counts)


def is_zero_sum(S: ZSeq) -> bool:
    return not any(seq_sum(S))


def is_minimal_zero_sum(S: ZSeq) -> bool:
    """True iff S is non-empty, zero-sum, and has no non-empty proper
    zero-sum sub-multiset.

    Counts the sub-multisets summing to zero by dynamic programming over the
    support; minimality means exactly two (the empty and the full one).
    """
    if S.is_empty() or not is_zero_sum(S):
        return False
    moduli = S.group.moduli
    zero = (0,) * len(moduli)
    reach = {zero: 1}
    for c, m in S.counts.items():
        nxt: dict = {}
        for s, cnt in reach.items():
            t = s
            for mult in range(m + 1):
                nxt[t] = nxt.get(t, 0) + cnt
                t = tuple((a + b) % n for a, b, n in zip(t, c, moduli))
        reach = nxt
    return reach.get(zero, 0) == 2


def davenport(G: FinAbGroup, cap: int | None = None) -> int:
    """Maximum length D(G) of a minimal zero-sum sequence over all of G.

    Breadth-first search over subset-sum sets: level k holds the distinct
    sets Sigma(S) of non-empty subsequence sums of the zero-sum free
    sequences S of length k.  S*g is zero-sum free iff S is, g != 0 and -g
    is not in Sigma(S), and then Sigma(S*g) = Sigma(S) | {g} | (Sigma(S) + g).
    So the next level depends on Sigma(S) alone, and D(G) is one more than
    the last non-empty level.  Each set is one int, a bit per element.

    Every subset-sum state built, duplicates included, counts against the
    budget of DAVENPORT_BUDGET (see _budget); past it the search stops with
    CapExceeded and its progress.
    """
    limit = DEFAULT_GROUP_CAP if cap is None else cap
    order = G.order
    if order > limit:
        raise CapExceeded(f"group order {order} exceeds cap {limit}")
    budget = _budget(DAVENPORT_BUDGET, order, "Davenport search", order - 1)
    nonzero = itertools.islice(itertools.product(*map(range, G.moduli)), 1, None)
    moves = _translations(G.moduli, nonzero)
    searched, length, level = 0, 0, {0}
    while True:
        nxt = set()
        for M in level:
            for bit, neg_bit, steps in moves:
                if M & neg_bit:
                    continue
                searched += 1
                if searched > budget:
                    raise CapExceeded(
                        f"Davenport search over order {order} exceeds its budget: "
                        f"searched {budget} subset-sum states, reached length {length + 1}")
                T = M
                for up, above, down, below in steps:
                    T = (T << up) & above | (T >> down) & below
                nxt.add(M | bit | T)
        if not nxt:
            return length + 1
        level = nxt
        length += 1


def _budget(base: int, order: int, search: str, first_level: int,
            unit: str = "subset-sum states") -> int:
    """Units of work a search over this order may do: base up to order 64,
    and base * 64 / order beyond, where each unit works on wider masks.  A
    search whose length 1 alone is over budget is refused before any work."""
    budget = base * 64 // max(order, 64)
    if first_level > budget:
        raise CapExceeded(f"{search} over order {order} exceeds its budget: "
                          f"length 1 alone needs {first_level} of {budget} {unit}")
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
        return tuple(itertools.product(*map(range, G.moduli)))
    return tuple(sorted({G.element(c) for c in coords}))


def atoms(G: FinAbGroup, coords=None, cap: int | None = None) -> list[ZSeq]:
    """All minimal zero-sum sequences over the elements given by coords
    (coordinate tuples; None for all of G), in canonical order.

    The order cap, and for all of G the budget of length 1, are checked
    before any element is built."""
    limit = DEFAULT_GROUP_CAP if cap is None else cap
    if G.order > limit:
        raise CapExceeded(f"group of order {G.order} exceeds cap {limit}")
    if coords is None:
        _budget(ATOM_BUDGET, G.order, "atom search", G.order - 1)
    return list(_atoms(G.moduli, _ground_set(G, coords)))


@functools.lru_cache(maxsize=4096)
def _atoms(moduli: tuple, coords: tuple) -> tuple:
    """All minimal zero-sum multisets over the sorted coordinate tuples,
    shortest first, then in canonical order.

    Depth-first search, on davenport's bitmasks, over non-decreasing zero-sum
    free sequences S of non-zero elements: S*g is zero-sum free iff -g is not
    in Sigma(S), and a minimal zero-sum sequence if -g is the total of S.  An
    explicit stack of (first allowed index, S, bit of its total, Sigma(S))
    keeps the depth free of the recursion limit.  Each state built counts
    against ATOM_BUDGET (see _budget); past it CapExceeded gives the progress.
    """
    G = FinAbGroup(moduli)
    out: list[ZSeq] = []
    if coords and not any(coords[0]):
        out.append(ZSeq(G, {coords[0]: 1}))
        coords = coords[1:]
    budget = _budget(ATOM_BUDGET, G.order, "atom search", len(coords))
    moves = _translations(moduli, coords)
    searched = 0
    stack = [(0, (), 1, 0)]
    while stack:
        start, chosen, total, M = stack.pop()
        for i in range(start, len(coords)):
            bit, neg_bit, steps = moves[i]
            if M & neg_bit:
                if neg_bit == total:
                    out.append(ZSeq(G, Counter(chosen + (coords[i],))))
                continue
            searched += 1
            if searched > budget:
                raise CapExceeded(f"atom search over order {G.order} exceeds its budget: "
                                  f"searched {budget} subset-sum states, found {len(out)} atoms")
            T, t = M, total
            for up, above, down, below in steps:
                T = (T << up) & above | (T >> down) & below
                t = (t << up) & above | (t >> down) & below
            stack.append((i, chosen + (coords[i],), t, M | bit | T))
    return tuple(sorted(out, key=lambda S: (S.length, S.expanded())))


def factorizations(S: ZSeq, cap: int | None = None) -> list[tuple[ZSeq, ...]]:
    """All factorizations of S into minimal zero-sum sequences, each a tuple
    of atoms.

    Each factorization is a multiset of atoms, listed exactly once: parts are
    generated in non-decreasing canonical order, and the next part always
    consumes the smallest remaining element.  The search keeps an explicit
    stack, so the length of S is not limited by the recursion depth.
    """
    limit = DEFAULT_SEQ_CAP if cap is None else cap
    if S.length > limit:
        raise CapExceeded(f"sequence length {S.length} exceeds cap {limit}")
    if not is_zero_sum(S):
        raise ValueError("sequence is not zero-sum")
    candidates = sorted(_atoms(S.group.moduli, tuple(S.counts)), key=ZSeq.expanded)

    results: list[tuple[ZSeq, ...]] = []
    stack = [(dict(S.counts), 0, ())]
    while stack:
        remaining, min_index, parts = stack.pop()
        if not remaining:
            results.append(parts)
            continue
        g = min(remaining)
        for idx in range(min_index, len(candidates)):
            A = candidates[idx]
            if A.counts.get(g, 0) == 0:
                continue
            if any(remaining.get(c, 0) < m for c, m in A.counts.items()):
                continue
            rest = dict(remaining)
            for c, m in A.counts.items():
                rest[c] -= m
                if rest[c] == 0:
                    del rest[c]
            stack.append((rest, idx, parts + (A,)))

    results.sort(key=lambda F: (len(F), [P.expanded() for P in F]))
    return results


def length_set(S: ZSeq, cap: int | None = None) -> set[int]:
    """Set of factorization lengths of S; {0} for the empty sequence."""
    return {len(F) for F in factorizations(S, cap=cap)}


def half_factorial_witness(G: FinAbGroup, max_len: int, coords=None,
                           cap: int | None = None) -> ZSeq | None:
    """A zero-sum sequence over the elements given by coords (None for all
    of G) of length <= max_len whose length set is not a singleton, or None
    if no such sequence exists up to that bound.

    Scans lengths in increasing order, so a returned witness is shortest
    possible.  The caps are checked before any element is built, as in
    `atoms`.  Every candidate sequence scanned counts against the budget
    of WITNESS_BUDGET (see _budget); past it the search stops with
    CapExceeded and its progress.
    """
    limit = DEFAULT_SEQ_CAP if cap is None else cap
    if max_len > limit:
        raise CapExceeded(f"max_len {max_len} exceeds sequence cap {limit}")
    group_limit = DEFAULT_GROUP_CAP if cap is None else cap
    if G.order > group_limit:
        raise CapExceeded(f"group of order {G.order} exceeds cap {group_limit}")
    if coords is None:
        _budget(WITNESS_BUDGET, G.order, "witness search", G.order, "candidates")
    coords = _ground_set(G, coords)
    budget = _budget(WITNESS_BUDGET, G.order, "witness search", len(coords), "candidates")
    scanned = 0
    for L in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(coords, L):
            scanned += 1
            if scanned > budget:
                raise CapExceeded(f"witness search over order {G.order} exceeds its budget: "
                                  f"scanned {budget} candidates, reached length {L}")
            if any(sum(column) % n for column, n in zip(zip(*combo), G.moduli)):
                continue
            S = ZSeq(G, Counter(combo))
            if len(length_set(S, cap=cap)) > 1:
                return S
    return None


# ----------------------------------------------------------------------
# text syntax: "1^3 2^3" means the multiset with 1 three times, 2 three times

def parse_seq(group: FinAbGroup, text: str) -> ZSeq:
    counts: dict = {}
    for token in text.split():
        if "^" in token:
            elem_part, _, mult_part = token.partition("^")
            mult = int(mult_part)
            if mult < 0:
                raise ValueError(f"negative multiplicity in {token!r}")
        else:
            elem_part, mult = token, 1
        e = group.parse_element(elem_part)
        counts[e] = counts.get(e, 0) + mult
    return ZSeq(group, counts)


def format_seq(S: ZSeq) -> str:
    """Inverse of :func:`parse_seq`; empty string for the empty sequence."""
    parts = []
    for c, m in S.counts.items():
        e = format_element(c)
        parts.append(e if m == 1 else f"{e}^{m}")
    return " ".join(parts)
