"""The monoid of zero-sum sequences over a subset of a finite abelian group.

A sequence is a finite multiset over a set G0 of group elements; it is
zero-sum when its entries add to the group identity.  Zero-sum sequences form
a monoid under concatenation whose atoms are the minimal zero-sum sequences,
and the factorization combinatorics of that monoid (length sets in
particular) model factorization in rings with the matching class group.

Everything here is exhaustive search at desk scale, guarded by caps:
sequences up to length 24, groups up to order 64 by default.  The Davenport
constant comes from a breadth-first search over subset-sum sets, which a
budget of work bounds as well: it finishes on every group of order up to 32.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import prod

from .abelian import (
    CapExceeded,
    FinAbGroup,
    GroupElement,
    format_element,
)

DEFAULT_SEQ_CAP = 24
DEFAULT_GROUP_CAP = 64
# subset-sum states one Davenport search may build, for groups up to order 64;
# Z/32 needs 2.2 million
DAVENPORT_BUDGET = 2_500_000


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
    def from_elements(cls, group: FinAbGroup, elements) -> "ZSeq":
        counts: dict = {}
        for e in elements:
            if e.group != group:
                raise ValueError("elements belong to different groups")
            counts[e.coords] = counts.get(e.coords, 0) + 1
        return cls(group, counts)

    @classmethod
    def empty(cls, group: FinAbGroup) -> "ZSeq":
        return cls(group, {})

    @property
    def length(self) -> int:
        return sum(self.counts.values())

    def is_empty(self) -> bool:
        return not self.counts

    def support(self) -> list[GroupElement]:
        return [GroupElement(self.group, c) for c in self.counts]

    def multiplicity(self, e: GroupElement) -> int:
        return self.counts.get(e.coords, 0)

    def elements(self) -> list[GroupElement]:
        """The entries with multiplicity, in non-decreasing order."""
        out = []
        for c, m in self.counts.items():
            out.extend([GroupElement(self.group, c)] * m)
        return out

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


def seq_sum(S: ZSeq) -> GroupElement:
    """Sum of all entries of S (with multiplicity) in the parent group."""
    moduli = S.group.moduli
    total = [0] * len(moduli)
    for c, m in S.counts.items():
        for i, x in enumerate(c):
            total[i] += x * m
    return GroupElement(S.group, tuple(t % n for t, n in zip(total, moduli)))


def concat(S: ZSeq, T: ZSeq) -> ZSeq:
    """Concatenation: multiplicities add.  The monoid product."""
    if S.group != T.group:
        raise ValueError("sequences over different groups")
    counts = dict(S.counts)
    for c, m in T.counts.items():
        counts[c] = counts.get(c, 0) + m
    return ZSeq(S.group, counts)


def is_zero_sum(S: ZSeq) -> bool:
    return seq_sum(S).is_zero()


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


def _vec_add(a, b, moduli):
    return tuple((x + y) % n for x, y, n in zip(a, b, moduli))


def davenport(G: FinAbGroup, cap: int | None = None) -> int:
    """Maximum length D(G) of a minimal zero-sum sequence over all of G.

    Breadth-first search over subset-sum sets: level k holds the distinct
    sets Sigma(S) of non-empty subsequence sums of the zero-sum free
    sequences S of length k.  S*g is zero-sum free iff S is, g != 0 and -g
    is not in Sigma(S), and then Sigma(S*g) = Sigma(S) | {g} | (Sigma(S) + g).
    So the next level depends on Sigma(S) alone, and D(G) is one more than
    the last non-empty level.  Each set is one int, a bit per element.

    Every subset-sum state built, duplicates included, counts against a
    budget of DAVENPORT_BUDGET for groups up to order 64, proportionally
    less beyond; past it the search stops with CapExceeded and its progress.
    """
    limit = DEFAULT_GROUP_CAP if cap is None else cap
    order = G.order
    if order > limit:
        raise CapExceeded(f"group order {order} exceeds cap {limit}")
    budget = DAVENPORT_BUDGET * 64 // max(order, 64)
    # length 1 alone builds order - 1 states; refusing such a group here also
    # spares the translation table, which grows as the square of the order
    if order - 1 > budget:
        raise CapExceeded(f"Davenport search over order {order} exceeds its budget: "
                          f"length 1 alone needs {order - 1} of {budget} subset-sum states")
    moves = _translations(G.moduli)
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


def _translations(moduli: tuple) -> list:
    """(bit of g, bit of -g, steps) for each non-zero g of Z/n1 x ... x Z/nk.

    The element x has bit index sum_i x_i * s_i with s_i = n_{i+1}*...*n_k,
    so coordinate i runs in blocks of n_i * s_i bits.  Each step translates
    one coordinate i by x_i != 0 within every block: positions with
    coordinate >= x_i (the mask `above`) take the bits from x_i * s_i lower,
    the others (`below`) wrap around from (n_i - x_i) * s_i higher.
    """
    order = prod(moduli)
    strides = [prod(moduli[i + 1:]) for i in range(len(moduli))]
    full = (1 << order) - 1
    steps = []  # steps[i][x] translates coordinate i by x
    for n, s in zip(moduli, strides):
        block_starts = sum(1 << q for q in range(0, order, n * s))
        below = [((1 << x * s) - 1) * block_starts for x in range(n)]
        steps.append([(x * s, full ^ below[x], (n - x) * s, below[x]) for x in range(n)])
    moves = []
    for p, coords in enumerate(itertools.product(*(range(n) for n in moduli))):
        if p:
            neg = sum(-x % n * s for x, n, s in zip(coords, moduli, strides))
            moves.append((1 << p, 1 << neg,
                          tuple(steps[i][x] for i, x in enumerate(coords) if x)))
    return moves


def atoms(G0, group: FinAbGroup | None = None, cap: int | None = None) -> list[ZSeq]:
    """All minimal zero-sum sequences over the set G0, in canonical order."""
    G0 = list(G0)
    if group is None:
        if not G0:
            return []
        group = G0[0].group
    limit = DEFAULT_GROUP_CAP if cap is None else cap
    if group.order > limit or len(G0) > limit:
        raise CapExceeded(f"group of order {group.order} exceeds cap {limit}")
    return list(_atoms(group.moduli, tuple(sorted({e.coords for e in G0}))))


@functools.lru_cache(maxsize=4096)
def _atoms(moduli: tuple, coords: tuple) -> tuple:
    """All minimal zero-sum multisets over the sorted coordinate tuples,
    shortest first, then in canonical order.

    Depth-first search over non-decreasing element sequences.  Along a branch
    no non-empty sub-multiset may sum to zero; under that invariant a branch
    whose running total hits zero is automatically a minimal zero-sum
    sequence, and nothing beyond it can be.  The invariant also bounds the
    depth: a zero-sum free sequence is shorter than the Davenport constant.
    The search keeps an explicit stack of (first allowed index, sequence,
    total, subset sums), so the depth is not limited by the recursion depth.
    """
    G = FinAbGroup(moduli)
    zero = (0,) * len(moduli)
    out: list[ZSeq] = []
    stack = [(0, (), zero, frozenset())]
    while stack:
        start, chosen, total, sums = stack.pop()
        for i in range(start, len(coords)):
            g = coords[i]
            new_total = _vec_add(total, g, moduli)
            if new_total == zero:
                out.append(ZSeq(G, Counter(chosen + (g,))))
                continue
            new_sums = sums | {g} | {_vec_add(s, g, moduli) for s in sums}
            if zero not in new_sums:
                stack.append((i, chosen + (g,), new_total, new_sums))
    out.sort(key=lambda S: (S.length, S.expanded()))
    return tuple(out)


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
    candidates = atoms(S.support(), group=S.group)
    candidates.sort(key=lambda A: A.expanded())

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


def half_factorial_witness(G0, max_len: int, group: FinAbGroup | None = None,
                           cap: int | None = None) -> ZSeq | None:
    """A zero-sum sequence over G0 of length <= max_len whose length set is
    not a singleton, or None if no such sequence exists up to that bound.

    Scans lengths in increasing order, so a returned witness is shortest
    possible.
    """
    G0 = list(G0)
    if not G0:
        return None
    if group is None:
        group = G0[0].group
    limit = DEFAULT_SEQ_CAP if cap is None else cap
    if max_len > limit:
        raise CapExceeded(f"max_len {max_len} exceeds sequence cap {limit}")
    coords = sorted({e.coords for e in G0})
    moduli = group.moduli
    zero = (0,) * len(moduli)
    for L in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(coords, L):
            total = zero
            for c in combo:
                total = _vec_add(total, c, moduli)
            if total != zero:
                continue
            S = ZSeq(group, Counter(combo))
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
        counts[e.coords] = counts.get(e.coords, 0) + mult
    return ZSeq(group, counts)


def format_seq(S: ZSeq) -> str:
    """Inverse of :func:`parse_seq`; empty string for the empty sequence."""
    parts = []
    for c, m in S.counts.items():
        e = format_element(GroupElement(S.group, c))
        parts.append(e if m == 1 else f"{e}^{m}")
    return " ".join(parts)
