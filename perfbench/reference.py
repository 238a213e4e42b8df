"""The benchmark's own arithmetic, used to generate inputs and to check the
program's answers.  It shares no code with ``nufact``: a wrong answer from
the program cannot be confirmed by the same wrong code here.

Conventions match the CLI's text syntax.  A divisor on the single cycle
Q1 > Q2 > ... > Ql is a tuple of l counts; a group is a tuple of moduli; a
zero-sum sequence is a dict from coordinate tuples to multiplicities.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# ----------------------------------------------------------------------
# divisors on one cycle, through their lifted maps

def lift(counts):
    """The lifted map of a divisor on the covering space Z of one cycle: the
    point at index n (label n mod l, level n div l) moves forward by the
    count at its label."""
    l = len(counts)
    return lambda n: n + counts[n % l]


def compose(d, e):
    """The divisor whose lifted map is lift(e) after lift(d), read off by
    evaluating both maps on one level of the covering space."""
    f, g = lift(d), lift(e)
    return tuple(g(f(i)) - i for i in range(len(d)))


def indicator(l, i):
    return tuple(int(j == i) for j in range(l))


def compose_word(l, word):
    """Left-to-right composition of the single-label divisors in `word`
    (label indices 0..l-1)."""
    acc = (0,) * l
    for i in word:
        acc = compose(acc, indicator(l, i))
    return acc


def is_realizable(counts):
    """A divisor arises from an ideal exactly when its count drops by at
    most one along each cycle step."""
    l = len(counts)
    return all(counts[(i + 1) % l] >= counts[i] - 1 for i in range(l))


def format_divisor(counts):
    terms = [f"Q{i + 1}" if c == 1 else f"{c}Q{i + 1}"
             for i, c in enumerate(counts) if c]
    return "+".join(terms) or "0"


def default_max_len(counts):
    """The CLI's default word-length bound on a single cycle: total count
    plus the cycle size when the divisor is non-zero."""
    total = sum(counts)
    return total + (len(counts) if total else 0)


def factor_words(counts, max_len):
    """All words of length <= max_len composing to the divisor, ordered by
    length then label positions, and whether some word of length exactly
    max_len stays below the divisor without reaching it (so a longer bound
    could reveal more words).  Composition never lowers a count, so every
    prefix of a word lies pointwise below the divisor."""
    l = len(counts)

    @lru_cache(maxsize=None)
    def suffixes(acc, budget):
        """(words taking acc to the divisor within budget letters, whether
        the budget ran out below the divisor)."""
        words = [()] if acc == counts else []
        if budget == 0:
            return words, acc != counts
        truncated = False
        for q in range(l):
            step = compose(acc, indicator(l, q))
            if all(a <= c for a, c in zip(step, counts)):
                tail, cut = suffixes(step, budget - 1)
                words += [(q,) + w for w in tail]
                truncated |= cut
        return words, truncated

    words, truncated = suffixes((0,) * l, max_len)
    return sorted(words, key=lambda w: (len(w), w)), truncated


# ----------------------------------------------------------------------
# the triangular order T(l): exponent matrices under min-plus

def ring_matrix(l):
    return tuple(tuple(int(j > i) for j in range(l)) for i in range(l))


def minplus(a, b):
    l = len(a)
    return tuple(tuple(min(a[i][j] + b[j][k] for j in range(l)) for k in range(l))
                 for i in range(l))


def left_dual(a):
    l = len(a)
    t = ring_matrix(l)
    return tuple(tuple(max(t[i][k] - a[j][k] for k in range(l)) for j in range(l))
                 for i in range(l))


@lru_cache(maxsize=None)
def maximal_ideals(l):
    """The maximal ideals of T(l) in the order Q1, ..., Ql of their cycle:
    each raises one diagonal entry of the ring to 1, the list starts at the
    last diagonal entry, and the double left dual steps to the next."""
    t = ring_matrix(l)

    def bump(d):
        return tuple(tuple(1 if i == j == d else t[i][j] for j in range(l))
                     for i in range(l))

    out = [bump(l - 1)]
    for _ in range(l - 1):
        out.append(left_dual(left_dual(out[-1])))
    if sorted(out) != sorted(bump(d) for d in range(l)):
        raise RuntimeError("double dual does not cycle through the maximal ideals")
    return tuple(out)


def ideal_product(l, word):
    """The product of maximal ideals Q_{w1} * ... * Q_{wk} (label indices)."""
    maxi = maximal_ideals(l)
    acc = ring_matrix(l)
    for i in word:
        acc = minplus(acc, maxi[i])
    return acc


# ----------------------------------------------------------------------
# zero-sum sequences over Z/n1 x ... x Z/nk

def davenport_lower(moduli):
    """D*(G) = 1 + sum(n_i - 1) for G = Z/n1 x ... x Z/nk with n1 | ... | nk.
    It equals the Davenport constant for p-groups and for rank <= 2 (Olson
    1969; Geroldinger and Halter-Koch, Non-Unique Factorizations, ch. 5)."""
    return 1 + sum(n - 1 for n in moduli)


def format_seq(seq):
    """The CLI's canonical text: support sorted by coordinates, "g^m" for a
    multiplicity m > 1."""
    parts = []
    for coords in sorted(seq):
        m = seq[coords]
        elem = ",".join(map(str, coords))
        parts.append(elem if m == 1 else f"{elem}^{m}")
    return " ".join(parts)


def length_set(moduli, seq):
    """The set of factorization lengths of a zero-sum sequence, by dynamic
    programming over its sub-multisets: L(S) is the union of 1 + L(S - A)
    over the minimal zero-sum A inside S that contain the least element of
    S.  Sizes stay small because S has few distinct elements."""
    support = sorted(seq)
    mults = [seq[g] for g in support]
    zero = (0,) * len(moduli)

    def total(sub):
        return tuple(sum(m * g[i] for m, g in zip(sub, support)) % n
                     for i, n in enumerate(moduli))

    subs = list(itertools.product(*(range(m + 1) for m in mults)))
    # has_zs[s]: s holds a non-empty zero-sum sub-multiset; subs is ordered
    # so that every s - e_i comes before s
    has_zs = {}
    minimal = []
    for sub in subs:
        below = [sub[:i] + (sub[i] - 1,) + sub[i + 1:]
                 for i in range(len(sub)) if sub[i]]
        inner = any(has_zs[b] for b in below)
        zs = any(sub) and total(sub) == zero
        if zs and not inner:
            minimal.append(sub)
        has_zs[sub] = inner or zs

    @lru_cache(maxsize=None)
    def lengths(rest):
        if not any(rest):
            return frozenset({0})
        first = next(i for i, m in enumerate(rest) if m)
        out = set()
        for atom in minimal:
            if atom[first] and all(a <= r for a, r in zip(atom, rest)):
                out |= {1 + n for n in
                        lengths(tuple(r - a for r, a in zip(rest, atom)))}
        return frozenset(out)

    return set(lengths(tuple(mults)))
