"""Divisor calculus for ideals whose maximal-ideal classes form finite cycles.

A cycle structure is a partition of finitely many labels into cycles, each
with a successor map.  A divisor assigns a nonnegative count to each label:
it is a plain tuple of counts in ``cs.labels()`` order.  Every divisor lifts
to a self-map of the covering space of points (index, level), with index a
label's position in ``cs.labels()``: the point moves forward by the
divisor's count at its label, in the total order that runs through each
cycle once per level.  Composing those lifted maps induces a
(non-commutative) composition of divisors, which is the operation mirroring
ideal multiplication.  It has a closed displacement formula: `landing`
finds the label where each label's move under D lands, and D composed with
E adds E's count there to D's count at each label.  `composer` writes the
formula, as the map E -> D o E from one landing pass over D.  `compose`
applies it and re-checks it against the lifted maps on every call, and
`tring oracle` applies it to every pair of its corpus.  The word search
takes one landing pass per partial product and applies the formula
itself: it composes only with single letters and builds no indicator.

A label is a letter followed by letters, digits or underscores, as a
divisor term names it; `CycleStructure` refuses any other label.  Label
text is validated where it enters: `parse_divisor`, `parse_word` and
`indicator`.  The functions that take a divisor (`landing`, `composer`,
`compose`, `is_realizable`, and the word search and the drawing) refuse one
of the wrong length.

The module also decides realizability (which divisors arise from ideals).
The word search, which lists the factorizations of a divisor into
single-label generators, lives in :mod:`nufact.divwords`, and the cylinder
diagrams in :mod:`nufact.divdraw`, so that `div compose` and `div
realizable` compile neither.  `divcalc.enumerate_factorizations_ex` and
`divcalc.render_svg` still name them: the first read imports their module.
"""

from __future__ import annotations

import re
from operator import add, itemgetter

from . import Meter, _forward

# search states (partial products, one per level they occur on) the word
# search may visit; `divwords.LETTER_CAP` then bounds the words built from
# them.  Nine times it bounds label steps: the word search's and
# `compose_texts`'s
WORD_SEARCH_BUDGET = 200_000
# a label; also the label part of a divisor term
_LABEL = r"[A-Za-z]\w*"
# the word search and the drawing, each compiled only by the command that
# runs it
__getattr__ = _forward(globals(), {"enumerate_factorizations_ex": "divwords",
                                   "render_svg": "divdraw"})


class CycleStructure:
    """Disjoint cycles of distinct labels; successor steps cyclically.

    Labels are indexed in ``labels()`` order.  For each index, the tables
    hold the index of its successor and the first index and length of its
    cycle.
    """

    def __init__(self, cycles):
        self.cycles = tuple(tuple(str(p) for p in c) for c in cycles)
        if any(not c for c in self.cycles):
            raise ValueError("empty cycle")
        self._index: dict[str, int] = {}
        succ, start, length = [], [], []
        for cyc in self.cycles:
            first = len(succ)
            for pi, label in enumerate(cyc):
                if not re.fullmatch(_LABEL, label):
                    raise ValueError(f"bad label {label!r}: a label is a letter followed by "
                                     f"letters, digits or underscores")
                if label in self._index:
                    raise ValueError(f"duplicate label {label!r}")
                self._index[label] = first + pi
                succ.append(first + (pi + 1) % len(cyc))
            start += [first] * len(cyc)
            length += [len(cyc)] * len(cyc)
        self._succ, self._start, self._len = tuple(succ), tuple(start), tuple(length)

    @classmethod
    def from_text(cls, text: str) -> "CycleStructure":
        """Parse "Q1>Q2>Q3;P": '>' orders a cycle, ';' separates cycles."""
        cycles = []
        for chunk in text.split(";"):
            labels = [p.strip() for p in chunk.split(">")]
            if any(not p for p in labels):
                raise ValueError(f"bad cycle syntax {text!r}")
            cycles.append(labels)
        return cls(cycles)

    def labels(self) -> list[str]:
        return [p for cyc in self.cycles for p in cyc]

    def index(self, label: str) -> int:
        """The position of a label in ``labels()``."""
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown maximal-ideal label {label!r}")

    def successor(self, label: str) -> str:
        """The next label in the cycle (the tau-orbit step)."""
        return self.labels()[self._succ[self.index(label)]]

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self._succ)

    def indicator(self, label: str) -> tuple[int, ...]:
        i = self.index(label)
        return (0,) * i + (1,) + (0,) * (len(self._succ) - 1 - i)

    # -- divisor text syntax: "2Q1+Q3", "Q2", "0" --------------------------

    def parse_divisor(self, text: str) -> tuple[int, ...]:
        s = text.replace(" ", "")
        counts = [0] * len(self._succ)
        if s == "0":
            return tuple(counts)
        for term in s.split("+"):
            m = re.match(rf"^(\d*)({_LABEL})$", term)
            if not m:
                raise ValueError(f"bad divisor term {term!r} in {text!r}")
            counts[self.index(m.group(2))] += int(m.group(1)) if m.group(1) else 1
        return tuple(counts)

    def format_divisor(self, D) -> str:
        terms = [label if c == 1 else f"{c}{label}"
                 for label, c in zip(self.labels(), D, strict=True) if c]
        return "+".join(terms) if terms else "0"

    def parse_word(self, text: str) -> list[str]:
        """Parse "Q1*Q2*Q3" into a list of labels; empty string is the
        empty word."""
        s = text.strip()
        if not s:
            return []
        word = [p.strip() for p in s.split("*")]
        for label in word:
            self.index(label)
        return word

    def __repr__(self):
        body = ";".join(">".join(c) for c in self.cycles)
        return f"CycleStructure({body!r})"


def _check_length(cs: CycleStructure, D):
    if len(D) != len(cs._succ):
        raise ValueError(f"divisor has {len(D)} counts, "
                         f"but the cycle structure has {len(cs._succ)} labels")


def apply_lifted(cs: CycleStructure, D, p: tuple[int, int]) -> tuple[int, int]:
    """Move the point (index, level) forward D[index] steps.

    Within a cycle of length l, position i at level n sits at n*l + i;
    adding the step count and splitting off the new level is the whole
    computation.  The map commutes with level shifts by construction.
    """
    i, level = p
    first, l = cs._start[i], cs._len[i]
    n = i - first + D[i]
    return first + n % l, level + n // l


def landing(cs: CycleStructure, D) -> list[int]:
    """For each label index i, the index of the label where D's move of the
    point (i, 0) lands."""
    _check_length(cs, D)
    return [apply_lifted(cs, D, (i, 0))[0] for i in range(len(D))]


def composer(cs: CycleStructure, D):
    """The map E -> D o E, from one landing pass over D.

    Displacements add along the path, so the composite moves a point at P by
    D(P) + E(Q), with Q the label where the first move lands: D o E counts
    D[i] + E[j] at label i, with j where D's move at i lands.  The map does
    not check E's length.
    """
    lands = landing(cs, D)
    # itemgetter of one index gives the item, so one label takes E[:1]
    at_lands = itemgetter(*lands) if len(lands) > 1 else itemgetter(slice(1))
    return lambda E: tuple(map(add, D, at_lands(E)))


def compose(cs: CycleStructure, D, E) -> tuple[int, ...]:
    """The divisor whose lifted map is (lift of E) after (lift of D).

    The value of `composer` is verified against the two-step lifted map on
    every label rather than assumed.
    """
    _check_length(cs, E)
    out = composer(cs, D)(E)
    for i in range(len(D)):
        p = (i, 0)
        if apply_lifted(cs, out, p) != apply_lifted(cs, E, apply_lifted(cs, D, p)):
            raise RuntimeError(
                f"composition formula disagrees with lifted maps at {cs.labels()[i]!r}")
    return out


def compose_texts(cs: CycleStructure, texts) -> tuple[int, ...]:
    """Left-to-right composition of the divisors the texts name; zero for
    none.

    Each divisor costs O(labels) to parse and to compose, so every text is
    charged one label step per label, against 9 * WORD_SEARCH_BUDGET,
    before any is parsed.
    """
    n = len(cs._succ)
    Meter(9 * WORD_SEARCH_BUDGET,
          lambda m: f"composing {len(texts)} divisors over {n} labels exceeds "
                    f"the budget of {m.budget} label steps").charge(len(texts) * n)
    acc = cs.parse_divisor(texts[0]) if texts else cs.zero()
    for text in texts[1:]:
        acc = compose(cs, acc, cs.parse_divisor(text))
    return acc


def compose_word(cs: CycleStructure, word) -> tuple[int, ...]:
    """Left-to-right composition of single-label divisors."""
    acc = cs.zero()
    for label in word:
        acc = compose(cs, acc, cs.indicator(label))
    return acc


def is_realizable(cs: CycleStructure, D) -> bool:
    """Whether some ideal has divisor D: no count is negative, and the count
    may drop by at most one along each tau step."""
    _check_length(cs, D)
    return all(D[s] >= c - 1 >= -1 for s, c in zip(cs._succ, D))


def default_max_len(cs: CycleStructure, D) -> int:
    """Heuristic word-length bound: total count plus the sizes of the cycles
    the divisor touches."""
    touched = {cs._start[i]: cs._len[i] for i, c in enumerate(D) if c}
    return sum(D) + sum(touched.values())
