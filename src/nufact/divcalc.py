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
E adds E's count there to D's count at each label.  `compose` applies the
formula and re-checks it against the lifted maps on every call.  The word
search and `tring oracle` take one landing pass per left factor and apply
the formula themselves: the word search composes only with single letters,
and the oracle checks `compose` once per case rather than once per pair.

A label is a letter followed by letters, digits or underscores, as a
divisor term names it; `CycleStructure` refuses any other label.  Label
text is validated where it enters: `parse_divisor`, `parse_word` and
`indicator`.  The functions that take a divisor (`landing`, `compose`,
`is_realizable`, `enumerate_factorizations_ex`, `render_svg`) refuse one of
the wrong length.

The module also decides realizability (which divisors arise from ideals),
enumerates factorizations of a divisor into single-label generators, and
renders the standard cylinder diagrams as SVG.
"""

from __future__ import annotations

import re

from . import CapExceeded, Meter

LETTER_CAP = 2_000_000
# search states (partial products, one per level they occur on) the word
# search may visit; the letter cap then bounds the words built from them.
# Nine times it bounds label steps: the word search's and `compose_texts`'s
WORD_SEARCH_BUDGET = 200_000
# panels times labels plus total count of a render_svg drawing: each panel
# draws one strand per label, and a strand one more piece per winding
DRAWING_CAP = 10_000
# a label; also the label part of a divisor term
_LABEL = r"[A-Za-z]\w*"


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


def _check_length(cs: CycleStructure, *divisors):
    for D in divisors:
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


def compose(cs: CycleStructure, D, E) -> tuple[int, ...]:
    """The divisor whose lifted map is (lift of E) after (lift of D).

    Displacements add along the path, so the composite moves a point at P by
    D(P) + E(Q), with Q the label where the first move lands.  The result is
    verified against the two-step lifted map on every label rather than
    assumed.
    """
    _check_length(cs, D, E)
    out = tuple(c + E[j] for c, j in zip(D, landing(cs, D)))
    for i in range(len(D)):
        p = (i, 0)
        if apply_lifted(cs, out, p) != apply_lifted(cs, E, apply_lifted(cs, D, p)):
            raise RuntimeError(
                f"composition formula disagrees with lifted maps at {cs.labels()[i]!r}")
    return out


def compose_texts(cs: CycleStructure, texts) -> tuple[int, ...]:
    """Left-to-right composition of the divisors the texts name.

    Each divisor costs O(labels) to parse and to compose, so every text is
    charged one label step per label, against 9 * WORD_SEARCH_BUDGET,
    before any is parsed.
    """
    n = len(cs._succ)
    Meter(9 * WORD_SEARCH_BUDGET,
          lambda m: f"composing {len(texts)} divisors over {n} labels exceeds "
                    f"the budget of {m.budget} label steps").charge(len(texts) * n)
    acc = cs.parse_divisor(texts[0])
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
    """Whether some ideal has divisor D: the count may drop by at most one
    along each tau step."""
    _check_length(cs, D)
    return all(D[s] >= c - 1 for s, c in zip(cs._succ, D))


def default_max_len(cs: CycleStructure, D) -> int:
    """Heuristic word-length bound: total count plus the sizes of the cycles
    the divisor touches."""
    touched = {cs._start[i]: cs._len[i] for i, c in enumerate(D) if c}
    return sum(D) + sum(touched.values())


def enumerate_factorizations_ex(cs: CycleStructure, D, max_len: int):
    """All words of labels, of length <= max_len, composing to D, and
    whether any branch of the search ran into the length bound (so a larger
    bound could reveal more words).  Returns (words, truncated).

    Words are listed by length, then by label positions.  Raises on
    non-realizable divisors, which admit no word at any length.  The number
    of words grows exponentially with max_len once idempotent letters can
    repeat, so the enumeration aborts with :class:`CapExceeded` when the
    words would hold more than LETTER_CAP letters in all, when the search
    would visit more than WORD_SEARCH_BUDGET states, and when expanding its
    partials would take more than 9 * WORD_SEARCH_BUDGET label steps: each
    new partial costs one step per label for its landing pass and as many
    again for each letter it admits.

    A partial is expanded by one landing pass: the label each label's move
    lands on.  The step by letter q adds one at every label landing on q,
    which is `compose` with the indicator of q, and it stays below D unless
    one of those labels is already full.

    The states are the partial products by number of letters; a pass from
    the last level up counts the words and letters of each, and keeps the
    live states, those with a word.  The words are then listed level by
    level, extending every live prefix by each letter in turn.  Distinct
    live prefixes begin distinct words, so no level holds more letters than
    the words do, and memory is O(states + output)."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if not is_realizable(cs, D):
        raise ValueError("divisor is not realizable; it has no factorization")
    labels = cs.labels()
    zero = cs.zero()
    moves: dict = {}
    # levels[k]: the partial products reachable with k letters, that is the
    # search states (partial, max_len - k).  The passes below run level by
    # level from the last one up, without recursion.  Past an empty level
    # every level is empty, so the levels stop there.
    levels = [{zero}]
    states = Meter(WORD_SEARCH_BUDGET,
                   lambda m: f"the word search exceeds its budget: visited {m.budget} "
                             f"states, reached length {len(levels) - 1}")
    steps = Meter(9 * WORD_SEARCH_BUDGET,
                  lambda m: f"the word search exceeds its budget: {m.budget} label "
                            f"steps over {len(labels)} labels, reached length {len(levels) - 1}")

    def successors(partial):
        """(letter index, next partial) for each letter that keeps
        partial <= D."""
        if partial not in moves:
            lands = landing(cs, partial)
            full = {j for c, d, j in zip(partial, D, lands) if c == d}
            steps.charge(len(labels) * (1 + len(labels) - len(full)))
            moves[partial] = [(q, tuple(c + (j == q) for c, j in zip(partial, lands)))
                              for q in range(len(labels)) if q not in full]
        return moves[partial]

    # Expanding a new partial takes one landing pass over its labels, then
    # one step over every label per letter it admits: successors charges
    # that before it builds the moves, against nine label steps per state
    # of the state budget.  Each state is charged as its level is built.
    states.charge()
    while len(levels) <= max_len and levels[-1]:
        levels.append({nxt for p in levels[-1] for _, nxt in successors(p)})
        states.charge(len(levels[-1]))
    truncated = any(p != D for p in levels[-1])

    # Every word of a state extends to a word of the root, so the root has
    # the most words and letters: check the cap on the letter total before
    # building any word.  A word through nxt has one letter more at p.
    # live[depth]: the states at that depth that still reach D within the
    # bound, those with a word.
    last = len(levels) - 1
    count = {p: int(p == D) for p in levels[last]}
    letters = dict.fromkeys(levels[last], 0)
    live = [{D} & levels[last]]
    for depth in range(last - 1, -1, -1):
        count, letters = (
            {p: (p == D) + sum(count[nxt] for _, nxt in successors(p))
             for p in levels[depth]},
            {p: sum(letters[nxt] + count[nxt] for _, nxt in successors(p))
             for p in levels[depth]})
        live.append({p for p, c in count.items() if c})
    live.reverse()
    if letters[zero] > LETTER_CAP:
        raise CapExceeded(
            f"more than {LETTER_CAP} letters in the words that compose to the "
            f"divisor within length {max_len}; lower max_len")

    # Extend every live prefix by its moves in letter order, one level at a
    # time: each length's words arrive in letter order, after all shorter
    # words.  A word's list is its frontier entry's, never changed after.
    # Each prefix is popped, and so released, as it is extended: the
    # frontier is reversed so the pops keep letter order.
    frontier = [([], zero)]
    words = [[]] if zero == D else []
    for live_states in live[1:]:
        frontier.reverse()
        frontier = [(path + [labels[q]], nxt)
                    for path, p in (frontier.pop() for _ in range(len(frontier)))
                    for q, nxt in successors(p) if nxt in live_states]
        words += [path for path, p in frontier if p == D]
    return words, truncated


# ----------------------------------------------------------------------
# SVG rendering of the cylinder diagrams

_PALETTE = ["#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
            "#ff7f00", "#a65628", "#f781bf", "#17becf"]

_PANEL_W = 180
_ROW_H = 46
_MARGIN_X = 46
_MARGIN_Y = 18


def render_svg(cs: CycleStructure, D=None, cycle: int | None = None, *,
               word=None) -> str:
    """Render a divisor D, or a word of labels, as glued cylinder panels.

    The cylinder is flattened to a rectangle: marked points sit on the left
    and right edges, and each strand moves forward by the divisor's count at
    its source, wrapping over the bottom edge once per winding.  Words render
    one panel per letter, glued left to right; the empty word is drawn as
    the zero divisor.  Only one cycle can be drawn; for a multi-cycle
    structure the cycle index must be given.  A panel holds only the drawn
    cycle's counts and its text, so a drawing's cost follows that cycle, not
    the whole structure.  A drawing whose panels times the cycle's labels
    plus its total count exceed DRAWING_CAP is refused: a divisor is one
    panel of its total count, and a word one panel per letter of one count
    each.
    """
    if (D is None) == (word is None):
        raise ValueError("give exactly one of a divisor or a word")
    if cycle is None:
        if len(cs.cycles) > 1:
            raise ValueError(
                "cannot draw several cycles in one panel; pass a cycle index")
        cycle = 0
    if not 0 <= cycle < len(cs.cycles):
        raise ValueError(f"no cycle with index {cycle}")
    cyc = cs.cycles[cycle]
    l = len(cyc)
    first = cs.index(cyc[0])
    drawn = set(cyc)

    # each panel is a pair: the drawn cycle's counts and the panel's text.
    # The empty word is drawn as the zero divisor, and a word's panels are
    # a generator, built once the cap has passed.
    if word is not None and not (word := list(word)):
        D, word = cs.zero(), None
    if word is None:
        _check_length(cs, D)
        stray = [p for p, c in zip(cs.labels(), D) if c and p not in drawn]
        if stray:
            raise ValueError(
                f"divisor has support outside the drawn cycle: {stray}")
        n, count = 1, sum(D)
        panels = [(D[first:first + l], cs.format_divisor(D))]
    else:
        for q in word:
            if q not in drawn:
                raise ValueError(f"word letter {q!r} is not in the drawn cycle")
        n = count = len(word)
        panels = (([int(p == q) for p in cyc], q) for q in word)
    if n * l + count > DRAWING_CAP:
        raise CapExceeded(f"drawing of {n} panels x {l} labels + total count {count} exceeds "
                          f"the drawing cap {DRAWING_CAP}")

    height = 2 * _MARGIN_Y + l * _ROW_H
    width = 2 * _MARGIN_X + n * _PANEL_W
    top = _MARGIN_Y

    def ypos(u: float, m: int) -> float:
        """The height of step u on level m; level m spans the panel from
        u = m*l - 1/2 at its top edge to (m+1)*l - 1/2 at its bottom edge."""
        return top + (u + 0.5 - m * l) * _ROW_H

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(
        '<style>text{font-family:sans-serif;font-size:13px;} '
        '.strand{fill:none;stroke-width:2;} '
        '.frame{fill:none;stroke:#444;stroke-width:1;}</style>'
    )

    for t, (counts, text) in enumerate(panels):
        x0 = _MARGIN_X + t * _PANEL_W
        x1 = x0 + _PANEL_W
        out.append(f'<g class="panel" data-panel="{t}" data-divisor="{text}">')
        out.append(f'<rect class="frame" x="{x0}" y="{top}" width="{_PANEL_W}" '
                   f'height="{l * _ROW_H}"/>')
        for i, (src, steps) in enumerate(zip(cyc, counts)):
            dest = cyc[(i + steps) % l]
            winding = (i + steps) // l
            if steps == 0:
                path = f"M {x0:.1f} {ypos(i, 0):.1f} L {x1:.1f} {ypos(i, 0):.1f}"
            else:
                # one piece per level the strand crosses: it exits over the
                # bottom edge and re-enters at the top
                xat = lambda u: x0 + (u - i) / steps * _PANEL_W
                cmds = []
                for m in range(winding + 1):
                    ua, ub = max(i, m * l - 0.5), min(i + steps, (m + 1) * l - 0.5)
                    cmds.append(f"M {xat(ua):.1f} {ypos(ua, m):.1f} "
                                f"L {xat(ub):.1f} {ypos(ub, m):.1f}")
                path = " ".join(cmds)
            color = _PALETTE[i % len(_PALETTE)]
            out.append(
                f'<path class="strand" data-panel="{t}" data-source="{src}" '
                f'data-target="{dest}" data-winding="{winding}" '
                f'stroke="{color}" d="{path}"/>'
            )
        out.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 3:.1f}" '
                   f'text-anchor="middle">{text}</text>')
        out.append("</g>")

    # boundary marks; labels on the outer edges only
    for b in range(n + 1):
        xb = _MARGIN_X + b * _PANEL_W
        for i, label in enumerate(cyc):
            yb = ypos(i, 0)
            out.append(f'<circle cx="{xb}" cy="{yb:.1f}" r="3" fill="#222"/>')
            if b == 0:
                out.append(f'<text x="{xb - 8}" y="{yb + 4:.1f}" '
                           f'text-anchor="end">{label}</text>')
            elif b == n:
                out.append(f'<text x="{xb + 8}" y="{yb + 4:.1f}" '
                           f'text-anchor="start">{label}</text>')
    out.append("</svg>")
    return "\n".join(out)
