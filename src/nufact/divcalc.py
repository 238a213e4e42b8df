"""Divisor calculus for ideals whose maximal-ideal classes form finite cycles.

A cycle structure is a partition of finitely many labels into cycles, each
with a successor map.  A divisor assigns a nonnegative count to each label.
Every divisor lifts to a self-map of the covering space (label, level): the
point moves forward by the divisor's count at its label, in the total order
that runs through each cycle once per level.  Composing those lifted maps
induces a (non-commutative) composition of divisors, which is the operation
mirroring ideal multiplication; it is computed here by a closed displacement
formula and re-checked against the lifted maps on every call.

The module also decides realizability (which divisors arise from ideals),
enumerates factorizations of a divisor into single-label generators, and
renders the standard cylinder diagrams as SVG.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .abelian import CapExceeded

DEFAULT_WORD_CAP = 200_000


class CycleStructure:
    """Disjoint cycles of distinct labels; successor steps cyclically."""

    def __init__(self, cycles):
        self.cycles = tuple(tuple(str(p) for p in c) for c in cycles)
        if any(not c for c in self.cycles):
            raise ValueError("empty cycle")
        self._pos: dict[str, tuple[int, int]] = {}
        for ci, cyc in enumerate(self.cycles):
            for pi, label in enumerate(cyc):
                if label in self._pos:
                    raise ValueError(f"duplicate label {label!r}")
                self._pos[label] = (ci, pi)

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

    def __contains__(self, label: str) -> bool:
        return label in self._pos

    def position(self, label: str) -> tuple[int, int]:
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(f"unknown maximal-ideal label {label!r}")

    def cycle_of(self, label: str) -> tuple[str, ...]:
        return self.cycles[self.position(label)[0]]

    def successor(self, label: str) -> str:
        """The next label in the cycle (the tau-orbit step)."""
        ci, pi = self.position(label)
        cyc = self.cycles[ci]
        return cyc[(pi + 1) % len(cyc)]

    def zero(self) -> "Divisor":
        return Divisor({})

    def indicator(self, label: str) -> "Divisor":
        self.position(label)
        return Divisor({label: 1})

    def full_cycle_divisor(self, cycle_index: int) -> "Divisor":
        """Count 1 on every label of the chosen cycle (always realizable)."""
        if not 0 <= cycle_index < len(self.cycles):
            raise ValueError(f"no cycle with index {cycle_index}")
        return Divisor({p: 1 for p in self.cycles[cycle_index]})

    def check_divisor(self, D: "Divisor"):
        for label in D.counts:
            self.position(label)

    # -- divisor text syntax: "2Q1+Q3", "Q2", "0" --------------------------

    def parse_divisor(self, text: str) -> "Divisor":
        s = text.replace(" ", "")
        if s == "0":
            return self.zero()
        counts: dict[str, int] = {}
        for term in s.split("+"):
            m = re.match(r"^(\d*)([A-Za-z]\w*)$", term)
            if not m:
                raise ValueError(f"bad divisor term {term!r} in {text!r}")
            count = int(m.group(1)) if m.group(1) else 1
            label = m.group(2)
            self.position(label)
            counts[label] = counts.get(label, 0) + count
        return Divisor(counts)

    def format_divisor(self, D: "Divisor") -> str:
        terms = []
        for label in self.labels():
            c = D.get(label)
            if c == 1:
                terms.append(label)
            elif c > 1:
                terms.append(f"{c}{label}")
        return "+".join(terms) if terms else "0"

    def parse_word(self, text: str) -> list[str]:
        """Parse "Q1*Q2*Q3" into a list of labels; empty string is the
        empty word."""
        s = text.strip()
        if not s:
            return []
        word = [p.strip() for p in s.split("*")]
        for label in word:
            self.position(label)
        return word

    def __repr__(self):
        body = ";".join(">".join(c) for c in self.cycles)
        return f"CycleStructure({body!r})"


class Divisor:
    """Finitely supported nonnegative counts on labels.  Immutable."""

    __slots__ = ("counts", "_key")

    def __init__(self, counts: dict):
        if any(c < 0 for c in counts.values()):
            raise ValueError("negative count in divisor")
        self.counts = {p: c for p, c in sorted(counts.items()) if c > 0}
        self._key = tuple(self.counts.items())

    def get(self, label: str) -> int:
        return self.counts.get(label, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> list[str]:
        return list(self.counts)

    def is_zero(self) -> bool:
        return not self.counts

    def pointwise_le(self, other: "Divisor") -> bool:
        return all(other.get(p) >= c for p, c in self.counts.items())

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        body = "+".join(f"{c}{p}" if c > 1 else p for p, c in self._key) or "0"
        return f"Divisor({body!r})"


@dataclass(frozen=True)
class LiftedPoint:
    """A point (label, level) of the covering space."""

    label: str
    level: int


def apply_lifted(cs: CycleStructure, D: Divisor, p: LiftedPoint) -> LiftedPoint:
    """Move (label, level) forward D(label) steps.

    Within a cycle of length l, position i at level n sits at index
    n*l + i; adding the step count and splitting off the new level is the
    whole computation.  The map commutes with level shifts by construction.
    """
    ci, pi = cs.position(p.label)
    cs.check_divisor(D)
    cyc = cs.cycles[ci]
    l = len(cyc)
    steps = D.get(p.label)
    idx = pi + steps
    return LiftedPoint(cyc[idx % l], p.level + idx // l)


def compose(cs: CycleStructure, D: Divisor, E: Divisor) -> Divisor:
    """The divisor whose lifted map is (lift of E) after (lift of D).

    Displacements add along the path, so the composite moves a point at P by
    D(P) + E(Q), with Q the label where the first move lands.  The result is
    verified against the two-step lifted map on every label rather than
    assumed.
    """
    cs.check_divisor(D)
    cs.check_divisor(E)
    counts: dict[str, int] = {}
    for label in cs.labels():
        c = D.get(label) + E.get(apply_lifted(cs, D, LiftedPoint(label, 0)).label)
        if c:
            counts[label] = c
    out = Divisor(counts)
    for label in cs.labels():
        p = LiftedPoint(label, 0)
        two_step = apply_lifted(cs, E, apply_lifted(cs, D, p))
        if apply_lifted(cs, out, p) != two_step:
            raise RuntimeError(
                f"composition formula disagrees with lifted maps at {label!r}")
    return out


def compose_word(cs: CycleStructure, word) -> Divisor:
    """Left-to-right composition of single-label divisors."""
    acc = cs.zero()
    for label in word:
        acc = compose(cs, acc, cs.indicator(label))
    return acc


def is_realizable(cs: CycleStructure, D: Divisor) -> bool:
    """Whether some ideal has divisor D: the count may drop by at most one
    along each tau step."""
    cs.check_divisor(D)
    return all(D.get(cs.successor(p)) >= c - 1 for p, c in D.counts.items())


def default_max_len(cs: CycleStructure, D: Divisor) -> int:
    """Heuristic word-length bound: total count plus the sizes of the cycles
    the divisor touches."""
    touched = {cs.position(p)[0] for p in D.counts}
    return D.total() + sum(len(cs.cycles[ci]) for ci in touched)


def enumerate_factorizations_ex(cs: CycleStructure, D: Divisor, max_len: int,
                                cap: int | None = None):
    """All words of labels, of length <= max_len, composing to D, and
    whether any branch of the search ran into the length bound (so a larger
    bound could reveal more words).  Returns (words, truncated).

    Words are sorted by length, then by label positions.  Raises on
    non-realizable divisors, which admit no word at any length.  The number
    of words grows exponentially with max_len once idempotent letters can
    repeat, so the enumeration aborts with :class:`CapExceeded` beyond `cap`
    words (default 200000)."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if not is_realizable(cs, D):
        raise ValueError("divisor is not realizable; it has no factorization")
    limit = DEFAULT_WORD_CAP if cap is None else cap
    labels = cs.labels()
    indicators = {p: cs.indicator(p) for p in labels}
    moves: dict = {}

    def successors(partial: Divisor):
        """(letter, next partial) for each letter that keeps partial <= D."""
        if partial not in moves:
            steps = ((q, compose(cs, partial, indicators[q])) for q in labels)
            moves[partial] = [(q, nxt) for q, nxt in steps if nxt.pointwise_le(D)]
        return moves[partial]

    # levels[k]: the partial products reachable with k letters, that is the
    # search states (partial, max_len - k).  Both passes below run level by
    # level from the last one up, without recursion.
    levels = [{cs.zero()}]
    for _ in range(max_len):
        levels.append({nxt for p in levels[-1] for _, nxt in successors(p)})
    truncated = any(p != D for p in levels[-1])

    # Every word of a state extends to a word of the root, so the root has
    # the most words: check the cap on counts before building any word.
    count = {p: int(p == D) for p in levels[max_len]}
    for depth in range(max_len - 1, -1, -1):
        count = {p: (p == D) + sum(count[nxt] for _, nxt in successors(p))
                 for p in levels[depth]}
    if count[cs.zero()] > limit:
        raise CapExceeded(
            f"more than {limit} words compose to the divisor "
            f"within length {max_len}; lower max_len or raise the cap")

    # words as linked (letter, rest) pairs: one letter more costs O(1)
    words = {p: [()] * (p == D) for p in levels[max_len]}
    for depth in range(max_len - 1, -1, -1):
        words = {p: [()] * (p == D) + [(q, w) for q, nxt in successors(p) for w in words[nxt]]
                 for p in levels[depth]}

    def unlink(w) -> list[str]:
        out = []
        while w:
            q, w = w
            out.append(q)
        return out

    order = {p: i for i, p in enumerate(labels)}
    found = sorted(map(unlink, words[cs.zero()]),
                   key=lambda w: (len(w), [order[q] for q in w]))
    return found, truncated


# ----------------------------------------------------------------------
# SVG rendering of the cylinder diagrams

_PALETTE = ["#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
            "#ff7f00", "#a65628", "#f781bf", "#17becf"]

_PANEL_W = 180
_ROW_H = 46
_MARGIN_X = 46
_MARGIN_Y = 18


def _strand_segments(pos: int, steps: int, l: int):
    """The monotone pieces of one strand, as (u_from, u_to) pairs in step
    units; a new piece starts after each wrap over the bottom edge."""
    u0, u1 = pos, pos + steps
    cuts = []
    m = 1
    while m * l - 0.5 < u1:
        if m * l - 0.5 > u0:
            cuts.append(m * l - 0.5)
        m += 1
    pieces = []
    prev = u0
    for c in cuts:
        pieces.append((prev, c))
        prev = c
    pieces.append((prev, u1))
    return pieces


def render_svg(cs: CycleStructure, target, cycle: int | None = None) -> str:
    """Render a divisor, or a word of labels, as glued cylinder panels.

    The cylinder is flattened to a rectangle: marked points sit on the left
    and right edges, and each strand moves forward by the divisor's count at
    its source, wrapping over the bottom edge once per winding.  Words render
    one panel per letter, glued left to right.  Only one cycle can be drawn;
    for a multi-cycle structure the cycle index must be given.
    """
    if cycle is None:
        if len(cs.cycles) > 1:
            raise ValueError(
                "cannot draw several cycles in one panel; pass a cycle index")
        cycle = 0
    if not 0 <= cycle < len(cs.cycles):
        raise ValueError(f"no cycle with index {cycle}")
    cyc = cs.cycles[cycle]
    l = len(cyc)

    if isinstance(target, Divisor):
        cs.check_divisor(target)
        stray = [p for p in target.counts if p not in cyc]
        if stray:
            raise ValueError(
                f"divisor has support outside the drawn cycle: {stray}")
        panels = [target]
        titles = [cs.format_divisor(target)]
    else:
        word = list(target)
        for q in word:
            if q not in cyc:
                raise ValueError(f"word letter {q!r} is not in the drawn cycle")
        panels = [cs.indicator(q) for q in word] or [cs.zero()]
        titles = word or ["0"]

    n = len(panels)
    height = 2 * _MARGIN_Y + l * _ROW_H
    width = 2 * _MARGIN_X + n * _PANEL_W
    top, bottom = _MARGIN_Y, _MARGIN_Y + l * _ROW_H

    def ypos(u: float) -> float:
        frac = (u + 0.5) % l
        return top + frac * _ROW_H

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

    for t, D in enumerate(panels):
        x0 = _MARGIN_X + t * _PANEL_W
        x1 = x0 + _PANEL_W
        out.append(f'<g class="panel" data-panel="{t}" data-divisor="{cs.format_divisor(D)}">')
        out.append(f'<rect class="frame" x="{x0}" y="{top}" width="{_PANEL_W}" '
                   f'height="{l * _ROW_H}"/>')
        for i, src in enumerate(cyc):
            steps = D.get(src)
            dest = cyc[(i + steps) % l]
            winding = (i + steps) // l
            pieces = _strand_segments(i, steps, l)
            if steps == 0:
                path = f"M {x0:.1f} {ypos(i):.1f} L {x1:.1f} {ypos(i):.1f}"
            else:
                xat = lambda u: x0 + (u - i) / steps * _PANEL_W
                cmds = []
                for (ua, ub) in pieces:
                    # wraps exit over the bottom edge and re-enter at the top
                    ya = ypos(ua) if ua == i else top
                    yb = ypos(ub) if ub == i + steps else bottom
                    cmds.append(f"M {xat(ua):.1f} {ya:.1f} L {xat(ub):.1f} {yb:.1f}")
                path = " ".join(cmds)
            color = _PALETTE[i % len(_PALETTE)]
            out.append(
                f'<path class="strand" data-panel="{t}" data-source="{src}" '
                f'data-target="{dest}" data-winding="{winding}" '
                f'stroke="{color}" d="{path}"/>'
            )
        out.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 3:.1f}" '
                   f'text-anchor="middle">{titles[t]}</text>')
        out.append("</g>")

    # boundary marks; labels on the outer edges only
    for b in range(n + 1):
        xb = _MARGIN_X + b * _PANEL_W
        for i, label in enumerate(cyc):
            yb = top + (i + 0.5) * _ROW_H
            out.append(f'<circle cx="{xb}" cy="{yb:.1f}" r="3" fill="#222"/>')
            if b == 0:
                out.append(f'<text x="{xb - 8}" y="{yb + 4:.1f}" '
                           f'text-anchor="end">{label}</text>')
            elif b == n:
                out.append(f'<text x="{xb + 8}" y="{yb + 4:.1f}" '
                           f'text-anchor="start">{label}</text>')
    out.append("</svg>")
    return "\n".join(out)
