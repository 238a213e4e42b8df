"""SVG drawings of the divisor calculus's cylinder diagrams.

`div render` runs it, and no other command compiles it.
`divcalc.render_svg` names the same function.
"""

from __future__ import annotations

from . import CapExceeded
from .divcalc import CycleStructure, _check_length

# panels times labels plus total count of a render_svg drawing: each panel
# draws one strand per label, and a strand one more piece per winding
DRAWING_CAP = 10_000

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
    each.  A divisor with a negative count is refused.
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
        if any(c < 0 for c in D):
            raise ValueError(f"divisor has a negative count: {cs.format_divisor(D)}")
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
