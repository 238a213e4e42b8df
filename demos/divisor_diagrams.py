"""
Divisor calculus on a 3-cycle, with cylinder diagrams
=====================================================

Divisors over a cycle of maximal-ideal labels compose like ideals multiply.
The composition is function composition of the lifted maps on the covering
space, which makes the non-commutativity visible: Q1 o Q2 and Q2 o Q1 are
genuinely different divisors.  Each run writes SVG diagrams next to this
script.
"""

import pathlib

from nufact.divcalc import (
    CycleStructure,
    apply_lifted,
    compose,
    compose_word,
    enumerate_factorizations_ex,
    is_realizable,
    render_svg,
)

OUT = pathlib.Path(__file__).resolve().parent

cs = CycleStructure.from_text("Q1>Q2>Q3")
Q1, Q2, Q3 = (cs.indicator(p) for p in ("Q1", "Q2", "Q3"))

# Composition is not addition: the order matters.
print("Q1 o Q2 =", cs.format_divisor(compose(cs, Q1, Q2)))
print("Q2 o Q1 =", cs.format_divisor(compose(cs, Q2, Q1)))
print("Q1 o Q2 o Q1 =", cs.format_divisor(compose_word(cs, ["Q1", "Q2", "Q1"])),
      " (absorbing: equals Q1 o Q2)")

# The lifted map of 2Q1+Q3 moves each point forward by its count; Q3 wraps
# to the next level of the covering space.  A point is (label index, level).
D = cs.parse_divisor("2Q1+Q3")
labels = cs.labels()
for i, label in enumerate(labels):
    j, level = apply_lifted(cs, D, (i, 0))
    print(f"lift of {cs.format_divisor(D)} sends ({label},0) to ({labels[j]},{level})")

# Realizable divisors are exactly those whose counts drop by at most one
# along the cycle; 2Q1 alone has no ideal behind it.
for text in ("2Q1", "2Q1+Q2", "7Q1+6Q2+8Q3"):
    print(f"realizable({text}) =", is_realizable(cs, cs.parse_divisor(text)))

# A divisor factors into single-label generators in many ways.
target = cs.parse_divisor("3Q1+2Q2+Q3")
words, _ = enumerate_factorizations_ex(cs, target, 5)
print(f"\n{cs.format_divisor(target)} factors into {len(words)} words of length <= 5,")
print("the two shortest being:")
for w in words[:2]:
    print("   ", " o ".join(w))

# Diagrams: single divisors, then a word drawn as glued panels.
for text in ("Q1", "Q1+Q2+Q3", "7Q1+6Q2+8Q3"):
    path = OUT / f"divisor_{text.replace('+', '_')}.svg"
    path.write_text(render_svg(cs, cs.parse_divisor(text)))
    print("wrote", path.name)
word_path = OUT / "word_Q1_Q2_Q3.svg"
word_path.write_text(render_svg(cs, word=["Q1", "Q2", "Q3"]))
print("wrote", word_path.name)
