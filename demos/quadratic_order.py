"""
Non-unique factorization in Z[w], w = (1 + sqrt(-23))/2
=======================================================

The smallest classical example where an element factors into atoms in two
ways of different lengths, found here by pure brute force on the norm form.
"""

from nufact.abelian import FinAbGroup
from nufact.quadring import (
    QuadInt,
    element_factorizations,
    elements_of_norm,
    format_quadint,
    is_atom,
    norm,
    qmul,
)
from nufact.zerosum import length_set, parse_seq

# The norm form a^2 + ab + 6b^2 is multiplicative and skips the value 2,
# so the factorizations below are forced to be atomic.
print("elements of norm 2:", elements_of_norm(2))
print("elements of norm 4:", [format_quadint(x) for x in elements_of_norm(4)])
print("elements of norm 8:", [format_quadint(x) for x in elements_of_norm(8)])

eight = QuadInt(8, 0)
print("\nfactorizations of 8:")
for F in element_factorizations(eight):
    body = " * ".join(f"({format_quadint(y)})" for y in F)
    print(f"    8 = {body}")

# Both displayed factors really are atoms, of norms 4 and 8.
for x in (QuadInt(2, 0), QuadInt(1, 1), QuadInt(2, -1)):
    print(f"is_atom({format_quadint(x)}) = {is_atom(x)}, norm {norm(x)}")
print("(1+w)(2-w) =", format_quadint(qmul(QuadInt(1, 1), QuadInt(2, -1))))

# The same length data falls out of the zero-sum model over Z/3, the class
# group of this order: 8 corresponds to the sequence 1^3 2^3.
G = FinAbGroup([3])
S = parse_seq(G, "1^3 2^3")
quad_lengths = sorted({len(F) for F in element_factorizations(eight)})
model_lengths = sorted(length_set(G, S))
print("\nlengths in the order:      ", quad_lengths)
print("lengths in the zero-sum model:", model_lengths)
assert quad_lengths == model_lengths
