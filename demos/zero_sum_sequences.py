"""
Zero-sum sequences over a finite abelian group
==============================================

A walk through the combinatorial model: sequences are multisets of group
elements, the zero-sum ones form a monoid under concatenation, and its atoms
(the minimal zero-sum sequences) control all factorization behavior.
"""

from nufact.abelian import FinAbGroup
from nufact.zerosum import (
    atoms,
    davenport,
    factorizations,
    format_seq,
    half_factorial_witness,
    length_set,
    parse_seq,
)

# The running example: the cyclic group of order three.
G = FinAbGroup([3])

print("atoms of the zero-sum monoid over Z/3:")
for S in atoms(G):
    print("   ", format_seq(S))

# The sequence 1^3 2^3 factors in two essentially different ways:
# three copies of (1 2), or (1^3) times (2^3).  Hence lengths {2, 3}.
S = parse_seq(G, "1^3 2^3")
print("\nfactorizations of", format_seq(S))
for F in factorizations(G, S):
    print("   ", " * ".join(f"({format_seq(p)})" for p in F))
print("length set:", sorted(length_set(G, S)))

# The longest minimal zero-sum sequence (the Davenport constant) caps the
# search depth for all of this.
for moduli in ([2], [3], [4], [5], [2, 2], [2, 4]):
    H = FinAbGroup(moduli)
    print(f"davenport({'x'.join(map(str, moduli))}) =", davenport(H))

# Half-factoriality: every length set is a singleton iff the group has at
# most two elements.  A witness sequence shows where it first fails.
print("\nhalf-factoriality boundary:")
for moduli in ([1], [2], [3], [4], [2, 2]):
    H = FinAbGroup(moduli)
    W = half_factorial_witness(H, 2 * davenport(H))
    name = "x".join(map(str, moduli))
    if W is None:
        print(f"    Z/{name}: no witness up to 2*davenport; half-factorial")
    else:
        print(f"    Z/{name}: witness {format_seq(W)} with lengths {sorted(length_set(H, W))}")
