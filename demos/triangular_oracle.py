"""
The triangular order T(3): an exact oracle for the divisor calculus
===================================================================

Ideals of the triangular order over a discrete valuation ring are integer
matrices of valuations; multiplying ideals is the min-plus matrix product.
Walking maximal chains of ideals extracts divisors, and exhaustive desk-scale
checks confirm that divisor composition tracks ideal multiplication exactly.
"""

import json

from nufact.divcalc import compose
from nufact.toracle import enumerate_ideals, oracle_report
from nufact.tring import (
    cycle_structure,
    divisor_of,
    format_matrix,
    intersect,
    maximal_ideals,
    mul,
    ring_matrix,
    tau_ideal,
)

T = ring_matrix(3)
Q1, Q2, Q3 = maximal_ideals(3)
cs = cycle_structure(3)

print("the ring T(3):")
print(format_matrix(T))
print("\nits three maximal ideals, in tau order:")
for name, Q in zip(cs.labels(), (Q1, Q2, Q3)):
    print(f"{name}:")
    print(format_matrix(Q))

# Ideal multiplication is min-plus and visibly non-commutative.
print("\nQ1 Q2:")
print(format_matrix(mul(Q1, Q2)))
print("Q2 Q1 (equals the intersection Q1 n Q2):")
print(format_matrix(mul(Q2, Q1)))

# The double left dual steps through the maximal ideals cyclically and fixes
# the invertible radical J = Q1 n Q2 n Q3.
J = intersect(intersect(Q1, Q2), Q3)
print("\ntau(Q1) == Q2:", tau_ideal(Q1) == Q2)
print("tau(J) == J:", tau_ideal(J) == J)

# Divisors read off maximal chains reproduce the calculus:
for name, A in [("Q1 Q2", mul(Q1, Q2)), ("Q2 Q1", mul(Q2, Q1)), ("J", J),
                ("J^2", mul(J, J))]:
    print(f"divisor of {name}: {cs.format_divisor(divisor_of(A))}")

left = divisor_of(mul(Q1, Q2))
composed = compose(cs, divisor_of(Q1), divisor_of(Q2))
print("divisor_of(Q1 Q2) == divisor_of(Q1) o divisor_of(Q2):", left == composed)

# The full cross-validation: homomorphism, injectivity, realizability image,
# and chain independence over every ideal with small exponents.
corpus = enumerate_ideals(3, 2)
print(f"\ncorpus: {len(corpus)} ideals of T(3) with exponents <= 2")
report = oracle_report(l=3, max_exp=2, seed=7, chain_trials=25)
print(json.dumps({k: v["pass"] for k, v in report["properties"].items()}, indent=2))
print("all properties pass:", report["all_pass"])
