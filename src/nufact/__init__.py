"""nufact: a workbench for non-unique factorization at desk scale.

Subpackages cover exact arithmetic in finite abelian groups, the monoid of
zero-sum sequences with atom/length-set enumeration, brute-force
factorization in the quadratic order Z[(1+sqrt(-23))/2], quaternion identity
checking over Q(sqrt(3)), an abstract divisor calculus on cycles of maximal
ideals with SVG diagrams, and an exact triangular-order oracle that
cross-validates the calculus.

Importing the package is cheap: each submodule is registered in sys.modules
by a LazyLoader and its body runs on first attribute access, so a command
runs only the modules it uses.  The package's one error type,
`CapExceeded`, is defined here, so raising it runs no other module, and so
is `factorization_walk`, the one factorization search that the zero-sum
sequences and Z[w] share, with its budget FACTORIZATION_BUDGET.
"""

import importlib.util
import sys

__all__ = ["abelian", "divcalc", "quadring", "quatcheck", "tring", "zerosum"]
__version__ = "0.1.0"


class CapExceeded(ValueError):
    """An enumeration would exceed a size cap or a budget of work."""


# candidate atoms one factorization walk may test: twelve non-zero elements
# of (Z/2)^4, each twice, test up to 2.2 million in about 3 s in process
FACTORIZATION_BUDGET = 2_500_000


def factorization_walk(root, moves, atoms, what: str) -> list[tuple]:
    """All factorizations of root into the atoms, each a tuple of atoms,
    shortest first, then by the indices of its atoms.

    moves(rest, first) is None when rest is a unit, and otherwise (the number
    of candidate atoms it tests, [(index, rest / atoms[index]), ...]) for the
    atoms from index `first` on that divide rest.  Parts are taken in
    non-decreasing index order, so each factorization is found once; the
    stack is explicit, so a factorization's length is free of the recursion
    limit.  Each state charges its candidates to FACTORIZATION_BUDGET; past it
    the walk stops with CapExceeded, naming `what` (e.g. "length 24").
    """
    budget = FACTORIZATION_BUDGET
    results, tested = [], 0  # each factorization as its non-decreasing atom indices
    stack = [(root, 0, ())]
    while stack:
        rest, first, parts = stack.pop()
        step = moves(rest, first)
        if step is None:
            results.append(parts)
            continue
        tested += step[0]
        if tested > budget:
            raise CapExceeded(f"factorization search of {what} exceeds its budget: "
                              f"{budget} candidate atoms, found {len(results)} factorizations")
        for idx, nxt in step[1]:
            stack.append((nxt, idx, parts + (idx,)))

    results.sort(key=lambda F: (len(F), F))
    for k, F in enumerate(results):  # in place, so the index tuples go as the atoms come
        results[k] = tuple(atoms[i] for i in F)
    return results


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in __all__:
    globals()[_name] = _lazy(_name)
del _name
