"""nufact: a workbench for non-unique factorization at desk scale.

The submodules in __all__ cover exact arithmetic in finite abelian groups,
the monoid of zero-sum sequences with atom/length-set enumeration,
brute-force factorization in the quadratic order Z[(1+sqrt(-23))/2],
quaternion identity checking over Q(sqrt(3)), an abstract divisor calculus
on cycles of maximal ideals with its word search and SVG diagrams, and an
exact triangular-order oracle that cross-validates the calculus.

Importing the package is cheap: each submodule is registered in sys.modules
by a LazyLoader and its body runs on first attribute access, so a command
runs, and compiles, only the modules it uses.  The package's one error type,
`CapExceeded`, is defined here, so raising it runs no other module, and so
are `Meter`, the one counter every budget of work is charged on, and
`factorization_walk`, the one factorization search that the zero-sum
sequences and Z[w] share, with its budget FACTORIZATION_BUDGET.
"""

import importlib.util
import sys

__all__ = ["abelian", "divcalc", "divdraw", "divwords", "quadring", "quatcheck", "toracle",
           "tring", "zerosum"]
__version__ = "0.1.0"


class CapExceeded(ValueError):
    """An enumeration would exceed a size cap or a budget of work."""


class Meter:
    """A budget of work, charged where the work is done.

    `charge(units)` adds to `used`; once `used` passes `budget` it raises
    CapExceeded with `refusal(meter)`.  The refusal is a closure, so it
    reads the search's progress at the moment of refusal.  A search opens
    its meter when it is called, so it reads its budget constant then.
    """

    __slots__ = ("budget", "used", "refusal")

    def __init__(self, budget: int, refusal):
        self.budget, self.used, self.refusal = budget, 0, refusal

    def charge(self, units: int = 1) -> None:
        self.used += units
        if self.used > self.budget:
            raise CapExceeded(self.refusal(self))


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
    results = []  # each factorization as its non-decreasing atom indices
    meter = Meter(FACTORIZATION_BUDGET,
                  lambda m: f"factorization search of {what} exceeds its budget: "
                            f"{m.budget} candidate atoms, found {len(results)} factorizations")
    stack = [(root, 0, ())]
    while stack:
        rest, first, parts = stack.pop()
        step = moves(rest, first)
        if step is None:
            results.append(parts)
            continue
        meter.charge(step[0])
        for idx, nxt in step[1]:
            stack.append((nxt, idx, parts + (idx,)))

    results.sort(key=lambda F: (len(F), F))
    for k, F in enumerate(results):  # in place, so the index tuples go as the atoms come
        results[k] = tuple(atoms[i] for i in F)
    return results


def _forward(namespace: dict, homes: dict):
    """A module `__getattr__` for the names, the keys of homes, that live in
    another submodule, homes[name]: the first read imports that module and
    binds the name in namespace, the module's globals, so later reads are
    plain lookups and anything that patches the binding finds it.  Any
    other name raises AttributeError."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        home = importlib.import_module(f"{__name__}.{homes[name]}")
        value = namespace[name] = getattr(home, name)
        return value

    return __getattr__


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
