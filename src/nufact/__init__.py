"""nufact: a workbench for non-unique factorization at desk scale.

Subpackages cover exact arithmetic in finite abelian groups, the monoid of
zero-sum sequences with atom/length-set enumeration, brute-force
factorization in the quadratic order Z[(1+sqrt(-23))/2], quaternion identity
checking over Q(sqrt(3)), an abstract divisor calculus on cycles of maximal
ideals with SVG diagrams, and an exact triangular-order oracle that
cross-validates the calculus.

Importing the package is cheap: each submodule is registered in sys.modules
by a LazyLoader and its body runs on first attribute access, so a command
runs only the modules it uses.
"""

import importlib.util
import sys

__all__ = ["abelian", "divcalc", "quadring", "quatcheck", "tring", "zerosum"]
__version__ = "0.1.0"


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
