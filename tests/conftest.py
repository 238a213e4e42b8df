import inspect

import pytest

import nufact


@pytest.fixture
def never_repeating_walk():
    """A copy of nufact.factorization_walk with one planted bug: each next
    part must come after the last one, so no atom can repeat.  The negative
    control for the brute-force factorization oracles."""
    source = inspect.getsource(nufact.factorization_walk)
    planted = source.replace("stack.append((nxt, idx, ", "stack.append((nxt, idx + 1, ")
    assert planted != source
    namespace = dict(vars(nufact))
    exec(planted, namespace)
    return namespace["factorization_walk"]
