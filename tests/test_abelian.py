import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nufact import CapExceeded
from nufact.abelian import (
    FinAbGroup,
    enumerate_elements,
    format_element,
    format_group,
)


def test_group_orders():
    assert FinAbGroup([3]).order == 3
    assert FinAbGroup([1]).order == 1
    assert FinAbGroup([2, 2]).order == 4


def test_group_rejects_bad_moduli():
    for bad in [0], [3, -1], [], [2.5], ["4"], [True]:
        with pytest.raises(ValueError):
            FinAbGroup(bad)


def plus(G, a, b):
    """The group sum: G.element reduces the coordinatewise integer sum."""
    return G.element(map(operator.add, a, b))


def test_element_reduces_coordinates():
    G = FinAbGroup([3])
    assert G.element([1]) == (1,) and G.element([-1]) == (2,)
    assert plus(G, G.element([1]), G.element([2])) == G.zero() == (0,)
    a = G.element([2])
    assert plus(G, a, G.zero()) == a
    K = FinAbGroup([2, 2])
    assert plus(K, K.element([1, 0]), K.element([1, 0])) == K.zero() == (0, 0)


def test_element_rejects_foreign_coordinates():
    # an element of another group, or a coordinate that is not an int
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        FinAbGroup([4]).element(FinAbGroup([2, 2]).zero())
    with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
        FinAbGroup([2, 2]).element((3,))
    for bad in [2.7], ["1"], [False]:
        with pytest.raises(ValueError, match="coordinates must be integers"):
            FinAbGroup([3]).element(bad)


def test_enumerate_elements():
    assert enumerate_elements(FinAbGroup([3])) == [(0,), (1,), (2,)]
    assert enumerate_elements(FinAbGroup([1])) == [(0,)]
    K = FinAbGroup([2, 2])
    els = enumerate_elements(K)
    assert len(els) == 4 == len(set(els))
    assert els == sorted(els)


def test_one_cap_error_type():
    import nufact

    # every library module that names the error binds the package's own
    binding = [name for name in nufact.__all__
               if "CapExceeded" in vars(getattr(nufact, name))]
    assert binding == ["divdraw", "divwords", "quadring", "toracle", "zerosum"]
    assert all(getattr(nufact, name).CapExceeded is nufact.CapExceeded for name in binding)
    assert issubclass(CapExceeded, ValueError)


def test_text_syntax_round_trip():
    G = FinAbGroup.from_text("2x4")
    assert G.moduli == (2, 4)
    assert format_group(G) == "2x4"
    e = G.parse_element("1,3")
    assert e == (1, 3)
    assert format_element(e) == "1,3"
    assert format_element(FinAbGroup.from_text("5").parse_element("7")) == "2"
    with pytest.raises(ValueError):
        G.parse_element("1")
    with pytest.raises(ValueError):
        FinAbGroup.from_text("2xtwo")


groups = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(FinAbGroup)


@st.composite
def group_and_elements(draw, count):
    G = draw(groups)
    els = [
        G.element([draw(st.integers(0, 10)) for _ in G.moduli])
        for _ in range(count)
    ]
    return (G, *els)


@given(group_and_elements(3))
@settings(max_examples=150)
def test_group_laws(data):
    G, a, b, c = data
    assert plus(G, plus(G, a, b), c) == plus(G, a, plus(G, b, c))
    assert plus(G, a, b) == plus(G, b, a)
    assert plus(G, a, G.zero()) == a
    assert plus(G, a, G.element(-x for x in a)) == G.zero()


@given(group_and_elements(1))
@settings(max_examples=100)
def test_element_order_annihilates(data):
    G, a = data
    acc = G.zero()
    order = 0
    while True:
        acc = plus(G, acc, a)
        order += 1
        if acc == G.zero():
            break
        assert order <= G.order
    assert G.element(x * order for x in a) == G.zero()


@given(groups)
@settings(max_examples=50)
def test_enumeration_is_complete(G):
    els = enumerate_elements(G)
    assert len(els) == G.order
    assert len(set(els)) == G.order
