import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nufact.abelian import (
    CapExceeded,
    FinAbGroup,
    add,
    enumerate_elements,
    format_element,
    format_group,
    make_group,
    neg,
    scale,
)


def test_make_group_orders():
    assert make_group([3]).order == 3
    assert make_group([1]).order == 1
    assert make_group([2, 2]).order == 4


def test_make_group_rejects_bad_moduli():
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([3, -1])
    with pytest.raises(ValueError):
        make_group([])


def test_add_examples():
    G = make_group([3])
    assert add(G.element([1]), G.element([2])) == G.zero()
    a = G.element([2])
    assert add(a, G.zero()) == a
    K = make_group([2, 2])
    assert add(K.element([1, 0]), K.element([1, 0])) == K.zero()


def test_add_rejects_mismatched_groups():
    with pytest.raises(ValueError):
        add(make_group([3]).zero(), make_group([4]).zero())
    # same order, different presentation
    with pytest.raises(ValueError):
        add(make_group([4]).zero(), make_group([2, 2]).zero())


def test_enumerate_elements():
    assert [e.coords for e in enumerate_elements(make_group([3]))] == [(0,), (1,), (2,)]
    assert [e.coords for e in enumerate_elements(make_group([1]))] == [(0,)]
    K = make_group([2, 2])
    els = enumerate_elements(K)
    assert len(els) == 4 == len(set(els))
    assert els == sorted(els)


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_elements(make_group([100, 100]), cap=5000)


def test_one_cap_error_type():
    from nufact import abelian, divcalc, quadring, tring, zerosum

    assert abelian.CapExceeded is divcalc.CapExceeded is quadring.CapExceeded \
        is tring.CapExceeded is zerosum.CapExceeded
    assert issubclass(CapExceeded, ValueError)


def test_text_syntax_round_trip():
    G = FinAbGroup.from_text("2x4")
    assert G.moduli == (2, 4)
    assert format_group(G) == "2x4"
    e = G.parse_element("1,3")
    assert format_element(e) == "1,3"
    assert format_element(FinAbGroup.from_text("5").parse_element("7")) == "2"
    with pytest.raises(ValueError):
        G.parse_element("1")
    with pytest.raises(ValueError):
        FinAbGroup.from_text("2xtwo")


groups = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(make_group)


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
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert add(a, G.zero()) == a
    assert add(a, neg(a)) == G.zero()


@given(group_and_elements(1))
@settings(max_examples=100)
def test_element_order_annihilates(data):
    G, a = data
    acc = G.zero()
    order = 0
    while True:
        acc = add(acc, a)
        order += 1
        if acc == G.zero():
            break
        assert order <= G.order
    assert scale(a, order) == G.zero()


@given(groups)
@settings(max_examples=50)
def test_enumeration_is_complete(G):
    els = enumerate_elements(G)
    assert len(els) == G.order
    assert len(set(els)) == G.order
