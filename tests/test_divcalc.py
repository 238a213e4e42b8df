import functools
import gc
import inspect
import itertools
import json
import pathlib
import tracemalloc
import xml.etree.ElementTree as ET
from operator import le

import pytest

from nufact import CapExceeded, divcalc, divdraw, divwords
from nufact.divcalc import (
    CycleStructure,
    apply_lifted,
    compose,
    compose_texts,
    compose_word,
    default_max_len,
    is_realizable,
    landing,
)
from nufact.divdraw import render_svg
from nufact.divwords import enumerate_factorizations_ex
from nufact.toracle import enumerate_ideals
from nufact.tring import divisor_of

CS3 = CycleStructure.from_text("Q1>Q2>Q3")
MIXED = CycleStructure.from_text("Q1>Q2>Q3;P")
CS4 = CycleStructure.from_text("Q1>Q2>Q3>Q4")
GOLDEN_TRING = pathlib.Path(__file__).resolve().parent / "golden" / "tring.json"


def div(text, cs=CS3):
    return cs.parse_divisor(text)


def all_divisors(cs, max_count):
    return itertools.product(range(max_count + 1), repeat=len(cs.labels()))


def test_divisor_is_a_count_tuple_in_label_order():
    assert MIXED.labels() == ["Q1", "Q2", "Q3", "P"]
    assert MIXED.parse_divisor("P+2Q1+Q1") == (3, 0, 0, 1)
    assert MIXED.indicator("Q2") == (0, 1, 0, 0)
    assert MIXED.zero() == (0, 0, 0, 0)
    assert MIXED.format_divisor((3, 0, 0, 1)) == "3Q1+P"
    with pytest.raises(ValueError):
        MIXED.indicator("R")
    with pytest.raises(ValueError):
        MIXED.parse_word("Q1*R")


@pytest.mark.parametrize("call", [
    lambda D: compose(CS3, D, CS3.zero()),
    lambda D: compose(CS3, CS3.zero(), D),
    lambda D: is_realizable(CS3, D),
    lambda D: enumerate_factorizations_ex(CS3, D, 3),
    lambda D: render_svg(CS3, D),
    lambda D: landing(CS3, D),
])
def test_divisor_of_wrong_length_is_refused(call):
    for D in [(1, 0), (1, 0, 0, 0), ()]:
        with pytest.raises(ValueError, match="counts, but the cycle structure has 3 labels"):
            call(D)


def test_negative_count_is_not_realizable_and_is_refused():
    # no ideal has a negative count, though the tau inequality alone holds
    Q1Q2 = CycleStructure.from_text("Q1>Q2")
    for D in [(-1, 0), (0, -1), (-3, 0), (-1, -1)]:
        assert not is_realizable(Q1Q2, D)
        with pytest.raises(ValueError, match="^divisor is not realizable; it has no "
                                             "factorization$"):
            enumerate_factorizations_ex(Q1Q2, D, 3)
        with pytest.raises(ValueError, match="^divisor has a negative count: "):
            render_svg(Q1Q2, D)
    assert is_realizable(Q1Q2, (0, 0)) and is_realizable(Q1Q2, (1, 0))
    # compose keeps any integer counts: the lifted maps are defined for
    # every displacement
    assert compose(Q1Q2, (-1, 0), (0, 0)) == (-1, 0)


def test_tau_examples():
    assert CS3.successor("Q1") == "Q2"
    assert MIXED.successor("P") == "P"
    assert CS3.successor(CS3.successor(CS3.successor("Q1"))) == "Q1"
    with pytest.raises(ValueError):
        CS3.successor("R")


def test_cycle_structure_rejects_duplicates():
    with pytest.raises(ValueError):
        CycleStructure([["Q1", "Q2"], ["Q1"]])
    with pytest.raises(ValueError):
        CycleStructure.from_text("Q1>>Q2")


def test_cycle_structure_refuses_an_empty_cycle():
    with pytest.raises(ValueError, match="^empty cycle$"):
        CycleStructure([[]])


# labels that no divisor term or word can name; the first also broke the
# SVG attribute it was written into
BAD_LABELS = ['B"<&', "2Q", "Q 1", "Q1*Q2"]


@pytest.mark.parametrize("label", BAD_LABELS)
def test_cycle_structure_refuses_labels_no_syntax_can_name(label):
    message = (f"bad label {label!r}: a label is a letter followed by letters, digits or "
               "underscores")
    for make in (lambda: CycleStructure([["A", label]]),
                 lambda: CycleStructure.from_text(f"A>{label}")):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


def test_cycle_structure_accepts_the_labels_a_divisor_term_names():
    cs = CycleStructure.from_text("Q_1>x>Pq9;B")
    assert cs.parse_divisor("2Q_1+x+3Pq9+B") == (2, 1, 3, 1)
    assert cs.parse_word("Q_1*B") == ["Q_1", "B"]


def test_apply_lifted_worked_values():
    # a point is (label index, level): Q1, Q2, Q3 are indices 0, 1, 2
    D = div("2Q1+Q3")
    for n in (-2, 0, 5):
        assert apply_lifted(CS3, D, (0, n)) == (2, n)
        assert apply_lifted(CS3, D, (1, n)) == (1, n)
        assert apply_lifted(CS3, D, (2, n)) == (0, n + 1)


def test_apply_lifted_winding_example():
    D = div("4Q1")
    assert apply_lifted(CS3, D, (0, 0)) == (1, 1)


def test_apply_lifted_zero_divisor_is_identity():
    for i in range(3):
        p = (i, 3)
        assert apply_lifted(CS3, CS3.zero(), p) == p


def test_apply_lifted_level_equivariance():
    for D in all_divisors(CS3, 2):
        for i in range(3):
            index, level = apply_lifted(CS3, D, (i, 0))
            assert apply_lifted(CS3, D, (i, 7)) == (index, level + 7)


def test_apply_lifted_stays_in_its_cycle():
    # indices of the second cycle are offset by the first cycle's length
    D = MIXED.parse_divisor("2Q1+Q3+3P")
    assert apply_lifted(MIXED, D, (0, 0)) == (2, 0)
    assert apply_lifted(MIXED, D, (2, 0)) == (0, 1)
    assert apply_lifted(MIXED, D, (3, 1)) == (3, 4)


def test_compose_worked_values():
    Q1, Q2, Q3 = (CS3.indicator(p) for p in ("Q1", "Q2", "Q3"))
    assert compose(CS3, Q1, Q2) == div("2Q1+Q2")
    assert compose(CS3, Q2, Q1) == div("Q1+Q2")
    assert compose_word(CS3, ["Q1", "Q2", "Q3"]) == div("3Q1+2Q2+Q3")
    assert compose_word(CS3, ["Q1", "Q2", "Q1"]) == compose(CS3, Q1, Q2)
    D = div("2Q1+Q3")
    assert compose(CS3, D, CS3.zero()) == D
    assert compose(CS3, CS3.zero(), D) == D
    # one label: `div compose --cycles Q1 Q1 Q1` prints 2Q1
    assert compose_texts(CycleStructure.from_text("Q1"), ["Q1", "Q1"]) == (2,)


def test_compose_matches_lifted_maps():
    for D in all_divisors(CS3, 2):
        for E in all_divisors(CS3, 2):
            C = compose(CS3, D, E)
            for i in range(3):
                for level in range(-3, 4):
                    p = (i, level)
                    assert apply_lifted(CS3, C, p) == \
                        apply_lifted(CS3, E, apply_lifted(CS3, D, p))


# one cycle of each length 1 to 6, then a 3-cycle and a 1-cycle
SWEEP_STRUCTURES = [CycleStructure([[f"Q{k}" for k in range(1, n + 1)]])
                    for n in range(1, 7)] + [MIXED]


def oracle_count_bounds():
    """{ring size l: the largest count a divisor reaches on the corpora of
    T(l) that the `tring oracle` runs in golden/tring.json enumerate}."""
    shapes = set()
    for case in json.loads(GOLDEN_TRING.read_text(encoding="utf-8")):
        argv = case["argv"]
        if "oracle" in argv:
            shapes.add(tuple(int(argv[argv.index(flag) + 1]) for flag in ("--size", "--max-exp")))
    bounds = {}
    for l, max_exp in shapes:
        top = max(max(map(divisor_of, enumerate_ideals(l, max_exp))))
        bounds[l] = max(bounds.get(l, 0), top)
    return bounds


def lifted_disagreements(make):
    """The cases (cycles, i, c, d), in sweep order, where make(cs, D)(E) at
    label i disagrees with the two-step lifted map at levels -2 to 2: D has
    count c at label i, E count d at the label where D's move at i lands.

    A compose value at i depends only on the case, so this is every case
    the oracle corpora reach: c and d run up to the largest count a corpus
    of the ring of i's cycle length reaches, and up to the largest of any
    corpus on the 1-cycle, which no ring has."""
    bounds = oracle_count_bounds()
    for cs in SWEEP_STRUCTURES:
        labels = cs.labels()
        for i, label in enumerate(labels):
            top = bounds.get(cs._len[i], max(bounds.values()))
            for c in range(top + 1):
                D = tuple(c * x for x in cs.indicator(label))
                j = landing(cs, D)[i]
                after = make(cs, D)
                for d in range(top + 1):
                    E = tuple(d * x for x in cs.indicator(labels[j]))
                    C = after(E)
                    if any(apply_lifted(cs, C, (i, level)) !=
                           apply_lifted(cs, E, apply_lifted(cs, D, (i, level)))
                           for level in range(-2, 3)):
                        yield repr(cs), i, c, d


def test_compose_matches_lifted_maps_on_every_case_the_oracle_reaches():
    assert next(lifted_disagreements(lambda cs, D: functools.partial(compose, cs, D)),
                None) is None


def test_lifted_sweep_catches_a_composer_that_ignores_the_wrap():
    # negative control: a copy of composer that reads E at i instead of at
    # the landing label once D's move wraps first fails on the 2-cycle at
    # Q1 with c = 3, which lands on Q2 one level up, and d = 1
    source = inspect.getsource(divcalc.composer)
    lands = "lands = landing(cs, D)"
    assert source.count(lands) == 1
    namespace = dict(vars(divcalc))
    exec(source.replace(lands, "lands = [j if i - cs._start[i] + c < cs._len[i] else i "
                               "for i, (c, j) in enumerate(zip(D, landing(cs, D)))]"),
         namespace)
    assert next(lifted_disagreements(namespace["composer"])) == (
        "CycleStructure('Q1>Q2')", 0, 3, 1)


def test_landing_is_where_each_labels_move_lands():
    # counts up to 7 wind the 3-cycle twice; P is a 1-cycle, which every
    # count winds in place
    for cs in (CS3, MIXED):
        for D in all_divisors(cs, 7):
            assert landing(cs, D) == [apply_lifted(cs, D, (i, 0))[0] for i in range(len(D))]
    assert landing(CS3, div("7Q1+Q2")) == [1, 2, 2]
    assert landing(MIXED, MIXED.parse_divisor("6Q3+9P")) == [0, 1, 2, 3]
    assert landing(MIXED, MIXED.parse_divisor("4Q1+6Q2+8Q3")) == [1, 1, 1, 3]


def test_compose_texts_budget_boundary(monkeypatch):
    # one label step per label for each divisor, against nine times the
    # word search's budget, charged before any divisor is parsed: at 18
    # steps six divisors over three labels compose, and seven are refused
    # though the seventh names an unknown label
    parsed, want = [], div("6Q1+5Q2+4Q3")
    parse = CS3.parse_divisor
    monkeypatch.setattr(CS3, "parse_divisor", lambda t: parsed.append(t) or parse(t))
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 2)
    word = ["Q1", "Q2", "Q3"] * 2
    assert compose_texts(CS3, word) == want
    assert parsed == word
    parsed.clear()
    with pytest.raises(CapExceeded, match="^composing 7 divisors over 3 labels exceeds "
                                          "the budget of 18 label steps$"):
        compose_texts(CS3, [*word, "R1"])
    assert parsed == []


def test_compose_texts_of_no_texts_is_the_zero_divisor(monkeypatch):
    # the empty composition, as compose_word gives for the empty word, and
    # no compose call is made
    calls = []
    monkeypatch.setattr(divcalc, "compose", lambda *a: calls.append(a) or compose(*a))
    assert compose_texts(CS3, []) == CS3.zero() == compose_word(CS3, [])
    assert compose_texts(MIXED, []) == MIXED.zero()
    assert calls == []
    assert compose_texts(CS3, ["Q1", "Q2", "Q3"]) == div("3Q1+2Q2+Q3")
    assert len(calls) == 2


def test_compose_associative_exhaustively():
    for text in ("A", "A>B", "Q1>Q2>Q3"):
        cs = CycleStructure.from_text(text)
        divisors = list(all_divisors(cs, 2))
        for D, E in itertools.product(divisors, repeat=2):
            DE = compose(cs, D, E)
            for F in divisors:
                assert compose(cs, DE, F) == compose(cs, D, compose(cs, E, F))


def test_indicators_idempotent_on_real_cycles():
    # idempotence needs a cycle of length >= 2; a 1-cycle label behaves like
    # a classical invertible prime, P o P = 2P
    for cs in (CS3, MIXED, CycleStructure.from_text("A>B")):
        for cyc in cs.cycles:
            for label in cyc:
                P = cs.indicator(label)
                if len(cyc) >= 2:
                    assert compose(cs, P, P) == P
                else:
                    assert compose(cs, P, P) == cs.parse_divisor(f"2{label}")


def test_compose_with_full_cycle():
    full = div("Q1+Q2+Q3")
    for D in all_divisors(CS3, 2):
        left = compose(CS3, D, full)
        right = compose(CS3, full, D)
        for i, p in enumerate(CS3.labels()):
            assert left[i] == D[i] + 1
            assert right[i] == 1 + D[CS3.index(CS3.successor(p))]


def test_realizability_examples():
    assert is_realizable(CS3, div("7Q1+6Q2+8Q3"))
    assert not is_realizable(CS3, div("2Q1"))
    assert is_realizable(CS3, CS3.zero())
    assert is_realizable(CS3, div("Q1+Q2+Q3"))


def test_realizability_closed_under_composition():
    realizable = [D for D in all_divisors(CS3, 2) if is_realizable(CS3, D)]
    for D in realizable:
        for E in realizable:
            assert is_realizable(CS3, compose(CS3, D, E))


def test_realizable_iff_lifted_map_monotone():
    # the diagrammatic reading: strands never cross exactly for divisors
    # that come from ideals
    def window(cs):
        pts = [(i, n) for n in range(-2, 3) for i in range(len(cs.labels()))]
        return pts  # listed in the total order (level, then position)

    def monotone(cs, D):
        images = [apply_lifted(cs, D, p) for p in window(cs)]
        keys = [(level, i) for i, level in images]
        return all(a <= b for a, b in zip(keys, keys[1:]))

    for D in all_divisors(CS3, 3):
        assert is_realizable(CS3, D) == monotone(CS3, D)


def test_enumerate_factorizations_fig2():
    words, truncated = enumerate_factorizations_ex(CS3, div("3Q1+2Q2+Q3"), 5)
    assert truncated
    assert ["Q1", "Q2", "Q3"] in words
    assert ["Q2", "Q1", "Q3", "Q2", "Q3"] in words
    for w in words:
        assert compose_word(CS3, w) == div("3Q1+2Q2+Q3")
    assert len({tuple(w) for w in words}) == len(words)


def test_enumerate_factorizations_idempotent_letter():
    words, _ = enumerate_factorizations_ex(CS3, div("Q1"), 3)
    assert ["Q1"] in words and ["Q1", "Q1"] in words


def test_enumerate_factorizations_zero_divisor():
    assert enumerate_factorizations_ex(CS3, CS3.zero(), 4) == ([[]], False)


def test_enumerate_factorizations_rejects_unrealizable():
    with pytest.raises(ValueError, match="^divisor is not realizable; it has no factorization$"):
        enumerate_factorizations_ex(CS3, div("2Q1"), 6)
    with pytest.raises(ValueError, match="^max_len must be >= 0$"):
        enumerate_factorizations_ex(CS3, div("Q1"), -1)


def test_enumerate_factorizations_truncation_flag():
    _, truncated = enumerate_factorizations_ex(CS3, div("3Q1+2Q2+Q3"), 2)
    assert truncated
    words, _ = enumerate_factorizations_ex(CS3, div("Q1+Q2+Q3"), 1)
    assert words == []


def test_enumerate_factorizations_word_cap(monkeypatch):
    # word counts explode with the budget once idempotents can repeat; the
    # cap bounds the letters of all words together: 2754 words, 23132 letters
    monkeypatch.setattr(divwords, "LETTER_CAP", 23131)
    with pytest.raises(CapExceeded, match="more than 23131 letters"):
        enumerate_factorizations_ex(CS3, div("3Q1+2Q2+Q3"), 9)
    monkeypatch.setattr(divwords, "LETTER_CAP", 23132)
    words, _ = enumerate_factorizations_ex(CS3, div("3Q1+2Q2+Q3"), 9)
    assert len(words) == 2754
    assert sum(map(len, words)) == 23132


def test_word_search_budget(monkeypatch):
    # the README example 3Q1+2Q2+Q3 within length 5 visits 47 states
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 47)
    words, truncated = enumerate_factorizations_ex(CS3, div("3Q1+2Q2+Q3"), 5)
    assert words[0] == ["Q1", "Q2", "Q3"] and len(words) == 37 and truncated
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 46)
    with pytest.raises(CapExceeded, match=r"^the word search exceeds its budget: "
                                          r"visited 46 states, reached length 5$"):
        enumerate_factorizations_ex(CS3, div("3Q1+2Q2+Q3"), 5)
    # Q2 has one state per level, so a huge length bound is refused at once
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 1000)
    with pytest.raises(CapExceeded, match="visited 1000 states, reached length 1000$"):
        enumerate_factorizations_ex(CS3, div("Q2"), 10**20)


def test_word_search_charges_each_landing_pass_and_admitted_letter(monkeypatch):
    # over 9 labels a new partial costs 9 label steps for its landing pass
    # and 9 for each letter it admits, against 9 steps per state of the
    # budget.  Q1 admits only itself at every partial: 18 steps each
    cs = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, 10)))
    Q1, ones = cs.indicator("Q1"), (1,) * 9
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 2)
    assert enumerate_factorizations_ex(cs, Q1, 1) == ([["Q1"]], False)
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 1)
    with pytest.raises(CapExceeded, match=r"^the word search exceeds its budget: "
                                          r"9 label steps over 9 labels, reached length 0$"):
        enumerate_factorizations_ex(cs, Q1, 1)
    # a second level expands Q1 too: 36 steps.  Q1 is idempotent, so a
    # third level holds Q1 again, which is not charged twice
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 4)
    assert enumerate_factorizations_ex(cs, Q1, 3) == (
        [["Q1"], ["Q1", "Q1"], ["Q1", "Q1", "Q1"]], False)
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 3)
    with pytest.raises(CapExceeded, match="^the word search exceeds its budget: "
                                          "27 label steps over 9 labels, reached length 1$"):
        enumerate_factorizations_ex(cs, Q1, 2)
    # every count 1: the empty partial admits all 9 letters, 90 steps, and
    # its 9 successors are 9 more states
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 10)
    assert enumerate_factorizations_ex(cs, ones, 1) == ([], True)
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 9)
    with pytest.raises(CapExceeded, match="^the word search exceeds its budget: "
                                          "81 label steps over 9 labels, reached length 0$"):
        enumerate_factorizations_ex(cs, ones, 1)


def test_word_search_label_steps_at_the_real_budget():
    # every count 1 admits every letter at the empty partial: l * (l + 1)
    # steps, 1,799,622 over 1,341 labels and 1,802,306 over 1,342, against
    # 1.8 million.  Q1 admits one letter at each partial, 2 * l steps, so
    # over 2,000 labels it is answered at length 2
    wide = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, 1342)))
    assert enumerate_factorizations_ex(wide, (1,) * 1341, 1) == ([], True)
    wider = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, 1343)))
    with pytest.raises(CapExceeded, match="^the word search exceeds its budget: 1800000 "
                                          "label steps over 1342 labels, reached length 0$"):
        enumerate_factorizations_ex(wider, (1,) * 1342, 1)
    widest = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, 2001)))
    assert enumerate_factorizations_ex(widest, widest.indicator("Q1"), 2) == (
        [["Q1"], ["Q1", "Q1"]], False)


def search_calls(monkeypatch, make_search):
    """The indicator and compose calls of four searches through the search
    that make_search returns once the spies are in place: an empty one, a
    refused one and two that expand.  The spies record each call and return
    its value, so a search that composes still finds its words.  compose is
    patched wherever a search could reach it: in divcalc, and as a name in
    the word search's own module."""
    wide = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, 1343)))
    cs12 = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, 13)))
    ones, Q1, D = (1,) * 1342, cs12.indicator("Q1"), div("3Q1+2Q2+Q3")
    called = []
    for cs in (wide, cs12, CS3):
        monkeypatch.setattr(cs, "indicator",
                            lambda p, real=cs.indicator: called.append(("indicator", p)) or real(p))

    def spy(*args):
        called.append(("compose", args))
        return compose(*args)

    monkeypatch.setattr(divcalc, "compose", spy)
    monkeypatch.setattr(divwords, "compose", spy, raising=False)
    search = make_search()
    assert search(wide, ones, 0) == ([], True)
    with pytest.raises(CapExceeded, match="^the word search exceeds its budget: 1800000 "
                                          "label steps over 1342 labels, reached length 0$"):
        search(wide, ones, 1)
    assert search(cs12, Q1, 3) == ([["Q1"], ["Q1", "Q1"], ["Q1", "Q1", "Q1"]], False)
    words, truncated = search(CS3, D, 5)
    assert words[0] == ["Q1", "Q2", "Q3"] and len(words) == 37 and truncated
    return called


def test_word_search_calls_neither_indicator_nor_compose(monkeypatch):
    # each partial is stepped by its landing map, so no search, whether
    # empty, refused or expanding, builds an indicator or composes
    assert search_calls(monkeypatch, lambda: enumerate_factorizations_ex) == []


@pytest.mark.parametrize("composer", ["compose", "divcalc.compose"])
def test_search_calls_catch_a_search_that_composes(monkeypatch, composer):
    # negative control: a copy of the search that steps each partial by
    # composing it with the letter's indicator, through either name, finds
    # the same words, and the spies see both calls
    source = inspect.getsource(enumerate_factorizations_ex)
    step = "tuple(c + (j == q) for c, j in zip(partial, lands))"
    assert source.count(step) == 1
    source = source.replace(step, f"{composer}(cs, partial, cs.indicator(labels[q]))")

    def composing_copy():
        namespace = dict(vars(divwords))
        exec(source, namespace)
        return namespace["enumerate_factorizations_ex"]

    called = search_calls(monkeypatch, composing_copy)
    assert {name for name, _ in called} == {"indicator", "compose"}


def test_word_search_over_a_wide_cycle_follows_the_partial():
    # Q1 over 1,000 labels is one letter: the landing pass leaves every
    # other letter full, so no l x l table is built
    cs = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, 1001)))
    Q1 = cs.indicator("Q1")
    tracemalloc.start()
    try:
        result = enumerate_factorizations_ex(cs, Q1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == ([["Q1"]], False)
    assert peak < 2**20


BRUTE_MAX_LEN = 6


def brute_force_cases():
    """(cs, D, max_len, words, truncated) from every label word up to
    BRUTE_MAX_LEN: the words composing to D, in (length, letter positions)
    order, and whether a word of length max_len stops below D.  Covers the
    realizable divisors with counts <= 2 over CS3 and MIXED and <= 1 over
    CS4."""
    for cs, max_count in ((CS3, 2), (MIXED, 2), (CS4, 1)):
        products = {n: [(w, compose_word(cs, w))
                        for w in itertools.product(cs.labels(), repeat=n)]
                    for n in range(BRUTE_MAX_LEN + 1)}
        for D in all_divisors(cs, max_count):
            if not is_realizable(cs, D):
                continue
            for max_len in range(BRUTE_MAX_LEN + 1):
                words = [list(w) for n in range(max_len + 1)
                         for w, P in products[n] if P == D]
                words.sort(key=lambda w: (len(w), [cs.index(p) for p in w]))
                truncated = any(P != D and all(map(le, P, D))
                                for _, P in products[max_len])
                yield cs, D, max_len, words, truncated


def test_enumerate_factorizations_matches_brute_force():
    cases = list(brute_force_cases())
    for cs, D, max_len, words, truncated in cases:
        assert enumerate_factorizations_ex(cs, D, max_len) == (words, truncated), \
            (cs, D, max_len)
    # the cases reach the zero divisor, repeated letters and truncation
    assert any(not any(D) and words == [[]] for _, D, _, words, _ in cases)
    assert any(w[0] == w[1] for *_, words, _ in cases for w in words if len(w) > 1)
    assert any(truncated and words for *_, words, truncated in cases)


def test_brute_force_catches_a_listing_out_of_letter_order():
    # negative control: a listing that extends each level in reverse letter
    # order still finds every word, in an order the brute force must tell
    # apart
    source = inspect.getsource(enumerate_factorizations_ex)
    extend = "for q, nxt in successors(p) if nxt in live_states"
    assert source.count(extend) == 1
    namespace = dict(vars(divwords))
    exec(source.replace(extend, extend.replace("successors(p)", "successors(p)[::-1]")),
         namespace)
    reversed_listing = namespace["enumerate_factorizations_ex"]
    assert any(reversed_listing(cs, D, max_len) != (words, truncated)
               for cs, D, max_len, words, truncated in brute_force_cases())


def test_brute_force_catches_a_commutative_step():
    # negative control: stepping each partial by the plain sum with the
    # letter, as if divisors composed commutatively, must disagree with
    # the composed words
    source = inspect.getsource(enumerate_factorizations_ex)
    step = "c + (j == q) for c, j in zip(partial, lands)"
    assert source.count(step) == 1
    namespace = dict(vars(divwords))
    exec(source.replace(step, "c + (j == q) for j, c in enumerate(partial)"), namespace)
    summed = namespace["enumerate_factorizations_ex"]
    assert any(summed(cs, D, max_len) != (words, truncated)
               for cs, D, max_len, words, truncated in brute_force_cases())


def test_word_search_memory_follows_its_output():
    # every realizable divisor of total 11 over CS3 has 3,003 words of 40,040
    # letters within length 14; building them once held 3x their memory.
    # A full collection empties the free lists, so held counts the words
    # alone, not freed tuples kept for reuse.
    tracemalloc.start()
    try:
        words, _ = enumerate_factorizations_ex(CS3, div("4Q1+4Q2+3Q3"), 14)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(words) == 3003 and sum(map(len, words)) == 40040
    assert peak <= 1.5 * held


def test_default_max_len():
    assert default_max_len(CS3, div("3Q1+2Q2+Q3")) == 9
    assert default_max_len(MIXED, MIXED.parse_divisor("P")) == 2


def test_multi_cycle_independence():
    # composing divisors supported on different cycles just adds them
    D = MIXED.parse_divisor("2Q1+Q3")
    E = MIXED.parse_divisor("P")
    assert compose(MIXED, D, E) == MIXED.parse_divisor("2Q1+Q3+P")
    assert compose(MIXED, E, D) == MIXED.parse_divisor("2Q1+Q3+P")


def test_multi_cycle_factorization_words():
    target = MIXED.parse_divisor("Q1+P")
    words, _ = enumerate_factorizations_ex(MIXED, target, 2)
    assert ["Q1", "P"] in words and ["P", "Q1"] in words
    for w in words:
        assert compose_word(MIXED, w) == target


def test_divisor_text_round_trip():
    for text in ["0", "Q1", "2Q1+Q3", "7Q1+6Q2+8Q3"]:
        assert CS3.format_divisor(div(text)) == text
    with pytest.raises(ValueError):
        CS3.parse_divisor("2R1")
    with pytest.raises(ValueError):
        CS3.parse_divisor("Q1-Q2")


SVG_NS = "{http://www.w3.org/2000/svg}"


def strands(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG_NS}path")


def test_render_divisor_panel():
    svg = render_svg(CS3, div("Q1"))
    paths = strands(svg)
    assert len(paths) == 3
    by_source = {p.get("data-source"): p for p in paths}
    assert by_source["Q1"].get("data-target") == "Q2"
    assert by_source["Q2"].get("data-target") == "Q2"
    assert by_source["Q3"].get("data-target") == "Q3"
    assert all(p.get("data-winding") == "0" for p in paths)


def test_render_zero_divisor_horizontal():
    svg = render_svg(CS3, CS3.zero())
    for p in strands(svg):
        assert p.get("data-source") == p.get("data-target")
        assert p.get("data-winding") == "0"
        assert p.get("d").count("M") == 1


def test_render_windings():
    svg = render_svg(CS3, div("7Q1+6Q2+8Q3"))
    got = {p.get("data-source"): int(p.get("data-winding")) for p in strands(svg)}
    assert got == {"Q1": 2, "Q2": 2, "Q3": 3}
    for p in strands(svg):
        # one monotone piece per wrap plus one
        assert p.get("d").count("M") == int(p.get("data-winding")) + 1


def test_render_strand_geometry():
    # every strand is winding + 1 straight pieces across its panel, from its
    # source mark on the left edge to its target mark on the right; each
    # wrap leaves over the bottom edge and re-enters at the top, at the same x
    for l in range(1, 6):
        cs = CycleStructure.from_text(">".join(f"Q{i}" for i in range(1, l + 1)))
        for D in all_divisors(cs, 4):
            root = ET.fromstring(render_svg(cs, D))
            frame = root.find(f".//{SVG_NS}rect")
            left, top = float(frame.get("x")), float(frame.get("y"))
            right, bottom = left + float(frame.get("width")), top + float(frame.get("height"))
            marks = [float(c.get("cy")) for c in root.findall(f"{SVG_NS}circle")[:l]]
            for path in root.findall(f".//{SVG_NS}path"):
                d = path.get("d").split()
                assert d[::3] == ["M", "L"] * (len(d) // 6)
                points = list(zip(map(float, d[1::3]), map(float, d[2::3])))
                assert len(points) == 2 * int(path.get("data-winding")) + 2, (D, d)
                xs = [x for x, _ in points]
                assert xs == sorted(xs) and (xs[0], xs[-1]) == (left, right)
                assert points[0][1] == marks[cs.index(path.get("data-source"))]
                assert points[-1][1] == marks[cs.index(path.get("data-target"))]
                # the end of each piece and the start of the next
                for (xb, yb), (xa, ya) in zip(points[1:-1:2], points[2::2]):
                    assert (xb, yb, ya) == (xa, bottom, top)


def test_render_word_panels():
    svg = render_svg(CS3, word=["Q1", "Q2", "Q3"])
    root = ET.fromstring(svg)
    panels = root.findall(f".//{SVG_NS}g")
    assert len(panels) == 3
    assert len(strands(svg)) == 9


def test_render_drawing_cap(monkeypatch):
    # a drawing costs panels x labels + total count: each panel draws one
    # strand per label, and a strand one more piece per winding.  A divisor
    # is one panel, and a word one panel per letter, of one count each; the
    # empty word is the zero divisor.  No word panel is built before the cap
    # is checked.
    cs = CycleStructure.from_text("Q1>Q2>Q3;P")
    monkeypatch.setattr(divdraw, "DRAWING_CAP", 8)
    assert render_svg(CS3, div("2Q1+3Q3")).startswith("<svg")
    with pytest.raises(CapExceeded, match="^drawing of 1 panels x 3 labels \\+ total count 6 "
                                          "exceeds the drawing cap 8$"):
        render_svg(CS3, div("3Q1+3Q3"))
    monkeypatch.setattr(divdraw, "DRAWING_CAP", 12)
    assert len(strands(render_svg(cs, word=["Q1", "Q2", "Q3"], cycle=0))) == 9
    monkeypatch.setattr(divdraw, "DRAWING_CAP", 18)
    assert len(strands(render_svg(cs, word=["P"] * 9, cycle=1))) == 9
    monkeypatch.setattr(divdraw, "DRAWING_CAP", 11)
    with pytest.raises(CapExceeded, match="^drawing of 3 panels x 3 labels \\+ total count 3 "
                                          "exceeds the drawing cap 11$"):
        render_svg(cs, word=["Q1", "Q2", "Q3"], cycle=0)
    monkeypatch.setattr(divdraw, "DRAWING_CAP", 17)
    with pytest.raises(CapExceeded, match="^drawing of 9 panels x 1 labels \\+ total count 9 "
                                          "exceeds the drawing cap 17$"):
        render_svg(cs, word=["P"] * 9, cycle=1)
    # at the real cap, labels alone count: the zero divisor and the empty
    # word each draw one strand per label
    monkeypatch.undo()
    wide = CycleStructure([[f"Q{i}" for i in range(10_000)]])
    assert len(strands(render_svg(wide, wide.zero()))) == 10_000
    wider = CycleStructure([[f"Q{i}" for i in range(10_001)]])
    for kwargs in ({"D": wider.zero()}, {"word": []}):
        with pytest.raises(CapExceeded, match="^drawing of 1 panels x 10001 labels \\+ total "
                                              "count 0 exceeds the drawing cap 10000$"):
            render_svg(wider, **kwargs)
    # a refused word builds no panel: 2,000 panels of 500 counts each
    # would take about 8 MB
    cycle_500 = CycleStructure([[f"Q{i}" for i in range(500)]])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="^drawing of 2000 panels x 500 labels \\+ total "
                                              "count 2000 exceeds the drawing cap 10000$"):
            render_svg(cycle_500, word=["Q1"] * 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def test_render_cost_follows_the_drawn_cycle():
    # a panel holds the drawn cycle's counts alone: 1,000 letters beside a
    # 5,000-label cycle draw the same SVG as over the drawn cycle alone, in
    # memory that does not grow with the other cycle (about 40 MB while
    # each panel counted every label of every cycle)
    word = ["Q1"] * 1000
    alone = render_svg(CycleStructure.from_text("Q1>Q2"), word=word, cycle=0)
    wide = CycleStructure([["Q1", "Q2"], [f"P{i}" for i in range(1, 5001)]])
    tracemalloc.start()
    try:
        svg = render_svg(wide, word=word, cycle=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg == alone
    assert peak < 4 * 2**20


def test_render_takes_exactly_one_of_divisor_or_word():
    with pytest.raises(ValueError, match="exactly one"):
        render_svg(CS3)
    with pytest.raises(ValueError, match="exactly one"):
        render_svg(CS3, div("Q1"), word=["Q1"])
    assert render_svg(CS3, word=[]) == render_svg(CS3, CS3.zero())


def test_render_multi_cycle_needs_selection():
    with pytest.raises(ValueError):
        render_svg(MIXED, MIXED.parse_divisor("Q1"))
    svg = render_svg(MIXED, MIXED.parse_divisor("Q1"), cycle=0)
    assert len(strands(svg)) == 3
    with pytest.raises(ValueError):
        render_svg(MIXED, MIXED.parse_divisor("Q1+P"), cycle=0)
    # the second cycle's counts sit after the first cycle's in the tuple
    (strand,) = strands(render_svg(MIXED, MIXED.parse_divisor("2P"), cycle=1))
    assert (strand.get("data-source"), strand.get("data-winding")) == ("P", "2")
