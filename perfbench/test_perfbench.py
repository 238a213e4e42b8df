"""Tests of the benchmark itself: its reference arithmetic, its negative
controls and traced.py.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import sys

import pytest

import reference as R
import run
import traced
import workloads


def test_reference_matches_readme_examples():
    # div compose --cycles Q1>Q2>Q3 Q1 Q2  ->  2Q1+Q2
    assert R.format_divisor(R.compose_word(3, [0, 1])) == "2Q1+Q2"
    # div realizable --cycles Q1>Q2>Q3 2Q1  ->  not realizable
    assert not R.is_realizable((2, 0, 0))
    # zs lengths --group 3 --seq "1^3 2^3"  ->  {2,3}
    assert R.length_set((3,), {(1,): 3, (2,): 3}) == {2, 3}
    assert R.davenport_lower((2, 2)) == 3
    # tring mul "[[0,1,1],[0,0,1],[0,0,1]]" "[[0,1,1],[0,1,1],[0,0,0]]", that is Q1*Q2
    q1, q2, _ = R.maximal_ideals(3)
    assert q1 == ((0, 1, 1), (0, 0, 1), (0, 0, 1)) and q2 == ((0, 1, 1), (0, 1, 1), (0, 0, 0))
    assert R.ideal_product(3, [0, 1]) == ((0, 1, 1),) * 3


def test_factor_words_matches_readme_example():
    words, truncated = R.factor_words((3, 2, 1), 5)  # 3Q1+2Q2+Q3
    assert words[0] == (0, 1, 2) and truncated
    assert all(R.compose_word(3, w) == (3, 2, 1) for w in words)


def test_generated_inputs_depend_only_on_seed():
    golden = workloads.load_golden()
    for name, build in workloads.WORKLOADS.items():
        first = [c.argv for c in build(7, golden)]
        assert first == [c.argv for c in build(7, golden)], name
    assert [c.argv for c in workloads.search(7, golden)] != \
        [c.argv for c in workloads.search(8, golden)]


@pytest.fixture(scope="module")
def runner():
    if not (run.SRC / "nufact" / "cli.py").is_file():
        pytest.skip("no nufact sources in this checkout")
    run.WORK.mkdir(exist_ok=True)
    try:
        with run.Runner() as r:
            r.check_program()
            yield r
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def failed_ratio(runner, commands):
    outcomes = [runner.command(c.argv) for c in commands]
    attempted, failures = run.check_all(commands, [outcomes])
    return len(failures) / attempted


def test_true_expectations_pass(runner):
    commands = [workloads.davenport_command("16", 16),
                workloads.tring_divisor_command(3, [0, 1, 1, 2, 0]),
                workloads.div_factor_command((2, 2, 3)),
                workloads.Command(workloads.REFUSED_INPUT, workloads.refused_ok)]
    assert failed_ratio(runner, commands) == 0


def test_wrong_davenport_counts_as_failed(runner):
    assert failed_ratio(runner, [workloads.davenport_command("16", 15)]) == 1


def test_wrong_composition_counts_as_failed(runner, monkeypatch):
    # adding divisors instead of composing them: Q1*Q2 would be Q1+Q2, not 2Q1+Q2
    monkeypatch.setattr(R, "compose", lambda d, e: tuple(a + b for a, b in zip(d, e)))
    commands = [workloads.tring_divisor_command(3, [0, 1]),
                workloads.div_factor_command((2, 2, 3))]
    assert failed_ratio(runner, commands) == 1


def test_traced_run_counts_nested_calls(runner):
    outcome = runner.command(["--json", "div", "compose", "--cycles", "Q1>Q2>Q3",
                              "Q1", "Q2", "Q3"], trace=True)
    assert outcome.code == 0 and outcome.out.startswith("{")
    records = outcome.trace["records"]
    calls, total, self_s, errors = records["divcalc.compose"]
    assert calls == 2 and errors == 0 and 0 < self_s < total
    assert records["divcalc.apply_lifted"][0] == 2 * 4 * 3
    assert records["cli.main"][1] >= total
    assert outcome.trace["absent"] == []


def test_install_reports_absent_functions_and_patches_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import nufact.divcalc
    import nufact.tring
    monkeypatch.setattr(traced, "LAYERS", {"divcalc": ["compose", "no_such_function"]})
    original = nufact.divcalc.compose
    monkeypatch.setattr(nufact.divcalc, "compose", original)
    monkeypatch.setattr(nufact.tring, "compose", original)
    tracer = traced.Tracer()
    assert traced.install(tracer) == ["divcalc.no_such_function"]
    assert nufact.tring.compose is nufact.divcalc.compose is not original
    cs = nufact.divcalc.CycleStructure.from_text("Q1>Q2>Q3")
    nufact.tring.compose(cs, cs.indicator("Q1"), cs.indicator("Q2"))
    assert tracer.records["divcalc.compose"][0] == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
