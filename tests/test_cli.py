import io
import json
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import nufact
from nufact import abelian, divcalc, divwords, quatcheck, toracle, tring, zerosum
from nufact.cli import main

SRC = Path(nufact.__file__).resolve().parent.parent
# every realizable divisor of total 11 over Q1>Q2>Q3: 3,003 words, written
# as 120,174 bytes of text or 516,626 bytes of --json
ELEVEN = ["div", "factor", "--cycles", "Q1>Q2>Q3", "4Q1+4Q2+3Q3"]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse: usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_zs_factor_human_output(capsys):
    code, out, _ = run(capsys, "zs", "factor", "--group", "3", "--seq", "1^3 2^3")
    assert code == 0
    assert out == "(1^3) * (2^3)\n(1 2) * (1 2) * (1 2)\n"


def test_zs_lengths_worked_example(capsys):
    code, out, _ = run(capsys, "zs", "lengths", "--group", "3", "--seq", "1^3 2^3")
    assert code == 0
    assert out.strip() == "{2,3}"


def test_zs_atoms_trivial_group(capsys):
    code, out, _ = run(capsys, "zs", "atoms", "--group", "1")
    assert code == 0
    assert out.strip() == "0"


def test_zs_atoms_json(capsys):
    payload = run_json(capsys, "zs", "atoms", "--group", "3")
    assert payload["atoms"] == ["0", "1 2", "1^3", "2^3"]


def test_zs_factor_and_davenport(capsys):
    payload = run_json(capsys, "zs", "factor", "--group", "3", "--seq", "1^3 2^3")
    assert payload["lengths"] == [2, 3]
    assert len(payload["factorizations"]) == 2
    code, out, _ = run(capsys, "zs", "davenport", "--group", "2x2")
    assert code == 0 and out.strip() == "3"


def test_zs_hfwitness(capsys):
    payload = run_json(capsys, "zs", "hfwitness", "--group", "2", "--max-len", "8")
    assert payload["witness"] is None
    payload = run_json(capsys, "zs", "hfwitness", "--group", "3", "--max-len", "6")
    assert payload["witness"] is not None and len(payload["lengths"]) > 1


@pytest.mark.parametrize("spelling", ["", " "])
def test_zs_empty_ground_set(capsys, spelling):
    # an empty --elements is the empty ground set, not the whole group
    code, out, _ = run(capsys, "zs", "atoms", "--group", "3", "--elements", spelling)
    assert (code, out) == (0, "(no atoms)\n")
    code, out, _ = run(capsys, "zs", "hfwitness", "--group", "3", "--max-len", "6",
                       "--elements", spelling)
    assert (code, out) == (0, "no witness up to length 6\n")


@pytest.mark.parametrize("command, length, factor_length", [
    ("factor", 3000, 1500),
    ("lengths", 2400, 1200),
])
def test_zs_long_sequence_without_traceback(capsys, monkeypatch, command, length,
                                           factor_length):
    # the factorization search keeps an explicit stack, so the sequence
    # length is not limited by the interpreter's recursion depth
    monkeypatch.setattr(zerosum, "SEQ_CAP", 5000)
    code, out, err = run(capsys, "--json", "zs", command, "--group", "2",
                         "--seq", f"1^{length}")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["lengths"] == [factor_length]


def test_zs_lengths_over_a_group_above_the_order_cap(capsys, monkeypatch):
    # the order cap bounds `zs atoms`; the factorization search is bounded by
    # the length cap, the budget of its atom search and its own budget
    monkeypatch.setattr(zerosum, "SEQ_CAP", 200)
    code, out, err = run(capsys, "zs", "lengths", "--group", "100", "--seq", "1^100")
    assert (code, out, err) == (0, "{1}\n", "")


@pytest.mark.parametrize("group, seq", [("64", "1 2 3 4 5 6 7 36"), ("1000", "1 2 997")])
def test_zs_lengths_searches_only_the_atoms_that_divide(capsys, group, seq):
    # each sequence is itself an atom; a search for every atom over its
    # support ran to the budget
    code, out, err = run(capsys, "zs", "lengths", "--group", group, "--seq", seq)
    assert (code, out, err) == (0, "{1}\n", "")


def test_zs_atoms_deep_without_traceback(capsys, monkeypatch):
    # the atom search keeps an explicit stack: its one atom here has 1200 entries
    monkeypatch.setattr(zerosum, "GROUP_CAP", 2000)
    code, out, err = run(capsys, "zs", "atoms", "--group", "1200", "--elements", "1")
    assert code == 0 and "Traceback" not in err
    assert out == "1^1200\n"


def test_zs_atoms_stops_at_its_state_budget(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "zs", "atoms", "--group", "64")
    assert time.perf_counter() - start < 10
    assert code == 1 and out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert re.search(r"searched \d+ subset-sum states, found \d+ atoms$", lines[0])


def test_zs_davenport_stops_at_its_state_budget(capsys):
    # the largest order the cap admits is refused at the budget in seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "zs", "davenport", "--group", "64")
    assert time.perf_counter() - start < 10
    assert code == 1 and out == ""
    assert err == ("error: Davenport search over order 64 exceeds its budget: "
                   "searched 2500000 subset-sum states, reached length 5\n")


@pytest.mark.parametrize("argv, progress", [
    (["--group", "64", "--max-len", "24"], r"scanned 50000 candidates, reached length 4$"),
])
def test_zs_hfwitness_stops_at_its_budget(capsys, argv, progress):
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", "zs", "hfwitness", *argv)
    assert time.perf_counter() - start < 10
    assert code == 1 and out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: witness search over order ")
    assert re.search(progress, lines[0])


@pytest.mark.parametrize("argv, code, fragment", [
    # no flag raises or lowers a cap
    (["--cap", "5", "zs", "davenport", "--group", "3"], 2, "usage:"),
    (["zs", "davenport", "--group", "3", "--cap", "5"], 2, "usage:"),
    (["--seed", "5", "--json", "tring", "oracle", "--size", "2", "--max-exp", "1"],
     0, '"seed": 5'),
    (["tring", "oracle", "--size", "2", "--max-exp", "1", "--seed", "5", "--json"],
     0, '"seed": 5'),
    # T(3) with exponents <= 10 fits the oracle's pair budget
    (["tring", "oracle", "--size", "3", "--max-exp", "10"],
     0, "corpus: 284 ideals of T(3), exponents <= 10"),
])
def test_common_flags_before_or_after_subcommand(capsys, argv, code, fragment):
    got, out, err = run(capsys, *argv)
    assert got == code and fragment in out + err


def test_div_compose_worked_example(capsys):
    code, out, _ = run(capsys, "div", "compose", "--cycles", "Q1>Q2>Q3", "Q1", "Q2")
    assert code == 0
    assert out.strip() == "2Q1+Q2"


def test_div_compose_budget_boundary(monkeypatch, capsys):
    # each divisor costs one label step per label, against nine times the
    # word search's budget: at 18 steps, six divisors over three labels are
    # composed, and seven are refused before any divisor is parsed
    monkeypatch.setattr(divcalc, "WORD_SEARCH_BUDGET", 2)
    word = ["Q1", "Q2", "Q3"] * 2
    assert run(capsys, "div", "compose", "--cycles", "Q1>Q2>Q3", *word) == (
        0, "6Q1+5Q2+4Q3\n", "")
    assert run(capsys, "div", "compose", "--cycles", "Q1>Q2>Q3", *word, "R1") == (
        1, "", "error: composing 7 divisors over 3 labels exceeds the budget of 18 "
               "label steps\n")


def test_div_realizable_and_factor(capsys):
    code, out, _ = run(capsys, "div", "realizable", "--cycles", "Q1>Q2>Q3", "2Q1")
    assert code == 0 and out.strip() == "not realizable"
    payload = run_json(capsys, "div", "factor", "--cycles", "Q1>Q2>Q3",
                       "3Q1+2Q2+Q3", "--max-len", "5")
    assert ["Q1", "Q2", "Q3"] in payload["words"]
    assert ["Q2", "Q1", "Q3", "Q2", "Q3"] in payload["words"]


def test_div_factor_long_bound_without_traceback(capsys):
    # the word search runs level by level, so the length bound is not limited
    # by the interpreter's recursion depth
    code, out, err = run(capsys, "div", "factor", "--cycles", "Q1>Q2>Q3",
                         "3Q1+2Q2+Q3", "--max-len", "2000")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: more than 2000000 letters in the words")
    # J = Q1 n Q2 n Q3 is no product of maximal ideals: 2000 levels searched
    payload = run_json(capsys, "div", "factor", "--cycles", "Q1>Q2>Q3", "Q1+Q2+Q3",
                       "--max-len", "2000")
    assert payload["words"] == [] and payload["truncated"]


def test_div_factor_cap_counts_letters(capsys, monkeypatch):
    # Q2 at length bound n has the words Q2^k, k = 1..n: n words, n(n+1)/2 letters
    code, out, err = run(capsys, "div", "factor", "--cycles", "Q1>Q2>Q3", "Q2",
                         "--max-len", "2000")
    assert code == 1 and out == ""
    assert err == ("error: more than 2000000 letters in the words that compose to the "
                   "divisor within length 2000; lower max_len\n")
    # n = 20: 210 letters, the exact boundary of the letter cap
    monkeypatch.setattr(divwords, "LETTER_CAP", 209)
    code, _, err = run(capsys, "div", "factor", "--cycles", "Q1>Q2>Q3", "Q2",
                       "--max-len", "20")
    assert code == 1 and err.startswith("error: more than 209 letters")
    monkeypatch.setattr(divwords, "LETTER_CAP", 210)
    payload = run_json(capsys, "div", "factor", "--cycles", "Q1>Q2>Q3", "Q2",
                       "--max-len", "20")
    assert payload["words"] == [["Q2"] * k for k in range(1, 21)]


class Sink(io.TextIOBase):
    """A text stdout that keeps nothing."""

    def write(self, s):
        return len(s)


def test_div_factor_json_is_streamed(capsys, monkeypatch):
    # the streamed document has the bytes of json.dumps; the first run also
    # loads what the traced run needs.  Building the document in one piece
    # peaked at 4.4 MB.
    code, out, _ = run(capsys, "--json", *ELEVEN)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        code = main(["--json", *ELEVEN])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def test_div_factor_json_builds_no_human_text(monkeypatch):
    # 700 words, Q2 repeated 1 to 700 times: their human text, which --json
    # never prints, took about 1 MiB more
    argv = ["--json", "div", "factor", "--cycles", "Q1>Q2>Q3", "Q2", "--max-len", "700"]
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(argv) == 0  # loads what the traced run needs
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * 2**20


# ten non-zero elements of (Z/2)^4, each twice: 2,052 factorizations
TEN_PAIRS = ("0,0,0,1^2 0,0,1,0^2 0,0,1,1^2 0,1,0,0^2 0,1,0,1^2 0,1,1,0^2 0,1,1,1^2 "
             "1,0,0,0^2 1,0,0,1^2 1,0,1,0^2")


@pytest.mark.parametrize("flags, mib", [([], 1.0), (["--json"], 1.5)], ids=["human", "json"])
def test_zs_factor_builds_only_the_selected_output(monkeypatch, flags, mib):
    # 0.91 MiB (human) and 0.81 MiB (--json); building both outputs whatever
    # the mode, and formatting each part at every occurrence, took 2.21 MiB,
    # and joining the human lines into one string before writing 1.10 MiB
    argv = [*flags, "zs", "factor", "--group", "2x2x2x2", "--seq", TEN_PAIRS]
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(argv) == 0  # loads what the traced run needs
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= mib * 2**20


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
def test_closed_stdout_ends_in_one_error_line(flags):
    # the output is larger than a pipe holds, so the writer meets the
    # closed end; the reader takes one line and goes
    proc = subprocess.Popen([sys.executable, "-m", "nufact.cli", *flags, *ELEVEN],
                            cwd=SRC, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "error: output closed before it was all written\n"


def test_zs_factor_human_output_is_streamed(capsys):
    # one more pair gives 16,692 lines, written in five batches with the
    # bytes of the one string they were once joined into
    seq = TEN_PAIRS + " 1,0,1,1^2"
    code, out, _ = run(capsys, "zs", "factor", "--group", "2x2x2x2", "--seq", seq)
    assert code == 0
    G = abelian.FinAbGroup.from_text("2x2x2x2")
    facts = zerosum.factorizations(G, zerosum.parse_seq(G, seq))
    assert len(facts) == 16692
    assert out == "\n".join(" * ".join(f"({zerosum.format_seq(p)})" for p in F)
                            for F in facts) + "\n"


def test_zs_factor_closed_stdout_ends_in_one_error_line():
    # as test_closed_stdout_ends_in_one_error_line, for the human lines of
    # `zs factor`: 2,052 of them, 354,522 bytes
    proc = subprocess.Popen([sys.executable, "-m", "nufact.cli", "zs", "factor",
                             "--group", "2x2x2x2", "--seq", TEN_PAIRS],
                            cwd=SRC, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "error: output closed before it was all written\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
def test_no_stdout_is_no_error(monkeypatch, flags):
    # a process started with its stdout closed has sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    assert main([*flags, *ELEVEN]) == 0


WHOLE_GROUP_REFUSALS = [
    (["zs", "atoms", "--group", "900000"], "group of order 900000 exceeds cap 64"),
    (["zs", "hfwitness", "--group", "900000", "--max-len", "2"],
     "group of order 900000 exceeds cap 64"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(*case, id=f"argv{i}") for i, case in enumerate(WHOLE_GROUP_REFUSALS)])
def test_zs_whole_group_checks_the_order_cap_first(argv, message, capsys):
    # without --elements the order cap is checked before the ground set is
    # built: the 900,000 elements of Z/900000 alone take over 10 MB.  A first run loads the modules, which is not traced.
    run(capsys, *argv)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert peak < 2**20


HUGE = "99999999999999999999"
ZEROS_250 = "[" + ",".join(["[" + ",".join("0" * 250) + "]"] * 250) + "]"
# each was read as a nearby element while unmatched signs were skipped, or
# (the last three) while a `*` with no digits before it read as 1
MALFORMED_QUADINTS = ["1++w", "1+-w", "w-", "1-", "+", "--", "*w", "1+*w", "-*w"]


@pytest.mark.parametrize("argv, message", [
    (["div", "factor", "--cycles", "Q1", HUGE + "Q1"],
     "the word search exceeds its budget: visited 200000 states, reached length 200000"),
    (["div", "factor", "--cycles", "Q1>Q2>Q3", "Q2", "--max-len", HUGE],
     "the word search exceeds its budget: visited 200000 states, reached length 200000"),
    (["div", "factor", "--cycles", ">".join(f"Q{i}" for i in range(1, 17)),
      "+".join(f"2Q{i}" for i in range(1, 17))],
     "the word search exceeds its budget: 1800000 label steps over 16 labels, "
     "reached length 5"),
    (["div", "factor", "--cycles", ">".join(f"Q{i}" for i in range(1, 1343)),
      "+".join(f"Q{i}" for i in range(1, 1343)), "--max-len", "1"],
     "the word search exceeds its budget: 1800000 label steps over 1342 labels, "
     "reached length 0"),
    (["div", "compose", "--cycles", ">".join(f"Q{i}" for i in range(1, 15_001)),
      *["Q1"] * 150_000],
     "composing 150000 divisors over 15000 labels exceeds the budget of 1800000 label steps"),
    (["div", "render", "--cycles", "Q1>Q2>Q3", "--divisor", HUGE + "Q1", "--out", "fig.svg"],
     f"drawing of 1 panels x 3 labels + total count {HUGE} exceeds the drawing cap 10000"),
    (["div", "render", "--cycles", ">".join(f"Q{i}" for i in range(1, 51)),
      "--word", "*".join(["Q1"] * 2000), "--out", "word.svg"],
     "drawing of 2000 panels x 50 labels + total count 2000 exceeds the drawing cap 10000"),
    (["div", "render", "--cycles", ">".join(f"Q{i}" for i in range(1, 10_002)),
      "--divisor", "0", "--out", "fig.svg"],
     "drawing of 1 panels x 10001 labels + total count 0 exceeds the drawing cap 10000"),
    (["div", "render", "--cycles", ">".join(f"Q{i}" for i in range(1, 10_002)),
      "--word", "", "--out", "word.svg"],
     "drawing of 1 panels x 10001 labels + total count 0 exceeds the drawing cap 10000"),
    (["div", "render", "--cycles", "Q1>Q2>Q3", "--divisor", "Q1", "--out", "missing/fig.svg"],
     "No such file or directory: 'missing/fig.svg'"),
    (["div", "render", "--cycles", "Q1>Q2>Q3", "--word", "Q1", "--out", "."],
     "Is a directory: '.'"),
    (["tring", "oracle", "--size", HUGE], f"size {HUGE} exceeds the oracle's size cap 32"),
    (["tring", "oracle", "--trials", HUGE], f"{HUGE} chain trials exceed cap 100"),
    (["tring", "oracle", "--trials", "-5"], "chain trials must be >= 0"),
    (["tring", "oracle", "--max-exp", "-1"], "max_exp must be >= 0"),
    (["tring", "oracle", "--size", "0"], "triangular order needs size l >= 2"),
    (["tring", "oracle", "--size", "-1"], "triangular order needs size l >= 2"),
    (["tring", "mul", "[" * 100_000], "expected a JSON array of integer rows"),
    (["tring", "mul", *[ZEROS_250] * 8],
     "multiplying 8 matrices of size 250 costs 109375000 steps, over the budget of 10000000"),
    (["tring", "mul", *["[[0,0],[0,0]]"] * 80_000],
     "multiplying 80000 matrices costs at least 2159973000 steps, over the budget of 10000000"),
    (["quad", "atoms", "1000024+1*w"], "norm 1000049000606 exceeds cap 1000000"),
    (["quad", "atoms", "2", "3", "--norm", "4"], "give elements or --norm N, not both"),
    (["quad", "atoms"], "give elements or --norm N"),
    *[(["quad", "norm", "--", text], f"bad element syntax {text!r}; expected forms like '1+1*w'")
      for text in MALFORMED_QUADINTS],
    (["quat", "verify", "--product", "1", "--", "1/(r3-r3)"],
     "zero has no inverse in Q(sqrt(3))"),
    (["quat", "verify", "--product", "1", "--", *["1+i"] * 8000],
     "verifying 8001 texts costs 240010 steps, over the budget of 15000"),
    (["quat", "verify", "--product", "1", "--", *["i"] * 4000],
     "verifying 4001 texts costs 40010 steps, over the budget of 15000"),
    (["quat", "verify", "--product", "1", "--", *["9" * 2000] * 300],
     "verifying 301 texts costs 6000010 steps, over the budget of 15000"),
    (["zs", "lengths", "--group", "3", "--seq", f"1^{HUGE}"],
     f"sequence length {HUGE} exceeds cap 24"),
    (["zs", "lengths", "--group", "64", "--seq",
      "1 63 2 62 3 61 4 60 5 59 6 58 7 57 8 56 9 55 10 54 11 53 12 52"],
     "factorization search of length 24 exceeds its budget: 2500000 candidate atoms, "
     "found 24980 factorizations"),
    (["zs", "lengths", "--group", "3", "--seq", "1^x 2"], "bad multiplicity in '1^x'"),
    (["zs", "factor", "--group", "3", "--seq", "1^"], "bad multiplicity in '1^'"),
    (["zs", "atoms", "--group", "3", "--elements", "^"], "bad multiplicity in '^'"),
    (["zs", "hfwitness", "--group", "3", "--max-len", "6", "--elements", "1^1^1"],
     "bad multiplicity in '1^1^1'"),
    (["zs", "hfwitness", "--group", "3", "--max-len", "-1"], "max_len must be >= 0"),
], ids=["div-factor-huge-count", "div-factor-huge-max-len", "div-factor-16-labels",
        "div-factor-1342-labels", "div-compose-150000-divisors", "div-render-huge-count",
        "div-render-huge-word", "div-render-10001-labels", "div-render-empty-word-10001-labels",
        "div-render-missing-dir", "div-render-onto-dir", "tring-oracle-huge-size",
        "tring-oracle-huge-trials", "tring-oracle-negative-trials",
        "tring-oracle-negative-max-exp", "tring-oracle-size-0", "tring-oracle-size-minus-1",
        "tring-mul-deep-json", "tring-mul-eight-250", "tring-mul-80000-small",
        "quad-atoms-huge-norm",
        "quad-atoms-elements-and-norm", "quad-atoms-neither",
        *[f"quad-norm-malformed-{i}" for i in range(len(MALFORMED_QUADINTS))],
        "quat-zero-divisor", "quat-verify-8000-factors", "quat-verify-4000-letters",
        "quat-verify-300-numerals",
        "zs-lengths-huge-multiplicity", "zs-lengths-z64-walk", "zs-lengths-bad-multiplicity",
        "zs-factor-empty-multiplicity", "zs-atoms-bare-caret", "zs-hfwitness-two-carets",
        "zs-hfwitness-negative-max-len"])
def test_huge_or_malformed_input_is_refused_in_seconds(tmp_path, monkeypatch, capsys,
                                                       argv, message):
    # each of these hung or ended in a traceback before it was bounded
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 1 and out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def test_tring_oracle_prints_a_counterexample(monkeypatch, capsys):
    # human mode writes a failed property's counterexample as JSON
    report = {"corpus_size": 2, "all_pass": False, "properties": {
        "closure": {"pass": True},
        "homomorphism": {"pass": False, "counterexample": {"A": [[0, 1]], "D": [1]}}}}
    monkeypatch.setattr(toracle, "oracle_report", lambda **kwargs: report)
    code, out, _ = run(capsys, "tring", "oracle", "--size", "2")
    assert code == 0
    assert out == ("corpus: 2 ideals of T(2), exponents <= 2\nclosure: pass\n"
                   "homomorphism: FAIL\n"
                   '  counterexample: {"A": [[0, 1]], "D": [1]}\nFAILURES FOUND\n')


def test_tring_oracle_refuses_by_pairs(capsys):
    # T(7) with exponents <= 1 has 1,430 ideals, 2,044,900 pairs; the
    # enumeration stops at the 448th, since 447 ideals give 199,809 of the
    # budget's 200,000 pairs
    start = time.perf_counter()
    code, out, err = run(capsys, "tring", "oracle", "--size", "7", "--max-exp", "1")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == ("error: T(7) with exponents <= 1 has more than 447 ideals; "
                   "the oracle's pair budget 200000 admits at most 447\n")


@pytest.mark.parametrize("argv", [
    ["--size", "9", "--max-exp", "2"],
    ["--size", "32", "--max-exp", "5"],
    ["--size", "3", "--max-exp", str(10**20)],
], ids=["9-2", "32-5", "3-huge-exponent"])
def test_tring_oracle_refuses_large_corpora_in_under_a_second(capsys, argv):
    # (9, 2) has 226,184 ideals; the enumeration stops at the 448th
    start = time.perf_counter()
    code, out, err = run(capsys, "tring", "oracle", *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (f"error: T({argv[1]}) with exponents <= {argv[3]} has more than 447 "
                   "ideals; the oracle's pair budget 200000 admits at most 447\n")


def test_div_render_writes_svg(tmp_path, capsys):
    out_file = tmp_path / "diagram.svg"
    code, _, _ = run(capsys, "div", "render", "--cycles", "Q1>Q2>Q3",
                     "--divisor", "7Q1+6Q2+8Q3", "--out", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("cycles, label", [('A>B"<&', 'B"<&'), ("2Q>Q3", "2Q"),
                                           ("Q 1>Q2", "Q 1"), ("Q1*Q2>Q3", "Q1*Q2")])
def test_div_refuses_labels_no_syntax_can_name(tmp_path, monkeypatch, capsys, cycles, label):
    # `div render` wrote the first into an SVG attribute no XML parser reads
    monkeypatch.chdir(tmp_path)
    for argv in (["div", "render", "--cycles", cycles, "--divisor", "0", "--out", "x.svg"],
                 ["div", "compose", "--cycles", cycles, "0", "0"]):
        assert run(capsys, *argv) == (1, "", f"error: bad label {label!r}: a label is a "
                                             "letter followed by letters, digits or "
                                             "underscores\n")
    assert not (tmp_path / "x.svg").exists()


def test_quad_commands(capsys):
    payload = run_json(capsys, "quad", "factor", "8")
    assert payload["lengths"] == [2, 3]
    payload = run_json(capsys, "quad", "norm", "2", "1+1*w")
    assert [r["norm"] for r in payload["results"]] == [4, 8]
    payload = run_json(capsys, "quad", "atoms", "--norm", "2")
    assert payload["results"] == []
    payload = run_json(capsys, "quad", "atoms", "2", "8")
    assert [r["is_atom"] for r in payload["results"]] == [True, False]


def test_quat_verify(capsys):
    code, out, _ = run(capsys, "quat", "verify", "--product", "1-2i+k",
                       "--", "i+j", "-1-i-k")
    assert code == 0 and out.strip() == "verified"
    code, out, _ = run(capsys, "quat", "verify", "--product", "1-2i+k", "--", "i+j")
    assert code == 0 and out.strip() == "FAILED"


def test_quat_verify_deep_parentheses(capsys):
    # refused as nested deeper than 100 while the parser recursed
    code, out, err = run(capsys, "quat", "verify", "--product", "1",
                         "(" * 5000 + "1" + ")" * 5000)
    assert (code, out, err) == (0, "verified\n", "")


def test_quat_verify_budget_boundary(monkeypatch, capsys):
    # ten steps per character and one per parenthesis, charged before any
    # text is parsed: the README factors cost 150 steps, and "(i)" 12
    args = ["--product", "1-2i+k", "--", "i+j", "-1-i-k"]
    monkeypatch.setattr(quatcheck, "VERIFY_BUDGET", 150)
    assert run(capsys, "quat", "verify", *args) == (0, "verified\n", "")
    monkeypatch.setattr(quatcheck, "VERIFY_BUDGET", 149)
    assert run(capsys, "quat", "verify", *args) == (
        1, "", "error: verifying 3 texts costs 150 steps, over the budget of 149: "
               "10 per character, 1 per parenthesis\n")
    monkeypatch.setattr(quatcheck, "VERIFY_BUDGET", 22)
    assert run(capsys, "quat", "verify", "--product", "i", "--", "(i)") == (
        0, "verified\n", "")
    monkeypatch.setattr(quatcheck, "VERIFY_BUDGET", 21)
    assert run(capsys, "quat", "verify", "--product", "i", "--", "(?)") == (
        1, "", "error: verifying 2 texts costs 22 steps, over the budget of 21: "
               "10 per character, 1 per parenthesis\n")


def test_tring_mul_budget_boundary(monkeypatch, capsys):
    # max(l**3, MUL_FLOOR) steps per product of l x l matrices, charged
    # before any product: the floors before any text is parsed, the excess
    # over them once the first is.  Three 3x3 matrices cost twice the
    # floor, 54,000 steps, and at a floor of 10 twice 27, 54 steps
    A, B = "[[0,1,1],[0,0,1],[0,0,1]]", "[[0,1,1],[0,1,1],[0,0,0]]"
    for floor, cost, size in (27_000, 54_000, ""), (10, 54, " of size 3"):
        monkeypatch.setattr(tring, "MUL_FLOOR", floor)
        monkeypatch.setattr(tring, "MUL_BUDGET", cost)
        assert run_json(capsys, "tring", "mul", A, B, A)["result"] == [
            [0, 1, 1], [0, 1, 1], [0, 1, 1]]
        monkeypatch.setattr(tring, "MUL_BUDGET", cost - 1)
        costs = "costs" if size else "costs at least"
        assert run(capsys, "tring", "mul", A, B, A) == (
            1, "", f"error: multiplying 3 matrices{size} {costs} {cost} steps, over the "
                   f"budget of {cost - 1}\n")
    # a single matrix takes no product
    monkeypatch.setattr(tring, "MUL_BUDGET", 0)
    assert run_json(capsys, "tring", "mul", A)["result"] == [[0, 1, 1], [0, 0, 1], [0, 0, 1]]


def test_tring_commands(capsys):
    payload = run_json(capsys, "tring", "mul",
                       "[[0,1,1],[0,0,1],[0,0,1]]", "[[0,1,1],[0,1,1],[0,0,0]]")
    assert payload["result"] == [[0, 1, 1], [0, 1, 1], [0, 1, 1]]
    payload = run_json(capsys, "tring", "divisor", "[[1,1,1],[0,1,1],[0,0,1]]")
    assert payload["divisor"] == "Q1+Q2+Q3"
    payload = run_json(capsys, "tring", "tau", "[[0,1,1],[0,0,1],[0,0,1]]")
    assert payload["result"] == [[0, 1, 1], [0, 1, 1], [0, 0, 0]]


def test_tring_mul_is_exact_beyond_int64(capsys):
    big = "[[4611686018427387904,1],[0,0]]"
    payload = run_json(capsys, "tring", "mul", big, big)
    assert payload["result"] == [[1, 1], [0, 0]]
    code, out, err = run(capsys, "tring", "mul", "[[9223372036854775808,1],[0,0]]")
    assert code == 0 and "Traceback" not in err
    assert out == "[ (pi^9223372036854775808)  (pi)                     ]\n" \
                  "[ D                         D                        ]\n"
    # the radical J of T(2) times pi^(2^63) is fixed by tau, like J itself
    c = 2**63
    shifted_j = [[c + 1, c + 1], [c, c + 1]]
    payload = run_json(capsys, "tring", "tau", json.dumps(shifted_j))
    assert payload["result"] == shifted_j


def test_tring_divisor_of_huge_entries(capsys):
    # pi^c * T(3) is J^(3c), J = Q1 n Q2 n Q3 of divisor Q1+Q2+Q3, so pi^c
    # times an ideal adds 3c at every label: answered without walking the
    # 3c-per-row chain steps
    for c in (10**6, 2**70):
        pi_c_q1 = [[c, c + 1, c + 1], [c, c, c + 1], [c, c, c + 1]]
        payload = run_json(capsys, "tring", "divisor", json.dumps(pi_c_q1))
        assert payload["divisor"] == f"{3 * c + 1}Q1+{3 * c}Q2+{3 * c}Q3"
    pi_c_q1q2 = [[c, c + 1, c + 1]] * 3
    payload = run_json(capsys, "tring", "divisor", json.dumps(pi_c_q1q2))
    assert payload["divisor"] == f"{3 * c + 2}Q1+{3 * c + 1}Q2+{3 * c}Q3"


def test_tring_divisor_refuses_non_ideal(capsys):
    code, out, err = run(capsys, "tring", "divisor", "[[0,1,1],[0,0,1],[1,0,0]]")
    assert (code, out, err) == (1, "", "error: not an integral ideal\n")


def test_tring_refuses_non_integer_entries(capsys):
    for entry in ("0.5", "true", '"1"'):
        for command in ("mul", "divisor", "tau"):
            code, out, err = run(capsys, "tring", command, f"[[{entry},1],[0,0]]")
            assert code == 1 and out == ""
            assert err.startswith("error:") and "integers" in err


def test_tring_oracle(capsys):
    payload = run_json(capsys, "tring", "oracle", "--size", "2", "--max-exp", "1")
    assert payload["all_pass"]
    code, out, _ = run(capsys, "tring", "oracle")
    assert code == 0 and "all properties pass" in out


def test_domain_errors_exit_1(capsys, monkeypatch):
    code, _, err = run(capsys, "zs", "davenport", "--group", "0")
    assert code == 1 and "error:" in err
    monkeypatch.setattr(zerosum, "GROUP_CAP", 3)
    code, _, err = run(capsys, "zs", "atoms", "--group", "2x2")
    assert code == 1 and "cap" in err
    code, _, err = run(capsys, "div", "factor", "--cycles", "Q1>Q2>Q3", "2Q1")
    assert code == 1
    code, _, err = run(capsys, "div", "render", "--cycles", "Q1>Q2>Q3;P",
                       "--divisor", "Q1", "--out", "/tmp/x.svg")
    assert code == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["zs", "lengths", "--group", "3"])  # missing --seq
    assert exc.value.code == 2


def test_json_output_is_deterministic(capsys):
    one = run(capsys, "--json", "zs", "factor", "--group", "3", "--seq", "1^3 2^3")
    two = run(capsys, "--json", "zs", "factor", "--group", "3", "--seq", "1^3 2^3")
    assert one == two
    three = run(capsys, "zs", "factor", "--group", "3", "--seq", "1^3 2^3", "--json")
    assert three == one
