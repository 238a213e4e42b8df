"""Byte-for-byte pins of the output of the CLI and of the diagram demo.

The JSON files in `golden/` hold each command's argv, the exact stdout it
gave when captured by `golden/capture.py`, and the text of any file it
wrote.

- `tring.json`: `tring oracle` at four sizes, the largest of them, T(3)
  with exponents up to 10, also in human mode; at T(3) with exponents up
  to 3 and 4, with `--seed 1 --trials 100` at T(2) up to 10 and T(4) up
  to 1, and at the edge corpora: the ring alone, T(32) up to 0 and T(2) up
  to 0 with `--trials 0`, T(5) up to 1 (132 ideals) and T(2) up to 50 (299
  ideals), and the largest corpora the pair budget admits, T(2) up to 74
  (443 ideals), T(3) up to 15 (434) and T(6) up to 1 (429), each in human
  mode and with `--json`; the README `tring divisor`
  example and `tring divisor` on three deep products of maximal ideals;
  `tring tau` on those products, and `tring tau` and `tring divisor` on an
  ideal of each of T(8) to T(12) with every entry at least 3, human and
  with `--json`; and the refusal of a non-ideal by `tring divisor` and by
  `tring tau`, with its exit code and stderr.  The divisors in it were
  read off lexicographic chain walks, so they pin any other way of
  computing them.  The `tau` pins and the refusals were captured while
  the ideal check and tau still took min-plus products, the double left
  dual for tau, so they pin the closure rule and the index rotation that
  replaced them.  T(3) up to 10 was captured from the older
  enumeration over a box of candidate matrices, so it pins the one that
  replaced it.  The extra sizes and seeds were captured while each chain
  step still formed l full products and each corpus product was keyed by
  its matrix, so they pin the shared step product and the integer keys
  that replaced them.  The edge corpora were captured while each property
  of the report was still a loop with its own break and guard, so they pin
  the generators of counterexamples that replaced them.  The largest
  corpora were captured while the homomorphism loop still wrote its own
  copy of the composition formula, so they pin `divcalc.composer`, which
  replaced it.
- `zs.json`: `zs atoms` and `zs davenport` on fifteen small groups, `zs
  davenport` on nine larger ones (up to order 32), `zs atoms` on ten larger
  ones (up to order 24) and on ground sets in Z/24 and Z/64, `zs factor` and
  `zs lengths` on seeded zero-sum sequences over five cyclic groups, 2x4 and
  2x2x2x2, `zs factor` on the same sequences in human mode, the README
  `zs hfwitness` example and `zs atoms` on a restricted ground set.  The
  Davenport constants and the atoms in it were read off an atom search over
  sets of coordinate tuples, so they pin the bitmask searches that replaced
  it.  The `zs factor` pins over 2x4 and 2x2x2x2 and in human mode were
  captured while the zero-sum and the Z[w] factorization walks were still
  two copies, so they pin the shared walk that replaced them.
- `readme.json`: every `nufact` example in README.md, in human mode and
  with `--json`, and the SVG files the two `div render` examples write.
- `div.json`: `div factor` with its default length bound on seeded
  realizable divisors over a 3-cycle, a 4-cycle and a 3-cycle beside a
  1-cycle, and with an explicit bound on four divisors whose words repeat
  idempotent letters and span three or more lengths, three of them
  truncated, in human mode and with `--json`; then the SVG files of
  eighteen `div render` commands: strands of windings 0 to 3 on a 4- and a
  5-cycle, a 1-label cycle, the zero divisor, the second cycle of two, the
  empty word and words that repeat letters, and over the cycles
  Q1>Q2>Q3;P1>P2 a word, a divisor and the empty word drawn from either
  cycle, the empty word also with `--json`.  The bounded `div factor` and
  the first twelve `div render` pins were captured while the word search
  was still a depth-first walk sorted by length and each strand was still
  cut at its wraps by a helper, so they pin the level-by-level listing and
  the piece-per-winding drawing that replaced them.  The six renders over
  two cycles were captured while each word panel was still a count tuple
  over every label of every cycle, so they pin the panels of the drawn
  cycle's counts alone that replaced them.
- `quad.json`: `quad factor` on ten elements, among them elements with
  several factorizations and norms up to 10^6 (720, 840, 998, 1000), and
  `quad atoms --norm` on eight norms, in human mode and with `--json`.  They
  were captured while `element_factorizations` still trial-divided by every
  norm up to N(x), so they pin the divisor-pair scan that replaced it.
- `usage.json`: the top-level help, the 5 family helps and the 17 leaf
  helps, and usage errors: no family, an unknown family, each family with
  no leaf or an unknown one, missing and malformed arguments and an extra
  one.  Each has its exit code, stdout and stderr, at 80 columns.  They were
  captured while every command still built the parsers of all five
  families, so they pin the per-family parsers that replaced them.
- `spellings.json`: spellings that argparse reads and the plain-shape
  parser leaves to it, `--group=2x2`, the abbreviation `--gro 2x2`,
  `--max-exp=1` and `--json` between two `tring mul` matrices, each with
  its exit code, stdout and stderr.  They were captured while argparse
  still read every command line, so they pin the fallback to it.
- `divisor_diagrams.out`: the stdout of `demos/divisor_diagrams.py`, and
  `zero_sum_sequences.out`, `quadratic_order.out`,
  `quaternion_identities.out` and `triangular_oracle.out` likewise for the
  other four demos.

The README, `div` and diagram demo pins were captured while divisors were
still label-to-count maps, so they pin the count tuples that replaced them.
The other four demo pins were captured while group elements were still
objects wrapping their coordinates, so they pin the plain coordinate tuples
that replaced them.
The zero-sum pins in `zs.json`, `readme.json`, `zero_sum_sequences.out` and
`quadratic_order.out` were captured while a sequence was still a wrapper
object around a multiplicity map, so they pin the tuples of (element,
multiplicity) pairs that replaced it.
"""

import json
import pathlib
import runpy
import shutil

import pytest

from nufact import cli
from nufact.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DEMOS = GOLDEN.parents[1] / "demos"


def load(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


TRING, ZS, README, DIV, QUAD, USAGE, SPELLINGS = map(load, (
    "tring.json", "zs.json", "readme.json", "div.json", "quad.json", "usage.json",
    "spellings.json"))


def test_golden_covers_every_command():
    assert [c["name"] for c in TRING] == [
        "oracle-3-2", "oracle-2-10", "oracle-4-1", "oracle-3-10", "oracle-3-10-human",
        "oracle-3-3-human", "oracle-3-3", "oracle-3-4-human", "oracle-3-4",
        "oracle-2-10-seed1-trials100-human", "oracle-2-10-seed1-trials100",
        "oracle-4-1-seed1-trials100-human", "oracle-4-1-seed1-trials100",
        "oracle-32-0-human", "oracle-32-0", "oracle-2-0-trials0-human", "oracle-2-0-trials0",
        "oracle-5-1-human", "oracle-5-1", "oracle-2-50-human", "oracle-2-50",
        "oracle-2-74-human", "oracle-2-74", "oracle-3-15-human", "oracle-3-15",
        "oracle-6-1-human", "oracle-6-1",
        "divisor-readme",
        "divisor-T3-product-90", "divisor-T4-product-60", "divisor-T5-product-40",
        *[f"{name}{mode}" for name in ("tau-T3-product-90", "tau-T4-product-60",
                                       "tau-T5-product-40")
          for mode in ("", "-json")],
        *[f"{cmd}-T{l}-deep{mode}" for l in range(8, 13) for cmd in ("tau", "divisor")
          for mode in ("", "-json")],
        "divisor-non-ideal", "tau-non-ideal"]
    assert [c.get("exit", 0) for c in TRING] == [0] * 57 + [1, 1]
    # 51 `zs atoms` and `zs davenport` cases before them, then 7 `zs factor`
    # and 7 `zs lengths` cases with --json, the same 7 `zs factor` cases in
    # human mode, and the two below
    assert len(ZS) == 74
    assert [c["name"] for c in ZS][-2:] == ["hfwitness-readme", "atoms-12-elements"]
    # 19 README examples, each in human mode and with --json
    assert len(README) == 38
    assert [c["name"] for c in README if "files" in c] == [
        "div-render-1", "div-render-1-json", "div-render-2", "div-render-2-json"]
    # 6 default-bound and 4 bounded `div factor` cases, each human and
    # --json, then 17 `div render` cases in human mode and one with --json,
    # each writing one SVG file
    assert [("files" in c, c["name"].startswith("render-")) for c in DIV] == (
        [(False, False)] * 20 + [(True, True)] * 18)
    assert DIV[-1]["name"] == "render-2-cycles-empty-word-cycle-1-json"
    # 10 `quad factor` and 8 `quad atoms --norm` cases, each human and --json
    assert len(QUAD) == 36
    assert [c["name"] for c in QUAD][-2:] == ["atoms-norm-72", "atoms-norm-72-json"]
    # 23 helps, exit 0, and 21 usage errors, exit 2
    assert [c["exit"] for c in USAGE] == [0] * 23 + [2] * 21
    # three spellings argparse reads, and one it refuses
    assert [c["exit"] for c in SPELLINGS] == [0, 0, 0, 2]


@pytest.mark.parametrize("case", TRING, ids=lambda c: c["name"])
def test_tring_json_output_matches_golden(case, capsys):
    assert main(case["argv"]) == case.get("exit", 0)
    assert capsys.readouterr() == (case["stdout"], case.get("stderr", ""))


@pytest.mark.parametrize("case", ZS, ids=lambda c: c["name"])
def test_zs_json_output_matches_golden(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def check_case(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
    files = case.get("files", {})
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, text in files.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("case", README, ids=lambda c: c["name"])
def test_readme_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    check_case(case, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("case", DIV, ids=lambda c: c["name"])
def test_div_factor_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    check_case(case, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("case", QUAD, ids=lambda c: c["name"])
def test_quad_output_matches_golden(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", USAGE, ids=lambda c: c["name"])
def test_help_and_usage_errors_match_golden(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    assert exc.value.code == case["exit"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


@pytest.mark.parametrize("case", SPELLINGS, ids=lambda c: c["name"])
def test_spellings_only_argparse_reads_match_golden(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._plain(case["argv"]) is None
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    assert code == case["exit"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


def test_divisor_diagrams_demo_output(tmp_path, capsys):
    # a copy of the demo writes its SVG files next to itself, in tmp_path
    runpy.run_path(shutil.copy(DEMOS / "divisor_diagrams.py", tmp_path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / "divisor_diagrams.out").read_text(
        encoding="utf-8")
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
        "divisor_7Q1_6Q2_8Q3.svg", "divisor_Q1.svg", "divisor_Q1_Q2_Q3.svg",
        "word_Q1_Q2_Q3.svg"]
    # the demo draws the two README render examples too
    svgs = {name: text for c in README for name, text in c.get("files", {}).items()}
    assert (tmp_path / "divisor_7Q1_6Q2_8Q3.svg").read_text() == svgs["fig.svg"]
    assert (tmp_path / "word_Q1_Q2_Q3.svg").read_text() == svgs["word.svg"]


@pytest.mark.parametrize("name", ["zero_sum_sequences", "quadratic_order",
                                  "quaternion_identities", "triangular_oracle"])
def test_demo_output(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
