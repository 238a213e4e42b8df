"""Byte-for-byte pins of the `--json` output of the CLI.

`golden/tring.json` and `golden/zs.json` hold each command's argv and the
exact stdout it gave when captured by `golden/capture.py`.

- `tring.json`: `tring oracle` at three sizes, the README `tring divisor`
  example and `tring divisor` on three deep products of maximal ideals.  The
  divisors in it were read off lexicographic chain walks, so they pin any
  other way of computing them.
- `zs.json`: `zs atoms` and `zs davenport` on fifteen small groups, `zs
  davenport` on nine larger ones (up to order 32), `zs atoms` on ten larger
  ones (up to order 24) and on ground sets in Z/24 and Z/64, `zs factor` and
  `zs lengths` on seeded zero-sum sequences over cyclic groups, the README
  `zs hfwitness` example and `zs atoms` on a restricted ground set.  The
  Davenport constants and the atoms in it were read off an atom search over
  sets of coordinate tuples, so they pin the bitmask searches that replaced
  it.
"""

import json
import pathlib

import pytest

from nufact.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TRING = json.loads((GOLDEN / "tring.json").read_text(encoding="utf-8"))
ZS = json.loads((GOLDEN / "zs.json").read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert [c["name"] for c in TRING] == [
        "oracle-3-2", "oracle-2-10", "oracle-4-1", "divisor-readme",
        "divisor-T3-product-90", "divisor-T4-product-60", "divisor-T5-product-40"]
    assert len(ZS) == 63
    assert [c["name"] for c in ZS][-2:] == ["hfwitness-readme", "atoms-12-elements"]


@pytest.mark.parametrize("case", TRING, ids=lambda c: c["name"])
def test_tring_json_output_matches_golden(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", ZS, ids=lambda c: c["name"])
def test_zs_json_output_matches_golden(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
