"""Byte-for-byte pins of the `--json` output of the triangular-order oracle.

`golden/tring.json` holds each command's argv and the exact stdout it gave
when captured by `golden/capture.py`: `tring oracle` at three sizes, the
README `tring divisor` example and `tring divisor` on three deep products of
maximal ideals.  The divisors in it were read off lexicographic chain walks,
so they pin any other way of computing them.
"""

import json
import pathlib

import pytest

from nufact.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "tring.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert [c["name"] for c in CASES] == [
        "oracle-3-2", "oracle-2-10", "oracle-4-1", "divisor-readme",
        "divisor-T3-product-90", "divisor-T4-product-60", "divisor-T5-product-40"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_tring_json_output_matches_golden(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
