"""Capture the `--json` stdout pinned by tests/test_golden.py.

Writes tring.json next to this file: each command's name, argv and exact
stdout.  Recapture only for an intended output change:

    PYTHONPATH=src python tests/golden/capture.py
"""

import contextlib
import io
import json
import pathlib
import random
import sys

from nufact import tring
from nufact.cli import main

OUT = pathlib.Path(__file__).resolve().parent / "tring.json"

ORACLE_SIZES = [(3, 2), (2, 10), (4, 1)]
# (ring size, number of maximal-ideal factors, word seed)
DEEP_PRODUCTS = [(3, 90, 3), (4, 60, 4), (5, 40, 5)]


def argvs():
    """(name, argv) of every pinned command."""
    out = [(f"oracle-{l}-{e}",
            ["--json", "tring", "oracle", "--size", str(l), "--max-exp", str(e)])
           for l, e in ORACLE_SIZES]
    out.append(("divisor-readme",
                ["--json", "tring", "divisor", "[[1,1,1],[0,1,1],[0,0,1]]"]))
    for l, k, seed in DEEP_PRODUCTS:
        rng = random.Random(seed)
        maxi = tring.maximal_ideals(l)
        A = tring.ring_matrix(l)
        for _ in range(k):
            A = tring.mul(A, maxi[rng.randrange(l)])
        text = json.dumps([list(row) for row in A], separators=(",", ":"))
        out.append((f"divisor-T{l}-product-{k}", ["--json", "tring", "divisor", text]))
    return out


def capture():
    cases = []
    for name, argv in argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(argv) != 0:
                sys.exit(f"capture failed: {argv}")
        cases.append({"name": name, "argv": argv, "stdout": buf.getvalue()})
    OUT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
