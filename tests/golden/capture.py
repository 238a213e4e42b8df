"""Capture the `--json` stdout pinned by tests/test_golden.py.

Writes tring.json and zs.json next to this file: each command's name, argv
and exact stdout.  Recapture only for an intended output change:

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

HERE = pathlib.Path(__file__).resolve().parent

ORACLE_SIZES = [(3, 2), (2, 10), (4, 1)]
# (ring size, number of maximal-ideal factors, word seed)
DEEP_PRODUCTS = [(3, 90, 3), (4, 60, 4), (5, 40, 5)]

ZS_GROUPS = ["1", "2", "3", "4", "5", "6", "7", "8", "10", "12",
             "2x2", "2x4", "3x3", "2x2x2", "2x2x2x2"]
# larger groups pinned for `zs davenport` only
DAVENPORT_GROUPS = ["16", "18", "2x8", "4x4", "3x6", "2x2x4", "24", "3x3x3",
                    "2x2x2x2x2"]
# larger groups pinned for `zs atoms`; 4x2 keeps its moduli out of
# invariant-factor order
ATOMS_GROUPS = ["16", "18", "20", "24", "2x8", "4x4", "3x6", "2x2x4", "4x2", "3x2x2"]
# (group, ground set) for `zs atoms --elements`
ATOMS_ELEMENTS = [("24", "0 1 5 7 11"), ("64", "1 63 8")]
# (cyclic modulus, sequence length, seed) for `zs factor` and `zs lengths`
ZS_FACTOR_SEQS = [(3, 9, 1), (4, 10, 2), (6, 10, 3), (12, 10, 4), (16, 10, 5)]
ZS_LENGTH_SEQS = [(3, 18, 11), (4, 18, 12), (6, 18, 13), (12, 16, 14), (16, 16, 15)]


def tring_argvs():
    """(name, argv) of every pinned `tring` command."""
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


def zero_sum_text(n: int, length: int, seed: int) -> str:
    """A seeded zero-sum sequence over Z/n: length - 1 random entries and
    the one entry that closes the sum."""
    rng = random.Random(seed)
    entries = [rng.randrange(n) for _ in range(length - 1)]
    entries.append(-sum(entries) % n)
    return " ".join(str(x) for x in sorted(entries))


def zs_argvs():
    """(name, argv) of every pinned `zs` command."""
    out = []
    for g in ZS_GROUPS:
        out.append((f"atoms-{g}", ["--json", "zs", "atoms", "--group", g]))
        out.append((f"davenport-{g}", ["--json", "zs", "davenport", "--group", g]))
    for g in DAVENPORT_GROUPS:
        out.append((f"davenport-{g}", ["--json", "zs", "davenport", "--group", g]))
    for g in ATOMS_GROUPS:
        out.append((f"atoms-{g}", ["--json", "zs", "atoms", "--group", g]))
    for g, elements in ATOMS_ELEMENTS:
        out.append((f"atoms-{g}-elements",
                    ["--json", "zs", "atoms", "--group", g, "--elements", elements]))
    for cmd, seqs in (("factor", ZS_FACTOR_SEQS), ("lengths", ZS_LENGTH_SEQS)):
        for n, length, seed in seqs:
            out.append((f"{cmd}-{n}-{length}-seed{seed}",
                        ["--json", "zs", cmd, "--group", str(n),
                         "--seq", zero_sum_text(n, length, seed)]))
    out.append(("hfwitness-readme",
                ["--json", "zs", "hfwitness", "--group", "4", "--max-len", "8"]))
    out.append(("atoms-12-elements",
                ["--json", "zs", "atoms", "--group", "12", "--elements", "1 5 7"]))
    return out


GOLDEN_FILES = {"tring.json": tring_argvs, "zs.json": zs_argvs}


def capture():
    for filename, argvs in GOLDEN_FILES.items():
        cases = []
        for name, argv in argvs():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if main(argv) != 0:
                    sys.exit(f"capture failed: {argv}")
            cases.append({"name": name, "argv": argv, "stdout": buf.getvalue()})
        (HERE / filename).write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
