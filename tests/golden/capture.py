"""Capture the output pinned by tests/test_golden.py.

Writes tring.json, zs.json, readme.json, div.json and quad.json next to
this file:
each command's name, argv and exact stdout, and the text of every file the
command writes into its working directory.  Writes usage.json: the help
texts and usage errors, each with its exit code, stdout and stderr, at a
terminal width of 80 columns, and spellings.json likewise for spellings of
options that argparse reads but the plain-shape parser leaves to it.  Also
writes the stdout of each script in DEMOS to <name>.out, e.g.
divisor_diagrams.out.  Recapture only for an intended output change:

    PYTHONPATH=src python tests/golden/capture.py
"""

import collections
import contextlib
import io
import json
import os
import pathlib
import random
import runpy
import shlex
import shutil
import sys
import tempfile

from nufact import tring
from nufact.cli import main

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEMOS = ["divisor_diagrams", "zero_sum_sequences", "quadratic_order",
         "quaternion_identities", "triangular_oracle"]

# (3, 10), 284 ideals, is the largest of them; ORACLE_EXTRA holds larger ones
ORACLE_SIZES = [(3, 2), (2, 10), (4, 1), (3, 10)]
# (name, oracle flags), each in human mode and with --json: two more
# sizes, a non-default seed with the most chain trials, and the edge
# corpora: the ring alone (exponents <= 0), with no chain trials too, 132
# ideals of T(5), 299 of T(2), and the largest corpora the pair budget
# admits: 443 ideals of T(2), 434 of T(3) and 429 of T(6)
ORACLE_EXTRA = [
    ("3-3", ["--size", "3", "--max-exp", "3"]),
    ("3-4", ["--size", "3", "--max-exp", "4"]),
    ("2-10-seed1-trials100", ["--size", "2", "--max-exp", "10", "--seed", "1", "--trials", "100"]),
    ("4-1-seed1-trials100", ["--size", "4", "--max-exp", "1", "--seed", "1", "--trials", "100"]),
    ("32-0", ["--size", "32", "--max-exp", "0"]),
    ("2-0-trials0", ["--size", "2", "--max-exp", "0", "--trials", "0"]),
    ("5-1", ["--size", "5", "--max-exp", "1"]),
    ("2-50", ["--size", "2", "--max-exp", "50"]),
    ("2-74", ["--size", "2", "--max-exp", "74"]),
    ("3-15", ["--size", "3", "--max-exp", "15"]),
    ("6-1", ["--size", "6", "--max-exp", "1"]),
]
# (ring size, number of maximal-ideal factors, word seed)
DEEP_PRODUCTS = [(3, 90, 3), (4, 60, 4), (5, 40, 5)]
# ring sizes of the deep ideals, each reached by a walk seeded by its size
DEEP_WALKS = range(8, 13)
# (name, argv) of the non-ideals `tring divisor` and `tring tau` refuse; the
# second breaks only the two bounds across the wrap
TRING_REFUSALS = [
    ("divisor-non-ideal", ["tring", "divisor", "[[0,1,1],[0,0,1],[1,0,0]]"]),
    ("tau-non-ideal", ["tring", "tau", "[[0,1,2],[0,0,1],[0,0,0]]"]),
]

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
# (group, sequence length, seed) for `zs factor` and `zs lengths`; `zs
# factor` is pinned in human mode too
ZS_FACTOR_SEQS = [("3", 9, 1), ("4", 10, 2), ("6", 10, 3), ("12", 10, 4), ("16", 10, 5),
                  ("2x4", 10, 6), ("2x2x2x2", 10, 7)]
ZS_LENGTH_SEQS = [("3", 18, 11), ("4", 18, 12), ("6", 18, 13), ("12", 16, 14), ("16", 16, 15),
                  ("2x4", 18, 16), ("2x2x2x2", 16, 17)]


def tring_argvs():
    """(name, argv) of every pinned `tring` command."""
    out = [(f"oracle-{l}-{e}",
            ["--json", "tring", "oracle", "--size", str(l), "--max-exp", str(e)])
           for l, e in ORACLE_SIZES]
    out.append(("oracle-3-10-human", ["tring", "oracle", "--size", "3", "--max-exp", "10"]))
    for name, argv in ORACLE_EXTRA:
        argv = ["tring", "oracle", *argv]
        out += [(f"oracle-{name}-human", argv), (f"oracle-{name}", ["--json", *argv])]
    out.append(("divisor-readme",
                ["--json", "tring", "divisor", "[[1,1,1],[0,1,1],[0,0,1]]"]))
    for l, k, seed in DEEP_PRODUCTS:
        text = matrix_text(deep_product(l, k, seed))
        out.append((f"divisor-T{l}-product-{k}", ["--json", "tring", "divisor", text]))
    return out


def matrix_text(A) -> str:
    return json.dumps([list(row) for row in A], separators=(",", ":"))


def deep_product(l: int, k: int, seed: int):
    """The product of k seeded random maximal ideals of T(l)."""
    rng = random.Random(seed)
    maxi = tring.maximal_ideals(l)
    A = tring.ring_matrix(l)
    for _ in range(k):
        A = tring.mul(A, maxi[rng.randrange(l)])
    return A


def deep_walk(l: int):
    """An ideal of T(l) with every entry at least 3: from the ring, raise a
    random entry by one whenever the raised matrix is still an ideal."""
    rng = random.Random(l)
    A = [list(row) for row in tring.ring_matrix(l)]
    while min(map(min, A)) < 3:
        i, j = rng.randrange(l), rng.randrange(l)
        A[i][j] += 1
        if not tring.is_ideal(A):
            A[i][j] -= 1
    return A


def tau_argvs():
    """(name, argv) of every pinned `tring tau` and deep `tring divisor`
    command: tau of the products of DEEP_PRODUCTS, and tau and divisor of
    each deep walk, human and --json."""
    out = [(f"tau-T{l}-product-{k}", ["tring", "tau", matrix_text(deep_product(l, k, seed))])
           for l, k, seed in DEEP_PRODUCTS]
    for l in DEEP_WALKS:
        text = matrix_text(deep_walk(l))
        out += [(f"tau-T{l}-deep", ["tring", "tau", text]),
                (f"divisor-T{l}-deep", ["tring", "divisor", text])]
    return [case for name, argv in out
            for case in ((name, argv), (f"{name}-json", ["--json"] + argv))]


def zero_sum_text(group: str, length: int, seed: int) -> str:
    """A seeded zero-sum sequence over a group such as "12" or "2x4":
    length - 1 random entries and the one entry that closes the sum."""
    rng = random.Random(seed)
    moduli = [int(n) for n in group.split("x")]
    entries = [tuple(rng.randrange(n) for n in moduli) for _ in range(length - 1)]
    entries.append(tuple(-sum(column) % n for column, n in zip(zip(*entries), moduli)))
    return " ".join(",".join(map(str, x)) for x in sorted(entries))


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
        for g, length, seed in seqs:
            out.append((f"{cmd}-{g}-{length}-seed{seed}",
                        ["--json", "zs", cmd, "--group", g,
                         "--seq", zero_sum_text(g, length, seed)]))
    for g, length, seed in ZS_FACTOR_SEQS:
        out.append((f"factor-{g}-{length}-seed{seed}-human",
                    ["zs", "factor", "--group", g, "--seq", zero_sum_text(g, length, seed)]))
    out.append(("hfwitness-readme",
                ["--json", "zs", "hfwitness", "--group", "4", "--max-len", "8"]))
    out.append(("atoms-12-elements",
                ["--json", "zs", "atoms", "--group", "12", "--elements", "1 5 7"]))
    return out


def readme_argvs():
    """(name, argv) of every `nufact` example in README.md, in human mode
    and then with --json."""
    out = []
    seen = collections.Counter()
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("nufact "):
            argv = shlex.split(line, comments=True)[1:]
            seen[argv[0], argv[1]] += 1
            name = f"{argv[0]}-{argv[1]}-{seen[argv[0], argv[1]]}"
            out += [(name, argv), (f"{name}-json", ["--json"] + argv)]
    return out


# (cycles, seed) for `div factor` on a seeded realizable divisor
DIV_FACTOR_SEEDS = [("Q1>Q2>Q3", 3), ("Q1>Q2>Q3", 4), ("Q1>Q2>Q3>Q4", 1),
                    ("Q1>Q2>Q3>Q4", 7), ("Q1>Q2>Q3;P", 1), ("Q1>Q2>Q3;P", 7)]


def realizable_divisor_text(cycles: str, seed: int) -> str:
    """A seeded divisor with counts 0..2 whose count drops by at most one
    along each cycle step, in the `2Q1+Q3` syntax."""
    rng = random.Random(seed)
    cycs = [c.split(">") for c in cycles.split(";")]
    while True:
        counts = [[rng.randrange(3) for _ in c] for c in cycs]
        if all(c[(i + 1) % len(c)] >= c[i] - 1 for c in counts for i in range(len(c))):
            break
    terms = [f"{n}{p}" if n > 1 else p
             for cyc, cc in zip(cycs, counts) for p, n in zip(cyc, cc) if n]
    return "+".join(terms) or "0"


# (cycles, divisor, max_len) for `div factor` with an explicit length
# bound: idempotent letters repeat and the words span three or more lengths
DIV_FACTOR_BOUNDED = [("Q1>Q2>Q3", "Q2", 6), ("Q1>Q2>Q3", "Q1+Q2", 5),
                      ("Q1>Q2>Q3;P", "Q1+P", 4), ("Q1>Q2>Q3>Q4", "2Q1+Q2+Q4", 6)]
# (name, `div render` flags): strands of windings 0 to 3 on a 4- and a
# 5-cycle, some ending exactly where a level ends; a 1-label cycle; the
# zero divisor; the second cycle of two; the empty word and a word that
# repeats letters; then words, the empty word and divisors drawn from each
# cycle of two that both hold more than one label
DIV_RENDERS = [
    ("4-cycle-windings-0-3", ["--cycles", "Q1>Q2>Q3>Q4", "--divisor", "Q1+5Q2+9Q3+12Q4"]),
    ("4-cycle-level-ends", ["--cycles", "Q1>Q2>Q3>Q4", "--divisor", "4Q1+3Q2+2Q3+Q4"]),
    ("4-cycle-realizable", ["--cycles", "Q1>Q2>Q3>Q4", "--divisor", "3Q1+2Q2+2Q3+Q4"]),
    ("5-cycle-windings-0-3", ["--cycles", "Q1>Q2>Q3>Q4>Q5",
                              "--divisor", "Q1+5Q2+10Q3+15Q4+7Q5"]),
    ("5-cycle-three-levels", ["--cycles", "Q1>Q2>Q3>Q4>Q5", "--divisor", "15Q1+14Q2"]),
    ("5-cycle-realizable", ["--cycles", "Q1>Q2>Q3>Q4>Q5",
                            "--divisor", "3Q1+2Q2+Q3+Q4+2Q5"]),
    ("1-cycle", ["--cycles", "Q", "--divisor", "3Q"]),
    ("zero", ["--cycles", "Q1>Q2>Q3", "--divisor", "0"]),
    ("second-cycle", ["--cycles", "Q1>Q2>Q3;P", "--divisor", "2P", "--cycle", "1"]),
    ("empty-word", ["--cycles", "Q1>Q2>Q3", "--word", ""]),
    ("word-repeats", ["--cycles", "Q1>Q2>Q3", "--word", "Q1*Q1*Q2*Q3*Q3"]),
    ("1-cycle-word", ["--cycles", "Q", "--word", "Q*Q"]),
    ("2-cycles-word-cycle-1", ["--cycles", "Q1>Q2>Q3;P1>P2", "--word", "P1*P2*P2",
                               "--cycle", "1"]),
    ("2-cycles-word-cycle-0", ["--cycles", "Q1>Q2>Q3;P1>P2", "--word", "Q1*Q3*Q3",
                               "--cycle", "0"]),
    ("2-cycles-empty-word-cycle-1", ["--cycles", "Q1>Q2>Q3;P1>P2", "--word", "",
                                     "--cycle", "1"]),
    ("2-cycles-divisor-cycle-1", ["--cycles", "Q1>Q2>Q3;P1>P2", "--divisor", "2P1+P2",
                                  "--cycle", "1"]),
    ("2-cycles-divisor-cycle-0", ["--cycles", "Q1>Q2>Q3;P1>P2", "--divisor", "Q1+2Q3",
                                  "--cycle", "0"]),
]


def div_argvs():
    """(name, argv) of every pinned `div` command: `div factor`, human and
    --json, with the default and with an explicit length bound, then `div
    render` in human mode, writing out.svg, and one `div render` of the
    empty word with --json."""
    out = []
    for cycles, seed in DIV_FACTOR_SEEDS:
        argv = ["div", "factor", "--cycles", cycles, realizable_divisor_text(cycles, seed)]
        name = f"factor-{cycles}-seed{seed}"
        out += [(name, argv), (f"{name}-json", ["--json"] + argv)]
    for cycles, divisor, max_len in DIV_FACTOR_BOUNDED:
        argv = ["div", "factor", "--cycles", cycles, divisor, "--max-len", str(max_len)]
        name = f"factor-{cycles}-{divisor}-max-len-{max_len}"
        out += [(name, argv), (f"{name}-json", ["--json"] + argv)]
    out += [(f"render-{name}", ["div", "render", *flags, "--out", "out.svg"])
            for name, flags in DIV_RENDERS]
    # the empty word has no letters to join, so its payload names its target
    out.append(("render-2-cycles-empty-word-cycle-1-json",
                ["--json", "div", "render", *dict(DIV_RENDERS)["2-cycles-empty-word-cycle-1"],
                 "--out", "out.svg"]))
    return out


# elements for `quad factor`: the README example, prime powers, elements
# with several factorizations and large composite norms
QUAD_FACTOR_ELEMENTS = ["8", "4", "16", "27", "1+3*w", "-5+2*w", "720", "840", "998", "1000"]
# norms for `quad atoms --norm`: with no element (2), with atoms only (6, 8,
# 12) and with non-atoms only (24 to 72)
QUAD_ATOM_NORMS = [2, 6, 8, 12, 24, 36, 64, 72]


def quad_argvs():
    """(name, argv) of every pinned `quad` command, human and --json."""
    out = []
    for text in QUAD_FACTOR_ELEMENTS:
        # "--" ends the options, so "-5+2*w" is read as the element
        out.append((f"factor-{text}", ["quad", "factor", "--", text]))
    for n in QUAD_ATOM_NORMS:
        out.append((f"atoms-norm-{n}", ["quad", "atoms", "--norm", str(n)]))
    return [case for name, argv in out
            for case in ((name, argv), (f"{name}-json", ["--json"] + argv))]


# every family and its leaves, in the order the parser registers them
LEAVES = {"zs": ["atoms", "factor", "lengths", "davenport", "hfwitness"],
          "quad": ["factor", "atoms", "norm"],
          "quat": ["verify"],
          "div": ["compose", "realizable", "factor", "render"],
          "tring": ["mul", "divisor", "tau", "oracle"]}
# (name, argv) of a usage error argparse reports for a missing or bad argument
BAD_ARGUMENTS = [
    ("zs-atoms-no-group", ["zs", "atoms"]),
    ("quad-norm-no-element", ["quad", "norm"]),
    ("quat-verify-no-product", ["quat", "verify", "i"]),
    ("div-compose-no-cycles", ["div", "compose", "Q1"]),
    ("tring-divisor-no-matrix", ["tring", "divisor"]),
    ("tring-oracle-bad-int", ["tring", "oracle", "--size", "x"]),
    ("zs-davenport-unknown-flag", ["zs", "davenport", "--group", "3", "--bogus"]),
    ("bad-seed-before-family", ["--seed", "x", "quad", "norm", "2"]),
    ("zs-atoms-extra-argument", ["zs", "atoms", "--group", "3", "extra"]),
]


# (name, argv) of spellings only argparse reads: an `=` form, an
# abbreviation, and --json between two positionals
SPELLINGS = [
    ("zs-davenport-group-equals", ["zs", "davenport", "--group=2x2"]),
    ("zs-davenport-group-abbreviated", ["zs", "davenport", "--gro", "2x2"]),
    ("tring-oracle-max-exp-equals", ["tring", "oracle", "--size", "2", "--max-exp=1"]),
    ("tring-mul-json-between-matrices",
     ["tring", "mul", "[[0,1,1],[0,0,1],[0,0,1]]", "--json", "[[0,1,1],[0,1,1],[0,0,0]]"]),
]


def usage_argvs():
    """(name, argv) of every pinned help text and usage error: the top-level,
    family and leaf helps, a missing or unknown family, and per family a
    missing or unknown leaf, then BAD_ARGUMENTS."""
    out = [("help", ["--help"])]
    for family, leaves in LEAVES.items():
        out.append((f"{family}-help", [family, "--help"]))
        out += [(f"{family}-{leaf}-help", [family, leaf, "--help"]) for leaf in leaves]
    out += [("no-family", []), ("unknown-family", ["nope"])]
    for family in LEAVES:
        out += [(f"{family}-no-leaf", [family]), (f"{family}-unknown-leaf", [family, "nope"])]
    return out + BAD_ARGUMENTS


GOLDEN_FILES = {"tring.json": tring_argvs, "zs.json": zs_argvs,
                "readme.json": readme_argvs, "div.json": div_argvs,
                "quad.json": quad_argvs}


@contextlib.contextmanager
def scratch_cwd():
    """Run in a fresh empty directory, so written files can be read back."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield pathlib.Path(tmp)
        finally:
            os.chdir(old)


def run_case(name, argv) -> dict:
    buf = io.StringIO()
    with scratch_cwd() as cwd, contextlib.redirect_stdout(buf):
        if main(argv) != 0:
            sys.exit(f"capture failed: {argv}")
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(cwd.iterdir())}
    case = {"name": name, "argv": argv, "stdout": buf.getvalue()}
    if files:
        case["files"] = files
    return case


def run_refusal_case(name, argv) -> dict:
    """argv's exit code 1, empty stdout and one-line error on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if main(argv) != 1:
            sys.exit(f"capture failed, not refused: {argv}")
    return {"name": name, "argv": argv, "exit": 1,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_usage_case(name, argv) -> dict:
    """argv's exit code and exact stdout and stderr; argparse ends each of
    these cases by raising SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            sys.exit(f"capture failed, no usage exit: {argv}")
    return {"name": name, "argv": argv, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_spelling_case(name, argv) -> dict:
    """argv's exit code, whether main returns it or argparse raises it, and
    its exact stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"name": name, "argv": argv, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def demo_stdout(name: str) -> str:
    """The stdout of a copy of demos/<name>.py; the diagram demo writes its
    SVG files next to itself."""
    buf = io.StringIO()
    with scratch_cwd() as cwd, contextlib.redirect_stdout(buf):
        runpy.run_path(shutil.copy(ROOT / "demos" / f"{name}.py", cwd), run_name="__main__")
    return buf.getvalue()


def capture():
    for filename, argvs in GOLDEN_FILES.items():
        cases = [run_case(name, argv) for name, argv in argvs()]
        if filename == "tring.json":
            cases += [run_case(name, argv) for name, argv in tau_argvs()]
            cases += [run_refusal_case(name, argv) for name, argv in TRING_REFUSALS]
        (HERE / filename).write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    cases = [run_usage_case(name, argv) for name, argv in usage_argvs()]
    (HERE / "usage.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    cases = [run_spelling_case(name, argv) for name, argv in SPELLINGS]
    (HERE / "spellings.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    for name in DEMOS:
        (HERE / f"{name}.out").write_text(demo_stdout(name), encoding="utf-8")


if __name__ == "__main__":
    capture()
