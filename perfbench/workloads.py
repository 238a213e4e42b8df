"""The three workloads: the CLI commands of one pass, each with the check
its output must pass.  Every input is generated from the workload seed by
this file and :mod:`reference`; the program sees only argv text.

- queries: interactive use.  The README examples, human and --json, plus
  one input refused by a cap, repeated in seeded order.  Interpreter start-up
  and import dominate; search-layer changes should not move it.
- oracle: the paper's flagship cross-validation, ``tring oracle`` at four
  sizes.  (3,4) is enumeration-heavy and (2,10) chain-walk-heavy; both run
  divcalc.compose over every corpus pair.  No zerosum.
- search: heavy one-shot queries that use each layer the other way round:
  whole-group Davenport DFS, atoms, length sets, memoised word search and
  uncached chain walks on deep ideals.  It never enumerates ideals, so a
  change tuned to the oracle loop shows here as a cost or as no change.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as R

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

README_EXAMPLES = [
    ["zs", "atoms", "--group", "3"],
    ["zs", "factor", "--group", "3", "--seq", "1^3 2^3"],
    ["zs", "lengths", "--group", "3", "--seq", "1^3 2^3"],
    ["zs", "davenport", "--group", "2x2"],
    ["zs", "hfwitness", "--group", "4", "--max-len", "8"],
    ["quad", "factor", "8"],
    ["quad", "atoms", "--norm", "8"],
    ["quad", "norm", "1+1*w"],
    ["quat", "verify", "--product", "1-2i+k", "--", "i+j", "-1-i-k"],
    ["quat", "verify", "--product", "1-2i+k", "--",
     "(1/2)-i+((r3-2)/2)k", "((r3+2)/2)-j+(1/2)k"],
    ["div", "compose", "--cycles", "Q1>Q2>Q3", "Q1", "Q2"],
    ["div", "realizable", "--cycles", "Q1>Q2>Q3", "2Q1"],
    ["div", "factor", "--cycles", "Q1>Q2>Q3", "3Q1+2Q2+Q3", "--max-len", "5"],
    ["div", "render", "--cycles", "Q1>Q2>Q3", "--divisor", "7Q1+6Q2+8Q3",
     "--out", "fig.svg"],
    ["div", "render", "--cycles", "Q1>Q2>Q3", "--word", "Q1*Q2*Q3", "--out", "word.svg"],
    ["tring", "mul", "[[0,1,1],[0,0,1],[0,0,1]]", "[[0,1,1],[0,1,1],[0,0,0]]"],
    ["tring", "divisor", "[[1,1,1],[0,1,1],[0,0,1]]"],
    ["tring", "tau", "[[0,1,1],[0,0,1],[0,0,1]]"],
    ["tring", "oracle", "--size", "3", "--max-exp", "2"],
]
# A group far above the order cap: refused before any search, whatever the
# search algorithm.
REFUSED_INPUT = ["zs", "davenport", "--group", "4096"]
QUERY_REPEATS = 3

# (ring size, max_exp) -> corpus size of all ideals with those exponents
ORACLE_SIZES = {(2, 10): 59, (3, 3): 74, (3, 4): 104, (4, 1): 42}

DAVENPORT_GROUPS = ["12", "16", "18", "2x8", "4x4", "3x6", "2x2x4", "2x2x2x2"]
ATOMS_GROUPS = ["2x4", "3x3", "10", "12"]
# One sequence per group; the parent group's Davenport search dominates the
# cost, so fixing the groups keeps the cost of a pass the same across seeds.
LENGTHS_GROUPS = ["6", "3x3", "12", "16", "2x8", "4x4"]
LENGTHS_RANGE = (16, 24)
LENGTHS_POOL = 5
# (cycle length, total count).  On a 3-cycle every realizable divisor of
# these totals has the same number of words; on a 4-cycle the counts differ
# by at most 3.5k words.
DIV_SHAPES = [(3, 7), (3, 8), (3, 10), (3, 11), (4, 3), (4, 5)]
# (ring size, number of maximal-ideal factors)
TRING_PRODUCTS = [(3, 300), (3, 120), (4, 200), (4, 80), (5, 100), (5, 40)]


@dataclass
class Command:
    """One CLI invocation and the check of its result.  `check` takes
    (exit code, stdout, stderr) and returns None or why the result is wrong."""

    argv: list
    check: Callable[[int, str, str], Optional[str]]


def canonical_json(payload) -> str:
    """The CLI's --json rendering."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def expect_stdout(expected: str, semantic=None):
    """Exit 0 and stdout byte-identical to `expected`; `semantic` parses the
    stdout and returns None or why its content is wrong."""
    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        if out != expected:
            return "stdout differs from the expected --json output"
        return semantic(json.loads(out)) if semantic else None
    return check


def human_ok(code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()[-200:]}"
    if not out.strip():
        return "empty stdout"
    if "Traceback" in err:
        return "traceback on stderr"
    return None


def refused_ok(code, out, err):
    if code != 1:
        return f"exit {code}, expected 1 for a refused input"
    if not any(line.startswith("error:") for line in err.splitlines()):
        return "no 'error:' line on stderr"
    if "Traceback" in err:
        return "traceback on stderr"
    return None


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    """--json stdout captured from the seed commit, keyed by argv."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    return {tuple(e["argv"]): e["stdout"] for e in entries}


def golden_argvs() -> list:
    """The commands whose --json output is pinned by golden.json."""
    out = [["--json", *argv] for argv in README_EXAMPLES]
    out += [oracle_argv(l, e, 0) for (l, e) in ORACLE_SIZES]
    out += [["--json", "zs", "atoms", "--group", g] for g in ATOMS_GROUPS]
    return out


# ----------------------------------------------------------------------

def queries(seed: int, golden: dict) -> list:
    cmds = []
    for argv in README_EXAMPLES:
        cmds.append(Command(argv, human_ok))
        json_argv = ["--json", *argv]
        cmds.append(Command(json_argv, expect_stdout(golden[tuple(json_argv)])))
    cmds.append(Command(REFUSED_INPUT, refused_ok))
    cmds.append(Command(["--json", *REFUSED_INPUT], refused_ok))
    cmds = cmds * QUERY_REPEATS
    random.Random(seed).shuffle(cmds)
    return cmds


def oracle_argv(l, max_exp, seed):
    return ["--json", "tring", "oracle", "--size", str(l), "--max-exp", str(max_exp),
            "--seed", str(seed)]


def oracle_check(golden_text: str, seed: int, corpus_size: int):
    expected = canonical_json({**json.loads(golden_text), "seed": seed})

    def semantic(report):
        if not report["all_pass"]:
            return "oracle reports a failing property"
        if report["corpus_size"] != corpus_size:
            return f"corpus size {report['corpus_size']}, expected {corpus_size}"
        return None
    return expect_stdout(expected, semantic)


def oracle(seed: int, golden: dict) -> list:
    return [Command(oracle_argv(l, e, seed),
                    oracle_check(golden[tuple(oracle_argv(l, e, 0))], seed, size))
            for (l, e), size in ORACLE_SIZES.items()]


def davenport_command(group: str, expected: int) -> Command:
    argv = ["--json", "zs", "davenport", "--group", group]
    return Command(argv, expect_stdout(canonical_json({"group": group, "davenport": expected})))


def zero_sum_sequence(rng, moduli, length):
    """length - 1 elements drawn from a small random pool, closed by the
    negated sum."""
    pool = [tuple(rng.randrange(n) for n in moduli) for _ in range(LENGTHS_POOL)]
    elems = [rng.choice(pool) for _ in range(length - 1)]
    elems.append(tuple(-sum(e[i] for e in elems) % n for i, n in enumerate(moduli)))
    seq = {}
    for e in elems:
        seq[e] = seq.get(e, 0) + 1
    return seq


def lengths_command(group: str, seq: dict) -> Command:
    moduli = tuple(int(n) for n in group.split("x"))
    text = R.format_seq(seq)
    payload = {"group": group, "seq": text, "lengths": sorted(R.length_set(moduli, seq))}
    return Command(["--json", "zs", "lengths", "--group", group, "--seq", text],
                   expect_stdout(canonical_json(payload)))


def realizable_divisor(rng, l, total):
    while True:
        cuts = sorted(rng.randint(0, total) for _ in range(l - 1))
        counts = tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))
        if R.is_realizable(counts):
            return counts


def div_factor_command(counts) -> Command:
    l = len(counts)
    cycles = ">".join(f"Q{i + 1}" for i in range(l))
    text = R.format_divisor(counts)
    max_len = R.default_max_len(counts)
    words, truncated = R.factor_words(counts, max_len)
    payload = {"cycles": cycles, "divisor": text, "max_len": max_len,
               "words": [[f"Q{i + 1}" for i in w] for w in words],
               "truncated": truncated}
    return Command(["--json", "div", "factor", "--cycles", cycles, text],
                   expect_stdout(canonical_json(payload)))


def tring_divisor_command(l: int, word) -> Command:
    """The divisor of a product of maximal ideals must be the composition of
    the word: the homomorphism law, on ideals far outside any corpus."""
    matrix = R.ideal_product(l, word)
    text = json.dumps([list(row) for row in matrix], separators=(",", ":"))
    expected = R.format_divisor(R.compose_word(l, word))
    return Command(["--json", "tring", "divisor", text],
                   expect_stdout(canonical_json({"divisor": expected})))


def search(seed: int, golden: dict) -> list:
    rng = random.Random(seed)
    cmds = [davenport_command(g, R.davenport_lower([int(n) for n in g.split("x")]))
            for g in DAVENPORT_GROUPS]
    for g in ATOMS_GROUPS:
        argv = ["--json", "zs", "atoms", "--group", g]
        cmds.append(Command(argv, expect_stdout(golden[tuple(argv)])))
    for g in LENGTHS_GROUPS:
        moduli = tuple(int(n) for n in g.split("x"))
        cmds.append(lengths_command(g, zero_sum_sequence(rng, moduli,
                                                         rng.randint(*LENGTHS_RANGE))))
    for l, total in DIV_SHAPES:
        cmds.append(div_factor_command(realizable_divisor(rng, l, total)))
    for l, k in TRING_PRODUCTS:
        cmds.append(tring_divisor_command(l, [rng.randrange(l) for _ in range(k)]))
    return cmds


WORKLOADS = {"queries": queries, "oracle": oracle, "search": search}
