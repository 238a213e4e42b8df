"""Fuzz test of the command line's exit contract.

Random argv is built from the real subcommands, their flags and value
fragments: huge and negative numbers, and malformed group, sequence,
element, quaternion, cycle, divisor, word and matrix text.  Whatever the
argv, main() exits 0, 1 with one `error:` line, or 2 with a `usage:` line,
and never raises.
"""

from __future__ import annotations

import contextlib
import io
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nufact.cli import main

HUGE = "99999999999999999999"
# each pool: (well-formed values, malformed or out-of-range ones)
INTS = (["0", "1", "2", "3"], ["-1", "-7", HUGE, "-" + HUGE, "1e3", "x", ""])
# exponent bounds of tring oracle; with 10, T(3) has 284 ideals, a corpus
# the pair budget admits
EXPS = (INTS[0] + ["10"], INTS[1])
GROUPS = (["1", "2", "3", "4", "2x2", "6"],
          ["0", "-3", "2x", "x", "2x0", "2x-2", HUGE, "2x" + HUGE, "a", ""])
SEQS = (["1^3 2^3", "1 2", "1^2", "0", "1 1 1", "0,1^2 1,1"],
        ["", "1^-1", "1^" + HUGE, "-1", HUGE, "1,1", "^", "1^", "1^1^1", "a"])
QUADS = (["8", "6", "1+1*w", "w", "-w", "2-1*w", "1"],
         ["0", HUGE, HUGE + "*w", "1000024+1*w", "1+", "2*w*w", "w+w", "1+2", "", "x",
          "1e3"])
QUATS = (["i+j", "-1-i-k", "1-2i+k", "(1/2)-i+((r3-2)/2)k", "r3", "ii"],
         ["1/0", "1/(r3-r3)", "i/j", HUGE + "i", "(", ")", "", "2^3",
          "(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"])
CYCLES = (["Q1>Q2>Q3", "Q1>Q2>Q3;P", "Q1>Q2", "Q1"],
          ["P;Q", "", ">", ";", "Q1>Q1", "A>B;C>D>E", "Q1;;Q2", 'A>B"<&', "2Q>Q3"])
DIVISORS = (["Q1", "Q2", "2Q1+Q3", "Q1+Q2+Q3", "3Q1+2Q2+Q3", "2Q1", "P", "2P", "0"],
            ["", "-Q1", "-5Q2", "Q9", "Q1+", "++", HUGE + "Q1",
             f"{HUGE}Q1+{HUGE}Q2+{HUGE}Q3"])
WORDS = (["Q1*Q2*Q3", "Q1", "Q2*Q2", "P"], ["", "Q9", "Q1**Q2"])
MATRICES = (["[[0,1,1],[0,0,1],[0,0,1]]", "[[1,1,1],[0,1,1],[0,0,1]]", "[[0,1],[0,0]]",
             "[[1,1],[0,1]]"],
            ["[[0]]", "[]", "[[]]", "[[", "1", "null", '"a"', "[[1,2],[3]]",
             "[[-1,0],[0,0]]", f"[[{HUGE},1],[0,1]]", "[[0.5,1],[0,1]]", "[[true,1],[0,1]]",
             "[[NaN,0],[0,0]]", "[[1e400,0],[0,0]]", "[" * 100_000])
OUTS = (["fig.svg"], ["missing/fig.svg", "."])


def values(pool):
    """A value that is well-formed at least half of the time."""
    good, bad = pool
    return st.one_of(st.sampled_from(good), st.sampled_from(good + bad))


# (family, subcommand) -> its arguments: (flag or None for a positional,
# value pool, how many values, whether argparse requires it)
COMMANDS = {
    ("zs", "atoms"): [("--group", GROUPS, 1, True), ("--elements", SEQS, 1, False)],
    ("zs", "factor"): [("--group", GROUPS, 1, True), ("--seq", SEQS, 1, True)],
    ("zs", "lengths"): [("--group", GROUPS, 1, True), ("--seq", SEQS, 1, True)],
    ("zs", "davenport"): [("--group", GROUPS, 1, True)],
    ("zs", "hfwitness"): [("--group", GROUPS, 1, True), ("--max-len", INTS, 1, True),
                          ("--elements", SEQS, 1, False)],
    ("quad", "factor"): [(None, QUADS, 1, True)],
    ("quad", "atoms"): [(None, QUADS, 2, False), ("--norm", INTS, 1, False)],
    ("quad", "norm"): [(None, QUADS, 2, True)],
    ("quat", "verify"): [(None, QUATS, 3, True), ("--product", QUATS, 1, True)],
    ("div", "compose"): [("--cycles", CYCLES, 1, True), (None, DIVISORS, 3, True)],
    ("div", "realizable"): [("--cycles", CYCLES, 1, True), (None, DIVISORS, 1, True)],
    ("div", "factor"): [("--cycles", CYCLES, 1, True), (None, DIVISORS, 1, True),
                        ("--max-len", INTS, 1, False)],
    ("div", "render"): [("--cycles", CYCLES, 1, True), ("--divisor", DIVISORS, 1, False),
                        ("--word", WORDS, 1, False), ("--cycle", INTS, 1, False),
                        ("--out", OUTS, 1, True)],
    ("tring", "mul"): [(None, MATRICES, 3, True)],
    ("tring", "divisor"): [(None, MATRICES, 1, True)],
    ("tring", "tau"): [(None, MATRICES, 1, True)],
    ("tring", "oracle"): [("--size", INTS, 1, False), ("--max-exp", EXPS, 1, False),
                          ("--trials", INTS, 1, False)],
}
JUNK = ["--bogus", "-x", "--", "zs", "--group", "--json", "-h"]
RARELY = st.sampled_from([False] * 9 + [True])  # draws favour first items and bounds


@st.composite
def argvs(draw):
    family, sub = draw(st.sampled_from(sorted(COMMANDS)))
    options, positionals = [], []
    for flag, pool, most, required in COMMANDS[family, sub]:
        # a required argument is left out now and then, for a usage error
        if draw(RARELY) if required else draw(st.booleans()):
            continue
        chosen = draw(st.lists(values(pool), min_size=1, max_size=most))
        if flag is None:
            # '--' lets values start with '-'; without it they may read as flags
            positionals = ["--"] * draw(st.booleans()) + chosen
        else:
            options.append([flag, chosen[0]])
    args = [token for part in draw(st.permutations(options)) for token in part] + positionals
    before, after = [], []
    for flag, pool in (("--json", None), ("--seed", INTS)):
        if draw(st.booleans()):
            where = before if draw(st.booleans()) else after
            where += [flag] if pool is None else [flag, draw(values(pool))]
    argv = before + [family, sub] + after + args
    if draw(RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_main_exits_0_1_or_2_without_traceback(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # div render writes its --out here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    finally:
        os.chdir(cwd)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        assert out.getvalue() == "" and len(err.splitlines()) == 1, (argv, err)
        assert err.startswith("error: "), (argv, err)
    elif code == 2:
        assert err.startswith("usage: "), (argv, err)
    else:
        assert err == "", (argv, err)
