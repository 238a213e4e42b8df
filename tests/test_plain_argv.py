"""The plain-shape parser against argparse.

`nufact.cli.main` reads argv of the plain shape with `cli._plain` and
builds argparse's parsers only for any other argv.  For every argv drawn
by the fuzz test and every argv in the golden files, `_plain` gives None,
or the namespace argparse gives, and then argparse does not exit.  Copies
of `cli.py` with one planted fault each are caught by the same check.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import types

import pytest
from hypothesis import HealthCheck, given, settings
from test_cli_fuzz import argvs

from nufact import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_ARGVS = [case["argv"] for path in sorted(GOLDEN.glob("*.json"))
                for case in json.loads(path.read_text(encoding="utf-8"))]
README = [case["argv"] for case in json.loads((GOLDEN / "readme.json").read_text(
    encoding="utf-8"))]
# shapes near the edge of the plain one: a '*' positional after, before and
# without an option, '--' with nothing after it, repeated flags, and
# positionals on both sides of an option
EDGES = [
    ["quad", "atoms", "--norm", "4"], ["quad", "atoms", "--norm", "4", "2", "3"],
    ["quad", "atoms", "2", "3", "--norm", "4"], ["quad", "atoms"], ["quad", "atoms", "--"],
    ["quad", "atoms", "--norm", "4", "--"], ["quad", "atoms", "--json", "--", "2"],
    ["quad", "norm", "--"], ["quad", "norm", "--", "2", "--"], ["quad", "factor", "--", "8", "--"],
    ["quad", "factor", "--", "8"], ["tring", "tau", "--json", "--", "[[0]]"],
    ["quad", "norm", "2", "--", "3"], ["zs", "davenport", "--group", "3", "--"],
    ["--seed", "1", "--seed", "2", "tring", "oracle", "--seed", "3", "--size", "2", "--size", "3"],
    ["--json", "--json", "zs", "davenport", "--group", "3", "--json"],
    ["tring", "mul", "[[0]]", "--json", "[[1]]"], ["div", "render", "--cycles", "Q", "--cycle", "0",
                                                   "--out", "f.svg", "--divisor", ""],
    ["zs", "davenport", "--group", ""], ["tring", "oracle", "--size", " 3 "],
    ["tring", "oracle", "--size", "3_0"], ["tring", "oracle", "--size", "9" * 5000],
    ["--seed", "-1", "quad", "factor", "8"], ["quad", "--json", "factor", "8"],
    ["quad", "factor", "-"], ["zs", "--help"], ["zs", "davenport", "-h"], ["quad"], [],
]


def argparse_vars(argv):
    """vars of the namespace argparse gives argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser(argv).parse_args(argv))
        except SystemExit:
            return None


def check(plain, argv) -> bool:
    """Whether plain read argv; fails if it read argv otherwise than argparse."""
    got = plain(argv)
    if got is not None:
        assert vars(got) == argparse_vars(argv), argv
    return got is not None


@pytest.mark.parametrize("argv", GOLDEN_ARGVS + EDGES)
def test_golden_and_edge_argv_read_as_argparse_reads_them(argv):
    check(cli._plain, argv)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_fuzzed_argv_read_as_argparse_reads_them(argv):
    check(cli._plain, argv)


def test_every_readme_example_is_plain():
    # the quaternion examples with '--' too; none of them builds a parser
    assert all(check(cli._plain, argv) for argv in README)
    assert any("--" in argv for argv in README)


# (what is planted, the source it replaces, argv that shows it); argparse
# takes a prefix of one option, but `--s` names both --seed and --size
FAULTS = [
    ("int skipped", 'kwargs.get("type", str)(argv[i + 1])', "argv[i + 1]",
     ["tring", "oracle", "--size", "2"]),
    ("option prefix", "elif token in options:",
     "elif (token := next((o for o in options if o.startswith(token)), token)) in options:",
     ["tring", "oracle", "--s", "2"]),
    ("second run", 'elif token.startswith("-") or run is not None:',
     'elif token.startswith("-"):', ["tring", "mul", "[[0]]", "--json", "[[1]]"]),
]


@pytest.mark.parametrize("fault, old, new, argv", FAULTS, ids=[f[0] for f in FAULTS])
def test_planted_fault_is_caught(fault, old, new, argv):
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1
    faulty = types.ModuleType("faulty_cli")
    faulty.__package__ = "nufact"
    exec(compile(source.replace(old, new), "cli.py", "exec"), vars(faulty))
    check(cli._plain, argv)
    with pytest.raises(AssertionError):
        check(faulty._plain, argv)
