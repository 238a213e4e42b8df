"""Start-up: `import nufact` runs no submodule, `import nufact.cli` loads
the dispatcher alone, and a command loads only its family's CLI module,
runs only the library modules it uses and imports `json` only to write
JSON.  Every README example is read by the plain-shape parser, so it
never imports argparse or builds a parser; a help text or a usage error
goes to argparse, which builds only that family's parsers.  A module that
a command does not run is not compiled either, which sets a command's
peak memory.

Each case runs in a fresh interpreter, since this test process has long
since loaded every module.  A submodule that has not run yet is still the
lazy placeholder, whose type is a subclass of types.ModuleType; once its
body has run it is a plain module.  The CLI modules are imported without
a placeholder, so each is a plain module once it is loaded.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nufact
from nufact import divcalc, divdraw, divwords, toracle, tring

SRC = Path(nufact.__file__).resolve().parent.parent
README = json.loads((Path(__file__).resolve().parent / "golden" / "readme.json")
                    .read_text(encoding="utf-8"))
REPORT = """
import json, sys, types
print(json.dumps({
    "executed": sorted(n.split(".")[1] for n, m in list(sys.modules.items())
                       if n.startswith("nufact.") and type(m) is types.ModuleType),
    "dataclasses": "dataclasses" in sys.modules,
}))
"""
ALL_CLI = ["cli", "cli_div", "cli_quad", "cli_quat", "cli_tring", "cli_zs"]
FAMILIES = ["zs", "quad", "quat", "div", "tring"]
# the library modules each README command runs: the word search, the
# drawing and the oracle only for the commands that use them
ZS = ["abelian", "zerosum"]
DIV = ["divcalc"]
TRING = ["divcalc", "tring"]
COMMAND_MODULES = {
    ("zs", "atoms"): ZS, ("zs", "factor"): ZS, ("zs", "lengths"): ZS, ("zs", "davenport"): ZS,
    ("zs", "hfwitness"): ZS,
    ("quad", "factor"): ["quadring"], ("quad", "atoms"): ["quadring"],
    ("quad", "norm"): ["quadring"],
    ("quat", "verify"): ["quatcheck"],
    ("div", "compose"): DIV, ("div", "realizable"): DIV,
    ("div", "factor"): DIV + ["divwords"], ("div", "render"): DIV + ["divdraw"],
    ("tring", "mul"): TRING, ("tring", "divisor"): TRING, ("tring", "tau"): TRING,
    ("tring", "oracle"): TRING + ["toracle"],
}


def fresh(code: str, report: str = REPORT, cwd=SRC):
    """Run code, then report, in a new interpreter in cwd; the report's line,
    parsed."""
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def command_of(argv) -> tuple[str, str]:
    """The (family, leaf) an argv names: its first two words that are not
    flags."""
    family, leaf = [a for a in argv if not a.startswith("-")][:2]
    return family, leaf


def readme_runs(command, main: str = "nufact.cli.main") -> str:
    """Code that runs every README example of the command, a (family,
    leaf) pair or a family alone, through main."""
    argvs = [c["argv"] for c in README if command in (command_of(c["argv"]),
                                                     command_of(c["argv"])[0])]
    assert argvs
    return "".join(f"assert {main}({argv!r}) == 0\n" for argv in argvs)


def expected(command) -> dict:
    family, _ = command
    return {"executed": sorted(["cli", f"cli_{family}", *COMMAND_MODULES[command]]),
            "dataclasses": False}


def test_import_runs_no_submodule():
    report = fresh("import nufact.cli")
    assert report == {"executed": ["cli"], "dataclasses": False}
    # every family's parsers load every family's CLI module, and run none
    # of the library
    report = fresh("import nufact.cli\nassert nufact.cli._parser(nufact.cli._FAMILIES)")
    assert report == {"executed": ALL_CLI, "dataclasses": False}


def test_every_readme_command_is_pinned():
    assert {command_of(c["argv"]) for c in README} == set(COMMAND_MODULES)


@pytest.mark.parametrize("family", FAMILIES)
def test_command_runs_only_its_family(tmp_path, family):
    # each README command of the family in an interpreter of its own, its
    # human and --json examples one after another: the dispatcher, the
    # family's CLI module and the library modules that command uses
    for command in (c for c in COMMAND_MODULES if c[0] == family):
        report = fresh("import nufact.cli\n" + readme_runs(command), cwd=tmp_path)
        assert report == expected(command), command


def cli_copy(old: str, new: str) -> str:
    """Code that runs a copy of cli.py with old replaced by new as
    nufact.cli, bound to the name `copy`."""
    return f"""
import sys, types
import nufact
source = open(nufact.__path__[0] + "/cli.py", encoding="utf-8").read()
assert source.count({old!r}) == 1
copy = sys.modules["nufact.cli"] = types.ModuleType("nufact.cli")
copy.__package__ = "nufact"
exec(compile(source.replace({old!r}, {new!r}), "cli.py", "exec"), vars(copy))
"""


# a copy of cli.py that imports every family's module
EAGER_DISPATCHER = cli_copy(
    "\nimport sys\n",
    "\nimport sys\n\nfrom . import cli_div, cli_quad, cli_quat, cli_tring, cli_zs\n")


def test_eager_dispatcher_negative_control(tmp_path):
    # the same README examples through a dispatcher that imports every
    # family: its commands succeed, and the report above fails
    report = fresh(EAGER_DISPATCHER + readme_runs("zs", "copy.main"), cwd=tmp_path)
    assert report == {"executed": sorted(ALL_CLI + ZS), "dataclasses": False}


# a copy of tring.py, run as nufact.tring, that imports the oracle's
# functions at top level
EAGER_TRING = r"""
import sys, types
import nufact
source = open(nufact.__path__[0] + "/tring.py", encoding="utf-8").read()
eager = sys.modules["nufact.tring"] = nufact.tring = types.ModuleType("nufact.tring")
eager.__package__ = "nufact"
exec(compile(source + "\nfrom .toracle import enumerate_ideals, oracle_report\n", "tring.py",
             "exec"), vars(eager))
"""


def test_eager_tring_negative_control(tmp_path):
    # `tring divisor` through that copy succeeds, and runs the oracle
    # module, which its case above refuses
    command = ("tring", "divisor")
    report = fresh(EAGER_TRING + "import nufact.cli\n" + readme_runs(command), cwd=tmp_path)
    assert report != expected(command)
    assert report == {"executed": sorted(expected(command)["executed"] + ["toracle"]),
                      "dataclasses": False}


def test_submodule_attribute_runs_on_first_use():
    report = fresh("from nufact import abelian, zerosum\n"
                   "assert zerosum.davenport(abelian.FinAbGroup([2, 2])) == 3")
    assert report == {"executed": ["abelian", "zerosum"], "dataclasses": False}


def test_import_statement_loads_only_that_submodule():
    # whether the import statement alone runs the body depends on the
    # interpreter version; it runs no other family either way
    report = fresh("import nufact.tring")
    assert set(report["executed"]) <= {"divcalc", "tring"}
    report = fresh("import nufact.tring\n"
                   "assert nufact.tring.divisor_of(((1, 1, 1), (0, 1, 1), (0, 0, 1))) == (1, 1, 1)")
    assert report == {"executed": ["divcalc", "tring"], "dataclasses": False}


# the names that moved out of divcalc and tring, which still resolve them
MOVED = [(divcalc, "enumerate_factorizations_ex", divwords), (divcalc, "render_svg", divdraw),
         (tring, "enumerate_ideals", toracle), (tring, "oracle_report", toracle)]


@pytest.mark.parametrize("old, name, home", MOVED, ids=[n for _, n, _ in MOVED])
def test_moved_name_is_its_modules_function(old, name, home):
    assert getattr(old, name) is getattr(home, name)
    assert vars(old)[name] is vars(home)[name]  # bound on first read
    assert getattr(home, name).__module__ == home.__name__


@pytest.mark.parametrize("module", [divcalc, tring], ids=["divcalc", "tring"])
def test_unknown_attribute_still_raises(module):
    with pytest.raises(AttributeError, match=f"^module '{module.__name__}' has no attribute "
                                             f"'no_such_name'$"):
        module.no_such_name
    assert not hasattr(module, "LETTER_CAP") and not hasattr(module, "_chain_divisor")


def test_divcalc_compose_runs_neither_search_nor_drawing():
    report = fresh("import nufact.divcalc\n"
                   "cs = nufact.divcalc.CycleStructure.from_text('Q1>Q2>Q3')\n"
                   "assert nufact.divcalc.compose(cs, (1, 0, 0), (0, 1, 0)) == (2, 1, 0)")
    assert report == {"executed": ["divcalc"], "dataclasses": False}
    # the first read of a moved name runs its module, and that one alone
    report = fresh("import nufact.divcalc\nnufact.divcalc.render_svg")
    assert report == {"executed": ["divcalc", "divdraw"], "dataclasses": False}


def test_each_function_is_defined_in_one_module():
    # the top-level functions and classes of the package's modules each
    # have one definition
    homes: dict = {}
    for path in sorted(SRC.joinpath("nufact").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}
    assert homes["enumerate_ideals"] == ["toracle.py"] and homes["compose"] == ["divcalc.py"]


ZS_LENGTHS = ["zs", "lengths", "--group", "3", "--seq", "1^3 2^3"]


@pytest.mark.parametrize("argv, loaded", [
    (ZS_LENGTHS, False),
    (["--json", *ZS_LENGTHS], True),
    (["tring", "oracle", "--size", "2", "--max-exp", "1", "--trials", "0"], False),
], ids=["human", "json", "tring-oracle-human"])
def test_json_is_imported_only_to_write_json(argv, loaded):
    # no module imports json when it runs: `tring` imports it to read a
    # matrix, and the CLI to write JSON or a failed property's counterexample
    assert fresh(f"import nufact.cli\nassert nufact.cli.main({argv!r}) == 0",
                 "\nimport sys\nprint(str('json' in sys.modules).lower())") is loaded


ARGPARSE_LOADED = "\nimport sys\nprint(str('argparse' in sys.modules).lower())"


@pytest.mark.parametrize("family", FAMILIES)
def test_command_builds_only_its_familys_parsers(tmp_path, family):
    # every README example of the family, the quaternion examples with '--'
    # too, is read without argparse: it is never imported, and with it
    # loaded beforehand no parser is built
    assert fresh("import nufact.cli\n" + readme_runs(family), ARGPARSE_LOADED,
                 cwd=tmp_path) is False
    assert fresh(COUNT_PARSERS + "import nufact.cli\n" + readme_runs(family),
                 "\nprint(built)", cwd=tmp_path) == 0


# a copy of cli.py that gives every argv to argparse
ARGPARSE_DISPATCHER = cli_copy("_plain(argv) or _parser(argv)", "_parser(argv)")


def test_argparse_dispatcher_negative_control(tmp_path):
    # the quaternion examples through that copy succeed, and load argparse
    assert fresh(ARGPARSE_DISPATCHER + readme_runs("quat", "copy.main"), ARGPARSE_LOADED,
                 cwd=tmp_path) is True


COUNT_PARSERS = """
import argparse
built = 0
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
"""
# (family, the number of its leaves, a usage error of one of them)
FALLBACKS = [("zs", 5, ["zs", "atoms"]), ("quad", 3, ["quad", "norm"]),
             ("quat", 1, ["quat", "verify", "i"]), ("div", 4, ["div", "compose", "Q1"]),
             ("tring", 4, ["tring", "oracle", "--size", "x"])]


@pytest.mark.parametrize("family, leaves, error", FALLBACKS, ids=[f for f, _, _ in FALLBACKS])
@pytest.mark.parametrize("kind", ["help", "usage-error"])
def test_help_and_usage_errors_build_only_their_familys_parsers(family, leaves, error, kind):
    # argparse prints them: the top level, its two common-flag parents, the
    # five families and the leaves of this family; building every family's
    # leaves made 25
    argv, code = ([family, "--help"], 0) if kind == "help" else (error, 2)
    built = fresh(COUNT_PARSERS + "import nufact.cli\n"
                  f"try:\n    nufact.cli.main({argv!r})\n"
                  f"except SystemExit as exc:\n    assert exc.code == {code}\n"
                  "else:\n    raise AssertionError('no exit')\n", "\nprint(built)")
    assert 1 + 2 + 5 < built <= 1 + 2 + 5 + leaves
