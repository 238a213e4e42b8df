"""Start-up: `import nufact` runs no submodule, `import nufact.cli` loads
the dispatcher alone, and a command loads only its family's CLI module,
runs only the library modules of its family, builds only its family's
parsers and imports `json` only to write JSON.

Each case runs in a fresh interpreter, since this test process has long
since loaded every module.  A submodule that has not run yet is still the
lazy placeholder, whose type is a subclass of types.ModuleType; once its
body has run it is a plain module.  The CLI modules are imported without
a placeholder, so each is a plain module once it is loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nufact

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
# each family's library modules, the ones its commands run
FAMILY_MODULES = {"zs": ["abelian", "zerosum"], "quad": ["quadring"], "quat": ["quatcheck"],
                  "div": ["divcalc"], "tring": ["divcalc", "tring"]}


def fresh(code: str, report: str = REPORT, cwd=SRC):
    """Run code, then report, in a new interpreter in cwd; the report's line,
    parsed."""
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def readme_runs(family: str, main: str = "nufact.cli.main") -> str:
    """Code that runs every README example of the family through main."""
    argvs = [c["argv"] for c in README
             if next(a for a in c["argv"] if not a.startswith("-")) == family]
    assert argvs
    return "".join(f"assert {main}({argv!r}) == 0\n" for argv in argvs)


def test_import_runs_no_submodule():
    report = fresh("import nufact.cli")
    assert report == {"executed": ["cli"], "dataclasses": False}
    # every family's parsers load every family's CLI module, and run none
    # of the library
    report = fresh("import nufact.cli\nassert nufact.cli._parser(nufact.cli._FAMILIES)")
    assert report == {"executed": ALL_CLI, "dataclasses": False}


@pytest.mark.parametrize("family", FAMILY_MODULES)
def test_command_runs_only_its_family(tmp_path, family):
    # every README example of the family, one after another in one
    # interpreter: the dispatcher, the family's CLI module and its library
    report = fresh("import nufact.cli\n" + readme_runs(family), cwd=tmp_path)
    assert report == {"executed": sorted(["cli", f"cli_{family}", *FAMILY_MODULES[family]]),
                      "dataclasses": False}


# a copy of cli.py, run as nufact.cli, that imports every family's module
EAGER_DISPATCHER = r"""
import sys, types
import nufact
source = open(nufact.__path__[0] + "/cli.py", encoding="utf-8").read()
assert source.count("\nimport sys\n") == 1
source = source.replace("\nimport sys\n", "\nimport sys\n\n"
                        "from . import cli_div, cli_quad, cli_quat, cli_tring, cli_zs\n")
eager = sys.modules["nufact.cli"] = types.ModuleType("nufact.cli")
eager.__package__ = "nufact"
exec(compile(source, "cli.py", "exec"), vars(eager))
"""


def test_eager_dispatcher_negative_control(tmp_path):
    # the same README examples through a dispatcher that imports every
    # family: its commands succeed, and the report above fails
    report = fresh(EAGER_DISPATCHER + readme_runs("zs", "eager.main"), cwd=tmp_path)
    assert report == {"executed": sorted(ALL_CLI + FAMILY_MODULES["zs"]), "dataclasses": False}


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


# (argv, the number of leaves of its family)
COMMANDS = [
    (ZS_LENGTHS, 5),
    (["quad", "factor", "8"], 3),
    (["quat", "verify", "--product", "1-2i+k", "--", "i+j", "-1-i-k"], 1),
    (["div", "compose", "--cycles", "Q1>Q2>Q3", "Q1", "Q2"], 4),
    (["tring", "divisor", "[[1,1,1],[0,1,1],[0,0,1]]"], 4),
]
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


@pytest.mark.parametrize("argv, leaves", COMMANDS, ids=[a[0] for a, _ in COMMANDS])
def test_command_builds_only_its_familys_parsers(argv, leaves):
    # the top level, its two common-flag parents, the five families and the
    # leaves of this family; building every family's leaves made 25
    built = fresh(COUNT_PARSERS + f"import nufact.cli\nassert nufact.cli.main({argv!r}) == 0",
                  "\nprint(built)")
    assert built <= 1 + 2 + 5 + leaves
