"""Start-up: `import nufact` runs no submodule, and a command runs only the
modules of its family, builds only its family's parsers and imports `json`
only to write JSON.

Each case runs in a fresh interpreter, since this test process has long
since loaded every module.  A submodule that has not run yet is still the
lazy placeholder, whose type is a subclass of types.ModuleType; once its
body has run it is a plain module.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import nufact

SRC = Path(nufact.__file__).resolve().parent.parent
REPORT = """
import json, sys, types
names = ["abelian", "divcalc", "quadring", "quatcheck", "tring", "zerosum"]
print(json.dumps({
    "executed": [n for n in names if type(sys.modules["nufact." + n]) is types.ModuleType],
    "dataclasses": "dataclasses" in sys.modules,
}))
"""


def fresh(code: str, report: str = REPORT):
    """Run code, then report, in a new interpreter; the report's line, parsed."""
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=SRC,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_runs_no_submodule():
    report = fresh("import nufact.cli\nassert nufact.cli.build_parser()")
    assert report == {"executed": [], "dataclasses": False}


@pytest.mark.parametrize("argv, executed", [
    (["zs", "lengths", "--group", "3", "--seq", "1^3 2^3"], ["abelian", "zerosum"]),
    (["quad", "factor", "8"], ["quadring"]),
    (["quat", "verify", "--product", "1-2i+k", "--", "i+j", "-1-i-k"], ["quatcheck"]),
    (["div", "compose", "--cycles", "Q1>Q2>Q3", "Q1", "Q2"], ["divcalc"]),
    (["tring", "divisor", "[[1,1,1],[0,1,1],[0,0,1]]"], ["divcalc", "tring"]),
], ids=["zs", "quad", "quat", "div", "tring"])
def test_command_runs_only_its_family(argv, executed):
    report = fresh(f"import nufact.cli\nassert nufact.cli.main({argv!r}) == 0")
    assert report == {"executed": executed, "dataclasses": False}


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


@pytest.mark.parametrize("flags, loaded", [([], False), (["--json"], True)],
                         ids=["human", "json"])
def test_json_is_imported_only_to_write_json(flags, loaded):
    # `zs` runs no module that imports json itself, as `tring` does
    argv = [*flags, *ZS_LENGTHS]
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
