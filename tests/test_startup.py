"""Start-up: `import nufact` runs no submodule, and a command runs only the
modules of its family.

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


def fresh(code: str) -> dict:
    """Run code, then REPORT, in a new interpreter; REPORT's line, parsed."""
    proc = subprocess.run([sys.executable, "-c", code + REPORT], cwd=SRC,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_runs_no_submodule():
    report = fresh("import nufact.cli\nassert nufact.cli.build_parser()")
    assert report == {"executed": [], "dataclasses": False}


@pytest.mark.parametrize("argv, executed", [
    (["zs", "lengths", "--group", "3", "--seq", "1^3 2^3"], ["abelian", "zerosum"]),
    (["quad", "factor", "8"], ["abelian", "quadring"]),
    (["quat", "verify", "--product", "1-2i+k", "--", "i+j", "-1-i-k"], ["quatcheck"]),
    (["div", "compose", "--cycles", "Q1>Q2>Q3", "Q1", "Q2"], ["abelian", "divcalc"]),
    (["tring", "divisor", "[[1,1,1],[0,1,1],[0,0,1]]"], ["abelian", "divcalc", "tring"]),
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
    assert set(report["executed"]) <= {"abelian", "divcalc", "tring"}
    report = fresh("import nufact.tring\n"
                   "assert nufact.tring.divisor_of(((1, 1, 1), (0, 1, 1), (0, 0, 1))) == (1, 1, 1)")
    assert report == {"executed": ["abelian", "divcalc", "tring"], "dataclasses": False}
