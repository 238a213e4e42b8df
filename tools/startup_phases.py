"""Time the phases of the README examples' one-shot commands.  For each
example in tests/golden/readme.json, runs `nufact.cli.main` on its argv in
N fresh interpreters, one after another, and prints one line per example:
the median milliseconds of importing `nufact.cli`, parsing argv (importing
the family's CLI module included), the handler, and writing the output
(importing `json` for --json included, as is any text a handler yields in
chunks):

    python tools/startup_phases.py [--runs N] [name ...]

Each interpreter imports a fresh copy of the package, with no bytecode
cache and writing none, from a temporary directory that is also its
working directory, so an example's output file lands there.  Interpreter
start-up itself is not timed.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nufact"
README = ROOT / "tests" / "golden" / "readme.json"
PHASES = ["import", "parse", "handler", "write"]
# run in the child: times each phase with perf_counter, marking the
# handler's start and end through a wrapper around every handler of the
# family's table, and prints the exit code and the four phases in seconds
CHILD = r"""
import sys, time
t0 = time.perf_counter()
import nufact.cli as cli
t1 = time.perf_counter()
marks = []

def timed(handler):
    def run(args):
        marks.append(time.perf_counter())
        try:
            return handler(args)
        finally:
            marks.append(time.perf_counter())
    return run

leaves = cli._leaves
cli._leaves = lambda family: {leaf: (text, timed(handler), arguments)
                              for leaf, (text, handler, arguments) in leaves(family).items()}
import os
sys.stdout = open(os.devnull, "w")
t2 = time.perf_counter()
code = cli.main(sys.argv[1:])
t3 = time.perf_counter()
sys.stdout = sys.__stdout__
print(code, t1 - t0, marks[0] - t2, marks[1] - marks[0], t3 - marks[1])
"""


def phases(argv, workdir) -> list:
    """The four phases of one fresh run of argv, in seconds."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-B", "-c", CHILD, *argv], cwd=workdir, env=env,
                         capture_output=True, text=True)
    if out.returncode != 0 or out.stdout.split()[:1] != ["0"]:
        raise SystemExit(f"{' '.join(argv)} failed: {out.stderr.strip() or out.stdout}")
    return [float(x) for x in out.stdout.split()[1:]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per example")
    parser.add_argument("names", nargs="*", help="examples to time (default: all)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, not {args.runs}")
    cases = json.loads(README.read_text(encoding="utf-8"))
    unknown = set(args.names) - {case["name"] for case in cases}
    if unknown:
        parser.error(f"no such example: {' '.join(sorted(unknown))}")
    if args.names:
        cases = [case for case in cases if case["name"] in args.names]
    with tempfile.TemporaryDirectory() as workdir:
        shutil.copytree(PACKAGE, pathlib.Path(workdir) / "nufact",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for case in cases:
            runs = [phases(case["argv"], workdir) for _ in range(args.runs)]
            medians = [statistics.median(run[k] for run in runs) * 1000 for k in range(4)]
            print(f"{case['name']:<22}" + "".join(
                f"  {phase} {ms:5.2f}" for phase, ms in zip(PHASES, medians)) + " ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
