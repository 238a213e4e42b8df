"""Capture the --json output that the benchmark pins byte for byte.

    python3 perfbench/capture_golden.py

Runs each pinned command (workloads.golden_argvs) against the checkout's
src and writes perfbench/golden.json.  Run it only on a commit whose output
is known to be right: the committed file was captured at the seed commit
a83a41f, and every later commit must reproduce it.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    try:
        with run.Runner() as runner:
            runner.check_program()
            entries = []
            for argv in workloads.golden_argvs():
                outcome = runner.command(argv)
                if outcome.code != 0:
                    print(f"{' '.join(argv)}: exit {outcome.code}\n{outcome.err}",
                          file=sys.stderr)
                    return 1
                entries.append({"argv": argv, "stdout": outcome.out})
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} outputs to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
