"""Start the benchmark's child processes, one at a time, from a small
process.

On Linux a child's max-RSS starts at the RSS of the process that forked it,
so children forked by the benchmark itself would report the benchmark's own
memory.  This process is started before the benchmark builds its inputs and
stays small.

Protocol: one JSON array (the argv to run) per line on stdin; the child's
stdout and stderr go to the files stdout.txt and stderr.txt in the working
directory; one JSON object per line on stdout answers with wall time from
spawn to exit, exit code and max-RSS in KiB.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        cmd = json.loads(line)
        with open("stdout.txt", "wb") as out, open("stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "code": proc.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
