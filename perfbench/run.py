"""Benchmark of the nufact CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload {queries,oracle,search} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: each command is a fresh
``python -m nufact.cli ...`` process, started only after the previous one
exited; nothing runs in parallel.  A run makes one pass over the workload's
command list, then another whenever the longest pass so far still fits
before S seconds have passed, so a run ends within S seconds unless its
first pass alone takes longer.  Every output is checked; see workloads.py.
Between commands, spread over the run, a fresh interpreter that only
imports nufact.cli and one that runs the fixed REFERENCE program are timed.

--trace 0 prints the end-to-end metrics: set-up (import) time, pass wall
time, per-command percentiles, all scaled to a reference machine speed, then
peak RSS and the share of correct commands.
--trace 1 keeps each distinct command once, runs one untraced pass, then at
least one pass in which every command runs under traced.py, and prints
per-layer self times and call counts per pass plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The environment and any failures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Optional

import traced
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED = Path(traced.__file__).resolve()
LAUNCHER = TRACED.parent / "launcher.py"
PROBE_GAP_S = 3.0  # least time between two probe pairs
# A fixed program that uses nothing of nufact: interpreter start-up, stdlib
# imports and a pure-Python loop.  Its median time in a run measures how fast
# the shared machine is during that run.
REFERENCE = ("import argparse, decimal, email.parser, fractions, http.client, json, random, "
             "statistics, unittest, xml.etree.ElementTree\n"
             "s = 0\nfor i in range(300_000):\n    s += i * i % 7\n")
REFERENCE_S = 0.2  # reported times are scaled to a machine where REFERENCE takes this long


@dataclass
class Outcome:
    wall: float
    code: int
    out: str
    err: str
    rss_mb: float
    trace: Optional[dict] = None


class Runner:
    """Runs one child at a time, with the checkout's src on the path,
    through launcher.py, which times it from spawn to exit.  Use it as a
    context manager: leaving it stops the launcher."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.launcher = subprocess.Popen([sys.executable, str(LAUNCHER)], cwd=WORK, env=env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait()

    def spawn(self, cmd) -> Outcome:
        self.launcher.stdin.write(json.dumps(cmd) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        out, err = ((WORK / name).read_text(encoding="utf-8", errors="replace")
                    for name in ("stdout.txt", "stderr.txt"))
        return Outcome(reply["wall"], reply["code"], out, err, reply["maxrss_kb"] / 1024)

    def command(self, argv, trace=False) -> Outcome:
        if not trace:
            return self.spawn([sys.executable, "-m", "nufact.cli", *argv])
        trace_file = WORK / "trace.json"
        outcome = self.spawn([sys.executable, str(TRACED), str(trace_file), *argv])
        if not trace_file.is_file():
            raise RuntimeError(f"traced run of {argv} wrote no trace: {outcome.err.strip()}")
        outcome.trace = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
        return outcome

    def probe(self) -> float:
        """Wall time of a fresh interpreter that only imports nufact.cli."""
        outcome = self.spawn([sys.executable, "-c", "import nufact.cli"])
        if outcome.code != 0:
            raise RuntimeError(f"importing nufact.cli failed: {outcome.err.strip()}")
        return outcome.wall

    def reference(self) -> float:
        """Wall time of a fresh interpreter running REFERENCE."""
        return self.spawn([sys.executable, "-c", REFERENCE]).wall

    def check_program(self):
        """Fail unless the children import nufact from this checkout; this
        also writes the bytecode cache before anything is timed."""
        outcome = self.spawn([sys.executable, "-c", "import nufact.cli; print(nufact.__file__)"])
        where = Path(outcome.out.strip() or ".").resolve()
        if outcome.code != 0 or SRC.resolve() not in where.parents:
            raise RuntimeError(f"nufact.cli does not import from {SRC}: "
                               f"{outcome.err.strip() or where}")


def run_passes(runner, commands, seconds, trace):
    """Untraced passes, or with trace, one untraced pass then traced ones.
    After the first pass of each kind, another starts only if the longest
    pass so far fits before `seconds` have passed.  Returns (untraced
    passes, traced passes, set-up probes, reference probes); a pass is the
    list of its outcomes.  Probes are taken only without trace, which
    reports no end-to-end metric."""
    start = time.perf_counter()
    deadline = start + seconds
    plain, spans, probes, refs = [], [], [], []
    last_probe = -PROBE_GAP_S
    longest = 0.0

    def one_pass(traced_pass):
        nonlocal last_probe, longest
        began = time.perf_counter()
        outcomes = []
        for cmd in commands:
            outcomes.append(runner.command(cmd.argv, traced_pass))
            if not trace and time.perf_counter() - last_probe >= PROBE_GAP_S:
                probes.append(runner.probe())
                refs.append(runner.reference())
                last_probe = time.perf_counter()
        longest = max(longest, time.perf_counter() - began)
        return outcomes

    plain.append(one_pass(False))
    if trace:
        spans.append(one_pass(True))
    while time.perf_counter() + longest <= deadline:
        (spans if trace else plain).append(one_pass(trace))
    return plain, spans, probes, refs


def pass_wall(outcomes):
    return sum(o.wall for o in outcomes)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plain, probes, refs, attempted, failed):
    """Returns (metrics, raw times).  Times are medians over passes, so that
    runs with different numbers of passes report the same quantities, scaled
    by REFERENCE_S / (median reference time): the machine's speed drifts by
    up to 2x over minutes, and the scaling cancels that drift."""
    walls = [[o.wall for o in p] for p in plain]
    raw = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(sum(w) for w in walls),
        "cmd_p50_s": statistics.median(statistics.median(w) for w in walls),
        "cmd_p90_s": statistics.median(
            statistics.quantiles(w, n=10, method="inclusive")[-1] for w in walls),
    }
    scale = REFERENCE_S / statistics.median(refs)
    metrics = {name: metric(value * scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = metric(max(o.rss_mb for p in plain for o in p), "MB")
    metrics["ok_ratio"] = metric(1 - failed / attempted, "ratio")
    raw["reference_s"] = statistics.median(refs)
    return metrics, raw


def layer_totals(outcomes):
    """Per-layer metrics of one traced pass, summed over its commands."""
    m = {"cli.import_s": 0.0, "cli.main.self_s": 0.0, "cli.interp_s": 0.0, "cli.errors": 0}
    for mod, functions in traced.LAYERS.items():
        m[f"{mod}.self_s"] = 0.0
        m[f"{mod}.errors"] = 0
        for f in functions:
            m[f"{mod}.{f}.calls"] = 0
            m[f"{mod}.{f}.self_s"] = 0.0
    for o in outcomes:
        t = o.trace
        _, main_total, main_self, _ = t["records"]["cli.main"]
        m["cli.import_s"] += t["import_s"]
        m["cli.main.self_s"] += main_self
        m["cli.interp_s"] += o.wall - t["import_s"] - main_total
        m["cli.errors"] += int(t["exit"] != 0)
        for name, (calls, total, self_s, errors) in t["records"].items():
            if name == "cli.main":
                continue
            mod = name.split(".")[0]
            m[f"{name}.calls"] += calls
            m[f"{name}.self_s"] += self_s
            m[f"{mod}.self_s"] += self_s
            m[f"{mod}.errors"] += errors
    return m


def per_layer(plain, spans):
    per_pass = [layer_totals(p) for p in spans]
    out = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") else "count"
        out[name] = metric(statistics.median(m[name] for m in per_pass), unit)
    overhead = statistics.median(pass_wall(p) for p in spans) / pass_wall(plain[0])
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


def stress_report(workload, metrics, spans):
    """Whether the traced run shows the workload stressing what it claims."""
    v = {k: m["value"] for k, m in metrics.items()}
    wall = statistics.median(pass_wall(p) for p in spans)
    modules = list(traced.LAYERS)
    if workload == "oracle":
        share = (v["tring.self_s"] + v["divcalc.self_s"]) / wall
        return {"tring+divcalc share of command time": share, "holds": share > 0.8}
    if workload == "queries":
        share = (v["cli.import_s"] + v["cli.interp_s"]) / wall
        return {"import+interpreter share of command time": share, "holds": share > 0.6}
    top = max(modules, key=lambda mod: v[f"{mod}.self_s"])
    return {"largest module self time": top,
            "tring.enumerate_ideals.calls": v["tring.enumerate_ideals.calls"],
            "holds": top == "zerosum" and v["tring.enumerate_ideals.calls"] == 0}


def environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    commit = None
    if (ROOT / ".git").exists():  # else git would answer for an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy, "commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def check_all(commands, passes):
    """(attempted, failure messages) over every outcome of every pass."""
    attempted, failures = 0, []
    for outcomes in passes:
        for cmd, o in zip(commands, outcomes):
            attempted += 1
            why = cmd.check(o.code, o.out, o.err)
            if why:
                failures.append(f"{' '.join(cmd.argv)}: {why}")
    return attempted, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nufact" / "cli.py").is_file():
        print(f"perfbench: no nufact sources under {SRC}", file=sys.stderr)
        return 2
    print("perfbench env: " + json.dumps(environment(args)), file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    try:
        with Runner() as runner:  # started first, while this process is small
            commands = workloads.WORKLOADS[args.workload](args.seed, workloads.load_golden())
            if args.trace:  # each distinct command once, so that two passes fit in time
                commands = list({tuple(c.argv): c for c in commands}.values())
            runner.check_program()
            plain, spans, probes, refs = run_passes(runner, commands, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted, failures = check_all(commands, plain + spans)
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(plain, spans)
        absent = sorted({a for p in spans for o in p for a in o.trace["absent"]})
        if absent:
            print("perfbench: absent (reported as 0): " + " ".join(absent), file=sys.stderr)
        print("perfbench stress: " + json.dumps(stress_report(args.workload, metrics, spans)),
              file=sys.stderr)
    else:
        metrics, raw = end_to_end(plain, probes, refs, attempted, len(failures))
        print("perfbench raw: " + json.dumps(raw), file=sys.stderr)
    print(f"perfbench: {attempted} commands, failed_ratio {len(failures) / attempted}",
          file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
