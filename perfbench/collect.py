"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --out results.json [--trace-seed N]

Runs run.py once per (seed, workload), seeds in the outer loop so that slow
drift of the machine spreads over every workload, then once with --trace 1
per workload when --trace-seed is given.  Every run measures for
run_seconds from BENCHMARK.json, as the benchmark's runs are meant to, so
that a collection compares with them.  For each end-to-end metric it
reports the median and the distance between the first and third quartile
as a share of the median (statistics.quantiles, n=4), next to the metric's
bound from BENCHMARK.json.  Writes every run, the environment and the
summary to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line.split(": ", 1)[1]) for line in proc.stderr.splitlines()
               if line.startswith("perfbench env: "))
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"env": env, "result": result,
            "notes": [line for line in proc.stderr.splitlines()
                      if not line.startswith("perfbench env: ")]}


def summarise(runs, bounds):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "bound": bounds.get(name)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    names = sorted(workloads.WORKLOADS)
    runs = {w: [] for w in names}
    for seed in args.seeds:
        for w in names:
            runs[w].append(one_run(w, seed, spec["run_seconds"], 0))
            print(w, seed, json.dumps(runs[w][-1]["result"]), flush=True)
    report = {"environment": runs[names[0]][0]["env"], "workloads": {}}
    for w in names:
        entry = {"summary": summarise(runs[w], bounds), "runs": runs[w]}
        if args.trace_seed is not None:
            entry["traced"] = one_run(w, args.trace_seed, spec["run_seconds"], 1)
        report["workloads"][w] = entry
        print(f"\n{w}: {len(runs[w])} runs")
        for name, s in entry["summary"].items():
            print(f"  {name:12s} median {s['median']:.4g}  spread {s['spread']:.3f}  "
                  f"bound {s['bound']}")
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
