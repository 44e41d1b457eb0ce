#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Usage, from the root of a checkout of the repository:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 \
        [--workloads sim_steady,tcp_durable] [--out runs.jsonl]
    python3 perfbench/steadiness.py --from runs.jsonl [--from more.jsonl]

The first form runs `perfbench/run.py --trace 0` once per seed and
workload (seeds first-seed .. first-seed+runs-1, --seconds from
BENCHMARK.json), appending one JSON line per run to --out. Both forms
print, for every workload and end-to-end metric, the median and the
spread: the distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of their median, next to
the metric's bound. A spread at or above a third of its bound is marked.
For the host- and wall-time metrics it also prints the spread of the same
runs scaled to reference host speed and as measured (the benchmark's
stderr carries both), so the choice of which one a workload reports rests
on paired runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_TIME = "perfbench: host-time "


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_all(bench, workloads, first_seed, runs, out):
    for workload in workloads:
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            host_time = None
            for line in proc.stderr.splitlines():
                if line.startswith(HOST_TIME):
                    host_time = json.loads(line[len(HOST_TIME):])
            record = {"workload": workload, "seed": seed, "exit": proc.returncode,
                      "result": result, "host_time": host_time}
            with open(out, "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("inf")


def report(bench, records):
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rs in by_workload.items():
        ok = [r for r in rs if r["exit"] == 0 and r["result"] and r["result"]["correct"]]
        print(f"\n{workload}: {len(ok)}/{len(rs)} runs correct, "
              f"seeds {min(r['seed'] for r in rs)}..{max(r['seed'] for r in rs)}")
        print(f"  {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in ok]
            if len(values) < 2:
                continue
            med, s = spread(values)
            mark = "" if s < m["bound"] / 3 else "  <-- at or above bound/3"
            print(f"  {m['name']:<20} {med:>14.4f} {s:>8.4f} {m['bound']:>6}{mark}")
        paired = [r["host_time"] for r in ok if r.get("host_time")]
        if len(paired) < 2:
            continue
        print(f"  paired spreads of {len(paired)} runs: {'metric':<14} {'scaled':>8} {'raw':>8}")
        for name in paired[0]["scaled"]:
            s, r = (spread([p[form][name]["value"] for p in paired])[1]
                    for form in ("scaled", "raw"))
            print(f"  {'':<28}{name:<14} {s:>8.4f} {r:>8.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--out", default="steadiness.jsonl")
    p.add_argument("--from", dest="sources", action="append")
    args = p.parse_args()
    bench = load_benchmark()
    if not args.sources:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        run_all(bench, workloads, args.first_seed, args.runs, args.out)
        args.sources = [args.out]
    records = []
    for path in args.sources:
        with open(path, encoding="utf-8") as f:
            records += [json.loads(line) for line in f if line.strip()]
    report(bench, records)


if __name__ == "__main__":
    main()
