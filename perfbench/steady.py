#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and run-to-run spread (inter-quartile range over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) against the bound
that BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workloads served_warm,offline_grid \
        --seeds 1,2,3,4,5 [--out results.json]

Run it from the repository root.  Runs are sequential.  A spread above a
third of the metric's bound is marked, and one above the bound itself is
marked as such.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect results")
    host = next((l.strip() for l in lines if l.strip().startswith("# host:")), "")
    return {name: m["value"] for name, m in result["metrics"].items()}, host


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = [int(s) for s in opts.seeds.split(",")]
    collected = {}
    for workload in opts.workloads.split(","):
        runs = []
        for seed in seeds:
            values, host = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"], opts.trace)
            runs.append(values)
            print(f"{workload} seed {seed}: done {host}", flush=True)
        collected[workload] = runs
        print(f"\n{workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [r[name] for r in runs]
            print(f"  {name:<40} " + " ".join(f"{v:.4g}" for v in values))
        for name in runs[0]:
            values = [r[name] for r in runs]
            s = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and s > bound / 3:
                mark = "  <-- above a third of the bound" if s <= bound else "  <-- ABOVE THE BOUND"
            print(f"  {name:<40} median {statistics.median(values):>14.6g}"
                  f"  spread {s:7.4f}  bound {bound}{mark}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(collected, f, indent=1)


if __name__ == "__main__":
    main()
