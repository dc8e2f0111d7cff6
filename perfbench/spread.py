#!/usr/bin/env python3
"""Run workloads several times and report each metric's run-to-run spread.

    python3 perfbench/spread.py --runs 10 [--workloads oltp_local,batch_etl]
                                [--first-seed 1] [--trace 0] [--save runs.json]

Each run uses the next seed. For every metric it prints the median, the
quartiles (Python's statistics.quantiles, n=4), min and max, and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json: "steady"
below a third of the bound, "within" below the bound, "NOISY" above it.
Metrics a run computes beyond its list (its "# also measured:" line) follow,
without a bound. --save writes every run's values for compare.py. Run from
the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"spread: {workload} seed {seed} failed with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    values = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if line.startswith("# also measured: "):
            for item in line[len("# also measured: "):].split(", "):
                name, value, _unit = item.split(" ")
                values[name] = float(value)
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def report(bench, runs_by_workload, trace):
    listed = {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}
    every = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for workload, runs in runs_by_workload.items():
        extra = [n for n in runs[0] if n not in listed and n in every]
        specs = dict(listed, **{n: dict(every[n], bound=None) for n in extra})
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for name, spec in specs.items():
            values = [r[name] for r in runs]
            s = summarize(values)
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if s["spread"] < bound / 3
                           else "within" if s["spread"] <= bound else "NOISY")
            print(f"  {name:34} {spec['unit']:6} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['min']:12.6g} {s['max']:12.6g} {s['spread']:7.2%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6} {verdict}")


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save")
    args = p.parse_args()
    if args.runs < 2:
        sys.exit("spread: need at least two runs")
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs[workload].append(run_once(bench, workload, seed, args.trace))
            print(f"spread: {workload} seed {seed} done", file=sys.stderr)
    report(bench, runs, args.trace)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
