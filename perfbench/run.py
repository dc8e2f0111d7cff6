#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload oltp_local --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark package (perfbench/Cargo.toml)
is built in release mode into $CARGO_TARGET_DIR (default .bench_build), then
run once. Its standard output is relayed after a host line; the last line is
the JSON result. Any correctness mismatch exits non-zero without a result.
Pass --flip-oracle to check that a wrong expectation fails the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("oltp_local", "batch_etl", "wire_durable")
# Source that decides the measured program's behaviour, digested when the
# checkout is not a git repository.
SOURCE_DIRS = ("crates", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("the repository sources are missing; run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "tintin-perfbench")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None


def source_digest():
    h = hashlib.sha256()
    skip = {"target", ".bench_build", "__pycache__"}
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    rev = first_line(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": first_line(["rustc", "--version"]),
        "revision": rev or f"source-sha256:{source_digest()}",
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--flip-oracle", action="store_true")
    args = p.parse_args()

    binary = build()
    out_dir = os.path.join(target_dir(), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    if args.flip_oracle:
        cmd.append("--flip-oracle")
    env = dict(os.environ, TINTIN_LOG="warn")
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no JSON result on the last line")
    if not result.get("correct") or result.get("attempted", 0) < 1:
        fail("run reported no correct result")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in listed):
        fail("the metrics printed differ from the list in BENCHMARK.json")
    print("# host " + json.dumps(host(args), sort_keys=True))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
