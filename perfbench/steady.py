#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command several times per workload, each run with
another seed, and prints for every end-to-end metric its median and
the spread between the first and third quartile as a share of the
median (statistics.quantiles, n=4), beside the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 101]
                                [--workload NAME ...] [--seconds S]

Run it from the root of the repository. Exits 1 if any run fails or
prints an incorrect result.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for name in args.workload or names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                ok = False
                print(f"{name} seed {seed}: exit {out.returncode}, no result")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: {result}")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
                flush=True)
        for metric, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = f"{(q3 - q1) / med:.4f}"
            else:
                spread = "n/a"
            print(f"  {name:15} {metric:40} median {med:.6g}  spread {spread}"
                  f"  bound {bounds.get(metric)}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
