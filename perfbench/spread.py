#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each end-to-end metric's
median and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload cold-sweep --seeds 10
    python3 perfbench/spread.py --workload all --seeds 10 --sets 2

Run from the repository root. Spreads above a third of the metric's bound in
BENCHMARK.json are marked, setup_s included. With --sets 2 or more, each
later set is run again with the same seeds, and a median that is worse than
the first set's by more than the bound is marked.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, workload, seeds, seconds):
    values = {}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect result: {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        host = json.loads(lines[-2])["host_time"]
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())) +
            " | host time: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(host.items())), flush=True)
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    medians = {}
    for s in range(args.sets):
        for w in workloads:
            values = run_set(bench, w, seeds, seconds)
            for name in sorted(values):
                bound = metrics[name]["bound"]
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med
                flag = "  <-- spread above a third of the bound" if spread > bound / 3 else ""
                if s > 0:
                    first = medians[w, name]
                    worse = (med - first) / first if metrics[name]["better"] == "lower" else (first - med) / first
                    flag += f"  worse than set 1 by {worse:+.4f}"
                    if worse > bound:
                        flag += "  <-- above the bound"
                else:
                    medians[w, name] = med
                print(f"set {s + 1} {w} {name}: median {med:.6g} spread {spread:.4f} (bound {bound}){flag}",
                      flush=True)


if __name__ == "__main__":
    main()
