#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload --runs times, with seeds 1 to --runs, rotating
the workload order from one round to the next, then one traced run per
workload. For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (third minus first quartile, as a
share of the median) against the metric's bound in BENCHMARK.json, the share
of failed operations, and the tracing overhead: the traced run's own
end-to-end figure against the untraced median.

Run it from the checkout root:

    python3 perfbench/steady.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    traced, summary = None, ""
    for line in p.stderr.splitlines():
        prefix = f"perfbench {workload} traced: "
        if line.startswith(prefix):
            traced = json.loads(line[len(prefix):])
        elif line.startswith(f"perfbench {workload}: "):
            summary = line
    return result, traced, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    shares = {w: set() for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            res, _, summary = run(w, i + 1, seconds, 0)
            if not res["correct"]:
                sys.exit(f"{w} seed {i + 1}: incorrect output")
            shares[w].add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for name, m in res["metrics"].items():
                values[w][name].append(m["value"])
            print(f"run {i + 1}/{args.runs} {w}: " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
            print("    " + summary, flush=True)

    traced = {}
    for w in workloads:
        layers, traced[w], _ = run(w, 1, seconds, 1)
        print(f"traced {w}: " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(layers["metrics"].items())),
              flush=True)

    print(f"\n{'workload':8} {'metric':20} {'unit':5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'traced':>8}")
    for w in workloads:
        for m in spec["end_to_end"]:
            xs = values[w][m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            over = f"{traced[w][m['name']]['value'] / med - 1:+.1%}"
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"{w:8} {m['name']:20} {m['unit']:5} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.1%} {m['bound']:6.2f} {over:>8}{flag}")
        print(f"{w:8} failed share: {sorted(shares[w], key=str)}")


if __name__ == "__main__":
    main()
