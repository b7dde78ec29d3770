#!/usr/bin/env python3
"""Steadiness mode: run each workload k times, each with another seed,
and print per end-to-end metric the median, the quartiles, the
interquartile range and the full range as shares of the median.

Run from the repository root:

    python3 perfbench/steady.py [-k 10] [--seconds 10] [--first-seed 1] [workload ...]

With no workloads named it runs every workload in BENCHMARK.json. The
quartiles are Python's statistics.quantiles(values, n=4). Each metric's
bound from BENCHMARK.json is printed beside its spread; the bounds there
are chosen from this output. Above each table it prints every run's
median calibration time, the speed of the machine during that run (see
cpuclock.go), and its op_cpu_ms, so that a spread can be told apart
from a change of the machine's speed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    cal = re.search(r"([\d.]+) ms in the run", out.stderr)
    res["calib_ms"] = float(cal.group(1)) if cal else None
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"# nproc {os.cpu_count()}, k={args.k}, {seconds}s per run, "
          f"seeds {args.first_seed}..{args.first_seed + args.k - 1}")
    for name in names:
        t0 = time.time()
        runs = [run_once(bench, name, args.first_seed + i, seconds)
                for i in range(args.k)]
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"\n## {name}  ({time.time() - t0:.0f}s, correct={correct}, "
              f"failed/attempted={[f'{f}/{a}' for f, a in shares][:3]})")
        print("run calibration ms:", " ".join(f"{r['calib_ms']}" for r in runs))
        print("op_cpu_ms by run:  ", " ".join(
            f"{r['metrics']['op_cpu_ms']['value']:.4g}" for r in runs
            if "op_cpu_ms" in r["metrics"]))
        print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
        for metric in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = bounds.get(metric)
            print(f"{metric:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{iqr:>9.3f}{rng:>10.3f}{bound if bound is not None else '':>7}")


if __name__ == "__main__":
    main()
