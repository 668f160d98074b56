#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric,
the median and the spread: the distance between the first and third
quartiles as a share of the median, against a third of the metric's bound.

    python3 perfbench/spread.py --workload chain-steady --seeds 1-10

Run from the repository root. Each run is untraced and lasts BENCHMARK.json's
run_seconds. The last line of each run's output is parsed.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range a-b")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} {line}",
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for k, xs in sorted(values.items()):
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        b = bounds[k]
        verdict = ("ok" if spread < b / 3 else "WIDE") + f" (bound/3 {b / 3:.4f})"
        print(f"{k:24s} median {med:12.6g}  spread {spread:.4f} {verdict}")


if __name__ == "__main__":
    main()
