#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance
check takes it: N runs per workload, each with another --seed; per metric
the distance between the first and third quartile of the N values
(statistics.quantiles, n=4) as a share of their median, against the
metric's bound in BENCHMARK.json. A benchmark change should keep every
spread below a third of its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run it from the repository root. Exits 1 if a spread exceeds its bound or
a run reports a failure.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: failed {result['failed']} of {result['attempted']}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w} ({args.runs} runs, seeds from {args.first_seed}) ==")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            within = name == "setup_s" or spread <= bounds[name]
            ok &= within
            note = "" if spread <= bounds[name] / 3 else "  (above a third of the bound)"
            if not within:
                note = "  EXCEEDS BOUND"
            print(f"  {name:<18} median {med:>14.6g}  spread {spread:7.2%}  "
                  f"bound {bounds[name]:4.0%}{note}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
