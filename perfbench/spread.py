#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload distill --seeds 1-10 --seconds 30

Runs perfbench/run.py once per seed, one process at a time, and prints for
each end-to-end metric its median, quartiles and the quartile distance as
a share of the median next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    values = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} wall_s={time.perf_counter() - start:.1f} "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])

    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<20} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={(q3 - q1) / med:.4f} bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
