"""Quality record of the default distillation pipeline, driven through the CLI.

For each checkout given as LABEL=DIR, the script runs that checkout's
``evimatch`` CLI (``python -m evimatch.cli`` with ``DIR/src`` on the path,
one BLAS thread) on a fixed config:

- ``synth --seed 0`` is the training set; ``benchgen --seed 0`` (scene 0,
  whose images repeat training images) and ``benchgen --seed 1`` (scene 1,
  held out) are the benchmarks;
- per training seed 0, 1 and 2: ``train-extractor --seed S`` (timed), then
  ``eval --mode keypoints`` (aligned: each sample against its own image)
  and ``eval --mode rpe`` (cross-view: the benchmark pairs), both with
  mutual nearest neighbour, on each benchmark.

Each eval contributes repeatability@3, MMA@3 and VDA from report.csv and
the correct and matches totals of pairs.csv.  The record's "quality"
section holds only these values and the per-benchmark means over the
training seeds; "train_s" and "environment" hold what may vary between
runs.  Two runs at one commit give equal "quality" sections.

    python quality/run.py --out QUALITY.json parent=../parent change=.
    python quality/run.py --check A.json B.json   # equal quality sections?
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

TRAIN_SEEDS = (0, 1, 2)
BENCHMARKS = {"scene0": "0", "scene1_held_out": "1"}
MODES = {"aligned": "keypoints", "cross_view": "rpe"}
REPORT_KEYS = {"repeatability@3": "repeatability", "mma@3": "mma", "vda": "vda"}
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}


def cli(checkout, argv):
    env = dict(os.environ, **THREADS,
               PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "evimatch.cli", *argv], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: evimatch {' '.join(argv)}: {done.stderr.strip()}")
    return time.perf_counter() - t0


def read_eval(out):
    with open(os.path.join(out, "report.csv")) as f:
        report = {row["metric"] + (f"@{row['threshold']}" if row["threshold"] else ""):
                  float(row["value"]) for row in csv.DictReader(f)}
    with open(os.path.join(out, "pairs.csv")) as f:
        rows = list(csv.DictReader(f))
    values = {name: report.get(key) for key, name in REPORT_KEYS.items()}
    values["correct"] = sum(int(r["correct"]) for r in rows)
    values["matches"] = sum(int(r["matches"]) for r in rows)
    return values


def mean(values):
    values = [v for v in values if v is not None]
    return round(sum(values) / len(values), 6) if values else None


def record(checkout, work):
    data = {name: os.path.join(work, name) for name in ("train", *BENCHMARKS)}
    cli(checkout, ["synth", "--seed", "0", "--out", data["train"]])
    for name, seed in BENCHMARKS.items():
        cli(checkout, ["benchgen", "--seed", seed, "--out", data[name]])
    per_seed, train_s = {}, {}
    for seed in TRAIN_SEEDS:
        student = os.path.join(work, f"student{seed}")
        train_s[str(seed)] = round(cli(checkout, [
            "train-extractor", "--data", data["train"], "--seed", str(seed),
            "--out", student]), 2)
        ckpt = os.path.join(student, "student.ckpt")
        for bench in BENCHMARKS:
            for view, mode in MODES.items():
                out = os.path.join(work, f"eval{seed}_{bench}_{mode}")
                cli(checkout, ["eval", "--data", data[bench], "--mode", mode,
                               "--extractor", ckpt, "--out", out])
                per_seed.setdefault(bench, {}).setdefault(view, {})[str(seed)] = \
                    read_eval(out)
    quality = {}
    for bench, views in per_seed.items():
        for view, seeds in views.items():
            keys = next(iter(seeds.values()))
            quality.setdefault(bench, {})[view] = {
                "per_seed": seeds,
                "mean": {k: mean([s[k] for s in seeds.values()]) for k in keys}}
    return {"quality": quality, "train_s": train_s}


def check(paths):
    sides = []
    for path in paths:
        with open(path) as f:
            sides.append({k: v["quality"] for k, v in json.load(f)["sides"].items()})
    if sides[0] != sides[1]:
        sys.exit(f"quality differs between {paths[0]} and {paths[1]}")
    print("quality sections are equal")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="LABEL=DIR")
    parser.add_argument("--out", help="JSON record to write")
    parser.add_argument("--work", help="directory for the runs (default: temporary)")
    parser.add_argument("--check", nargs=2, metavar="JSON")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    if not args.sides or not args.out:
        parser.error("give --out and at least one LABEL=DIR")
    result = {"environment": {"python": platform.python_version(),
                              "machine": platform.machine(),
                              "numpy": np.__version__, **THREADS},
              "sides": {}}
    for side in args.sides:
        label, _, checkout = side.partition("=")
        with tempfile.TemporaryDirectory() as tmp:
            work = os.path.join(args.work or tmp, label)
            os.makedirs(work, exist_ok=True)
            result["sides"][label] = record(checkout, work)
        print(f"{label}: done", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
