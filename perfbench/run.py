#!/usr/bin/env python3
"""Benchmark of the evimatch pipeline, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload datagen|distill|match --seed N \
        --seconds S --trace 0|1

Set-up imports the program (timed in fresh processes) and builds the
workload's inputs from the seed, each several times, to time it; then the
run repeats identical passes in a closed loop until the next
pass would end after S seconds.  Every pass's outputs are checked and
hashed; a pass whose bytes differ from the first pass, or from an earlier
run of the same seed and source, makes the run incorrect.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the
passes alternate untraced and traced, and it carries per-layer self times,
counts and the tracing overhead.  Lines before it print the environment,
every pipeline metric by name and unit, failures and output digests.
Scratch files, spans and result records go to .perfbench_work/.
"""

import os
import sys
import time

BLAS_THREADS = 1
# pinned before numpy loads: one thread is steady across processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("train_items_per_s", "items/s"),
              ("eval_items_per_s", "items/s"), ("peak_rss_mb", "MiB"))
# what a user of each pipeline stage sees; "-" where a workload skips it
PIPELINE = (
    ("setup_s", "s"), ("synth_samples_per_s", "samples/s"),
    ("benchgen_pairs_per_s", "pairs/s"), ("distill_samples_per_s", "samples/s"),
    ("extract_frames_per_s", "frames/s"), ("eval_pairs_per_s", "pairs/s"),
    ("matcher_train_pairs_per_s", "pairs/s"), ("match_pairs_per_s", "pairs/s"),
    ("peak_rss_mb", "MiB"), ("error_rate", "ratio"), ("distill_loss", "loss"),
    ("matcher_loss", "loss"), ("repeatability", "ratio"), ("mma", "ratio"),
    ("rpe_auc10", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest(directory):
    """sha256 over the .py files directly in a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(np, seed, src):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "seed": seed, "commit": commit,
            "source_sha256": source_digest(os.path.join(src, "evimatch")),
            "bench_sha256": source_digest(HERE)}


def _median(values):
    return statistics.median(values) if values else 0.0


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def load_program(src):
    """Import numpy, evimatch and the benchmark's modules from src."""
    sys.path[:0] = [src] + ([HERE] if HERE not in sys.path else [])
    import numpy
    import layers
    import tracing
    import workloads
    return numpy, layers, tracing, workloads


def time_imports(src):
    """Seconds of the run's imports and the host slowdown, in each of
    IMPORT_REPEATS fresh processes (one import alone is too noisy)."""
    import hostspeed

    probe = (f"import sys, time\nsys.path.insert(0, {HERE!r})\n"
             "t = time.perf_counter()\nimport run\n"
             f"run.load_program({src!r})\nprint(time.perf_counter() - t)\n")
    times = []
    ref = hostspeed.reference_s()
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=120, check=True)
        after = hostspeed.reference_s()
        times.append((float(proc.stdout.split()[-1]),
                      hostspeed.slowdown(ref, after)))
        ref = after
    return times


def time_setup(wl, problems):
    """Repeat set-up; returns (seconds, host slowdown) per repetition and
    the digests of what set-up wrote."""
    import hostspeed

    times, first = [], None
    ref = hostspeed.reference_s()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(wl.input, ignore_errors=True)
        start = time.perf_counter()
        digests = wl.setup()
        seconds = time.perf_counter() - start
        after = hostspeed.reference_s()
        times.append((seconds, hostspeed.slowdown(ref, after)))
        ref = after
        if first is None:
            first = digests
        elif digests != first:
            problems.append("set-up outputs differ between repetitions")
    return times, first


def run_passes(wl, out, seconds, trace, tracer, problems):
    """Closed loop of passes; returns ([(traced, PassResult)], digests).

    With trace, odd passes run under the tracer.  The loop stops when the
    longest pass so far would end after `seconds`.
    """
    import hostspeed
    import workloads

    passes, first, longest = [], None, 0.0
    start = time.perf_counter()
    ref = hostspeed.reference_s()
    while True:
        traced = trace and len(passes) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        t = time.perf_counter()
        if traced:
            with tracer:
                result = wl.run_pass(out)
        else:
            result = wl.run_pass(out)
        after = hostspeed.reference_s()
        result.slowdown = hostspeed.slowdown(ref, after)
        ref = after
        problems += wl.check(out, result)
        digests = workloads.digest_tree(out) if os.path.isdir(out) else {}
        if first is None:
            first = digests
        elif digests != first:
            changed = sorted(k for k in set(digests) | set(first)
                             if digests.get(k) != first.get(k))
            problems.append(f"pass {len(passes)} bytes differ from pass 0: "
                            + ", ".join(changed))
        passes.append((traced, result))
        longest = max(longest, time.perf_counter() - t)
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and time.perf_counter() - start + longest > seconds:
            return passes, first


def check_store(path, record, problems):
    """The same seed, program and benchmark must give the same bytes."""
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != record:
                problems.append(f"bytes differ from the earlier run recorded in {path}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(record, f, indent=1)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "evimatch", "__init__.py")):
        print(f"perfbench: no evimatch sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    np, layers, tracing, workloads = load_program(src)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # one core for the whole run: the scheduler does not move it mid-pass
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = environment(np, args.seed, src)
    env["cpu"] = cpu

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    problems = []
    import_times = time_imports(src)
    setup_times, setup_digests = time_setup(wl, problems)
    setup_s = (statistics.median(t / f for t, f in import_times)
               + statistics.median(t / f for t, f in setup_times))
    tracer = tracing.Tracer()
    counters = layers.install_hooks(tracer)
    passes, pass_digests = run_passes(wl, os.path.join(work, "pass"), args.seconds,
                                      args.trace == 1, tracer, problems)
    record = {"setup": setup_digests, "pass": pass_digests}
    check_store(os.path.join(WORK, "digests", f"{args.workload}-seed{args.seed}-"
                             f"{env['source_sha256'][:12]}-{env['bench_sha256'][:12]}.json"),
                record, problems)

    plain = [r for traced, r in passes if not traced]
    traced_runs = [r for traced, r in passes if traced]
    results = [r for _, r in passes]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    import_s = statistics.median(t for t, _ in import_times)
    pipeline = {"setup_s": import_s + statistics.median(t for t, _ in setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "error_rate": failed / attempted}
    for name in {k for r in plain for k in r.rates}:
        pipeline[name] = _median([r.rates[name] for r in plain if name in r.rates])
    pipeline.update({k: v for k, v in results[-1].quality.items()
                     if k != "correct_match_ratio"})

    if args.trace:
        overhead = 100.0 * (
            _median([(r.train_s + r.eval_s) / r.slowdown for r in traced_runs])
            / _median([(r.train_s + r.eval_s) / r.slowdown for r in plain]) - 1.0)
        metrics = layers.per_layer(
            tracer, counters, len(traced_runs),
            _median([r.quality.get("correct_match_ratio", 0.0) for r in traced_runs]),
            overhead)
        tracer.write_csv(os.path.join(work, "spans.csv"))
    else:
        end_to_end = {
            "setup_s": setup_s,
            "train_items_per_s": _median([r.train_items / r.train_s * r.slowdown
                                          for r in plain if r.train_s > 0]),
            "eval_items_per_s": _median([r.eval_items / r.eval_s * r.slowdown
                                         for r in plain if r.eval_s > 0]),
            "peak_rss_mb": pipeline["peak_rss_mb"],
        }
        metrics = {name: (end_to_end[name], unit) for name, unit in END_TO_END}

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes untraced={len(plain)} traced={len(traced_runs)} "
          f"setup_repeats={SETUP_REPEATS} import_repeats={IMPORT_REPEATS} "
          f"import_s={import_s:.6g} "
          f"host_slowdown={_median([r.slowdown for r in results]):.4g}")
    for name, unit in PIPELINE:
        print(f"pipeline {name:<26} {_fmt(pipeline.get(name)):>12} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{'layer' if args.trace else 'e2e'} {name:<40} {value:.6g} {unit}")
    if args.trace:
        # every span name over all traced passes, largest self time first
        for name, (self_s, calls) in sorted(tracer.summary().items(),
                                            key=lambda kv: -kv[1][0]):
            print(f"span {name:<44} calls={calls} self_s={self_s:.6g} "
                  f"self_ms_per_call={1e3 * self_s / calls:.4g}")
    for path, digest in sorted({**{f"input/{k}": v for k, v in setup_digests.items()},
                                **{f"pass/{k}": v for k, v in pass_digests.items()}}.items()):
        print(f"digest {digest} {path}")
    for message in sorted(set(e for r in results for e in r.errors)):
        print(f"failure {message}")
    for message in problems:
        print(f"incorrect {message}")

    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w") as f:
        json.dump({"env": env, "pipeline": pipeline, "metrics": metrics,
                   "setup_times": setup_times, "import_times": import_times,
                   "passes": [{"traced": tr, "slowdown": r.slowdown,
                               "train_items": r.train_items,
                               "train_s": r.train_s, "eval_items": r.eval_items,
                               "eval_s": r.eval_s, "rates": r.rates,
                               "quality": r.quality, "errors": r.errors}
                              for tr, r in passes],
                   "digests": record, "problems": problems}, f, indent=1)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
