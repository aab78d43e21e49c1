"""The three benchmark workloads and the operation runner they share.

Each workload builds its inputs from the seed in ``setup`` and then runs
identical passes.  A pass has a train side and an eval side, each timed
on its own:

- datagen: train side ``synth``, eval side ``benchgen`` (default 64x64
  scene, dt_sim 1 ms).
- distill: train side ``train-extractor``; eval side ``extract --modality
  events`` and ``eval --mode keypoints`` on a benchmark built in setup at
  a coarse dt_sim.  ``eval --mode rpe`` is left out: at this size every
  pair fails and the command exits 1 (see README.md).
- match: train side ``train_matcher``; eval side ``ca_match``,
  ``mnn_match``, ``estimate_essential_ransac``, ``pose_angular_errors``
  and ``rpe_auc`` on synthetic two-view keypoint sets.

An operation is one CLI command, one training call, or one pair sent to
pose estimation.  It fails on a nonzero exit, an uncaught exception or a
non-finite pose error; a failure is counted and the pass goes on.  All
paths are relative to the repository root, so the bytes the program
writes (config echoes include paths) repeat across runs and checkouts.
``check`` runs after the timed pass, outside any trace, and reports
outputs that are wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from evimatch import cli
from evimatch.autodiff import Tensor
from evimatch import datagen as edatagen
from evimatch import extractor as eextractor
from evimatch import geometry as egeometry
from evimatch import io as eio
from evimatch import matching as ematching
from evimatch import metrics as emetrics
from evimatch import representations as erepresentations

import twoview


@dataclass
class PassResult:
    train_items: int = 0
    train_s: float = 0.0
    eval_items: int = 0
    eval_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rates: dict = field(default_factory=dict)  # per-stage items/s
    quality: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)  # handed to check()
    slowdown: float = 1.0  # host slowdown while the pass ran (hostspeed)


def digest_tree(root):
    """sha256 of every file under root, keyed by path relative to root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


def _lines(path):
    with open(path) as f:
        return f.read().split()


def _report(path):
    """report.csv rows as {metric or metric@threshold: value}."""
    values = {}
    with open(path) as f:
        next(f)
        for line in f:
            metric, thr, value = line.strip().split(",")
            values[metric + ("@" + thr if thr else "")] = float(value)
    return values


class Runner:
    """Runs operations, times them and counts failures."""

    def __init__(self, result: PassResult):
        self.result = result

    def cli(self, argv):
        """One CLI command; returns (ok, seconds)."""
        out, err = _io.StringIO(), _io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            message = err.getvalue().strip().splitlines()[-1:] or [f"exit {rc}"]
        except Exception:
            rc = None
            message = [traceback.format_exc().strip().splitlines()[-1]]
        seconds = time.perf_counter() - start
        self.result.attempted += 1
        if rc != 0:
            self.result.failed += 1
            self.result.errors.append(f"{argv[0]}: {message[0]}")
        return rc == 0, seconds

    def pairs(self, n, n_failed):
        """n pairs sent to pose estimation, n_failed of them non-finite."""
        self.result.attempted += n
        self.result.failed += n_failed


def _rate(items, seconds):
    return items / seconds if seconds > 0 else 0.0


class Workload:
    name = ""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work  # relative directory owned by this run
        self.input = os.path.join(work, "input")

    def setup(self):
        """Build the inputs and warm up; returns digests of what it wrote."""
        raise NotImplementedError

    def run_pass(self, out) -> PassResult:
        raise NotImplementedError

    def check(self, out, result: PassResult):
        """Problems with a finished pass's outputs, as messages.

        Runs after the timed part and outside any trace; a workload that
        calls the library directly writes its outputs under ``out`` here.
        """
        raise NotImplementedError


def _check_dataset(root, n_expected, problems):
    samples, _, width, height = eio.load_dataset(root)
    if len(samples) != n_expected:
        problems.append(f"{root}: {len(samples)} samples, expected {n_expected}")
    for i, s in enumerate(samples):
        ev = s.events
        if not (np.all(np.isfinite(s.image)) and np.all((s.image >= 0) & (s.image <= 1))):
            problems.append(f"{root}: sample {i} image outside [0, 1]")
        if not (np.all(np.isfinite(s.depth)) and np.all(s.depth > 0)):
            problems.append(f"{root}: sample {i} depth not finite and positive")
        if s.image.shape != (height, width) or s.depth.shape != (height, width):
            problems.append(f"{root}: sample {i} has the wrong frame size")
        if len(ev) and not (np.all(np.diff(ev.ts) >= 0)
                            and ev.ts[-1] <= s.t + 1e-6):
            problems.append(f"{root}: sample {i} events unordered or after t")
    return samples


class Datagen(Workload):
    name = "datagen"
    SYNTH_N = 2
    BENCH_PAIRS = 1

    def setup(self):
        # the CLI builds the scene from the seed; warm up the renderer once
        scene = edatagen.make_scene(seed=self.seed)
        edatagen.render(scene, 0.5)
        return {}

    def run_pass(self, out):
        r = PassResult()
        run = Runner(r)
        seed = str(self.seed)
        ok, t = run.cli(["synth", "--n", str(self.SYNTH_N), "--seed", seed,
                         "--out", os.path.join(out, "synth")])
        r.train_items, r.train_s = (self.SYNTH_N if ok else 0), t
        r.rates["synth_samples_per_s"] = _rate(r.train_items, t)
        ok, t = run.cli(["benchgen", "--n-pairs", str(self.BENCH_PAIRS),
                         "--seed", seed, "--out", os.path.join(out, "bench")])
        if ok:
            r.eval_items = len(eio.load_pairs(os.path.join(out, "bench", "pairs.txt")))
        r.eval_s = t
        r.rates["benchgen_pairs_per_s"] = _rate(r.eval_items, t)
        return r

    def check(self, out, result):
        problems = []
        if result.train_items:
            _check_dataset(os.path.join(out, "synth"), self.SYNTH_N, problems)
        if result.eval_items:
            bench = os.path.join(out, "bench")
            pairs = eio.load_pairs(os.path.join(bench, "pairs.txt"))
            _check_dataset(bench, 2 * len(pairs), problems)
            for i, j, overlap in pairs:
                if not (0.4 <= overlap <= 0.8 and 0 <= i < j < 2 * len(pairs)):
                    problems.append(f"{bench}: bad pair {i} {j} {overlap}")
        return problems


class Distill(Workload):
    name = "distill"
    TRAIN_N = 8
    BENCH_PAIRS = 4
    EPOCHS = 3
    DT_SIM = "0.025"

    def setup(self):
        seed = str(self.seed)
        r = PassResult()
        run = Runner(r)
        train = os.path.join(self.input, "train")
        bench = os.path.join(self.input, "bench")
        run.cli(["synth", "--n", str(self.TRAIN_N), "--seed", seed,
                 "--dt-sim", self.DT_SIM, "--out", train])
        run.cli(["benchgen", "--n-pairs", str(self.BENCH_PAIRS), "--seed", seed,
                 "--dt-sim", self.DT_SIM, "--out", bench])
        if r.failed:
            raise RuntimeError("setup failed: " + "; ".join(r.errors))
        # warm-up: one untrained student forward pass on a real input
        samples, _, _, _ = eio.load_dataset(train)
        config = eextractor.ExtractorConfig(in_channels=16)
        params = eextractor.init_student(config, seed=self.seed)
        rep = erepresentations.build_representation(samples[0].events, "voxel", bins=16)
        eextractor.forward_student(rep, params, config)
        return digest_tree(self.input)

    def run_pass(self, out):
        r = PassResult()
        run = Runner(r)
        train = os.path.join(self.input, "train")
        bench = os.path.join(self.input, "bench")
        student = os.path.join(out, "student")
        ckpt = os.path.join(student, "student.ckpt")
        ok, t = run.cli(["train-extractor", "--data", train, "--epochs",
                         str(self.EPOCHS), "--batch", "8", "--seed", str(self.seed),
                         "--out", student])
        r.train_items, r.train_s = (self.EPOCHS * self.TRAIN_N if ok else 0), t
        r.rates["distill_samples_per_s"] = _rate(r.train_items, t)
        if ok:
            rows = _lines(os.path.join(student, "loss.csv"))
            r.quality["distill_loss"] = float(rows[-1].split(",")[-1])
        n_frames = 2 * self.BENCH_PAIRS
        ok, t = run.cli(["extract", "--data", bench, "--modality", "events",
                         "--extractor", ckpt, "--out", os.path.join(out, "extract")])
        r.eval_items += n_frames if ok else 0
        r.eval_s += t
        r.rates["extract_frames_per_s"] = _rate(n_frames if ok else 0, t)
        ok, t = run.cli(["eval", "--data", bench, "--mode", "keypoints",
                         "--extractor", ckpt, "--out", os.path.join(out, "eval_kp")])
        r.eval_items += n_frames if ok else 0
        r.eval_s += t
        if ok:
            rep = _report(os.path.join(out, "eval_kp", "report.csv"))
            for key, name in (("repeatability@3", "repeatability"), ("mma@3", "mma")):
                if key in rep:
                    r.quality[name] = rep[key]
        return r

    def check(self, out, result):
        problems = []
        student = os.path.join(out, "student")
        if result.train_items:
            rows = _lines(os.path.join(student, "loss.csv"))[1:]
            if len(rows) != self.EPOCHS or not all(
                    math.isfinite(float(v)) for row in rows for v in row.split(",")):
                problems.append(f"{student}/loss.csv: expected {self.EPOCHS} finite rows")
            params, _ = eextractor.load_extractor(os.path.join(student, "student.ckpt"))
            if not all(np.all(np.isfinite(p.data)) for p in params.values()):
                problems.append(f"{student}/student.ckpt: non-finite parameters")
        kp_dir = os.path.join(out, "extract", "keypoints")
        if os.path.isdir(kp_dir):
            dumps = sorted(n for n in os.listdir(kp_dir) if n.endswith(".txt"))
            if len(dumps) != 2 * self.BENCH_PAIRS:
                problems.append(f"{kp_dir}: {len(dumps)} dumps")
            for name in dumps:
                kp = eio.load_keypoints(os.path.join(kp_dir, name))
                if len(kp) and not (np.all(kp.positions >= 0)
                                    and np.all(kp.positions <= 63)):
                    problems.append(f"{kp_dir}/{name}: keypoint outside the frame")
        path = os.path.join(out, "eval_kp", "report.csv")
        if os.path.exists(path) and not all(
                math.isfinite(v) for v in _report(path).values()):
            problems.append(f"{path}: non-finite metric")
        return problems


# (keypoints per side, inlier share) of the eval pairs.  High-share pairs
# stop RANSAC within about a hundred iterations; at share 0.2 it always
# runs to its cap of 2000, so the cost of a pass barely depends on the
# seed (at 0.3 the stopping point still moved between 850 and 2000).
# Training takes one 512-keypoint pair per step, so peak memory does not
# depend on the batch order; two such graphs in one step peak at ~1 GB.
MATCH_PAIRS = [(256, 0.8), (256, 0.2), (512, 0.2), (512, 0.8),
               (768, 0.8), (768, 0.2), (1024, 0.2), (1024, 0.8)]
MATCH_TRAIN = [2, 3]
MATCH_BATCH = 1
MATCH_EPOCHS = 3
MATCH_DESC_NOISE = 0.5


class Match(Workload):
    name = "match"
    EPS_PX = 3.0

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.pairs = [twoview.make_pair(rng, n, share, MATCH_DESC_NOISE)
                      for n, share in MATCH_PAIRS]
        self.ca_config = ematching.CAConfig(
            image_size=(twoview.IMAGE_SIZE, twoview.IMAGE_SIZE))
        warm = ematching.CAMatcherParams.create(self.ca_config, seed=self.seed)
        ematching.ca_match(self.pairs[0].kp_a, self.pairs[0].kp_b, warm)
        h = hashlib.sha256()
        for p in self.pairs:
            for a in (p.kp_a.positions, p.kp_a.descriptors, p.kp_b.positions,
                      p.kp_b.descriptors, p.gt.matches):
                h.update(np.ascontiguousarray(a).tobytes())
        return {"pairs": h.hexdigest()}

    def run_pass(self, out):
        r = PassResult()
        run = Runner(r)
        examples = [(self.pairs[i].kp_a, self.pairs[i].kp_b, self.pairs[i].gt)
                    for i in MATCH_TRAIN]
        tcfg = ematching.MatchTrainConfig(epochs=MATCH_EPOCHS, batch_size=MATCH_BATCH,
                                          seed=self.seed)
        start = time.perf_counter()
        r.attempted += 1
        try:
            matcher, history = ematching.train_matcher(
                examples, config=tcfg, ca_config=self.ca_config)
        except Exception:
            r.failed += 1
            r.errors.append("train_matcher: "
                            + traceback.format_exc().strip().splitlines()[-1])
            return r
        r.train_s = time.perf_counter() - start
        r.train_items = MATCH_EPOCHS * len(examples)
        r.rates["matcher_train_pairs_per_s"] = _rate(r.train_items, r.train_s)
        r.quality["matcher_loss"] = history[-1][1]

        # inference runs on frozen parameters, as on a loaded checkpoint
        frozen = ematching.CAMatcherParams(
            matcher.config, {k: Tensor(v.data) for k, v in matcher.params.items()})
        rows, errors = [], []
        start = time.perf_counter()
        for p in self.pairs:
            ca = ematching.ca_match(p.kp_a, p.kp_b, frozen)
            mnn = ematching.mnn_match(p.kp_a, p.kp_b)
            err, iters, inliers = math.inf, 0, 0.0
            try:
                est = egeometry.estimate_essential_ransac(
                    p.kp_a.positions[mnn.matches[:, 0]],
                    p.kp_b.positions[mnn.matches[:, 1]],
                    p.intrinsics, p.intrinsics, seed=0)
                err = max(egeometry.pose_angular_errors(est, p.rel_pose))
                iters, inliers = est.iterations, est.inlier_ratio
            except (egeometry.EstimationFailed, ValueError):
                pass
            errors.append(err)
            rows.append((ca, mnn, iters, inliers, err))
        try:
            auc = emetrics.rpe_auc(errors, 10.0)
        except ValueError:  # every pair failed; the failures are counted
            auc = None
        r.eval_s = time.perf_counter() - start
        r.eval_items = len(self.pairs)
        r.rates["match_pairs_per_s"] = _rate(r.eval_items, r.eval_s)
        run.pairs(len(errors), sum(not math.isfinite(e) for e in errors))
        if auc is not None:
            r.quality["rpe_auc10"] = auc

        # ground-truth quality of the matches sent to pose estimation
        mmas, correct, predicted = [], 0, 0
        for p, (_, mnn, _, _, _) in zip(self.pairs, rows):
            m = mnn.matches
            if len(m):
                d = np.linalg.norm(p.kp_b.positions[m[:, 1]] - p.gt_pos_b[m[:, 0]], axis=1)
                mmas.append(float(np.mean(d <= self.EPS_PX)))  # NaN compares False
            gt_b = np.full(len(p.kp_a), -1)
            gt_b[p.gt.matches[:, 0]] = p.gt.matches[:, 1]
            correct += int(np.sum(gt_b[m[:, 0]] == m[:, 1]))
            predicted += len(m)
        if mmas:
            r.quality["mma"] = float(np.mean(mmas))
        r.quality["correct_match_ratio"] = correct / predicted if predicted else 0.0
        r.artifacts = {"matcher": matcher, "history": history, "rows": rows}
        return r

    def check(self, out, result):
        problems = []
        if not result.artifacts:
            return problems
        os.makedirs(out, exist_ok=True)
        ematching.save_matcher(os.path.join(out, "matcher.ckpt"),
                               result.artifacts["matcher"])
        with open(os.path.join(out, "loss.csv"), "w") as f:
            f.write(ematching.matcher_history_csv(result.artifacts["history"]))
        lines = ["pair,ca_matches,mnn_matches,ransac_iterations,inlier_ratio,error_deg"]
        for i, (p, (ca, mnn, iters, inl, err)) in enumerate(
                zip(self.pairs, result.artifacts["rows"])):
            lines.append(f"{i},{len(ca)},{len(mnn)},{iters},{inl!r},{err!r}")
            for asg in (ca, mnn):
                m = asg.matches
                if len(m) and not (
                        len(np.unique(m[:, 0])) == len(m) == len(np.unique(m[:, 1]))
                        and m.min() >= 0 and m[:, 0].max() < len(p.kp_a)
                        and m[:, 1].max() < len(p.kp_b)):
                    problems.append(f"pair {i}: matches are not a partial bijection")
        with open(os.path.join(out, "pairs.csv"), "w") as f:
            f.write("\n".join(lines) + "\n")
        if not math.isfinite(result.quality.get("matcher_loss", math.nan)):
            problems.append("matcher loss is not finite")
        return problems


WORKLOADS = {w.name: w for w in (Datagen, Distill, Match)}
