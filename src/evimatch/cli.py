"""Command-line pipeline: synthesis, training, extraction, matching, eval.

Every command resolves its parameters as flags > config file > defaults,
echoes the fully resolved config into the output directory, and writes
deterministic bytes for a fixed config + seed.  When --out is omitted the
output directory is content-addressed by the hash of the resolved config.
Only a run that succeeds changes --out, and it replaces whole entries.
Failures exit nonzero with a one-line cause and leave --out untouched.
``--help`` lists each flag's default.  Only ``train-extractor`` takes the
event representation and bin count; later commands read them from the
student checkpoint.  ``--extractor`` always names that event student, and
image keypoints always come from the analytic teacher.  ``--matcher-ckpt``
selects the CA matcher, and without it ``match``, ``eval`` and ``viz`` use
mutual nearest neighbour.  Keypoint ground truth is ``gt_assignment``'s
depth reprojection between the two samples' poses: ``eval --mode
keypoints`` scores each sample's events against its own image (equal
poses), and ``viz`` colours the matches of any two samples by it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from . import io as eio
from .datagen import generate_benchmark, make_lfd_dataset, make_scene
from .distillation import (DistillConfig, loss_history_csv, train_extractor)
from .events import accumulate_mask
from .extractor import (ExtractorConfig, analytic_teacher, apply_event_mask,
                        extract_keypoints, forward_student, load_extractor,
                        save_extractor)
from .geometry import (EstimationFailed, estimate_essential_ransac,
                       pose_angular_errors, relative_pose)
from .matching import (CAConfig, MatchTrainConfig, ca_match,
                       gt_assignment, load_matcher, matcher_history_csv,
                       mnn_match, save_matcher, train_matcher)
from .metrics import (correct_matches, mma_mr, repeatability, report_csv,
                      report_text, rpe_auc, rpe_ratio, vdd_vda)
from .representations import build_representation, channel_count, time_surface

# parameter tables: name -> default (None marks a required parameter).
# all values live as strings until conversion, so flags and config files
# are interchangeable.
_SCENE_PARAMS = {
    "seed": "0", "width": "64", "height": "64", "n_rects": "14",
    "height_amplitude": "0.08", "motion_scale": "1.0", "duration": "4.0",
    "delta_t": "0.05", "contrast": "0.2", "dt_sim": "0.001",
}
_EXTRACT_PARAMS = {"k": "512", "border": "4", "nms": "4", "mask": "true"}
_COMMAND_PARAMS = {
    "synth": dict(_SCENE_PARAMS, n="16"),
    "benchgen": dict(_SCENE_PARAMS, n_pairs="8", rpe_filter="false",
                     overlap_lo="0.4", overlap_hi="0.8", max_attempts="0"),
    "train-extractor": {
        "data": None, "representation": "voxel", "bins": "16",
        "lr": "0.001", "epochs": "50", "batch": "8",
        "pairs": "512", "seed": "0", "loss_terms": "feats,score,desc",
        "channels": "64,64,128,128", "pools": "1,2,1,2",
        "latent_dim": "128", "desc_dim": "128",
        "score_head": "64,32", "desc_head": "128,64",
    },
    "train-matcher": dict(_EXTRACT_PARAMS, data=None, extractor=None,
                          pairs_file="", k="256", eps_px="3.0", lr="0.0001",
                          epochs="50", batch="8", seed="0", dim="128",
                          layers="2", heads="4", pe_freqs="4", ffn_mult="2"),
    "extract": dict(_EXTRACT_PARAMS, data=None, modality=None, extractor="",
                    k="1024", threshold=""),
    "match": {"kp_a": None, "kp_b": None, "pairs_file": "",
              "matcher_ckpt": "", "threshold": "0.1"},
    "eval": dict(_EXTRACT_PARAMS, data=None, mode=None, extractor=None,
                 matcher_ckpt="", threshold="0.1", eps="3.0", ransac_px="1.0",
                 rpe_thresholds="5,10,20", seed="0"),
    "viz": dict(_EXTRACT_PARAMS, data=None, extractor=None, index_a="0",
                index_b="-1", k="256", matcher_ckpt="", threshold="0.1",
                eps="3.0"),
}


def _parse_bool(v, key):
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{key} must be a boolean, got {v!r}")


def _ints(v):
    return tuple(int(x) for x in str(v).split(",") if x.strip() != "")


def _floats(v):
    return tuple(float(x) for x in str(v).split(",") if x.strip() != "")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evimatch",
        description="event/image feature extraction and matching pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, params in _COMMAND_PARAMS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="key=value file; flags override it")
        p.add_argument("--out", default=None,
                       help="output directory (default: content-addressed)")
        for name, default in params.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                           help=f"default: {default or 'none'}" if default is not None
                           else "required")
    return parser


def resolve_config(command, args):
    """flags > config file > defaults; returns the full string-valued dict."""
    spec = _COMMAND_PARAMS[command]
    resolved = {k: v for k, v in spec.items() if v is not None}
    if args.config is not None:
        file_values = eio.load_config(args.config)
        for key, value in file_values.items():
            if key not in spec:
                raise ValueError(f"{args.config}: unknown key {key!r} for {command}")
            resolved[key] = value
    for key in spec:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    missing = [k for k in spec if k not in resolved]
    if missing:
        raise ValueError(f"{command}: missing required parameters: "
                         + ", ".join("--" + m.replace("_", "-") for m in missing))
    return resolved


def output_dir(command, resolved, out_flag):
    if out_flag is not None:
        return out_flag
    digest = hashlib.sha256(
        (command + "\n" + eio.format_config(resolved)).encode()).hexdigest()
    return f"evimatch-{command}-{digest[:12]}"


# -- shared pipeline pieces -------------------------------------------------

def _scene_from(cfg):
    return make_scene(seed=int(cfg["seed"]), width=int(cfg["width"]),
                      height=int(cfg["height"]), n_rects=int(cfg["n_rects"]),
                      height_amplitude=float(cfg["height_amplitude"]),
                      motion_scale=float(cfg["motion_scale"]),
                      duration=float(cfg["duration"]))


def _keypoints(maps, cfg, threshold):
    """The top --k keypoints, or all above threshold when one is given."""
    return extract_keypoints(maps, border=int(cfg["border"]),
                             nms_radius=int(cfg["nms"]),
                             k=None if threshold is not None else int(cfg["k"]),
                             threshold=threshold)


def _event_keypoints(sample, cfg, params, config, threshold=None):
    rep = build_representation(sample.events, config.representation,
                               bins=config.in_channels)
    maps = forward_student(rep, params, config)
    if _parse_bool(cfg["mask"], "mask"):
        maps = apply_event_mask(maps, accumulate_mask(sample.events))
    return _keypoints(maps, cfg, threshold)


def _image_keypoints(sample, cfg, threshold=None):
    return _keypoints(analytic_teacher(sample.image), cfg, threshold)


def _views(sa, sb, intr, cfg, params, config, eps):
    """sa's event keypoints, sb's image keypoints and their ground truth."""
    kp_a = _event_keypoints(sa, cfg, params, config)
    kp_b = _image_keypoints(sb, cfg)
    return kp_a, kp_b, gt_assignment(kp_a, kp_b, sa.depth, sb.depth, intr, intr,
                                     sa.pose, sb.pose, eps_px=eps)


def _make_matcher(cfg):
    """Returns assignment_fn(kp_a, kp_b): the CA matcher --matcher-ckpt
    names, or mutual nearest neighbour when it names none."""
    if not cfg["matcher_ckpt"]:
        return mnn_match
    matcher = load_matcher(cfg["matcher_ckpt"])
    thr = float(cfg["threshold"])
    return lambda a, b: ca_match(a, b, matcher, threshold=thr)


def _sample_index(i, n, source):
    """i when it indexes one of n samples; else a ValueError naming source."""
    if not 0 <= i < n:
        raise ValueError(f"{source}: sample index {i} is out of range for {n} samples")
    return i


def _load_pairs(path, n_a, n_b):
    """A pairs file's rows; each i must index n_a samples, each j n_b."""
    return [(_sample_index(i, n_a, path), _sample_index(j, n_b, path), overlap)
            for i, j, overlap in eio.load_pairs(path)]


def _index_pairs(cfg, default, n_a, n_b):
    """(i, j) pairs from --pairs-file when one is given, else the default."""
    if cfg["pairs_file"]:
        return [(i, j) for i, j, _ in _load_pairs(cfg["pairs_file"], n_a, n_b)]
    return default


# -- commands ----------------------------------------------------------------

def cmd_synth(out, cfg):
    scene = _scene_from(cfg)
    samples = make_lfd_dataset(scene, int(cfg["n"]), float(cfg["delta_t"]),
                               seed=int(cfg["seed"]),
                               contrast=float(cfg["contrast"]),
                               dt_sim=float(cfg["dt_sim"]))
    eio.save_dataset(out, samples, scene.intrinsics, scene.width, scene.height)
    return f"wrote {len(samples)} samples to {out}"


def cmd_benchgen(out, cfg):
    scene = _scene_from(cfg)
    lo, hi = float(cfg["overlap_lo"]), float(cfg["overlap_hi"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bench = generate_benchmark(
            scene, int(cfg["n_pairs"]), float(cfg["delta_t"]),
            seed=int(cfg["seed"]), rpe_filter=_parse_bool(cfg["rpe_filter"], "rpe_filter"),
            overlap_range=(lo, hi), max_attempts=int(cfg["max_attempts"]) or None,
            contrast=float(cfg["contrast"]), dt_sim=float(cfg["dt_sim"]))
    if not bench.pairs:  # the last warning is the budget's: it counts the attempts
        raise ValueError(f"no pair with overlap in [{lo}, {hi}]: {caught[-1].message}")
    for w in caught:  # a partial benchmark keeps its warnings
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    eio.save_dataset(out, bench.samples, scene.intrinsics,
                     scene.width, scene.height)
    eio.save_pairs(os.path.join(out, "pairs.txt"), bench.pairs)
    return f"wrote {len(bench.pairs)} benchmark pairs to {out}"


def cmd_train_extractor(out, cfg):
    if (cfg["representation"] == "time_surface"
            and cfg["bins"] != _COMMAND_PARAMS["train-extractor"]["bins"]):
        raise ValueError(f"--bins {cfg['bins']} does not apply to a time_surface "
                         "representation, which has no bins")
    samples, _, _, _ = eio.load_dataset(cfg["data"])
    terms = set(t.strip() for t in cfg["loss_terms"].split(",") if t.strip())
    unknown = terms - {"feats", "score", "desc"}
    if unknown:
        raise ValueError(f"unknown loss terms: {', '.join(sorted(unknown))}")
    dcfg = DistillConfig(
        lr=float(cfg["lr"]), epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch"]), n_pairs=int(cfg["pairs"]),
        seed=int(cfg["seed"]), use_feats="feats" in terms,
        use_score="score" in terms, use_desc="desc" in terms)
    student = ExtractorConfig(
        in_channels=channel_count(cfg["representation"], int(cfg["bins"])),
        channels=_ints(cfg["channels"]), pools=_ints(cfg["pools"]),
        latent_dim=int(cfg["latent_dim"]), desc_dim=int(cfg["desc_dim"]),
        score_head=_ints(cfg["score_head"]), desc_head=_ints(cfg["desc_head"]),
        representation=cfg["representation"])
    params, history = train_extractor(samples, dcfg, student, log=print)
    save_extractor(os.path.join(out, "student.ckpt"), params, student)
    with open(os.path.join(out, "loss.csv"), "w") as f:
        f.write(loss_history_csv(history))
    return f"wrote student checkpoint to {out}"


def cmd_train_matcher(out, cfg):
    samples, intr, width, height = eio.load_dataset(cfg["data"])
    params, config = load_extractor(cfg["extractor"])
    pairs = _index_pairs(cfg, [(i, i + 1) for i in range(len(samples) - 1)],
                         len(samples), len(samples))
    if not pairs:
        raise ValueError("need at least two samples to form training pairs")
    examples = [_views(samples[ia], samples[ib], intr, cfg, params, config,
                       float(cfg["eps_px"])) for ia, ib in pairs]
    ca_config = CAConfig(desc_dim=config.desc_dim, dim=int(cfg["dim"]),
                         layers=int(cfg["layers"]), heads=int(cfg["heads"]),
                         pe_freqs=int(cfg["pe_freqs"]),
                         ffn_mult=int(cfg["ffn_mult"]),
                         image_size=(width, height))
    tcfg = MatchTrainConfig(lr=float(cfg["lr"]), epochs=int(cfg["epochs"]),
                            batch_size=int(cfg["batch"]), seed=int(cfg["seed"]))
    matcher, history = train_matcher(examples, config=tcfg, ca_config=ca_config,
                                     log=print)
    save_matcher(os.path.join(out, "matcher.ckpt"), matcher)
    with open(os.path.join(out, "loss.csv"), "w") as f:
        f.write(matcher_history_csv(history))
    return f"wrote matcher checkpoint to {out}"


def cmd_extract(out, cfg):
    modality = cfg["modality"]
    if modality not in ("events", "images"):
        raise ValueError(f"modality must be events or images, got {modality!r}")
    if modality == "events" and not cfg["extractor"]:
        raise ValueError("extracting from events requires --extractor")
    if modality == "images" and cfg["extractor"]:
        raise ValueError("images use the analytic teacher, not --extractor")
    samples, _, _, _ = eio.load_dataset(cfg["data"])
    threshold = float(cfg["threshold"]) if cfg["threshold"] else None
    kp_dir = os.path.join(out, "keypoints")
    os.makedirs(kp_dir, exist_ok=True)
    if modality == "events":
        params, config = load_extractor(cfg["extractor"])
        kps = (_event_keypoints(s, cfg, params, config, threshold) for s in samples)
    else:
        kps = (_image_keypoints(s, cfg, threshold) for s in samples)
    for i, kp in enumerate(kps):
        eio.save_keypoints(os.path.join(kp_dir, f"{i:03d}.txt"), kp)
    return f"wrote {len(samples)} keypoint dumps to {kp_dir}"


def cmd_match(out, cfg):
    def kp_files(d):
        names = sorted(n for n in os.listdir(d) if n.endswith(".txt"))
        return [os.path.join(d, n) for n in names]

    files_a, files_b = kp_files(cfg["kp_a"]), kp_files(cfg["kp_b"])
    n = min(len(files_a), len(files_b))
    pairs = _index_pairs(cfg, [(i, i) for i in range(n)],
                         len(files_a), len(files_b))
    match_fn = _make_matcher(cfg)
    match_dir = os.path.join(out, "matches")
    os.makedirs(match_dir, exist_ok=True)
    for ia, ib in pairs:
        kp_a = eio.load_keypoints(files_a[ia])
        kp_b = eio.load_keypoints(files_b[ib])
        assignment = match_fn(kp_a, kp_b)
        eio.save_matches(os.path.join(match_dir, f"{ia:03d}_{ib:03d}.txt"),
                         assignment)
    return f"wrote {len(pairs)} match dumps to {match_dir}"


def _eval_keypoints(samples, intr, cfg, params, config, match_fn, eps):
    """Each sample's event keypoints against its own image's, scored on
    their ground truth at equal poses."""
    reps, vdds, vdas, mmas, mrs = [], [], [], [], []
    for sample in samples:
        kp_a, kp_b, gt = _views(sample, sample, intr, cfg, params, config, eps)
        if len(kp_a) + len(kp_b) > 0:
            reps.append(repeatability(gt))
        if len(gt.matches):
            vdd, vda = vdd_vda(gt, kp_a, kp_b)
            vdds.append(vdd)
            vdas.append(vda)
        mma, mr = mma_mr(match_fn(kp_a, kp_b), gt)
        mrs.append(mr)
        if mma is not None:
            mmas.append(mma)
    entries = [("n_samples", None, float(len(samples)))]
    if reps:
        entries.append(("repeatability", eps, float(np.mean(reps))))
    if vdds:
        entries.append(("vdd", None, float(np.mean(vdds))))
        entries.append(("vda", None, float(np.mean(vdas))))
    if mmas:
        entries.append(("mma", eps, float(np.mean(mmas))))
    entries.append(("mr", None, float(np.mean(mrs)) if mrs else 0.0))
    return entries


def _eval_rpe(samples, pairs, intr, cfg, params, config, match_fn):
    """The rpe report entries, and one pairs.csv row per pair: indices,
    keypoints per side, matches, inlier ratio, error in degrees and why
    the pair failed ("ok" when it did not): fewer than 8 matches,
    EstimationFailed, or a zero ground-truth baseline.  Malformed flags
    fail before the first pair."""
    ransac_px, seed = float(cfg["ransac_px"]), int(cfg["seed"])
    thresholds = _floats(cfg["rpe_thresholds"])
    for flag, values in (("--ransac-px", (ransac_px,)), ("--rpe-thresholds", thresholds)):
        for v in values:
            if not 0 < v < np.inf:
                raise ValueError(f"{flag} must be positive and finite, got {v}")
    errors, inliers, rows = [], [], []
    for ia, ib, _ in pairs:
        sa, sb = samples[ia], samples[ib]
        kp_a = _event_keypoints(sa, cfg, params, config)
        kp_b = _image_keypoints(sb, cfg)
        assignment = match_fn(kp_a, kp_b)
        err, inlier_ratio, reason = np.inf, np.nan, "fewer than 8 matches"
        if len(assignment) >= 8:
            try:
                est = estimate_essential_ransac(
                    kp_a.positions[assignment.matches[:, 0]],
                    kp_b.positions[assignment.matches[:, 1]],
                    intr, intr, threshold_px=ransac_px, seed=seed)
            except EstimationFailed as e:
                reason = str(e)
            else:
                try:  # a zero baseline leaves the translation error undefined
                    err = max(pose_angular_errors(est, relative_pose(sa.pose, sb.pose)))
                    inlier_ratio, reason = est.inlier_ratio, "ok"
                    inliers.append(est.inlier_ratio)
                except ValueError as e:
                    reason = str(e)
        errors.append(err)
        rows.append((ia, ib, len(kp_a), len(kp_b), len(assignment),
                     f"{inlier_ratio:.6f}", f"{err:.6f}", reason))
    entries = [("n_pairs", None, float(len(pairs))),
               ("n_failed", None, float(np.sum(~np.isfinite(errors))))]
    for thr in thresholds:
        entries.append(("rpe_ratio", thr, rpe_ratio(errors, thr)))
        entries.append(("rpe_auc", thr, rpe_auc(errors, thr)))
    if inliers:
        entries.append(("inlier_ratio", None, float(np.mean(inliers))))
    return entries, rows


def cmd_eval(out, cfg):
    mode = cfg["mode"]
    if mode not in ("keypoints", "rpe"):
        raise ValueError(f"unknown eval mode {mode!r} (keypoints or rpe)")
    samples, intr, _, _ = eio.load_dataset(cfg["data"])
    params, config = load_extractor(cfg["extractor"])
    match_fn = _make_matcher(cfg)
    if mode == "keypoints":
        entries = _eval_keypoints(samples, intr, cfg, params, config, match_fn,
                                  float(cfg["eps"]))
    else:
        pairs = _load_pairs(os.path.join(cfg["data"], "pairs.txt"),
                            len(samples), len(samples))
        entries, rows = _eval_rpe(samples, pairs, intr, cfg, params, config, match_fn)
        with open(os.path.join(out, "pairs.csv"), "w", newline="") as f:
            table = csv.writer(f, lineterminator="\n")
            table.writerow(("index_a", "index_b", "keypoints_a", "keypoints_b",
                            "matches", "inlier_ratio", "error_deg", "reason"))
            table.writerows(rows)
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(report_text(entries))
    with open(os.path.join(out, "report.csv"), "w") as f:
        f.write(report_csv(entries))
    return report_text(entries).rstrip("\n")


def cmd_viz(out, cfg):
    samples, intr, _, _ = eio.load_dataset(cfg["data"])
    params, config = load_extractor(cfg["extractor"])
    ia = _sample_index(int(cfg["index_a"]), len(samples), "--index-a")
    ib = int(cfg["index_b"])
    ib = ia if ib == -1 else _sample_index(ib, len(samples), "--index-b")
    sa, sb = samples[ia], samples[ib]
    kp_a, kp_b, gt = _views(sa, sb, intr, cfg, params, config, float(cfg["eps"]))
    assignment = _make_matcher(cfg)(kp_a, kp_b)
    correct = correct_matches(assignment.matches, gt)
    surface = time_surface(sa.events).max(axis=0)
    canvas = eio.make_match_image(surface, sb.image, kp_a, kp_b, assignment,
                                  correct)
    viz_dir = os.path.join(out, "viz")
    os.makedirs(viz_dir, exist_ok=True)
    path = os.path.join(viz_dir, f"match_{ia:03d}_{ib:03d}.ppm")
    eio.save_ppm(path, canvas)
    return f"wrote {path}"


_COMMANDS = {
    "synth": cmd_synth,
    "benchgen": cmd_benchgen,
    "train-extractor": cmd_train_extractor,
    "train-matcher": cmd_train_matcher,
    "extract": cmd_extract,
    "match": cmd_match,
    "eval": cmd_eval,
    "viz": cmd_viz,
}


def _commit(stage, out):
    """Renames each entry of stage into out; one it replaces moves to stage."""
    os.makedirs(out, exist_ok=True)
    for name in os.listdir(stage):
        target = os.path.join(out, name)
        if os.path.lexists(target):
            os.replace(target, os.path.join(stage, f".old-{name}"))
        os.replace(os.path.join(stage, name), target)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    stage = None
    try:
        resolved = resolve_config(command, args)
        if args.out == "":
            raise ValueError("--out must not be empty")
        out = output_dir(command, resolved, args.out)
        if os.path.lexists(out) and not os.path.isdir(out):
            raise NotADirectoryError(f"--out {out} is not a directory")
        # inside an existing out, else beside it: either way on out's
        # filesystem and writable wherever out is
        real = os.path.realpath(out)
        where = real if os.path.isdir(real) else os.path.dirname(real)
        os.makedirs(where, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=".evimatch-", dir=where)
        with open(os.path.join(stage, "config.txt"), "w") as f:
            f.write(f"command={command}\n")
            f.write(eio.format_config(resolved))
        summary = _COMMANDS[command](stage, resolved)
        _commit(stage, out)
    except Exception as e:
        cause = str(e) if stage is None else str(e).replace(stage, out)
        print(f"evimatch {command}: error: {cause}", file=sys.stderr)
        return 1
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
    # the command named its outputs under stage, whose entries are now in out
    print(summary.replace(stage, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
