"""Command-line pipeline: synthesis, training, extraction, matching, eval.

Every command resolves its parameters as flags > config file > defaults,
echoes the fully resolved config into the output directory, and writes
deterministic bytes for a fixed config + seed.  When --out is omitted the
output directory is content-addressed by the hash of the resolved config.
Only a run that succeeds changes --out, and it replaces whole entries.
Failures exit nonzero with a one-line cause and leave --out untouched.
``--help`` lists each flag's default.  Only ``train-extractor`` takes the
event representation and bin count; later commands read them from the
student checkpoint.  ``--extractor`` always names that event student, whose
score is always gated by the event mask, and image keypoints always come
from the analytic teacher, both the top ``--k``.  ``--matcher-ckpt``
selects the CA matcher and its ``--threshold``; without it ``match``,
``eval`` and ``viz`` use mutual nearest neighbour, which has none.
Keypoint ground truth is ``gt_assignment``'s 3 px depth reprojection
between two samples' poses, and ``viz`` colours the matches of any two
samples by it.  ``eval`` runs one loop over view pairs (a, b): sample a's
event keypoints against sample b's image keypoints, one ground truth and
one matching per pair, which ``metrics.score_pair`` scores for
repeatability, VDD/VDA, MMA and MR, then for the relative pose RANSAC
estimates from the matches; ``eval`` averages the scores and reports RPE
at 5, 10 and 20 degrees.  ``--mode`` only picks the pairs: ``rpe`` reads
``<data>/pairs.txt`` and ``keypoints`` pairs each sample with itself.  A
pair whose ground-truth baseline is zero, as every ``keypoints`` pair's
is, fails its pose before RANSAC runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import shutil
import sys
import tempfile

import numpy as np

from . import io as eio
from .datagen import generate_benchmark, make_lfd_dataset, make_scene
from .distillation import (DistillConfig, loss_history_csv, train_extractor)
from .events import accumulate_mask
from .extractor import (ExtractorConfig, apply_event_mask, extract_keypoints,
                        forward_student, load_extractor, save_extractor,
                        teacher_keypoints)
from .geometry import relative_pose
from .matching import (CORRESPONDENCE_PX, CAConfig, MatchTrainConfig, ca_match,
                       gt_assignment, load_matcher, matcher_history_csv,
                       mnn_match, save_matcher, train_matcher)
from .metrics import (PAIR_COLUMNS, RPE_THRESHOLDS, correct_matches, report_csv,
                      report_text, rpe_auc, rpe_ratio, score_pair)
from .representations import build_representation, channel_count, time_surface

# parameter tables: name -> default (None marks a required parameter).
# all values live as strings until conversion, so flags and config files
# are interchangeable.
_SCENE_PARAMS = {
    "seed": "0", "width": "64", "height": "64", "n_rects": "14",
    "height_amplitude": "0.08", "motion_scale": "1.0", "duration": "4.0",
    "delta_t": "0.05", "contrast": "0.2", "dt_sim": "0.001",
}
_EXTRACT_PARAMS = {"k": "512", "border": "4", "nms": "4"}
_MATCH_PARAMS = {"matcher_ckpt": "", "threshold": "0.1"}
_COMMAND_PARAMS = {
    "synth": dict(_SCENE_PARAMS, n="16"),
    "benchgen": dict(_SCENE_PARAMS, n_pairs="8", overlap_lo="0.4",
                     overlap_hi="0.8", max_attempts="0"),
    "train-extractor": {
        "data": None, "representation": "voxel", "bins": "16",
        "lr": "0.001", "epochs": "50", "batch": "8", "seed": "0",
        "loss_terms": "feats,score,desc", "channels": "64,64,128,128",
        "pools": "1,2,1,2",
    },
    "train-matcher": dict(_EXTRACT_PARAMS, data=None, extractor=None,
                          pairs_file="", lr="0.0001",
                          epochs="50", batch="8", seed="0", dim="128",
                          layers="2", heads="4", pe_freqs="4", ffn_mult="2"),
    "extract": dict(_EXTRACT_PARAMS, data=None, modality=None, extractor=""),
    "match": dict(kp_a=None, kp_b=None, pairs_file="", **_MATCH_PARAMS),
    "eval": dict(_EXTRACT_PARAMS, data=None, mode=None, extractor=None,
                 **_MATCH_PARAMS, ransac_px="1.0", seed="0"),
    "viz": dict(_EXTRACT_PARAMS, data=None, extractor=None, index_a="0",
                index_b="-1", **_MATCH_PARAMS),
}


def _ints(v):
    return tuple(int(x) for x in str(v).split(",") if x.strip() != "")


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


def _keypoints(extract, source, cfg):
    """The top --k keypoints."""
    return extract(source, border=int(cfg["border"]), nms_radius=int(cfg["nms"]),
                   k=int(cfg["k"]))


def _event_keypoints(sample, cfg, params, config):
    rep = build_representation(sample.events, config.representation,
                               bins=config.in_channels)
    maps = forward_student(rep, params, config)
    return _keypoints(extract_keypoints,
                      apply_event_mask(maps, accumulate_mask(sample.events)), cfg)


def _image_keypoints(sample, cfg):
    return _keypoints(teacher_keypoints, sample.image, cfg)


def _views(sa, sb, intr, cfg, params, config):
    """sa's event keypoints, sb's image keypoints and their ground truth."""
    kp_a = _event_keypoints(sa, cfg, params, config)
    kp_b = _image_keypoints(sb, cfg)
    return kp_a, kp_b, gt_assignment(kp_a, kp_b, sa.depth, sb.depth, intr, intr,
                                     sa.pose, sb.pose)


def _make_matcher(cfg):
    """Returns assignment_fn(kp_a, kp_b): the CA matcher --matcher-ckpt
    names, or mutual nearest neighbour when it names none, which takes no
    --threshold."""
    if not cfg["matcher_ckpt"]:
        if cfg["threshold"] != _MATCH_PARAMS["threshold"]:
            raise ValueError(f"--threshold {cfg['threshold']} does not apply without "
                             "--matcher-ckpt: mutual nearest neighbour has no threshold")
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
    bench = generate_benchmark(
        scene, int(cfg["n_pairs"]), float(cfg["delta_t"]), seed=int(cfg["seed"]),
        overlap_range=(float(cfg["overlap_lo"]), float(cfg["overlap_hi"])),
        max_attempts=int(cfg["max_attempts"]) or None,
        contrast=float(cfg["contrast"]), dt_sim=float(cfg["dt_sim"]))
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
        lr=float(cfg["lr"]), epochs=int(cfg["epochs"]), batch_size=int(cfg["batch"]),
        seed=int(cfg["seed"]), use_feats="feats" in terms, use_score="score" in terms,
        use_desc="desc" in terms)
    student = ExtractorConfig(
        in_channels=channel_count(cfg["representation"], int(cfg["bins"])),
        channels=_ints(cfg["channels"]), pools=_ints(cfg["pools"]),
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
    examples = [_views(samples[ia], samples[ib], intr, cfg, params, config)
                for ia, ib in pairs]
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
    kp_dir = os.path.join(out, "keypoints")
    os.makedirs(kp_dir, exist_ok=True)
    if modality == "events":
        params, config = load_extractor(cfg["extractor"])
        kps = (_event_keypoints(s, cfg, params, config) for s in samples)
    else:
        kps = (_image_keypoints(s, cfg) for s in samples)
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


def _eval_pairs(samples, pairs, intr, cfg, params, config, match_fn):
    """Scores each (ia, ib) pair once with ``score_pair``: sa's event
    keypoints against sb's image keypoints on their ground truth, then the
    relative pose their matches give.  Returns the report entries and one
    pairs.csv row per pair.  A keypoint metric enters its mean only on
    pairs where it is defined, the inlier ratio only on pairs whose pose
    was estimated.  A malformed --ransac-px fails before the first pair."""
    ransac_px, seed = float(cfg["ransac_px"]), int(cfg["seed"])
    if not 0 < ransac_px < np.inf:
        raise ValueError(f"--ransac-px must be positive and finite, got {ransac_px}")
    scores = []
    for ia, ib in pairs:
        sa, sb = samples[ia], samples[ib]
        kp_a, kp_b, gt = _views(sa, sb, intr, cfg, params, config)
        scores.append(score_pair(kp_a, kp_b, gt, match_fn(kp_a, kp_b),
                                 relative_pose(sa.pose, sb.pose), intr, ransac_px, seed))

    def mean(name, of=scores):
        values = [s[name] for s in of if s[name] is not None]
        return float(np.mean(values)) if values else None

    errors = [max(s["rotation_deg"], s["translation_deg"]) for s in scores]
    entries = [("n_pairs", None, float(len(pairs))),
               ("repeatability", CORRESPONDENCE_PX, mean("repeatability")),
               ("vdd", None, mean("vdd")), ("vda", None, mean("vda")),
               ("mma", CORRESPONDENCE_PX, mean("mma")), ("mr", None, mean("mr")),
               ("n_failed", None, float(np.sum(~np.isfinite(errors))))]
    for thr in RPE_THRESHOLDS:
        entries += [("rpe_ratio", thr, rpe_ratio(errors, thr)),
                    ("rpe_auc", thr, rpe_auc(errors, thr))]
    entries.append(("inlier_ratio", None,
                    mean("inlier_ratio", [s for s in scores if s["reason"] == "ok"])))
    rows = [(ia, ib, *(f"{s[c]:.6f}" if isinstance(s[c], float) else s[c]
                       for c in PAIR_COLUMNS)) for (ia, ib), s in zip(pairs, scores)]
    return [e for e in entries if e[2] is not None], rows


def cmd_eval(out, cfg):
    mode = cfg["mode"]
    if mode not in ("keypoints", "rpe"):
        raise ValueError(f"unknown eval mode {mode!r} (keypoints or rpe)")
    samples, intr, _, _ = eio.load_dataset(cfg["data"])
    params, config = load_extractor(cfg["extractor"])
    match_fn = _make_matcher(cfg)
    if mode == "keypoints":  # each sample's events against its own image
        source, pairs = cfg["data"], [(i, i) for i in range(len(samples))]
    else:
        source = os.path.join(cfg["data"], "pairs.txt")
        pairs = [(i, j) for i, j, _ in _load_pairs(source, len(samples), len(samples))]
    if not pairs:
        raise ValueError(f"{source}: no pairs to evaluate")
    entries, rows = _eval_pairs(samples, pairs, intr, cfg, params, config, match_fn)
    with open(os.path.join(out, "pairs.csv"), "w", newline="") as f:
        table = csv.writer(f, lineterminator="\n")
        table.writerow(("index_a", "index_b", *PAIR_COLUMNS))
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
    match_fn = _make_matcher(cfg)
    sa, sb = samples[ia], samples[ib]
    kp_a, kp_b, gt = _views(sa, sb, intr, cfg, params, config)
    assignment = match_fn(kp_a, kp_b)
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
