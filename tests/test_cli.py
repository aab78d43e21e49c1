"""Command-line behavior: config resolution, hashing, determinism, what
reaches --out."""

import csv
import hashlib
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from evimatch import cli, io as eio, metrics
from evimatch.cli import _eval_pairs, build_parser, main, output_dir, resolve_config
from evimatch.datagen import make_scene, render
from evimatch.events import accumulate_mask
from evimatch.extractor import (ExtractorConfig, KeypointSet, analytic_teacher,
                                extract_keypoints, forward_student, init_student,
                                load_extractor, save_extractor, teacher_keypoints)
from evimatch.geometry import (EstimationFailed, PoseEstimate, RigidPose,
                               relative_pose, rotation_about)
from evimatch.matching import (Assignment, CAConfig, CAMatcherParams, ca_match,
                               gt_assignment, load_matcher, mnn_match,
                               save_matcher)
from evimatch.metrics import score_pair
from evimatch.representations import build_representation

TINY_SYNTH = ["--width", "16", "--height", "16", "--n", "2",
              "--duration", "1.0", "--dt-sim", "0.005", "--n-rects", "6"]


def parse(argv):
    return build_parser().parse_args(argv)


def tree_bytes(root):
    """Relative path -> file bytes (None for a directory) for a whole tree."""
    out = {}
    for base, dirs, names in os.walk(root):
        for name in dirs:
            out[os.path.relpath(os.path.join(base, name), root)] = None
        for name in names:
            p = os.path.join(base, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = f.read()
    return out


# -- config resolution ---------------------------------------------------------

def test_defaults_resolve():
    args = parse(["synth"])
    cfg = resolve_config("synth", args)
    assert cfg["width"] == "64" and cfg["n"] == "16"


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("width=32\nheight=24\n")
    args = parse(["synth", "--config", str(cfg_file), "--width", "48"])
    cfg = resolve_config("synth", args)
    assert cfg["width"] == "48"   # flag beats file
    assert cfg["height"] == "24"  # file beats default
    assert cfg["n"] == "16"       # untouched default


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus=1\n")
    args = parse(["synth", "--config", str(cfg_file)])
    with pytest.raises(ValueError, match="unknown key 'bogus' for synth"):
        resolve_config("synth", args)


def test_missing_required_parameter():
    args = parse(["train-extractor"])
    with pytest.raises(ValueError, match="missing required parameters: --data"):
        resolve_config("train-extractor", args)


def test_help_shows_each_default(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, help_ in (("--data DATA", "required"), ("--k K", "default: 512"),
                        ("--matcher-ckpt MATCHER_CKPT", "default: none"),
                        ("--ransac-px RANSAC_PX", "default: 1.0")):
        assert f"{flag} {help_}" in text


# -- output directory addressing -------------------------------------------------

def test_output_dir_content_addressed():
    args = parse(["synth"])
    cfg = resolve_config("synth", args)
    d1 = output_dir("synth", cfg, None)
    d2 = output_dir("synth", dict(cfg), None)
    assert d1 == d2
    assert d1.startswith("evimatch-synth-") and len(d1.split("-")[-1]) == 12
    cfg2 = dict(cfg, width="32")
    assert output_dir("synth", cfg2, None) != d1
    assert output_dir("synth", cfg, "custom") == "custom"


# -- end-to-end commands -----------------------------------------------------------

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "ds")
    assert main(["synth", *TINY_SYNTH, "--out", out]) == 0
    return out


def test_synth_layout_and_config_echo(dataset):
    for name in ("events", "images", "depth"):
        assert os.path.isdir(os.path.join(dataset, name))
    for name in ("poses.txt", "intrinsics.txt", "config.txt"):
        assert os.path.isfile(os.path.join(dataset, name))
    assert not os.path.exists(os.path.join(dataset, "manifest.txt"))
    lines = open(os.path.join(dataset, "config.txt")).read().splitlines()
    assert lines[0] == "command=synth"
    echoed = eio.parse_config("\n".join(lines[1:]))
    assert echoed["width"] == "16"
    samples, _, w, h = eio.load_dataset(dataset)
    assert len(samples) == 2 and (w, h) == (16, 16)


def test_synth_reruns_byte_identical(tmp_path, dataset):
    again = str(tmp_path / "again")
    assert main(["synth", *TINY_SYNTH, "--out", again]) == 0
    assert tree_bytes(again) == tree_bytes(dataset)


def test_default_out_dir_is_hash_named(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", *TINY_SYNTH]) == 0
    made = [n for n in os.listdir(tmp_path) if n.startswith("evimatch-synth-")]
    assert len(made) == 1
    assert "wrote 2 samples" in capsys.readouterr().out


def test_extract_and_match_pipeline(dataset, tmp_path):
    kp_out = str(tmp_path / "kp")
    rc = main(["extract", "--data", dataset, "--modality", "images",
               "--border", "2", "--nms", "2", "--k", "16", "--out", kp_out])
    assert rc == 0
    kp_dir = os.path.join(kp_out, "keypoints")
    names = sorted(os.listdir(kp_dir))
    assert names == ["000.txt", "000.txt.desc", "001.txt", "001.txt.desc"]
    kp = eio.load_keypoints(os.path.join(kp_dir, "000.txt"))
    assert 0 < len(kp.positions) <= 16

    m_out = str(tmp_path / "m")
    rc = main(["match", "--kp-a", kp_dir, "--kp-b", kp_dir, "--out", m_out])
    assert rc == 0
    match_dir = os.path.join(m_out, "matches")
    assert sorted(os.listdir(match_dir)) == ["000_000.txt", "001_001.txt"]
    # matching a keypoint set against itself must give the identity
    a = np.loadtxt(os.path.join(match_dir, "000_000.txt"), ndmin=2)
    assert (a[:, 0] == a[:, 1]).all()
    assert len(a) == len(kp.positions)


def test_match_pairs_dump_i_with_the_dump_extract_numbered_i(tmp_path):
    # past 999 the names sort as strings would put 1000.txt between 100.txt
    # and 101.txt; dump i holds 1 + i % 4 keypoints with orthonormal
    # descriptors, so matching it against itself gives that many matches
    kp_dir = tmp_path / "kp"
    kp_dir.mkdir()
    for i in range(1001):
        n = 1 + i % 4
        eio.save_keypoints(kp_dir / f"{i:03d}.txt", KeypointSet(
            np.zeros((n, 2)), np.eye(4, dtype=np.float32)[:n], np.ones(n)))
    assert main(["match", "--kp-a", str(kp_dir), "--kp-b", str(kp_dir),
                 "--out", str(tmp_path / "m")]) == 0
    match_dir = tmp_path / "m" / "matches"
    assert [len((match_dir / f"{i:03d}_{i:03d}.txt").read_text().splitlines())
            for i in range(1001)] == [1 + i % 4 for i in range(1001)]


@pytest.mark.parametrize("pairs_row", [None, ""], ids=["no-dumps", "empty-pairs-file"])
def test_match_fails_with_no_pair_to_match(tmp_path, capsys, pairs_row):
    # as eval does with no pairs: two empty dump directories, or dumps and
    # an empty --pairs-file, give nothing to match
    kp_a, kp_b = tmp_path / "a", tmp_path / "b"
    kp_a.mkdir()
    kp_b.mkdir()
    flags = []
    if pairs_row is not None:
        for d in (kp_a, kp_b):
            eio.save_keypoints(d / "000.txt", KeypointSet(
                np.zeros((1, 2)), np.ones((1, 4), np.float32), np.ones(1)))
        (tmp_path / "pairs.txt").write_text(pairs_row)
        flags = ["--pairs-file", str(tmp_path / "pairs.txt")]
    out = tmp_path / "m"
    assert main(["match", "--kp-a", str(kp_a), "--kp-b", str(kp_b), *flags,
                 "--out", str(out)]) == 1
    source = flags[1] if flags else f"{kp_a} and {kp_b}"
    assert capsys.readouterr().err == (
        f"evimatch match: error: {source}: no pairs to match\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def student_ckpt(tmp_path_factory):
    """A seeded, untrained student whose descriptors match the teacher's."""
    config = ExtractorConfig(in_channels=16, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=128)
    path = str(tmp_path_factory.mktemp("ckpt") / "student.ckpt")
    save_extractor(path, init_student(config, seed=2), config)
    return path


@pytest.fixture(scope="module")
def matcher_ckpt(tmp_path_factory):
    """A seeded, untrained CA matcher for the student's descriptors."""
    path = str(tmp_path_factory.mktemp("ca") / "ca.ckpt")
    save_matcher(path, CAMatcherParams.create(
        CAConfig(desc_dim=128, dim=8, layers=1, heads=2, pe_freqs=2,
                 ffn_mult=2, image_size=(16, 16)), seed=0))
    return path


@pytest.fixture(scope="module")
def kp_dir(dataset, tmp_path_factory):
    """The dataset's image keypoint dumps."""
    out = str(tmp_path_factory.mktemp("kp") / "kp")
    assert main(["extract", "--data", dataset, "--modality", "images", "--border", "2",
                 "--nms", "2", "--k", "8", "--out", out]) == 0
    return os.path.join(out, "keypoints")


def test_eval_keypoints_report_bytes(dataset, student_ckpt, tmp_path):
    out = tmp_path / "ev"
    rc = main(["eval", "--data", dataset, "--mode", "keypoints",
               "--extractor", student_ckpt, "--border", "2", "--nms", "2",
               "--k", "16", "--out", str(out)])
    assert rc == 0
    assert (out / "report.txt").read_text() == (
        "n_pairs=2.000000\nrepeatability@3=0.250000\nvdd=1.442742\n"
        "vda=92.335618\nmma@3=0.000000\nmr=0.750000\nn_failed=2.000000\n"
        "rpe_ratio@5=0.000000\nrpe_auc@5=0.000000\nrpe_ratio@10=0.000000\n"
        "rpe_auc@10=0.000000\nrpe_ratio@20=0.000000\nrpe_auc@20=0.000000\n")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("pairs.csv", "report.csv", "report.txt")}
    assert digests == {
        "pairs.csv": ("3dc5b0fffcee21aca31043e897c0e521"
                      "4d0565445f37079c92b994c951e90b86"),
        "report.csv": ("48abead87e0a5d48200c60b33f2626b0"
                       "0cfd2c484b3e756ee9d61aa83e58c69f"),
        "report.txt": ("38da45c5f9b88c26d1567592a9503bc4"
                       "6d96c67c3ea7454580714bb6ba0f1b33"),
    }


def direct_keypoints(dataset, ckpt, kind, bins):
    """Each sample's (event, image) keypoints at --border 2 --nms 2 --k 16,
    computed without the CLI from the given representation, the event
    score gated by the event mask by hand."""
    samples, _, _, _ = eio.load_dataset(dataset)
    params, config = load_extractor(ckpt)
    out = []
    for s in samples:
        maps = forward_student(build_representation(s.events, kind, bins=bins),
                               params, config)
        maps.score = maps.score * accumulate_mask(s.events).astype(np.float32)
        out.append(tuple(extract_keypoints(m, border=2, nms_radius=2, k=16)
                         for m in (maps, analytic_teacher(s.image))))
    return out


def direct_scores(dataset, kps, match_fn):
    """score_pair of each sample's (event, image) keypoints on their ground
    truth, matched by match_fn; a sample against itself has no pose."""
    samples, intr, _, _ = eio.load_dataset(dataset)
    return [score_pair(a, b, gt_assignment(a, b, s.depth, s.depth, intr, intr,
                                           s.pose, s.pose),
                       match_fn(a, b), relative_pose(s.pose, s.pose), intr, 1.0, 0)
            for s, (a, b) in zip(samples, kps)]


def test_image_keypoints_build_no_full_descriptor_map():
    # the teacher's full (128, 64, 64) float64 map alone is 4 MiB; image
    # keypoints compute descriptors only where the sampler reads
    image, _ = render(make_scene(seed=2), 1.1)
    defaults = cli._COMMAND_PARAMS["eval"]
    tracemalloc.start()
    try:
        kp = teacher_keypoints(image, border=int(defaults["border"]),
                               nms_radius=int(defaults["nms"]), k=int(defaults["k"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kp) > 0
    assert peak < 2 * 2**20


KP_FLAGS = ["--border", "2", "--nms", "2", "--k", "16"]


def test_extract_and_eval_read_the_representation_from_the_student(dataset,
                                                                   tmp_path):
    config = ExtractorConfig(in_channels=16, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=128, representation="stack")
    ckpt = str(tmp_path / "stack.ckpt")
    save_extractor(ckpt, init_student(config, seed=2), config)
    kps = direct_keypoints(dataset, ckpt, "stack", 16)
    # a voxel reading of the same 16 channels gives other keypoints
    assert any(not np.array_equal(a.positions, v.positions) for (a, _), (v, _)
               in zip(kps, direct_keypoints(dataset, ckpt, "voxel", 16)))

    flags = ["--data", dataset, "--extractor", ckpt, *KP_FLAGS]
    assert main(["extract", "--modality", "events", *flags,
                 "--out", str(tmp_path / "ex")]) == 0
    for i, (kp_a, _) in enumerate(kps):
        eio.save_keypoints(tmp_path / "want.txt", kp_a)
        for suffix in ("", ".desc"):
            got = tmp_path / "ex" / "keypoints" / f"{i:03d}.txt{suffix}"
            assert got.read_bytes() == (tmp_path / f"want.txt{suffix}").read_bytes()

    assert main(["eval", "--mode", "keypoints", *flags,
                 "--out", str(tmp_path / "ev")]) == 0
    report = (tmp_path / "ev" / "report.txt").read_text().splitlines()
    scores = direct_scores(dataset, kps, mnn_match)
    rep = np.mean([s["repeatability"] for s in scores])
    mr = np.mean([s["mr"] for s in scores])
    assert f"repeatability@3={rep:.6f}" in report and f"mr={mr:.6f}" in report


def test_eval_runs_the_ca_matcher_its_checkpoint_names(dataset, student_ckpt,
                                                       matcher_ckpt, tmp_path):
    matcher = load_matcher(matcher_ckpt)
    kps = direct_keypoints(dataset, student_ckpt, "voxel", 16)
    flags = ["--data", dataset, "--extractor", student_ckpt, *KP_FLAGS]
    reports = {}
    for name, extra, match_fn in (
            ("mnn", [], mnn_match),
            ("ca", ["--matcher-ckpt", matcher_ckpt],
             lambda a, b: ca_match(a, b, matcher, threshold=0.1))):
        assert main(["eval", "--mode", "keypoints", *flags, *extra,
                     "--out", str(tmp_path / name)]) == 0
        reports[name] = (tmp_path / name / "report.txt").read_text()
        mr = np.mean([s["mr"] for s in direct_scores(dataset, kps, match_fn)])
        assert f"\nmr={mr:.6f}\n" in reports[name]
    assert reports["ca"] != reports["mnn"]


def test_eval_rpe_all_failures_score_zero(dataset, student_ckpt):
    # a matcher that finds nothing: every pair fails, and the report says so
    samples, intr, _, _ = eio.load_dataset(dataset)
    cfg = resolve_config("eval", parse(
        ["eval", "--data", dataset, "--mode", "rpe", "--extractor", student_ckpt,
         "--border", "2", "--nms", "2", "--k", "16"]))
    params, config = load_extractor(student_ckpt)
    entries, rows = _eval_pairs(samples, [(0, 1), (1, 0)], intr, cfg, params,
                                config, lambda kp_a, kp_b: Assignment.empty())
    report = {(m, t): v for m, t, v in entries}
    assert report[("n_pairs", None)] == report[("n_failed", None)] == 2
    assert [report[("rpe_auc", t)] for t in (5.0, 10.0, 20.0)] == [0.0] * 3
    assert ("mma", 3.0) not in report and report[("mr", None)] == 0.0
    assert [row[-1] for row in rows] == ["need at least 8 matches, got 0"] * 2


def test_eval_rpe_rows_give_each_pairs_reason(dataset, student_ckpt, monkeypatch):
    # the estimator's outcome per pair: an exact pose, then a failed
    # estimate; a pair whose ground-truth baseline is zero never reaches it
    samples, intr, _, _ = eio.load_dataset(dataset)
    exact = relative_pose(samples[0].pose, samples[1].pose)
    outcomes = [exact, EstimationFailed("no model with 8 inliers after 9 iterations")]

    def estimate(*args, **kwargs):
        got = outcomes.pop(0)
        if isinstance(got, Exception):
            raise got
        return PoseEstimate(got.rotation, got.translation, np.ones(8, bool), 0.75)

    monkeypatch.setattr(metrics, "estimate_essential_ransac", estimate)
    cfg = resolve_config("eval", parse(
        ["eval", "--data", dataset, "--mode", "rpe", "--extractor", student_ckpt,
         "--border", "2", "--nms", "2", "--k", "16"]))
    params, config = load_extractor(student_ckpt)
    eight = Assignment(np.zeros((8, 2), np.int64), np.ones(8))
    entries, rows = _eval_pairs(samples, [(0, 1), (1, 0), (1, 1)], intr, cfg,
                                params, config, lambda kp_a, kp_b: eight)
    assert outcomes == []
    assert [row[:2] + row[5:6] + row[7:] for row in rows] == [
        (0, 1, 8, "0.750000", "0.000000", "0.000000", "ok"),
        (1, 0, 8, "nan", "inf", "inf", "no model with 8 inliers after 9 iterations"),
        (1, 1, 8, "nan", "inf", "inf",
         "translation direction undefined for a zero-norm baseline"),
    ]
    report = dict(((m, t), v) for m, t, v in entries)
    assert report[("n_failed", None)] == 2 and report[("inlier_ratio", None)] == 0.75


def test_eval_rpe_does_not_swallow_other_estimator_errors(dataset, student_ckpt,
                                                          monkeypatch):
    # only EstimationFailed and a zero baseline are a pair's failure
    def estimate(*args, **kwargs):
        raise ValueError("match arrays must have equal length")

    monkeypatch.setattr(metrics, "estimate_essential_ransac", estimate)
    samples, intr, _, _ = eio.load_dataset(dataset)
    cfg = resolve_config("eval", parse(
        ["eval", "--data", dataset, "--mode", "rpe", "--extractor", student_ckpt]))
    params, config = load_extractor(student_ckpt)
    eight = Assignment(np.zeros((8, 2), np.int64), np.ones(8))
    with pytest.raises(ValueError, match="equal length"):
        _eval_pairs(samples, [(0, 1)], intr, cfg, params, config,
                    lambda kp_a, kp_b: eight)


def test_eval_keypoints_never_runs_the_estimator(dataset, student_ckpt, tmp_path,
                                                 monkeypatch):
    # each sample against itself has a zero baseline: no pose to estimate
    def estimate(*args, **kwargs):
        pytest.fail("the estimator ran on a zero-baseline pair")

    monkeypatch.setattr(metrics, "estimate_essential_ransac", estimate)
    monkeypatch.setattr(cli, "mnn_match", lambda kp_a, kp_b: Assignment(
        np.zeros((8, 2), np.int64), np.ones(8)))
    out = tmp_path / "ev"
    assert main(["eval", "--data", dataset, "--mode", "keypoints", "--extractor",
                 student_ckpt, *KP_FLAGS, "--out", str(out)]) == 0
    table = list(csv.reader((out / "pairs.csv").read_text().splitlines()))
    assert [row[:2] + row[-1:] for row in table[1:]] == [
        [i, i, "translation direction undefined for a zero-norm baseline"]
        for i in ("0", "1")]


def test_eval_rpe_fails_on_an_empty_pairs_file(dataset, student_ckpt, tmp_path,
                                               monkeypatch, capsys):
    def views(*args, **kwargs):
        pytest.fail("a keypoint was extracted before the pairs were checked")

    monkeypatch.setattr(cli, "_views", views)
    bench = tmp_path / "bench"
    shutil.copytree(dataset, bench)
    (bench / "pairs.txt").write_text("# idx_events idx_image overlap\n")
    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(bench), "--mode", "rpe", "--extractor",
               student_ckpt, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"evimatch eval: error: {bench / 'pairs.txt'}: no pairs to evaluate\n")
    assert not out.exists()


def turn_view_b(src, dst, axis):
    """A copy of the benchmark src whose view b of each pair is turned 5
    degrees about its own centre in poses.txt: QR, Qt."""
    shutil.copytree(src, dst)
    times, poses = eio.load_poses(src / "poses.txt")
    q = rotation_about(axis, 5.0)
    for _, ib, _ in eio.load_pairs(src / "pairs.txt"):
        poses[ib] = RigidPose(q @ poses[ib].rotation, q @ poses[ib].translation)
    eio.save_poses(dst / "poses.txt", times, poses)


def test_eval_rpe_repeatability_sees_a_geometric_error_in_view_b(student_ckpt,
                                                                  tmp_path):
    # the ground truth of a cross-view pair reads view b's pose: a 5 degree
    # error there (about 4.5 px at 64x64) must cost most ground-truth pairs.
    # The untrained student's repeatability fell from 0.275 to 0.053 (y) and
    # 0.099 (x) when this test was written.
    bench = tmp_path / "bench"
    assert main(["benchgen", "--n-pairs", "4", "--seed", "3", "--dt-sim", "0.025",
                 "--out", str(bench)]) == 0

    def repeatability_row(data):
        out = tmp_path / "ev"
        assert main(["eval", "--data", str(data), "--mode", "rpe", "--extractor",
                     student_ckpt, "--out", str(out)]) == 0
        report = eio.parse_config((out / "report.txt").read_text())
        return float(report["repeatability@3"])

    true = repeatability_row(bench)
    for axis in ([0, 1, 0], [1, 0, 0]):
        turned = tmp_path / f"turned{axis}"
        turn_view_b(bench, turned, axis)
        assert repeatability_row(turned) < true / 2


@pytest.mark.parametrize("flags, message", [
    (["--ransac-px", "abc"], "could not convert string to float: 'abc'"),
    (["--ransac-px", "-1"], "--ransac-px must be positive and finite, got -1.0"),
    (["--ransac-px", "0"], "--ransac-px must be positive and finite, got 0.0"),
    (["--ransac-px", "nan"], "--ransac-px must be positive and finite, got nan"),
    (["--seed", "x"], "invalid literal for int() with base 10: 'x'"),
])
def test_eval_rpe_rejects_bad_flags_before_the_first_pair(
        dataset, student_ckpt, tmp_path, monkeypatch, capsys, flags, message):
    # every pair reaches the estimator, which must never be called
    def estimate(*args, **kwargs):
        pytest.fail("the estimator ran before the flags were checked")

    monkeypatch.setattr(metrics, "estimate_essential_ransac", estimate)
    monkeypatch.setattr(cli, "mnn_match", lambda kp_a, kp_b: Assignment(
        np.zeros((8, 2), np.int64), np.ones(8)))
    bench = tmp_path / "bench"
    shutil.copytree(dataset, bench)
    (bench / "pairs.txt").write_text("0 1 0.5\n")
    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(bench), "--mode", "rpe", "--extractor",
               student_ckpt, *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"evimatch eval: error: {message}\n"
    assert not out.exists()


def test_eval_rpe_writes_pairs_csv_next_to_report(dataset, student_ckpt, tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(dataset, bench)
    (bench / "pairs.txt").write_text("0 1 0.5\n1 0 0.5\n")
    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(bench), "--mode", "rpe", "--extractor",
               student_ckpt, "--border", "2", "--nms", "2", "--k", "16",
               "--out", str(out)])
    assert rc == 0
    table = list(csv.reader((out / "pairs.csv").read_text().splitlines()))
    assert table[0] == ["index_a", "index_b", "keypoints_a", "keypoints_b",
                        "gt_pairs", "matches", "correct", "inlier_ratio",
                        "rotation_deg", "translation_deg", "reason"]
    assert [row[:2] for row in table[1:]] == [["0", "1"], ["1", "0"]]
    report = (out / "report.csv").read_text().splitlines()
    assert report[0:2] == ["metric,threshold,value", "n_pairs,,2.000000"]
    assert f"n_failed,,{sum(r[-1] != 'ok' for r in table[1:])}.000000" in report


# -- failure semantics ---------------------------------------------------------

def test_failure_removes_created_dir(tmp_path, capsys):
    out = str(tmp_path / "should_vanish")
    rc = main(["synth", *TINY_SYNTH, "--n", "0", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("evimatch synth: error:")
    assert err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("flags", [["--width", "abc"], ["--n", "0"]],
                         ids=["bad-value", "fails-in-command"])
def test_failure_preserves_preexisting_dir(dataset, tmp_path, flags):
    out = tmp_path / "ds"
    shutil.copytree(dataset, out)
    before = tree_bytes(out)
    assert main(["synth", *TINY_SYNTH, *flags, "--out", str(out)]) == 1
    assert tree_bytes(out) == before  # no staging entry is left inside
    assert os.listdir(tmp_path) == ["ds"]  # nor beside


def test_rerun_replaces_stale_dumps(dataset, tmp_path):
    four = str(tmp_path / "four")
    assert main(["synth", *TINY_SYNTH, "--n", "4", "--out", four]) == 0
    kp = tmp_path / "kp"
    for data in (four, dataset):
        assert main(["extract", "--data", data, "--modality", "images",
                     *KP_FLAGS, "--out", str(kp)]) == 0
    assert sorted(os.listdir(kp / "keypoints")) == [
        "000.txt", "000.txt.desc", "001.txt", "001.txt.desc"]
    assert f"data={dataset}\n" in (kp / "config.txt").read_text()


def test_interrupt_leaves_out_untouched(dataset, tmp_path, monkeypatch):
    def interrupted(out, cfg):
        with open(os.path.join(out, "poses.txt"), "w") as f:
            f.write("half\n")
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "synth", interrupted)
    out = tmp_path / "ds"
    shutil.copytree(dataset, out)
    before = tree_bytes(out)
    with pytest.raises(KeyboardInterrupt):
        main(["synth", *TINY_SYNTH, "--out", str(out)])
    assert tree_bytes(out) == before
    assert os.listdir(tmp_path) == ["ds"]


def test_out_may_be_the_working_directory(dataset, tmp_path, monkeypatch, capsys):
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    assert main(["synth", *TINY_SYNTH, "--out", "."]) == 0
    assert capsys.readouterr().out == "wrote 2 samples to .\n"
    assert tree_bytes(here) == tree_bytes(dataset)
    assert os.listdir(tmp_path) == ["here"]


def test_out_may_be_a_symlink(dataset, tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    link = tmp_path / "link"
    link.symlink_to(real)
    assert main(["synth", *TINY_SYNTH, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert tree_bytes(real) == tree_bytes(dataset)
    assert sorted(os.listdir(tmp_path)) == ["link", "real"]


def test_out_may_sit_in_a_read_only_directory(dataset, tmp_path):
    locked = tmp_path / "locked"
    out = locked / "ds"
    out.mkdir(parents=True)
    locked.chmod(0o555)
    try:
        if os.access(locked, os.W_OK):
            pytest.skip("this user writes into read-only directories (root)")
        assert main(["synth", *TINY_SYNTH, "--out", str(out)]) == 0
    finally:
        locked.chmod(0o755)
    assert tree_bytes(out) == tree_bytes(dataset)


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_errors_name_the_final_out(tmp_path, monkeypatch, capsys, exists):
    def fails_writing(out, cfg):
        open(os.path.join(out, "missing", "000.txt"), "w")

    monkeypatch.setitem(cli._COMMANDS, "synth", fails_writing)
    out = tmp_path / "ds"
    if exists:
        out.mkdir()
    assert main(["synth", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "evimatch synth: error: [Errno 2] No such file or directory: "
        f"'{out / 'missing' / '000.txt'}'\n")


def test_out_that_is_a_file_fails_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli._COMMANDS, "synth", None)  # never called
    out = tmp_path / "taken"
    out.write_text("mine\n")
    assert main(["synth", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"evimatch synth: error: --out {out} is not a directory\n")
    assert out.read_text() == "mine\n"
    assert os.listdir(tmp_path) == ["taken"]


def test_empty_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli._COMMANDS, "synth", None)  # never called
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", ""]) == 1
    assert capsys.readouterr().err == "evimatch synth: error: --out must not be empty\n"
    assert os.listdir(tmp_path) == []


def test_summaries_name_the_final_out(dataset, student_ckpt, tmp_path,
                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [  # none names the staging directory the command wrote into
        (["extract", "--data", dataset, "--modality", "images", *KP_FLAGS,
          "--out", "kp"], "wrote 2 keypoint dumps to kp/keypoints\n"),
        (["match", "--kp-a", "kp/keypoints", "--kp-b", "kp/keypoints",
          "--out", "m"], "wrote 2 match dumps to m/matches\n"),
        (["viz", "--data", dataset, "--extractor", student_ckpt, *KP_FLAGS,
          "--out", "v"], "wrote v/viz/match_000_000.ppm\n"),
    ]
    for argv, printed in runs:
        assert main(argv) == 0
        assert capsys.readouterr().out == printed
    assert main(["eval", "--data", dataset, "--mode", "keypoints", "--extractor",
                 student_ckpt, *KP_FLAGS, "--out", "e"]) == 0
    assert capsys.readouterr().out == (tmp_path / "e" / "report.txt").read_text()


def test_bad_flag_value_fails_before_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["train-extractor"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_bad_modality_message(dataset, tmp_path, capsys):
    rc = main(["extract", "--data", dataset, "--modality", "sounds",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "modality must be events or images" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--modality", "images", "--extractor", "CKPT"],
     "images use the analytic teacher, not --extractor"),
    (["--modality", "events"], "extracting from events requires --extractor"),
])
def test_extract_rejects_an_extractor_flag_that_does_not_fit_the_modality(
        student_ckpt, tmp_path, capsys, flags, message):
    # --data does not exist: the flags are checked before it is read
    out = tmp_path / "kp"
    rc = main(["extract", "--data", str(tmp_path / "missing"),
               *[{"CKPT": student_ckpt}.get(f, f) for f in flags],
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"evimatch extract: error: {message}\n"
    assert not out.exists()


def test_eval_unknown_mode_fails_and_cleans_up(dataset, student_ckpt, tmp_path,
                                               capsys):
    out = tmp_path / "ev_he"
    rc = main(["eval", "--data", dataset, "--mode", "he",
               "--extractor", student_ckpt, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "evimatch eval: error: unknown eval mode 'he' (keypoints or rpe)\n")
    assert not out.exists()


def test_eval_checks_mode_before_loading(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    rc = main(["eval", "--data", missing, "--mode", "he", "--extractor",
               missing + ".ckpt", "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "evimatch eval: error: unknown eval mode 'he' (keypoints or rpe)\n")


def test_viz_aligned_pair_image_bytes(dataset, student_ckpt, tmp_path):
    # sample 1 against itself: one keypoint, matched but not to its
    # ground-truth partner
    out = tmp_path / "viz"
    rc = main(["viz", "--data", dataset, "--extractor", student_ckpt,
               "--index-a", "1", "--border", "2", "--nms", "2", "--k", "16",
               "--out", str(out)])
    assert rc == 0
    ppm = (out / "viz" / "match_001_001.ppm").read_bytes()
    assert hashlib.sha256(ppm).hexdigest() == (
        "1223d089b5bbcb39a88574380b46c1a3671cf54aca83085c4e46ea02234da491")


def test_viz_cross_view_colours_matches_by_the_ground_truth(dataset, student_ckpt,
                                                            tmp_path):
    out = tmp_path / "viz"
    rc = main(["viz", "--data", dataset, "--extractor", student_ckpt,
               "--index-a", "0", "--index-b", "1", *KP_FLAGS, "--out", str(out)])
    assert rc == 0
    ppm = (out / "viz" / "match_000_001.ppm").read_bytes()
    assert ppm.startswith(b"P6\n40 16\n255\n")
    colours = set(map(tuple, np.frombuffer(ppm[-40 * 16 * 3:], np.uint8)
                      .reshape(-1, 3).tolist()))
    assert {eio.GREEN, eio.RED} & colours
    assert (230, 200, 40) not in colours  # yellow: a match left unjudged


@pytest.mark.parametrize("command, flag", [
    ("match", "--matcher"), ("eval", "--matcher"), ("viz", "--matcher"),
    ("extract", "--representation"), ("eval", "--bins"), ("viz", "--rep")])
def test_flags_a_checkpoint_fixes_are_gone(command, flag, capsys):
    # nor does a prefix stand in for a longer flag such as --matcher-ckpt
    with pytest.raises(SystemExit) as exit_:
        parse([command, flag, "ca"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} ca" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("train-extractor", "--score-head"), ("train-extractor", "--desc-head"),
    ("train-extractor", "--latent-dim"), ("train-extractor", "--desc-dim"),
    ("train-extractor", "--pairs"), ("train-matcher", "--mask"), ("extract", "--mask"),
    ("eval", "--mask"), ("viz", "--mask"), ("extract", "--threshold"),
    ("train-matcher", "--eps-px"), ("eval", "--eps"), ("viz", "--eps")])
def test_head_widths_and_the_mask_switch_are_gone(command, flag, capsys):
    # the heads are as wide as the last backbone block, their outputs as
    # wide as the teacher's, synth --n counts the training samples, event
    # keypoints are always gated by the event mask, keypoints are always
    # the top --k, and keypoints correspond within matching.CORRESPONDENCE_PX
    with pytest.raises(SystemExit) as exit_:
        parse([command, flag, "1"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_settable_values():
    # a value added or removed shows here by name
    scene = ["contrast", "delta_t", "dt_sim", "duration", "height", "height_amplitude",
             "motion_scale", "n_rects", "seed", "width"]
    keypoints = ["border", "k", "nms"]
    matcher = ["matcher_ckpt", "threshold"]
    want = {
        "synth": scene + ["n"],
        "benchgen": scene + ["max_attempts", "n_pairs", "overlap_hi", "overlap_lo"],
        "train-extractor": ["batch", "bins", "channels", "data", "epochs", "loss_terms",
                            "lr", "pools", "representation", "seed"],
        "train-matcher": keypoints + ["batch", "data", "dim", "epochs", "extractor",
                                      "ffn_mult", "heads", "layers", "lr",
                                      "pairs_file", "pe_freqs", "seed"],
        "extract": keypoints + ["data", "extractor", "modality"],
        "match": matcher + ["kp_a", "kp_b", "pairs_file"],
        "eval": keypoints + matcher + ["data", "extractor", "mode", "ransac_px",
                                       "seed"],
        "viz": keypoints + matcher + ["data", "extractor", "index_a", "index_b"],
    }
    assert {command: sorted(params) for command, params in cli._COMMAND_PARAMS.items()} \
        == {command: sorted(names) for command, names in want.items()}
    assert sum(len(names) for names in want.values()) == 80


# -- inputs the pipeline cannot use -------------------------------------------

TINY_STUDENT = ["--channels", "4,4", "--pools", "2,2", "--epochs", "1"]


@pytest.mark.parametrize("flags, message", [
    (["--heads", "3"], "dim must be divisible by heads"),
    (["--lr", "nan"], "lr must be positive and finite, got nan"),
])
def test_train_matcher_checks_its_architecture_and_recipe_before_any_view(
        dataset, student_ckpt, tmp_path, monkeypatch, capsys, flags, message):
    real, calls = cli._views, []
    monkeypatch.setattr(cli, "_views", lambda *args: calls.append(1) or real(*args))
    rc = main(["train-matcher", "--data", dataset, "--extractor", student_ckpt, *flags,
               "--out", str(tmp_path / "tm")])
    assert rc == 1
    assert capsys.readouterr().err == f"evimatch train-matcher: error: {message}\n"
    assert len(calls) == 0


def test_train_extractor_names_what_the_teacher_cannot_supervise(dataset, tmp_path,
                                                                capsys):
    # the student's widths are the teacher's; only its stride can misfit
    out = tmp_path / "tx"
    rc = main(["train-extractor", "--data", dataset, *TINY_STUDENT, "--channels",
               "4,4,4,4", "--pools", "1,1,1,2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "evimatch train-extractor: error: stride is 2, giving 8x8 feats for 16x16 "
        "inputs, but the teacher's feats are 4x4\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", *TINY_SYNTH, "--contrast", "nan"],
     "contrast must be positive and finite, got nan"),
    (["synth", *TINY_SYNTH, "--contrast", "inf"],
     "contrast must be positive and finite, got inf"),
    (["synth", *TINY_SYNTH, "--dt-sim", "nan"],
     "dt_sim must be positive and finite, got nan"),
    (["synth", *TINY_SYNTH, "--height-amplitude", "nan"],
     "height_amplitude must be finite, got nan"),
    (["synth", *TINY_SYNTH, "--motion-scale", "nan"],
     "motion_scale must be finite, got nan"),
    (["synth", *TINY_SYNTH, "--duration", "nan"], "duration must be finite, got nan"),
    (["synth", *TINY_SYNTH, "--delta-t", "nan"],
     "delta_t must be positive and below the duration 1.0, got nan"),
    (["benchgen", "--delta-t", "inf"],
     "delta_t must be positive and below the duration 4.0, got inf"),
    (["synth", *TINY_SYNTH, "--duration", "0.01"],
     "delta_t must be positive and below the duration 0.01, got 0.05"),
    (["train-extractor", "--data", "DATA", *TINY_STUDENT, "--lr", "nan"],
     "lr must be positive and finite, got nan"),
    (["train-matcher", "--data", "DATA", "--extractor", "CKPT", *KP_FLAGS,
      "--lr", "nan"], "lr must be positive and finite, got nan"),
    (["match", "--kp-a", "KP", "--kp-b", "KP", "--matcher-ckpt", "CA",
      "--threshold", "nan"], "threshold must be finite, got nan"),
    (["eval", "--data", "DATA", "--mode", "keypoints", "--extractor", "CKPT",
      *KP_FLAGS, "--matcher-ckpt", "CA", "--threshold", "nan"],
     "threshold must be finite, got nan"),
    (["synth", *TINY_SYNTH, "--width", "0"], "width must be at least 1, got 0"),
    (["synth", *TINY_SYNTH, "--height", "0"], "height must be at least 1, got 0"),
    (["synth", *TINY_SYNTH, "--n-rects", "-1"], "n_rects must be at least 0, got -1"),
    (["benchgen", "--max-attempts", "-3"], "max_attempts must be at least 1, got -3"),
])
def test_non_finite_values_fail_by_name(dataset, student_ckpt, matcher_ckpt, kp_dir,
                                        tmp_path, capsys, argv, message):
    paths = {"DATA": dataset, "CKPT": student_ckpt, "CA": matcher_ckpt, "KP": kp_dir}
    out = tmp_path / "out"
    rc = main([paths.get(a, a) for a in argv] + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"evimatch {argv[0]}: error: {message}\n"
    assert not out.exists()


BENCH_SCENE = ["--width", "16", "--height", "16", "--duration", "1.0",
               "--dt-sim", "0.005", "--n-rects", "6", "--max-attempts", "1"]


def test_benchgen_fails_when_no_pair_is_accepted(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["benchgen", *BENCH_SCENE, "--n-pairs", "1", "--overlap-lo", "0.99",
               "--overlap-hi", "1.0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "evimatch benchgen: error: no pair with overlap in [0.99, 1.0]: benchmark "
        "budget exhausted: produced 0 of 1 requested pairs in 1 attempts\n")
    assert not out.exists()
    # a partial benchmark is written, and warns as generate_benchmark does
    with pytest.warns(UserWarning, match="produced 1 of 2 requested pairs"):
        rc = main(["benchgen", *BENCH_SCENE, "--n-pairs", "2", "--out", str(out)])
    assert rc == 0
    assert len(eio.load_pairs(out / "pairs.txt")) == 1


def test_train_extractor_rejects_bins_for_a_time_surface(dataset, tmp_path, capsys):
    out = tmp_path / "tx"
    rc = main(["train-extractor", "--data", dataset, *TINY_STUDENT,
               "--representation", "time_surface", "--bins", "8",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", (
        "evimatch train-extractor: error: --bins 8 does not apply to a "
        "time_surface representation, which has no bins\n"))
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["0.7", "nan"])
@pytest.mark.parametrize("argv", [
    ["match", "--kp-a", "KP", "--kp-b", "KP"],
    ["eval", "--data", "DATA", "--mode", "keypoints", "--extractor", "CKPT", *KP_FLAGS],
    ["viz", "--data", "DATA", "--extractor", "CKPT", *KP_FLAGS]], ids=lambda a: a[0])
def test_threshold_needs_a_matcher_checkpoint(dataset, student_ckpt, kp_dir, tmp_path,
                                              capsys, argv, threshold):
    # mutual nearest neighbour reads no threshold: one would only move the
    # content-addressed output directory of equal outputs
    paths = {"DATA": dataset, "CKPT": student_ckpt, "KP": kp_dir}
    out = tmp_path / "out"
    rc = main([paths.get(a, a) for a in argv]
              + ["--threshold", threshold, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"evimatch {argv[0]}: error: --threshold {threshold} does not apply without "
        "--matcher-ckpt: mutual nearest neighbour has no threshold\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--index-a", "5"], "--index-a: sample index 5 is out of range for 2 samples"),
    (["--index-a", "-1"], "--index-a: sample index -1 is out of range for 2 samples"),
    (["--index-b", "2"], "--index-b: sample index 2 is out of range for 2 samples"),
    (["--index-b", "-2"], "--index-b: sample index -2 is out of range for 2 samples"),
])
def test_viz_rejects_out_of_range_index(dataset, student_ckpt, tmp_path, capsys,
                                        flags, message):
    rc = main(["viz", "--data", dataset, "--extractor", student_ckpt, *flags,
               "--out", str(tmp_path / "viz")])
    assert rc == 1
    assert capsys.readouterr().err == f"evimatch viz: error: {message}\n"


@pytest.mark.parametrize("row, bad", [("0 7 0.5", 7), ("0 -1 0.5", -1),
                                      ("2 0 0.5", 2)])
def test_pairs_files_reject_out_of_range_index(dataset, student_ckpt, tmp_path,
                                               capsys, row, bad):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"1 0 0.5\n{row}\n")
    want = f"{pairs}: sample index {bad} is out of range for 2 samples\n"

    rc = main(["train-matcher", "--data", dataset, "--extractor", student_ckpt,
               "--pairs-file", str(pairs), "--out", str(tmp_path / "tm")])
    assert rc == 1
    assert capsys.readouterr().err == "evimatch train-matcher: error: " + want

    kp_dir = str(tmp_path / "kp" / "keypoints")
    assert main(["extract", "--data", dataset, "--modality", "images",
                 "--border", "2", "--nms", "2", "--k", "8",
                 "--out", str(tmp_path / "kp")]) == 0
    capsys.readouterr()
    rc = main(["match", "--kp-a", kp_dir, "--kp-b", kp_dir, "--pairs-file",
               str(pairs), "--out", str(tmp_path / "m")])
    assert rc == 1
    assert capsys.readouterr().err == "evimatch match: error: " + want

    bench = tmp_path / "bench"
    shutil.copytree(dataset, bench)
    (bench / "pairs.txt").write_text(pairs.read_text())
    rc = main(["eval", "--data", str(bench), "--mode", "rpe", "--extractor",
               student_ckpt, "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"evimatch eval: error: {bench / 'pairs.txt'}: sample index {bad} "
        "is out of range for 2 samples\n")
