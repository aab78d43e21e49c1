"""Command-line behavior: config resolution, hashing, determinism, what
reaches --out."""

import csv
import hashlib
import os
import shutil

import numpy as np
import pytest

from evimatch import cli, io as eio
from evimatch.cli import _eval_rpe, build_parser, main, output_dir, resolve_config
from evimatch.events import accumulate_mask
from evimatch.extractor import (ExtractorConfig, analytic_teacher,
                                apply_event_mask, extract_keypoints,
                                forward_student, init_student, load_extractor,
                                save_extractor)
from evimatch.geometry import EstimationFailed, PoseEstimate, relative_pose
from evimatch.matching import (Assignment, CAConfig, CAMatcherParams, ca_match,
                               gt_assignment, load_matcher, mnn_match,
                               save_matcher)
from evimatch.metrics import mma_mr, repeatability
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
                        ("--ransac-px RANSAC_PX", "default: 1.0"),
                        ("--rpe-thresholds RPE_THRESHOLDS", "default: 5,10,20")):
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
    for name in ("poses.txt", "intrinsics.txt", "manifest.txt", "config.txt"):
        assert os.path.isfile(os.path.join(dataset, name))
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


def test_extract_threshold_mode(dataset, tmp_path):
    out = str(tmp_path / "kp_thr")
    rc = main(["extract", "--data", dataset, "--modality", "images",
               "--border", "2", "--nms", "2", "--threshold", "0.05",
               "--out", out])
    assert rc == 0
    kp = eio.load_keypoints(os.path.join(out, "keypoints", "000.txt"))
    assert (kp.scores > 0.05).all()


@pytest.fixture(scope="module")
def student_ckpt(tmp_path_factory):
    """A seeded, untrained student whose descriptors match the teacher's."""
    config = ExtractorConfig(in_channels=16, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=128, score_head=(4,),
                             desc_head=(4,))
    path = str(tmp_path_factory.mktemp("ckpt") / "student.ckpt")
    save_extractor(path, init_student(config, seed=2), config)
    return path


def test_eval_keypoints_report_bytes(dataset, student_ckpt, tmp_path):
    out = tmp_path / "ev"
    rc = main(["eval", "--data", dataset, "--mode", "keypoints",
               "--extractor", student_ckpt, "--border", "2", "--nms", "2",
               "--k", "16", "--out", str(out)])
    assert rc == 0
    assert (out / "report.txt").read_text() == (
        "n_samples=2.000000\nrepeatability@3=0.400000\nvdd=1.357714\n"
        "vda=85.521653\nmma@3=0.250000\nmr=1.000000\n")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("report.csv", "report.txt")}
    assert digests == {
        "report.csv": ("e3a93764fd0976f91cc44ec1a7d4c157"
                       "78e13abe6eb188b58241f65a7b49b155"),
        "report.txt": ("30ec6fd4225fda45636605c82eedeb50"
                       "64ad45f8c228df5dc1850fef78d57735"),
    }


def direct_keypoints(dataset, ckpt, kind, bins):
    """Each sample's (event, image) keypoints at --border 2 --nms 2 --k 16,
    computed without the CLI from the given representation."""
    samples, _, _, _ = eio.load_dataset(dataset)
    params, config = load_extractor(ckpt)
    out = []
    for s in samples:
        maps = forward_student(build_representation(s.events, kind, bins=bins),
                               params, config)
        maps = apply_event_mask(maps, accumulate_mask(s.events))
        out.append(tuple(extract_keypoints(m, border=2, nms_radius=2, k=16)
                         for m in (maps, analytic_teacher(s.image))))
    return out


def direct_gts(dataset, kps):
    """Each sample's ground truth between its (event, image) keypoints."""
    samples, intr, _, _ = eio.load_dataset(dataset)
    return [gt_assignment(a, b, s.depth, s.depth, intr, intr, s.pose, s.pose)
            for s, (a, b) in zip(samples, kps)]


KP_FLAGS = ["--border", "2", "--nms", "2", "--k", "16"]


def test_extract_and_eval_read_the_representation_from_the_student(dataset,
                                                                   tmp_path):
    config = ExtractorConfig(in_channels=16, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=128, score_head=(4,),
                             desc_head=(4,), representation="stack")
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
    gts = direct_gts(dataset, kps)
    rep = np.mean([repeatability(gt) for gt in gts])
    mr = np.mean([mma_mr(mnn_match(a, b), gt)[1] for (a, b), gt in zip(kps, gts)])
    assert f"repeatability@3={rep:.6f}" in report and f"mr={mr:.6f}" in report


def test_eval_runs_the_ca_matcher_its_checkpoint_names(dataset, student_ckpt,
                                                       tmp_path):
    ca = str(tmp_path / "ca.ckpt")
    save_matcher(ca, CAMatcherParams.create(
        CAConfig(desc_dim=128, dim=8, layers=1, heads=2, pe_freqs=2,
                 ffn_mult=2, image_size=(16, 16)), seed=0))
    matcher = load_matcher(ca)
    kps = direct_keypoints(dataset, student_ckpt, "voxel", 16)
    gts = direct_gts(dataset, kps)
    flags = ["--data", dataset, "--extractor", student_ckpt, *KP_FLAGS]
    reports = {}
    for name, extra, match_fn in (
            ("mnn", [], mnn_match),
            ("ca", ["--matcher-ckpt", ca],
             lambda a, b: ca_match(a, b, matcher, threshold=0.1))):
        assert main(["eval", "--mode", "keypoints", *flags, *extra,
                     "--out", str(tmp_path / name)]) == 0
        reports[name] = (tmp_path / name / "report.txt").read_text()
        mr = np.mean([mma_mr(match_fn(a, b), gt)[1] for (a, b), gt in zip(kps, gts)])
        assert f"\nmr={mr:.6f}\n" in reports[name]
    assert reports["ca"] != reports["mnn"]


def test_eval_rpe_all_failures_score_zero(dataset):
    # a matcher that finds nothing: every pair fails, and the report says so
    samples, intr, _, _ = eio.load_dataset(dataset)
    cfg = resolve_config("eval", parse(
        ["eval", "--data", dataset, "--mode", "rpe", "--extractor", "unused",
         "--border", "2", "--nms", "2", "--k", "16"]))
    config = ExtractorConfig(in_channels=16, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=8, score_head=(4,),
                             desc_head=(4,))
    pairs = [(0, 1, 0.5), (1, 0, 0.5)]
    entries, rows = _eval_rpe(samples, pairs, intr, cfg, init_student(config),
                              config, lambda kp_a, kp_b: Assignment.empty())
    report = {(m, t): v for m, t, v in entries}
    assert report[("n_pairs", None)] == report[("n_failed", None)] == 2
    assert [report[("rpe_auc", t)] for t in (5.0, 10.0, 20.0)] == [0.0] * 3
    assert [row[-1] for row in rows] == ["fewer than 8 matches"] * 2


def test_eval_rpe_rows_give_each_pairs_reason(dataset, student_ckpt, monkeypatch):
    # the estimator's outcome per pair: an exact pose, a failed estimate,
    # then a pose for a pair whose ground-truth baseline is zero
    samples, intr, _, _ = eio.load_dataset(dataset)
    exact = relative_pose(samples[0].pose, samples[1].pose)
    outcomes = [exact, EstimationFailed("no model with 8 inliers after 9 iterations"),
                exact]

    def estimate(*args, **kwargs):
        got = outcomes.pop(0)
        if isinstance(got, Exception):
            raise got
        return PoseEstimate(got.rotation, got.translation, np.ones(8, bool), 0.75)

    monkeypatch.setattr(cli, "estimate_essential_ransac", estimate)
    cfg = resolve_config("eval", parse(
        ["eval", "--data", dataset, "--mode", "rpe", "--extractor", student_ckpt,
         "--border", "2", "--nms", "2", "--k", "16"]))
    params, config = load_extractor(student_ckpt)
    eight = Assignment(np.zeros((8, 2), np.int64), np.ones(8))
    entries, rows = _eval_rpe(samples, [(0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)],
                              intr, cfg, params, config, lambda kp_a, kp_b: eight)
    assert [row[:2] + row[4:] for row in rows] == [
        (0, 1, 8, "0.750000", "0.000000", "ok"),
        (1, 0, 8, "nan", "inf", "no model with 8 inliers after 9 iterations"),
        (1, 1, 8, "nan", "inf",
         "translation direction undefined for a zero-norm baseline"),
    ]
    assert dict(((m, t), v) for m, t, v in entries)[("n_failed", None)] == 2


def test_eval_rpe_does_not_swallow_other_estimator_errors(dataset, student_ckpt,
                                                          monkeypatch):
    # only EstimationFailed and a zero baseline are a pair's failure
    def estimate(*args, **kwargs):
        raise ValueError("match arrays must have equal length")

    monkeypatch.setattr(cli, "estimate_essential_ransac", estimate)
    samples, intr, _, _ = eio.load_dataset(dataset)
    cfg = resolve_config("eval", parse(
        ["eval", "--data", dataset, "--mode", "rpe", "--extractor", student_ckpt]))
    params, config = load_extractor(student_ckpt)
    eight = Assignment(np.zeros((8, 2), np.int64), np.ones(8))
    with pytest.raises(ValueError, match="equal length"):
        _eval_rpe(samples, [(0, 1, 0.5)], intr, cfg, params, config,
                  lambda kp_a, kp_b: eight)


@pytest.mark.parametrize("flags, message", [
    (["--ransac-px", "abc"], "could not convert string to float: 'abc'"),
    (["--ransac-px", "-1"], "--ransac-px must be positive and finite, got -1.0"),
    (["--ransac-px", "0"], "--ransac-px must be positive and finite, got 0.0"),
    (["--ransac-px", "nan"], "--ransac-px must be positive and finite, got nan"),
    (["--seed", "x"], "invalid literal for int() with base 10: 'x'"),
    (["--rpe-thresholds", "5,ten"], "could not convert string to float: 'ten'"),
    (["--rpe-thresholds", "0,5"], "--rpe-thresholds must be positive and finite, got 0.0"),
    (["--rpe-thresholds", "5,-1"], "--rpe-thresholds must be positive and finite, got -1.0"),
    (["--rpe-thresholds", "5,inf"], "--rpe-thresholds must be positive and finite, got inf"),
])
def test_eval_rpe_rejects_bad_flags_before_the_first_pair(
        dataset, student_ckpt, tmp_path, monkeypatch, capsys, flags, message):
    # every pair reaches the estimator, which must never be called
    def estimate(*args, **kwargs):
        pytest.fail("the estimator ran before the flags were checked")

    monkeypatch.setattr(cli, "estimate_essential_ransac", estimate)
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
                        "matches", "inlier_ratio", "error_deg", "reason"]
    assert [row[:2] for row in table[1:]] == [["0", "1"], ["1", "0"]]
    report = (out / "report.csv").read_text().splitlines()
    assert report[:3] == ["metric,threshold,value", "n_pairs,,2.000000",
                          f"n_failed,,{sum(r[-1] != 'ok' for r in table[1:])}.000000"]


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
    # sample 1 against itself draws both correct and incorrect matches
    out = tmp_path / "viz"
    rc = main(["viz", "--data", dataset, "--extractor", student_ckpt,
               "--index-a", "1", "--border", "2", "--nms", "2", "--k", "16",
               "--out", str(out)])
    assert rc == 0
    ppm = (out / "viz" / "match_001_001.ppm").read_bytes()
    assert hashlib.sha256(ppm).hexdigest() == (
        "94d1cf232c9dd75ad49d2733cf2398e932094c5ca2f3eba7435682dc6fdf2a39")


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


# -- inputs the pipeline cannot use -------------------------------------------

TINY_STUDENT = ["--channels", "4,4", "--pools", "2,2", "--score-head", "4,4",
                "--desc-head", "4,4", "--epochs", "1"]


@pytest.mark.parametrize("flags, message", [
    (["--desc-dim", "64"], "desc_dim is 64 but the teacher's desc has 128 channels"),
    (["--latent-dim", "64"],
     "latent_dim is 64 but the teacher's feats have 128 channels"),
    (["--channels", "4,4,4,4", "--pools", "1,1,1,2", "--score-head", "4",
      "--desc-head", "4"],
     "stride is 2, giving 8x8 feats for 16x16 inputs, but the teacher's feats "
     "are 4x4"),
])
def test_train_extractor_names_what_the_teacher_cannot_supervise(
        dataset, tmp_path, capsys, flags, message):
    out = tmp_path / "tx"
    rc = main(["train-extractor", "--data", dataset, *TINY_STUDENT, *flags,
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"evimatch train-extractor: error: {message}\n"
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
    (["train-extractor", "--data", "DATA", *TINY_STUDENT, "--lr", "nan"],
     "lr must be positive and finite, got nan"),
    (["train-matcher", "--data", "DATA", "--extractor", "CKPT", *KP_FLAGS,
      "--lr", "nan"], "lr must be positive and finite, got nan"),
])
def test_non_finite_values_fail_by_name(dataset, student_ckpt, tmp_path, capsys,
                                        argv, message):
    paths = {"DATA": dataset, "CKPT": student_ckpt}
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


def test_train_extractor_skips_the_latent_check_without_feats(dataset, tmp_path):
    out = tmp_path / "tx"
    rc = main(["train-extractor", "--data", dataset, *TINY_STUDENT,
               "--latent-dim", "64", "--loss-terms", "score,desc",
               "--out", str(out)])
    assert rc == 0
    assert (out / "student.ckpt").exists()


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
