"""Command-line behavior: config resolution, hashing, determinism, cleanup."""

import csv
import hashlib
import os
import shutil

import numpy as np
import pytest

from evimatch import cli, io as eio
from evimatch.cli import _eval_rpe, build_parser, main, output_dir, resolve_config
from evimatch.extractor import (ExtractorConfig, init_student, load_extractor,
                                save_extractor)
from evimatch.geometry import EstimationFailed, PoseEstimate, relative_pose
from evimatch.matching import Assignment

TINY_SYNTH = ["--width", "16", "--height", "16", "--n", "2",
              "--duration", "1.0", "--dt-sim", "0.005", "--n-rects", "6"]


def parse(argv):
    return build_parser().parse_args(argv)


def tree_bytes(root):
    """Relative path -> file bytes for a whole directory tree."""
    out = {}
    for base, _, names in os.walk(root):
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
    # the estimator's outcome per pair: an exact pose, then the two errors
    # _eval_rpe swallows
    samples, intr, _, _ = eio.load_dataset(dataset)
    outcomes = [relative_pose(samples[0].pose, samples[1].pose),
                EstimationFailed("no model with 8 inliers after 9 iterations"),
                ValueError("match arrays must have equal length")]

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
        (1, 1, 8, "nan", "inf", "match arrays must have equal length"),
    ]
    assert dict(((m, t), v) for m, t, v in entries)[("n_failed", None)] == 2


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


def test_failure_preserves_preexisting_dir(tmp_path):
    out = tmp_path / "mine"
    out.mkdir()
    sentinel = out / "keep.txt"
    sentinel.write_text("precious\n")
    rc = main(["synth", *TINY_SYNTH, "--n", "0", "--out", str(out)])
    assert rc == 1
    assert sentinel.read_text() == "precious\n"
    # partial outputs of the failed run are gone
    assert not (out / "config.txt").exists()


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


def test_unknown_matcher_and_missing_ckpt(dataset, tmp_path, capsys):
    kp_out = str(tmp_path / "kp")
    main(["extract", "--data", dataset, "--modality", "images",
          "--border", "2", "--nms", "2", "--k", "8", "--out", kp_out])
    kp_dir = os.path.join(kp_out, "keypoints")
    rc = main(["match", "--kp-a", kp_dir, "--kp-b", kp_dir,
               "--matcher", "bogus", "--out", str(tmp_path / "m1")])
    assert rc == 1
    assert "unknown matcher 'bogus'" in capsys.readouterr().err
    rc = main(["match", "--kp-a", kp_dir, "--kp-b", kp_dir,
               "--matcher", "ca", "--out", str(tmp_path / "m2")])
    assert rc == 1
    assert "requires --matcher-ckpt" in capsys.readouterr().err


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
