"""Outputs pinned to recorded values.

Checkpoint bytes (fresh, and an extractor and a matcher after short
training runs, with their loss CSVs and log lines), the analytic teacher's
maps and dataset bytes at the default 64x64 scene, essential-matrix RANSAC
inlier masks and iteration counts, the mutual-nearest matchers' outputs
on inputs with ties, and every output directory of a 32x32 run of each CLI
command were recorded once; any refactor of the code behind them must
reproduce them exactly.
"""

import hashlib
import os

import numpy as np
import pytest

from evimatch import cli, geometry
from evimatch import io as eio
from evimatch.datagen import (generate_benchmark, make_lfd_dataset, make_scene,
                              render)
from evimatch.distillation import (DistillConfig, loss_history_csv,
                                   train_extractor)
from evimatch.extractor import (ExtractorConfig, KeypointSet, analytic_teacher,
                                init_student, save_extractor)
from evimatch.geometry import (CameraIntrinsics, RigidPose,
                               estimate_essential_ransac, rotation_about)
from evimatch.matching import (CORRESPONDENCE_PX, CAConfig, CAMatcherParams,
                               GroundTruthMatches, MatchTrainConfig,
                               ca_assignment, gt_assignment, matcher_history_csv,
                               mnn_match, save_matcher, train_matcher)
from evimatch.optim import save_checkpoint
from test_geometry import chunk_ends, reference_ransac

INTR = CameraIntrinsics(fx=40.0, fy=42.0, cx=31.5, cy=23.5)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def mask_indices(mask):
    return np.flatnonzero(mask).tolist()


# -- checkpoints ------------------------------------------------------------

@pytest.mark.parametrize("config, digest", [
    (ExtractorConfig(in_channels=2, channels=(4, 4), pools=(1, 2), latent_dim=4,
                     desc_dim=8),
     "6406c901d9466b162b1ccfb4b9fe828b79aa42b20721700df9c85ec8818bbbc8"),
    (ExtractorConfig(in_channels=1, channels=(4,), pools=(1,), latent_dim=4,
                     desc_dim=8),
     "49822318cb478206837affa7449fbfb0ed4d61012739a07f625db2559a922457"),
])
def test_extractor_checkpoint_bytes(tmp_path, config, digest):
    path = tmp_path / "student.ckpt"
    save_extractor(path, init_student(config, seed=0), config)
    assert sha256(path) == digest


def test_matcher_checkpoint_bytes(tmp_path):
    config = CAConfig(desc_dim=8, dim=8, layers=1, heads=2, pe_freqs=2,
                      ffn_mult=2, image_size=(32, 24))
    path = tmp_path / "matcher.ckpt"
    save_matcher(path, CAMatcherParams.create(config, seed=0))
    assert sha256(path) == ("bffd91919ea051d8e86b4e6ffb031ca76bb7dff8"
                            "ea2f1ebf63160146a4028c3e")


def tiny_match_examples(n_pairs, n_a, n_b, n_matched, desc_dim, seed):
    """Two-view keypoint sets whose first n_matched keypoints of a reappear,
    shuffled and noisy, in b; the rest of each side is unmatched."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_pairs):
        desc_a = rng.normal(size=(n_a, desc_dim))
        pos_a = rng.uniform(2.0, 30.0, (n_a, 2))
        desc_b = rng.normal(size=(n_b, desc_dim))
        pos_b = rng.uniform(2.0, 30.0, (n_b, 2))
        cols = rng.permutation(n_b)[:n_matched]
        desc_b[cols] = desc_a[:n_matched] + 0.1 * rng.normal(size=(n_matched, desc_dim))
        pos_b[cols] = pos_a[:n_matched] + rng.normal(0.0, 0.5, (n_matched, 2))
        kps = []
        for desc, pos in ((desc_a, pos_a), (desc_b, pos_b)):
            desc = desc / np.linalg.norm(desc, axis=1, keepdims=True)
            kps.append(KeypointSet(pos, desc.astype(np.float32),
                                   np.ones(len(pos), np.float32)))
        gt = GroundTruthMatches(np.stack([np.arange(n_matched), cols], axis=1),
                                np.arange(n_matched, n_a),
                                np.setdiff1d(np.arange(n_b), cols))
        out.append((kps[0], kps[1], gt))
    return out


def test_trained_matcher_checkpoint_bytes(tmp_path):
    config = CAConfig(desc_dim=8, dim=8, layers=1, heads=2, pe_freqs=2,
                      ffn_mult=2, image_size=(32, 24))
    examples = tiny_match_examples(3, n_a=24, n_b=30, n_matched=18,
                                   desc_dim=8, seed=7)
    log = []
    matcher, history = train_matcher(examples, ca_config=config,
                                     config=MatchTrainConfig(lr=3e-3, epochs=2,
                                                             batch_size=2, seed=0),
                                     log=log.append)
    path = tmp_path / "matcher.ckpt"
    save_matcher(path, matcher)
    assert sha256(path) == ("452aa614586964fa13d25d4366cb9c41483b43fa"
                            "bfc60427a55139e3d9e34e0b")
    assert matcher_history_csv(history) == "epoch,loss\n0,6.73042464\n1,5.64935303\n"
    assert log == ["epoch 0 loss=6.730425", "epoch 1 loss=5.649353"]


def test_trained_extractor_checkpoint_bytes(tmp_path):
    # three 32x24 samples at batch size 2: each epoch averages a full and a
    # partial batch, against the default analytic teacher
    scene = make_scene(seed=3, width=32, height=24)
    samples = make_lfd_dataset(scene, 3, delta_t=0.05, seed=3, contrast=0.2,
                               dt_sim=0.01)
    student = ExtractorConfig(in_channels=4, channels=(4, 8), pools=(2, 2),
                              latent_dim=128, desc_dim=128)
    recipe = DistillConfig(lr=3e-3, epochs=2, batch_size=2, seed=0, use_feats=True,
                           use_score=True, use_desc=True)
    log = []
    params, history = train_extractor(samples, recipe, student_config=student,
                                      log=log.append)
    path = tmp_path / "student.ckpt"
    save_extractor(path, params, student)
    assert sha256(path) == ("1e0800b456eb0930c17193157a5dc0f575fe9b03"
                            "5273c16faa5d3f6625665d38")
    # the parameters alone, without the config entries
    save_checkpoint(path, params)
    assert sha256(path) == ("0bacc7d8746a0bc17a5c8f808fc0d7e7ab634f8c"
                            "773a90d64487256ad580842e")
    assert loss_history_csv(history) == (
        "epoch,l_feats,l_score,l_desc,l_total\n"
        "0,0.15127668,0.12132720,0.18824770,0.46085158\n"
        "1,0.10776236,0.08482256,0.14450827,0.33709320\n")
    assert log == [
        "epoch 0 l_feats=0.151277 l_score=0.121327 l_desc=0.188248 l_total=0.460852",
        "epoch 1 l_feats=0.107762 l_score=0.084823 l_desc=0.144508 l_total=0.337093"]


# -- analytic teacher -------------------------------------------------------

def test_analytic_teacher_map_bytes():
    image, _ = render(make_scene(seed=3), 1.3)
    maps = analytic_teacher(image)
    digests = {name: hashlib.sha256(getattr(maps, name).tobytes()).hexdigest()
               for name in ("feats", "score", "desc")}
    assert digests == {
        "feats": "64f35638090cf3b31e9bcb6de48dccab984b40f84c515e71a2b806e85684f7f5",
        "score": "22f606aafb8c0d600f22a36c0f3c31e79f7e8faea6448031241b1944adf74a8c",
        "desc": "e06ec1951e45e4a3e05ce4a13ae8f3e70e50b3b2e1c1bdc2b71ad10b1fb5bc00",
    }


# -- datasets ---------------------------------------------------------------

SYNTH_DIGESTS = {
    "depth/000.f32": "234c1ec31d0d70eaf8286051ea0c5460f4a84764426874b94e394ed30cfbbdd3",
    "events/000.evt": "93202da22b83f3d54fef865ce04139c067926a1cc5d9b3cb516f93df35933794",
    "images/000.pgm": "d4909fe7c1933a3c6ccd4fe5692c6ce61550e262bdef245fa4eee20261faa99c",
    "intrinsics.txt": "d9a199fd208d87c403a49c4deaba711aea6ae0a7f3d97db17d5393cb6a7b769e",
    "poses.txt": "3ebe9bf687cafd2121569df894724a3061ae04093448df622e9239e16cf01ca8",
}

BENCH_DIGESTS = {
    # the first pair's events sample falls at the same time as the synth sample
    "depth/000.f32": SYNTH_DIGESTS["depth/000.f32"],
    "depth/001.f32": "420750d742106b9f9226be9816e11ce782e617c7edd1208922b1f4912740ac2a",
    "events/000.evt": SYNTH_DIGESTS["events/000.evt"],
    "events/001.evt": "49f5f4c3b5b3a3c134267cd333affb365f45928fcd2b71aef7297dcd7bac3660",
    "images/000.pgm": SYNTH_DIGESTS["images/000.pgm"],
    "images/001.pgm": "0cf2887686d2b99bcadf6ba15150d35ec5a182336b0d958d4d337af65bb02a4c",
    "intrinsics.txt": SYNTH_DIGESTS["intrinsics.txt"],
    "pairs.txt": "6f7a5cbe263001788157efd0e6382888407524c3e1cab964c803a81a3595fe5b",
    "poses.txt": "7f45c4cd636cf0f6c9a59801ce68d16317f1e2a9c0a37c87c0be5ec0b3cb1478",
}


def dataset_digests(root, samples, scene, pairs=None):
    """The digest of every file the dataset writes under root, by
    relative path."""
    eio.save_dataset(root, samples, scene.intrinsics, scene.width, scene.height)
    if pairs is not None:
        eio.save_pairs(os.path.join(root, "pairs.txt"), pairs)
    return {os.path.relpath(os.path.join(base, name), root).replace(os.sep, "/"):
            sha256(os.path.join(base, name))
            for base, _, names in os.walk(root) for name in names}


def test_synth_dataset_bytes(tmp_path):
    scene = make_scene(seed=1)
    samples = make_lfd_dataset(scene, 1, delta_t=0.05, seed=1, contrast=0.2,
                               dt_sim=1e-3)
    assert dataset_digests(tmp_path, samples, scene) == SYNTH_DIGESTS


def test_benchgen_dataset_bytes(tmp_path):
    scene = make_scene(seed=1)
    bench = generate_benchmark(scene, 1, delta_t=0.05, seed=1, overlap_range=(0.4, 0.8),
                               max_attempts=None, contrast=0.2, dt_sim=1e-3)
    assert dataset_digests(tmp_path, bench.samples, scene,
                           bench.pairs) == BENCH_DIGESTS


# -- the CLI pipeline -------------------------------------------------------

PIPE_SCENE = ["--width", "32", "--height", "32", "--duration", "1.0",
              "--dt-sim", "0.005", "--n-rects", "6"]
PIPE_KP = ["--border", "2", "--nms", "2", "--k", "16"]
PIPE_STUDENT = "student/student.ckpt"
PIPE_MATCHER = "matcher/matcher.ckpt"
PIPELINE = [  # every command once; eval in both modes; the CA matcher keeps
    # every mutual pair (--threshold 0), so the match dumps are not empty
    ["synth", *PIPE_SCENE, "--n", "4", "--out", "synth"],
    ["benchgen", *PIPE_SCENE, "--n-pairs", "2", "--out", "bench"],
    ["train-extractor", "--data", "synth", "--channels", "4,4", "--pools", "2,2",
     "--epochs", "1", "--out", "student"],
    ["train-matcher", "--data", "synth", "--extractor", PIPE_STUDENT, *PIPE_KP,
     "--dim", "8", "--layers", "1", "--heads", "2", "--pe-freqs", "2",
     "--epochs", "1", "--out", "matcher"],
    ["extract", "--data", "bench", "--modality", "events",
     "--extractor", PIPE_STUDENT, *PIPE_KP, "--out", "kp_events"],
    ["extract", "--data", "bench", "--modality", "images", *PIPE_KP,
     "--out", "kp_images"],
    ["match", "--kp-a", "kp_events/keypoints", "--kp-b", "kp_images/keypoints",
     "--pairs-file", "bench/pairs.txt", "--matcher-ckpt", PIPE_MATCHER,
     "--threshold", "0", "--out", "matches"],
    ["eval", "--data", "synth", "--mode", "keypoints", "--extractor", PIPE_STUDENT,
     *PIPE_KP, "--out", "eval_keypoints"],
    ["eval", "--data", "bench", "--mode", "rpe", "--extractor", PIPE_STUDENT,
     "--matcher-ckpt", PIPE_MATCHER, "--threshold", "0", *PIPE_KP,
     "--out", "eval_rpe"],
    ["viz", "--data", "bench", "--extractor", PIPE_STUDENT, "--index-a", "0",
     "--index-b", "1", *PIPE_KP, "--out", "viz"],
]

PIPELINE_DIGESTS = {
    "synth": "323dbfd5f63f98d6906e198cf1fd6e2508e8010901f9bd03034f875d4c31c11b",
    "bench": "6304c3c9a01f0fe05f865ad812b56add3b7123d364146f66b3d1ab42c85d5976",
    "student": "e1b50097fd1c23494286a2e2e0a052759c1a805b2c97f806e714c055ed714adb",
    "matcher": "165a43b25ca9f44aec60db597c87c1414feb9a0db4da51333fb0eafb122773c0",
    "kp_events": "728e1793ffbf654373d58fcc55f48e34440c755959d42a08b97ba537e9c8f761",
    "kp_images": "7d0ce65ca2e08d73a6d77cbbd23c262557470ebe38ae0f35689da787b8002591",
    "matches": "bb2729b74940425862d5a5f81371a170776c8ae4763ee71e715cf7ecaa826daa",
    "eval_keypoints": "d2a928437a63612521be62721b985e61dc3103290cf2e64277a47edb2cbead33",
    "eval_rpe": "821b7cbf6e59518129acddd322ad5387bc4c9aa05427fde143d7a955be838833",
    "viz": "219de4c568043547505a922f66393a991acfad7447239a1c38afbab66f334abe",
}


def test_pipeline_output_bytes(tmp_path, monkeypatch):
    # each output directory's digest covers the sha256 of every file in it,
    # config.txt included (relative paths keep it independent of tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = {}
    for argv in PIPELINE:
        assert cli.main(argv) == 0, argv
        out = argv[-1]
        files = sorted(os.path.relpath(os.path.join(base, name), out)
                       for base, _, names in os.walk(out) for name in names)
        listing = "".join(f"{name} {sha256(os.path.join(out, name))}\n"
                          for name in files)
        digests[out] = hashlib.sha256(listing.encode()).hexdigest()
    assert sorted(os.listdir(tmp_path)) == sorted(PIPELINE_DIGESTS)
    assert digests == PIPELINE_DIGESTS


# -- RANSAC -----------------------------------------------------------------

class CountingRng:
    """A seeded generator that records the uniform doubles of each sample
    it draws, one row of a ``random`` call per sample."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.drawn = []

    def random(self, shape):
        u = self.rng.random(shape)
        self.drawn.extend(u)
        return u


def recorded_draws(monkeypatch, fn):
    """fn() with geometry's generators recording; returns (result, draws)."""
    made = []

    def default_rng(seed):
        made.append(CountingRng(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(geometry.np.random, "default_rng", default_rng)
        result = fn()
    return result, [d for r in made for d in r.drawn]


def two_view_matches(n_in, n_out, seed):
    rng = np.random.default_rng(seed)
    pts = np.stack([rng.uniform(-1.5, 1.5, n_in), rng.uniform(-1.0, 1.0, n_in),
                    rng.uniform(3.0, 6.0, n_in)], axis=1)
    pose = RigidPose(rotation_about([0.2, 1.0, 0.1], 6.0), [0.4, -0.05, 0.1])
    x1, _ = geometry.project_many(pts, INTR)
    x2, _ = geometry.project_many(pose.apply(pts), INTR)
    x2 = x2 + rng.normal(0.0, 0.2, x2.shape)
    out1 = rng.uniform(0.0, 64.0, (n_out, 2))
    out2 = rng.uniform(0.0, 48.0, (n_out, 2))
    order = rng.permutation(n_in + n_out)
    return np.vstack([x1, out1])[order], np.vstack([x2, out2])[order]


@pytest.mark.parametrize("n_in, n_out, max_iters, inliers, iterations", [
    (40, 20, 2000, [0, 1, 4, 5, 6, 8, 9, 10, 11, 13, 14, 16, 17, 18, 20, 23, 24,
                    25, 26, 27, 28, 29, 30, 31, 33, 38, 41, 42, 44, 46, 47, 49,
                    50, 51, 53, 54, 55, 57, 58, 59], 71),
    # low inlier share: runs to the iteration cap
    (12, 40, 300, [2, 3, 6, 11, 17, 22, 24, 25, 27, 28, 31, 32, 33, 37, 38, 40,
                   47, 48, 49], 300),
])
def test_essential_ransac_masks_and_iterations(monkeypatch, n_in, n_out, max_iters,
                                               inliers, iterations):
    p1, p2 = two_view_matches(n_in, n_out, seed=n_in)
    monkeypatch.setattr(geometry, "_MAX_ITERS", max_iters)

    def estimate():
        return estimate_essential_ransac(p1, p2, INTR, INTR, threshold_px=1.0,
                                         seed=3)

    est, draws = recorded_draws(monkeypatch, estimate)
    with monkeypatch.context() as m:
        m.setattr(geometry, "_ransac", reference_ransac)
        ref, ref_draws = recorded_draws(monkeypatch, estimate)
    # chunks draw ahead of the stopping rule, but never past max_iters or
    # the end of the chunk the run stopped in
    assert ref.iterations == len(ref_draws)
    assert [d.tolist() for d in draws[:est.iterations]] == [
        d.tolist() for d in ref_draws]
    if est.iterations == max_iters:
        assert len(draws) == est.iterations
    else:
        stop_chunk_end = min(e for e in chunk_ends(max_iters) if e >= est.iterations)
        assert est.iterations <= len(draws) <= stop_chunk_end
    assert mask_indices(est.inlier_mask) == inliers
    assert est.iterations == iterations
    assert mask_indices(ref.inlier_mask) == inliers
    assert ref.iterations == iterations


# -- mutual nearest neighbours ----------------------------------------------

def keypoints(positions=None, descriptors=None):
    """A KeypointSet holding exactly the given float64 positions or
    descriptors; the constructor would round descriptors to float32, and
    these outputs were pinned on the float64 values."""
    k = len(positions if positions is not None else descriptors)
    kp = KeypointSet(np.zeros((k, 2)) if positions is None else positions,
                     np.zeros((k, 1)), np.zeros(k))
    if descriptors is not None:
        kp.descriptors = descriptors
    return kp


def test_mnn_match_ties():
    # b holds a duplicated row, so a's best column ties between 1 and 3
    da = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                   [0.6, 0.8, 0.0]])
    db = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8],
                   [1.0, 0.0, 0.0]])
    out = mnn_match(keypoints(descriptors=da), keypoints(descriptors=db))
    assert out.matches.tolist() == [[0, 1], [2, 0]]
    np.testing.assert_allclose(out.scores, [0.1519190767201205, 0.18609074776705928],
                               rtol=1e-12)


def test_ca_assignment_ties_and_threshold():
    xa = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    xb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sa = np.array([0.9, 0.5, 1.0])
    sb = np.array([0.8, 0.8, 0.3])
    e = np.exp(4.0 * (xa @ xb.T))
    p = np.outer(sa, sb) * (e / e.sum(axis=0)) * (e / e.sum(axis=1, keepdims=True))
    out = ca_assignment(p, threshold=0.1)
    # (0, 0) wins the tie with column 1; the mutual pair (1, 2) scores 0.0986
    assert out.matches.tolist() == [[0, 0]]
    np.testing.assert_allclose(out.scores, [0.292353342526269], rtol=1e-12)


def test_gt_assignment_ties_and_strict_bound():
    # identity motion: costs are plain squared pixel distances
    pa = np.array([[10.0, 10.0], [20.0, 20.0], [30.0, 10.0], [40.0, 30.0]])
    pb = np.array([[9.0, 10.0], [11.0, 10.0], [23.0, 20.0], [30.0, 10.0],
                   [30.0, 10.0], [41.0, 31.0]])
    depth = np.full((48, 64), 4.0)
    pose = RigidPose(np.eye(3), np.zeros(3))
    gt = gt_assignment(keypoints(pa), keypoints(pb), depth, depth, INTR, INTR,
                       pose, pose)
    # a[1] sits exactly CORRESPONDENCE_PX from its nearest b: the bound is strict
    assert CORRESPONDENCE_PX == 3.0
    assert gt.matches.tolist() == [[0, 0], [2, 3], [3, 5]]
    assert gt.unmatched_a.tolist() == [1]
    assert gt.unmatched_b.tolist() == [1, 2, 4]
