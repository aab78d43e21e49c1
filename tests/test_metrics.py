"""Keypoint/matching quality measures and pose-error aggregation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimatch import metrics
from evimatch.datagen import make_scene, render
from evimatch.extractor import KeypointSet, analytic_teacher, extract_keypoints
from evimatch.geometry import (CameraIntrinsics, EstimationFailed, RigidPose,
                               project_many, rotation_about)
from evimatch.matching import Assignment, GroundTruthMatches, gt_assignment
from evimatch.metrics import (PAIR_COLUMNS, correct_matches, repeatability,
                              report_csv, report_text, rpe_auc, rpe_ratio,
                              score_pair, vdd_vda)


def kp_at(positions, desc=None):
    pos = np.asarray(positions, np.float64).reshape(-1, 2)
    k = len(pos)
    if desc is None:
        desc = np.eye(max(k, 1), 4, dtype=np.float32)[:k]
        n = np.linalg.norm(desc, axis=1, keepdims=True)
        desc = desc / np.where(n == 0, 1.0, n)
    return KeypointSet(pos, np.asarray(desc, np.float32), np.ones(k, np.float32))


def gt_of(matches, na, nb):
    """The GroundTruthMatches of sets of na and nb keypoints whose pairs
    are the given rows."""
    m = np.asarray(matches, np.int64).reshape(-1, 2)
    return GroundTruthMatches(m, np.setdiff1d(np.arange(na), m[:, 0]),
                              np.setdiff1d(np.arange(nb), m[:, 1]))


def test_repeatability_value_and_errors():
    # one pair out of 2 + 3 keypoints -> 2*1/5; undefined with none at all
    assert repeatability(gt_of([[0, 0]], 2, 3)) == pytest.approx(0.4)
    assert repeatability(gt_of([], 0, 3)) == 0.0
    assert repeatability(gt_of([], 0, 0)) is None


def test_vdd_vda_hand_values():
    da = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    db = np.array([[0.0, 1.0], [0.0, 1.0]], np.float32)
    a = kp_at([[0.0, 0.0], [5.0, 5.0]], da)
    b = kp_at([[0.0, 0.0], [5.0, 5.0]], db)
    vdd, vda = vdd_vda(gt_of([[0, 0], [1, 1]], 2, 2), a, b)
    assert vdd == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-6)
    assert vda == pytest.approx(45.0, rel=1e-6)


def test_vdd_vda_empty_is_none():
    assert vdd_vda(gt_of([], 1, 1), kp_at([[0, 0]]), kp_at([[0, 0]])) == (None, None)


STILL = RigidPose(np.eye(3), np.zeros(3))  # a zero baseline: no pose to estimate
INTR = CameraIntrinsics(fx=50.0, fy=50.0, cx=31.5, cy=31.5)


def score(kp_a, kp_b, gt, matches, rel_pose=STILL):
    return score_pair(kp_a, kp_b, gt, Assignment(matches, np.ones(len(matches))),
                      rel_pose, INTR, 1.0, 0)


def test_mma_mr_values():
    got = score(kp_at(np.zeros((3, 2))), kp_at(np.zeros((4, 2))),
                gt_of([[0, 0], [1, 1]], 3, 4), [[0, 0], [1, 1], [2, 2]])
    assert got["mma"] == pytest.approx(2.0 / 3.0)
    assert got["mr"] == pytest.approx(1.0)
    assert [got[c] for c in PAIR_COLUMNS[:5]] == [3, 4, 2, 3, 2]


def test_correct_matches_is_membership_in_the_ground_truth():
    # a match is correct iff it is a ground-truth row, whatever the pixels
    gt = gt_of([[0, 1], [2, 0]], 3, 3)
    matches = np.array([[0, 1], [1, 1], [2, 2], [2, 0]])
    assert correct_matches(matches, gt).tolist() == [True, False, False, True]
    assert correct_matches(np.zeros((0, 2), np.int64), gt).tolist() == []
    assert correct_matches(matches, gt_of([], 3, 3)).tolist() == [False] * 4


def test_mma_absent_with_no_matches():
    got = score(kp_at([[0, 0]]), kp_at([[0, 0]]), gt_of([[0, 0]], 1, 1),
                np.zeros((0, 2)))
    assert got["mma"] is None and got["mr"] == 0.0 and got["correct"] == 0
    assert got["repeatability"] == 1.0 and got["vdd"] == 0.0


@pytest.mark.parametrize("na, nb, undefined", [
    (0, 0, {"repeatability", "vdd", "vda", "mma"}),  # no keypoints
    (2, 3, {"vdd", "vda", "mma"}),  # no ground-truth pairs
])
def test_score_pair_undefined_metrics_are_none(na, nb, undefined):
    got = score(kp_at(np.zeros((na, 2))), kp_at(np.zeros((nb, 2))),
                gt_of([], na, nb), np.zeros((0, 2)))
    assert {k for k, v in got.items() if v is None} == undefined
    assert got["mr"] == 0.0


def test_pair_columns_are_the_pairs_csv_header():
    assert ("index_a", "index_b", *PAIR_COLUMNS) == (
        "index_a", "index_b", "keypoints_a", "keypoints_b", "gt_pairs", "matches",
        "correct", "inlier_ratio", "rotation_deg", "translation_deg", "reason")


def two_view(n):
    """n noise-free correspondences between two views about 0.5 apart, the
    identity as ground truth; returns kp_a, kp_b, gt and the relative pose."""
    rng = np.random.default_rng(0)
    points = np.stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                       rng.uniform(3, 6, n)], axis=1)
    rel = RigidPose(rotation_about([0, 1, 0], 4.0), [0.5, 0.1, 0.0])
    kp_a, kp_b = (kp_at(project_many(p, INTR)[0]) for p in (points, rel.apply(points)))
    return kp_a, kp_b, gt_of(np.stack([np.arange(n)] * 2, axis=1), n, n), rel


def test_score_pair_estimates_the_pose_of_exact_matches():
    kp_a, kp_b, gt, rel = two_view(12)
    got = score(kp_a, kp_b, gt, gt.matches, rel)
    assert got["reason"] == "ok" and got["inlier_ratio"] == 1.0
    assert got["rotation_deg"] < 1e-4 and got["translation_deg"] < 1e-4
    assert got["correct"] == got["matches"] == 12 and got["mma"] == 1.0


@pytest.mark.parametrize("n, rel_pose, raises, reason", [
    (12, STILL, None, "translation direction undefined for a zero-norm baseline"),
    (7, None, None, "need at least 8 matches, got 7"),
    (12, None, EstimationFailed("no model with 8 inliers after 9 iterations"),
     "no model with 8 inliers after 9 iterations"),
])
def test_score_pair_gives_why_the_pose_failed(monkeypatch, n, rel_pose, raises,
                                              reason):
    # a zero baseline fails before the estimator runs; any other reason is
    # the estimator's EstimationFailed, too few matches included
    real = metrics.estimate_essential_ransac

    def estimate(*args, **kwargs):
        if rel_pose is STILL:
            pytest.fail("the estimator ran")
        if raises is None:
            return real(*args, **kwargs)
        raise raises

    monkeypatch.setattr(metrics, "estimate_essential_ransac", estimate)
    kp_a, kp_b, gt, rel = two_view(12)
    got = score(kp_a, kp_b, gt, gt.matches[:n], rel_pose or rel)
    assert got["reason"] == reason and np.isnan(got["inlier_ratio"])
    assert got["rotation_deg"] == got["translation_deg"] == np.inf


def test_rpe_ratio_counts_failures_in_denominator():
    assert rpe_ratio([1.0, 5.0, np.inf, 20.0], 10.0) == pytest.approx(0.5)


def test_rpe_ratio_validation():
    with pytest.raises(ValueError, match="no errors"):
        rpe_ratio([], 5.0)
    for threshold in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            rpe_ratio([1.0, 3.0, np.inf], threshold)


def test_rpe_auc_frozen_oracle():
    # hand-integrated staircase: errors 2, 8, 15 at threshold 10
    assert rpe_auc([2.0, 8.0, 15.0], 10.0) == pytest.approx(
        0.4666666666666667, abs=1e-12)


def test_rpe_auc_single_error_closed_form():
    # one finite error e < thr: rectangle minus the leading ramp
    for e, thr in ((1.0, 10.0), (4.0, 5.0), (0.5, 2.0)):
        assert rpe_auc([e], thr) == pytest.approx(1.0 - e / (2.0 * thr),
                                                  abs=1e-12)


def test_rpe_auc_all_beyond_threshold_is_zero():
    assert rpe_auc([50.0, 60.0], 10.0) == 0.0


def test_rpe_auc_zero_errors_give_full_area():
    assert rpe_auc([0.0, 0.0], 5.0) == pytest.approx(1.0)


def test_rpe_auc_failures_depress_recall():
    full = rpe_auc([1.0, 2.0], 10.0)
    with_failure = rpe_auc([1.0, 2.0, np.inf], 10.0)
    assert with_failure < full


def test_rpe_auc_all_nonfinite_raises():
    # every pair failed: the recall curve is zero, not missing
    assert rpe_auc([np.inf, np.nan], 10.0) == 0.0
    with pytest.raises(ValueError, match="no errors"):
        rpe_auc([], 10.0)


def test_rpe_auc_validation():
    for threshold in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            rpe_auc([1.0, 3.0, np.inf], threshold)


def test_rpe_auc_bounded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = rng.exponential(5.0, rng.integers(1, 30))
        v = rpe_auc(e, 10.0)
        assert 0.0 <= v <= 1.0
        assert rpe_ratio(e, 10.0) >= v  # AUC can never beat final recall


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                max_size=40),
       st.floats(0.5, 50.0, allow_nan=False))
def test_rpe_auc_permutation_invariant(errors, thr):
    rng = np.random.default_rng(1)
    base = rpe_auc(errors, thr)
    perm = list(np.asarray(errors)[rng.permutation(len(errors))])
    assert rpe_auc(perm, thr) == pytest.approx(base, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                max_size=40))
def test_rpe_auc_extra_failure_never_helps(errors):
    base = rpe_auc(errors, 10.0)
    worse = rpe_auc(list(errors) + [np.inf], 10.0)
    assert worse <= base + 1e-12


def test_report_text_format():
    text = report_text([("rep", None, 0.5), ("rpe_auc", 10.0, 1.0 / 3.0),
                        ("mma", 3.0, np.inf)])
    assert text == "rep=0.500000\nrpe_auc@10=0.333333\nmma@3=inf\n"


def test_report_csv_format():
    text = report_csv([("rep", None, 0.5), ("rpe_auc", 10.0, np.nan)])
    assert text.splitlines() == ["metric,threshold,value", "rep,,0.500000",
                                 "rpe_auc,10,nan"]


# -- ground truth that sees geometry ----------------------------------------

# (t_a, t_b) of four view pairs of the default seed-0 scene with overlap
# scores 0.51-0.78, the range benchgen samples
GATE_TIMES = [(2.5660, 1.1157), (3.2624, 3.6554), (2.4462, 2.9315),
              (3.2726, 0.0608)]


def test_repeatability_drops_under_a_geometric_error():
    # the teacher on both views is the oracle; a wrong pose or focal length
    # for view b must cost it most of its ground-truth pairs
    scene = make_scene(seed=0)
    intr = scene.intrinsics
    views = []
    for t_a, t_b in GATE_TIMES:
        (img_a, depth_a), (img_b, depth_b) = render(scene, t_a), render(scene, t_b)
        kp_a, kp_b = (extract_keypoints(analytic_teacher(img), border=4,
                                        nms_radius=4, k=512)
                      for img in (img_a, img_b))
        views.append((kp_a, kp_b, depth_a, depth_b, scene.trajectory.pose(t_a),
                      scene.trajectory.pose(t_b)))

    def oracle(turn_axis=None, intr_b=intr):
        scores = []
        for kp_a, kp_b, depth_a, depth_b, pose_a, pose_b in views:
            if turn_axis is not None:  # 5 degrees about b's own centre: QR, Qt
                q = rotation_about(turn_axis, 5.0)
                pose_b = RigidPose(q @ pose_b.rotation, q @ pose_b.translation)
            scores.append(repeatability(gt_assignment(
                kp_a, kp_b, depth_a, depth_b, intr, intr_b, pose_a, pose_b)))
        return np.mean(scores)

    true = oracle()
    assert true > 0.5
    assert oracle(turn_axis=[0, 1, 0]) < true / 4
    assert oracle(turn_axis=[1, 0, 0]) < true / 4
    wrong_focal = dataclasses.replace(intr, fx=1.1 * intr.fx, fy=1.1 * intr.fy)
    assert oracle(intr_b=wrong_focal) < true - 0.1
