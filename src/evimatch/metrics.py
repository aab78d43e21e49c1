"""Evaluation metrics for cross-modal detection, matching and estimation.

``score_pair`` scores one view pair and holds the pose-failure policy.  Its
keypoint metrics (repeatability, descriptor distances, matching accuracy)
read the pair's ``GroundTruthMatches``, the reprojection ground truth of
``matching.gt_assignment``: two keypoints correspond iff they form one of
its rows, and its partition gives each set's size.  Each is None where it
is undefined.  The estimation metrics aggregate per-pair errors into a
threshold ratio and the area under the truncated recall curve; failed
estimations enter as +inf so a crash-free evaluation can still report
every pair.
"""

from __future__ import annotations

import numpy as np

from .geometry import (EstimationFailed, baseline_norm, estimate_essential_ransac,
                       pose_angular_errors)
from .matching import GroundTruthMatches

# one pair's pairs.csv columns after its two sample indices, in order
PAIR_COLUMNS = ("keypoints_a", "keypoints_b", "gt_pairs", "matches", "correct",
                "inlier_ratio", "rotation_deg", "translation_deg", "reason")
# pose error thresholds in degrees, as in the SuperGlue protocol
RPE_THRESHOLDS = (5.0, 10.0, 20.0)


def _set_sizes(gt: GroundTruthMatches):
    """(|A|, |B|): every index is either matched or unmatched, once."""
    return (len(gt.matches) + len(gt.unmatched_a),
            len(gt.matches) + len(gt.unmatched_b))


def repeatability(gt: GroundTruthMatches):
    """Fraction of keypoints that have a ground-truth partner in the other
    view; None with no keypoints at all."""
    na, nb = _set_sizes(gt)
    return 2.0 * len(gt.matches) / (na + nb) if na + nb else None


def vdd_vda(gt: GroundTruthMatches, kp_a, kp_b):
    """Descriptor distance (L2) and angle (degrees) over the ground-truth
    pairs.

    Both are means over the pair set; with no pairs the statistics do not
    exist, and both are None, not a zero.
    """
    if len(gt.matches) == 0:
        return None, None
    da = kp_a.descriptors[gt.matches[:, 0]].astype(np.float64)
    db = kp_b.descriptors[gt.matches[:, 1]].astype(np.float64)
    vdd = float(np.sqrt(((da - db) ** 2).sum(axis=1)).mean())
    dots = np.clip((da * db).sum(axis=1), -1.0, 1.0)
    vda = float(np.degrees(np.arccos(dots)).mean())
    return vdd, vda


def correct_matches(matches, gt: GroundTruthMatches):
    """Per (M, 2) match row, whether it is a row of gt.matches."""
    return (matches[:, None, :] == gt.matches[None, :, :]).all(axis=2).any(axis=1)


def _pose_columns(pts_a, pts_b, rel_pose, intr, ransac_px, seed):
    """The inlier ratio, rotation and translation errors in degrees and "ok"
    of the pose RANSAC estimates; or nan, inf, inf and why the pose failed.
    A zero ground-truth baseline fails before the estimator runs, then
    fewer than 8 matches, then EstimationFailed; any other error
    propagates."""
    failed = np.nan, np.inf, np.inf
    try:
        baseline_norm(rel_pose.translation)
    except ValueError as e:
        return *failed, str(e)
    if len(pts_a) < 8:
        return *failed, "fewer than 8 matches"
    try:
        est = estimate_essential_ransac(pts_a, pts_b, intr, intr,
                                        threshold_px=ransac_px, seed=seed)
    except EstimationFailed as e:
        return *failed, str(e)
    return est.inlier_ratio, *pose_angular_errors(est, rel_pose), "ok"


def score_pair(kp_a, kp_b, gt: GroundTruthMatches, assignment, rel_pose, intr,
               ransac_px, seed):
    """One view pair's scores by name: the ``PAIR_COLUMNS`` values, then
    repeatability, vdd, vda, mma and mr, each None where it is undefined
    (mr is 0 when either set is empty).  The pose is RANSAC's from the
    matched positions, in views with intrinsics intr, against rel_pose."""
    matches = assignment.matches
    correct = correct_matches(matches, gt)
    pose = _pose_columns(kp_a.positions[matches[:, 0]], kp_b.positions[matches[:, 1]],
                         rel_pose, intr, ransac_px, seed)
    vdd, vda = vdd_vda(gt, kp_a, kp_b)
    denom = min(_set_sizes(gt))
    return dict(zip(PAIR_COLUMNS, (len(kp_a), len(kp_b), len(gt.matches), len(matches),
                                   int(correct.sum()), *pose)),
                repeatability=repeatability(gt), vdd=vdd, vda=vda,
                mma=float(correct.mean()) if len(matches) else None,
                mr=len(matches) / denom if denom else 0.0)


# -- error aggregation ----------------------------------------------------

def _errors(errors, threshold):
    """errors as one float64 row, once it and the threshold are usable."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if len(e) == 0:
        raise ValueError("no errors to aggregate")
    if not 0 < threshold < np.inf:  # False for NaN as well
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    return e


def rpe_ratio(errors, threshold: float) -> float:
    """Fraction of pairs whose error is within the threshold.

    Non-finite errors (failed estimations) count in the denominator only.
    """
    e = _errors(errors, threshold)
    return float((np.isfinite(e) & (e <= threshold)).sum() / len(e))


def rpe_auc(errors, threshold: float) -> float:
    """Area under the truncated recall curve, normalized to [0, 1].

    The recall curve steps through the sorted finite errors with recall
    (i+1)/N against the full pair count N; the curve is truncated at the
    threshold (holding the last recall) and integrated by the trapezoid
    rule, then divided by the threshold.  When every error is non-finite
    the recall curve is zero throughout, so the area is 0.
    """
    e = _errors(errors, threshold)
    finite = np.sort(e[np.isfinite(e)])
    if len(finite) == 0:
        return 0.0
    recall = np.arange(1, len(finite) + 1, dtype=np.float64) / len(e)
    cut = int(np.searchsorted(finite, threshold, side="left"))
    xs = np.concatenate([[0.0], finite[:cut], [threshold]])
    ys = np.concatenate([[0.0], recall[:cut], [recall[cut - 1] if cut else 0.0]])
    return float(np.trapezoid(ys, xs) / threshold)


# -- reports ----------------------------------------------------------------

def _fmt(value):
    return f"{float(value):.6f}"  # nan, inf and -inf print as such


def report_text(entries) -> str:
    """key=value report; thresholded metrics render as name@threshold."""
    lines = []
    for metric, threshold, value in entries:
        key = metric if threshold is None else f"{metric}@{threshold:g}"
        lines.append(f"{key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def report_csv(entries) -> str:
    """CSV report with one metric,threshold,value row per entry."""
    lines = ["metric,threshold,value"]
    for metric, threshold, value in entries:
        thr = "" if threshold is None else f"{threshold:g}"
        lines.append(f"{metric},{thr},{_fmt(value)}")
    return "\n".join(lines) + "\n"
