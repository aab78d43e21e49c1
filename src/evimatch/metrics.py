"""Evaluation metrics for cross-modal detection, matching and estimation.

The keypoint metrics (repeatability, descriptor distances, matching
accuracy) read one ``GroundTruthMatches`` per view pair, the reprojection
ground truth of ``matching.gt_assignment``: two keypoints correspond iff
they form one of its rows, and its partition gives each set's size.  The
estimation metrics aggregate per-pair errors into a threshold ratio and the
area under the truncated recall curve; failed estimations enter as +inf so
a crash-free evaluation can still report every pair.
"""

from __future__ import annotations

import numpy as np

from .matching import Assignment, GroundTruthMatches


def _set_sizes(gt: GroundTruthMatches):
    """(|A|, |B|): every index is either matched or unmatched, once."""
    return (len(gt.matches) + len(gt.unmatched_a),
            len(gt.matches) + len(gt.unmatched_b))


def repeatability(gt: GroundTruthMatches) -> float:
    """Fraction of keypoints that have a ground-truth partner in the other
    view."""
    na, nb = _set_sizes(gt)
    if na + nb == 0:
        raise ValueError("repeatability is undefined with no keypoints at all")
    return 2.0 * len(gt.matches) / (na + nb)


def vdd_vda(gt: GroundTruthMatches, kp_a, kp_b):
    """Descriptor distance (L2) and angle (degrees) over the ground-truth
    pairs.

    Both are means over the pair set; with no pairs the statistics do not
    exist and asking for them is an error, not a zero.
    """
    if len(gt.matches) == 0:
        raise ValueError("descriptor distances are undefined without ground-truth pairs")
    da = kp_a.descriptors[gt.matches[:, 0]].astype(np.float64)
    db = kp_b.descriptors[gt.matches[:, 1]].astype(np.float64)
    vdd = float(np.sqrt(((da - db) ** 2).sum(axis=1)).mean())
    dots = np.clip((da * db).sum(axis=1), -1.0, 1.0)
    vda = float(np.degrees(np.arccos(dots)).mean())
    return vdd, vda


def correct_matches(matches, gt: GroundTruthMatches):
    """Per (M, 2) match row, whether it is a row of gt.matches."""
    return (matches[:, None, :] == gt.matches[None, :, :]).all(axis=2).any(axis=1)


def mma_mr(assignment: Assignment, gt: GroundTruthMatches):
    """Mean matching accuracy and matching ratio of a hard assignment.

    MMA is the fraction of matches that are ground-truth pairs; with zero
    matches it is absent (None), never a fake zero.  MR is the match count
    over min(|A|, |B|), and 0 when either set is empty.
    """
    matches = assignment.matches
    denom = min(_set_sizes(gt))
    mr = float(len(matches)) / denom if denom > 0 else 0.0
    if len(matches) == 0:
        return None, mr
    return float(correct_matches(matches, gt).mean()), mr


# -- error aggregation ----------------------------------------------------

def rpe_ratio(errors, threshold: float) -> float:
    """Fraction of pairs whose error is within the threshold.

    Non-finite errors (failed estimations) count in the denominator only.
    """
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if len(e) == 0:
        raise ValueError("no errors to aggregate")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return float((np.isfinite(e) & (e <= threshold)).sum() / len(e))


def rpe_auc(errors, threshold: float) -> float:
    """Area under the truncated recall curve, normalized to [0, 1].

    The recall curve steps through the sorted finite errors with recall
    (i+1)/N against the full pair count N; the curve is truncated at the
    threshold (holding the last recall) and integrated by the trapezoid
    rule, then divided by the threshold.  When every error is non-finite
    the recall curve is zero throughout, so the area is 0.
    """
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if len(e) == 0:
        raise ValueError("no errors to aggregate")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
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
