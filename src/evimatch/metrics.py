"""Evaluation metrics for cross-modal detection, matching and estimation.

The keypoint metrics (repeatability, descriptor distances, matching
accuracy) compare two keypoint sets extracted at the same time from aligned
views, so a correspondence is plain pixel distance between the sets.  The
estimation metrics aggregate per-pair errors into a threshold ratio and the
area under the truncated recall curve; failed estimations enter as +inf so
a crash-free evaluation can still report every pair.
"""

from __future__ import annotations

import numpy as np

from .extractor import _descriptors, _positions
from .matching import Assignment, _mutual_nearest


def valid_pairs(kp_a, kp_b, eps: float = 3.0) -> np.ndarray:
    """Ground-truth correspondences between two aligned keypoint sets, as
    (V, 2) int64 rows (index_a, index_b).

    A pair is valid iff the two keypoints are mutual nearest neighbors in
    pixel distance and at most eps pixels apart.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    pa = _positions(kp_a)
    pb = _positions(kp_b)
    if len(pa) == 0 or len(pb) == 0:
        return np.zeros((0, 2), np.int64)
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
    rows, cols = _mutual_nearest(d)
    keep = d[rows, cols] <= eps
    return np.stack([rows[keep], cols[keep]], axis=1).astype(np.int64)


def repeatability(kp_a, kp_b, eps: float = 3.0) -> float:
    """Fraction of keypoints that have a valid partner in the other view."""
    na, nb = len(_positions(kp_a)), len(_positions(kp_b))
    if na + nb == 0:
        raise ValueError("repeatability is undefined with no keypoints at all")
    v = valid_pairs(kp_a, kp_b, eps)
    return 2.0 * len(v) / (na + nb)


def vdd_vda(pairs, kp_a, kp_b):
    """Descriptor distance (L2) and angle (degrees) over the (V, 2) index
    rows of valid pairs.

    Both are means over the pair set; with no valid pairs the statistics
    do not exist and asking for them is an error, not a zero.
    """
    if len(pairs) == 0:
        raise ValueError("descriptor distances are undefined without valid pairs")
    da = _descriptors(kp_a)[pairs[:, 0]]
    db = _descriptors(kp_b)[pairs[:, 1]]
    vdd = float(np.sqrt(((da - db) ** 2).sum(axis=1)).mean())
    dots = np.clip((da * db).sum(axis=1), -1.0, 1.0)
    vda = float(np.degrees(np.arccos(dots)).mean())
    return vdd, vda


def correct_matches(matches, kp_a, kp_b, eps: float):
    """Per (M, 2) match row, whether its two keypoints lie at most eps
    pixels apart."""
    pa, pb = _positions(kp_a), _positions(kp_b)
    d = np.sqrt(((pa[matches[:, 0]] - pb[matches[:, 1]]) ** 2).sum(axis=1))
    return d <= eps


def mma_mr(assignment: Assignment, kp_a, kp_b, eps: float = 3.0):
    """Mean matching accuracy and matching ratio of a hard assignment.

    MMA is the fraction of matches whose pixel distance is at most eps;
    with zero matches it is absent (None), never a fake zero.  MR is the
    match count over min(|A|, |B|), and 0 when either set is empty.
    """
    matches = assignment.matches
    denom = min(len(_positions(kp_a)), len(_positions(kp_b)))
    mr = float(len(matches)) / denom if denom > 0 else 0.0
    if len(matches) == 0:
        return None, mr
    return float(correct_matches(matches, kp_a, kp_b, eps).mean()), mr


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
