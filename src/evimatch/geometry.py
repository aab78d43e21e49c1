"""Camera geometry: pinhole projection, rigid poses, two-view estimation.

Poses are world-to-camera maps, x_cam = R @ x_world + t.  The relative pose
between views a and b is the map taking a-frame camera coordinates into the
b frame.  Essential-matrix estimation uses the normalized 8-point algorithm
inside a plain RANSAC loop with a seeded generator.  The loop draws and fits
its samples in chunks, one batched 8-point call per chunk, then scores the
models in draw order under the adaptive stopping rule, so masks, iteration
counts and poses are exactly those of a one-sample-at-a-time loop; an early
stop leaves the rest of the chunk's draws unscored.  The 8-point fit, its
Hartley normalization and the Sampson distance take leading batch axes.
Translation directions recovered from an essential matrix are unit vectors,
so translation error is angular.  The package's one bilinear sampler lives
here too, so that scene synthesis, keypoint extraction and match
supervision share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EstimationFailed(RuntimeError):
    """Raised when a model cannot be estimated from the given matches."""


class DegenerateGeometry(EstimationFailed):
    """Raised when the correspondences do not pin down a unique model,
    e.g. pure rotation or a coplanar scene for the essential matrix."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass
class RigidPose:
    """World-to-camera rigid transform."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ValueError("rotation and translation must be finite")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > 1e-9 or np.linalg.det(self.rotation) < 0:
            raise ValueError("rotation must be orthonormal with determinant +1")

    def inverse(self):
        return RigidPose(self.rotation.T, -self.rotation.T @ self.translation)

    def apply(self, points):
        """Map world points (3,) or (N,3) into the camera frame."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


def relative_pose(pose_a: RigidPose, pose_b: RigidPose) -> RigidPose:
    """The rigid map from a-frame camera coordinates to the b frame."""
    r = pose_b.rotation @ pose_a.rotation.T
    t = pose_b.translation - r @ pose_a.translation
    return RigidPose(r, t)


def quat_to_rotmat(q):
    """Unit quaternion (qx, qy, qz, qw), scalar last, to a rotation matrix."""
    x, y, z, w = q = np.asarray(q, dtype=np.float64)
    if not np.isfinite(q).all():
        raise ValueError(f"quaternion must be finite, got {q.tolist()}")
    n = np.sqrt(x * x + y * y + z * z + w * w)
    if n < 1e-12:
        raise ValueError("zero quaternion")
    x, y, z, w = x / n, y / n, z / n, w / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def rotmat_to_quat(r):
    """Rotation matrix to unit quaternion (qx, qy, qz, qw), qw >= 0."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        w = 0.25 * s
        x = (r[2, 1] - r[1, 2]) / s
        y = (r[0, 2] - r[2, 0]) / s
        z = (r[1, 0] - r[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2
        vals = np.empty(3)
        vals[i] = 0.25 * s
        vals[j] = (r[j, i] + r[i, j]) / s
        vals[k] = (r[k, i] + r[i, k]) / s
        w = (r[k, j] - r[j, k]) / s
        x, y, z = vals
    q = np.array([x, y, z, w])
    if q[3] < 0:
        q = -q
    return q / np.linalg.norm(q)


def rotation_about(axis, degrees):
    """Rotation matrix about a unit axis by an angle in degrees."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    th = np.radians(degrees)
    k = skew(a)
    return np.eye(3) + np.sin(th) * k + (1 - np.cos(th)) * (k @ k)


def skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


# -- projection ---------------------------------------------------------

def project_many(points, intr: CameraIntrinsics):
    """Vectorized projection: (N,3) -> ((N,2) pixels, (N,) validity)."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    valid = p[:, 2] > 0
    z = np.where(valid, p[:, 2], 1.0)
    px = np.stack([intr.fx * p[:, 0] / z + intr.cx,
                   intr.fy * p[:, 1] / z + intr.cy], axis=1)
    px[~valid] = np.nan
    return px, valid


def unproject_many(pixels, depths, intr: CameraIntrinsics):
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    return np.stack([(px[:, 0] - intr.cx) / intr.fx * d,
                     (px[:, 1] - intr.cy) / intr.fy * d,
                     d], axis=1)


def _bilinear(m, x, y):
    """Bilinearly sample the trailing (H, W) axes of m at pixels (x, y).

    x and y broadcast to one shape S of any rank; the result has shape
    m.shape[:-2] + S.  Coordinates are clamped to the map, so a point on or
    beyond the border takes the nearest edge value, and a map one pixel
    wide or high is constant along that axis.
    """
    h, w = m.shape[-2:]
    return _blend(m.reshape(m.shape[:-2] + (h * w,)), *_bilinear_taps(h, w, x, y))


def _bilinear_taps(h, w, x, y):
    """The flat indices into h * w of the four corners ``_bilinear`` reads
    from an (h, w) map, and the weights ``_blend`` gives them."""
    px = np.clip(x, 0.0, w - 1.0)
    py = np.clip(y, 0.0, h - 1.0)
    # truncation is floor on clamped coordinates; the last pixel row and
    # column fall in the cell before them, at weight 1 on its far corner
    x0 = np.minimum(px.astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(py.astype(np.int64), max(h - 2, 0))
    fx = px - x0
    fy = py - y0
    k = y0 * w + x0
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0
    return (k, k + dx, k + dy, k + dy + dx), (1 - fx, fx, 1 - fy, fy)


def _blend(g, taps, weights):
    """Blend the corners at flat indices ``taps`` on the last axis of g."""
    # one flat index per corner: cheaper than four 2-D fancy indexes; a
    # map without leading axes is indexed bare, since an ellipsis doubles
    # the time of its gathers in render's solver loop
    lead = (Ellipsis,) * (g.ndim > 1)
    g0, g1, g2, g3 = (g[lead + (t,)] for t in taps)
    ex, fx, ey, fy = weights
    return g0 * ex * ey + g1 * fx * ey + g2 * ex * fy + g3 * fx * fy


def reproject_many(pixels, depths, intr_src, intr_dst, rel: RigidPose):
    pts = rel.apply(unproject_many(pixels, depths, intr_src))
    px, valid = project_many(pts, intr_dst)
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    valid &= d > 0
    return px, valid


# -- two-view estimation ------------------------------------------------

@dataclass
class PoseEstimate:
    """Relative pose recovered from matches, plus the RANSAC support."""

    rotation: np.ndarray
    translation: np.ndarray  # unit direction
    inlier_mask: np.ndarray
    inlier_ratio: float
    iterations: int = field(default=0, compare=False)


def _eight_point(x1, x2):
    """Normalized 8-point fit over leading batch axes.

    x1, x2 are (..., N, 3) homogeneous points.  Returns the (..., 3, 3)
    unit-norm essential matrices, projected to two equal singular values,
    and the (..., min(N, 9)) singular values of the design matrices.
    """
    # x2^T E x1 = 0 solved on Hartley-conditioned coordinates; even in
    # camera-normalized units the constant column dominates the Kronecker
    # system, and the raw least-squares fit is visibly biased already at
    # sub-pixel noise
    t1 = _hartley_normalization(x1[..., :2])
    t2 = _hartley_normalization(x2[..., :2])
    n1 = x1 @ np.swapaxes(t1, -1, -2)
    n2 = x2 @ np.swapaxes(t2, -1, -2)
    a = np.stack([
        n2[..., 0] * n1[..., 0], n2[..., 0] * n1[..., 1], n2[..., 0],
        n2[..., 1] * n1[..., 0], n2[..., 1] * n1[..., 1], n2[..., 1],
        n1[..., 0], n1[..., 1], np.ones(n1.shape[:-1]),
    ], axis=-1)
    _, s, vt = np.linalg.svd(a)
    # denormalize before projecting: the equal-singular-value structure of
    # an essential matrix only holds in the calibrated frame
    e = np.swapaxes(t2, -1, -2) @ vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3)) @ t1
    u, sv, vt2 = np.linalg.svd(e)
    m = (sv[..., 0] + sv[..., 1]) / 2.0
    diag = np.zeros(e.shape)
    diag[..., 0, 0] = diag[..., 1, 1] = m
    e = u @ diag @ vt2
    # the norm as a per-matrix dot product, the reduction np.linalg.norm
    # uses, so a batched fit equals the fits made one at a time
    f = e.reshape(e.shape[:-2] + (1, 9))
    return e / np.sqrt(f @ np.swapaxes(f, -1, -2)), s


def _sampson_sq(e, x1, x2):
    """Squared Sampson distances (..., N) of (N, 3) matches to each (..., 3, 3) E."""
    ex1 = x1 @ np.swapaxes(e, -1, -2)
    etx2 = x2 @ e
    num = np.einsum("ij,...ij->...i", x2, ex1) ** 2
    den = ex1[..., 0] ** 2 + ex1[..., 1] ** 2 + etx2[..., 0] ** 2 + etx2[..., 1] ** 2
    den = np.maximum(den, 1e-18)
    return num / den


def _triangulate(r, t, x1, x2):
    """Linear triangulation; returns per-point depths in both views."""
    n = min(len(x1), 50)  # the first 50 matches decide the cheirality vote
    p2 = np.hstack([r, t.reshape(3, 1)])
    a = np.stack([
        x1[:n, 0, None] * np.array([0, 0, 1, 0.0]) - np.array([1, 0, 0, 0.0]),
        x1[:n, 1, None] * np.array([0, 0, 1, 0.0]) - np.array([0, 1, 0, 0.0]),
        x2[:n, 0, None] * p2[2] - p2[0],
        x2[:n, 1, None] * p2[2] - p2[1],
    ], axis=1)
    _, _, vt = np.linalg.svd(a)
    xh = vt[:, -1]
    at_infinity = np.abs(xh[:, 3]) < 1e-12
    pw = xh[:, :3] / np.where(at_infinity, 1.0, xh[:, 3])[:, None]
    d1 = np.where(at_infinity, -1.0, pw[:, 2])
    d2 = np.where(at_infinity, -1.0, (r @ pw[:, :, None])[:, 2, 0] + t[2])
    return d1, d2


# samples drawn and fitted per batch in _ransac
_CHUNK = 256
# probability that RANSAC's iteration budget includes one all-inlier sample
_CONFIDENCE = 0.999
# hypotheses RANSAC scores at most
_MAX_ITERS = 2000


def _ransac_iters_needed(inlier_ratio, sample_size):
    w = min(max(inlier_ratio, 1e-9), 1.0 - 1e-12)
    denom = np.log1p(-(w ** sample_size))
    if denom >= 0:
        return 1
    return int(np.ceil(np.log(1.0 - _CONFIDENCE) / denom))


def _matched_points(pts1, pts2, sample_size):
    """Matched pixels as two (N, 2) arrays, N at least one RANSAC sample."""
    pts1 = np.asarray(pts1, dtype=np.float64).reshape(-1, 2)
    pts2 = np.asarray(pts2, dtype=np.float64).reshape(-1, 2)
    if len(pts2) != len(pts1):
        raise ValueError("match arrays must have equal length")
    if len(pts1) < sample_size:
        raise EstimationFailed(
            f"need at least {sample_size} matches, got {len(pts1)}")
    return pts1, pts2


def _ransac(n, sample_size, fit, residual_sq, thr_sq, max_iters, seed):
    """Uniform-sampling RANSAC with the adaptive stopping rule.

    Each iteration draws ``sample_size`` of the ``n`` matches without
    replacement and fits a model to them.  A model's inliers are the
    matches with ``residual_sq(model) <= thr_sq``; a strictly larger
    inlier set replaces the best one and tightens the iteration budget to
    what ``_CONFIDENCE`` requires.  Returns (best inlier mask, iterations).

    Samples are drawn and fitted in chunks of up to ``_CHUNK``: ``fit``
    maps a (k, sample_size) index array to k models in one batched call.
    The models are then scored one at a time in draw order, so the
    iteration count and the best mask are those of drawing, fitting and
    scoring one sample at a time, and models past the stop are never
    scored.  A chunk is never larger than the budget left when it is drawn,
    so a run that ends at ``max_iters`` draws exactly ``max_iters`` samples;
    a run that stops early may have drawn up to ``_CHUNK - 1`` samples past
    its last iteration, which nothing reads.
    """
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        k = min(_CHUNK, min(needed, max_iters) - it)
        idx = np.stack([rng.choice(n, size=sample_size, replace=False)
                        for _ in range(k)])
        for model in fit(idx):
            it += 1
            mask = residual_sq(model) <= thr_sq
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask
                needed = _ransac_iters_needed(count / n, sample_size)
            if it >= min(needed, max_iters):
                break
    if best_mask is None or best_count < sample_size:
        raise EstimationFailed(
            f"no model with {sample_size} inliers after {it} iterations")
    return best_mask, it


def estimate_essential_ransac(pts1, pts2, intr1: CameraIntrinsics,
                              intr2: CameraIntrinsics, threshold_px: float = 1.0,
                              seed: int = 0) -> PoseEstimate:
    """Recover the relative pose (view 1 to view 2) from pixel matches.

    Normalized 8-point algorithm inside a uniform-sampling RANSAC loop.
    The inlier test is the Sampson distance in focal-normalized coordinates
    against threshold_px / f_avg, f_avg the mean of the four focal lengths.
    The final model is refit on the best inlier set, checked for a unique
    null space (a near-rank-deficient system means pure rotation or a
    coplanar scene and raises DegenerateGeometry), and decomposed with the
    cheirality check.  Deterministic for a fixed seed.

    Samples are drawn and fitted a chunk at a time and scored one at a
    time in draw order (see ``_ransac``), with the same result as the
    one-sample loop.  ``iterations`` counts the hypotheses the adaptive
    stopping rule scored, at most ``_MAX_ITERS``, not the samples drawn: an
    early stop may leave up to ``_CHUNK - 1`` drawn samples unscored.  A
    threshold_px that is not positive and finite raises ValueError.
    """
    if not 0 < threshold_px < np.inf:
        raise ValueError(f"threshold_px must be positive and finite, got {threshold_px}")
    pts1, pts2 = _matched_points(pts1, pts2, 8)
    x1 = unproject_many(pts1, np.ones(len(pts1)), intr1)
    x2 = unproject_many(pts2, np.ones(len(pts2)), intr2)
    f_avg = (intr1.fx + intr1.fy + intr2.fx + intr2.fy) / 4.0
    thr_sq = (threshold_px / f_avg) ** 2

    best_mask, it = _ransac(
        len(pts1), 8, lambda idx: _eight_point(x1[idx], x2[idx])[0],
        lambda e: _sampson_sq(e, x1, x2), thr_sq, _MAX_ITERS, seed)

    e, sv = _eight_point(x1[best_mask], x2[best_mask])
    # a unique solution needs the 8th singular value well above noise level;
    # identity motion or a flat scene leaves a multi-dimensional null space
    if sv[7] / sv[0] < 1e-8:
        raise DegenerateGeometry(
            "the matches do not determine a unique epipolar geometry")
    final_mask = _sampson_sq(e, x1, x2) <= thr_sq
    if int(final_mask.sum()) < 8:
        final_mask = best_mask

    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = u[:, 2]
    best_pose = None
    best_good = -1
    xi1 = x1[final_mask]
    xi2 = x2[final_mask]
    for r_cand in (u @ w @ vt, u @ w.T @ vt):
        for t_cand in (t, -t):
            d1, d2 = _triangulate(r_cand, t_cand, xi1, xi2)
            good = int(((d1 > 0) & (d2 > 0)).sum())
            if good > best_good:
                best_good = good
                best_pose = (r_cand, t_cand)
    if best_good <= 0:
        raise EstimationFailed("cheirality check rejected every decomposition")
    r, t = best_pose
    t = t / np.linalg.norm(t)
    return PoseEstimate(r, t, final_mask, float(final_mask.mean()), iterations=it)


def _hartley_normalization(pts):
    """Similarities (..., 3, 3) moving each (..., N, 2) point set to zero
    mean and sqrt(2) mean norm; the identity where all points coincide."""
    c = pts.mean(axis=-2)
    d = np.sqrt(((pts - c[..., None, :]) ** 2).sum(axis=-1)).mean(axis=-1)
    coincide = d < 1e-12
    s = np.sqrt(2.0) / np.where(coincide, 1.0, d)
    t = np.zeros(d.shape + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = s
    t[..., 0, 2] = -s * c[..., 0]
    t[..., 1, 2] = -s * c[..., 1]
    t[..., 2, 2] = 1.0
    t[coincide] = np.eye(3)
    return t


def pose_angular_errors(estimate: PoseEstimate, gt: RigidPose):
    """Angular rotation and translation errors in degrees.

    The rotation error is the geodesic angle between estimate and ground
    truth.  The translation error compares directions only and absorbs the
    sign (an essential matrix cannot tell t from -t), so it lies in
    [0, 90].  Either translation having (near-)zero norm is an error: the
    direction is undefined then.
    """
    r, t = estimate.rotation, estimate.translation
    cos_r = (np.trace(r.T @ gt.rotation) - 1.0) / 2.0
    r_err = np.degrees(np.arccos(np.clip(cos_r, -1.0, 1.0)))
    tn = np.linalg.norm(t)
    gn = np.linalg.norm(gt.translation)
    if tn < 1e-12 or gn < 1e-12:
        raise ValueError("translation direction undefined for a zero-norm baseline")
    cos_t = abs(float(t @ gt.translation) / (tn * gn))
    t_err = np.degrees(np.arccos(np.clip(cos_t, 0.0, 1.0)))
    return float(r_err), float(t_err)

