"""Camera geometry: pinhole projection, rigid poses, two-view estimation.

Poses are world-to-camera maps, x_cam = R @ x_world + t.  The relative pose
between views a and b is the map taking a-frame camera coordinates into the
b frame.  Essential-matrix estimation uses the normalized 8-point algorithm
inside a plain RANSAC loop with a seeded generator.  The loop draws its
samples in chunks of growing size, one uniform draw per chunk that Floyd's
algorithm turns into index rows, fits each chunk in one batched minimal
8-point call (null vectors by QR, scored unprojected), scores the models
in stacked Sampson calls and walks their inlier counts in draw order
under the adaptive stopping rule, so masks, iteration counts and poses
are exactly those of a one-sample-at-a-time loop; an early stop leaves
the rest of its chunk's draws unread.  The best inlier set is refit by
SVD, and only that refit is projected to two equal singular values.  The
8-point fits, their Hartley normalization and the Sampson distance take
leading batch axes.
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
    """Destination (pixels, valid, depths) of source pixels at source depths."""
    pts = rel.apply(unproject_many(pixels, depths, intr_src))
    px, valid = project_many(pts, intr_dst)
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    valid &= d > 0
    return px, valid, pts[:, 2]


# -- two-view estimation ------------------------------------------------

@dataclass
class PoseEstimate:
    """Relative pose recovered from matches, plus the RANSAC support."""

    rotation: np.ndarray
    translation: np.ndarray  # unit direction
    inlier_mask: np.ndarray
    inlier_ratio: float
    iterations: int = field(default=0, compare=False)


def _design(x1, x2):
    """The 8-point design matrices of the (..., N, 3) homogeneous matches
    x1, x2 on Hartley-conditioned coordinates: (..., N, 9) rows, one per
    match, and the two (..., 3, 3) conditioning similarities."""
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
    return a, t1, t2


def _denormalized(v, t1, t2):
    """The (..., 3, 3) matrices T2^T V T1 of the (..., 9) null vectors v
    of conditioned systems, in the calibrated frame."""
    return np.swapaxes(t2, -1, -2) @ v.reshape(v.shape[:-1] + (3, 3)) @ t1


def _unit(e):
    """(..., 3, 3) matrices scaled to unit Frobenius norm."""
    # the norm as a per-matrix dot product, the reduction np.linalg.norm
    # uses, so a batched fit equals the fits made one at a time
    f = e.reshape(e.shape[:-2] + (1, 9))
    return e / np.sqrt(f @ np.swapaxes(f, -1, -2))


def _essential(e):
    """The (..., 3, 3) denormalized fits e projected to unit-norm
    essential matrices with two equal singular values."""
    # the equal-singular-value structure of an essential matrix only holds
    # in the calibrated frame, so e is denormalized before this
    u, sv, vt = np.linalg.svd(e)
    m = (sv[..., 0] + sv[..., 1]) / 2.0
    diag = np.zeros(e.shape)
    diag[..., 0, 0] = diag[..., 1, 1] = m
    return _unit(u @ diag @ vt)


def _eight_point(x1, x2):
    """Normalized 8-point least-squares fit over leading batch axes.

    x1, x2 are (..., N, 3) homogeneous points.  Returns the (..., 3, 3)
    unit-norm essential matrices, projected to two equal singular values,
    and the (..., min(N, 9)) singular values of the design matrices.
    """
    a, t1, t2 = _design(x1, x2)
    # an 8-row system's null vector exists only in the full V; with more
    # rows the thin SVD gives the same s and V without the (N, N) U
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[-2] < 9)
    return _essential(_denormalized(vt[..., -1, :], t1, t2)), s


def _minimal_fit(x1, x2):
    """The 8-point fit of (..., 8, 3) minimal samples, (..., 3, 3).

    The null vector of each 8x9 system is the last column of Q in a
    complete QR of its transpose: orthogonal to the system's eight rows,
    and several times cheaper than the SVD ``_eight_point`` needs for
    the singular values of a least-squares refit.  The model is that
    null vector denormalized and scaled to unit norm, not projected to
    two equal singular values: it fits its own eight matches exactly,
    where the projection can move them several pixels off their epipolar
    lines and leave the sample without its own eight inliers.
    """
    a, t1, t2 = _design(x1, x2)
    q, _ = np.linalg.qr(np.swapaxes(a, -1, -2), mode="complete")
    return _unit(_denormalized(q[..., -1], t1, t2))


def _sampson_sq(x1, x2):
    """The squared Sampson distances of the (N, 3) matches x1, x2, as a
    function mapping (..., 3, 3) stacks of at most ``_SLICE`` essential
    matrices to (..., N) distances.

    Its buffers are allocated once, here, and each result is a view of
    them, valid until the next call.  A stack of models gives bitwise the
    distances of each model scored alone.
    """
    n = len(x1)
    ex1_buf = np.empty((_SLICE, n, 3))
    etx2_buf = np.empty((_SLICE, n, 3))
    num_buf = np.empty((_SLICE, n))
    den_buf = np.empty((_SLICE, n))

    def residual_sq(e):
        lead = e.shape[:-2]
        e = e.reshape(-1, 3, 3)
        k = len(e)
        ex1 = np.matmul(x1, np.swapaxes(e, -1, -2), out=ex1_buf[:k])
        etx2 = np.matmul(x2, e, out=etx2_buf[:k])
        # num's buffer holds each square of den until the numerator needs it
        den = np.square(ex1[..., 0], out=den_buf[:k])
        sq = num_buf[:k]
        den += np.square(ex1[..., 1], out=sq)
        den += np.square(etx2[..., 0], out=sq)
        den += np.square(etx2[..., 1], out=sq)
        np.maximum(den, 1e-18, out=den)
        num = np.einsum("ij,...ij->...i", x2, ex1, out=sq)
        np.square(num, out=num)
        return np.divide(num, den, out=num).reshape(lead + (n,))

    return residual_sq


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


# samples drawn and fitted per batch in _ransac: the first batch, doubled
# from one batch to the next up to the largest
_FIRST_CHUNK = 16
_CHUNK = 256
# models scored per stacked Sampson call: one call at 2,000 matches ran
# faster with 16 than with 32 or 64, and no slower at 135 or 845
_SLICE = 16
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


def _scored(models, residual_sq, thr_sq):
    """Each model's inlier mask and count, in order, scored ``_SLICE``
    models at a time; a slice is scored only when its first model is
    asked for."""
    for lo in range(0, len(models), _SLICE):
        masks = residual_sq(models[lo:lo + _SLICE]) <= thr_sq
        yield from zip(masks, np.count_nonzero(masks, axis=1).tolist())


def _draw_samples(rng, n, k, size):
    """k rows of ``size`` distinct indices in [0, n), uniform over subsets.

    One ``rng.random((k, size))`` call feeds Floyd's algorithm (Bentley &
    Floyd, CACM 1987), a column at a time over all rows: column c draws
    v = floor(u * (j + 1)) with j = n - size + c and takes j instead when
    the row already holds v.  Each row consumes exactly ``size`` doubles,
    in order, so k rows equal k one-row draws from the same generator.
    """
    u = rng.random((k, size))
    idx = np.empty((k, size), dtype=np.int64)
    for c in range(size):
        j = n - size + c
        v = (u[:, c] * (j + 1)).astype(np.int64)
        taken = (idx[:, :c] == v[:, None]).any(axis=1)
        idx[:, c] = np.where(taken, j, v)
    return idx


def _ransac(n, sample_size, fit, residual_sq, thr_sq, max_iters, seed):
    """Uniform-sampling RANSAC with the adaptive stopping rule.

    Each iteration draws ``sample_size`` of the ``n`` matches without
    replacement and fits a model to them.  A model's inliers are the
    matches with ``residual_sq(model) <= thr_sq``; a strictly larger
    inlier set replaces the best one and tightens the iteration budget to
    what ``_CONFIDENCE`` requires.  Returns (best inlier mask, iterations).

    Samples are drawn and fitted in chunks: ``_draw_samples`` makes a
    chunk's (k, sample_size) index array from one ``rng.random`` call, k
    rows of ``sample_size`` doubles that each row reads in order, and
    ``fit`` maps it to k models in one batched call.  The first chunk
    holds ``_FIRST_CHUNK`` samples and each next one twice as many, up to
    ``_CHUNK``.  ``residual_sq`` scores stacks of up to ``_SLICE``
    models, and the counts are walked in draw order under the stopping
    rule, so the iteration count and the best mask are those of drawing,
    fitting and scoring one sample at a time.  A chunk is never larger
    than the budget left when it is drawn, so a run that ends at
    ``max_iters`` draws exactly ``max_iters`` samples; a run that stops
    early leaves the rest of its last chunk's draws, which nothing reads,
    and scores models only up to the end of its last slice.
    """
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = max_iters
    it = 0
    chunk = _FIRST_CHUNK
    while it < min(needed, max_iters):
        k = min(chunk, min(needed, max_iters) - it)
        chunk = min(2 * chunk, _CHUNK)
        idx = _draw_samples(rng, n, k, sample_size)
        for mask, count in _scored(fit(idx), residual_sq, thr_sq):
            it += 1
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
    Each sample is 8 distinct matches, drawn by Floyd's algorithm from 8
    uniform doubles of the seeded generator, and its hypothesis is the
    null vector of its 8x9 system, taken from a complete QR, denormalized
    and scaled to unit norm but not projected, so it fits its own sample
    exactly.  The inlier test is the Sampson distance in focal-normalized
    coordinates against threshold_px / f_avg, f_avg the mean of the four
    focal lengths.  The final model is refit by SVD on the best inlier
    set, checked through its singular values for a unique null space (a
    near-rank-deficient system means pure rotation or a coplanar scene
    and raises EstimationFailed), projected to two equal singular
    values (the only projection the estimator makes), and decomposed with
    the cheirality check.  Deterministic for a fixed seed.

    Samples are drawn and fitted a chunk at a time and scored a stack of
    models at a time, with the counts walked in draw order (see
    ``_ransac``), so the result is that of the one-sample loop.
    ``iterations`` counts the hypotheses the adaptive stopping rule
    walked, at most ``_MAX_ITERS``, not the samples drawn: an early stop
    leaves the rest of its chunk unread.  A threshold_px that is not
    positive and finite raises ValueError.
    """
    if not 0 < threshold_px < np.inf:
        raise ValueError(f"threshold_px must be positive and finite, got {threshold_px}")
    pts1, pts2 = _matched_points(pts1, pts2, 8)
    x1 = unproject_many(pts1, np.ones(len(pts1)), intr1)
    x2 = unproject_many(pts2, np.ones(len(pts2)), intr2)
    f_avg = (intr1.fx + intr1.fy + intr2.fx + intr2.fy) / 4.0
    thr_sq = (threshold_px / f_avg) ** 2

    residual_sq = _sampson_sq(x1, x2)
    best_mask, it = _ransac(
        len(pts1), 8, lambda idx: _minimal_fit(x1[idx], x2[idx]),
        residual_sq, thr_sq, _MAX_ITERS, seed)

    e, sv = _eight_point(x1[best_mask], x2[best_mask])
    # a unique solution needs the 8th singular value well above noise level;
    # identity motion or a flat scene leaves a multi-dimensional null space
    if sv[7] / sv[0] < 1e-8:
        raise EstimationFailed(
            "the matches do not determine a unique epipolar geometry")
    final_mask = residual_sq(e) <= thr_sq
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


def baseline_norm(translation) -> float:
    """|translation|; a ValueError when it is (near-)zero, which leaves the
    direction undefined."""
    n = float(np.linalg.norm(translation))
    if n < 1e-12:
        raise ValueError("translation direction undefined for a zero-norm baseline")
    return n


def pose_angular_errors(estimate: PoseEstimate, gt: RigidPose):
    """Angular rotation and translation errors in degrees.

    The rotation error is the geodesic angle between estimate and ground
    truth.  The translation error compares directions only and absorbs the
    sign (an essential matrix cannot tell t from -t), so it lies in
    [0, 90].  Either translation failing ``baseline_norm`` is an error.
    """
    r, t = estimate.rotation, estimate.translation
    cos_r = (np.trace(r.T @ gt.rotation) - 1.0) / 2.0
    r_err = np.degrees(np.arccos(np.clip(cos_r, -1.0, 1.0)))
    tn = baseline_norm(t)
    gn = baseline_norm(gt.translation)
    cos_t = abs(float(t @ gt.translation) / (tn * gn))
    t_err = np.degrees(np.arccos(np.clip(cos_t, 0.0, 1.0)))
    return float(r_err), float(t_err)

