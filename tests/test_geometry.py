"""Poses, quaternions, projection and the robust essential estimator."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evimatch import geometry
from evimatch.geometry import (CameraIntrinsics, DegenerateGeometry,
                               EstimationFailed, PoseEstimate, RigidPose,
                               _CHUNK, _FIRST_CHUNK, _SLICE, _bilinear,
                               _design, _draw_samples, _eight_point,
                               _hartley_normalization, _minimal_fit,
                               _ransac_iters_needed, _sampson_sq, _scored,
                               _triangulate,
                               estimate_essential_ransac, project_many,
                               pose_angular_errors, quat_to_rotmat,
                               relative_pose, reproject_many, rotation_about,
                               rotmat_to_quat, skew, unproject_many)

INTR = CameraIntrinsics(fx=120.0, fy=120.0, cx=63.5, cy=47.5)
IDENTITY = RigidPose(np.eye(3), np.zeros(3))


def random_rotation(rng):
    q = rng.normal(size=4)
    return quat_to_rotmat(q / np.linalg.norm(q))


def test_intrinsics_matrix_and_validation():
    px, ok = project_many([[0.0, 0.0, 2.0], [1.0, -0.5, 2.0]], INTR)
    assert ok.all()
    assert px.tolist() == [[63.5, 47.5], [63.5 + 60.0, 47.5 - 30.0]]
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        RigidPose(np.eye(3) * 1.01, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pose_and_intrinsics_reject_non_finite(bad):
    rot = np.eye(3)
    rot[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        RigidPose(rot, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        RigidPose(np.eye(3), [0.0, bad, 0.0])
    for field in ("fx", "fy", "cx", "cy"):
        values = {"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(**values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quaternion_rejects_non_finite_without_warning(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="quaternion must be finite"):
            quat_to_rotmat([0.0, bad, 0.0, 1.0])


def reference_bilinear(m, x, y):
    """The four-corner formula ``_bilinear`` replaced: a (C, H, W) map
    sampled with one 2-D gather per corner, giving (C,) + x.shape."""
    c, h, w = m.shape
    px = np.clip(np.ravel(x), 0.0, w - 1.0)
    py = np.clip(np.ravel(y), 0.0, h - 1.0)
    x0 = np.minimum(np.floor(px), w - 2 if w > 1 else 0).astype(np.int64)
    y0 = np.minimum(np.floor(py), h - 2 if h > 1 else 0).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = px - x0
    fy = py - y0
    out = (m[:, y0, x0] * (1 - fx) * (1 - fy) + m[:, y0, x1] * fx * (1 - fy)
           + m[:, y1, x0] * (1 - fx) * fy + m[:, y1, x1] * fx * fy)
    return out.reshape((c,) + np.shape(x))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), channels=st.sampled_from([None, 1, 2, 3, 128]),
       h=st.integers(1, 9), w=st.integers(1, 9),
       coords=st.sampled_from([(0,), (1,), (5,), (2, 3)]),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_bilinear_matches_four_corner_reference(data, channels, h, w, coords, dtype):
    # maps one pixel wide or high, whole-pixel, border and out-of-map points,
    # 1-D and 2-D coordinate arrays, and maps with and without channels
    shape = (h, w) if channels is None else (channels, h, w)
    m = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).standard_normal(
        shape).astype(dtype)
    x = data.draw(hnp.arrays(np.float64, coords, elements=st.one_of(
        st.integers(-2, w + 1).map(float), st.floats(-3.0, w + 2.0))))
    y = data.draw(hnp.arrays(np.float64, coords, elements=st.one_of(
        st.integers(-2, h + 1).map(float), st.floats(-3.0, h + 2.0))))
    want = reference_bilinear(m if channels else m[None], x, y)
    got = _bilinear(m, x, y)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want if channels else want[0])
    # the same points, gathered one point at a time
    for i in np.ndindex(coords):
        np.testing.assert_array_equal(got[(...,) + i], _bilinear(m, x[i], y[i]))


def test_pose_rejects_reflection():
    with pytest.raises(ValueError):
        RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_pose_inverse_roundtrip():
    rng = np.random.default_rng(0)
    p = RigidPose(random_rotation(rng), rng.normal(size=3))
    pts = rng.normal(size=(10, 3))
    np.testing.assert_allclose(p.inverse().apply(p.apply(pts)), pts, atol=1e-12)


def test_relative_pose_composition():
    rng = np.random.default_rng(1)
    a = RigidPose(random_rotation(rng), rng.normal(size=3))
    b = RigidPose(random_rotation(rng), rng.normal(size=3))
    rel = relative_pose(a, b)
    pts = rng.normal(size=(6, 3))
    np.testing.assert_allclose(rel.apply(a.apply(pts)), b.apply(pts), atol=1e-12)


def test_relative_pose_identity():
    p = RigidPose(rotation_about([0, 1, 0], 30.0), [1.0, 2.0, 3.0])
    rel = relative_pose(p, p)
    np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(rel.translation, 0.0, atol=1e-12)


def test_quat_roundtrip_many():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = random_rotation(rng)
        q = rotmat_to_quat(r)
        assert q[3] >= 0.0  # scalar-last, positive hemisphere
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(quat_to_rotmat(q), r, atol=1e-10)


def test_rotation_about_quarter_turn():
    r = rotation_about([0.0, 0.0, 1.0], 90.0)
    np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)


def test_essential_epipolar_constraint():
    # the eight-point fit on noise-free points recovers E = [t]x R up to sign
    rng = np.random.default_rng(3)
    rel = RigidPose(rotation_about([0, 1, 0], 12.0), np.array([0.5, 0.1, 0.05]))
    x1 = rng.normal(size=(20, 3))
    x1[:, 2] = np.abs(x1[:, 2]) + 2.0
    x2 = rel.apply(x1)
    h1 = x1 / x1[:, 2:]
    h2 = x2 / x2[:, 2:]
    e, _ = _eight_point(h1, h2)
    residual = np.abs(np.einsum("ni,ij,nj->n", h2, e, h1))
    assert residual.max() < 1e-12
    e_true = skew(rel.translation) @ rel.rotation
    e_true /= np.linalg.norm(e_true)
    assert min(np.abs(e - e_true).max(), np.abs(e + e_true).max()) < 1e-9


def test_project_unproject_roundtrip():
    pt = np.array([[0.3, -0.2, 2.5]])
    px, valid = project_many(pt, INTR)
    assert valid.all()
    np.testing.assert_allclose(unproject_many(px, [2.5], INTR), pt, atol=1e-12)


def test_project_many_matches_scalar():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(8, 3))
    pts[:, 2] = np.abs(pts[:, 2]) + 1.0
    many, valid = project_many(pts, INTR)
    assert valid.all()
    for i, (x, y, z) in enumerate(pts):
        np.testing.assert_allclose(many[i], [INTR.fx * x / z + INTR.cx,
                                             INTR.fy * y / z + INTR.cy], atol=1e-12)


def test_unproject_many_matches_scalar():
    px = np.array([[10.0, 20.0], [63.5, 47.5]])
    d = np.array([1.5, 3.0])
    many = unproject_many(px, d, INTR)
    for i, ((u, v), z) in enumerate(zip(px, d)):
        np.testing.assert_allclose(many[i], [(u - INTR.cx) / INTR.fx * z,
                                             (v - INTR.cy) / INTR.fy * z, z],
                                   atol=1e-12)


def test_reproject_identity_is_noop():
    px = np.array([[30.0, 40.0]])
    out, ok, depth = reproject_many(px, [2.0], INTR, INTR, IDENTITY)
    assert ok.all()
    np.testing.assert_allclose(out, px, atol=1e-12)
    np.testing.assert_allclose(depth, [2.0], atol=1e-12)


def test_reproject_many_flags_behind_camera():
    # 180 degree turn puts every forward point behind the second camera
    rel = RigidPose(rotation_about([0, 1, 0], 180.0), np.zeros(3))
    px, valid, depth = reproject_many(np.array([[10.0, 10.0], [50.0, 40.0]]),
                                      np.array([2.0, 3.0]), INTR, INTR, rel)
    assert not valid.any()
    np.testing.assert_allclose(depth, [-2.0, -3.0], atol=1e-12)


def make_two_view(n=60, angle=10.0, seed=0, baseline=(1.0, 0.0, 0.0)):
    rng = np.random.default_rng(seed)
    world = rng.uniform(-1.0, 1.0, (n, 3))
    world[:, 2] = rng.uniform(3.0, 6.0, n)
    pose_a = IDENTITY
    pose_b = RigidPose(rotation_about([0, 1, 0], angle), np.asarray(baseline, float))
    p1, _ = project_many(pose_a.apply(world), INTR)
    p2, _ = project_many(pose_b.apply(world), INTR)
    return p1, p2, pose_b


def test_essential_ransac_noise_free():
    p1, p2, gt = make_two_view()
    est = estimate_essential_ransac(p1, p2, INTR, INTR, seed=1)
    r_err, t_err = pose_angular_errors(est, gt)
    assert r_err < 1e-4 and t_err < 1e-3
    assert est.inlier_ratio == 1.0


def test_essential_ransac_rejects_outliers():
    p1, p2, gt = make_two_view(n=80, seed=5)
    rng = np.random.default_rng(6)
    bad = rng.choice(80, 20, replace=False)
    p2 = p2.copy()
    p2[bad] += rng.uniform(15.0, 60.0, (20, 2)) * rng.choice([-1, 1], (20, 2))
    est = estimate_essential_ransac(p1, p2, INTR, INTR, seed=2)
    r_err, t_err = pose_angular_errors(est, gt)
    assert r_err < 0.5
    assert (~est.inlier_mask[bad]).mean() >= 0.9  # outliers excluded


def test_essential_ransac_needs_eight():
    with pytest.raises(EstimationFailed):
        estimate_essential_ransac(np.zeros((7, 2)), np.zeros((7, 2)), INTR, INTR)


@pytest.mark.parametrize("threshold", [-1.0, 0.0, np.nan, np.inf])
def test_essential_ransac_rejects_a_threshold_that_is_not_positive(threshold):
    # a squared -1 would pass for +1, and 0 would run every iteration in vain
    p1, p2, _ = make_two_view()
    with pytest.raises(ValueError, match=f"threshold_px must be positive and "
                                         f"finite, got {threshold}"):
        estimate_essential_ransac(p1, p2, INTR, INTR, threshold_px=threshold)


def test_essential_ransac_pure_rotation_degenerate():
    p1, p2, _ = make_two_view(angle=8.0, baseline=(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateGeometry):
        estimate_essential_ransac(p1, p2, INTR, INTR, seed=3)


def test_essential_ransac_deterministic():
    p1, p2, _ = make_two_view(seed=7)
    a = estimate_essential_ransac(p1, p2, INTR, INTR, seed=4)
    b = estimate_essential_ransac(p1, p2, INTR, INTR, seed=4)
    np.testing.assert_array_equal(a.rotation, b.rotation)
    np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)


# -- chunked RANSAC against the one-sample loop ------------------------------

def reference_ransac(n, sample_size, fit, residual_sq, thr_sq, max_iters, seed):
    """``_ransac`` drawing, fitting and scoring one sample per iteration:
    the loop whose masks, iterations and draws the chunked one reproduces."""
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        it += 1
        model = fit(_draw_samples(rng, n, 1, sample_size))[0]
        mask = residual_sq(model) <= thr_sq
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            needed = _ransac_iters_needed(count / n, sample_size)
    if best_mask is None or best_count < sample_size:
        raise EstimationFailed(
            f"no model with {sample_size} inliers after {it} iterations")
    return best_mask, it


def reference_hartley(pts):
    """``_hartley_normalization`` for one (N, 2) point set."""
    c = pts.mean(axis=0)
    d = np.sqrt(((pts - c) ** 2).sum(axis=1)).mean()
    if d < 1e-12:
        return np.eye(3)
    s = np.sqrt(2.0) / d
    return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])


def reference_design(x1, x2):
    """``_design`` for one (N, 3) match set."""
    t1 = reference_hartley(x1[:, :2])
    t2 = reference_hartley(x2[:, :2])
    n1 = x1 @ t1.T
    n2 = x2 @ t2.T
    a = np.stack([
        n2[:, 0] * n1[:, 0], n2[:, 0] * n1[:, 1], n2[:, 0],
        n2[:, 1] * n1[:, 0], n2[:, 1] * n1[:, 1], n2[:, 1],
        n1[:, 0], n1[:, 1], np.ones(len(n1)),
    ], axis=1)
    return a, t1, t2


def reference_essential(v, t1, t2):
    """The projected, unit-norm essential matrix of one null vector v."""
    e = t2.T @ v.reshape(3, 3) @ t1
    u, sv, vt = np.linalg.svd(e)
    m = (sv[0] + sv[1]) / 2.0
    e = u @ np.diag([m, m, 0.0]) @ vt
    return e / np.linalg.norm(e)


def reference_eight_point(x1, x2):
    """``_eight_point`` for one (N, 3) match set."""
    a, t1, t2 = reference_design(x1, x2)
    _, s, vt = np.linalg.svd(a)
    return reference_essential(vt[-1], t1, t2), s


def reference_minimal_fit(x1, x2):
    """``_minimal_fit`` for one (8, 3) sample: the denormalized,
    unit-norm null vector, unprojected."""
    a, t1, t2 = reference_design(x1, x2)
    q, _ = np.linalg.qr(a.T, mode="complete")
    e = t2.T @ q[:, -1].reshape(3, 3) @ t1
    return e / np.linalg.norm(e)


def reference_sampson_sq(e, x1, x2):
    """``_sampson_sq`` for one (3, 3) model."""
    ex1 = x1 @ e.T
    etx2 = x2 @ e
    num = np.einsum("ij,ij->i", x2, ex1) ** 2
    den = ex1[:, 0] ** 2 + ex1[:, 1] ** 2 + etx2[:, 0] ** 2 + etx2[:, 1] ** 2
    return num / np.maximum(den, 1e-18)


def noisy_two_view(n, share, seed, coincide=False):
    """n matches, round(share * n) of them true up to 0.2 px noise and the
    rest uniform in the frame; coincide puts every view-1 point on one pixel."""
    p1, p2, _ = make_two_view(n=n, seed=seed)
    rng = np.random.default_rng(seed)
    p2 = p2 + rng.normal(0.0, 0.2, p2.shape)
    n_out = n - int(round(share * n))
    p2[:n_out] = rng.uniform(0.0, 96.0, (n_out, 2))
    if coincide:
        p1[:] = p1[0]
    return p1, p2


def outcome(fn):
    """The bytes of fn()'s pose estimate, or its failure's type and message."""
    try:
        est = fn()
    except EstimationFailed as e:
        return type(e).__name__, str(e)
    return (est.rotation.tobytes(), est.translation.tobytes(),
            est.inlier_mask.tobytes(), est.inlier_ratio, est.iterations)


def chunk_ends(limit):
    """The iteration counts at which ``_ransac``'s chunks end when no stop
    or cap cuts them short, up to the first at or past limit."""
    ends, size = [_FIRST_CHUNK], _FIRST_CHUNK
    while ends[-1] < limit:
        size = min(2 * size, _CHUNK)
        ends.append(ends[-1] + size)
    return ends


# (n, share, max_iters): an early stop inside the first chunk, one inside a
# later chunk, and a cap that is not a chunk boundary
CHUNK_EDGES = [(20, 1.0, 2000), (200, 0.7, 2000), (100, 0.1, 600)]


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 300), share=st.floats(0.1, 1.0), seed=st.integers(0, 999),
       max_iters=st.integers(1, 600), coincide=st.booleans())
@example(n=20, share=1.0, seed=0, max_iters=2000, coincide=False)
@example(n=200, share=0.7, seed=0, max_iters=2000, coincide=False)
@example(n=100, share=0.1, seed=0, max_iters=600, coincide=False)
@example(n=8, share=1.0, seed=0, max_iters=1, coincide=True)
def test_chunked_ransac_equals_one_sample_loop(n, share, seed, max_iters, coincide):
    p1, p2 = noisy_two_view(n, share, seed, coincide)

    def estimate():
        return estimate_essential_ransac(p1, p2, INTR, INTR, seed=seed)

    with mock.patch.object(geometry, "_MAX_ITERS", max_iters):
        chunked = outcome(estimate)
        with mock.patch.object(geometry, "_ransac", reference_ransac):
            assert outcome(estimate) == chunked

    # a batched QR fit, and each model's score, are bitwise those of the
    # single-sample code
    x1 = unproject_many(p1, np.ones(n), INTR)
    x2 = unproject_many(p2, np.ones(n), INTR)
    idx = _draw_samples(np.random.default_rng(seed), n, 16, 8)
    e = _minimal_fit(x1[idx], x2[idx])
    residual_sq = _sampson_sq(x1, x2)
    for i, sample in enumerate(idx):
        e_i = reference_minimal_fit(x1[sample], x2[sample])
        assert e[i].tobytes() == e_i.tobytes()
        assert (residual_sq(e[i]).tobytes()
                == reference_sampson_sq(e_i, x1, x2).tobytes())
    if coincide:
        assert (_hartley_normalization(x1[idx, :2]) == np.eye(3)).all()


@pytest.mark.parametrize("n, share, max_iters", CHUNK_EDGES)
def test_chunk_edge_examples_reach_their_edge(monkeypatch, n, share, max_iters):
    # the explicit examples above stop where their comment says they do
    p1, p2 = noisy_two_view(n, share, seed=0)
    monkeypatch.setattr(geometry, "_MAX_ITERS", max_iters)
    it = estimate_essential_ransac(p1, p2, INTR, INTR, seed=0).iterations
    assert chunk_ends(2000)[:4] == [16, 48, 112, 240]
    assert it not in chunk_ends(max_iters)
    if max_iters < 2000:
        assert it == max_iters > _FIRST_CHUNK
    else:
        assert it < max_iters and (it < _FIRST_CHUNK) == (share == 1.0)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(9, 1000), seed=st.integers(0, 999))
@example(n=1000, seed=0)
@example(n=8, seed=0)
def test_refit_equals_the_full_svd_fit(n, seed):
    # the refit drops the (n, n) U of its SVD; s and V, and so E, stay
    # bitwise those of the full SVD, and a refit on exactly 8 inliers keeps
    # the full V, the only one that holds its null vector
    p1, p2 = noisy_two_view(n, 1.0, seed)
    x1 = unproject_many(p1, np.ones(n), INTR)
    x2 = unproject_many(p2, np.ones(n), INTR)
    e, s = _eight_point(x1, x2)
    e_ref, s_ref = reference_eight_point(x1, x2)
    assert e.tobytes() == e_ref.tobytes() and s.tobytes() == s_ref.tobytes()


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 1000), seed=st.integers(0, 999),
       sizes=st.lists(st.integers(1, _CHUNK), min_size=2, max_size=2, unique=True))
@example(n=1000, seed=0, sizes=[_CHUNK, 1])
@example(n=8, seed=0, sizes=[_SLICE + 1, _SLICE])
def test_chunk_scoring_equals_per_model_scoring(n, seed, sizes):
    # two chunks of different sizes through one set of buffers: each stacked
    # score, mask and count is bitwise that of the model scored alone
    p1, p2 = noisy_two_view(n, 0.5, seed)
    x1 = unproject_many(p1, np.ones(n), INTR)
    x2 = unproject_many(p2, np.ones(n), INTR)
    thr_sq = (1.0 / INTR.fx) ** 2
    residual_sq = _sampson_sq(x1, x2)
    rng = np.random.default_rng(seed)
    for k in sizes:
        idx = _draw_samples(rng, n, k, 8)
        e = _minimal_fit(x1[idx], x2[idx])
        want = [reference_sampson_sq(e_i, x1, x2) for e_i in e]
        for lo in range(0, k, _SLICE):
            got = residual_sq(e[lo:lo + _SLICE])
            assert [r.tobytes() for r in got] == [
                r.tobytes() for r in want[lo:lo + _SLICE]]
        scored = list(_scored(e, residual_sq, thr_sq))
        assert [(m.tobytes(), c) for m, c in scored] == [
            ((r <= thr_sq).tobytes(), int((r <= thr_sq).sum())) for r in want]


# -- sample draws and the minimal fit -----------------------------------------

@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 2000), k=st.integers(1, _CHUNK), seed=st.integers(0, 999))
@example(n=8, k=_CHUNK, seed=0)
@example(n=2000, k=1, seed=0)
def test_draw_samples_are_distinct_indices(n, k, seed):
    idx = _draw_samples(np.random.default_rng(seed), n, k, 8)
    assert idx.shape == (k, 8) and idx.dtype == np.int64
    assert ((idx >= 0) & (idx < n)).all()
    rows = np.sort(idx, axis=1)
    assert (rows[:, 1:] != rows[:, :-1]).all()
    if n == 8:
        assert (rows == np.arange(8)).all()


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 2000), k=st.integers(1, _CHUNK), seed=st.integers(0, 999))
def test_draw_of_k_rows_equals_k_one_row_draws(n, k, seed):
    # each row reads exactly its own 8 doubles, so chunking moves no draw
    rng = np.random.default_rng(seed)
    one_by_one = np.concatenate([_draw_samples(rng, n, 1, 8) for _ in range(k)])
    assert (_draw_samples(np.random.default_rng(seed), n, k, 8) == one_by_one).all()


def test_draw_samples_are_uniform():
    # 20k samples of 8 from 20: each index is drawn 8,000 times in
    # expectation with a standard deviation near 69; 400 is about 5.8 of it
    idx = _draw_samples(np.random.default_rng(0), 20, 20000, 8)
    counts = np.bincount(idx.ravel(), minlength=20)
    assert np.abs(counts - 8000).max() < 400
    # a column is not uniform (column c never holds an index above 12 + c),
    # but the set is: each pair of indices shares a sample with odds
    # 8 * 7 / (20 * 19), 2,947 times in expectation, standard deviation
    # near 50
    held = np.zeros((20000, 20))
    np.put_along_axis(held, idx, 1.0, axis=1)
    pairs = (held.T @ held)[~np.eye(20, dtype=bool)]
    assert np.abs(pairs - 20000 * 56 / 380).max() < 300


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 300), share=st.floats(0.1, 1.0), seed=st.integers(0, 999),
       coincide=st.booleans())
@example(n=8, share=1.0, seed=0, coincide=True)
def test_qr_null_vector_is_the_svd_null_vector(n, share, seed, coincide):
    # a random 8x9 system has rank 8, and the last column of Q is its one
    # null vector up to sign; coincident view-1 points leave a rank-3
    # system, whose null vector is not unique, so there the QR vector must
    # lie in the span of the SVD's null vectors
    p1, p2 = noisy_two_view(n, share, seed, coincide)
    x1 = unproject_many(p1, np.ones(n), INTR)
    x2 = unproject_many(p2, np.ones(n), INTR)
    idx = _draw_samples(np.random.default_rng(seed), n, 16, 8)
    a = _design(x1[idx], x2[idx])[0]
    v = np.linalg.qr(np.swapaxes(a, -1, -2), mode="complete")[0][..., -1]
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    assert np.abs(np.einsum("kij,kj->ki", a, v)).max() < 1e-12
    for v_i, s_i, vt_i in zip(v, s, vt):
        null = vt_i[np.append(s_i, 0.0) <= 1e-12 * s_i[0]]
        if len(null) == 1:
            w = null[0]
            assert min(np.abs(v_i - w).max(), np.abs(v_i + w).max()) < 1e-12
        assert coincide or len(null) == 1
        assert np.abs(v_i - null.T @ (null @ v_i)).max() < 1e-12


@pytest.mark.parametrize("n", [8, 9, 10])
def test_estimates_from_few_true_matches(n):
    # projected to two equal singular values, a minimal model can move its
    # own matches by up to 23 px, so at a 1 px threshold most of these
    # inputs would find no model with 8 inliers; unprojected, each model
    # fits its own 8 matches exactly
    for seed in range(40):
        p1, p2 = noisy_two_view(n, 1.0, seed)
        est = estimate_essential_ransac(p1, p2, INTR, INTR, seed=seed)
        assert est.inlier_mask.sum() >= 8
        x1 = unproject_many(p1[:8], np.ones(8), INTR)
        x2 = unproject_many(p2[:8], np.ones(8), INTR)
        own = _sampson_sq(x1, x2)(_minimal_fit(x1, x2))
        assert np.sqrt(own.max()) * INTR.fx < 1e-9


@pytest.mark.parametrize("share", [0.9, 0.2])
def test_essential_ransac_peak_memory(share):
    # a full SVD of the refit's (n, 9) system builds an (n, n) U, which
    # peaked at 21.5 MiB here at share 0.9; the scoring buffers hold
    # _SLICE * 8 floats per match, 2 MiB at 2,000 matches
    p1, p2 = noisy_two_view(2000, share, seed=0)
    tracemalloc.start()
    try:
        estimate_essential_ransac(p1, p2, INTR, INTR, seed=0)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 6.0


def reference_triangulate(r, t, x1, x2, cap=50):
    """``_triangulate`` with one SVD per point."""
    n = min(len(x1), cap)
    p2 = np.hstack([r, t.reshape(3, 1)])
    d1 = np.empty(n)
    d2 = np.empty(n)
    for i in range(n):
        a = np.stack([
            x1[i, 0] * np.array([0, 0, 1, 0.0]) - np.array([1, 0, 0, 0.0]),
            x1[i, 1] * np.array([0, 0, 1, 0.0]) - np.array([0, 1, 0, 0.0]),
            x2[i, 0] * p2[2] - p2[0],
            x2[i, 1] * p2[2] - p2[1],
        ])
        _, _, vt = np.linalg.svd(a)
        xh = vt[-1]
        if abs(xh[3]) < 1e-12:
            d1[i] = d2[i] = -1.0
            continue
        pw = xh[:3] / xh[3]
        d1[i] = pw[2]
        d2[i] = (r @ pw + t)[2]
    return d1, d2


@pytest.mark.parametrize("n", [1, 8, 50, 80])
def test_triangulate_equals_per_point_loop(n):
    p1, p2, gt = make_two_view(n=n, seed=n)
    x1 = unproject_many(p1, np.ones(n), INTR)
    x2 = unproject_many(p2, np.ones(n), INTR)
    x2[0] = x1[0]  # zero parallax under pure translation: a point at infinity
    t = gt.translation / np.linalg.norm(gt.translation)
    for r, t in ((gt.rotation, t), (gt.rotation, -t), (gt.rotation.T, t)):
        got = _triangulate(r, t, x1, x2)
        want = reference_triangulate(r, t, x1, x2)
        assert [d.tobytes() for d in got] == [d.tobytes() for d in want]


def estimate_of(rotation, translation):
    return PoseEstimate(rotation, translation, np.ones(8, bool), 1.0)


def test_pose_angular_errors_identity():
    gt = RigidPose(rotation_about([1, 0, 0], 20.0), np.array([0.0, 1.0, 0.0]))
    r_err, t_err = pose_angular_errors(estimate_of(gt.rotation, gt.translation), gt)
    assert r_err == pytest.approx(0.0, abs=1e-9)
    assert t_err == pytest.approx(0.0, abs=1e-9)


def test_pose_angular_errors_known_angle():
    gt = RigidPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
    est = estimate_of(rotation_about([0, 0, 1], 5.0), np.array([0.0, 1.0, 0.0]))
    r_err, t_err = pose_angular_errors(est, gt)
    assert r_err == pytest.approx(5.0, abs=1e-9)
    assert t_err == pytest.approx(90.0, abs=1e-9)


def test_pose_angular_errors_sign_absorbed():
    gt = RigidPose(np.eye(3), np.array([0.3, -0.4, 0.5]))
    _, t_err = pose_angular_errors(estimate_of(np.eye(3), -gt.translation), gt)
    assert t_err == pytest.approx(0.0, abs=1e-5)


def test_pose_angular_errors_zero_baseline_raises():
    gt = RigidPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="zero-norm"):
        pose_angular_errors(estimate_of(np.eye(3), np.zeros(3)), gt)


def test_pose_angular_errors_accepts_estimate_object():
    gt = RigidPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
    est = PoseEstimate(np.eye(3), np.array([1.0, 0.0, 0.0]),
                       np.ones(5, bool), 1.0, 3)
    assert pose_angular_errors(est, gt) == (pytest.approx(0.0), pytest.approx(0.0))

