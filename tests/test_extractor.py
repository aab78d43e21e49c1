"""Student network, analytic teacher and keypoint selection."""

import numpy as np
import pytest

from evimatch.extractor import (DenseMaps, ExtractorConfig, KeypointSet,
                                analytic_teacher, apply_event_mask,
                                extract_keypoints, forward_student,
                                forward_student_batch, harris_score,
                                init_student, load_extractor, nms_mask,
                                normalize_desc, save_extractor)
from evimatch.geometry import _bilinear

TINY = ExtractorConfig(in_channels=2, channels=(8, 8), pools=(1, 2),
                       latent_dim=8, desc_dim=16, score_head=(8,),
                       desc_head=(8,))


def test_config_stride_is_pool_product():
    assert TINY.stride == 2
    assert ExtractorConfig(in_channels=1).stride == 4


def test_config_rejects_mismatched_heads():
    with pytest.raises(ValueError, match="head depth"):
        ExtractorConfig(in_channels=1, channels=(8, 8), pools=(2, 2),
                        score_head=(8,), desc_head=(8, 8))


def test_config_rejects_bad_pool_factor():
    with pytest.raises(ValueError, match="pool factors"):
        ExtractorConfig(in_channels=1, channels=(8,), pools=(3,),
                        score_head=(8,), desc_head=(8,))


@pytest.mark.parametrize("kwargs, message", [
    (dict(in_channels=3, representation="time_surface"),
     "a time_surface input has 2 channels, but in_channels is 3"),
    (dict(in_channels=16, representation="sae"), "unknown representation kind 'sae'"),
])
def test_config_rejects_a_representation_it_cannot_read(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExtractorConfig(**kwargs)


def test_init_student_matches_declared_shapes():
    params = init_student(TINY, seed=0)
    shapes = {
        "backbone.0.w": (8, 2, 3, 3), "backbone.0.b": (8,),
        "backbone.1.w": (8, 8, 3, 3), "backbone.1.b": (8,),
        "latent.w": (8, 8, 1, 1), "latent.b": (8,),
        "score.0.w": (8, 8, 4, 4), "score.0.b": (8,),
        "score.out.w": (1, 8, 1, 1), "score.out.b": (1,),
        "desc.0.w": (8, 8, 4, 4), "desc.0.b": (8,),
        "desc.out.w": (16, 8, 1, 1), "desc.out.b": (16,),
    }
    assert list(params) == list(shapes)
    for name, shape in shapes.items():
        assert params[name].data.shape == shape, name
        assert not params[name].requires_grad  # optim.fit turns grads on


def test_init_student_seed_determinism():
    a = init_student(TINY, seed=5)
    b = init_student(TINY, seed=5)
    c = init_student(TINY, seed=6)
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_forward_student_output_shapes():
    params = init_student(TINY, seed=0)
    maps = forward_student(np.zeros((2, 16, 24), np.float32), params, TINY)
    assert maps.feats.shape == (8, 8, 12)
    assert maps.score.shape == (1, 16, 24)
    assert maps.desc.shape == (16, 16, 24)


def test_forward_student_rejects_wrong_channels():
    params = init_student(TINY, seed=0)
    with pytest.raises(ValueError, match="expected"):
        forward_student(np.zeros((3, 16, 16), np.float32), params, TINY)


def test_forward_student_graph_only_when_trainable():
    x = np.random.default_rng(0).normal(size=(2, 8, 8)).astype(np.float32)
    params = init_student(TINY)
    maps = forward_student(x, params, TINY)
    assert all(type(m) is np.ndarray and m.dtype == np.float32
               for m in (maps.feats, maps.score, maps.desc))
    assert not any(t.requires_grad for t in forward_student_batch(x[None], params, TINY))
    for p in params.values():
        p.requires_grad = True
    feats, score, desc = forward_student_batch(x[None], params, TINY)
    assert feats.requires_grad and score.requires_grad and desc.requires_grad
    np.testing.assert_array_equal(score.data[0], maps.score)


def test_harris_flat_image_is_zero():
    assert harris_score(np.full((16, 16), 0.5)).max() == 0.0


def test_harris_peaks_at_corner():
    img = np.zeros((32, 32))
    img[16:, 16:] = 1.0  # a single L corner at (16, 16)
    s = harris_score(img)
    assert s.max() == 1.0
    y, x = np.unravel_index(s.argmax(), s.shape)
    assert abs(x - 16) <= 2 and abs(y - 16) <= 2


def teacher_image(seed=0, size=32):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0.1, 0.9, (size, size))
    return _smooth_img(img)


def _smooth_img(img):
    from evimatch.extractor import _smooth
    return np.clip(_smooth(img), 0.0, 1.0)


def test_teacher_output_shapes():
    maps = analytic_teacher(teacher_image())
    assert maps.feats.shape == (128, 8, 8)
    assert maps.score.shape == (1, 32, 32)
    assert maps.desc.shape == (128, 32, 32)


def test_teacher_rejects_out_of_range_image():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        analytic_teacher(np.full((32, 32), 1.5))


def test_teacher_rejects_indivisible_dims():
    with pytest.raises(ValueError, match="divisible"):
        analytic_teacher(np.zeros((30, 32)))


def test_teacher_descriptors_unit_or_zero():
    maps = analytic_teacher(teacher_image(1))
    norms = np.sqrt((maps.desc.astype(np.float64) ** 2).sum(axis=0))
    ok = (np.abs(norms - 1.0) < 1e-5) | (norms < 1e-10)
    assert ok.all()


def test_teacher_score_normalized():
    maps = analytic_teacher(teacher_image(2))
    assert maps.score.min() >= 0.0
    assert maps.score.max() == pytest.approx(1.0)


def test_teacher_taps_read_clamped_neighbours():
    # each descriptor channel is one orientation's response read at one tap
    # offset with coordinates clamped to the image, rebuilt here by index
    # gathers on an image small enough that every tap reaches a border
    from evimatch.extractor import TEACHER_TAPS, _smooth
    img = teacher_image(4)[:12, :20]
    h, w = img.shape
    iy, ix = np.gradient(img)
    taps = []
    for th in np.pi * np.arange(8) / 8:
        resp = _smooth(np.abs(np.cos(th) * ix + np.sin(th) * iy))
        for dy in TEACHER_TAPS:
            for dx in TEACHER_TAPS:
                rows = np.clip(np.arange(h) + dy, 0, h - 1)
                cols = np.clip(np.arange(w) + dx, 0, w - 1)
                taps.append(resp[np.ix_(rows, cols)])
    desc = np.stack(taps)
    want = normalize_desc(desc - desc.mean(axis=0, keepdims=True)).astype(np.float32)
    assert analytic_teacher(img).desc.tobytes() == want.tobytes()


def test_teacher_deterministic():
    a = analytic_teacher(teacher_image(3))
    b = analytic_teacher(teacher_image(3))
    np.testing.assert_array_equal(a.feats, b.feats)
    np.testing.assert_array_equal(a.desc, b.desc)


def test_normalize_desc_keeps_zero_columns():
    d = np.zeros((4, 2, 2), np.float32)
    d[:, 0, 0] = [3.0, 4.0, 0.0, 0.0]
    out = normalize_desc(d)
    assert np.linalg.norm(out[:, 0, 0]) == pytest.approx(1.0)
    assert (out[:, 1, 1] == 0.0).all()


def test_apply_event_mask_gates_score():
    maps = DenseMaps(np.zeros((2, 2, 2), np.float32),
                     np.ones((1, 4, 4), np.float32),
                     np.zeros((4, 4, 4), np.float32))
    mask = np.zeros((4, 4), np.uint8)
    mask[1, 2] = 1
    gated = apply_event_mask(maps, mask)
    assert gated.score[0, 1, 2] == 1.0
    assert gated.score.sum() == 1.0


def test_apply_event_mask_shape_mismatch():
    maps = DenseMaps(np.zeros((2, 2, 2), np.float32),
                     np.ones((1, 4, 4), np.float32),
                     np.zeros((4, 4, 4), np.float32))
    with pytest.raises(ValueError, match="mask shape"):
        apply_event_mask(maps, np.zeros((3, 3), np.uint8))


def brute_force_nms(score, radius):
    h, w = score.shape
    out = np.zeros((h, w), bool)
    for y in range(h):
        for x in range(w):
            v = score[y, x]
            best = True
            for yy in range(max(0, y - radius), min(h, y + radius + 1)):
                for xx in range(max(0, x - radius), min(w, x + radius + 1)):
                    if (yy, xx) == (y, x):
                        continue
                    u = score[yy, xx]
                    if u > v or (u == v and yy * w + xx < y * w + x):
                        best = False
                        break
                if not best:
                    break
            out[y, x] = best
    return out


def test_nms_matches_brute_force_with_ties():
    rng = np.random.default_rng(0)
    for radius in (1, 2, 3):
        # quantized scores force plenty of exact ties
        score = np.round(rng.uniform(0.0, 1.0, (14, 17)) * 8) / 8.0
        got = nms_mask(score, radius)
        np.testing.assert_array_equal(got, brute_force_nms(score, radius))


def random_maps(seed=0, h=24, w=20, desc_dim=8):
    rng = np.random.default_rng(seed)
    return DenseMaps(np.zeros((4, h // 2, w // 2), np.float32),
                     rng.uniform(-0.2, 1.0, (1, h, w)).astype(np.float32),
                     rng.normal(size=(desc_dim, h, w)).astype(np.float32))


def test_extract_keypoints_respects_border():
    maps = random_maps(1)
    kp = extract_keypoints(maps, border=4, nms_radius=2, k=100)
    h, w = maps.score.shape[1:]
    assert (kp.positions[:, 0] >= 4).all() and (kp.positions[:, 0] < w - 4).all()
    assert (kp.positions[:, 1] >= 4).all() and (kp.positions[:, 1] < h - 4).all()


def test_extract_keypoints_scores_descending():
    kp = extract_keypoints(random_maps(2), border=2, nms_radius=1, k=50)
    assert (np.diff(kp.scores) <= 0).all()
    assert (kp.scores > 0).all()


def test_extract_keypoints_top_k_cap():
    kp = extract_keypoints(random_maps(3), border=1, nms_radius=1, k=5)
    assert len(kp) == 5


def test_extract_keypoints_threshold_mode():
    maps = random_maps(4)
    kp = extract_keypoints(maps, border=2, nms_radius=1, k=None, threshold=0.5)
    assert (kp.scores > 0.5).all()
    all_kp = extract_keypoints(maps, border=2, nms_radius=1, k=10_000)
    expect = (all_kp.scores > 0.5).sum()
    assert len(kp) == expect


def test_extract_keypoints_empty_when_masked():
    maps = random_maps(5)
    gated = DenseMaps(maps.feats, np.zeros_like(maps.score), maps.desc)
    kp = extract_keypoints(gated, border=2, nms_radius=1, k=10)
    assert len(kp) == 0
    assert kp.descriptors.shape == (0, 8)


def test_extract_keypoints_unit_descriptors():
    kp = extract_keypoints(random_maps(6), border=2, nms_radius=2, k=30)
    norms = np.linalg.norm(kp.descriptors.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_extract_matches_brute_force_end_to_end():
    # small version of the dense selection oracle: full pipeline vs a
    # direct loop over pixels
    rng = np.random.default_rng(7)
    maps = random_maps(7, h=32, w=32)
    border, radius, k = 3, 2, 12
    s = maps.score[0].astype(np.float64).copy()
    s[:border] = -np.inf
    s[-border:] = -np.inf
    s[:, :border] = -np.inf
    s[:, -border:] = -np.inf
    keep = brute_force_nms(s, radius) & (s > 0) & np.isfinite(s)
    ys, xs = np.nonzero(keep)
    vals = s[ys, xs]
    order = np.lexsort((ys * 32 + xs, -vals))[:k]
    kp = extract_keypoints(maps, border=border, nms_radius=radius, k=k)
    np.testing.assert_array_equal(kp.positions,
                                  np.stack([xs[order], ys[order]], 1))
    np.testing.assert_allclose(kp.scores, vals[order], rtol=1e-6)


def test_bilinear_sample_at_grid_points():
    m = np.random.default_rng(0).standard_normal((2, 4, 5))
    y = _bilinear(m, np.array([2.0, 0.0]), np.array([3.0, 0.0]))
    np.testing.assert_array_equal(y[:, 0], m[:, 3, 2])
    np.testing.assert_array_equal(y[:, 1], m[:, 0, 0])


def test_bilinear_sample_clamps_outside():
    m = np.random.default_rng(1).standard_normal((1, 3, 3))
    y = _bilinear(m, np.array([-5.0, 99.0]), np.array([-5.0, 99.0]))
    assert y[0, 0] == m[0, 0, 0]
    assert y[0, 1] == m[0, 2, 2]


def test_normalize_desc_renormalizes_sampled_block():
    # between pixels of a unit map the sampled vectors are shorter than 1
    d = normalize_desc(np.random.default_rng(0).standard_normal((3, 4, 4)))
    block = _bilinear(d, np.array([1.5, 0.25]), np.array([1.5, 2.75]))
    assert (np.linalg.norm(block, axis=0) < 1.0 - 1e-3).all()
    np.testing.assert_allclose(np.linalg.norm(normalize_desc(block), axis=0),
                               1.0, atol=1e-12)


def reference_descriptors(maps, positions):
    """Descriptors sampled from the whole unit-normalized map, as stored."""
    unit = normalize_desc(maps.desc)
    return normalize_desc(_bilinear(unit, positions[:, 0], positions[:, 1])).T.astype(
        np.float32)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("border, k, threshold", [
    (0, 1024, None), (0, None, 0.3), (0, 1, None), (3, 1024, None), (2, None, 0.6)])
def test_keypoint_descriptors_bitwise_equal_sampling_the_normalized_map(
        seed, border, k, threshold):
    r = np.random.default_rng(seed)
    desc = r.standard_normal((32, 13, 11)).astype(np.float32)
    desc[:, r.random((13, 11)) < 0.2] = 0.0
    score = r.random((1, 13, 11)).astype(np.float32)
    # corner maxima: at border 0 keypoints sit on the last row and column,
    # where the sampler puts weight 1 on the far corner of the cell before
    score[0, [0, 0, -1, -1], [0, -1, 0, -1]] = [1.5, 1.6, 1.7, 1.8]
    maps = DenseMaps(np.zeros((8, 3, 3), np.float32), score, desc)
    kp = extract_keypoints(maps, border=border, nms_radius=1, k=k, threshold=threshold)
    assert len(kp) > 0
    if border == 0 and k != 1:
        assert kp.positions[:, 0].max() == 10 and kp.positions[:, 1].max() == 12
    assert kp.descriptors.tobytes() == reference_descriptors(maps, kp.positions).tobytes()


@pytest.mark.parametrize("border", [0, 4])
def test_teacher_keypoint_descriptors_bitwise_equal_sampling_the_normalized_map(border):
    yy, xx = np.mgrid[0:32, 0:32]
    img = 0.5 + 0.25 * np.sin(xx / 2.3) * np.cos(yy / 3.1) + 0.2 * ((xx > 20) & (yy < 12))
    maps = analytic_teacher(img)
    for kwargs in (dict(k=1024), dict(threshold=0.05)):
        kp = extract_keypoints(maps, border=border, nms_radius=2, **kwargs)
        assert len(kp) > 1
        assert kp.descriptors.tobytes() == reference_descriptors(maps, kp.positions).tobytes()


def test_save_load_extractor_roundtrip(tmp_path):
    params = init_student(TINY, seed=1)
    path = tmp_path / "ex.ckpt"
    save_extractor(path, params, TINY)
    back, config = load_extractor(path)
    assert config == TINY
    assert set(back) == set(params)
    for k in params:
        np.testing.assert_array_equal(back[k].data, params[k].data)
        assert not back[k].requires_grad


@pytest.mark.parametrize("representation, in_channels", [
    ("voxel", 5), ("time_surface", 2), ("stack", 6)])
def test_save_load_extractor_keeps_the_representation(tmp_path, representation,
                                                      in_channels):
    config = ExtractorConfig(in_channels=in_channels, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=8, score_head=(4,),
                             desc_head=(4,), representation=representation)
    path = tmp_path / "ex.ckpt"
    save_extractor(path, init_student(config, seed=1), config)
    assert load_extractor(path)[1] == config


def test_load_extractor_missing_param(tmp_path):
    from evimatch.optim import load_checkpoint, save_checkpoint
    params = init_student(TINY, seed=1)
    path = tmp_path / "ex.ckpt"
    save_extractor(path, params, TINY)
    blob = load_checkpoint(path)
    del blob["latent.b"]
    save_checkpoint(path, blob)
    with pytest.raises(ValueError, match="missing parameter latent.b"):
        load_extractor(path)


def test_load_extractor_requires_architecture(tmp_path):
    from evimatch.optim import save_checkpoint
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, {"w": np.ones(3, np.float32)})
    with pytest.raises(ValueError, match="architecture"):
        load_extractor(path)
