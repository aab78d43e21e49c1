"""Distillation loss masking and the extractor training loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from evimatch.autodiff import Tensor
from evimatch.datagen import LFDSample
from evimatch.distillation import (DistillConfig, lfd_loss, loss_history_csv,
                                   prepare_batch_arrays, train_extractor)
from evimatch.events import EventStream, accumulate_mask
from evimatch.extractor import (DenseMaps, ExtractorConfig, analytic_teacher,
                                cells_to_pixels, forward_student_batch,
                                init_student, normalize_desc, pixels_to_cells)
from evimatch.geometry import RigidPose
from evimatch.representations import build_representation

# train-extractor's default recipe: every loss term on
CLI_RECIPE = DistillConfig(lr=1e-3, epochs=50, batch_size=8, seed=0,
                           use_feats=True, use_score=True, use_desc=True)


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        dataclasses.replace(CLI_RECIPE, epochs=0)
    with pytest.raises(ValueError, match="positive"):
        dataclasses.replace(CLI_RECIPE, lr=0.0)
    with pytest.raises(ValueError, match="loss term"):
        dataclasses.replace(CLI_RECIPE, use_feats=False, use_score=False,
                            use_desc=False)


def tiny_batch(mask_val=1.0):
    """(student Tensors, teacher arrays, masks) for a 2-sample batch of
    4x4 frames at stride 2: scores and masks in 2x2 cells of 4 pixels."""
    rng = np.random.default_rng(0)
    n, cd, h, w = 2, 3, 2, 2
    teacher = (rng.normal(size=(n, 2, h, w)).astype(np.float32),
               rng.uniform(0, 1, (n, 4, h, w)).astype(np.float32),
               rng.normal(size=(n, cd, h, w)).astype(np.float32))
    masks = np.full((n, 4, h, w), mask_val, np.float32)
    student = (
        Tensor(rng.normal(size=(n, 2, h, w)).astype(np.float32), requires_grad=True),
        Tensor(rng.uniform(0, 1, (n, 4, h, w)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(size=(n, cd, h, w)).astype(np.float32), requires_grad=True),
    )
    return student, teacher, masks


def test_lfd_loss_matches_hand_computation():
    (sf, ss, sd), (tf, ts, td), masks = tiny_batch()
    total, values = lfd_loss((sf, ss, sd), (tf, ts, td), masks, CLI_RECIPE)
    l_feats = np.mean((sf.data - tf) ** 2)
    l_score = np.mean((ss.data - ts) ** 2)
    l_desc = np.mean(np.abs(sd.data - td))
    want = (l_feats, l_score, l_desc, l_feats + l_score + l_desc)
    assert values == pytest.approx(want, rel=1e-5)
    assert values[3] == float(total.data)


def test_lfd_loss_mask_restricts_support():
    student, (tf, ts, td), masks = tiny_batch()
    masks = np.zeros_like(masks)
    masks[0, 3, 1, 0] = 1.0  # a single supported pixel, in cell (1, 0)
    _, (_, l_score, l_desc, _) = lfd_loss(student, (tf, ts, td), masks,
                                          CLI_RECIPE)
    _, ss, sd = student
    want_score = (ss.data[0, 3, 1, 0] - ts[0, 3, 1, 0]) ** 2
    want_desc = np.abs(sd.data[0, :, 1, 0] - td[0, :, 1, 0]).mean()
    assert l_score == pytest.approx(want_score, rel=1e-4)
    assert l_desc == pytest.approx(want_desc, rel=1e-4)


@pytest.mark.parametrize("cell, holds_event", [((1, 0), True), ((0, 1), False)])
def test_lfd_desc_term_covers_cells_that_hold_an_event(cell, holds_event):
    # one event pixel, channel 2 of cell (1, 0): the descriptor term reads
    # that cell's whole descriptor and no other cell's
    (sf, ss, _), (tf, ts, td), masks = tiny_batch()
    masks = np.zeros_like(masks)
    masks[0, 2, 1, 0] = 1.0
    desc = td.copy()
    desc[0, :, cell[0], cell[1]] += 1.0
    _, (_, _, l_desc, _) = lfd_loss((sf, ss, Tensor(desc)), (tf, ts, td), masks,
                                    CLI_RECIPE)
    if holds_event:
        assert l_desc == pytest.approx(1.0, rel=1e-5)
    else:
        assert l_desc == 0.0


def test_lfd_loss_empty_mask_flagged_not_nan():
    _, (l_feats, l_score, l_desc, l_total) = lfd_loss(
        *tiny_batch(mask_val=0.0), CLI_RECIPE)
    assert l_score == 0.0 and l_desc == 0.0
    assert np.isfinite(l_total)
    assert l_total == pytest.approx(l_feats)


def test_lfd_loss_disabled_terms_are_zero():
    _, (l_feats, l_score, l_desc, l_total) = lfd_loss(
        *tiny_batch(), dataclasses.replace(CLI_RECIPE, use_feats=False, use_desc=False))
    assert l_feats == 0.0 and l_desc == 0.0
    assert l_total == pytest.approx(l_score)


def test_lfd_loss_total_differentiable():
    student, teacher, masks = tiny_batch()
    total, _ = lfd_loss(student, teacher, masks, CLI_RECIPE)
    total.backward()
    assert all(t.grad is not None for t in student)


def test_default_student_step_memory():
    # forward, LFD loss and backward of the default student at N = 2 and
    # 64x64 peaked at 43.5 MiB while the graph pinned every activation;
    # keeping only what each backward reads brought it to about 28 MiB,
    # and heads at the backbone stride to about 19 MiB
    config = ExtractorConfig(in_channels=16)
    params = init_student(config, seed=0)
    for p in params.values():
        p.requires_grad = True
    r = np.random.default_rng(0)
    x = r.normal(size=(2, 16, 64, 64)).astype(np.float32)
    teacher = (r.normal(size=(2, 128, 16, 16)).astype(np.float32),
               r.uniform(size=(2, 16, 16, 16)).astype(np.float32),
               r.normal(size=(2, 128, 16, 16)).astype(np.float32))
    masks = (r.uniform(size=(2, 16, 16, 16)) < 0.3).astype(np.float32)
    tracemalloc.start()
    try:
        total, _ = lfd_loss(forward_student_batch(x, params, config), teacher,
                            masks, CLI_RECIPE)
        total.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.values())
    assert peak < 32 * 2**20


STUDENT = ExtractorConfig(in_channels=4, channels=(6, 6), pools=(1, 2),
                          latent_dim=8, desc_dim=8)
RECIPE = dataclasses.replace(CLI_RECIPE, lr=3e-3, epochs=4, batch_size=2)


def lfd_sample(events, image):
    return LFDSample(0.05, events, image, np.ones_like(image),
                     RigidPose(np.eye(3), np.zeros(3)))


def training_samples(n=4, size=16, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        m = 30
        xs = rng.integers(0, size, m)
        ys = rng.integers(0, size, m)
        ts = np.sort(rng.uniform(0.0, 0.05, m))
        ps = rng.choice([-1, 1], m)
        events = EventStream(xs, ys, ts, ps, size, size)
        image = np.clip(rng.uniform(0.2, 0.8, (size, size)), 0, 1)
        out.append(lfd_sample(events, image))
    return out


def small_teacher(image):
    """The default teacher cut to the stride-2 student: 8 of its latent
    channels upsampled 2x, and one descriptor channel per orientation."""
    maps = analytic_teacher(image)
    feats = np.repeat(np.repeat(maps.feats[:8], 2, axis=1), 2, axis=2)
    return DenseMaps(feats, maps.score, maps.desc[::16])


def test_prepare_batch_shapes():
    xs, tf, ts, td, ms = prepare_batch_arrays(training_samples(), STUDENT,
                                              teacher=small_teacher)
    assert xs.shape == (4, 4, 16, 16)
    assert tf.shape == (4, 8, 8, 8)
    assert ts.shape == (4, 4, 8, 8)
    assert td.shape == (4, 8, 8, 8)
    assert ms.shape == (4, 4, 8, 8)
    assert set(np.unique(ms)) <= {0.0, 1.0}


def test_prepare_batch_targets_in_cells():
    samples = training_samples()
    _, _, ts, td, ms = prepare_batch_arrays(samples, STUDENT, teacher=small_teacher)
    for i, s in enumerate(samples):
        maps = small_teacher(s.image)
        assert cells_to_pixels(ts[i:i + 1], 2)[0].tobytes() == maps.score.tobytes()
        mask = accumulate_mask(s.events).astype(np.float32)
        assert cells_to_pixels(ms[i:i + 1], 2)[0, 0].tobytes() == mask.tobytes()
        # the mean of each 2x2 cell's unit descriptors, re-normalized
        mean = maps.desc.astype(np.float64).reshape(8, 8, 2, 8, 2).mean(axis=(2, 4))
        np.testing.assert_allclose(td[i], normalize_desc(mean), atol=1e-6)
        np.testing.assert_allclose(np.linalg.norm(td[i], axis=0), 1.0, atol=1e-5)


def test_lfd_score_term_is_zero_on_the_teacher_score_in_cells():
    # a student whose score cells, decoded to pixels, are the teacher's
    # score costs nothing; one shifted by a pixel does
    samples = training_samples()
    _, tf, ts, td, ms = prepare_batch_arrays(samples, STUDENT, teacher=small_teacher)
    pixels = np.stack([small_teacher(s.image).score for s in samples])
    for shift, zero in ((0, True), (1, False)):
        score = pixels_to_cells(np.roll(pixels, shift, axis=3), 2)
        student = (Tensor(tf), Tensor(score), Tensor(td))
        _, (_, l_score, _, _) = lfd_loss(student, (tf, ts, td), ms, RECIPE)
        assert (l_score == 0.0) == zero


def test_prepare_batch_rejects_a_frame_the_stride_does_not_divide():
    student = dataclasses.replace(STUDENT, channels=(6, 6, 6), pools=(1, 2, 2))

    def teacher(image):
        return DenseMaps(np.zeros((8, 4, 4), np.float32),
                         np.zeros((1, 18, 18), np.float32),
                         np.zeros((8, 18, 18), np.float32))

    with pytest.raises(ValueError, match="a 18x18 map does not divide into 4x4 cells"):
        prepare_batch_arrays(training_samples(n=1, size=18), student, teacher=teacher)


def test_prepare_batch_rejects_non_stream():
    with pytest.raises(TypeError, match="EventStream"):
        prepare_batch_arrays([lfd_sample(np.zeros(3), np.zeros((16, 16)))],
                             STUDENT)


@pytest.mark.parametrize("kind, in_channels", [("voxel", 4), ("time_surface", 2),
                                               ("stack", 6)])
def test_prepare_batch_reads_the_students_representation(kind, in_channels):
    student = dataclasses.replace(STUDENT, in_channels=in_channels,
                                  representation=kind)
    samples = training_samples(n=2)
    xs = prepare_batch_arrays(samples, student, teacher=small_teacher)[0]
    want = [build_representation(s.events, kind, bins=in_channels) for s in samples]
    assert xs.tobytes() == np.stack(want).tobytes()


def test_train_extractor_loss_decreases():
    params, history = train_extractor(
        training_samples(), RECIPE, student_config=STUDENT,
        teacher=small_teacher)
    assert len(history) == RECIPE.epochs
    first, last = history[0][4], history[-1][4]
    assert last < first
    assert set(params) == set(init_student(STUDENT, seed=0))


def test_train_extractor_deterministic():
    kw = dict(config=RECIPE, student_config=STUDENT, teacher=small_teacher)
    p1, h1 = train_extractor(training_samples(), **kw)
    p2, h2 = train_extractor(training_samples(), **kw)
    assert h1 == h2
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)


def test_train_extractor_returns_frozen_params():
    params, _ = train_extractor(
        training_samples(), dataclasses.replace(CLI_RECIPE, epochs=1, batch_size=4),
        STUDENT, teacher=small_teacher)
    assert not any(p.requires_grad for p in params.values())
    events = training_samples(n=1)[0].events
    outs = forward_student_batch(build_representation(events, "voxel", bins=4)[None],
                                 params, STUDENT)
    assert not any(t.requires_grad for t in outs)


def test_train_extractor_empty_samples():
    with pytest.raises(ValueError, match="no training samples"):
        train_extractor([], RECIPE, student_config=STUDENT,
                        teacher=small_teacher)


@pytest.mark.parametrize("widths, message", [
    (dict(desc_dim=64), "desc_dim is 64 but the teacher's desc has 8 channels"),
    (dict(latent_dim=64), "latent_dim is 64 but the teacher's feats have 8 channels"),
])
def test_train_extractor_names_what_the_teacher_cannot_supervise(widths, message):
    student = dataclasses.replace(STUDENT, **widths)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_extractor(training_samples(), RECIPE, student, teacher=small_teacher)


def test_train_extractor_skips_the_latent_check_without_feats():
    student = dataclasses.replace(STUDENT, latent_dim=64)
    params, _ = train_extractor(training_samples(), dataclasses.replace(
        RECIPE, epochs=1, use_feats=False), student, teacher=small_teacher)
    assert params["latent.w"].data.shape == (64, 6, 1, 1)


def test_train_extractor_aborts_on_nonfinite():
    def poisoned(image):
        maps = small_teacher(image)
        bad = maps.feats.copy()
        bad[0, 0, 0] = np.nan
        return type(maps)(bad, maps.score, maps.desc)

    with pytest.raises(RuntimeError, match="epoch 0"):
        train_extractor(training_samples(), RECIPE, student_config=STUDENT,
                        teacher=poisoned)


def test_loss_history_csv_layout():
    text = loss_history_csv([(0, 1.0, 0.5, 0.25, 1.75)])
    lines = text.splitlines()
    assert lines[0] == "epoch,l_feats,l_score,l_desc,l_total"
    assert lines[1] == "0,1.00000000,0.50000000,0.25000000,1.75000000"
    assert text.endswith("\n")

