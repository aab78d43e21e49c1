"""Dual-softmax matching, the attention matcher and its supervision."""

import tracemalloc
import warnings

import numpy as np
import pytest

from evimatch.autodiff import Tensor
from evimatch.extractor import KeypointSet
from evimatch.geometry import CameraIntrinsics, RigidPose, rotation_about
from evimatch.matching import (CAConfig, CAMatcherParams, GroundTruthMatches,
                               MatchTrainConfig, _mutual_nearest,
                               ca_assignment, ca_forward, ca_match, ca_scores,
                               fourier_encoding, gt_assignment, load_matcher,
                               matcher_history_csv, mnn_match, nll_loss,
                               save_matcher, train_matcher)


def kp_from(desc, positions=None, scores=None):
    d = np.asarray(desc, np.float32)
    d = d / np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-12)
    k = len(d)
    pos = np.arange(2.0 * k).reshape(k, 2) if positions is None else positions
    sc = np.ones(k, np.float32) if scores is None else scores
    return KeypointSet(pos, d, sc)


def random_kp(n, dim=16, seed=0, size=48.0):
    rng = np.random.default_rng(seed)
    return kp_from(rng.normal(size=(n, dim)),
                   positions=rng.uniform(2.0, size - 2.0, (n, 2)))


# -- mutual nearest neighbor ----------------------------------------------

def test_mnn_identical_descriptors_match_diagonal():
    eye = np.eye(6, dtype=np.float32)
    m = mnn_match(kp_from(eye), kp_from(eye))
    np.testing.assert_array_equal(m.matches, np.stack([np.arange(6)] * 2, 1))
    # unit-temperature dual softmax caps each entry at (e / (e + N - 1))^2
    expect = (np.e / (np.e + 5.0)) ** 2
    np.testing.assert_allclose(m.scores, expect, rtol=1e-6)


def test_mnn_scores_in_unit_interval():
    m = mnn_match(random_kp(20, seed=1), random_kp(25, seed=2))
    assert (m.scores > 0.0).all() and (m.scores <= 1.0).all()


def test_mnn_partial_bijection():
    m = mnn_match(random_kp(30, seed=3), random_kp(28, seed=4))
    assert len(np.unique(m.matches[:, 0])) == len(m)
    assert len(np.unique(m.matches[:, 1])) == len(m)


def test_mnn_swap_transposes_exactly():
    a, b = random_kp(18, seed=5), random_kp(22, seed=6)
    ab = mnn_match(a, b)
    ba = mnn_match(b, a)
    ka = ab.matches[np.lexsort(ab.matches.T)]
    kb = ba.matches[np.lexsort(ba.matches.T)][:, ::-1]
    np.testing.assert_array_equal(np.sort(ka, axis=0), np.sort(kb, axis=0))
    np.testing.assert_allclose(
        sorted(ab.scores.tolist()), sorted(ba.scores.tolist()), rtol=1e-6)


def test_mnn_empty_inputs():
    a = KeypointSet.empty(8)
    assert len(mnn_match(a, random_kp(4, 8))) == 0
    assert len(mnn_match(random_kp(4, 8), a)) == 0


def log_softmax(s, axis):
    z = s - s.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


@pytest.mark.parametrize("n, m", [(40, 57), (57, 40), (1, 30), (30, 1), (1, 1)])
def test_dual_softmax_equals_two_log_softmaxes_bitwise(n, m):
    # the reference takes each log-softmax on its own and adds them; repeated
    # rows and columns plant exact ties in the float64 scores
    rng = np.random.default_rng(100 * n + m)
    da, db = rng.normal(size=(n, 16)), rng.normal(size=(m, 16))
    da[n // 2] = da[0]
    db[m // 2] = db[0]
    db[-1] = da[-1]
    a, b = kp_from(da), kp_from(db)
    s = a.descriptors.astype(np.float64) @ b.descriptors.astype(np.float64).T
    log_p = log_softmax(s, axis=1) + log_softmax(s, axis=0)
    best_j, best_i = np.argmin(-log_p, axis=1), np.argmin(-log_p, axis=0)
    rows = np.flatnonzero(best_i[best_j] == np.arange(n))
    got = mnn_match(a, b)
    assert got.matches.tobytes() == np.stack([rows, best_j[rows]], axis=1).tobytes()
    assert got.scores.tobytes() == np.exp(log_p[rows, best_j[rows]]).tobytes()


@pytest.mark.parametrize("fill", [np.inf, -np.inf, np.nan, -0.0])
def test_mutual_nearest_equals_the_argmins_of_both_axes(fill):
    # small integers tie often; the fill values probe the column minimum's
    # comparison, and a NaN sends the columns to np.argmin
    rng = np.random.default_rng(7)
    for n, m in [(1, 1), (1, 9), (9, 1), (13, 17), (17, 13)]:
        cost = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
        cost[rng.uniform(size=(n, m)) < 0.2] = fill
        best_j, best_i = np.argmin(cost, axis=1), np.argmin(cost, axis=0)
        rows = np.flatnonzero(best_i[best_j] == np.arange(n))
        got = _mutual_nearest(cost)
        np.testing.assert_array_equal(got[0], rows)
        np.testing.assert_array_equal(got[1], best_j[rows])


# -- context-aware matcher -------------------------------------------------

CFG = CAConfig(desc_dim=16, dim=16, layers=1, heads=2, pe_freqs=3,
               ffn_mult=1, image_size=(48, 48))


def test_ca_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        CAConfig(dim=10, heads=3)


def test_matcher_params_deterministic_create():
    a = CAMatcherParams.create(CFG, seed=9)
    b = CAMatcherParams.create(CFG, seed=9)
    assert set(a.params) == set(b.params)
    assert all(np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)


def test_logit_scale_initialized_to_log_ten():
    m = CAMatcherParams.create(CFG)
    assert m.params["logit_scale"].data.shape == ()
    assert float(m.params["logit_scale"].data) == pytest.approx(np.log(10.0),
                                                                rel=1e-6)


def test_fourier_encoding_shape_and_range():
    pts = np.array([[0.0, 0.0], [24.0, 24.0], [47.0, 47.0]])
    enc = fourier_encoding(pts, CFG)
    assert enc.shape == (3, 4 * CFG.pe_freqs)
    assert np.abs(enc).max() <= 1.0 + 1e-9


def test_ca_forward_shapes_and_sigma_range():
    a, b = random_kp(7, seed=1), random_kp(9, seed=2)
    xa, sa, xb, sb = ca_forward(a, b, CAMatcherParams.create(CFG))
    assert xa.data.shape == (7, CFG.dim) and xb.data.shape == (9, CFG.dim)
    assert sa.data.shape == (7, 1) and sb.data.shape == (9, 1)
    assert (sa.data > 0).all() and (sa.data < 1).all()
    assert (sb.data > 0).all() and (sb.data < 1).all()


def test_ca_scores_bounded_by_matchability():
    p, sa, sb = ca_scores(random_kp(6, seed=3), random_kp(9, seed=4),
                          CAMatcherParams.create(CFG, seed=3))
    assert p.data.shape == (6, 9)
    assert (p.data >= 0).all()
    assert (p.data <= sa.data * sb.data.T).all()


def test_ca_scores_softmax_structure():
    # P / (sigma_a sigma_b^T) is rowsoftmax * colsoftmax of the scaled
    # similarities of ca_forward's descriptors
    a, b = random_kp(5, seed=4), random_kp(7, seed=5)
    matcher = CAMatcherParams.create(CFG, seed=4)
    p, sa, sb = ca_scores(a, b, matcher)
    xa, _, xb, _ = (t.data.astype(np.float64) for t in ca_forward(a, b, matcher))
    s = np.exp(float(matcher.params["logit_scale"].data)) * (xa @ xb.T)
    want = np.exp(log_softmax(s, axis=1) + log_softmax(s, axis=0))
    np.testing.assert_allclose(p.data / (sa.data * sb.data.T), want, rtol=1e-5)


def test_ca_assignment_mutual_and_thresholded():
    p = np.full((10, 10), 0.05)
    p[np.arange(10), 9 - np.arange(10)] = 0.9  # perfect reversed correspondence
    m = ca_assignment(p, threshold=0.1)
    assert len(m) == 10
    np.testing.assert_array_equal(m.matches[:, 1], 9 - m.matches[:, 0])
    np.testing.assert_array_equal(m.scores, 0.9)
    high = ca_assignment(p, threshold=2.0)
    assert len(high) == 0  # probabilities cannot exceed 1


def test_ca_assignment_swap_transposes():
    # a repeated row and column plant exact ties
    rng = np.random.default_rng(6)
    for dtype in (np.float64, np.float32):
        p = rng.uniform(0.0, 0.5, (8, 11)).astype(dtype)
        p[4], p[:, 7] = p[0], p[:, 2]
        ab = ca_assignment(p, threshold=0.05)
        ba = ca_assignment(p.T, threshold=0.05)
        assert len(ab) > 0
        order = np.argsort(ba.matches[:, 1], kind="stable")
        assert ab.matches.tobytes() == ba.matches[order, ::-1].copy().tobytes()
        assert ab.scores.tobytes() == ba.scores[order].tobytes()


def test_ca_assignment_compares_the_threshold_in_float64():
    # float32 would round this threshold down to the entry and keep it
    p = np.array([[0.1, 0.0], [0.0, 0.5]], np.float32)
    entry = float(p[0, 0])
    above = np.nextafter(entry, 1.0)
    assert np.float32(above) == p[0, 0]
    before = p.copy()
    assert ca_assignment(p, threshold=entry).matches.tolist() == [[0, 0], [1, 1]]
    out = ca_assignment(p, threshold=above)
    assert out.matches.tolist() == [[1, 1]]
    assert out.scores.tolist() == [0.5]
    assert p.tobytes() == before.tobytes()  # p is not written over


def test_ca_match_empty_keypoints():
    m = CAMatcherParams.create(CFG)
    assert len(ca_match(KeypointSet.empty(16), random_kp(4), m)) == 0


@pytest.mark.parametrize("threshold", [np.nan, np.inf])
def test_ca_assignment_rejects_a_non_finite_threshold_even_when_empty(threshold):
    p = np.random.default_rng(6).uniform(size=(4, 5))
    m = CAMatcherParams.create(CFG)
    message = f"^threshold must be finite, got {threshold}$"
    for match in (lambda: ca_assignment(p, threshold=threshold),
                  lambda: ca_assignment(p[:0], threshold=threshold),
                  lambda: ca_match(random_kp(4), random_kp(5), m, threshold=threshold),
                  lambda: ca_match(KeypointSet.empty(16), random_kp(4), m,
                                   threshold=threshold)):
        with pytest.raises(ValueError, match=message):
            match()


def test_ca_forward_rejects_an_empty_side():
    m, kp, empty = CAMatcherParams.create(CFG), random_kp(5), KeypointSet.empty(16)
    for a, b in ((kp, empty), (empty, kp)):
        with pytest.raises(ValueError, match=r"attention: q \(\d+, 16\) has no keys"):
            ca_forward(a, b, m)
        with pytest.raises(ValueError, match="has no keys"):
            ca_scores(a, b, m)


def test_ca_match_is_ca_assignment_of_ca_scores_bitwise():
    a, b = random_kp(12, seed=7), random_kp(15, seed=8)
    matcher = CAMatcherParams.create(CFG, seed=1)
    every = ca_match(a, b, matcher, threshold=0.0)
    cut = float(np.median(every.scores))
    assert 0 < len(ca_match(a, b, matcher, threshold=cut)) < len(every)
    for t in (0.0, cut):
        got = ca_match(a, b, matcher, threshold=t)
        want = ca_assignment(ca_scores(a, b, matcher)[0].data, t)
        assert got.matches.tobytes() == want.matches.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()


# -- reprojection ground truth ---------------------------------------------

INTR = CameraIntrinsics(fx=60.0, fy=60.0, cx=23.5, cy=23.5)
IDENTITY = RigidPose(np.eye(3), np.zeros(3))


def flat_depth(value=2.0, size=48):
    return np.full((size, size), value)


def test_gt_assignment_identity_views():
    kp = random_kp(8, seed=9)
    gt = gt_assignment(kp, kp, flat_depth(), flat_depth(), INTR, INTR,
                       IDENTITY, IDENTITY)
    np.testing.assert_array_equal(gt.matches,
                                  np.stack([np.arange(8)] * 2, 1))
    assert len(gt.unmatched_a) == 0 and len(gt.unmatched_b) == 0


def test_gt_assignment_translated_views():
    # pure x-translation of a fronto-parallel plane shifts pixels by
    # fx * tx / z; place kp_b at exactly those shifted positions
    kp_a = random_kp(10, seed=10)
    tx, z = 0.2, 2.0
    shift = 60.0 * tx / z
    pos_b = kp_a.positions.copy()
    pos_b[:, 0] -= shift
    kp_b = KeypointSet(pos_b, kp_a.descriptors, kp_a.scores)
    pose_b = RigidPose(np.eye(3), np.array([-tx, 0.0, 0.0]))
    gt = gt_assignment(kp_a, kp_b, flat_depth(z), flat_depth(z), INTR, INTR,
                       IDENTITY, pose_b)
    np.testing.assert_array_equal(gt.matches,
                                  np.stack([np.arange(10)] * 2, 1))


def test_gt_assignment_partition_is_complete():
    a, b = random_kp(12, seed=11), random_kp(9, seed=12)
    gt = gt_assignment(a, b, flat_depth(), flat_depth(), INTR, INTR,
                       IDENTITY,
                       RigidPose(rotation_about([0, 1, 0], 3.0),
                                 np.array([0.1, 0.0, 0.0])))
    ia = np.concatenate([gt.matches[:, 0], gt.unmatched_a])
    ib = np.concatenate([gt.matches[:, 1], gt.unmatched_b])
    np.testing.assert_array_equal(np.sort(ia), np.arange(12))
    np.testing.assert_array_equal(np.sort(ib), np.arange(9))


def test_gt_assignment_swap_symmetric():
    a, b = random_kp(10, seed=13), random_kp(11, seed=14)
    pose_b = RigidPose(rotation_about([1, 0, 0], 2.0), np.array([0.05, 0.0, 0.0]))
    ab = gt_assignment(a, b, flat_depth(), flat_depth(), INTR, INTR,
                       IDENTITY, pose_b)
    ba = gt_assignment(b, a, flat_depth(), flat_depth(), INTR, INTR,
                       pose_b, IDENTITY)
    assert set(map(tuple, ab.matches)) == set(map(tuple, ba.matches[:, ::-1]))
    np.testing.assert_array_equal(ab.unmatched_a, ba.unmatched_b)
    np.testing.assert_array_equal(ab.unmatched_b, ba.unmatched_a)


def test_gt_assignment_invalid_depth_unmatched():
    kp = random_kp(6, seed=15)
    dead = np.zeros((48, 48))  # nonpositive depth everywhere
    gt = gt_assignment(kp, kp, dead, dead, INTR, INTR,
                       IDENTITY, IDENTITY)
    assert len(gt.matches) == 0
    assert len(gt.unmatched_a) == 6 and len(gt.unmatched_b) == 6


def test_gt_assignment_empty_side():
    gt = gt_assignment(KeypointSet.empty(16), random_kp(3),
                       flat_depth(), flat_depth(), INTR, INTR,
                       IDENTITY, IDENTITY)
    assert len(gt.matches) == 0 and len(gt.unmatched_b) == 3


# -- matching loss ----------------------------------------------------------

def test_nll_loss_hand_computed():
    p = Tensor(np.array([[0.8, 0.1], [0.2, 0.6]], np.float32))
    sa = Tensor(np.array([0.9, 0.7], np.float32))
    sb = Tensor(np.array([0.8, 0.6], np.float32))
    gt = GroundTruthMatches(np.array([[0, 0]]), np.array([1]), np.array([1]))
    loss = nll_loss(p, sa, sb, gt)
    want = -np.log(0.8) - 0.5 * np.log(1 - 0.7) - 0.5 * np.log(1 - 0.6)
    assert float(loss.data) == pytest.approx(want, rel=1e-5)


def test_nll_loss_empty_gt_is_zero():
    p = Tensor(np.ones((2, 2), np.float32) * 0.25)
    gt = GroundTruthMatches(np.zeros((0, 2), np.int64), np.zeros(0, np.int64),
                            np.zeros(0, np.int64))
    loss = nll_loss(p, Tensor(np.ones(2) * 0.5), Tensor(np.ones(2) * 0.5), gt)
    assert float(loss.data) == 0.0


def test_nll_loss_warns_on_saturation():
    p = Tensor(np.array([[0.0]], np.float32))  # clamped at 1e-12
    gt = GroundTruthMatches(np.array([[0, 0]]), np.zeros(0, np.int64),
                            np.zeros(0, np.int64))
    with pytest.warns(RuntimeWarning, match="saturated"):
        nll_loss(p, Tensor(np.ones(1) * 0.5), Tensor(np.ones(1) * 0.5), gt)


def test_nll_loss_backward_reaches_inputs():
    rng = np.random.default_rng(16)
    p = Tensor(rng.uniform(0.1, 0.5, (3, 3)).astype(np.float32),
               requires_grad=True)
    sa = Tensor(np.full(3, 0.5, np.float32), requires_grad=True)
    sb = Tensor(np.full(3, 0.5, np.float32), requires_grad=True)
    gt = GroundTruthMatches(np.array([[0, 1], [1, 0]]), np.array([2]),
                            np.array([2]))
    nll_loss(p, sa, sb, gt).backward()
    assert p.grad is not None and sa.grad is not None and sb.grad is not None


def test_training_step_memory_at_256_keypoints():
    # bounds what one step's graph stores at the default architecture;
    # keeping per-head logits, scaled logits and slices would exceed it
    cfg = CAConfig()
    matcher = CAMatcherParams.create(cfg, seed=0)
    for p in matcher.params.values():
        p.requires_grad = True
    rng = np.random.default_rng(0)
    kp_a, kp_b = (kp_from(rng.normal(size=(256, cfg.desc_dim)),
                          positions=rng.uniform(0.0, 64.0, (256, 2)))
                  for _ in range(2))
    gt = GroundTruthMatches(np.stack([np.arange(200), rng.permutation(256)[:200]], 1),
                            np.arange(200, 256), np.zeros(0, np.int64))
    tracemalloc.start()
    try:
        p, sa, sb = ca_scores(kp_a, kp_b, matcher)
        nll_loss(p, sa, sb, gt).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matcher.params["layers.0.self.wq.w"].grad is not None
    assert peak < 60 * 2**20


def test_ca_match_after_training_records_no_graph():
    # the trained params come back frozen, so inference builds no backward
    # graph: one 512-keypoint call peaks near 10 MiB instead of near 95
    cfg = CAConfig()
    rng = np.random.default_rng(0)
    small = [kp_from(rng.normal(size=(8, cfg.desc_dim)),
                     positions=rng.uniform(0.0, 64.0, (8, 2))) for _ in range(2)]
    gt = GroundTruthMatches(np.stack([np.arange(8)] * 2, 1),
                            np.zeros(0, np.int64), np.zeros(0, np.int64))
    matcher, _ = train_matcher([(small[0], small[1], gt)], ca_config=cfg,
                               config=MatchTrainConfig(epochs=1, batch_size=1))
    assert not any(p.requires_grad for p in matcher.params.values())
    kp_a, kp_b = (kp_from(rng.normal(size=(512, cfg.desc_dim)),
                          positions=rng.uniform(0.0, 64.0, (512, 2)))
                  for _ in range(2))
    tracemalloc.start()
    try:
        ca_match(kp_a, kp_b, matcher)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_fresh_matcher_records_no_graph():
    # created params are frozen: a 512-keypoint ca_match on them peaks near
    # 10 MiB, where a recorded backward graph would take hundreds
    cfg = CAConfig()
    matcher = CAMatcherParams.create(cfg, seed=0)
    rng = np.random.default_rng(0)
    kp_a, kp_b = (kp_from(rng.normal(size=(512, cfg.desc_dim)),
                          positions=rng.uniform(0.0, 64.0, (512, 2)))
                  for _ in range(2))
    tracemalloc.start()
    try:
        ca_match(kp_a, kp_b, matcher)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# -- training and persistence ------------------------------------------------

def make_examples(n_pairs=3, k=6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_pairs):
        desc = rng.normal(size=(k, CFG.desc_dim))
        pos = rng.uniform(4.0, 44.0, (k, 2))
        a = kp_from(desc, positions=pos)
        perm = rng.permutation(k)
        b = kp_from(desc[perm] + 0.05 * rng.normal(size=(k, CFG.desc_dim)),
                    positions=pos[perm])
        # b's row j carries a's descriptor perm[j]
        matches = np.stack([perm, np.arange(k)], 1)
        out.append((a, b, GroundTruthMatches(matches, np.zeros(0, np.int64),
                                             np.zeros(0, np.int64))))
    return out


def test_train_matcher_loss_decreases():
    examples = make_examples()
    cfg = MatchTrainConfig(lr=3e-3, epochs=6, batch_size=3, seed=0)
    matcher, history = train_matcher(examples, config=cfg, ca_config=CFG)
    assert len(history) == 6
    assert history[-1][1] < history[0][1]


def test_train_matcher_deterministic():
    cfg = MatchTrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=1)
    m1, h1 = train_matcher(make_examples(), config=cfg, ca_config=CFG)
    m2, h2 = train_matcher(make_examples(), config=cfg, ca_config=CFG)
    assert h1 == h2
    assert all(np.array_equal(m1.params[k].data, m2.params[k].data)
               for k in m1.params)


def test_train_matcher_trains_a_frozen_matcher():
    # create() makes frozen params; train_matcher's fresh matcher still moves
    cfg = MatchTrainConfig(lr=1e-3, epochs=1, batch_size=3, seed=2)
    start = CAMatcherParams.create(CFG, seed=2)
    assert not any(p.requires_grad for p in start.params.values())
    trained, _ = train_matcher(make_examples(), config=cfg, ca_config=CFG)
    assert set(trained.params) == set(start.params)
    assert not np.array_equal(trained.params["in_proj.w"].data,
                              start.params["in_proj.w"].data)


def test_train_matcher_empty_examples():
    with pytest.raises(ValueError, match="no training examples"):
        train_matcher([], ca_config=CFG)


def test_train_matcher_drops_pairs_with_an_empty_side():
    # an empty side gives attention nothing to reduce over; such pairs are
    # dropped and the rest train exactly as if handed in alone
    examples = make_examples()
    (kp_a, kp_b, _), empty = examples[0], KeypointSet.empty(CFG.desc_dim)
    none = np.zeros(0, np.int64)
    with_empty = [(empty, kp_b, GroundTruthMatches(np.zeros((0, 2)), none,
                                                   np.arange(len(kp_b)))),
                  *examples,
                  (kp_a, empty, GroundTruthMatches(np.zeros((0, 2)),
                                                   np.arange(len(kp_a)), none))]
    cfg = MatchTrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=1)
    with pytest.warns(RuntimeWarning, match="dropped 2 of 5 pairs"):
        got, got_history = train_matcher(with_empty, config=cfg, ca_config=CFG)
    want, want_history = train_matcher(examples, config=cfg, ca_config=CFG)
    assert got_history == want_history
    assert all(np.array_equal(got.params[k].data, want.params[k].data)
               for k in want.params)


def test_train_matcher_needs_a_pair_with_both_sides():
    kp_a, _, gt = make_examples(1)[0]
    empty = KeypointSet.empty(CFG.desc_dim)
    with pytest.warns(RuntimeWarning, match="dropped 1 of 1"):
        with pytest.raises(ValueError, match="keypoints on both sides"):
            train_matcher([(kp_a, empty, gt)], ca_config=CFG)


def test_train_matcher_aborts_on_nonfinite():
    examples = make_examples(1)
    examples[0][0].descriptors[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="step 0"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train_matcher(examples, ca_config=CFG,
                          config=MatchTrainConfig(epochs=1, batch_size=1))


def test_matcher_history_csv_layout():
    text = matcher_history_csv([(0, 1.5), (1, 0.75)])
    assert text.splitlines() == ["epoch,loss", "0,1.50000000", "1,0.75000000"]


def test_save_load_matcher_roundtrip(tmp_path):
    matcher = CAMatcherParams.create(CFG, seed=3)
    path = tmp_path / "matcher.ckpt"
    save_matcher(path, matcher)
    back = load_matcher(path)
    assert back.config == CFG
    assert set(back.params) == set(matcher.params)
    for k in matcher.params:
        np.testing.assert_array_equal(back.params[k].data,
                                      matcher.params[k].data)
    assert back.params["logit_scale"].data.shape == ()


def test_load_matcher_missing_param(tmp_path):
    from evimatch.optim import load_checkpoint, save_checkpoint
    path = tmp_path / "m.ckpt"
    save_matcher(path, CAMatcherParams.create(CFG))
    blob = load_checkpoint(path)
    del blob["logit_scale"]
    save_checkpoint(path, blob)
    with pytest.raises(ValueError, match="missing parameter logit_scale"):
        load_matcher(path)
