"""Keypoint/matching quality measures and pose-error aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimatch.extractor import KeypointSet
from evimatch.matching import Assignment
from evimatch.metrics import (correct_matches, mma_mr, repeatability,
                              report_csv, report_text, rpe_auc, rpe_ratio,
                              valid_pairs, vdd_vda)


def kp_at(positions, desc=None):
    pos = np.asarray(positions, np.float64).reshape(-1, 2)
    k = len(pos)
    if desc is None:
        desc = np.eye(max(k, 1), 4, dtype=np.float32)[:k]
        n = np.linalg.norm(desc, axis=1, keepdims=True)
        desc = desc / np.where(n == 0, 1.0, n)
    return KeypointSet(pos, np.asarray(desc, np.float32), np.ones(k, np.float32))


def test_valid_pairs_identity_homography():
    a = kp_at([[5.0, 5.0], [20.0, 10.0]])
    b = kp_at([[5.5, 5.0], [20.0, 10.5], [40.0, 40.0]])
    v = valid_pairs(a, b, eps=1.0)
    np.testing.assert_array_equal(v, [[0, 0], [1, 1]])
    assert v.dtype == np.int64


def test_valid_pairs_respects_eps():
    a = kp_at([[5.0, 5.0]])
    b = kp_at([[9.0, 5.0]])
    assert len(valid_pairs(a, b, eps=3.0)) == 0
    assert len(valid_pairs(a, b, eps=4.0)) == 1


def test_valid_pairs_mutual_only():
    # two a-points nearest to the same b-point: only the mutual one stays
    a = kp_at([[0.0, 0.0], [1.0, 0.0]])
    b = kp_at([[0.9, 0.0]])
    v = valid_pairs(a, b, eps=2.0)
    np.testing.assert_array_equal(v, [[1, 0]])


def test_repeatability_value_and_errors():
    a = kp_at([[5.0, 5.0], [30.0, 30.0]])
    b = kp_at([[5.0, 5.0], [90.0, 90.0], [50.0, 10.0]])
    # one valid pair out of 5 keypoints -> 2*1/5
    assert repeatability(a, b, eps=1.0) == pytest.approx(0.4)
    with pytest.raises(ValueError, match="undefined"):
        repeatability(kp_at(np.zeros((0, 2))), kp_at(np.zeros((0, 2))))


def test_vdd_vda_hand_values():
    da = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    db = np.array([[0.0, 1.0], [0.0, 1.0]], np.float32)
    a = kp_at([[0.0, 0.0], [5.0, 5.0]], da)
    b = kp_at([[0.0, 0.0], [5.0, 5.0]], db)
    vdd, vda = vdd_vda(np.array([[0, 0], [1, 1]]), a, b)
    assert vdd == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-6)
    assert vda == pytest.approx(45.0, rel=1e-6)


def test_vdd_vda_empty_raises():
    with pytest.raises(ValueError, match="undefined"):
        vdd_vda(np.zeros((0, 2), np.int64), kp_at([[0, 0]]), kp_at([[0, 0]]))


def test_mma_mr_values():
    a = kp_at([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    b = kp_at([[0.0, 0.0], [10.0, 0.0], [99.0, 0.0]])
    matches = Assignment(np.array([[0, 0], [1, 1], [2, 2]]), np.ones(3))
    mma, mr = mma_mr(matches, a, b, eps=3.0)
    assert mma == pytest.approx(2.0 / 3.0)
    assert mr == pytest.approx(1.0)


def test_correct_matches_bound_is_inclusive():
    a = kp_at([[0.0, 0.0], [10.0, 0.0]])
    b = kp_at([[3.0, 0.0], [13.5, 0.0]])
    matches = np.array([[0, 0], [1, 1]])
    assert correct_matches(matches, a, b, eps=3.0).tolist() == [True, False]


def test_mma_absent_with_no_matches():
    a, b = kp_at([[0.0, 0.0]]), kp_at([[0.0, 0.0]])
    mma, mr = mma_mr(Assignment.empty(), a, b)
    assert mma is None
    assert mr == 0.0


def test_rpe_ratio_counts_failures_in_denominator():
    assert rpe_ratio([1.0, 5.0, np.inf, 20.0], 10.0) == pytest.approx(0.5)


def test_rpe_ratio_validation():
    with pytest.raises(ValueError):
        rpe_ratio([], 5.0)
    with pytest.raises(ValueError):
        rpe_ratio([1.0], 0.0)


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
