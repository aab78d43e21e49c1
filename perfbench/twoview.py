"""Synthetic two-view keypoint sets with exact ground truth.

A random 3D point cloud is observed by two calibrated cameras with a known
relative pose.  A chosen share of each side's keypoints are projections of
points seen by both cameras (with small pixel noise); the rest are
outliers at random positions.  Co-visible points share a base descriptor
that each view perturbs with Gaussian noise; outliers get independent
descriptors.  The ground truth is known by construction: the matching
index pairs and, for every keypoint of view a, its noise-free position in
view b (NaN for outliers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from evimatch.extractor import KeypointSet
from evimatch.geometry import CameraIntrinsics, RigidPose, rotation_about
from evimatch.matching import GroundTruthMatches

IMAGE_SIZE = 256
DESC_DIM = 128
PIXEL_NOISE = 0.3


@dataclass
class TwoViewPair:
    kp_a: KeypointSet
    kp_b: KeypointSet
    gt: GroundTruthMatches
    gt_pos_b: np.ndarray  # (N_a, 2) noise-free position in b, NaN if none
    rel_pose: RigidPose  # view a -> view b
    intrinsics: CameraIntrinsics


def intrinsics():
    f = 0.8 * IMAGE_SIZE
    c = (IMAGE_SIZE - 1) / 2.0
    return CameraIntrinsics(fx=f, fy=f, cx=c, cy=c)


def _project(points, pose, intr):
    pc = points @ pose.rotation.T + pose.translation
    uv = np.stack([intr.fx * pc[:, 0] / pc[:, 2] + intr.cx,
                   intr.fy * pc[:, 1] / pc[:, 2] + intr.cy], axis=1)
    return uv, pc[:, 2]


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_pair(rng, n, inlier_share, desc_noise):
    """One pair with n keypoints per side, round(inlier_share * n) shared."""
    intr = intrinsics()
    axis = _unit_rows(rng.normal(size=(1, 3)))[0]
    rot = rotation_about(axis, rng.uniform(5.0, 12.0))
    t_dir = _unit_rows(rng.normal(size=(1, 3)))[0]
    pose_a = RigidPose(np.eye(3), np.zeros(3))
    pose_b = RigidPose(rot, 0.6 * t_dir)

    n_in = int(round(inlier_share * n))
    points = np.zeros((0, 3))
    while len(points) < n_in:
        cand = np.stack([rng.uniform(-2.0, 2.0, 4 * n), rng.uniform(-2.0, 2.0, 4 * n),
                         rng.uniform(3.0, 7.0, 4 * n)], axis=1)
        ok = np.ones(len(cand), dtype=bool)
        for pose in (pose_a, pose_b):
            uv, z = _project(cand, pose, intr)
            ok &= (z > 0) & np.all((uv >= 0) & (uv <= IMAGE_SIZE - 1), axis=1)
        points = np.concatenate([points, cand[ok]])
    points = points[:n_in]
    exact_a, _ = _project(points, pose_a, intr)
    exact_b, _ = _project(points, pose_b, intr)
    base = _unit_rows(rng.normal(size=(n_in, DESC_DIM)))

    def side(exact):
        pos = np.concatenate([exact + rng.normal(0.0, PIXEL_NOISE, exact.shape),
                              rng.uniform(0.0, IMAGE_SIZE - 1, (n - n_in, 2))])
        desc = np.concatenate([
            _unit_rows(base + desc_noise * rng.normal(size=base.shape)
                       / np.sqrt(DESC_DIM)),
            _unit_rows(rng.normal(size=(n - n_in, DESC_DIM)))])
        order = rng.permutation(n)
        kp = KeypointSet(pos[order], desc[order].astype(np.float32),
                         np.ones(n, np.float32))
        return kp, np.argsort(order)  # where each original row went

    kp_a, where_a = side(exact_a)
    kp_b, where_b = side(exact_b)
    matches = np.stack([where_a[:n_in], where_b[:n_in]], axis=1)
    gt = GroundTruthMatches(matches,
                            np.setdiff1d(np.arange(n), matches[:, 0]),
                            np.setdiff1d(np.arange(n), matches[:, 1]))
    gt_pos_b = np.full((n, 2), np.nan)
    gt_pos_b[where_a[:n_in]] = exact_b
    # view a is the world frame, so b's pose is the relative pose
    return TwoViewPair(kp_a, kp_b, gt, gt_pos_b, pose_b, intr)
