"""Synthetic scenes with aligned events, frames, depth and poses.

A scene is a textured heightfield observed by a camera on a smooth
closed-form trajectory.  Everything downstream needs ground truth, so the
renderer is exact to float resolution: per-pixel rays are intersected with
the surface by a bracketed regula-falsi solver that runs until its next
step would not move, giving intensity and metric depth, and the event stream
is generated from the log-intensity signal with quantized contrast
thresholds and linearly interpolated crossing times.  The texture mixes a
smooth random field with hard-edged rectangles at random orientations so
both gradients and distinctive corners exist; the heightfield keeps the
scene non-planar, which two-view essential-matrix estimation needs.  Both
coarse fields are read through the bilinear sampler in ``geometry``.
Co-visibility scores and the exact matches of the rpe filter come from one
reprojection of a pixel grid with its rendered depth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .events import EventStream
from .geometry import (CameraIntrinsics, EstimationFailed, RigidPose,
                       _bilinear, estimate_essential_ransac,
                       pose_angular_errors, project_many, relative_pose,
                       rotation_about, unproject_many)


@dataclass(frozen=True)
class Trajectory:
    """Closed-form camera motion: sinusoids in position and attitude.

    The camera starts from a base rotation looking straight down at the
    surface; yaw/pitch/roll and the position each follow independent
    sinusoids, so the pose is smooth, periodic and exactly evaluable at
    any time.  Zero amplitudes give a static camera.
    """

    center: tuple
    lin_amp: tuple
    lin_freq: tuple
    lin_phase: tuple
    ang_amp: tuple
    ang_freq: tuple
    ang_phase: tuple

    def camera_center(self, t):
        c = np.asarray(self.center, dtype=np.float64)
        a = np.asarray(self.lin_amp, dtype=np.float64)
        f = np.asarray(self.lin_freq, dtype=np.float64)
        ph = np.asarray(self.lin_phase, dtype=np.float64)
        return c + a * np.sin(2.0 * np.pi * f * t + ph)

    def pose(self, t) -> RigidPose:
        """World-to-camera pose at time t."""
        ang = (np.asarray(self.ang_amp, dtype=np.float64)
               * np.sin(2.0 * np.pi * np.asarray(self.ang_freq) * t
                        + np.asarray(self.ang_phase)))
        # base attitude: optical axis along -z of the world (looking down)
        base = np.diag([1.0, -1.0, -1.0])
        r = (rotation_about([0, 0, 1], np.degrees(ang[2]))
             @ rotation_about([0, 1, 0], np.degrees(ang[1]))
             @ rotation_about([1, 0, 0], np.degrees(ang[0])) @ base)
        c = self.camera_center(t)
        return RigidPose(r, -r @ c)


@dataclass
class Scene:
    """Textured heightfield plus camera trajectory and intrinsics."""

    intrinsics: CameraIntrinsics
    width: int
    height: int
    texture_grid: np.ndarray  # coarse smooth albedo field
    rects: np.ndarray  # (R, 7) rows: cx, cy, half_w, half_h, cos, sin, delta
    height_grid: np.ndarray  # coarse relief field, scaled by the amplitude
    height_amplitude: float
    extent: float  # textured half-extent in world units
    trajectory: Trajectory
    duration: float = 4.0


def make_scene(seed: int = 0, width: int = 64, height: int = 64,
               n_rects: int = 14, height_amplitude: float = 0.08,
               motion_scale: float = 1.0, duration: float = 4.0) -> Scene:
    """Random scene, fully determined by the seed and the arguments.

    motion_scale multiplies every trajectory amplitude; 0 freezes the
    camera.  height_amplitude 0 degrades the surface to a plane.
    """
    if not np.isfinite(height_amplitude):
        raise ValueError(f"height_amplitude must be finite, got {height_amplitude}")
    rng = np.random.default_rng(seed)
    extent = 1.6
    texture_grid = rng.uniform(0.3, 0.7, (9, 9))
    rects = np.empty((n_rects, 7))
    for i in range(n_rects):
        cx, cy = rng.uniform(-1.1, 1.1, 2)
        w, h = rng.uniform(0.12, 0.5, 2)
        # random orientation: corner neighborhoods differ between rectangles,
        # which descriptor matching needs (axis-aligned corners all look alike)
        th = rng.uniform(0.0, np.pi)
        delta = rng.uniform(0.18, 0.38) * rng.choice([-1.0, 1.0])
        rects[i] = (cx, cy, w / 2, h / 2, np.cos(th), np.sin(th), delta)
    height_grid = rng.uniform(-1.0, 1.0, (5, 5))
    m = motion_scale
    trajectory = Trajectory(
        center=(0.0, 0.0, 1.0),
        lin_amp=tuple(m * a for a in (0.26, 0.21, 0.10)),
        lin_freq=(0.23, 0.31, 0.17),
        lin_phase=tuple(rng.uniform(0.0, 2.0 * np.pi, 3)),
        ang_amp=tuple(m * a for a in (0.06, 0.05, 0.12)),
        ang_freq=(0.19, 0.27, 0.13),
        ang_phase=tuple(rng.uniform(0.0, 2.0 * np.pi, 3)),
    )
    fx = 0.8 * width
    intr = CameraIntrinsics(fx=fx, fy=fx, cx=(width - 1) / 2.0,
                            cy=(height - 1) / 2.0)
    return Scene(intr, width, height, texture_grid, rects, height_grid,
                 float(height_amplitude), extent, trajectory, float(duration))


def _grid_xy(grid, x, y, extent):
    """Pixel coordinates in a coarse grid spread over [-extent, extent]^2
    of the world points (x, y)."""
    gh, gw = grid.shape
    return (x / extent * 0.5 + 0.5) * (gw - 1), (y / extent * 0.5 + 0.5) * (gh - 1)


def surface_height(scene: Scene, x, y):
    """Heightfield z = h(x, y); exactly 0 everywhere when the amplitude is 0."""
    if scene.height_amplitude == 0.0:
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
    u, v = _grid_xy(scene.height_grid, x, y, scene.extent)
    return scene.height_amplitude * _bilinear(scene.height_grid, u, v)


def surface_texture(scene: Scene, x, y):
    """Surface intensity in [0.05, 0.95]: smooth field plus rectangle steps."""
    u, v = _grid_xy(scene.texture_grid, x, y, scene.extent)
    tex = _bilinear(scene.texture_grid, u, v)
    for cx, cy, hw, hh, c, s, delta in scene.rects:
        u = (x - cx) * c + (y - cy) * s
        v = -(x - cx) * s + (y - cy) * c
        inside = (np.abs(u) < hw) & (np.abs(v) < hh)
        tex = tex + delta * inside
    return np.clip(tex, 0.05, 0.95)


def _illinois(f, a, b, fa, fb):
    """Per-element sign change of f between a and b by regula falsi.

    a, b, fa = f(a) and fb = f(b) are 1-D arrays, and f(x, idx) evaluates
    elements idx of f at x.  Each element steps to the regula-falsi point
    of its bracket, and the new point replaces the end of its own sign.
    Illinois modification: when two points in a row fall on the same side,
    the retained end's value is halved for the interpolation, so both ends
    converge.  Safeguard: when two steps in a row have not halved the
    bracket, the next step is the midpoint, so the bracket halves at least
    once every three evaluations.  Every evaluated point lies strictly
    inside its element's current bracket, so the bracket keeps a sign
    change of f if it started with one.  An element is done when its next
    regula-falsi point is not strictly inside the bracket, which includes
    f being 0 at an end; it then returns the end with the smaller |f|.
    """
    out = np.empty_like(a)
    idx = np.arange(len(a))
    inf = np.full_like(a, np.inf)
    # rows: b is the latest point and a the retained end; fa and fb are
    # their values, ga is fa as used for interpolation, and w1, w2 are the
    # bracket widths before the latest step and the one ahead of it
    state = np.stack([a, b, fa, fb, fa, inf, inf])
    while True:
        a, b, fa, fb, ga, w1, w2 = state
        w = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - fb * (w / (fb - ga))
        live = (x - a) * (x - b) < 0
        x = np.where(np.abs(w) > 0.5 * w2, a + 0.5 * w, x)
        if not live.all():
            stop = ~live
            out[idx[stop]] = np.where(np.abs(fa[stop]) < np.abs(fb[stop]),
                                      a[stop], b[stop])
            state, idx, x, w = state[:, live], idx[live], x[live], w[live]
            if not len(idx):
                return out
            a, b, fa, fb, ga, w1, w2 = state
        fx = f(x, idx)
        # x and b on opposite sides: b becomes the retained end; otherwise
        # a is retained once more and its value halved
        turn = (fx > 0) != (fb > 0)
        ga *= 0.5
        np.copyto(ga, fb, where=turn)
        np.copyto(a, b, where=turn)
        np.copyto(fa, fb, where=turn)
        b[:] = x
        fb[:] = fx
        w2[:] = w1
        w1[:] = np.abs(w)


def render(scene: Scene, t: float):
    """Render (image, depth) at time t by per-pixel ray casting.

    Rays are parametrized by the camera-frame depth lambda, so the returned
    depth map is directly the projective depth used everywhere else.  Each
    ray's depth is a sign change of its height above the surface, found by
    ``_illinois`` between lambda = 1e-3 and the depth where the ray reaches
    the lowest possible surface height; it stops when the next regula-falsi
    point would not lie strictly inside the bracket.  The camera must be
    above the surface and every ray must reach it; anything else (camera
    inside the geometry, rays escaping the scene) is an error.
    """
    pose = scene.trajectory.pose(t)
    intr = scene.intrinsics
    h, w = scene.height, scene.width
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    dirs = np.stack([(xs - intr.cx) / intr.fx, (ys - intr.cy) / intr.fy,
                     np.ones_like(xs)], axis=-1)  # camera frame, unit depth
    r_wc = pose.rotation.T
    c = pose.inverse().translation  # camera center in world coords
    dirs_w = dirs @ r_wc.T  # world direction per unit camera depth

    floor_z = min(0.0, -abs(scene.height_amplitude) * np.abs(scene.height_grid).max())
    dz = dirs_w[..., 2]
    if np.any(dz >= -1e-9):
        raise ValueError(f"camera rays do not descend onto the surface at t={t}")
    rays = dirs_w.reshape(-1, 3)
    lo = np.full(h * w, 1e-3)
    hi = (floor_z - c[2]) / rays[:, 2]  # depth where a ray reaches the lowest surface

    def above(lmb, idx=slice(None)):
        p = c + lmb[:, None] * rays[idx]
        return p[:, 2] - surface_height(scene, p[:, 0], p[:, 1])

    f_lo = above(lo)
    if np.any(f_lo <= 0):
        raise ValueError(f"camera is inside or below the surface at t={t}")
    depth = _illinois(above, lo, hi, f_lo, above(hi)).reshape(h, w)
    p = c[None, None, :] + depth[..., None] * dirs_w
    image = surface_texture(scene, p[..., 0], p[..., 1])
    return image, depth


def events_from_log_frames(log_frames, times, contrast: float) -> EventStream:
    """Contrast-threshold events from densely sampled log-intensity frames.

    The stream's window runs from the first to the last sample time.  Each
    pixel keeps a quantized reference level; when the linearly
    interpolated signal between consecutive samples moves n full contrast
    steps away from it, n events fire at the interpolated crossing times
    and the reference moves by n steps.  A monotone step of exactly 2C
    therefore yields exactly 2 events, and reversing the signal flips the
    polarity of the next events.
    """
    frames = np.asarray(log_frames, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if frames.ndim != 3 or len(frames) != len(times):
        raise ValueError("expected (T, H, W) frames aligned with T times")
    if not 0 < contrast < np.inf:
        raise ValueError(f"contrast must be positive and finite, got {contrast}")
    h, w = frames.shape[1:]
    yy, xx = np.mgrid[0:h, 0:w]
    xx = xx.ravel()
    yy = yy.ravel()

    ref = frames[0].reshape(-1).copy()
    ev_x, ev_y, ev_t, ev_p = [], [], [], []
    for k in range(len(frames) - 1):
        prev = frames[k].reshape(-1)
        nxt = frames[k + 1].reshape(-1)
        delta = nxt - ref
        # tiny relative slack so an exact n*C step fires exactly n events
        n = np.floor(np.abs(delta) / contrast + 1e-9).astype(np.int64)
        if n.max() == 0:
            continue
        sign = np.sign(delta)
        seg = nxt - prev
        seg_safe = np.where(seg == 0.0, 1.0, seg)
        for i in range(1, int(n.max()) + 1):
            live = n >= i
            level = ref[live] + sign[live] * i * contrast
            frac = np.clip((level - prev[live]) / seg_safe[live], 0.0, 1.0)
            ev_x.append(xx[live])
            ev_y.append(yy[live])
            ev_t.append(times[k] + frac * (times[k + 1] - times[k]))
            ev_p.append(sign[live].astype(np.int8))
        ref += sign * n * contrast

    if ev_x:
        x = np.concatenate(ev_x)
        y = np.concatenate(ev_y)
        ts = np.concatenate(ev_t)
        ps = np.concatenate(ev_p)
        order = np.argsort(ts, kind="stable")
        x, y, ts, ps = x[order], y[order], ts[order], ps[order]
    else:
        x = np.zeros(0, np.int64)
        y = np.zeros(0, np.int64)
        ts = np.zeros(0)
        ps = np.zeros(0, np.int8)
    return EventStream(x, y, ts, ps, width=w, height=h,
                       t_start=float(times[0]), t_end=float(times[-1]))


def _simulate(scene, t_start, t_end, contrast, dt_sim):
    """Simulate the event camera over [t_start, t_end]; returns the
    EventStream and the (image, depth) render at t_end.

    The renderer is sampled every dt_sim seconds (endpoints included) and
    the log intensities drive the contrast-threshold model, so a static
    camera yields an empty stream.  linspace ends exactly at t_end, so the
    last simulated frame is the frame at t_end and is not rendered again.
    """
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    if not 0 < dt_sim < np.inf:
        raise ValueError(f"dt_sim must be positive and finite, got {dt_sim}")
    n_steps = max(int(np.ceil((t_end - t_start) / dt_sim)), 1)
    times = np.linspace(t_start, t_end, n_steps + 1)
    frames = []
    for t in times:
        last = render(scene, t)
        frames.append(np.log(last[0]))
    events = events_from_log_frames(np.stack(frames), times, contrast)
    return events, last


def overlap_score(scene: Scene, t_a: float, t_b: float) -> float:
    """Symmetric co-visibility of two viewpoints in [0, 1].

    For each direction, every pixel is unprojected with its rendered depth,
    carried into the other view, and counted when it lands in frame with
    depth agreeing to 10 percent with the depth rendered there.  The score
    is the smaller fraction of the two directions.
    """
    _, depth_a = render(scene, t_a)
    _, depth_b = render(scene, t_b)
    pose_a = scene.trajectory.pose(t_a)
    pose_b = scene.trajectory.pose(t_b)

    def direction(depth_src, depth_dst, rel):
        h, w = depth_src.shape
        _, proj, z = _carry_grid(scene, depth_src, rel)
        ix = np.clip(np.round(proj[:, 0]).astype(np.int64), 0, w - 1)
        iy = np.clip(np.round(proj[:, 1]).astype(np.int64), 0, h - 1)
        observed = depth_dst[iy, ix]
        return np.count_nonzero(np.abs(z - observed) / observed < 0.1) / depth_src.size

    return float(min(direction(depth_a, depth_b, relative_pose(pose_a, pose_b)),
                     direction(depth_b, depth_a, relative_pose(pose_b, pose_a))))


@dataclass
class LFDSample:
    """One aligned observation: events over [t - delta_t, t], frame at t."""

    t: float
    events: EventStream
    image: np.ndarray
    depth: np.ndarray
    pose: RigidPose


def make_sample(scene: Scene, t: float, delta_t: float = 0.05,
                contrast: float = 0.2, dt_sim: float = 1e-3) -> LFDSample:
    events, (image, depth) = _simulate(scene, t - delta_t, t, contrast, dt_sim)
    return LFDSample(float(t), events, image, depth, scene.trajectory.pose(t))


def make_lfd_dataset(scene: Scene, n: int, delta_t: float = 0.05,
                     seed: int = 0, contrast: float = 0.2,
                     dt_sim: float = 1e-3):
    """n aligned samples at random times, sorted chronologically."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(delta_t, scene.duration, n))
    return [make_sample(scene, t, delta_t, contrast, dt_sim) for t in times]


@dataclass
class Benchmark:
    """Evaluation pairs over a shared sample list.

    pairs rows are (events sample index, image sample index, overlap).
    """

    samples: list
    pairs: list = field(default_factory=list)


def _carry_grid(scene, depth, rel, stride=1):
    """Carry the pixels of a stride grid into another view with their depth.

    rel maps the depth map's camera frame into the other view.  Returns
    the (N, 2) grid pixels with positive depth that land in frame in front
    of the other camera, their (N, 2) reprojections and their (N,)
    camera-frame depths in the other view.
    """
    h, w = depth.shape
    xs, ys = np.meshgrid(np.arange(0, w, stride, dtype=np.float64),
                         np.arange(0, h, stride, dtype=np.float64))
    px = np.stack([xs.ravel(), ys.ravel()], axis=1)
    d = depth[::stride, ::stride].ravel()
    pts = rel.apply(unproject_many(px, d, scene.intrinsics))
    proj, valid = project_many(pts, scene.intrinsics)
    inside = (valid & (d > 0) & (proj[:, 0] >= 0) & (proj[:, 0] <= w - 1)
              & (proj[:, 1] >= 0) & (proj[:, 1] <= h - 1))
    return px[inside], proj[inside], pts[inside, 2]


def _rpe_filter_ok(scene, sample_a, sample_b):
    gt = relative_pose(sample_a.pose, sample_b.pose)
    pts_a, pts_b, _ = _carry_grid(scene, sample_a.depth, gt, stride=4)
    if len(pts_a) < 8:
        return False
    try:
        est = estimate_essential_ransac(pts_a, pts_b, scene.intrinsics,
                                        scene.intrinsics, seed=0)
    except EstimationFailed:
        return False
    try:  # a zero baseline leaves the translation error undefined
        r_err, t_err = pose_angular_errors(est, gt)
    except ValueError:
        return False
    return r_err < 1.0 and t_err < 1.0 and est.inlier_ratio > 0.9


def generate_benchmark(scene: Scene, n_pairs: int, delta_t: float = 0.05,
                       seed: int = 0, rpe_filter: bool = False,
                       overlap_range=(0.4, 0.8), max_attempts=None,
                       contrast: float = 0.2, dt_sim: float = 1e-3) -> Benchmark:
    """Rejection-sample evaluation pairs with moderate co-visibility.

    Candidate time pairs are accepted when their overlap score falls inside
    overlap_range; with rpe_filter, additionally only when two-view pose
    estimation on reprojection-exact matches recovers the ground-truth
    relative pose to 1 degree with inlier ratio above 0.9 (this discards
    near-degenerate geometry).  If the attempt budget runs out a partial
    benchmark is returned with a warning.
    """
    if n_pairs <= 0:
        raise ValueError("n_pairs must be positive")
    lo, hi = overlap_range
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("overlap_range must satisfy 0 <= lo < hi <= 1")
    if max_attempts is None:
        max_attempts = 60 * n_pairs
    rng = np.random.default_rng(seed)
    bench = Benchmark(samples=[])
    attempts = 0
    while len(bench.pairs) < n_pairs and attempts < max_attempts:
        attempts += 1
        t_a, t_b = rng.uniform(delta_t, scene.duration, 2)
        score = overlap_score(scene, t_a, t_b)
        if not (lo <= score <= hi):
            continue
        sample_a = make_sample(scene, t_a, delta_t, contrast, dt_sim)
        sample_b = make_sample(scene, t_b, delta_t, contrast, dt_sim)
        if rpe_filter and not _rpe_filter_ok(scene, sample_a, sample_b):
            continue
        i = len(bench.samples)
        bench.samples.extend([sample_a, sample_b])
        bench.pairs.append((i, i + 1, float(score)))
    if len(bench.pairs) < n_pairs:
        warnings.warn(
            f"benchmark budget exhausted: produced {len(bench.pairs)} of "
            f"{n_pairs} requested pairs in {attempts} attempts")
    return bench
