"""Synthetic scene rendering, event simulation and benchmark assembly."""

import dataclasses

import numpy as np
import pytest

from evimatch import datagen
from evimatch.datagen import (_illinois, events_from_log_frames,
                              generate_benchmark, make_lfd_dataset, make_sample,
                              make_scene, overlap_score, render, surface_height,
                              surface_texture)
from evimatch.events import EventStream
from evimatch.geometry import relative_pose

SCENE = make_scene(seed=0, width=32, height=32)


def test_make_scene_deterministic():
    a = make_scene(seed=4, width=32, height=32)
    b = make_scene(seed=4, width=32, height=32)
    np.testing.assert_array_equal(a.texture_grid, b.texture_grid)
    np.testing.assert_array_equal(a.height_grid, b.height_grid)


def test_scene_intrinsics_follow_resolution():
    s = make_scene(seed=0, width=64, height=48)
    assert s.intrinsics.fx == pytest.approx(0.8 * 64)
    assert s.intrinsics.cx == pytest.approx(31.5)
    assert s.intrinsics.cy == pytest.approx(23.5)


def test_texture_range():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, 500)
    ys = rng.uniform(-1.0, 1.0, 500)
    vals = surface_texture(SCENE, xs, ys)
    assert vals.min() >= 0.05 and vals.max() <= 0.95


def test_zero_amplitude_surface_is_flat():
    flat = make_scene(seed=1, width=32, height=32, height_amplitude=0.0)
    rng = np.random.default_rng(1)
    h = surface_height(flat, rng.uniform(-1, 1, 100), rng.uniform(-1, 1, 100))
    assert (h == 0.0).all()


def test_render_shapes_and_ranges():
    image, depth = render(SCENE, 0.7)
    assert image.shape == (32, 32) and depth.shape == (32, 32)
    assert image.min() >= 0.05 and image.max() <= 0.95
    assert (depth > 0).all()
    assert np.isfinite(depth).all()


def camera_rays(scene, t):
    """Camera center and per-pixel world ray directions per unit depth."""
    pose = scene.trajectory.pose(t)
    intr = scene.intrinsics
    ys, xs = np.mgrid[0:scene.height, 0:scene.width].astype(np.float64)
    dirs = np.stack([(xs - intr.cx) / intr.fx, (ys - intr.cy) / intr.fy,
                     np.ones_like(xs)], axis=-1)
    return pose.inverse().translation, dirs @ pose.rotation


def test_render_depth_consistent_with_surface():
    # every pixel, unprojected with its depth, lands on the surface
    for t in (0.3, 1.9, 3.4):
        _, depth = render(SCENE, t)
        c, rays = camera_rays(SCENE, t)
        world = c + depth[..., None] * rays
        gap = world[..., 2] - surface_height(SCENE, world[..., 0], world[..., 1])
        assert np.abs(gap).max() < 1e-12


def test_render_planar_depth_matches_closed_form():
    flat = make_scene(seed=2, width=32, height=32, height_amplitude=0.0)
    for t in (0.2, 1.3, 2.8):
        _, depth = render(flat, t)
        c, rays = camera_rays(flat, t)
        np.testing.assert_allclose(depth, (0.0 - c[2]) / rays[..., 2],
                                   rtol=1e-12, atol=0)


def bisection_depth(scene, t, steps=46):
    """Reference renderer depth: fixed-step bisection of each ray."""
    c, rays = camera_rays(scene, t)
    floor_z = min(0.0, -abs(scene.height_amplitude) * np.abs(scene.height_grid).max())
    lo = np.full(rays.shape[:2], 1e-3)
    hi = (floor_z - c[2]) / rays[..., 2]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        p = c + mid[..., None] * rays
        up = p[..., 2] > surface_height(scene, p[..., 0], p[..., 1])
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("scene", [SCENE, make_scene(seed=5)])
def test_render_depth_matches_bisection(scene):
    for t in (0.1, 1.7, 3.3):
        np.testing.assert_allclose(render(scene, t)[1], bisection_depth(scene, t),
                                   rtol=0, atol=1e-13)


def test_render_rejects_camera_below_surface():
    traj = dataclasses.replace(SCENE.trajectory, center=(0.0, 0.0, -0.5))
    below = dataclasses.replace(SCENE, trajectory=traj)
    with pytest.raises(ValueError, match="inside or below the surface"):
        render(below, 0.4)


def test_render_rejects_rays_that_do_not_descend():
    # pitched 1.5 rad from straight down: the upper image rows look up
    traj = dataclasses.replace(SCENE.trajectory, ang_amp=(0.0, 1.5, 0.0),
                               ang_freq=(0.0, 0.0, 0.0),
                               ang_phase=(0.0, np.pi / 2, 0.0))
    tilted = dataclasses.replace(SCENE, trajectory=traj)
    with pytest.raises(ValueError, match="do not descend"):
        render(tilted, 0.4)


def test_render_work_per_pixel(monkeypatch):
    # regula falsi with the Illinois modification needs a fraction of the
    # 47 evaluations per ray of a 46-step bisection
    calls = []

    def counted(scene, x, y):
        calls.append(np.size(x))
        return surface_height(scene, x, y)

    monkeypatch.setattr(datagen, "surface_height", counted)
    for t in (0.1, 1.7, 3.3):
        calls.clear()
        render(SCENE, t)
        assert sum(calls) / (SCENE.width * SCENE.height) < 8.0


def kink(x):
    """Slope 1 left of 0.3 and 1e-12 right of it."""
    return np.where(x < 0.3, x - 0.3, 1e-12 * (x - 0.3))


# functions on which plain regula falsi stalls or has nothing left to do:
# (f, bracket ends, root, whether the root is recovered to 1e-12)
STALLS = {
    "flat_left": (lambda x: x ** 10 - 0.5 ** 10, 0.0, 1.3, 0.5, True),
    "flat_right": (lambda x: 1.0 - np.exp(-30.0 * (x - 0.2)), 0.0, 3.0, 0.2, True),
    "near_step": (lambda x: np.tanh(50.0 * (x - 0.3)), 0.0, 1.0, 0.3, True),
    "near_step_falling": (lambda x: -np.tanh(50.0 * (x - 0.77)), 0.0, 1.0, 0.77, True),
    "triple_root": (lambda x: (x - 0.4) ** 3, 0.0, 1.0, 0.4, True),
    "root_at_lower_end": (lambda x: x - 0.25, 0.25, 2.0, 0.25, True),
    "root_at_upper_end": (lambda x: 2.0 - x, 0.5, 2.0, 2.0, True),
    # the stopping rule trusts |f|: on a side this flat, |f| is below 1e-17
    # far from the root, so only the bracket and the bound are guaranteed
    "flat_side_kink": (kink, 0.0, 1.0, 0.3, False),
}


@pytest.mark.parametrize("name", sorted(STALLS))
def test_illinois_stays_bracketed_and_bounded(name):
    g, a, b, root, exact = STALLS[name]
    seen = []

    def f(x, idx):
        assert idx.tolist() == [0]
        seen.append(float(x[0]))
        return g(x)

    x = float(_illinois(f, np.array([a]), np.array([b]), g(np.array([a])),
                        g(np.array([b])))[0])
    # every evaluation lies strictly inside the bracket of sign changes
    lo, hi = a, b
    for p in seen:
        assert lo < p < hi
        if (g(p) > 0) == (g(lo) > 0):
            lo = p
        else:
            hi = p
    # the result is the end of the last bracket with the smaller |f|, and
    # the bracket holds a sign change
    assert x == (lo if abs(g(lo)) < abs(g(hi)) else hi)
    assert g(x) == 0 or (g(lo) > 0) != (g(hi) > 0)
    assert abs(g(x)) < 1e-15
    if exact:
        assert x == pytest.approx(root, rel=1e-12, abs=0)
    # the bracket halves at least once every three evaluations until no
    # float lies strictly inside it
    halvings = np.ceil(np.log2((b - a) / np.spacing(root)))
    assert len(seen) <= 3 * halvings


def test_illinois_elements_are_independent():
    # each element converges as it would alone, whatever the others do
    roots = np.random.default_rng(0).uniform(0.05, 0.95, 50)

    def f(x, idx):
        return np.tanh(50.0 * (x - roots[idx]))

    a, b = np.zeros(len(roots)), np.ones(len(roots))
    x = _illinois(f, a, b, f(a, np.arange(50)), f(b, np.arange(50)))
    np.testing.assert_allclose(x, roots, rtol=1e-12, atol=0)
    for i in range(len(roots)):
        def fi(xi, idx):
            return np.tanh(50.0 * (xi - roots[i]))
        alone = _illinois(fi, a[:1], b[:1], fi(a[:1], None), fi(b[:1], None))
        assert alone[0] == x[i]


def test_trajectory_pose_is_rigid():
    for t in (0.0, 0.5, 1.7):
        pose = SCENE.trajectory.pose(t)
        np.testing.assert_allclose(pose.rotation @ pose.rotation.T, np.eye(3),
                                   atol=1e-12)


def test_trajectory_moves():
    c0 = SCENE.trajectory.camera_center(0.0)
    c1 = SCENE.trajectory.camera_center(1.0)
    assert np.linalg.norm(c1 - c0) > 1e-3


def flat_frames(value, n=4, size=4):
    return np.full((n, size, size), value)


def test_static_signal_yields_no_events():
    ev = events_from_log_frames(flat_frames(0.3), np.linspace(0, 1, 4), 0.2)
    assert len(ev) == 0


def test_exact_two_step_yields_two_events():
    frames = np.zeros((2, 1, 1))
    frames[1, 0, 0] = 0.4  # exactly 2 * contrast
    ev = events_from_log_frames(frames, np.array([0.0, 1.0]), 0.2)
    assert len(ev) == 2
    assert (ev.ps == 1).all()
    # crossings at the interpolated times of 1C and 2C
    np.testing.assert_allclose(ev.ts, [0.5, 1.0], atol=1e-9)


def test_sub_threshold_change_is_silent():
    frames = np.zeros((2, 1, 1))
    frames[1, 0, 0] = 0.19
    ev = events_from_log_frames(frames, np.array([0.0, 1.0]), 0.2)
    assert len(ev) == 0


def test_reversal_flips_polarity():
    frames = np.zeros((3, 1, 1))
    frames[1, 0, 0] = 0.25   # one positive event
    frames[2, 0, 0] = 0.0    # back down: one negative event
    ev = events_from_log_frames(frames, np.array([0.0, 1.0, 2.0]), 0.2)
    assert list(ev.ps) == [1, -1]


def test_reference_is_quantized_not_reset():
    # climb 0.25 then another 0.25: second event fires when the signal is
    # 2C past the original reference, not 1C past the peak
    frames = np.zeros((3, 1, 1))
    frames[1, 0, 0] = 0.25
    frames[2, 0, 0] = 0.50
    ev = events_from_log_frames(frames, np.array([0.0, 1.0, 2.0]), 0.2)
    assert len(ev) == 2
    # second crossing: ref 0.2 -> level 0.4, segment 0.25 -> 0.50
    assert ev.ts[1] == pytest.approx(1.0 + (0.4 - 0.25) / 0.25, abs=1e-9)


def test_events_sorted_and_positive_contrast_required():
    ev = events_from_log_frames(flat_frames(0.0), np.linspace(0, 1, 4), 0.2)
    assert isinstance(ev, EventStream)
    with pytest.raises(ValueError, match="contrast"):
        events_from_log_frames(flat_frames(0.0), np.linspace(0, 1, 4), 0.0)


def test_events_frame_time_mismatch():
    with pytest.raises(ValueError, match="aligned"):
        events_from_log_frames(flat_frames(0.0, n=3), np.linspace(0, 1, 4), 0.2)


def test_simulate_events_nonempty_and_windowed():
    ev = make_sample(SCENE, 0.25, delta_t=0.05, contrast=0.2, dt_sim=2e-3).events
    assert len(ev) > 0
    assert ev.ts.min() >= 0.2 - 1e-9 and ev.ts.max() <= 0.25 + 1e-9
    assert (np.diff(ev.ts) >= 0).all()
    # whole microseconds, as EVT1 stores them
    np.testing.assert_array_equal(ev.ts, np.round(ev.ts * 1e6) * 1e-6)


def test_simulate_events_validation():
    with pytest.raises(ValueError, match="t_end"):
        make_sample(SCENE, 0.5, delta_t=0.0)


def test_overlap_same_time_is_high():
    # not exactly 1.0 at coarse resolution: the depth check compares against
    # the rounded pixel, which misses some steep-surface boundary pixels
    assert overlap_score(SCENE, 0.8, 0.8) > 0.85


def test_overlap_decreases_with_separation():
    near = overlap_score(SCENE, 0.5, 0.6)
    far = overlap_score(SCENE, 0.5, 2.2)
    assert near > far
    assert 0.0 <= far <= 1.0


def test_overlap_order_invariant():
    assert overlap_score(SCENE, 0.4, 1.2) == pytest.approx(
        overlap_score(SCENE, 1.2, 0.4), abs=1e-12)


def test_make_sample_fields():
    s = make_sample(SCENE, 0.5, delta_t=0.05, dt_sim=2e-3)
    assert s.t == 0.5
    assert s.image.shape == (32, 32) and s.depth.shape == (32, 32)
    assert len(s.events) > 0
    assert s.events.ts[0] >= 0.45 - 1e-9 and s.events.ts[-1] <= 0.5 + 1e-9
    rel = relative_pose(s.pose, SCENE.trajectory.pose(0.5))
    np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)


def test_make_sample_renders_each_frame_once(monkeypatch):
    times = []

    def counting_render(scene, t):
        times.append(float(t))
        return render(scene, t)

    monkeypatch.setattr(datagen, "render", counting_render)
    s = make_sample(SCENE, 0.5, delta_t=0.05, dt_sim=1e-2)
    # the simulation's last frame is the sample's frame
    assert len(times) == len(set(times)) == 6 and times[-1] == 0.5
    image, depth = render(SCENE, 0.5)
    np.testing.assert_array_equal(s.image, image)
    np.testing.assert_array_equal(s.depth, depth)


def test_make_lfd_dataset_sorted_times():
    samples = make_lfd_dataset(SCENE, 5, delta_t=0.05, seed=2, dt_sim=4e-3)
    ts = [s.t for s in samples]
    assert ts == sorted(ts)
    assert all(0.05 <= t <= SCENE.duration for t in ts)
    assert len(samples) == 5


def test_make_lfd_dataset_validation():
    with pytest.raises(ValueError):
        make_lfd_dataset(SCENE, 0)


def test_generate_benchmark_pairs_in_range():
    bench = generate_benchmark(SCENE, 2, seed=3, dt_sim=4e-3,
                               overlap_range=(0.4, 0.8))
    assert len(bench.pairs) == 2
    for ia, ib, score in bench.pairs:
        assert 0.4 <= score <= 0.8
        assert bench.samples[ia].events is not None
        assert bench.samples[ib].image is not None
    assert len(bench.samples) == 4


def test_generate_benchmark_without_a_pair_raises():
    # an unsatisfiable overlap band accepts no pair at all
    with pytest.raises(ValueError, match=(
            r"^no pair with overlap in \[0\.0, 1e-06\]: benchmark budget exhausted: "
            r"produced 0 of 2 requested pairs in 5 attempts$")):
        generate_benchmark(SCENE, 2, seed=0, dt_sim=4e-3,
                           overlap_range=(0.0, 1e-6), max_attempts=5)


def test_generate_benchmark_partial_result_warns():
    # the whole band accepts the first candidate, and the budget ends there
    with pytest.warns(UserWarning, match="budget exhausted: produced 1 of 2 "
                                         "requested pairs in 1 attempts"):
        bench = generate_benchmark(SCENE, 2, seed=0, dt_sim=4e-3,
                                   overlap_range=(0.0, 1.0), max_attempts=1)
    assert len(bench.pairs) == 1 and len(bench.samples) == 2


def test_generate_benchmark_validation():
    with pytest.raises(ValueError, match="n_pairs"):
        generate_benchmark(SCENE, 0)
    with pytest.raises(ValueError, match="overlap_range"):
        generate_benchmark(SCENE, 1, overlap_range=(0.8, 0.4))
