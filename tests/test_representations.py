"""Voxel grid, time surface and event stack tensorizations: plain
(C, H, W) float32 arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimatch.events import EventStream
from evimatch.representations import (KINDS, build_representation,
                                      channel_count, event_stack,
                                      normalize_tensor, time_surface,
                                      voxel_grid)


def stream_from(rows, width=8, height=6):
    rows = sorted(rows, key=lambda r: r[2])
    if rows:
        xs, ys, ts, ps = zip(*rows)
    else:
        xs = ys = ts = ps = []
    return EventStream(xs, ys, ts, ps, width, height)


def test_voxel_shape_and_kind():
    v = voxel_grid(stream_from([(0, 0, 0.0, 1)]), bins=4)
    assert isinstance(v, np.ndarray)
    assert v.shape == (4, 6, 8) and v.dtype == np.float32


def test_voxel_boundary_events_land_in_end_bins():
    s = stream_from([(1, 1, 0.0, 1), (2, 2, 1.0, -1)])
    v = voxel_grid(s, bins=5)
    assert v[0, 1, 1] == 1.0
    assert v[4, 2, 2] == -1.0


def test_voxel_midpoint_splits_bilinearly():
    # t* = 0.5 * (bins-1) = 1.5 for bins=4: half into bin 1, half into bin 2
    s = stream_from([(0, 0, 0.0, 1), (3, 3, 1.0, 1), (1, 1, 0.5, 1)])
    v = voxel_grid(s, bins=4)
    assert v[1, 1, 1] == pytest.approx(0.5)
    assert v[2, 1, 1] == pytest.approx(0.5)


def test_voxel_mass_conservation():
    s = stream_from([(i % 8, i % 6, 0.013 * i, 1 if i % 3 else -1)
                     for i in range(40)])
    v = voxel_grid(s, bins=7)
    total = v.sum(dtype=np.float64)
    assert total == pytest.approx(float(s.ps.sum()), abs=1e-5)


def test_voxel_zero_duration_window():
    s = stream_from([(0, 0, 0.5, 1), (1, 0, 0.5, 1)])
    v = voxel_grid(s, bins=3)
    assert v[0].sum() == 2.0
    assert v[1:].sum() == 0.0


def test_voxel_single_bin():
    s = stream_from([(0, 0, 0.0, 1), (0, 0, 1.0, 1)])
    v = voxel_grid(s, bins=1)
    assert v[0, 0, 0] == 2.0


def test_voxel_rejects_zero_bins():
    with pytest.raises(ValueError):
        voxel_grid(stream_from([]), bins=0)


def test_time_surface_channels_and_decay():
    # a 1 s window: tau = 0.5
    s = stream_from([(1, 1, 0.0, -1), (2, 2, 1.0, 1)])
    t = time_surface(s)
    assert t.shape == (2, 6, 8) and t.dtype == np.float32
    # negative polarity in channel 0, positive in channel 1
    assert t[0, 1, 1] == pytest.approx(np.exp(-2.0), rel=1e-6)
    assert t[1, 2, 2] == pytest.approx(1.0)
    assert t[1, 1, 1] == 0.0


def test_time_surface_latest_event_wins():
    s = stream_from([(1, 1, 0.0, 1), (1, 1, 0.8, 1), (1, 1, 1.0, 1),
                     (0, 0, 1.0, 1)])
    t = time_surface(s)
    assert t[1, 1, 1] == pytest.approx(1.0)


def test_time_surface_default_tau_is_half_window():
    s = stream_from([(0, 0, 0.0, 1), (1, 1, 2.0, 1)])
    t = time_surface(s)
    # t_last = 0 at (0,0): exp(-(2-0)/1) with tau = dur/2 = 1
    assert t[1, 0, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)


def test_time_surface_zero_duration_writes_ones():
    s = stream_from([(0, 0, 0.5, 1), (1, 1, 0.5, -1)])
    t = time_surface(s)
    assert t[1, 0, 0] == 1.0
    assert t[0, 1, 1] == 1.0


def test_stack_slice_assignment():
    s = stream_from([(0, 0, 0.0, 1), (0, 0, 0.49, 1), (0, 0, 0.51, -1),
                     (0, 0, 1.0, -1)])
    t = event_stack(s, slices=2)
    assert t[0, 0, 0] == 2.0
    assert t[1, 0, 0] == -2.0


def test_stack_right_edge_closed():
    s = stream_from([(0, 0, 0.0, 1), (1, 1, 1.0, 1)])
    t = event_stack(s, slices=4)
    assert t[3, 1, 1] == 1.0


def test_normalize_keeps_zeros_and_standardizes_support():
    # no value equals the support mean, so everything stays nonzero
    data = np.zeros((1, 4, 4))
    data[0, 0, 0] = 1.0
    data[0, 0, 1] = 2.0
    data[0, 1, 1] = 4.0
    data[0, 2, 2] = 5.0
    t = normalize_tensor(data.astype(np.float32))
    assert t.dtype == np.float32
    vals = t[t != 0]
    assert np.abs(vals.mean()) < 1e-6
    assert vals.std() == pytest.approx(1.0, rel=1e-4)
    assert t[0, 3, 3] == 0.0


def test_normalize_constant_support_does_not_blow_up():
    data = np.zeros((1, 4, 4))
    data[0, 0, 0] = 2.0
    data[0, 1, 1] = 2.0
    t = normalize_tensor(data.astype(np.float32))
    assert np.isfinite(t).all()


def test_normalize_all_zero_unchanged():
    t = normalize_tensor(np.zeros((2, 3, 3), np.float32))
    assert t.dtype == np.float32 and (t == 0).all()


def test_build_representation_dispatch():
    s = stream_from([(0, 0, 0.0, 1), (1, 1, 1.0, -1)])
    for kind, bins, channels in (("voxel", 4, 4), ("time_surface", 4, 2),
                                 ("stack", 6, 6)):
        rep = build_representation(s, kind, bins=bins)
        assert rep.shape == (channels, 6, 8) and rep.dtype == np.float32
    with pytest.raises(ValueError, match="unknown representation"):
        build_representation(s, "histogram", bins=4)


def test_channel_count_per_kind():
    s = stream_from([(0, 0, 0.0, 1), (1, 1, 1.0, -1)])
    for kind in KINDS:
        assert channel_count(kind, 5) == len(build_representation(s, kind, bins=5))
    assert channel_count("time_surface", 5) == 2
    with pytest.raises(ValueError, match="unknown representation kind 'sae'"):
        channel_count("sae", 5)


def test_build_representation_standardize_flag():
    # the builders return raw grids; build_representation always standardizes
    s = stream_from([(0, 0, 0.0, 1), (1, 1, 1.0, 1), (2, 2, 0.5, 1)])
    raw = event_stack(s, slices=2)
    assert raw.max() == 1.0  # raw signed counts
    rep = build_representation(s, "stack", bins=2)
    assert rep.tobytes() == normalize_tensor(raw).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5),
                          st.floats(0.0, 1.0, allow_nan=False),
                          st.sampled_from([-1, 1])),
                min_size=1, max_size=60),
       st.integers(1, 8))
def test_voxel_mass_property(rows, bins):
    s = stream_from(rows)
    v = voxel_grid(s, bins=bins)
    assert v.sum(dtype=np.float64) == pytest.approx(
        float(s.ps.astype(np.float64).sum()), abs=1e-4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5),
                          st.floats(0.0, 1.0, allow_nan=False),
                          st.sampled_from([-1, 1])),
                min_size=1, max_size=60))
def test_time_surface_range_property(rows):
    t = time_surface(stream_from(rows))
    assert (t >= 0.0).all() and (t <= 1.0).all()
