"""Event container, event masks and the binary EVT1 file format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimatch.events import (EventStream, accumulate_mask, load_events,
                             save_events)


def make_stream(n=20, width=16, height=12, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, 1.0, n))
    return EventStream(
        rng.integers(0, width, n), rng.integers(0, height, n), ts,
        rng.choice([-1, 1], n), width, height)


def test_stream_dtypes_and_len():
    s = make_stream()
    assert s.xs.dtype == np.int32 and s.ys.dtype == np.int32
    assert s.ts.dtype == np.float64 and s.ps.dtype == np.int8
    assert len(s) == 20


def test_stream_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="equal length"):
        EventStream([0, 1], [0], [0.0, 0.1], [1, 1], 4, 4)


def test_stream_rejects_out_of_range_coordinate():
    with pytest.raises(ValueError, match="event 1"):
        EventStream([0, 9], [0, 0], [0.0, 0.1], [1, 1], 4, 4)


def test_stream_rejects_bad_polarity():
    with pytest.raises(ValueError, match="polarity 0"):
        EventStream([0, 1], [0, 0], [0.0, 0.1], [1, 0], 4, 4)


def test_stream_rejects_decreasing_timestamps_and_keeps_ties():
    with pytest.raises(ValueError,
                       match=r"^event 2 at t=0\.1 s is earlier than event 1 at t=0\.2 s$"):
        EventStream([0, 1, 2], [0, 0, 0], [0.0, 0.2, 0.1], [1, -1, 1], 4, 4)
    # equal timestamps are accepted in the order given
    s = EventStream([3, 1, 2, 0], [0, 0, 0, 0], [0.2, 0.2, 0.2, 0.5],
                    [1, 1, -1, 1], 8, 4)
    assert list(s.xs) == [3, 1, 2, 0]
    assert list(s.ps) == [1, 1, -1, 1]


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_stream_rejects_non_finite_timestamps(t):
    # NaN compares false, so the order check alone would let it through
    with pytest.raises(ValueError,
                       match=rf"^event 1 has timestamp {t}, expected a finite value$"):
        EventStream([0, 1, 2], [0, 0, 0], [0.0, t, 0.5], [1, 1, -1], 4, 4)


def test_accumulate_mask_marks_event_pixels():
    s = EventStream([1, 1, 3], [2, 2, 0], [0.0, 0.1, 0.2], [1, -1, 1], 4, 4)
    m = accumulate_mask(s)
    assert m.shape == (4, 4) and m.dtype == np.uint8
    assert m[2, 1] == 1 and m[0, 3] == 1
    assert m.sum() == 2
    assert m.mean() == pytest.approx(2 / 16)


def test_binary_roundtrip_exact(tmp_path):
    s = make_stream(seed=3)
    # stamped k / 1e6, the double nearest k whole microseconds: bit exact
    s = EventStream(s.xs, s.ys, np.round(s.ts * 1e6) / 1e6, s.ps,
                    s.width, s.height)
    path = tmp_path / "ev.evt"
    save_events(path, s)
    back = load_events(path)
    assert back.width == s.width and back.height == s.height
    np.testing.assert_array_equal(back.xs, s.xs)
    np.testing.assert_array_equal(back.ys, s.ys)
    np.testing.assert_array_equal(back.ts, s.ts)
    np.testing.assert_array_equal(back.ps, s.ps)


def test_binary_empty_stream_roundtrip(tmp_path):
    s = EventStream([], [], [], [], 8, 6)
    path = tmp_path / "empty.evt"
    save_events(path, s)
    back = load_events(path)
    assert len(back) == 0 and back.width == 8 and back.height == 6


def test_load_truncated_file_raises(tmp_path):
    s = make_stream()
    path = tmp_path / "cut.evt"
    save_events(path, s)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="expected 20 records"):
        load_events(path)


def evt_bytes(width, height, records):
    """An EVT1 file holding (x, y, t_us, p) records in the given order."""
    return (b"EVT1" + struct.pack("<III", width, height, len(records))
            + b"".join(struct.pack("<HHqb3x", *r) for r in records))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 23),
                          st.integers(0, 10 ** 7), st.sampled_from([-1, 1])),
                max_size=200))
def test_binary_roundtrip_property(tmp_path_factory, rows):
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    ts = [r[2] / 1e6 for r in rows]
    ps = [r[3] for r in rows]
    order = np.argsort(ts, kind="stable")
    s = EventStream(np.asarray(xs)[order] if rows else [],
                    np.asarray(ys)[order] if rows else [],
                    np.asarray(ts)[order] if rows else [],
                    np.asarray(ps)[order] if rows else [], 32, 24)
    path = tmp_path_factory.mktemp("ev") / "p.evt"
    save_events(path, s)
    back = load_events(path)
    np.testing.assert_array_equal(back.xs, s.xs)
    np.testing.assert_array_equal(back.ts, s.ts)
    np.testing.assert_array_equal(back.ps, s.ps)


@pytest.mark.parametrize("width, height, records, cause", [
    (4, 4, [(1, 1, 0, 0)], "polarity 0"),
    (4, 4, [(4, 1, 0, 1)], "outside the 4x4 sensor"),
    (4, 4, [(1, 7, 0, -1)], "outside the 4x4 sensor"),
    (0, 4, [(0, 0, 0, 1)], "resolution must be positive"),
    (4, 4, [(0, 0, 2000, 1), (1, 0, 1000, -1)],
     r"event 1 at t=0\.001 s is earlier than event 0 at t=0\.002 s"),
])
def test_bad_record_names_the_file(tmp_path, width, height, records, cause):
    path = tmp_path / "bad.evt"
    path.write_bytes(evt_bytes(width, height, records))
    with pytest.raises(ValueError, match=rf"bad\.evt: .*{cause}"):
        load_events(path)


def test_foreign_file_names_the_file(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("x,y,t,p\n1,2,1000,1\n")
    with pytest.raises(ValueError, match=r"ev\.csv: not an EVT1 event file"):
        load_events(path)


def test_trailing_bytes_are_rejected(tmp_path):
    path = tmp_path / "long.evt"
    path.write_bytes(evt_bytes(4, 4, [(1, 1, 0, 1)]) + b"\0" * 16)
    with pytest.raises(ValueError, match=r"long\.evt: expected 1 records"):
        load_events(path)
