"""Event streams from event cameras and their one file format, EVT1.

An event is a tuple (x, y, t, p): pixel coordinates, timestamp in seconds,
and polarity +1/-1 for a brightness increase/decrease.  A stream is its
events, in non-decreasing time order, and the sensor resolution; it stores
no window.  The tensor representations take a stream's window from its
first and last event, so a stream built in memory and the same stream read
back from disk give the same tensors.  ``save_events``/``load_events``
write and read the binary EVT1 layout that dataset directories store per
sample; it keeps timestamps in whole microseconds, and a stamp of k µs
reads back as k / 1e6, so a stream stamped k / 1e6 reloads bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

EVT_MAGIC = b"EVT1"
_EVT_DTYPE = np.dtype(
    [("x", "<u2"), ("y", "<u2"), ("t", "<i8"), ("p", "i1"), ("pad", "V3")])


@dataclass
class EventStream:
    """Events in non-decreasing time order plus the sensor resolution.

    Coordinates are stored as int32 arrays, timestamps as float64 seconds,
    polarities as int8 in {-1, +1}.  A non-finite timestamp, or one below
    its predecessor, is rejected; equal timestamps keep the order they were
    given in.
    """

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    ps: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        self.xs = np.ascontiguousarray(self.xs, dtype=np.int32)
        self.ys = np.ascontiguousarray(self.ys, dtype=np.int32)
        self.ts = np.ascontiguousarray(self.ts, dtype=np.float64)
        self.ps = np.ascontiguousarray(self.ps, dtype=np.int8)
        n = len(self.ts)
        if not (len(self.xs) == len(self.ys) == len(self.ps) == n):
            raise ValueError("event arrays must have equal length")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("sensor resolution must be positive")
        if n:
            bad = np.flatnonzero(
                (self.xs < 0) | (self.xs >= self.width)
                | (self.ys < 0) | (self.ys >= self.height)
            )
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"event {i} at ({int(self.xs[i])}, {int(self.ys[i])}) is outside "
                    f"the {self.width}x{self.height} sensor"
                )
            bad = np.flatnonzero((self.ps != 1) & (self.ps != -1))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"event {i} has polarity {int(self.ps[i])}, expected -1 or +1")
            bad = np.flatnonzero(~np.isfinite(self.ts))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"event {i} has timestamp {float(self.ts[i])}, "
                                 "expected a finite value")
            bad = np.flatnonzero(np.diff(self.ts) < 0)
            if bad.size:
                i = int(bad[0]) + 1
                raise ValueError(f"event {i} at t={float(self.ts[i])} s is earlier "
                                 f"than event {i - 1} at t={float(self.ts[i - 1])} s")

    def __len__(self):
        return len(self.ts)


def accumulate_mask(stream: EventStream) -> np.ndarray:
    """(H, W) uint8 map: 1 where at least one event fired, else 0."""
    m = np.zeros((stream.height, stream.width), dtype=np.uint8)
    m[stream.ys, stream.xs] = 1
    return m


def save_events(path, stream: EventStream):
    """Write a stream in the binary event format.

    Layout: magic "EVT1", u32 width, u32 height, u32 count, then one 16-byte
    record per event: u16 x, u16 y, i64 timestamp in microseconds, i8
    polarity, 3 pad bytes.  Little-endian throughout.
    """
    rec = np.zeros(len(stream), dtype=_EVT_DTYPE)
    rec["x"] = stream.xs
    rec["y"] = stream.ys
    rec["t"] = np.round(stream.ts * 1e6).astype(np.int64)
    rec["p"] = stream.ps
    with open(path, "wb") as f:
        f.write(EVT_MAGIC)
        f.write(struct.pack("<III", stream.width, stream.height, len(stream)))
        f.write(rec.tobytes())


def load_events(path) -> EventStream:
    """Load events written by ``save_events``.

    A bad magic, a header or record block of the wrong length, and any
    record the stream rejects (out-of-sensor coordinates, a polarity other
    than -1/+1, a zero resolution, a timestamp below its predecessor) raise
    ValueError naming the file.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != EVT_MAGIC:
        raise ValueError(f"{path}: not an EVT1 event file")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated header")
    w, h, count = struct.unpack_from("<III", raw, 4)
    if len(raw) - 16 != count * _EVT_DTYPE.itemsize:
        raise ValueError(f"{path}: expected {count} records after the header, "
                         f"found {len(raw) - 16} bytes")
    rec = np.frombuffer(raw, dtype=_EVT_DTYPE, offset=16)
    try:
        return EventStream(rec["x"], rec["y"], rec["t"] / 1e6, rec["p"], w, h)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
