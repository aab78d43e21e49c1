"""Event streams from event cameras.

An event is a tuple (x, y, t, p): pixel coordinates, timestamp in seconds,
and polarity +1/-1 for a brightness increase/decrease.  Streams keep events
sorted by timestamp and know the sensor resolution and the closed interval
[t_start, t_end] they cover, which is how fixed-duration slices are fed to
the tensor representations.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

EVT_MAGIC = b"EVT1"
_EVT_RECORD = struct.Struct("<HHqb3x")


@dataclass
class EventStream:
    """Events sorted by timestamp plus the sensor resolution.

    Coordinates are stored as int32 arrays, timestamps as float64 seconds,
    polarities as int8 in {-1, +1}.  If the constructor receives unsorted
    timestamps it sorts them (stable, so same-timestamp order is kept) and
    sets ``resorted`` so callers can tell the input was out of order.

    ``t_start``/``t_end`` record the window this stream covers; the event
    simulator sets them and they default to the data extent.  Keeping them
    explicit matters for empty or one-sided windows, where the data extent
    alone cannot recover the interval.
    """

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    ps: np.ndarray
    width: int
    height: int
    t_start: float | None = None
    t_end: float | None = None
    resorted: bool = field(default=False, compare=False)

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
            if np.any(np.diff(self.ts) < 0):
                order = np.argsort(self.ts, kind="stable")
                self.xs = self.xs[order]
                self.ys = self.ys[order]
                self.ts = self.ts[order]
                self.ps = self.ps[order]
                self.resorted = True

    def __len__(self):
        return len(self.ts)

    def extent(self):
        """(t_start, t_end) of the window, falling back to the data extent.

        An empty stream with no recorded window returns (0.0, 0.0).
        """
        if self.t_start is not None and self.t_end is not None:
            return float(self.t_start), float(self.t_end)
        if len(self.ts):
            return float(self.ts[0]), float(self.ts[-1])
        return 0.0, 0.0


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
    rec = np.zeros(len(stream), dtype=np.dtype(
        [("x", "<u2"), ("y", "<u2"), ("t", "<i8"), ("p", "i1"), ("pad", "V3")]))
    rec["x"] = stream.xs
    rec["y"] = stream.ys
    rec["t"] = np.round(stream.ts * 1e6).astype(np.int64)
    rec["p"] = stream.ps
    with open(path, "wb") as f:
        f.write(EVT_MAGIC)
        f.write(struct.pack("<III", stream.width, stream.height, len(stream)))
        f.write(rec.tobytes())


def load_events(path, width=None, height=None) -> EventStream:
    """Load events from the binary format or its CSV variant.

    The two are distinguished by the leading magic bytes.  CSV rows are
    ``x,y,t_us,p`` with an optional header line; CSV carries no resolution,
    so width/height must be passed for it.  Out-of-range coordinates and
    malformed rows raise ValueError naming the offending record index.
    Unsorted timestamps are tolerated: the stream is sorted and flagged,
    and a warning is emitted.
    """
    with open(path, "rb") as f:
        head = f.read(4)
        if head == EVT_MAGIC:
            meta = f.read(12)
            if len(meta) != 12:
                raise ValueError(f"{path}: truncated header")
            w, h, count = struct.unpack("<III", meta)
            raw = f.read(count * _EVT_RECORD.size)
            if len(raw) != count * _EVT_RECORD.size:
                raise ValueError(
                    f"{path}: expected {count} records, file holds "
                    f"{len(raw) // _EVT_RECORD.size}")
            rec = np.frombuffer(raw, dtype=np.dtype(
                [("x", "<u2"), ("y", "<u2"), ("t", "<i8"), ("p", "i1"), ("pad", "V3")]))
            xs = rec["x"].astype(np.int32)
            ys = rec["y"].astype(np.int32)
            ts = rec["t"].astype(np.float64) * 1e-6
            ps = rec["p"].astype(np.int8)
        else:
            if width is None or height is None:
                raise ValueError("CSV event files need explicit width and height")
            f.seek(0)
            text = f.read().decode("ascii")
            xs, ys, ts, ps = _parse_csv_events(text, path)
            w, h = width, height
    stream = EventStream(xs, ys, ts, ps, w, h)
    if stream.resorted:
        warnings.warn(f"{path}: timestamps were not sorted; stream was re-sorted")
    return stream


def _parse_csv_events(text, path):
    xs, ys, ts, ps = [], [], [], []
    for lineno, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if lineno == 0 and any(c.isalpha() for c in line):
            continue  # header row
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno + 1}: expected 4 fields, got {len(parts)}")
        try:
            x, y, t_us, p = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ValueError(f"{path}: line {lineno + 1}: malformed record") from None
        xs.append(x)
        ys.append(y)
        ts.append(t_us * 1e-6)
        ps.append(p)
    return (np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64),
            np.asarray(ts, dtype=np.float64), np.asarray(ps, dtype=np.int64))
