"""Dense tensor representations of event windows.

Each builder turns an event stream into a plain (C, H, W) float32 array
suitable for a convolutional extractor: a voxel grid with bilinear
splatting along time, a per-polarity exponential time surface, or a stack
of signed count images.  The window [t_start, t_end] that a builder
normalises time by runs from the stream's first event to its last, as in
the voxel grid of Zhu et al. (CVPR 2019); a stream stores no window, so
this is the same for a stream built in memory and one read from disk.
``normalize_tensor`` standardizes an array over its nonzero support only,
so sparse grids are not drowned by the zero background;
``build_representation`` always does.
Builders accumulate in float64 and round to float32 once, and
normalization works on those float32 values, so the extractor sees the
same bytes however a grid reaches it.
"""

from __future__ import annotations

import numpy as np

from .events import EventStream

KINDS = ("voxel", "time_surface", "stack")


def voxel_grid(stream: EventStream, bins: int) -> np.ndarray:
    """Signed polarity mass splatted bilinearly over `bins` temporal slices.

    Each event lands at the continuous bin coordinate
    t* = (t - t_start) / (t_end - t_start) * (bins - 1) and splits its
    polarity between floor(t*) and floor(t*)+1 with linear weights.  A
    zero-duration window puts everything in bin 0.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    grid = np.zeros((bins, stream.height, stream.width), dtype=np.float64)
    n = len(stream)
    if n:
        t0 = stream.ts[0]
        dur = stream.ts[-1] - t0
        if dur > 0 and bins > 1:
            tstar = (stream.ts - t0) / dur * (bins - 1)
        else:
            tstar = np.zeros(n)
        i0 = np.floor(tstar).astype(np.int64)
        np.clip(i0, 0, bins - 1, out=i0)
        frac = tstar - i0
        pix = stream.ys.astype(np.int64) * stream.width + stream.xs
        flat = grid.reshape(bins, -1)
        pol = stream.ps.astype(np.float64)
        np.add.at(flat, (i0, pix), pol * (1.0 - frac))
        right = i0 + 1 < bins
        np.add.at(flat, (i0[right] + 1, pix[right]), pol[right] * frac[right])
    return grid.astype(np.float32)


def time_surface(stream: EventStream) -> np.ndarray:
    """Exponential decay image of the most recent event per pixel.

    Two channels, negative polarity first: channel (p + 1) / 2 holds
    exp(-(t_end - t_last) / tau) where t_last is the newest event of that
    polarity at the pixel and tau is half the window duration; a
    zero-duration window writes 1.0 at every event pixel.
    """
    surf = np.zeros((2, stream.height, stream.width), dtype=np.float64)
    if len(stream):
        t1 = stream.ts[-1]
        tau = (t1 - stream.ts[0]) / 2.0
        # events are time-sorted, so later writes win: each pixel ends up
        # holding the timestamp of its most recent event of each polarity
        last = np.full((2, stream.height, stream.width), -np.inf)
        ch = ((stream.ps.astype(np.int64) + 1) // 2)
        last[ch, stream.ys, stream.xs] = stream.ts
        seen = np.isfinite(last)
        if tau > 0:
            surf[seen] = np.exp(-(t1 - last[seen]) / tau)
        else:
            surf[seen] = 1.0
    return surf.astype(np.float32)


def event_stack(stream: EventStream, slices: int) -> np.ndarray:
    """Signed event counts over equal-duration slices of the window.

    Slice k covers [t_start + k * dur / bins, t_start + (k+1) * dur / bins);
    the final slice is closed on the right so t == t_end is kept.
    """
    if slices < 1:
        raise ValueError("slices must be >= 1")
    grid = np.zeros((slices, stream.height, stream.width), dtype=np.float64)
    if len(stream):
        t0 = stream.ts[0]
        dur = stream.ts[-1] - t0
        if dur > 0:
            idx = np.floor((stream.ts - t0) / dur * slices).astype(np.int64)
            np.clip(idx, 0, slices - 1, out=idx)
        else:
            idx = np.zeros(len(stream), dtype=np.int64)
        pix = stream.ys.astype(np.int64) * stream.width + stream.xs
        np.add.at(grid.reshape(slices, -1), (idx, pix), stream.ps.astype(np.float64))
    return grid.astype(np.float32)


def normalize_tensor(tensor) -> np.ndarray:
    """Standardize to zero mean / unit std over the nonzero entries only.

    Zero entries stay exactly zero.  A std below 1e-6 is clamped to 1 so
    near-constant support does not blow up.  An all-zero array comes back
    unchanged.  The statistics are taken in float64; the result is float32.
    """
    data = np.asarray(tensor, dtype=np.float64)
    support = data != 0
    if not support.any():
        return data.astype(np.float32)
    vals = data[support]
    mean = vals.mean()
    std = vals.std()
    if std < 1e-6:
        std = 1.0
    out = np.zeros_like(data)
    out[support] = (vals - mean) / std
    return out.astype(np.float32)


def channel_count(kind: str, bins: int) -> int:
    """Channel count of ``build_representation(stream, kind, bins)``: 2 for
    the time surface, one per bin otherwise."""
    if kind not in KINDS:
        raise ValueError(f"unknown representation kind {kind!r}")
    return 2 if kind == "time_surface" else bins


def build_representation(stream: EventStream, kind: str, bins: int) -> np.ndarray:
    """Standardized (C, H, W) float32 grid of one window, by name (one of
    KINDS)."""
    if kind not in KINDS:
        raise ValueError(f"unknown representation kind {kind!r}")
    if kind == "time_surface":
        return normalize_tensor(time_surface(stream))
    return normalize_tensor((voxel_grid if kind == "voxel" else event_stack)(stream, bins))
