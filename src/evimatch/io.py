"""File formats: images, depth maps, dumps, configs and dataset directories.

Everything here is deterministic byte-for-byte given the same inputs, which
is what makes rerun-identity of the pipeline testable.  Binary formats are
little-endian with short magic headers; text formats are plain ASCII with
full-precision floats (repr round-trips exactly).

Text record files (keypoint dumps, poses, pairs) hold one record
per line as whitespace-separated fields; blank lines and lines starting
with ``#`` are skipped.  ``key=value`` files (configs, intrinsics) follow
the same comment rule.  Every reader rejects malformed input with a
ValueError that names the file, and for text the line or key:
``path:line: expected `x y score```.

A dataset holds ``events/NNN.evt``, ``images/NNN.pgm`` and ``depth/NNN.f32``
per sample, ``intrinsics.txt`` and ``poses.txt`` (microsecond times, poses).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .datagen import LFDSample
from .events import load_events, save_events
from .extractor import KeypointSet, check_unit_image
from .geometry import CameraIntrinsics, RigidPose, quat_to_rotmat, rotmat_to_quat
from .matching import Assignment

DESC_MAGIC = b"DSC1"


def _rows(path, layout, types, make=lambda *fields: fields):
    """``make(*fields)`` per record, each field converted by its entry of
    ``types``; any failure is ``path:line: expected `layout```."""
    out = []
    with open(path, "rb") as f:
        for ln, raw in enumerate(f, 1):
            try:
                fields = raw.decode("utf-8").split()
                if not fields or fields[0].startswith("#"):
                    continue
                if len(fields) != len(types):
                    raise ValueError("wrong field count")
                out.append(make(*(t(v) for t, v in zip(types, fields))))
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: expected `{layout}`") from e
    return out


# -- portable graymaps ----------------------------------------------------

def save_pgm(path, image):
    """8-bit binary PGM; the float image in [0, 1] is quantized to 255 levels."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    check_unit_image(img)
    q = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def _pnm_tokens(raw, count, path):
    tokens = []
    pos = 0
    while len(tokens) < count:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated header")
        tokens.append(raw[start:pos])
    return tokens, pos + 1  # one whitespace byte separates header and data


def load_pgm(path):
    """Read a binary PGM back to floats in [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM file")
    tokens, off = _pnm_tokens(raw, 4, path)
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"{path}: bad header {b' '.join(tokens)!r}") from None
    if w <= 0 or h <= 0:
        raise ValueError(f"{path}: image size {w}x{h} is not positive")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    data = raw[off:off + w * h]
    if len(data) < w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w) / 255.0


def save_ppm(path, rgb):
    """Binary PPM (P6) from a (H, W, 3) uint8 array."""
    img = np.asarray(rgb, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) image, got shape {img.shape}")
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


# -- depth -----------------------------------------------------------------

def save_depth(path, depth):
    """Raw little-endian float32 H x W, row-major, no header."""
    arr = np.ascontiguousarray(np.asarray(depth), dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D depth map, got shape {arr.shape}")
    with open(path, "wb") as f:
        f.write(arr.tobytes())


def load_depth(path, width: int, height: int):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) != width * height * 4:
        raise ValueError(f"{path}: expected {width * height * 4} bytes for "
                         f"{width}x{height} float32, found {len(raw)}")
    return np.frombuffer(raw, dtype="<f4").reshape(height, width).astype(np.float64)


# -- keypoints and matches --------------------------------------------------

def descriptor_sidecar_path(path):
    return str(path) + ".desc"


def save_keypoints(path, kp: KeypointSet):
    """Text lines `x y score` plus a binary descriptor sidecar."""
    lines = []
    for (x, y), s in zip(kp.positions, kp.scores):
        lines.append(f"{float(x)!r} {float(y)!r} {float(s)!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))
    d = np.ascontiguousarray(kp.descriptors, dtype="<f4")
    with open(descriptor_sidecar_path(path), "wb") as f:
        f.write(DESC_MAGIC)
        f.write(struct.pack("<II", d.shape[0], d.shape[1] if d.ndim == 2 else 0))
        f.write(d.tobytes())


def load_keypoints(path) -> KeypointSet:
    rows = np.asarray(_rows(path, "x y score", (float,) * 3), np.float64).reshape(-1, 3)
    side = descriptor_sidecar_path(path)
    with open(side, "rb") as f:
        raw = f.read()
    if raw[:4] != DESC_MAGIC or len(raw) < 12:
        raise ValueError(f"{side}: not a descriptor sidecar")
    k, c = struct.unpack_from("<II", raw, 4)
    if k != len(rows):
        raise ValueError(f"{side}: {k} descriptors for {len(rows)} keypoints")
    if len(raw) != 12 + k * c * 4:
        raise ValueError(f"{side}: truncated descriptor data")
    desc = np.frombuffer(raw, dtype="<f4", offset=12).reshape(k, c)
    return KeypointSet(rows[:, :2].copy(), desc.copy(), rows[:, 2])


def save_matches(path, assignment: Assignment):
    """Text lines `i j score`."""
    lines = [f"{int(i)} {int(j)} {float(s)!r}"
             for (i, j), s in zip(assignment.matches, assignment.scores)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


# -- poses, intrinsics, configs ---------------------------------------------

def save_poses(path, times_us, poses):
    """Lines `t_us tx ty tz qx qy qz qw`, world-to-camera, scalar-last."""
    lines = []
    for t_us, pose in zip(times_us, poses):
        q = [float(v) for v in rotmat_to_quat(pose.rotation)]
        tx, ty, tz = (float(v) for v in pose.translation)
        lines.append(f"{int(t_us)} {tx!r} {ty!r} {tz!r} "
                     f"{q[0]!r} {q[1]!r} {q[2]!r} {q[3]!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def load_poses(path):
    """Returns aligned lists (times_us, poses)."""
    rows = _rows(path, "t_us tx ty tz qx qy qz qw", (int,) + (float,) * 7,
                 lambda t_us, *v: (t_us, RigidPose(quat_to_rotmat(v[3:]), v[:3])))
    return [t for t, _ in rows], [pose for _, pose in rows]


def save_intrinsics(path, intr: CameraIntrinsics, width: int, height: int):
    with open(path, "w") as f:
        f.write(f"fx={float(intr.fx)!r}\nfy={float(intr.fy)!r}\n"
                f"cx={float(intr.cx)!r}\ncy={float(intr.cy)!r}\n"
                f"width={int(width)}\nheight={int(height)}\n")


def load_intrinsics(path):
    """Returns (CameraIntrinsics, width, height)."""
    kv = load_config(path)
    values = []
    for key, kind in zip(("fx", "fy", "cx", "cy", "width", "height"),
                         (float,) * 4 + (int,) * 2):
        try:
            values.append(kind(kv[key]))
        except KeyError:
            raise ValueError(f"{path}: missing intrinsics key {key}") from None
        except ValueError:
            raise ValueError(f"{path}: {key}={kv[key]!r} is not {kind.__name__}") from None
    try:
        return CameraIntrinsics(*values[:4]), values[4], values[5]
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def format_config(values: dict) -> str:
    """key=value lines, keys sorted for stable output."""
    return "".join(f"{k}={values[k]}\n" for k in sorted(values))


def load_config(path) -> dict:
    """parse_config over a UTF-8 file."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return parse_config(raw.decode("utf-8"), path)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text at byte {e.start}") from None


def parse_config(text: str, path="config") -> dict:
    values = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


# -- dataset directories ------------------------------------------------------

def save_dataset(root, samples, intrinsics: CameraIntrinsics,
                 width: int, height: int):
    """Write the dataset directory layout for a list of aligned samples."""
    os.makedirs(os.path.join(root, "events"), exist_ok=True)
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    os.makedirs(os.path.join(root, "depth"), exist_ok=True)
    for i, s in enumerate(samples):
        save_events(os.path.join(root, "events", f"{i:03d}.evt"), s.events)
        save_pgm(os.path.join(root, "images", f"{i:03d}.pgm"), s.image)
        save_depth(os.path.join(root, "depth", f"{i:03d}.f32"), s.depth)
    save_poses(os.path.join(root, "poses.txt"),
               [int(round(s.t * 1e6)) for s in samples], [s.pose for s in samples])
    save_intrinsics(os.path.join(root, "intrinsics.txt"), intrinsics,
                    width, height)


def load_dataset(root):
    """Read a dataset directory back: (samples, intrinsics, width, height),
    one sample per row of ``poses.txt``; other files are ignored."""
    intr, width, height = load_intrinsics(os.path.join(root, "intrinsics.txt"))
    times_us, poses = load_poses(os.path.join(root, "poses.txt"))
    samples = []
    for i, t_us in enumerate(times_us):
        evt_path = os.path.join(root, "events", f"{i:03d}.evt")
        pgm_path = os.path.join(root, "images", f"{i:03d}.pgm")
        events, image = load_events(evt_path), load_pgm(pgm_path)
        for path, (w, h) in ((evt_path, (events.width, events.height)),
                             (pgm_path, image.shape[::-1])):
            if (w, h) != (width, height):
                raise ValueError(f"{path}: size {w}x{h} differs from the "
                                 f"{width}x{height} of intrinsics.txt")
        depth = load_depth(os.path.join(root, "depth", f"{i:03d}.f32"),
                           width, height)
        samples.append(LFDSample(t_us / 1e6, events, image, depth, poses[i]))
    return samples, intr, width, height


def save_pairs(path, pairs):
    """Benchmark list: lines `idx_events idx_image overlap`."""
    with open(path, "w") as f:
        f.write("".join(f"{int(i)} {int(j)} {float(ov)!r}\n"
                        for i, j, ov in pairs))


def load_pairs(path):
    return _rows(path, "idx_events idx_image overlap", (int, int, float))


# -- visualization -------------------------------------------------------------

def _draw_line(img, x0, y0, x1, y1, color):
    """Bresenham segment, clipped to the image."""
    h, w = img.shape[:2]
    x0, y0, x1, y1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= x0 < w and 0 <= y0 < h:
            img[y0, x0] = color
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_dot(img, x, y, color):
    h, w = img.shape[:2]
    xi, yi = int(round(x)), int(round(y))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if 0 <= yi + dy < h and 0 <= xi + dx < w:
                img[yi + dy, xi + dx] = color

GREEN = (40, 200, 40)
RED = (220, 50, 50)
DOT = (90, 140, 230)


def make_match_image(image_a, image_b, kp_a, kp_b, assignment: Assignment,
                     correct):
    """Side-by-side match visualization as an (H, W_a + 8 + W_b, 3) uint8
    array: the two images with an 8-pixel black gap between them.

    Lines are green for the matches whose ``correct`` flag is set and red
    for the others.
    """
    a = np.asarray(image_a, dtype=np.float64)
    b = np.asarray(image_b, dtype=np.float64)
    h = max(a.shape[0], b.shape[0])
    wa, wb = a.shape[1], b.shape[1]
    gap = 8
    canvas = np.zeros((h, wa + gap + wb, 3), dtype=np.uint8)
    canvas[:a.shape[0], :wa] = np.round(np.clip(a, 0, 1) * 255)[..., None]
    canvas[:b.shape[0], wa + gap:] = np.round(np.clip(b, 0, 1) * 255)[..., None]
    pa, pb = kp_a.positions, kp_b.positions
    for x, y in pa:
        _draw_dot(canvas, x, y, DOT)
    for x, y in pb:
        _draw_dot(canvas, x + wa + gap, y, DOT)
    if len(correct) != len(assignment):
        raise ValueError("correctness flags must align with the matches")
    for (i, j), ok in zip(assignment.matches, correct):
        _draw_line(canvas, pa[i, 0], pa[i, 1],
                   pb[j, 0] + wa + gap, pb[j, 1], GREEN if ok else RED)
    return canvas
