"""Feature extractors and keypoint post-processing.

Two extractors produce the same kind of output: dense feature maps holding a
latent map at the backbone stride, a full-resolution detection score map,
and a descriptor map at the extractor's stride, all plain arrays.  The
student is a small VGG-style convolutional net over event tensors, built on
the autodiff engine so it can be distilled: training runs the batched
forward pass on graph Tensors, and inference returns their arrays.  It
follows SuperPoint (DeTone et al., arXiv:1712.07629): every convolution
keeps its input's size at stride 1 and has a bias, every downsampling is
a 2x2 max pool, and each head is a 3x3 conv plus ReLU and a 1x1
projection at the backbone stride s, the score head's s*s channels being
the pixels of each s x s cell (``cells_to_pixels`` lays them out).  The
teacher is analytic: Harris corner strength for the
score, windowed oriented-gradient descriptors at full resolution, and a
fixed seeded lift of steerable gradient responses for the latent map.  It
needs no training, which keeps the whole distillation pipeline
self-contained, and its shape is fixed by the module's TEACHER_* constants:
128 descriptor channels (8 orientations on a 4x4 tap grid) and 128 latent
channels at stride 4.  One function computes its unit descriptors at any
set of pixels: training reads them at every pixel as ``analytic_teacher``'s
full maps, while image keypoints (``teacher_keypoints``) are selected on
the Harris score first and compute descriptors only at the pixels the
sampler reads, with the same bytes.

Keypoint extraction is shared by both modalities: border removal, strict
non-maximum suppression with deterministic tie-breaking, top-k selection,
and bilinear descriptor sampling from the unit-normalized map, at any
stride, through the sampler in ``geometry``, normalizing only the pixels
it reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import _bilinear_taps, _blend
from .optim import load_module, save_module
from .representations import channel_count


# the teacher's fixed shape: 8 orientations on a 4x4 grid of taps 2 px apart
# make 128 descriptor channels; 128 latent channels at stride 4
TEACHER_ORIENTATIONS = 8
TEACHER_TAPS = (-3, -1, 1, 3)
TEACHER_LATENT_DIM = 128
TEACHER_STRIDE = 4
TEACHER_PROJECTION_SEED = 7
TEACHER_DESC_DIM = TEACHER_ORIENTATIONS * len(TEACHER_TAPS) ** 2


@dataclass
class DenseMaps:
    """Dense extractor outputs: latent features, score map, descriptor map.

    feats is (C', H/s, W/s) for backbone stride s; score is (1, H, W);
    desc is (C_d, H/t, W/t) at the extractor's stride t: 1 for the
    teacher, ``config.stride`` for the student.  All three are float32.
    """

    feats: np.ndarray
    score: np.ndarray
    desc: np.ndarray


@dataclass(frozen=True)
class ExtractorConfig:
    """Architecture of the convolutional extractor.

    ``channels``/``pools`` describe the backbone: each block is a 3x3 conv
    plus ReLU, followed by 2x2 max pooling where pools is 2.  The product
    of pools is the backbone stride s.  The score and descriptor heads
    stay at that stride: each is a 3x3 conv plus ReLU as wide as the last
    backbone block, then a 1x1 projection to s*s score cells or to
    desc_dim descriptor channels.  latent_dim and desc_dim default to the
    teacher's widths, which distillation requires.

    ``representation`` names the event tensor the student reads (one of
    ``representations.KINDS``) with in_channels bins; the time surface
    always has 2 channels.  Image extractors ignore it.
    """

    in_channels: int
    channels: tuple = (64, 64, 128, 128)
    pools: tuple = (1, 2, 1, 2)
    latent_dim: int = TEACHER_LATENT_DIM
    desc_dim: int = TEACHER_DESC_DIM
    representation: str = "voxel"

    def __post_init__(self):
        for name in ("in_channels", "channels", "latent_dim", "desc_dim"):
            if min(np.atleast_1d(getattr(self, name)), default=1) < 1:
                raise ValueError(f"{name} must be at least 1")
        if len(self.channels) != len(self.pools):
            raise ValueError("channels and pools must have equal length")
        if any(p not in (1, 2) for p in self.pools):
            raise ValueError("pool factors must be 1 or 2")
        n = channel_count(self.representation, self.in_channels)
        if n != self.in_channels:
            raise ValueError(f"a {self.representation} input has {n} channels, "
                             f"but in_channels is {self.in_channels}")

    @property
    def stride(self):
        return math.prod(self.pools)


@dataclass
class KeypointSet:
    """Sparse detections: (x, y) positions, unit descriptors, scores."""

    positions: np.ndarray  # (K, 2) float
    descriptors: np.ndarray  # (K, C_d) float32, unit rows (or zero)
    scores: np.ndarray  # (K,) float32

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        self.descriptors = np.asarray(self.descriptors, dtype=np.float32)
        self.scores = np.asarray(self.scores, dtype=np.float32).reshape(-1)
        if not (len(self.positions) == len(self.descriptors) == len(self.scores)):
            raise ValueError("positions, descriptors and scores must align")

    def __len__(self):
        return len(self.positions)

    @classmethod
    def empty(cls, desc_dim):
        return cls(np.zeros((0, 2)), np.zeros((0, desc_dim), np.float32),
                   np.zeros(0, np.float32))


# -- student ------------------------------------------------------------

def _student_layout(config: ExtractorConfig):
    """(name, shape) per student parameter, in checkpoint order.

    Shapes only: nothing is allocated, so a loader can check a checkpoint
    against them before trusting its sizes.
    """
    layout = []

    def conv(name, c_out, c_in, k):
        layout.extend([(name + ".w", (c_out, c_in, k, k)), (name + ".b", (c_out,))])

    c_in = config.in_channels
    for i, c_out in enumerate(config.channels):
        conv(f"backbone.{i}", c_out, c_in, 3)
        c_in = c_out
    conv("latent", config.latent_dim, c_in, 1)
    for head, out_dim in (("score", config.stride ** 2), ("desc", config.desc_dim)):
        conv(f"{head}.0", c_in, c_in, 3)
        conv(f"{head}.out", out_dim, c_in, 1)
    return layout


def init_student(config: ExtractorConfig, seed: int = 0):
    """He-initialized parameter dict for the student architecture.

    The parameters come frozen: ``optim.fit`` turns gradients on while it
    trains them, so a forward pass on a fresh student records no graph.
    """
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(0.0, math.sqrt(2.0 / math.prod(shape[1:])), shape)
                         .astype(np.float32) if name.endswith(".w")
                         else np.zeros(shape, np.float32))
            for name, shape in _student_layout(config)}


def forward_student_batch(x, params, config: ExtractorConfig):
    """Batched forward pass: (N, C, H, W) array -> (feats, score, desc) Tensors,
    all at the backbone stride s; score holds (N, s*s, H/s, W/s) cells.

    The graph is recorded only when the parameters require gradients.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or x.shape[1] != config.in_channels:
        raise ValueError(
            f"expected (N, {config.in_channels}, H, W) input, got {x.shape}")
    h = Tensor(x)
    for i, pool in enumerate(config.pools):
        h = ad.relu(ad.conv2d(h, params[f"backbone.{i}.w"], params[f"backbone.{i}.b"]))
        if pool == 2:
            h = ad.max_pool2d(h)
    feats = ad.conv2d(h, params["latent.w"], params["latent.b"])
    heads = []
    for head in ("score", "desc"):
        t = ad.relu(ad.conv2d(h, params[f"{head}.0.w"], params[f"{head}.0.b"]))
        heads.append(ad.conv2d(t, params[f"{head}.out.w"], params[f"{head}.out.b"]))
    score, desc = heads
    return feats, score, desc


def forward_student(tensor, params, config: ExtractorConfig) -> DenseMaps:
    """Run the student on one (C, H, W) event representation, for inference.

    Returns DenseMaps of arrays, the score back in (1, H, W) pixels.
    Training goes through ``forward_student_batch``, whose Tensors carry
    the graph.
    """
    data = np.asarray(tensor)
    if data.ndim != 3:
        raise ValueError(f"expected a (C, H, W) input, got shape {data.shape}")
    feats, score, desc = forward_student_batch(data[None], params, config)
    return DenseMaps(feats.data[0], cells_to_pixels(score.data, config.stride)[0],
                     desc.data[0])


def pixels_to_cells(x, s):
    """(N, 1, H, W) pixels -> (N, s*s, H/s, W/s) cells: channel k of cell
    (i, j) is pixel (s*i + k // s, s*j + k % s)."""
    n, _, h, w = x.shape
    if h % s or w % s:
        raise ValueError(f"a {h}x{w} map does not divide into {s}x{s} cells")
    return x.reshape(n, h // s, s, w // s, s).transpose(0, 2, 4, 1, 3).reshape(
        n, s * s, h // s, w // s)


def cells_to_pixels(x, s):
    """The inverse of ``pixels_to_cells``."""
    n, _, h, w = x.shape
    return x.reshape(n, s, s, h, w).transpose(0, 3, 1, 4, 2).reshape(n, 1, h * s, w * s)


# -- analytic teacher ---------------------------------------------------

HARRIS_K = 0.04
# a tap reads its response edge-padded by the largest offset
_TAP_PAD = max(abs(t) for t in TEACHER_TAPS)

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _filter1d(img, kernel, axis):
    r = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    padded = np.pad(img, pad, mode="reflect")
    out = np.zeros_like(img)
    for i, w in enumerate(kernel):
        sl = [slice(None)] * 2
        sl[axis] = slice(i, i + img.shape[axis])
        out += w * padded[tuple(sl)]
    return out


def _smooth(img):
    return _filter1d(_filter1d(img, _BINOMIAL5, 0), _BINOMIAL5, 1)


@functools.cache
def _teacher_projection():
    """The latent lift, a fixed function of TEACHER_PROJECTION_SEED, drawn
    once and read-only.  It is drawn on first use, not at import: that
    would import numpy.random, about 15 ms, into every process."""
    proj = np.random.default_rng(TEACHER_PROJECTION_SEED).normal(
        0.0, 1.0 / np.sqrt(TEACHER_ORIENTATIONS),
        (TEACHER_LATENT_DIM, TEACHER_ORIENTATIONS))
    proj.flags.writeable = False
    return proj


def harris_score(iy, ix):
    """Harris corner response (k = HARRIS_K) from an image's ``np.gradient``,
    clipped at 0 and scaled to peak 1."""
    sxx = _smooth(ix * ix)
    syy = _smooth(iy * iy)
    sxy = _smooth(ix * iy)
    r = sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2
    r = np.maximum(r, 0.0)
    peak = r.max()
    return r / peak if peak > 0 else r


def check_unit_image(img):
    """Raise unless every value of img is finite and in [0, 1] (± 1e-6)."""
    # written so that NaN, which compares False, fails too
    if not (img.min() >= -1e-6 and img.max() <= 1.0 + 1e-6):
        raise ValueError("image values must be finite and lie in [0, 1]")


def _teacher_input(image):
    """The checked (H, W) float64 image and its gradients (iy, ix)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3 and img.shape[0] == 1:
        img = img[0]
    if img.ndim != 2:
        raise ValueError(f"expected a grayscale image, got shape {img.shape}")
    check_unit_image(img)
    h, w = img.shape
    s = TEACHER_STRIDE
    if h % s or w % s:
        raise ValueError(f"image dims ({h}, {w}) must be divisible by stride {s}")
    return (img, *np.gradient(img))


def _teacher_responses(iy, ix):
    """(TEACHER_ORIENTATIONS, H + 2r, W + 2r): each orientation's smoothed
    absolute gradient response, edge-padded by r = _TAP_PAD."""
    # absolute-value responses over [0, pi) keep the targets a polarity-free
    # function of edge geometry (event data cannot resolve gradient sign)
    return np.stack([np.pad(_smooth(np.abs(np.cos(th) * ix + np.sin(th) * iy)),
                            _TAP_PAD, mode="edge")
                     for th in np.pi * np.arange(TEACHER_ORIENTATIONS)
                     / TEACHER_ORIENTATIONS])


def _teacher_columns(resp, pix):
    """The teacher's unit descriptors at flat pixel indices ``pix`` of the
    image whose ``_teacher_responses`` are ``resp``: (TEACHER_DESC_DIM,
    len(pix)) float32.

    Channel (o * 4 + i) * 4 + j reads orientation o at pixel (y + dy_i,
    x + dx_j) for TEACHER_TAPS dy_i, dx_j, clamped to the image.  Each
    column is centred and unit-normalized on its own, so the columns equal
    the same pixels of the full map bit for bit.
    """
    n, _, wp = resp.shape
    taps = _TAP_PAD + np.array(TEACHER_TAPS)
    offsets = (taps[:, None] * wp + taps[None, :]).reshape(-1, 1)
    y, x = np.divmod(np.asarray(pix, dtype=np.int64), wp - 2 * _TAP_PAD)
    # numpy sums axis 0 of a C-ordered block in order, as over the whole
    # map, unless the block is a lone column, which it sums pairwise: two
    # copies of a lone pixel keep the order
    at = y * wp + x if len(y) != 1 else np.repeat(y * wp + x, 2)
    desc = np.take(resp.reshape(n, -1), offsets + at, axis=1).reshape(-1, len(at))
    # centring each pixel's vector before normalization spreads pairwise
    # cosines instead of crowding the positive orthant
    desc -= desc.mean(axis=0, keepdims=True)
    return normalize_desc(desc)[:, :len(y)].astype(np.float32)


def analytic_teacher(image) -> DenseMaps:
    """Dense maps for a grayscale image in [0, 1], no learning involved.

    score (1, H, W): normalized Harris response.  desc (128, H, W):
    mean-centred energies of TEACHER_ORIENTATIONS gradient orientations,
    each tapped at the TEACHER_TAPS x TEACHER_TAPS offsets around a pixel,
    unit-normalized per pixel (``_teacher_columns`` at every pixel).  feats
    (TEACHER_LATENT_DIM, H/4, W/4): steerable gradient responses of the
    TEACHER_STRIDE-downsampled image lifted by a fixed seeded projection,
    so the target latent space is reproducible across runs.  H and W must
    divide by TEACHER_STRIDE.
    """
    img, iy, ix = _teacher_input(image)
    h, w = img.shape
    score = harris_score(iy, ix)[None]
    desc = _teacher_columns(_teacher_responses(iy, ix), np.arange(h * w)).reshape(-1, h, w)

    s = TEACHER_STRIDE
    small = img.reshape(h // s, s, w // s, s).mean(axis=(1, 3))
    gy, gx = np.gradient(small)
    angles = 2.0 * np.pi * np.arange(TEACHER_ORIENTATIONS) / TEACHER_ORIENTATIONS
    base = np.stack([np.cos(th) * gx + np.sin(th) * gy for th in angles])
    feats = np.tensordot(_teacher_projection(), base, axes=1)

    return DenseMaps(feats.astype(np.float32), score.astype(np.float32), desc)


def teacher_keypoints(image, border: int, nms_radius: int, k: int) -> KeypointSet:
    """``extract_keypoints(analytic_teacher(image), ...)``, bit for bit,
    without the full maps: keypoints are selected on the Harris score
    first, and descriptors are computed only at the pixels the sampler
    reads from them."""
    img, iy, ix = _teacher_input(image)
    return _keypoints(harris_score(iy, ix).astype(np.float32),
                      (TEACHER_DESC_DIM,) + img.shape,
                      lambda pix: _teacher_columns(_teacher_responses(iy, ix), pix),
                      border, nms_radius, k)


def normalize_desc(desc_map):
    """Scale each pixel's descriptor to unit L2 norm; zero vectors stay zero."""
    d = np.asarray(desc_map)
    n = np.sqrt((d.astype(np.float64) ** 2).sum(axis=0, keepdims=True))
    safe = np.where(n < 1e-12, 1.0, n)
    return (d / safe).astype(d.dtype)


def apply_event_mask(maps: DenseMaps, mask) -> DenseMaps:
    """Gate the score map by an (H, W) event mask (``accumulate_mask``)
    into a plain array, for inference; feats and desc pass through."""
    m = np.asarray(mask)
    score = maps.score
    if score.shape[-2:] != m.shape:
        raise ValueError(f"mask shape {m.shape} does not match score {score.shape}")
    return DenseMaps(maps.feats, score * m.reshape(score.shape).astype(np.float32),
                     maps.desc)


# -- keypoint extraction ------------------------------------------------

def _sliding_max(a, r):
    """Per-pixel max over the (2r+1)^2 window, int64 input, -inf padded."""
    out = a
    for axis in (0, 1):
        if r == 0:
            continue
        pad = [(0, 0), (0, 0)]
        pad[axis] = (r, r)
        padded = np.pad(out, pad, constant_values=np.iinfo(np.int64).min)
        acc = out.copy()
        for d in range(-r, r + 1):
            if d == 0:
                continue
            sl = [slice(None)] * 2
            sl[axis] = slice(r + d, r + d + a.shape[axis])
            np.maximum(acc, padded[tuple(sl)], out=acc)
        out = acc
    return out


def nms_mask(score, radius):
    """Survivors of strict-maximum NMS with row-major tie-breaking.

    A pixel survives iff no window neighbor beats it and no equal-valued
    neighbor precedes it in row-major order.  Implemented exactly by
    packing (score rank, reversed index) into one integer key per pixel.
    """
    h, w = score.shape
    _, rank = np.unique(score, return_inverse=True)
    rank = rank.reshape(h, w).astype(np.int64)
    key = rank * (h * w) + (h * w - 1 - np.arange(h * w, dtype=np.int64).reshape(h, w))
    return key == _sliding_max(key, radius)


def extract_keypoints(maps: DenseMaps, border: int, nms_radius: int,
                      k: int) -> KeypointSet:
    """Select keypoints from a score map and sample their descriptors.

    Pipeline: scores within ``border`` of any edge are dropped; strict-max
    NMS with row-major tie-breaking; then the top ``k`` by score, k a
    positive int.  Only strictly positive scores can become keypoints, so
    a fully masked score map yields an empty set.
    Returned keypoints are ordered by descending score (ties by row-major
    index).  Descriptors are bilinearly sampled from the unit-normalized
    descriptor map and re-normalized; pixel (x, y) of the score map reads
    an (h_d, w_d) descriptor map at ((x + 0.5) w_d/W - 0.5,
    (y + 0.5) h_d/H - 0.5), which is (x, y) at full resolution.
    """
    desc = np.asarray(maps.desc)
    # np.take keeps the map's layout, so each norm adds the channels in a
    # whole-map norm's order
    return _keypoints(maps.score, desc.shape,
                      lambda pix: np.take(desc.reshape(len(desc), -1), pix, axis=1),
                      border, nms_radius, k)


def _keypoints(score, desc_shape, columns, border, nms_radius, k):
    """``extract_keypoints`` on a score map, for a (C_d, h_d, w_d)
    descriptor map given by ``columns(pix)``: its (C_d, len(pix)) columns
    at the flat pixel indices pix, read only where the sampler reads."""
    if border < 0 or nms_radius < 0:
        raise ValueError("border and nms_radius must be non-negative")
    if not (isinstance(k, (int, np.integer)) and k > 0):
        raise ValueError(f"k must be a positive int, got {k!r}")
    score = np.asarray(score, dtype=np.float64)
    if score.ndim == 3:
        score = score[0]
    h, w = score.shape

    s = score.copy()
    if border > 0:
        s[:border, :] = -np.inf
        s[-border:, :] = -np.inf
        s[:, :border] = -np.inf
        s[:, -border:] = -np.inf
    keep = nms_mask(s, nms_radius) & (s > 0) & np.isfinite(s)
    ys, xs = np.nonzero(keep)
    vals = s[ys, xs]
    order = np.lexsort((ys * w + xs, -vals))[:k]
    if len(order) == 0:
        return KeypointSet.empty(desc_shape[0])
    pos = np.stack([xs[order], ys[order]], axis=1).astype(np.float64)
    # normalize only the pixels the sampler reads: the bytes equal those of
    # sampling the normalized map
    h_d, w_d = desc_shape[1:]
    at = (pos + 0.5) * (w_d / w, h_d / h) - 0.5
    taps, weights = _bilinear_taps(h_d, w_d, at[:, 0], at[:, 1])
    pix, inv = np.unique(np.concatenate(taps), return_inverse=True)
    unit = normalize_desc(columns(pix))
    descs = normalize_desc(_blend(unit, np.split(inv, 4), weights)).T
    return KeypointSet(pos, descs, vals[order].astype(np.float32))


# -- persistence --------------------------------------------------------

def save_extractor(path, params, config: ExtractorConfig):
    """Persist extractor params with the architecture embedded."""
    save_module(path, config, params)


def load_extractor(path):
    """Load frozen (params, config) from a checkpoint written by save_extractor.

    Malformed architecture entries, and missing, extra or mis-shaped
    parameters, raise ValueError with the offending name.
    """
    return load_module(path, ExtractorConfig, _student_layout)
