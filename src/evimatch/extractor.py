"""Feature extractors and keypoint post-processing.

Two extractors produce the same kind of output: dense feature maps holding a
latent map at the backbone stride, a full-resolution detection score map,
and a full-resolution descriptor map, all plain arrays.  The student is a
small VGG-style convolutional net over event tensors, built on the autodiff
engine so it can be distilled: training runs the batched forward pass on
graph Tensors, and inference returns their arrays.  The teacher is
analytic: Harris corner strength for the score, windowed oriented-gradient
descriptors, and a fixed seeded lift of steerable gradient responses for
the latent map.  It needs no training, which keeps the whole distillation
pipeline self-contained, and its shape is fixed by the module's TEACHER_*
constants: 128 descriptor channels (8 orientations on a 4x4 tap grid) and
128 latent channels at stride 4.

Keypoint extraction is shared by both modalities: border removal, strict
non-maximum suppression with deterministic tie-breaking, top-k or threshold
selection, and bilinear descriptor sampling from the unit-normalized map
through the sampler in ``geometry``, normalizing only the pixels it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import _bilinear_taps, _blend
from .optim import load_module, save_module
from .representations import channel_count


@dataclass
class DenseMaps:
    """Dense extractor outputs: latent features, score map, descriptor map.

    feats is (C', H/s, W/s) for backbone stride s; score is (1, H, W);
    desc is (C_d, H, W); all three are float32 arrays.
    """

    feats: np.ndarray
    score: np.ndarray
    desc: np.ndarray


@dataclass(frozen=True)
class ExtractorConfig:
    """Architecture of the convolutional extractor.

    ``channels``/``pools`` describe the backbone: each block is a 3x3 conv
    plus ReLU, followed by 2x2 max pooling where pools is 2.  The product
    of pools is the backbone stride; the score and descriptor heads climb
    back to full resolution with one stride-2 transposed conv per pooling
    stage (their widths given by score_head/desc_head), ending in a 1x1
    projection.

    ``representation`` names the event tensor the student reads (one of
    ``representations.KINDS``) with in_channels bins; the time surface
    always has 2 channels.  Image extractors ignore it.
    """

    in_channels: int
    channels: tuple = (64, 64, 128, 128)
    pools: tuple = (1, 2, 1, 2)
    latent_dim: int = 128
    desc_dim: int = 128
    score_head: tuple = (64, 32)
    desc_head: tuple = (128, 64)
    representation: str = "voxel"

    def __post_init__(self):
        for name in ("in_channels", "channels", "latent_dim", "desc_dim",
                     "score_head", "desc_head"):
            if min(np.atleast_1d(getattr(self, name)), default=1) < 1:
                raise ValueError(f"{name} must be at least 1")
        if len(self.channels) != len(self.pools):
            raise ValueError("channels and pools must have equal length")
        if any(p not in (1, 2) for p in self.pools):
            raise ValueError("pool factors must be 1 or 2")
        ups = sum(1 for p in self.pools if p == 2)
        if len(self.score_head) != ups or len(self.desc_head) != ups:
            raise ValueError("head depth must match the number of pooling stages")
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
    """(name, shape, fan_in) per student parameter, in checkpoint order.

    Biases have fan_in 0.  Shapes only: nothing is allocated, so a loader
    can check a checkpoint against them before trusting its sizes.
    """
    layout = []

    def conv(name, c_out, c_in, k, transposed=False):
        shape = (c_in, c_out, k, k) if transposed else (c_out, c_in, k, k)
        layout.extend([(name + ".w", shape, c_in * k * k),
                       (name + ".b", (c_out,), 0)])

    c_in = config.in_channels
    for i, c_out in enumerate(config.channels):
        conv(f"backbone.{i}", c_out, c_in, 3)
        c_in = c_out
    conv("latent", config.latent_dim, c_in, 1)
    for head, widths, out_dim in (("score", config.score_head, 1),
                                  ("desc", config.desc_head, config.desc_dim)):
        c = c_in
        for i, width in enumerate(widths):
            conv(f"{head}.{i}", width, c, 4, transposed=True)
            c = width
        conv(f"{head}.out", out_dim, c, 1)
    return layout


def init_student(config: ExtractorConfig, seed: int = 0):
    """He-initialized parameter dict for the student architecture.

    The parameters come frozen: ``optim.fit`` turns gradients on while it
    trains them, so a forward pass on a fresh student records no graph.
    """
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in), shape).astype(np.float32)
                         if fan_in else np.zeros(shape, np.float32))
            for name, shape, fan_in in _student_layout(config)}


def forward_student_batch(x, params, config: ExtractorConfig):
    """Batched forward pass: (N, C, H, W) array -> (feats, score, desc) Tensors.

    The graph is recorded only when the parameters require gradients.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or x.shape[1] != config.in_channels:
        raise ValueError(
            f"expected (N, {config.in_channels}, H, W) input, got {x.shape}")
    h = Tensor(x)
    for i, pool in enumerate(config.pools):
        h = ad.relu(ad.conv2d(h, params[f"backbone.{i}.w"], params[f"backbone.{i}.b"],
                              stride=1, padding=1))
        if pool == 2:
            h = ad.max_pool2d(h, 2)
    feats = ad.conv2d(h, params["latent.w"], params["latent.b"])
    outs = []
    for head, widths in (("score", config.score_head), ("desc", config.desc_head)):
        t = h
        for i in range(len(widths)):
            t = ad.relu(ad.conv_transpose2d(t, params[f"{head}.{i}.w"],
                                            params[f"{head}.{i}.b"],
                                            stride=2, padding=1))
        outs.append(ad.conv2d(t, params[f"{head}.out.w"], params[f"{head}.out.b"]))
    score, desc = outs
    return feats, score, desc


def forward_student(tensor, params, config: ExtractorConfig) -> DenseMaps:
    """Run the student on one (C, H, W) event representation, for inference.

    Returns DenseMaps of arrays.  Training goes through
    ``forward_student_batch``, whose Tensors carry the graph.
    """
    data = np.asarray(tensor)
    if data.ndim != 3:
        raise ValueError(f"expected a (C, H, W) input, got shape {data.shape}")
    feats, score, desc = forward_student_batch(data[None], params, config)
    return DenseMaps(feats.data[0], score.data[0], desc.data[0])


# -- analytic teacher ---------------------------------------------------

# the teacher's fixed shape: 8 orientations on a 4x4 grid of taps 2 px apart
# make 128 descriptor channels; 128 latent channels at stride 4
TEACHER_ORIENTATIONS = 8
TEACHER_TAPS = (-3, -1, 1, 3)
TEACHER_LATENT_DIM = 128
TEACHER_STRIDE = 4
TEACHER_PROJECTION_SEED = 7
HARRIS_K = 0.04

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


def harris_score(img):
    """Harris corner response (k = HARRIS_K), clipped at 0 and scaled to peak 1."""
    iy, ix = np.gradient(img)
    sxx = _smooth(ix * ix)
    syy = _smooth(iy * iy)
    sxy = _smooth(ix * iy)
    r = sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2
    r = np.maximum(r, 0.0)
    peak = r.max()
    return r / peak if peak > 0 else r


def analytic_teacher(image) -> DenseMaps:
    """Dense maps for a grayscale image in [0, 1], no learning involved.

    score (1, H, W): normalized Harris response.  desc (128, H, W):
    mean-centred energies of TEACHER_ORIENTATIONS gradient orientations,
    each tapped at the TEACHER_TAPS x TEACHER_TAPS offsets around a pixel,
    unit-normalized per pixel.  feats (TEACHER_LATENT_DIM, H/4, W/4):
    steerable gradient responses of the TEACHER_STRIDE-downsampled image
    lifted by a fixed seeded projection, so the target latent space is
    reproducible across runs.  H and W must divide by TEACHER_STRIDE.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3 and img.shape[0] == 1:
        img = img[0]
    if img.ndim != 2:
        raise ValueError(f"expected a grayscale image, got shape {img.shape}")
    if img.min() < -1e-6 or img.max() > 1.0 + 1e-6:
        raise ValueError("image values must lie in [0, 1]")
    h, w = img.shape
    s = TEACHER_STRIDE
    if h % s or w % s:
        raise ValueError(f"image dims ({h}, {w}) must be divisible by stride {s}")

    score = harris_score(img)[None]

    iy, ix = np.gradient(img)
    n_orient, grid = TEACHER_ORIENTATIONS, len(TEACHER_TAPS)
    angles = 2.0 * np.pi * np.arange(n_orient) / n_orient
    desc = np.empty((n_orient * grid ** 2, h, w))
    # absolute-value responses over [0, pi) keep the targets a polarity-free
    # function of edge geometry (event data cannot resolve gradient sign);
    # centring each pixel's vector before normalization spreads pairwise
    # cosines instead of crowding the positive orthant
    desc_angles = np.pi * np.arange(n_orient) / n_orient
    # the tap at (dy, dx) reads pixel (y + dy, x + dx), clamped to the
    # image: a slice of the response edge-padded by the largest offset
    r = max(abs(t) for t in TEACHER_TAPS)
    for o, th in enumerate(desc_angles):
        resp = np.pad(_smooth(np.abs(np.cos(th) * ix + np.sin(th) * iy)), r,
                      mode="edge")
        for ti, dy in enumerate(TEACHER_TAPS):
            for tj, dx in enumerate(TEACHER_TAPS):
                desc[(o * grid + ti) * grid + tj] = resp[r + dy:r + dy + h,
                                                         r + dx:r + dx + w]
    desc = normalize_desc(desc - desc.mean(axis=0, keepdims=True))

    small = img.reshape(h // s, s, w // s, s).mean(axis=(1, 3))
    gy, gx = np.gradient(small)
    base = np.stack([np.cos(th) * gx + np.sin(th) * gy for th in angles])
    proj = np.random.default_rng(TEACHER_PROJECTION_SEED).normal(
        0.0, 1.0 / np.sqrt(n_orient), (TEACHER_LATENT_DIM, n_orient))
    feats = np.tensordot(proj, base, axes=1)

    return DenseMaps(feats.astype(np.float32), score.astype(np.float32),
                     desc.astype(np.float32))


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


def extract_keypoints(maps: DenseMaps, border: int = 4, nms_radius: int = 4,
                      k: int | None = 1024, threshold: float | None = None) -> KeypointSet:
    """Select keypoints from a score map and sample their descriptors.

    Pipeline: scores within ``border`` of any edge are dropped; strict-max
    NMS with row-major tie-breaking; then either the top ``k`` by score or
    everything above ``threshold``.  Only strictly positive scores can
    become keypoints, so a fully masked score map yields an empty set.
    Returned keypoints are ordered by descending score (ties by row-major
    index).  Descriptors are bilinearly sampled from the unit-normalized
    descriptor map and re-normalized.
    """
    if border < 0 or nms_radius < 0:
        raise ValueError("border and nms_radius must be non-negative")
    if threshold is None and (k is None or k <= 0):
        raise ValueError(f"k must be positive, got {k}")
    score = np.asarray(maps.score, dtype=np.float64)
    if score.ndim == 3:
        score = score[0]
    h, w = score.shape
    desc = np.asarray(maps.desc)

    s = score.copy()
    if border > 0:
        s[:border, :] = -np.inf
        s[-border:, :] = -np.inf
        s[:, :border] = -np.inf
        s[:, -border:] = -np.inf
    keep = nms_mask(s, nms_radius) & (s > 0) & np.isfinite(s)
    ys, xs = np.nonzero(keep)
    vals = s[ys, xs]
    order = np.lexsort((ys * w + xs, -vals))
    if threshold is not None:
        order = order[vals[order] > threshold]
    else:
        order = order[:k]
    if len(order) == 0:
        return KeypointSet.empty(desc.shape[0])
    pos = np.stack([xs[order], ys[order]], axis=1).astype(np.float64)
    # normalize only the pixels the sampler reads: np.take keeps the map's
    # layout, so each norm adds the channels in a whole-map norm's order
    # and the bytes equal those of sampling the normalized map
    taps, weights = _bilinear_taps(*desc.shape[1:], pos[:, 0], pos[:, 1])
    pix, inv = np.unique(np.concatenate(taps), return_inverse=True)
    unit = normalize_desc(np.take(desc.reshape(len(desc), -1), pix, axis=1))
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
    return load_module(path, ExtractorConfig,
                       lambda c: {n: s for n, s, _ in _student_layout(c)})
