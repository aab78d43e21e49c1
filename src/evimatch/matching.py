"""Cross-modal keypoint matching: dual-softmax MNN and a learned matcher.

Two matchers share the Assignment interface.  mnn_match scores descriptor
pairs with a symmetric dual softmax and keeps strict mutual argmaxes; it
has no parameters.  The context-aware matcher refines both descriptor sets
jointly with a small pre-LN transformer (shared self-attention unit, shared
bidirectional cross-attention unit per layer), predicts a per-keypoint
matchability, and extracts matches from the matchability-weighted dual
softmax.  Ground-truth assignments for training come from reprojecting
keypoints across views with rendered depth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import (CameraIntrinsics, RigidPose, _bilinear, relative_pose,
                       reproject_many)
from .optim import fit, history_csv, load_module, save_module


@dataclass
class Assignment:
    """Matches between two keypoint sets: rows of (index_a, index_b).

    The match list is a partial bijection (each index appears at most
    once per side); scores are the soft assignment values in [0, 1].
    """

    matches: np.ndarray  # (M, 2) int64
    scores: np.ndarray  # (M,) float64

    def __post_init__(self):
        self.matches = np.asarray(self.matches, dtype=np.int64).reshape(-1, 2)
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if len(self.matches) != len(self.scores):
            raise ValueError("matches and scores must align")

    def __len__(self):
        return len(self.matches)

    @classmethod
    def empty(cls):
        return cls(np.zeros((0, 2), np.int64), np.zeros(0))


@dataclass
class GroundTruthMatches:
    """Reprojection-verified positives plus the provably unmatched indices.

    Every keypoint index of either set appears exactly once: in a match
    row or in the corresponding unmatched list.
    """

    matches: np.ndarray  # (M, 2) int64
    unmatched_a: np.ndarray  # (A,) int64
    unmatched_b: np.ndarray  # (B,) int64

    def __post_init__(self):
        self.matches = np.asarray(self.matches, dtype=np.int64).reshape(-1, 2)
        self.unmatched_a = np.asarray(self.unmatched_a, dtype=np.int64).reshape(-1)
        self.unmatched_b = np.asarray(self.unmatched_b, dtype=np.int64).reshape(-1)


def _log_softmax(s, axis):
    z = s - s.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def _mutual_nearest(cost):
    """(rows, cols) of the mutual argmins of a non-empty cost matrix.

    Ties go to the first occurrence along each axis; rows come out in
    increasing order.  Score matrices are passed negated.
    """
    best_j = np.argmin(cost, axis=1)
    best_i = np.argmin(cost, axis=0)
    rows = np.flatnonzero(best_i[best_j] == np.arange(cost.shape[0]))
    return rows, best_j[rows]


def mnn_match(kp_a, kp_b) -> Assignment:
    """Dual-softmax mutual-nearest-neighbor matching.

    Scores are S = D_a D_b^T; the soft assignment is
    exp(log_softmax_rows(S) + log_softmax_cols(S)), and matches are the
    strict mutual argmaxes of that matrix.  Swapping the inputs transposes
    the result exactly.
    """
    if len(kp_a) == 0 or len(kp_b) == 0:
        return Assignment.empty()
    s = kp_a.descriptors.astype(np.float64) @ kp_b.descriptors.astype(np.float64).T
    log_p = _log_softmax(s, axis=1) + _log_softmax(s, axis=0)
    rows, cols = _mutual_nearest(-log_p)
    return Assignment(np.stack([rows, cols], axis=1), np.exp(log_p[rows, cols]))


# -- context-aware matcher ----------------------------------------------

@dataclass(frozen=True)
class CAConfig:
    """Architecture of the context-aware matcher."""

    desc_dim: int = 128
    dim: int = 128
    layers: int = 2
    heads: int = 4
    pe_freqs: int = 4
    ffn_mult: int = 2
    image_size: tuple = (64, 64)  # (width, height) for coordinate normalization

    def __post_init__(self):
        for name in ("desc_dim", "dim", "heads", "pe_freqs", "ffn_mult",
                     "image_size"):
            if min(np.atleast_1d(getattr(self, name)), default=1) < 1:
                raise ValueError(f"{name} must be at least 1")
        if len(self.image_size) != 2:
            raise ValueError("image_size must be (width, height)")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if self.layers < 0:
            raise ValueError("layers must be non-negative")


@dataclass
class CAMatcherParams:
    """Config plus the flat name -> Tensor parameter dict."""

    config: CAConfig
    params: dict

    @classmethod
    def create(cls, config: CAConfig = CAConfig(), seed: int = 0):
        """Freshly initialized, frozen parameters; ``optim.fit`` turns
        gradients on while it trains them."""
        rng = np.random.default_rng(seed)
        p = {}
        for name, shape in _matcher_layout(config):
            if name.endswith(".w"):  # linear weight (n_in, n_out)
                data = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape)
            elif name.endswith(".g"):  # layer-norm gain
                data = np.ones(shape)
            elif name == "logit_scale":
                data = np.asarray(math.log(10.0))
            else:  # biases
                data = np.zeros(shape)
            p[name] = Tensor(data.astype(np.float32))
        return cls(config, p)


def _matcher_layout(config: CAConfig):
    """(name, shape) per matcher parameter, in checkpoint order.

    Shapes only: nothing is allocated, so a loader can check a checkpoint
    against them before trusting its sizes.
    """
    d = config.dim
    layout = []

    def linear(name, n_in, n_out):
        layout.extend([(name + ".w", (n_in, n_out)), (name + ".b", (n_out,))])

    def ln(name):
        layout.extend([(name + ".g", (d,)), (name + ".b", (d,))])

    linear("in_proj", config.desc_dim, d)
    linear("pe_proj", 4 * config.pe_freqs, d)
    for layer in range(config.layers):
        for unit in ("self", "cross"):
            base = f"layers.{layer}.{unit}"
            ln(base + ".ln1")
            for proj in ("wq", "wk", "wv", "wo"):
                linear(f"{base}.{proj}", d, d)
            ln(base + ".ln2")
            linear(base + ".ffn1", d, config.ffn_mult * d)
            linear(base + ".ffn2", config.ffn_mult * d, d)
    linear("out_proj", d, d)
    linear("match_head", d, 1)
    layout.append(("logit_scale", ()))
    return layout


def fourier_encoding(positions, config: CAConfig):
    """Positional features: sin/cos of dyadic frequencies of (x, y) in [0, 1].

    Coordinates are normalized by the configured image size; for each
    frequency f in 1, 2, 4, ..., 2^(F-1) the features are sin(f pi u) and
    cos(f pi u) for both axes, giving 4F values per keypoint.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    w, h = config.image_size
    u = pos / np.array([w, h], dtype=np.float64)
    freqs = 2.0 ** np.arange(config.pe_freqs)
    ang = np.pi * u[:, None, :] * freqs[None, :, None]  # (N, F, 2)
    feats = np.stack([np.sin(ang), np.cos(ang)], axis=2)  # (N, F, 2, 2)
    return feats.reshape(len(pos), 4 * config.pe_freqs)


def _scalar_like(value, t):
    # keep scalar constants in the graph dtype so float32 nets stay float32
    return Tensor(np.asarray(value, dtype=t.data.dtype))


def _linear(x, p, name):
    return ad.linear(x, p[name + ".w"], p[name + ".b"])


def _mha(xq, xkv, p, base, heads):
    """Multi-head attention of xq over xkv: q, k and v projections, one
    fused ``ad.attention`` over all heads, then the output projection."""
    q = _linear(xq, p, base + ".wq")
    k = _linear(xkv, p, base + ".wk")
    v = _linear(xkv, p, base + ".wv")
    return _linear(ad.attention(q, k, v, heads), p, base + ".wo")


def _attn_unit(x, ctx, p, base, heads):
    """Pre-LN residual attention unit followed by a pre-LN residual FFN.

    The same layer norm is applied to the query and context sides, so the
    unit is exactly symmetric when used bidirectionally.
    """
    xn = ad.layer_norm(x, p[base + ".ln1.g"], p[base + ".ln1.b"])
    cn = xn if ctx is x else ad.layer_norm(ctx, p[base + ".ln1.g"],
                                           p[base + ".ln1.b"])
    x = ad.add(x, _mha(xn, cn, p, base, heads))
    xn2 = ad.layer_norm(x, p[base + ".ln2.g"], p[base + ".ln2.b"])
    ffn = _linear(ad.relu(_linear(xn2, p, base + ".ffn1")), p, base + ".ffn2")
    return ad.add(x, ffn)


def ca_forward(kp_a, kp_b, matcher: CAMatcherParams):
    """Run the transformer over both keypoint sets.

    Returns (x_a, sigma_a, x_b, sigma_b) as Tensors: unit-normalized
    refined descriptors (N, dim) and matchability columns (N, 1).  Cross
    attention updates both sets from each other's pre-update state, so the
    operator commutes with swapping the two sets.
    """
    cfg, p = matcher.config, matcher.params
    da, db = kp_a.descriptors, kp_b.descriptors
    dtype = p["in_proj.w"].data.dtype
    if da.shape[1] != cfg.desc_dim or db.shape[1] != cfg.desc_dim:
        raise ValueError(
            f"descriptors must have dim {cfg.desc_dim}, "
            f"got {da.shape[1]} and {db.shape[1]}")

    def embed(desc, pos):
        x = _linear(Tensor(desc.astype(dtype)), p, "in_proj")
        pe = _linear(Tensor(fourier_encoding(pos, cfg).astype(dtype)), p, "pe_proj")
        return ad.add(x, pe)

    xa, xb = embed(da, kp_a.positions), embed(db, kp_b.positions)
    for layer in range(cfg.layers):
        sb = f"layers.{layer}.self"
        xa = _attn_unit(xa, xa, p, sb, cfg.heads)
        xb = _attn_unit(xb, xb, p, sb, cfg.heads)
        cb = f"layers.{layer}.cross"
        xa2 = _attn_unit(xa, xb, p, cb, cfg.heads)
        xb2 = _attn_unit(xb, xa, p, cb, cfg.heads)
        xa, xb = xa2, xb2
    out_a = ad.l2_normalize(_linear(xa, p, "out_proj"), axis=1)
    out_b = ad.l2_normalize(_linear(xb, p, "out_proj"), axis=1)
    sig_a = ad.sigmoid(_linear(xa, p, "match_head"))
    sig_b = ad.sigmoid(_linear(xb, p, "match_head"))
    return out_a, sig_a, out_b, sig_b


def ca_scores(kp_a, kp_b, matcher: CAMatcherParams):
    """Differentiable soft assignment matrix plus matchabilities.

    P = sigma_a sigma_b^T * softmax_cols(s S) * softmax_rows(s S) with the
    learned temperature s = exp(logit_scale).  Returns (P, sigma_a,
    sigma_b) as Tensors for the matching loss.
    """
    xa, sa, xb, sb = ca_forward(kp_a, kp_b, matcher)
    s = ad.matmul(xa, ad.transpose(xb))
    scaled = ad.mul(s, ad.exp(matcher.params["logit_scale"]))
    soft = ad.mul(ad.softmax(scaled, axis=0), ad.softmax(scaled, axis=1))
    p = ad.mul(ad.matmul(sa, ad.transpose(sb)), soft)
    return p, sa, sb


def assignment_probabilities(x_a, sigma_a, x_b, sigma_b, scale: float = 1.0):
    """Soft assignment matrix from the arrays of ``ca_forward``'s outputs."""
    xa = np.asarray(x_a, np.float64)
    xb = np.asarray(x_b, np.float64)
    sa = np.asarray(sigma_a, np.float64).reshape(-1)
    sb = np.asarray(sigma_b, np.float64).reshape(-1)
    s = scale * (xa @ xb.T)
    soft = np.exp(_log_softmax(s, axis=0) + _log_softmax(s, axis=1))
    return sa[:, None] * sb[None, :] * soft


def ca_assignment(x_a, sigma_a, x_b, sigma_b, scale: float = 1.0,
                  threshold: float = 0.1) -> Assignment:
    """Extract hard matches from the matchability-weighted dual softmax.

    Matches are mutual argmaxes of P with P >= threshold.  Every entry
    satisfies 0 <= P_ij <= sigma_i sigma_j, so low-matchability keypoints
    can never form a match.
    """
    if len(x_a) == 0 or len(x_b) == 0:
        return Assignment.empty()
    p = assignment_probabilities(x_a, sigma_a, x_b, sigma_b, scale)
    rows, cols = _mutual_nearest(-p)
    vals = p[rows, cols]
    keep = vals >= threshold
    return Assignment(np.stack([rows[keep], cols[keep]], axis=1), vals[keep])


def ca_match(kp_a, kp_b, matcher: CAMatcherParams,
             threshold: float = 0.1) -> Assignment:
    """Forward pass plus hard assignment with the learned temperature."""
    if len(kp_a) == 0 or len(kp_b) == 0:
        return Assignment.empty()
    xa, sa, xb, sb = (t.data for t in ca_forward(kp_a, kp_b, matcher))
    scale = float(np.exp(matcher.params["logit_scale"].data))
    return ca_assignment(xa, sa, xb, sb, scale=scale, threshold=threshold)


# -- supervision ----------------------------------------------------------

def gt_assignment(kp_a, kp_b, depth_a, depth_b,
                  intr_a: CameraIntrinsics, intr_b: CameraIntrinsics,
                  pose_a: RigidPose, pose_b: RigidPose,
                  eps_px: float = 3.0) -> GroundTruthMatches:
    """Reprojection ground truth between two views with rendered depth.

    Each keypoint is lifted with its bilinearly sampled depth and carried
    into the other view; the symmetric cost is the max of the two squared
    transfer errors (+inf behind either camera or on invalid depth).  A
    pair is positive iff it is a mutual argmin with cost strictly below
    eps_px^2; all other indices are reported unmatched.  Swapping the two
    views swaps the roles exactly.
    """
    if not eps_px >= 0:
        raise ValueError(f"eps_px must be non-negative, got {eps_px}")
    pa, pb = kp_a.positions, kp_b.positions
    na, nb = len(pa), len(pb)
    if na == 0 or nb == 0:
        return GroundTruthMatches(np.zeros((0, 2), np.int64),
                                  np.arange(na), np.arange(nb))
    da = np.asarray(depth_a, dtype=np.float64)
    db = np.asarray(depth_b, dtype=np.float64)
    za = _bilinear(da, pa[:, 0], pa[:, 1])
    zb = _bilinear(db, pb[:, 0], pb[:, 1])
    ok_a = np.isfinite(za) & (za > 0)
    ok_b = np.isfinite(zb) & (zb > 0)

    rel_ab = relative_pose(pose_a, pose_b)
    rel_ba = relative_pose(pose_b, pose_a)
    prj_a, va = reproject_many(pa, np.where(ok_a, za, 1.0), intr_a, intr_b, rel_ab)
    prj_b, vb = reproject_many(pb, np.where(ok_b, zb, 1.0), intr_b, intr_a, rel_ba)
    va &= ok_a
    vb &= ok_b

    cost = np.full((na, nb), np.inf)
    if va.any() or vb.any():
        d_ab = ((prj_a[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
        d_ba = ((pa[:, None, :] - prj_b[None, :, :]) ** 2).sum(axis=2)
        d_ab[~va, :] = np.inf
        d_ba[:, ~vb] = np.inf
        cost = np.maximum(d_ab, d_ba)

    rows, cols = _mutual_nearest(cost)
    keep = cost[rows, cols] < eps_px ** 2
    pairs = np.stack([rows[keep], cols[keep]], axis=1)
    un_a = np.setdiff1d(np.arange(na), pairs[:, 0], assume_unique=False)
    un_b = np.setdiff1d(np.arange(nb), pairs[:, 1], assume_unique=False)
    return GroundTruthMatches(pairs, un_a, un_b)


def nll_loss(p, sigma_a, sigma_b, gt: GroundTruthMatches) -> Tensor:
    """Negative log-likelihood of the ground-truth assignment.

    Mean -log P over positives, plus half the mean -log(1 - sigma) over
    each unmatched set.  Empty sets contribute nothing.  Probabilities are
    clamped at 1e-12 before the log; if the clamp is active a
    RuntimeWarning reports the saturation instead of producing infs.
    """
    terms = []
    saturated = False
    if len(gt.matches):
        vals = ad.take_pairs(p, gt.matches)
        saturated |= bool((vals.data < 1e-12).any())
        terms.append(ad.mul(ad.sum_all(ad.log(ad.clamp_min(vals, 1e-12))),
                            _scalar_like(-1.0 / len(gt.matches), vals)))
    for sigma, idx in ((sigma_a, gt.unmatched_a), (sigma_b, gt.unmatched_b)):
        if len(idx) == 0:
            continue
        s = ad.take_rows(sigma, idx)
        one_minus = ad.sub(_scalar_like(1.0, s), s)
        saturated |= bool((one_minus.data < 1e-12).any())
        terms.append(ad.mul(ad.sum_all(ad.log(ad.clamp_min(one_minus, 1e-12))),
                            _scalar_like(-0.5 / len(idx), one_minus)))
    if saturated:
        warnings.warn("matching loss saturated: probabilities clamped at 1e-12",
                      RuntimeWarning)
    return reduce(ad.add, terms) if terms else Tensor(np.float32(0.0))


@dataclass(frozen=True)
class MatchTrainConfig:
    """Training recipe for the context-aware matcher."""

    lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")


def train_matcher(examples, config: MatchTrainConfig = MatchTrainConfig(),
                  ca_config: CAConfig = CAConfig(), log=None):
    """Train a fresh matcher on (kp_a, kp_b, GroundTruthMatches) triples.

    The matcher is ``CAMatcherParams.create(ca_config, seed=config.seed)``,
    trained with ``optim.fit``; each step averages the per-pair losses of
    one minibatch.  A pair with no keypoints on one side has nothing to
    attend to: such pairs are dropped with a RuntimeWarning that counts
    them, and ValueError is raised if no pair is left.  Returns (matcher,
    history) with one (epoch, mean loss) row per epoch; the matcher's
    params come back frozen.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("no training examples provided")
    usable = [ex for ex in examples if len(ex[0]) and len(ex[1])]
    if len(usable) < len(examples):
        warnings.warn(f"train_matcher: dropped {len(examples) - len(usable)} of "
                      f"{len(examples)} pairs with no keypoints on one side",
                      RuntimeWarning)
    if not usable:
        raise ValueError("no training pair has keypoints on both sides")
    examples = usable
    matcher = CAMatcherParams.create(ca_config, seed=config.seed)

    def batch_loss(idx):
        losses = [nll_loss(*ca_scores(kp_a, kp_b, matcher), gt)
                  for kp_a, kp_b, gt in (examples[i] for i in idx)]
        total = reduce(ad.add, losses)
        total = ad.mul(total, _scalar_like(1.0 / len(losses), total))
        return total, (float(total.data),)

    history = fit(matcher.params, len(examples), config, batch_loss, ("loss",), log)
    return matcher, history


def matcher_history_csv(history) -> str:
    """Render train_matcher's history as CSV: epoch,loss."""
    return history_csv(("loss",), history)


# -- persistence ----------------------------------------------------------

def save_matcher(path, matcher: CAMatcherParams):
    """Persist matcher params with the architecture embedded."""
    save_module(path, matcher.config, matcher.params)


def load_matcher(path) -> CAMatcherParams:
    """Load a matcher; malformed architecture entries and missing, extra or
    mis-shaped params raise ValueError by name."""
    params, config = load_module(path, CAConfig,
                                 lambda c: dict(_matcher_layout(c)))
    return CAMatcherParams(config, params)
