"""Cross-modal distillation of the event extractor from an image teacher.

The student sees only the event tensor; the teacher sees only the aligned
grayscale frame.  Three losses tie them together: a dense L2 on the latent
feature maps, an event-masked L2 on the score maps, and an event-masked L1
on the descriptor maps.  Masking matters because event tensors are silent
away from moving edges, so forcing agreement there would only teach the
student to hallucinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import EventStream, accumulate_mask
from .extractor import (ExtractorConfig, analytic_teacher,
                        forward_student_batch, init_student)
from .optim import fit, history_csv
from .representations import build_representation

_COLUMNS = ("l_feats", "l_score", "l_desc", "l_total")


@dataclass(frozen=True)
class DistillConfig:
    """Training recipe for the event extractor.  The student's input
    representation belongs to its ``ExtractorConfig``."""

    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 8
    n_pairs: int = 512
    seed: int = 0
    use_feats: bool = True
    use_score: bool = True
    use_desc: bool = True

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.n_pairs <= 0:
            raise ValueError("epochs, batch_size and n_pairs must be positive")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (self.use_feats or self.use_score or self.use_desc):
            raise ValueError("at least one loss term must be enabled")


def lfd_loss(student, teacher, masks, config: DistillConfig):
    """Masked distillation loss over one batch, as fit's (total, values).

    student is forward_student_batch's (feats, score, desc) Tensors and
    teacher the matching arrays; masks is (N, 1, H, W), 1 where the events
    touched a pixel.  values holds l_feats, l_score, l_desc and l_total.

    The feature term is an unmasked mean over every latent cell; the score
    and descriptor terms average only over event-supported pixels, pooled
    across the whole batch.  A batch whose masks are all zero contributes
    nothing through the masked terms (zero, not NaN).  Disabled terms
    are exactly zero and never enter the graph.
    """
    student_feats, student_score, student_desc = student
    teacher_feats, teacher_score, teacher_desc = teacher
    mask = np.asarray(masks, dtype=np.float32)
    mask_count = float(mask.sum(dtype=np.float64))
    empty = mask_count == 0.0

    terms = []
    l_feats = l_score = l_desc = 0.0
    if config.use_feats:
        t = ad.mean_all(ad.square(ad.sub(student_feats, Tensor(teacher_feats))))
        l_feats = float(t.data)
        terms.append(t)
    if config.use_score and not empty:
        t = ad.masked_mean(ad.square(ad.sub(student_score,
                                            Tensor(teacher_score))), mask)
        l_score = float(t.data)
        terms.append(t)
    if config.use_desc and not empty:
        mc = np.broadcast_to(mask, teacher_desc.shape)
        t = ad.masked_mean(ad.abs_(ad.sub(student_desc,
                                          Tensor(teacher_desc))), mc)
        l_desc = float(t.data)
        terms.append(t)

    total = reduce(ad.add, terms) if terms else Tensor(np.float32(0.0))
    return total, (l_feats, l_score, l_desc, float(total.data))


def prepare_batch_arrays(samples, student_config: ExtractorConfig, teacher=None):
    """Precompute inputs, teacher targets and masks for a sample list.

    samples are ``LFDSample``s; their event streams are assumed to already
    be the observation windows.  Each input is the student's
    representation with in_channels bins.  teacher defaults to the
    analytic image teacher.
    """
    tf = analytic_teacher if teacher is None else teacher
    inputs, feats, scores, descs, masks = [], [], [], [], []
    for sample in samples:
        if not isinstance(sample.events, EventStream):
            raise TypeError("samples must carry EventStream windows")
        inputs.append(build_representation(sample.events,
                                           student_config.representation,
                                           bins=student_config.in_channels))
        maps = tf(sample.image)
        feats.append(np.asarray(maps.feats, dtype=np.float32))
        scores.append(np.asarray(maps.score, dtype=np.float32))
        descs.append(np.asarray(maps.desc, dtype=np.float32))
        masks.append(accumulate_mask(sample.events)[None].astype(np.float32))
    return (np.stack(inputs), np.stack(feats), np.stack(scores),
            np.stack(descs), np.stack(masks))


def _check_teacher_fit(student_config, config, tf, td, h, w):
    """Raise ValueError naming the student field, and both values, that
    makes an enabled loss term compare arrays of different shapes."""
    latent, desc, s = (student_config.latent_dim, student_config.desc_dim,
                       student_config.stride)
    if config.use_feats and latent != tf.shape[1]:
        raise ValueError(f"latent_dim is {latent} but the teacher's feats "
                         f"have {tf.shape[1]} channels")
    if config.use_feats and (h // s, w // s) != tf.shape[2:]:
        raise ValueError(f"stride is {s}, giving {h // s}x{w // s} feats for "
                         f"{h}x{w} inputs, but the teacher's feats are "
                         f"{tf.shape[2]}x{tf.shape[3]}")
    if config.use_desc and desc != td.shape[1]:
        raise ValueError(f"desc_dim is {desc} but the teacher's desc has "
                         f"{td.shape[1]} channels")


def train_extractor(samples, config: DistillConfig,
                    student_config: ExtractorConfig, teacher=None, log=None):
    """Distill the event extractor; returns (params, history).

    Trains a fresh student (seeded by config.seed) with ``optim.fit`` on the
    LFD loss over at most config.n_pairs samples, each read as the
    representation student_config names.  fit's rows are the epoch means
    of l_feats, l_score, l_desc and l_total, and the params come back
    frozen.  The teacher is evaluated once up front and never updated; a
    student whose outputs an enabled term cannot compare with the teacher's
    arrays is rejected before training.  The whole run is a pure function
    of the samples and the two configs.
    """
    samples = list(samples)[:config.n_pairs]
    if not samples:
        raise ValueError("no training samples provided")

    xs, tf, ts, td, ms = prepare_batch_arrays(samples, student_config, teacher)
    _check_teacher_fit(student_config, config, tf, td, *xs.shape[2:])
    params = init_student(student_config, seed=config.seed)

    def batch_loss(idx):
        return lfd_loss(forward_student_batch(xs[idx], params, student_config),
                        (tf[idx], ts[idx], td[idx]), ms[idx], config)

    history = fit(params, len(samples), config, batch_loss, _COLUMNS, log)
    return params, history


def loss_history_csv(history) -> str:
    """Render train_extractor's history as CSV with a fixed header."""
    return history_csv(_COLUMNS, history)
