"""Training and persistence: the one minibatch training loop, ``fit``,
with Adam on a cosine learning-rate schedule; the per-epoch loss CSV; and
the binary checkpoint format used to persist parameter dictionaries.

Both learners (the distilled event extractor and the context-aware
matcher) train through ``fit``; they differ only in the loss they hand it.

A module checkpoint also embeds the config dataclass that built the
parameters.  Each config field comes first, in field order, as a float32
vector entry named ``__config__.<field>``: a tuple field holds its items,
an int field one element, and a str field its UTF-8 bytes, one element
each.  The parameters follow in dict order.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import os
import struct
import typing

import numpy as np

from .autodiff import Tensor

CKPT_MAGIC = b"CKPT"
_CONFIG_PREFIX = "__config__."


def cosine_lr(lr0: float, progress: float) -> float:
    """Cosine decay from lr0 at progress 0 to exactly 0 at progress 1."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return lr0 * 0.5 * (1.0 + float(np.cos(np.pi * progress)))


class Adam:
    """Adam over a name -> Tensor parameter dict, on a cosine schedule.

    The learning rate follows ``cosine_lr`` with progress =
    completed_steps / total_steps, so the first update runs at lr0 and the
    rate would hit zero just past the final update.  Gradients are read
    from ``.grad`` and cleared after the step.  The moment decays (0.9,
    0.999) and the denominator's 1e-8 are fixed.
    """

    def __init__(self, params, lr, total_steps):
        self.params = params
        self.lr0 = float(lr)
        self.total_steps = total_steps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def current_lr(self):
        return cosine_lr(self.lr0, min(self.t / self.total_steps, 1.0))

    def step(self):
        lr = self.current_lr()
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= (lr / c1) * m / (np.sqrt(v / c2) + 1e-8)
            p.grad = None


def _keep_freed_memory():
    """Make glibc keep the memory a training step frees for the next one:
    trim the heap top only once 1 GiB is free there, and serve blocks up
    to 32 MiB (its largest mmap threshold) from the heap rather than from
    mmaps that are unmapped on free.  Does nothing without ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def check_recipe(recipe):
    """The checks every training recipe makes in its ``__post_init__``."""
    if not 0 < recipe.lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {recipe.lr}")
    if recipe.epochs <= 0 or recipe.batch_size <= 0:
        raise ValueError("epochs and batch_size must be positive")


def fit(params, n, recipe, batch_loss, columns, log=None):
    """Train params on n items; returns one (epoch, *column means) row per epoch.

    recipe is any config with ``lr``, ``epochs``, ``batch_size`` and
    ``seed`` that ``check_recipe`` accepts.  Every epoch visits the items
    in a fresh permutation drawn from ``default_rng(recipe.seed)``,
    batch_size at a time (the last batch may be short), and takes one Adam step per batch on a cosine schedule
    that spans all epochs.  ``batch_loss(idx)`` returns (loss Tensor, one
    value per column).  A non-finite loss aborts before its backward pass,
    naming the epoch and the global step.  Column means accumulate in
    float64 in step order; ``log`` receives ``epoch E name=value ...`` per
    epoch.  params become trainable for the run and come back frozen, so
    inference on the result records no graph; that holds when a step
    raises, too.

    Before the first step, ``fit`` sets glibc's allocator to keep freed
    memory (see ``_keep_freed_memory``), so each step reuses the pages the
    step before freed instead of faulting fresh ones in.  The setting
    stays for the rest of the process: glibc has no getter for the
    thresholds it adjusts on its own, so they cannot be restored.  Where
    the C library has no ``mallopt`` nothing is set; only page faults
    depend on it, never a value.
    """
    for p in params.values():
        p.requires_grad = True
    _keep_freed_memory()
    try:
        rng = np.random.default_rng(recipe.seed)
        steps_per_epoch = (n + recipe.batch_size - 1) // recipe.batch_size
        opt = Adam(params, lr=recipe.lr,
                   total_steps=recipe.epochs * steps_per_epoch)
        history = []
        for epoch in range(recipe.epochs):
            perm = rng.permutation(n)
            sums = np.zeros(len(columns))
            for start in range(0, n, recipe.batch_size):
                loss, values = batch_loss(perm[start:start + recipe.batch_size])
                if not np.isfinite(loss.data):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch}, step {opt.t}; aborting")
                loss.backward()
                opt.step()
                sums += values
            history.append((epoch, *(sums / steps_per_epoch).tolist()))
            if log is not None:
                log(" ".join([f"epoch {epoch}"] + [
                    f"{c}={v:.6f}" for c, v in zip(columns, history[-1][1:])]))
    finally:
        for p in params.values():
            p.requires_grad = False
    return history


def history_csv(columns, history) -> str:
    """Render fit's rows as CSV: an ``epoch`` column, then 8 decimals."""
    lines = [",".join(("epoch", *columns))]
    for epoch, *values in history:
        lines.append(",".join([str(int(epoch))] + [f"{v:.8f}" for v in values]))
    return "\n".join(lines) + "\n"


def save_checkpoint(path, params):
    """Write a parameter dict in the binary checkpoint format.

    Layout: magic "CKPT", u32 parameter count, then per parameter a u32
    name length, the utf-8 name, u32 ndim, u32 dims, and the float32 data
    in C order.  Little-endian throughout.  Dict order is preserved.
    """
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(params)))
        for name, p in params.items():
            # asarray keeps 0-d parameter shapes; ascontiguousarray would not
            arr = np.asarray(p.data if isinstance(p, Tensor) else p,
                             dtype="<f4", order="C")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into a name -> float32 ndarray dict."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    off = 4

    def take(n, what):
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"{path}: truncated while reading {what}")
        piece = raw[off:off + n]
        off += n
        return piece

    (count,) = struct.unpack("<I", take(4, "parameter count"))
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: parameter name is not UTF-8") from None
        (ndim,) = struct.unpack("<I", take(4, "ndim"))
        if ndim > 64:  # numpy's limit
            raise ValueError(f"{path}: parameter {name} has {ndim} dimensions")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        # exact: a wrapped int64 product could pass the length check
        n = math.prod(shape)
        data = np.frombuffer(take(4 * n, f"data of {name}"), dtype="<f4")
        try:
            params[name] = data.reshape(shape).astype(np.float32)
        except ValueError:
            # numpy refuses dims whose running product overflows, even when
            # a later zero makes the array empty
            raise ValueError(f"{path}: parameter {name} has shape {shape} "
                             "numpy cannot hold") from None
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes after last parameter")
    return params


def save_module(path, config, params):
    """Write params with their config dataclass embedded.

    Config fields must be ints, tuples of ints or strs.  Each is stored as
    the float32 vector ``__config__.<field>`` (see the module docstring),
    in field order and ahead of the parameters, which keep their dict order.
    """
    blob = {_CONFIG_PREFIX + k: np.asarray(list(v.encode()) if isinstance(v, str)
                                           else v, np.float32).reshape(-1)
            for k, v in dataclasses.asdict(config).items()}
    blob.update(params)
    save_checkpoint(path, blob)


def load_module(path, config_cls, layout):
    """Read frozen (params, config) from a checkpoint written by save_module.

    ``layout(config)`` gives the expected (name, shape) pairs without
    allocating anything, so a checkpoint that declares huge sizes costs no
    more than its own bytes before it is rejected.  A config entry that is
    missing, unknown to the dataclass, non-finite, not integral or of the
    wrong length, a str entry that is not UTF-8 bytes, a config the
    dataclass rejects, and a missing, extra or mis-shaped parameter all
    raise ValueError naming the file and the key.
    """
    blob = load_checkpoint(path)
    hints = typing.get_type_hints(config_cls)
    unknown = sorted(k for k in blob if k.startswith(_CONFIG_PREFIX)
                     and k[len(_CONFIG_PREFIX):] not in hints)
    if unknown:
        raise ValueError(f"{path}: unexpected architecture entry {unknown[0]}")
    values = {}
    for f in dataclasses.fields(config_cls):
        key = _CONFIG_PREFIX + f.name
        if key not in blob:
            raise ValueError(f"{path}: missing architecture entry {key}")
        v, hint = blob[key], hints[f.name]
        if v.ndim != 1 or (hint is int and len(v) != 1):
            raise ValueError(f"{path}: {key} has shape {v.shape}")
        if not np.isfinite(v).all() or (v != np.round(v)).any():
            raise ValueError(f"{path}: {key} must hold integers, got {v.tolist()}")
        ints = [int(x) for x in v]
        try:  # bytes() rejects values outside 0-255, decode() invalid UTF-8
            values[f.name] = (bytes(ints).decode() if hint is str else
                              tuple(ints) if hint is tuple else ints[0])
        except ValueError:
            raise ValueError(f"{path}: {key} must hold UTF-8 bytes, got {ints}") from None
    try:
        config = config_cls(**values)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    expected = dict(layout(config))
    loaded = {k: v for k, v in blob.items() if not k.startswith(_CONFIG_PREFIX)}
    for name in expected:
        if name not in loaded:
            raise ValueError(f"{path}: missing parameter {name}")
        if loaded[name].shape != expected[name]:
            raise ValueError(f"{path}: parameter {name} has shape "
                             f"{loaded[name].shape}, expected {expected[name]}")
    for name in loaded:
        if name not in expected:
            raise ValueError(f"{path}: unexpected parameter {name}")
    params = {name: Tensor(loaded[name]) for name in expected}
    return params, config
