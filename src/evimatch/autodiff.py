"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional backward closure; ops build the
graph lazily and ``backward`` walks it in reverse topological order.  The
op set is deliberately small: exactly what a convolutional extractor, an
attention matcher and their losses need.  Elementwise and reduction ops,
2-D matmul and transpose, an affine ``linear`` layer, row and pair
gathers, layer norm, the convolutions (each with its optional bias folded
into the same node) and pooling, and one fused multi-head ``attention``
node that keeps only its probabilities for backward.  Storage is float32
(float64 is accepted for numerical checking); explicit reductions
accumulate in float64 before casting back.  Broadcasting is limited to
scalar-with-tensor and the per-channel biases of ``linear`` and the
convolutions; everything else requires exact shape agreement, which keeps
gradients trivially correct.

The convolutions run one sample at a time: each sample's patches fill
one reused (C*kh*kw, OH*OW) buffer, so a batch holds no more patch
memory than a single sample, and the weight gradient adds the samples'
products in sample order.  Every batch size, inference's N = 1
included, takes this one path; an empty batch is rejected.

``backward`` consumes its graph.  It accumulates into leaves (tensors no
op produced) and, node by node in reverse topological order, releases the
node's gradient, its backward closure and its parent references once the
node has propagated, so each activation is freed as soon as the last
backward that needs it has run.  A later ``backward`` that reaches a
consumed node raises instead of accumulating again.

While ``optim.fit`` runs, ``linear``, ``attention``, ``layer_norm``,
``relu`` and ``add`` take the arrays they keep (their outputs, the
attention probabilities, the normalized input of ``layer_norm`` and the
mask of ``relu``) from a recycling pool, so each training step rewrites
the pages of the step before instead of faulting fresh ones in.  The
pool lives from the start of ``fit`` until it returns or raises.  An
array in the pool is handed out again only when its CPython reference
count shows that nothing else refers to it: a live Tensor, a backward
closure, a caller's variable or a numpy view (which refers to its base)
all keep it from reuse, so whatever a step keeps keeps its bytes.  A
step that asks for shapes the step before did not leave idle drops the
idle arrays, so a run whose shapes change holds about one step's arrays.
Outside ``fit`` every op allocates as usual.  Reuse changes no
arithmetic: each op writes the same values into the array it is given.
The other ops allocate fresh arrays, because an idle pooled array still
takes memory while backward runs: pooling ``sub`` would hold the
distillation loss's full-resolution map differences through the
extractor's backward peak.
"""

from __future__ import annotations

import contextlib
import math
import sys

import numpy as np


_CONSUMED = object()  # the _bwd of a node whose graph a backward has freed

# (shape, dtype) -> arrays, while a _recycling() block runs; None outside
_pool = None
# set by each backward: arrays its graph kept may now sit idle in the pool
_backward_ran = False
# sys.getrefcount of a pooled array that nothing else refers to, read
# while a loop or comprehension visits it: the pool's list, the loop
# variable, the call
_FREE_REFS = 3


@contextlib.contextmanager
def _recycling():
    """Recycle the arrays ops allocate through ``_empty`` until the block
    exits; the pool and every array it holds are dropped on exit."""
    global _pool
    _pool = {}
    try:
        yield
    finally:
        _pool = None


def _empty(shape, dtype):
    """An uninitialized array of shape and dtype: inside ``_recycling``,
    one the pool holds and nothing else references, else a new one that
    the pool keeps.

    The first allocation after a backward means a step has asked for a
    shape the step before did not leave idle, so the arrays still idle
    are dropped first: a run whose steps change shape holds about one
    step's arrays, not some for every shape it has seen.  Steps of one
    shape never allocate after the first.
    """
    global _backward_ran
    if _pool is None:
        return np.empty(shape, dtype)
    held = _pool.setdefault((tuple(shape), np.dtype(dtype)), [])
    for arr in held:
        if sys.getrefcount(arr) == _FREE_REFS:
            return arr
    if _backward_ran:
        for arrs in _pool.values():
            arrs[:] = [a for a in arrs if sys.getrefcount(a) != _FREE_REFS]
        _backward_ran = False
    arr = np.empty(shape, dtype)
    held.append(arr)
    return arr


class Tensor:
    """An ndarray node in a reverse-mode graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # asarray keeps 0-d shapes; ascontiguousarray would promote to (1,)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf,
        consuming the graph on the way.

        Leaves add to whatever ``.grad`` they already hold.  Once a node's
        backward has run, its ``.grad``, backward closure and parent
        references are dropped and it is marked consumed, so no activation
        outlives the last backward that reads it.  A graph therefore
        supports one backward: reaching a consumed node (the same root
        again, or a second loss that shares a node with the first) raises
        RuntimeError before any gradient is accumulated.
        """
        global _backward_ran
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._bwd is _CONSUMED:
                raise RuntimeError(
                    "backward reached a node whose graph an earlier backward consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        # a leaf root accumulates like any leaf; an intermediate root holds
        # no gradient here, since every backward releases them
        seed = np.ones_like(self.data)
        self.grad = seed if self.grad is None else self.grad + seed
        # popping keeps the order list from holding nodes already consumed
        while topo:
            node = topo.pop()
            if node._bwd is None:  # a leaf
                continue
            if node.grad is not None:
                grads = node._bwd(node.grad)
                node.grad = None
                for p, g in zip(node._parents, grads):
                    if g is None or not p.requires_grad:
                        continue
                    if g.dtype != p.data.dtype:
                        g = g.astype(p.data.dtype)
                    if p.grad is None:
                        p.grad = g
                    else:
                        # out of place: a backward may return its incoming
                        # array (add does), so gradient arrays can be shared
                        p.grad = p.grad + g
            node._parents = ()
            node._bwd = _CONSUMED
        _backward_ran = True


def _make(data, parents, bwd):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))


def _unbroadcast(g, shape):
    # only scalar-with-tensor broadcasting exists, so either shapes match
    # or the parent is a scalar that collects the full sum
    if g.shape == tuple(shape):
        return g
    return np.asarray(g.sum(dtype=np.float64), dtype=g.dtype).reshape(shape)


def _check_shapes(a, b, opname):
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} do not match "
            "(only scalar broadcasting is supported)")


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes(a, b, "add")
    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)
    y = np.add(a.data, b.data, out=_empty(
        np.broadcast_shapes(a.data.shape, b.data.shape), np.result_type(a.data, b.data)))
    return _make(y, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes(a, b, "sub")
    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)
    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes(a, b, "mul")
    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))
    return _make(a.data * b.data, (a, b), bwd)


def neg(a):
    return mul(a, -1.0)


def square(a):
    a = _as_tensor(a)
    def bwd(g):
        return (g * (2.0 * a.data),)
    return _make(a.data * a.data, (a,), bwd)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    def bwd(g):
        return g @ b.data.T, a.data.T @ g
    return _make(a.data @ b.data, (a, b), bwd)


def linear(x, w, b):
    """Affine map x @ w + b, x (M, K) with w (K, D) and bias b (D,).

    The bias is added in place to the product, and its gradient is the
    float64 column sum of the incoming gradient cast back to b's dtype.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear expects 2-D input and weight")
    _check_bias(b, w.data.shape[1], "linear")
    y = np.matmul(x.data, w.data, out=_empty(
        (x.data.shape[0], w.data.shape[1]), np.result_type(x.data, w.data)))
    y += b.data
    def bwd(g):
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g if w.requires_grad else None
        return gx, gw, _bias_grad(g, b, (0,))
    return _make(y, (x, w, b), bwd)


def transpose(a):
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    def bwd(g):
        return (np.ascontiguousarray(g.T),)
    return _make(a.data.T, (a,), bwd)


def relu(a):
    a = _as_tensor(a)
    keep = np.greater(a.data, 0, out=_empty(a.data.shape, bool))
    # np.where(keep, a, 0) bit for bit: fmax maps NaN to 0, and adding 0
    # turns the -0.0 that fmax may keep into +0.0
    y = np.fmax(a.data, 0, out=_empty(a.data.shape, a.data.dtype))
    y += 0
    def bwd(g):
        return (g * keep,)
    return _make(y, (a,), bwd)


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    y = y.astype(x.dtype)
    def bwd(g):
        return (g * y * (1.0 - y),)
    return _make(y, (a,), bwd)


def exp(a):
    a = _as_tensor(a)
    y = np.exp(a.data)
    def bwd(g):
        return (g * y,)
    return _make(y, (a,), bwd)


def log(a):
    a = _as_tensor(a)
    def bwd(g):
        return (g / a.data,)
    return _make(np.log(a.data), (a,), bwd)


def abs_(a):
    a = _as_tensor(a)
    def bwd(g):
        return (g * np.sign(a.data),)
    return _make(np.abs(a.data), (a,), bwd)


def clamp_min(a, floor):
    """Elementwise maximum with a constant; gradient is zero where clamped."""
    a = _as_tensor(a)
    keep = a.data >= floor
    def bwd(g):
        return (g * keep,)
    return _make(np.maximum(a.data, floor), (a,), bwd)


def softmax(a, axis):
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)
    return _make(y, (a,), bwd)


def sum_all(a):
    a = _as_tensor(a)
    val = np.asarray(a.data.sum(dtype=np.float64), dtype=a.data.dtype)
    def bwd(g):
        return (np.full(a.data.shape, g.reshape(()), dtype=a.data.dtype),)
    return _make(val, (a,), bwd)


def mean_all(a):
    a = _as_tensor(a)
    n = a.data.size
    val = np.asarray(a.data.sum(dtype=np.float64) / n, dtype=a.data.dtype)
    def bwd(g):
        return (np.full(a.data.shape, g.reshape(()) / n, dtype=a.data.dtype),)
    return _make(val, (a,), bwd)


def masked_mean(a, mask):
    """Mean of the entries where mask is nonzero; mask is a constant array."""
    a = _as_tensor(a)
    m = np.asarray(mask, dtype=a.data.dtype)
    if m.shape != a.data.shape:
        raise ValueError(f"masked_mean: mask shape {m.shape} != data shape {a.data.shape}")
    count = float(m.sum(dtype=np.float64))
    if count == 0:
        raise ValueError("masked_mean over an empty mask")
    val = np.asarray((a.data * m).sum(dtype=np.float64) / count, dtype=a.data.dtype)
    def bwd(g):
        return (m * (g.reshape(()) / count),)
    return _make(val, (a,), bwd)


def l2_normalize(a, axis):
    """Unit-normalize along an axis; norms below 1e-12 are clamped."""
    a = _as_tensor(a)
    n = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    ns = np.maximum(n, 1e-12)
    y = a.data / ns
    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - y * dot) / ns,)
    return _make(y, (a,), bwd)


def take_rows(a, idx):
    """Gather rows of a 2-D tensor; duplicate indices accumulate in backward."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    def bwd(g):
        out = np.zeros(a.data.shape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return (out,)
    return _make(a.data[idx], (a,), bwd)


def take_pairs(a, ij):
    """Gather entries a[i, j] for rows (i, j) of ij; returns a 1-D tensor."""
    a = _as_tensor(a)
    ij = np.asarray(ij, dtype=np.int64).reshape(-1, 2)
    ii, jj = ij[:, 0], ij[:, 1]
    def bwd(g):
        out = np.zeros(a.data.shape, dtype=g.dtype)
        np.add.at(out, (ii, jj), g)
        return (out,)
    return _make(a.data[ii, jj], (a,), bwd)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine;
    1e-5 is added to the variance before the square root."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    # x - mu becomes xhat in place
    xhat = np.subtract(x.data, x.data.mean(axis=-1, keepdims=True),
                       out=_empty(x.data.shape, x.data.dtype))
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    y = np.multiply(xhat, gamma.data, out=_empty(
        xhat.shape, np.result_type(xhat, gamma.data, beta.data)))
    y += beta.data
    def bwd(g):
        dxhat = g * gamma.data
        gi = dxhat * inv
        gx = gi - gi.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True) * inv
        red = tuple(range(x.data.ndim - 1))
        ggamma = np.asarray((g * xhat).sum(axis=red, dtype=np.float64), dtype=gamma.data.dtype)
        gbeta = np.asarray(g.sum(axis=red, dtype=np.float64), dtype=beta.data.dtype)
        return gx, ggamma, gbeta
    return _make(y, (x, gamma, beta), bwd)


def attention(q, k, v, heads):
    """Multi-head scaled dot-product attention as one graph node.

    q is (N, D); k and v are (M, D).  Each of the ``heads`` consecutive
    column blocks of width d_h = D / heads attends on its own,
    softmax(q_h k_h^T / sqrt(d_h)) v_h, and the head outputs are
    concatenated back to (N, D).  All heads run as batched matmuls on
    (heads, rows, d_h) arrays, and only the (heads, N, M) probabilities are
    kept for backward.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 2 or k.data.ndim != 2 or k.data.shape != v.data.shape \
            or q.data.shape[1] != k.data.shape[1]:
        raise ValueError(
            f"attention: q {q.data.shape}, k {k.data.shape} and v {v.data.shape} "
            "must be (N, D), (M, D) and (M, D)")
    d = q.data.shape[1]
    if heads < 1 or d % heads:
        raise ValueError(f"attention: width {d} does not split into {heads} heads")
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)

    # each head's block is made contiguous, and k's is stored transposed,
    # so every per-head matmul sees the operand layouts a 2-D one would
    def split(x):  # (rows, D) -> (heads, rows, d_h)
        return np.ascontiguousarray(x.reshape(len(x), heads, dh).transpose(1, 0, 2))

    def merge(x):  # (heads, rows, d_h) -> (rows, D)
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    def k_t():  # (heads, d_h, M)
        return np.ascontiguousarray(k.data.reshape(-1, heads, dh).transpose(1, 2, 0))

    # softmax in place, in the order scale, subtract the row max, exp, divide
    p = np.matmul(split(q.data), k_t(), out=_empty(
        (heads, len(q.data), len(k.data)), np.result_type(q.data, k.data)))
    p *= scale
    p -= p.max(axis=2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=2, keepdims=True)
    o = np.matmul(p, split(v.data))
    y = _empty((o.shape[1], d), o.dtype)
    y.reshape(o.shape[1], heads, dh)[...] = o.transpose(1, 0, 2)

    def bwd(g):
        gh = split(g)
        gv = merge(np.matmul(p.transpose(0, 2, 1), gh))
        gs = np.matmul(gh, split(v.data).transpose(0, 2, 1))
        gs -= (gs * p).sum(axis=2, keepdims=True)
        gs *= p
        gs *= scale
        gq = merge(np.matmul(gs, k_t().transpose(0, 2, 1)))
        gk = merge(np.matmul(split(q.data).transpose(0, 2, 1), gs).transpose(0, 2, 1))
        return gq, gk, gv
    return _make(y, (q, k, v), bwd)


def _check_bias(b, channels, opname):
    if b.data.ndim != 1 or b.data.shape[0] != channels:
        raise ValueError(f"{opname}: bias of shape {b.data.shape} does not match "
                         f"{channels} output channels")


def _bias_grad(g, b, axes):
    if not b.requires_grad:
        return None
    return np.asarray(g.sum(axis=axes, dtype=np.float64), dtype=b.data.dtype)


# convolution plumbing, one sample at a time: each sample's patches fill
# one reused (C*kh*kw, OH*OW) buffer, and each product with them is the
# 2-D BLAS call that a batched matmul makes for that sample.  conv2d and
# its weight gradient are products with the patches of x, its input
# gradient is the adjoint _conv_dx, and the transposed conv is the same
# three maps with the input and output roles exchanged

def _patch_products(x, w, s, p, product=True, a=None):
    """With P_n the patches of sample n of x (N, C, H, W) under w's kh x kw
    kernel and w2 = w.reshape(len(w), -1): the (N, len(w), OH, OW) stack of
    w2 @ P_n if ``product``, and the sum over n of a[n] @ P_n.T in w's
    shape if a (N, len(w), OH, OW) is given; None for what is not asked.

    The sum adds each sample's product into the first in sample order,
    which is ``np.sum(axis=0)`` of the stacked products bit for bit.
    """
    n, c, h, w_in = x.shape
    f, kh, kw = len(w), w.shape[2], w.shape[3]
    oh = (h + 2 * p - kh) // s + 1
    ow = (w_in + 2 * p - kw) // s + 1
    if oh <= 0 or ow <= 0:
        raise ValueError("kernel does not fit the padded input")
    xp = np.zeros((c, h + 2 * p, w_in + 2 * p), x.dtype)
    cols = np.empty((c, kh, kw, oh, ow), x.dtype)
    flat = cols.reshape(c * kh * kw, oh * ow)
    y = np.empty((n, f, oh, ow), np.result_type(w, x)) if product else None
    total = part = None
    for k in range(n):
        xp[:, p:p + h, p:p + w_in] = x[k]
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xp[:, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s]
        if product:
            np.matmul(w.reshape(f, -1), flat, out=y[k].reshape(f, -1))
        if a is not None:
            part = np.matmul(a[k].reshape(f, -1), flat.T, out=part)
            if total is None:
                total, part = part, None
            else:
                total += part
    return y, None if total is None else total.reshape(w.shape)


def _conv_dx(gy, w, s, p, h, w_in):
    """The adjoint of conv2d over its input: gy (N, F, OH, OW) to
    (N, C, h, w_in), scattering each sample's w2.T @ gy[n] back onto its
    padded input."""
    n, f, oh, ow = gy.shape
    c, kh, kw = w.shape[1], w.shape[2], w.shape[3]
    w2t = w.reshape(f, -1).T
    cols = np.empty((c, kh, kw, oh, ow), np.result_type(w, gy))
    xp = np.empty((c, h + 2 * p, w_in + 2 * p), gy.dtype)
    gx = np.empty((n, c, h, w_in), gy.dtype)
    for k in range(n):
        np.matmul(w2t, gy[k].reshape(f, -1), out=cols.reshape(c * kh * kw, -1))
        xp.fill(0)
        for i in range(kh):
            for j in range(kw):
                xp[:, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s] += cols[:, i, j]
        gx[k] = xp[:, p:p + h, p:p + w_in]
    return gx


def _conv_bias(y, b, opname):
    """Add the optional per-channel bias b in place to y (N, F, H, W); the
    returned Tensors are the node's parents after x and w."""
    if b is None:
        return ()
    b = _as_tensor(b)
    _check_bias(b, y.shape[1], opname)
    y += b.data[None, :, None, None]
    return (b,)


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-D convolution, x (N,C,H,W) with w (F,C,kh,kw) and an optional
    bias b (F,) added in the same node."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d expects 4-D input and weight")
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError("conv2d: channel mismatch")
    if len(x.data) == 0:
        raise ValueError("conv2d: empty batch")
    h, w_in = x.data.shape[2], x.data.shape[3]
    y = _patch_products(x.data, w.data, stride, padding)[0]
    bias = _conv_bias(y, b, "conv2d")
    def bwd(g):
        gx = _conv_dx(g, w.data, stride, padding, h, w_in) if x.requires_grad else None
        gw = (_patch_products(x.data, w.data, stride, padding, product=False, a=g)[1]
              if w.requires_grad else None)
        return (gx, gw, *(_bias_grad(g, t, (0, 2, 3)) for t in bias))
    return _make(y, (x, w, *bias), bwd)


def conv_transpose2d(x, w, b=None, stride=1, padding=0):
    """Transposed convolution, x (N,C,H,W) with w (C,F,kh,kw) and an
    optional bias b (F,) added in the same node.

    Output spatial size is (H-1)*stride + kh - 2*padding.  This is exactly
    the adjoint of conv2d, so the three convolution maps are reused with
    swapped roles; backward builds the patches of its gradient once for
    both the input and the weight gradient.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv_transpose2d expects 4-D input and weight")
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError("conv_transpose2d: channel mismatch")
    if len(x.data) == 0:
        raise ValueError("conv_transpose2d: empty batch")
    kh, kw = w.data.shape[2], w.data.shape[3]
    h_out = (x.data.shape[2] - 1) * stride + kh - 2 * padding
    w_out = (x.data.shape[3] - 1) * stride + kw - 2 * padding
    if h_out <= 0 or w_out <= 0:
        raise ValueError("transposed kernel does not produce a positive output size")
    y = _conv_dx(x.data, w.data, stride, padding, h_out, w_out)
    bias = _conv_bias(y, b, "conv_transpose2d")
    def bwd(g):
        gx = gw = None
        if x.requires_grad or w.requires_grad:
            gx, gw = _patch_products(g, w.data, stride, padding, product=x.requires_grad,
                                     a=x.data if w.requires_grad else None)
        return (gx, gw, *(_bias_grad(g, t, (0, 2, 3)) for t in bias))
    return _make(y, (x, w, *bias), bwd)


def max_pool2d(x, k):
    """Non-overlapping k x k max pooling; H and W must divide by k.

    Ties inside a window route the gradient to the first element in
    row-major order, which keeps backward deterministic.
    """
    x = _as_tensor(x)
    n, c, h, w = x.data.shape
    if h % k or w % k:
        raise ValueError(f"pooling window {k} must divide spatial dims ({h}, {w})")
    oh, ow = h // k, w // k
    xr = x.data.reshape(n, c, oh, k, ow, k).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, oh, ow, k * k)
    idx = xr.argmax(axis=-1)
    y = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    def bwd(g):
        gr = np.zeros((n, c, oh, ow, k * k), dtype=g.dtype)
        np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
        gx = gr.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return (np.ascontiguousarray(gx),)
    return _make(np.ascontiguousarray(y), (x,), bwd)

