"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional graph node; ops build the
graph lazily and ``backward`` walks it in reverse topological order.  The
op set is deliberately small: exactly what a convolutional extractor whose
heads stay at the backbone stride, an attention matcher and their losses
need.  Elementwise and reduction ops, 2-D matmul and transpose, an affine
``linear`` layer, row and pair gathers, layer norm, a same-size 2-D
convolution at stride 1 (square odd kernel, its bias folded into the same
node) and 2x2 max pooling, and one fused multi-head ``attention`` node.
``attention`` scales q once, keeps each head's scores as unnormalised
exponentials (unshifted where a Cauchy-Schwarz bound on the scores
allows) and normalises by their row sums, which the value product
returns beside its own output; for backward it keeps those
exponentials, the row sums and the scaled q, and splits q, k and v into
heads again there.  Storage is float32 (float64 is accepted for
numerical checking); explicit reductions accumulate in float64 before
casting back.  Broadcasting is limited to scalar-with-tensor and the
per-channel biases of ``linear`` and ``conv2d``; everything else
requires exact shape agreement, which keeps gradients trivially
correct.

``conv2d`` runs one sample at a time: each sample's patches fill one
reused (C*k*k, H*W) buffer, so a batch holds no more patch memory
than a single sample, and the weight gradient adds the samples' products
in sample order.  Every batch size, inference's N = 1 included, takes
this one path; an empty batch is rejected.

Ops link small graph nodes (gradient, parents, backward closure, dtype),
not Tensors; a leaf is its own node.  A node pins a parent's data only if
its backward reads it, and then only what it reads: relu keeps its mask.
An op whose parents want no gradient computes its output only: relu,
abs_ and clamp_min build no mask or sign, and max_pool2d no argmax.

``backward`` consumes its graph.  It accumulates into leaves (tensors no
op produced) and, node by node in reverse topological order, releases the
node's gradient, its backward closure and its parent references once the
node has propagated, so each activation is freed as soon as the last
backward that needs it has run.  A later ``backward`` that reaches a
consumed node raises instead of accumulating again.
"""

from __future__ import annotations

import math

import numpy as np


_CONSUMED = object()  # the _bwd of a node whose graph a backward has freed


class _Node:
    """An op output's place in the graph, without its data."""

    __slots__ = ("grad", "_parents", "_bwd", "_dtype")
    requires_grad = True

    def __init__(self, parents, bwd, dtype):
        self.grad, self._parents, self._bwd, self._dtype = None, parents, bwd, dtype


class Tensor:
    """An ndarray, with its graph node if an op recorded one."""

    __slots__ = ("data", "requires_grad", "grad", "_node")
    _parents, _bwd = (), None  # a leaf is its own node
    _dtype = property(lambda self: self.data.dtype)

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # asarray keeps 0-d shapes; ascontiguousarray would promote to (1,)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf,
        consuming the graph on the way.

        Leaves add to whatever ``.grad`` they already hold.  Once a node's
        backward has run, its gradient, backward closure and parent
        references are dropped and it is marked consumed, so no activation
        outlives the last backward that reads it.  A graph therefore
        supports one backward: reaching a consumed node (the same root
        again, or a second loss that shares a node with the first) raises
        RuntimeError before any gradient is accumulated.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        root = self if self._node is None else self._node
        topo, seen, stack = [], set(), [(root, False)]
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
        root.grad = seed if root.grad is None else root.grad + seed
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
                    if g.dtype != p._dtype:
                        g = g.astype(p._dtype)
                    if p.grad is None:
                        p.grad = g
                    else:
                        # out of place: a backward may return its incoming
                        # array (add does), so gradient arrays can be shared
                        p.grad = p.grad + g
            node._parents = ()
            node._bwd = _CONSUMED


def _make(data, parents, bwd):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node or p for p in parents), bwd, out.data.dtype)
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
    sa, sb = a.data.shape, b.data.shape
    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)
    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes(a, b, "sub")
    sa, sb = a.data.shape, b.data.shape
    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)
    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_shapes(a, b, "mul")
    x, y = a.data, b.data
    def bwd(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)
    return _make(x * y, (a, b), bwd)


def neg(a):
    return mul(a, -1.0)


def square(a):
    a = _as_tensor(a)
    x = a.data
    def bwd(g):
        return (g * (2.0 * x),)
    return _make(x * x, (a,), bwd)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    x, y = a.data, b.data
    def bwd(g):
        return g @ y.T, x.T @ g
    return _make(x @ y, (a, b), bwd)


def linear(x, w, b):
    """Affine map x @ w + b, x (M, K) with w (K, D) and bias b (D,).

    The bias is added in place to the product, and its gradient is the
    float64 column sum of the incoming gradient cast back to b's dtype.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear expects 2-D input and weight")
    _check_bias(b, w.data.shape[1], "linear")
    y = x.data @ w.data
    y += b.data
    xd, wd = (x.data if w.requires_grad else None), (w.data if x.requires_grad else None)
    b_dtype = b.data.dtype if b.requires_grad else None
    def bwd(g):
        gx = None if wd is None else g @ wd.T
        gw = None if xd is None else xd.T @ g
        return gx, gw, _bias_grad(g, b_dtype, (0,))
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
    keep = a.data > 0 if a.requires_grad else None
    # np.where(keep, a, 0) bit for bit: fmax maps NaN to 0, and adding 0
    # turns the -0.0 that fmax may keep into +0.0
    y = np.fmax(a.data, 0)
    y += 0
    def bwd(g):
        return (g * keep,)
    return _make(y, (a,), bwd)


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
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
    x = a.data
    def bwd(g):
        return (g / x,)
    return _make(np.log(x), (a,), bwd)


def abs_(a):
    a = _as_tensor(a)
    # backward reads only the sign: -1, +-0, 1 or NaN, all exact in float16
    sign = (np.sign(a.data, out=np.empty(a.data.shape, np.float16), casting="same_kind")
            if a.requires_grad else None)
    def bwd(g):
        return (g * sign,)
    return _make(np.abs(a.data), (a,), bwd)


def clamp_min(a, floor):
    """Elementwise maximum with a constant; gradient is zero where clamped."""
    a = _as_tensor(a)
    keep = a.data >= floor if a.requires_grad else None
    def bwd(g):
        return (g * keep,)
    return _make(np.maximum(a.data, floor), (a,), bwd)


def softmax(a, axis):
    a = _as_tensor(a)
    # the shift, exp and divide all write into the output
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    def bwd(g):
        gx = g - (g * y).sum(axis=axis, keepdims=True)
        gx *= y
        return (gx,)
    return _make(y, (a,), bwd)


def sum_all(a):
    a = _as_tensor(a)
    shape, dtype = a.data.shape, a.data.dtype
    val = np.asarray(a.data.sum(dtype=np.float64), dtype=dtype)
    def bwd(g):
        return (np.full(shape, g.reshape(()), dtype=dtype),)
    return _make(val, (a,), bwd)


def mean_all(a):
    a = _as_tensor(a)
    n, shape, dtype = a.data.size, a.data.shape, a.data.dtype
    val = np.asarray(a.data.sum(dtype=np.float64) / n, dtype=dtype)
    def bwd(g):
        return (np.full(shape, g.reshape(()) / n, dtype=dtype),)
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
    idx, shape = np.asarray(idx, dtype=np.int64), a.data.shape
    def bwd(g):
        out = np.zeros(shape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return (out,)
    return _make(a.data[idx], (a,), bwd)


def take_pairs(a, ij):
    """Gather entries a[i, j] for rows (i, j) of ij; returns a 1-D tensor."""
    a = _as_tensor(a)
    ij = np.asarray(ij, dtype=np.int64).reshape(-1, 2)
    ii, jj, shape = ij[:, 0], ij[:, 1], a.data.shape
    def bwd(g):
        out = np.zeros(shape, dtype=g.dtype)
        np.add.at(out, (ii, jj), g)
        return (out,)
    return _make(a.data[ii, jj], (a,), bwd)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine;
    1e-5 is added to the variance before the square root."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    # x - mu becomes xhat in place
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data
    gd, red, beta_dtype = gamma.data, tuple(range(x.data.ndim - 1)), beta.data.dtype
    def bwd(g):
        dxhat = g * gd
        gi = dxhat * inv
        gx = gi - gi.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True) * inv
        ggamma = np.asarray((g * xhat).sum(axis=red, dtype=np.float64), dtype=gd.dtype)
        gbeta = np.asarray(g.sum(axis=red, dtype=np.float64), dtype=beta_dtype)
        return gx, ggamma, gbeta
    return _make(y, (x, gamma, beta), bwd)


# While |S_ij| <= 30 bounds every score of a head, its exponentials need
# no shift by the row maxima: each term lies in [e^-30, e^30], so a row
# sums to at most M e^30, below float32's largest value (about e^88.7) for
# any M < e^58, and to at least e^-30, far above float32's smallest normal
# (about e^-87.3).  float64's range is wider still.  Backward divides g
# by these row sums: where they near M e^30, float32 gradient entries
# below 1.2e-38 M e^30 (1.3e-22 at M = 1,024) turn subnormal and lose
# digits; a bound of 60 would put that edge at 1.4e-9.
_UNSHIFTED_EXP_BOUND = 30.0


def attention(q, k, v, heads):
    """Multi-head scaled dot-product attention as one graph node.

    q is (N, D); k and v are (M, D) with M >= 1.  Each of the ``heads``
    consecutive column blocks of width d_h = D / heads attends on its own,
    softmax(q_h k_h^T / sqrt(d_h)) v_h, and the head outputs are
    concatenated back to (N, D).  The heads run one at a time, forward and
    backward, and each product is the 2-D matmul a batched one makes for
    that head.

    Forward scales q once, as an (N, D) array, and bounds each head's
    scores in float64 by Cauchy-Schwarz: |S_ij| <= max_i |q_i| max_j |k_j|.
    Per head it writes S_h = q_h k_h^T into one (N, M) block and
    exponentiates it in place to E_h: unshifted when the bound is at most
    ``_UNSHIFTED_EXP_BOUND``, otherwise (a NaN or inf bound included)
    after subtracting the row maxima.  One product E_h [v_h | 1] gives
    both E_h v_h and the (N, 1) row sums s_h, and y_h = (E_h v_h) / s_h.
    With a gradient wanted it keeps the (heads, N, M) stack of E_h, the
    row sums and the scaled q; otherwise one (N, M) block serves every
    head.  Backward reads E_h and s_h only through E_h / s_h, the softmax
    under either shift: it splits q, k and v into heads again and, with
    G_h = g_h / s_h and D_h = rowsum(G_h * y_h), takes
    dS = E_h * (G_h v_h^T - D_h) and gv_h = E_h^T G_h; the scale goes onto
    the (N, d_h) gq.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 2 or k.data.ndim != 2 or k.data.shape != v.data.shape \
            or q.data.shape[1] != k.data.shape[1]:
        raise ValueError(
            f"attention: q {q.data.shape}, k {k.data.shape} and v {v.data.shape} "
            "must be (N, D), (M, D) and (M, D)")
    if len(k.data) == 0:
        raise ValueError(f"attention: q {q.data.shape} has no keys to attend to "
                         f"(k {k.data.shape}, v {v.data.shape})")
    d = q.data.shape[1]
    if heads < 1 or d % heads:
        raise ValueError(f"attention: width {d} does not split into {heads} heads")
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)
    qd, kd, vd = q.data * scale, k.data, v.data
    n, m = len(qd), len(kd)

    # each head's block is made contiguous, and k is stored transposed, so
    # every product sees the operand layouts a batched matmul gave it
    def split(x):  # (rows, D) -> (heads, rows, d_h)
        return np.ascontiguousarray(x.reshape(len(x), heads, dh).transpose(1, 0, 2))

    def norm_max(x):  # (rows, D) -> (heads,): largest row norm per head
        sq = np.square(x.reshape(len(x), heads, dh), dtype=np.float64).sum(axis=2)
        return np.sqrt(sq.max(axis=0, initial=0.0))

    bound = norm_max(qd) * norm_max(kd)
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    e = np.empty((heads, n, m) if keep else (n, m), np.result_type(qd, kd))
    y = np.empty((n, d), np.result_type(e, vd))
    s = np.empty((heads, n, 1), y.dtype)
    qs, kt = split(qd), np.ascontiguousarray(kd.T)
    v1 = np.empty((heads, m, dh + 1), vd.dtype)  # each head's [v_h | 1]
    v1[..., :dh] = vd.reshape(m, heads, dh).transpose(1, 0, 2)
    v1[..., dh] = 1
    for h in range(heads):
        eh, cols = (e[h] if keep else e), slice(h * dh, (h + 1) * dh)
        np.matmul(qs[h], kt[cols], out=eh)
        if not bound[h] <= _UNSHIFTED_EXP_BOUND:
            eh -= eh.max(axis=1, keepdims=True)
        np.exp(eh, out=eh)
        ev = eh @ v1[h]
        s[h] = ev[:, dh:]
        np.divide(ev[:, :dh], s[h], out=y[:, cols])

    def bwd(g):
        qs, kt, vs, gh = split(qd), np.ascontiguousarray(kd.T), split(vd), split(g)
        gq, gk, gv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        ds = None  # one (N, M) block, reused by every head
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            gn = gh[h] / s[h]
            dot = (gn * y[:, cols]).sum(axis=1, keepdims=True)
            gv[:, cols] = e[h].T @ gn
            ds = np.matmul(gn, vs[h].T, out=ds)
            ds -= dot
            ds *= e[h]
            np.multiply(ds @ kt[cols].T, scale, out=gq[:, cols])
            gk[:, cols] = (qs[h].T @ ds).T
        return gq, gk, gv
    return _make(y, (q, k, v), bwd)


def _check_bias(b, channels, opname):
    if b.data.ndim != 1 or b.data.shape[0] != channels:
        raise ValueError(f"{opname}: bias of shape {b.data.shape} does not match "
                         f"{channels} output channels")


def _bias_grad(g, dtype, axes):
    if dtype is None:
        return None
    return np.asarray(g.sum(axis=axes, dtype=np.float64), dtype=dtype)


# convolution plumbing, one sample at a time: each sample's patches under
# a k x k kernel, padded by k // 2, fill one reused (C*k*k, H*W) buffer,
# and each product with them is the 2-D BLAS call that a batched matmul
# makes for that sample.  conv2d and its weight gradient are products with
# the patches of x, and its input gradient is the adjoint _conv_dx

def _patch_products(x, w, a=None):
    """With P_n the patches of sample n of x (N, C, H, W) under w's k x k
    kernel and w2 = w.reshape(len(w), -1): the (N, len(w), H, W) stack of
    w2 @ P_n, or, if a (N, len(w), H, W) is given, the sum over n of
    a[n] @ P_n.T in w's shape.

    The sum adds each sample's product into the first in sample order,
    which is ``np.sum(axis=0)`` of the stacked products bit for bit.
    """
    n, c, h, wd = x.shape
    f, k, p = len(w), w.shape[2], w.shape[2] // 2
    xp = np.zeros((c, h + 2 * p, wd + 2 * p), x.dtype)
    cols = np.empty((c, k, k, h, wd), x.dtype)
    flat = cols.reshape(c * k * k, h * wd)
    y = np.empty((n, f, h, wd), np.result_type(w, x)) if a is None else None
    total = part = None
    for m in range(n):
        if k == 1:  # the patch matrix is the sample
            flat = x[m].reshape(c, -1)
        else:
            xp[:, p:p + h, p:p + wd] = x[m]
            for i in range(k):
                for j in range(k):
                    cols[:, i, j] = xp[:, i:i + h, j:j + wd]
        if a is None:
            np.matmul(w.reshape(f, -1), flat, out=y[m].reshape(f, -1))
            continue
        part = np.matmul(a[m].reshape(f, -1), flat.T, out=part)
        if total is None:
            total, part = part, None
        else:
            total += part
    return y if a is None else total.reshape(w.shape)


def _conv_dx(gy, w):
    """The adjoint of conv2d over its input: gy (N, F, H, W) to
    (N, C, H, W), scattering each sample's w2.T @ gy[n] back onto its
    padded input."""
    n, f, h, wd = gy.shape
    c, k, p = w.shape[1], w.shape[2], w.shape[2] // 2
    w2t = w.reshape(f, -1).T
    cols = np.empty((c, k, k, h, wd), gy.dtype)
    xp = np.empty((c, h + 2 * p, wd + 2 * p), gy.dtype)
    gx = np.empty((n, c, h, wd), gy.dtype)
    for m in range(n):
        np.matmul(w2t, gy[m].reshape(f, -1), out=cols.reshape(c * k * k, -1))
        xp.fill(0)
        for i in range(k):
            for j in range(k):
                xp[:, i:i + h, j:j + wd] += cols[:, i, j]
        gx[m] = xp[:, p:p + h, p:p + wd]
    return gx


def conv2d(x, w, b):
    """Same-size 2-D convolution at stride 1: x (N,C,H,W) with a square,
    odd-sized kernel w (F,C,k,k), zero-padded by k // 2, plus the bias
    b (F,) in the same node."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d expects 4-D input and weight")
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError("conv2d: channel mismatch")
    kh, kw = w.data.shape[2:]
    if kh != kw or kh % 2 == 0:  # only a square odd kernel has a centre pixel
        raise ValueError(f"conv2d: a {kh}x{kw} kernel is not square and odd-sized")
    if len(x.data) == 0:
        raise ValueError("conv2d: empty batch")
    _check_bias(b, len(w.data), "conv2d")
    y = _patch_products(x.data, w.data)
    y += b.data[None, :, None, None]
    xd, wd, x_grad = (x.data if w.requires_grad else None), w.data, x.requires_grad
    b_dtype = b.data.dtype if b.requires_grad else None
    def bwd(g):
        gx = _conv_dx(g, wd) if x_grad else None
        gw = _patch_products(xd, wd, a=g) if xd is not None else None
        return gx, gw, _bias_grad(g, b_dtype, (0, 2, 3))
    return _make(y, (x, w, b), bwd)


def max_pool2d(x):
    """Non-overlapping 2x2 max pooling; H and W must be even.

    Each output is its window's value at the first argmax in row-major
    order, NaN payloads and signed-zero ties included, and backward routes
    the gradient there; it keeps that argmax as uint8.  With no gradient
    wanted there is no argmax: a running maximum over the four strided
    window views gives the same bytes.
    """
    x = _as_tensor(x)
    k = 2  # the window's side
    n, c, h, w = x.data.shape
    if h % k or w % k:
        raise ValueError(f"pooling window {k} must divide spatial dims ({h}, {w})")
    oh, ow = h // k, w // k
    x6 = x.data.reshape(n, c, oh, k, ow, k)
    if not x.requires_grad:
        # np.maximum keeps its second argument on ties, the first of two NaNs
        y = x6[:, :, :, 0, :, 0].copy()
        for q in range(1, k * k):
            np.maximum(x6[:, :, :, q // k, :, q % k], y, out=y)
        if not np.isnan(y).any():
            return Tensor(y)
    xr = x6.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
    idx = xr.argmax(axis=-1).astype(np.uint8)
    y = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    def bwd(g):
        gr = np.zeros((n, c, oh, ow, k * k), dtype=g.dtype)
        np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
        gx = gr.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return (np.ascontiguousarray(gx),)
    return _make(np.ascontiguousarray(y), (x,), bwd)
