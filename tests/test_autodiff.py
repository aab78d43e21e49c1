"""Forward semantics and gradient correctness of the reverse-mode core."""

import tracemalloc

import numpy as np
import pytest

import evimatch.autodiff as ad
from evimatch.autodiff import Tensor

rng = np.random.default_rng(42)


def t64(*shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, shape).astype(np.float64)


def gradcheck(fn, inputs, eps=1e-3, rtol=1e-3, atol=1e-6):
    """Verify analytic gradients of fn against central finite differences.

    fn takes the given Tensors and returns a Tensor of any shape; the check
    contracts it to a scalar with a fixed random projection so asymmetric
    gradient bugs cannot cancel.  Inputs are promoted to float64 leaves.
    Each element must satisfy |analytic - numeric| <= rtol * max(|a|, |n|)
    + atol; the first violation raises AssertionError with its location.
    fn must be pure: it is re-evaluated many times.
    """
    leaves = []
    for t in inputs:
        data = np.asarray(t.data if isinstance(t, Tensor) else t,
                          dtype=np.float64)
        leaves.append(Tensor(data.copy(), requires_grad=True))
    out = fn(*leaves)
    w = np.random.default_rng(12345).normal(size=out.data.shape)
    loss = ad.sum_all(ad.mul(out, Tensor(w)))
    loss.backward()
    analytic = [np.zeros_like(l.data) if l.grad is None else l.grad.copy()
                for l in leaves]

    def eval_loss():
        consts = [Tensor(l.data) for l in leaves]
        return float((fn(*consts).data * w).sum(dtype=np.float64))

    for k, leaf in enumerate(leaves):
        flat = leaf.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = eval_loss()
            flat[i] = orig - eps
            lo = eval_loss()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic[k].reshape(-1)[i]
            tol = rtol * max(abs(a), abs(numeric)) + atol
            if abs(a - numeric) > tol:
                raise AssertionError(
                    f"gradient mismatch at input {k} element {i}: "
                    f"analytic {a:.8g}, numeric {numeric:.8g}")
    return True


# -- tensor mechanics ------------------------------------------------------

def test_tensor_keeps_zero_dim_shape():
    t = Tensor(np.float32(2.5))
    assert t.shape == ()
    assert float(t.data) == pytest.approx(2.5)


def test_tensor_casts_int_to_float32():
    t = Tensor(np.arange(4))
    assert t.data.dtype == np.float32


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        t.backward()


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    y = ad.sum_all(ad.add(ad.mul(x, x), x))  # x^2 + x -> dy/dx = 2x + 1
    y.backward()
    assert x.grad[0] == pytest.approx(5.0)


def test_second_backward_raises_and_keeps_leaf_gradients():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    h = ad.mul(x, 2.0)
    y = ad.sum_all(ad.mul(h, 3.0))
    y.backward()
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])
    assert h.grad is None and y.grad is None  # intermediates are released
    with pytest.raises(RuntimeError, match="consumed"):
        y.backward()
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])


def test_second_loss_sharing_a_node_raises():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    h = ad.mul(x, 2.0)
    first, second = ad.sum_all(h), ad.sum_all(ad.mul(h, 3.0))
    first.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    with pytest.raises(RuntimeError, match="consumed"):
        second.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    assert second.grad is None  # raised before seeding the root


def test_backward_frees_each_activation_once_consumed():
    # the probe node's backward runs last; by then the eight 1 MiB
    # activations above it must be gone, not merely freed on return
    live_at_probe = []

    def probe(g):
        live_at_probe.append(tracemalloc.get_traced_memory()[0])
        return (g,)

    x = Tensor(np.ones(1 << 18, np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        h = ad._make(x.data.copy(), (x,), probe)
        for _ in range(8):
            h = ad.mul(h, 1.5)
        y = ad.sum_all(h)
        del h
        y.backward()
    finally:
        tracemalloc.stop()
    assert live_at_probe[0] < 4 * 2**20
    np.testing.assert_allclose(x.grad, 1.5 ** 8)


def test_backward_from_a_leaf_accumulates():
    x = Tensor(np.float32(2.0), requires_grad=True)
    ad.mul(x, 3.0).backward()
    x.backward()
    assert float(x.grad) == 4.0


def test_shared_gradient_arrays_accumulate_independently():
    # add's backward hands the same array to both parents
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    z = Tensor(np.ones(3, np.float32), requires_grad=True)
    y = ad.add(ad.sum_all(ad.add(x, z)), ad.sum_all(x))
    y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(z.grad, [1.0, 1.0, 1.0])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="do not match"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_scalar_broadcast_allowed():
    y = ad.mul(Tensor(np.ones((2, 2))), Tensor(np.float32(3.0)))
    assert (y.data == 3.0).all()


def test_scalar_broadcast_gradient_collects_sum():
    s = Tensor(np.float32(2.0), requires_grad=True)
    y = ad.sum_all(ad.mul(Tensor(np.arange(4, dtype=np.float32)), s))
    y.backward()
    assert s.grad.shape == ()
    assert float(s.grad) == pytest.approx(6.0)


# -- forward semantics spot checks ----------------------------------------

def test_matmul_matches_numpy():
    a, b = t64(3, 4), t64(4, 2)
    y = ad.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(y.data, a @ b, rtol=1e-6)


def test_softmax_rows_sum_to_one():
    y = ad.softmax(Tensor(t64(5, 7)), axis=1)
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)


def test_masked_mean_value():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    m = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert float(ad.masked_mean(a, m).data) == pytest.approx(2.5)


def test_masked_mean_empty_mask_raises():
    with pytest.raises(ValueError, match="empty mask"):
        ad.masked_mean(Tensor(np.ones((2, 2))), np.zeros((2, 2)))


def test_masked_mean_requires_exact_shape():
    with pytest.raises(ValueError, match="mask shape"):
        ad.masked_mean(Tensor(np.ones((2, 2))), np.ones((1, 2)))


def test_l2_normalize_unit_rows():
    y = ad.l2_normalize(Tensor(t64(4, 6)), axis=1)
    np.testing.assert_allclose((y.data ** 2).sum(axis=1), 1.0, atol=1e-6)


def test_clamp_min_floors_values():
    y = ad.clamp_min(Tensor(np.array([-1.0, 0.5, 2.0])), 0.0)
    np.testing.assert_allclose(y.data, [0.0, 0.5, 2.0])


def test_max_pool_requires_divisible_dims():
    with pytest.raises(ValueError, match="divide"):
        ad.max_pool2d(Tensor(np.ones((1, 1, 5, 4))), 2)


def test_conv2d_identity_kernel():
    x = t64(1, 1, 5, 5)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y = ad.conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
    np.testing.assert_allclose(y.data, x, atol=1e-6)


def test_conv_transpose_doubles_spatial_size():
    y = ad.conv_transpose2d(Tensor(t64(1, 2, 4, 4)), Tensor(t64(2, 3, 4, 4)),
                            stride=2, padding=1)
    assert y.data.shape == (1, 3, 8, 8)


# -- gradient checks, one per op ------------------------------------------
# inputs stay away from kinks (relu/abs/clamp) and pooling ties

def test_grad_add():
    assert gradcheck(ad.add, [t64(3, 4), t64(3, 4)])


def test_grad_sub():
    assert gradcheck(ad.sub, [t64(3, 4), t64(3, 4)])


def test_grad_mul():
    assert gradcheck(ad.mul, [t64(3, 4), t64(3, 4)])


def test_grad_mul_scalar_broadcast():
    assert gradcheck(ad.mul, [t64(3, 4), np.float64(0.7)])


def test_grad_neg():
    assert gradcheck(ad.neg, [t64(5)])


def test_grad_square():
    assert gradcheck(ad.square, [t64(3, 3)])


def test_grad_matmul():
    assert gradcheck(ad.matmul, [t64(3, 4), t64(4, 2)])


def test_grad_transpose():
    assert gradcheck(ad.transpose, [t64(3, 4)])


def test_grad_relu():
    x = t64(4, 4)
    x[np.abs(x) < 0.05] = 0.5
    assert gradcheck(ad.relu, [x])


def test_grad_sigmoid():
    assert gradcheck(ad.sigmoid, [t64(4, 4, lo=-3.0, hi=3.0)])


def test_grad_exp():
    assert gradcheck(ad.exp, [t64(4, 4)])


def test_grad_log():
    assert gradcheck(ad.log, [t64(4, 4, lo=0.5, hi=2.0)])


def test_grad_abs():
    x = t64(4, 4)
    x[np.abs(x) < 0.05] = -0.5
    assert gradcheck(ad.abs_, [x])


def test_grad_clamp_min():
    x = t64(4, 4)
    x[np.abs(x) < 0.05] = 0.5  # keep away from the floor at 0
    assert gradcheck(lambda t: ad.clamp_min(t, 0.0), [x])


def test_grad_softmax():
    assert gradcheck(lambda x: ad.softmax(x, axis=1), [t64(3, 5)])
    assert gradcheck(lambda x: ad.softmax(x, axis=0), [t64(3, 5)])


def test_grad_sum_all():
    assert gradcheck(ad.sum_all, [t64(3, 4)])


def test_grad_mean_all():
    assert gradcheck(ad.mean_all, [t64(3, 4)])


def test_grad_masked_mean():
    m = (rng.uniform(size=(4, 4)) > 0.4).astype(np.float64)
    m[0, 0] = 1.0
    assert gradcheck(lambda x: ad.masked_mean(x, m), [t64(4, 4)])


def test_grad_l2_normalize():
    assert gradcheck(lambda x: ad.l2_normalize(x, axis=1),
                     [t64(3, 5, lo=0.3, hi=1.0)])


@pytest.mark.parametrize("heads, n_q, n_kv", [(1, 3, 3), (2, 3, 3), (1, 4, 2),
                                             (2, 3, 5)])
def test_grad_attention(heads, n_q, n_kv):
    assert gradcheck(lambda q, k, v: ad.attention(q, k, v, heads),
                     [t64(n_q, 4), t64(n_kv, 4), t64(n_kv, 4)])


def attention_per_head(q, k, v, heads, g):
    """Reference: one 2-D graph per head from matmul, transpose, mul and
    softmax, on column blocks cut outside the graph.  Returns the output
    and the q, k, v gradients of sum(output * g), heads concatenated."""
    dh = q.shape[1] // heads
    scale = Tensor(np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype))
    outs, grads = [], []
    for h in range(heads):
        block = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = (Tensor(x[:, block], requires_grad=True) for x in (q, k, v))
        att = ad.softmax(ad.mul(ad.matmul(qh, ad.transpose(kh)), scale), axis=1)
        out = ad.matmul(att, vh)
        ad.sum_all(ad.mul(out, Tensor(g[:, block]))).backward()
        outs.append(out.data)
        grads.append((qh.grad, kh.grad, vh.grad))
    return (np.concatenate(outs, axis=1),
            *(np.concatenate(gs, axis=1) for gs in zip(*grads)))


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("heads, n_q, n_kv", [(4, 37, 53), (2, 24, 24), (1, 9, 5)])
def test_attention_bitwise_equals_per_head_graph(heads, n_q, n_kv):
    r = np.random.default_rng(heads)
    q, k, v = (r.normal(size=(n, 32)).astype(np.float32) for n in (n_q, n_kv, n_kv))
    g = r.normal(size=(n_q, 32)).astype(np.float32)
    tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
    y = ad.attention(tq, tk, tv, heads)
    ad.sum_all(ad.mul(y, Tensor(g))).backward()
    ref = attention_per_head(q, k, v, heads, g)
    for got, want in zip((y.data, tq.grad, tk.grad, tv.grad), ref):
        assert_bitwise_equal(got, want)


def test_attention_rejects_bad_shapes():
    x = Tensor(np.ones((3, 4), np.float32))
    with pytest.raises(ValueError, match="heads"):
        ad.attention(x, x, x, 3)
    with pytest.raises(ValueError, match="must be"):
        ad.attention(x, Tensor(np.ones((3, 2), np.float32)), x, 2)


def test_grad_take_rows():
    idx = np.array([0, 2, 2, 1])  # duplicate rows must accumulate
    assert gradcheck(lambda x: ad.take_rows(x, idx), [t64(4, 3)])


def test_grad_take_pairs():
    ij = np.array([[0, 1], [2, 2], [0, 1]])
    assert gradcheck(lambda x: ad.take_pairs(x, ij), [t64(3, 4)])


def test_grad_layer_norm():
    assert gradcheck(ad.layer_norm, [t64(4, 6), t64(6, lo=0.5, hi=1.5), t64(6)])


def test_grad_conv2d():
    assert gradcheck(lambda x, w: ad.conv2d(x, w, stride=1, padding=1),
                     [t64(2, 3, 6, 6), t64(4, 3, 3, 3)])


def test_grad_conv2d_strided():
    assert gradcheck(lambda x, w: ad.conv2d(x, w, stride=2, padding=1),
                     [t64(1, 2, 8, 8), t64(3, 2, 3, 3)])


def test_grad_conv_transpose2d():
    assert gradcheck(lambda x, w: ad.conv_transpose2d(x, w, stride=2, padding=1),
                     [t64(1, 2, 4, 4), t64(2, 3, 4, 4)])


def test_grad_conv2d_bias():
    assert gradcheck(lambda x, w, b: ad.conv2d(x, w, b, stride=2, padding=1),
                     [t64(2, 2, 6, 6), t64(3, 2, 3, 3), t64(3)])


def test_grad_conv_transpose2d_bias():
    assert gradcheck(lambda x, w, b: ad.conv_transpose2d(x, w, b, stride=2, padding=1),
                     [t64(1, 2, 4, 4), t64(2, 3, 4, 4), t64(3)])


def test_grad_linear():
    assert gradcheck(ad.linear, [t64(5, 4), t64(4, 3), t64(3)])


def test_grad_max_pool2d():
    x = t64(1, 2, 4, 4)
    x += np.arange(32).reshape(x.shape) * 0.1  # break pooling ties
    assert gradcheck(lambda t: ad.max_pool2d(t, 2), [x])


def test_gradcheck_catches_wrong_gradient():
    def broken(x):
        # forward of square with the backward of identity
        y = ad.square(x)
        return ad._make(y.data, (x,), lambda g: (g,))
    with pytest.raises(AssertionError, match="gradient mismatch"):
        gradcheck(broken, [t64(3, lo=0.5, hi=1.0)])


# -- biases folded into their conv/linear node ---------------------------------

def bias_add_reference(x, b):
    """The separate per-channel bias node the folded biases replaced:
    (N,C,H,W)+(C,) or (M,D)+(D,), with the float64 channel-sum gradient."""
    axes = (0, 2, 3) if x.data.ndim == 4 else (0,)
    shape = (1, -1, 1, 1) if x.data.ndim == 4 else (1, -1)
    def bwd(g):
        return g, np.asarray(g.sum(axis=axes, dtype=np.float64), dtype=b.data.dtype)
    return ad._make(x.data + b.data.reshape(shape), (x, b), bwd)


def folded_and_reference(fused, unbiased, shapes, seed):
    """Output and input gradients of sum(fused(x, w, b) * g) and of the
    same loss through bias_add_reference(unbiased(x, w), b)."""
    r = np.random.default_rng(seed)
    arrays = [r.normal(size=s).astype(np.float32) for s in shapes]
    g, results = None, []
    for build in (fused, lambda x, w, b: bias_add_reference(unbiased(x, w), b)):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        y = build(*leaves)
        if g is None:
            g = Tensor(r.normal(size=y.shape).astype(np.float32))
        ad.sum_all(ad.mul(y, g)).backward()
        results.append([y.data] + [t.grad for t in leaves])
    return results


@pytest.mark.parametrize("stride, padding", [(1, 1), (2, 1), (1, 0)])
def test_conv2d_bias_bitwise_equals_bias_node(stride, padding):
    got, want = folded_and_reference(
        lambda x, w, b: ad.conv2d(x, w, b, stride=stride, padding=padding),
        lambda x, w: ad.conv2d(x, w, stride=stride, padding=padding),
        [(3, 4, 12, 12), (5, 4, 3, 3), (5,)], seed=stride + padding)
    for a, b in zip(got, want):
        assert_bitwise_equal(a, b)


def test_conv_transpose2d_bias_bitwise_equals_bias_node():
    got, want = folded_and_reference(
        lambda x, w, b: ad.conv_transpose2d(x, w, b, stride=2, padding=1),
        lambda x, w: ad.conv_transpose2d(x, w, stride=2, padding=1),
        [(3, 6, 8, 8), (6, 4, 4, 4), (4,)], seed=7)
    for a, b in zip(got, want):
        assert_bitwise_equal(a, b)


def test_linear_bitwise_equals_matmul_and_bias_node():
    got, want = folded_and_reference(ad.linear, ad.matmul,
                                     [(37, 24), (24, 16), (16,)], seed=3)
    for a, b in zip(got, want):
        assert_bitwise_equal(a, b)


@pytest.mark.parametrize("op, x, w", [
    (ad.conv2d, np.ones((1, 2, 4, 4)), np.ones((3, 2, 3, 3))),
    (ad.conv_transpose2d, np.ones((1, 2, 4, 4)), np.ones((2, 3, 2, 2))),
    (ad.linear, np.ones((4, 2)), np.ones((2, 3))),
])
def test_bias_must_match_output_channels(op, x, w):
    for bad in (np.ones(2), np.ones((1, 3))):
        with pytest.raises(ValueError, match="does not match 3 output channels"):
            op(Tensor(x), Tensor(w), Tensor(bad))


def test_frozen_bias_gets_no_gradient():
    x = Tensor(np.ones((1, 2, 4, 4), np.float32), requires_grad=True)
    b = Tensor(np.ones(3, np.float32))
    ad.sum_all(ad.conv2d(x, Tensor(np.ones((3, 2, 3, 3), np.float32)), b)).backward()
    assert x.grad is not None and b.grad is None


# -- per-sample convolutions ---------------------------------------------------

def batched_patches(x, kh, kw, s, p):
    """The batch-wide (N, C*kh*kw, OH*OW) patch matrix the per-sample
    convolutions replaced, with OH and OW."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    cols = np.empty((n, c, kh, kw, oh, ow), x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def batched_adjoint(gy, w, s, p, h, w_in):
    """conv2d's batched input gradient: one matmul over the batch, then a
    scatter-add of every sample's columns at once."""
    n, f, oh, ow = gy.shape
    c, kh, kw = w.shape[1:]
    cols = np.matmul(w.reshape(f, -1).T[None], gy.reshape(n, f, oh * ow))
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * p, w_in + 2 * p), gy.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s] += cols[:, :, i, j]
    return xp[:, :, p:p + h, p:p + w_in]


def batched_conv2d(x, w, g, s, p):
    n, f = len(x), len(w)
    cols, oh, ow = batched_patches(x, w.shape[2], w.shape[3], s, p)
    y = np.matmul(w.reshape(f, -1)[None], cols).reshape(n, f, oh, ow)
    gx = batched_adjoint(g, w, s, p, x.shape[2], x.shape[3])
    gw = np.matmul(g.reshape(n, f, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    return y, gx, gw.reshape(w.shape)


def batched_conv_transpose2d(x, w, g, s, p):
    n, c = x.shape[:2]
    y = batched_adjoint(x, w, s, p, g.shape[2], g.shape[3])
    cols, oh, ow = batched_patches(g, w.shape[2], w.shape[3], s, p)
    gx = np.matmul(w.reshape(c, -1)[None], cols).reshape(n, c, oh, ow)
    gw = np.matmul(x.reshape(n, c, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    return y, gx, gw.reshape(w.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3, 8, 9, 17])
@pytest.mark.parametrize("op, reference, w_shape", [
    (ad.conv2d, batched_conv2d, (6, 5, 3, 3)),
    (ad.conv_transpose2d, batched_conv_transpose2d, (5, 6, 3, 3)),
])
def test_conv_bitwise_equals_batched_formulation(op, reference, w_shape, n, dtype):
    # the weight gradient must add the samples' products in sample order,
    # as .sum(axis=0) does; pairwise or tree sums change bytes from N = 8
    r = np.random.default_rng(n)
    for stride in (1, 2):
        for padding in (0, 1):
            x = r.normal(size=(n, 5, 9, 7)).astype(dtype)
            w = r.normal(size=w_shape).astype(dtype)
            tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            y = op(tx, tw, stride=stride, padding=padding)
            g = r.normal(size=y.shape).astype(dtype)
            ad.sum_all(ad.mul(y, Tensor(g))).backward()
            for got, want in zip((y.data, tx.grad, tw.grad),
                                 reference(x, w, g, stride, padding)):
                assert_bitwise_equal(got, want)


def test_conv2d_forward_holds_one_sample_of_patches():
    # the batch-wide patch matrix of this call would be 8*576*1024 float32
    x = Tensor(np.ones((8, 64, 32, 32), np.float32))
    w = Tensor(np.ones((64, 64, 3, 3), np.float32))
    tracemalloc.start()
    try:
        ad.conv2d(x, w, padding=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 576 * 1024 * 4


@pytest.mark.parametrize("op, w_shape", [(ad.conv2d, (3, 2, 3, 3)),
                                         (ad.conv_transpose2d, (2, 3, 4, 4))])
def test_conv_rejects_an_empty_batch(op, w_shape):
    x = Tensor(np.ones((0, 2, 4, 4), np.float32), requires_grad=True)
    with pytest.raises(ValueError, match=f"{op.__name__}: empty batch"):
        op(x, Tensor(np.ones(w_shape, np.float32), requires_grad=True))


# -- recycling pool ---------------------------------------------------------

POOLED = {
    "linear": (ad.linear, [(37, 24), (24, 16), (16,)]),
    "attention": (lambda q, k, v: ad.attention(q, k, v, 4), [(37, 16), (53, 16), (53, 16)]),
    "layer_norm": (ad.layer_norm, [(37, 24), (24,), (24,)]),
    "relu": (ad.relu, [(37, 24)]),
    "add": (ad.add, [(37, 24), (37, 24)]),
    "add_scalar": (ad.add, [(37, 24), ()]),
}


def op_bytes(fn, arrays, g):
    """Output and input-gradient bytes of fn on fresh trainable leaves."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    y = fn(*leaves)
    ad.sum_all(ad.mul(y, Tensor(g))).backward()
    return [y.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]


def pooled_arrays():
    return sum(len(held) for held in ad._pool.values())


def poison_pool():
    # a function, so no loop variable outlives it to pin a pooled array
    for held in ad._pool.values():
        for arr in held:
            arr.fill(True if arr.dtype == bool else np.nan)


@pytest.mark.parametrize("name", sorted(POOLED))
def test_pooled_op_bitwise_equal_inside_and_outside_pool(name):
    fn, shapes = POOLED[name]
    r = np.random.default_rng(len(name))
    arrays = [r.normal(size=s).astype(np.float32) for s in shapes]
    g = r.normal(size=fn(*arrays).shape).astype(np.float32)
    want = op_bytes(fn, arrays, g)
    assert ad._pool is None
    with ad._recycling():
        assert op_bytes(fn, arrays, g) == want
        held = pooled_arrays()
        assert held > 0
        # the second call gets the same arrays back, stale and now garbage
        poison_pool()
        assert op_bytes(fn, arrays, g) == want
        assert pooled_arrays() == held
    assert ad._pool is None


def test_relu_output_bitwise_equals_where():
    # signed zeros, NaN, infinities and subnormals are where fmax-based
    # formulations usually differ from np.where(x > 0, x, 0)
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45,
               1e-40, 2.5, -2.5, np.finfo(np.float32).max]
    for dtype in (np.float32, np.float64):
        x = np.tile(np.array(special, dtype), 7)
        want = np.where(x > 0, x, 0)
        assert_bitwise_equal(ad.relu(Tensor(x)).data, want)
