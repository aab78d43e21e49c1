"""Forward semantics and gradient correctness of the reverse-mode core."""

import tracemalloc
import weakref

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
    assert t.data.shape == ()
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


# -- what the graph keeps alive -----------------------------------------------

def const32(*shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def conv_with_trainable_weight(h):
    return ad.conv2d(h, Tensor(const32(3, 2, 3, 3, seed=5), requires_grad=True),
                     Tensor(const32(3, seed=6)))


# (op on the parent h, h's shape, whether backward reads h's data)
RETENTION = [
    pytest.param(lambda h: ad.add(h, Tensor(const32(3, 4, seed=1))), (3, 4), False, id="add"),
    pytest.param(lambda h: ad.sub(Tensor(const32(3, 4, seed=1)), h), (3, 4), False, id="sub"),
    pytest.param(ad.transpose, (3, 4), False, id="transpose"),
    pytest.param(ad.relu, (3, 4), False, id="relu"),
    pytest.param(ad.sigmoid, (3, 4), False, id="sigmoid"),
    pytest.param(ad.exp, (3, 4), False, id="exp"),
    pytest.param(ad.abs_, (3, 4), False, id="abs"),
    pytest.param(lambda h: ad.clamp_min(h, 0.0), (3, 4), False, id="clamp_min"),
    pytest.param(lambda h: ad.softmax(h, axis=1), (3, 4), False, id="softmax"),
    pytest.param(ad.sum_all, (3, 4), False, id="sum_all"),
    pytest.param(ad.mean_all, (3, 4), False, id="mean_all"),
    pytest.param(lambda h: ad.masked_mean(h, np.eye(3, 4)), (3, 4), False, id="masked_mean"),
    pytest.param(lambda h: ad.l2_normalize(h, axis=1), (3, 4), False, id="l2_normalize"),
    pytest.param(lambda h: ad.take_rows(h, [2, 0, 2]), (3, 4), False, id="take_rows"),
    pytest.param(lambda h: ad.take_pairs(h, [[0, 1], [2, 3], [0, 1]]), (3, 4), False,
                 id="take_pairs"),
    pytest.param(lambda h: ad.layer_norm(h, Tensor(const32(4, seed=2)),
                                         Tensor(const32(4, seed=3))), (3, 4), False,
                 id="layer_norm"),
    pytest.param(ad.max_pool2d, (1, 2, 4, 4), False, id="max_pool2d"),
    pytest.param(conv_with_trainable_weight, (1, 2, 5, 5), True, id="conv2d"),
]


@pytest.mark.parametrize("op, shape, reads_parent", RETENTION)
def test_graph_keeps_a_parent_array_only_if_backward_reads_it(op, shape, reads_parent):
    data = const32(*shape, seed=0)
    x = Tensor(data, requires_grad=True)
    h = ad.mul(x, np.float32(1.5))  # a parent that no caller holds
    parent = weakref.ref(h.data)
    y = op(h)
    del h
    assert (parent() is not None) == reads_parent
    g = Tensor(const32(*y.data.shape, seed=4))
    ad.sum_all(ad.mul(y, g)).backward()
    assert parent() is None
    # the same op on a leaf with h's data, whose caller keeps it
    leaf = Tensor(data * np.float32(1.5), requires_grad=True)
    ad.sum_all(ad.mul(op(leaf), g)).backward()
    assert_bitwise_equal(x.grad, leaf.grad * np.float32(1.5))


def ones(*shape):
    return Tensor(np.ones(shape, np.float32))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ad.max_pool2d(ones(1, 2, 5, 4)),
                 "pooling window 2 must divide spatial dims (5, 4)", id="pool-odd-height"),
    # an even kernel has no centre, so no padding keeps the input's size
    pytest.param(lambda: ad.conv2d(ones(1, 2, 4, 4), ones(3, 2, 2, 2), ones(3)),
                 "conv2d: a 2x2 kernel is not square and odd-sized", id="conv-even-kernel"),
    pytest.param(lambda: ad.conv2d(ones(1, 2, 4, 4), ones(3, 2, 3, 1), ones(3)),
                 "conv2d: a 3x1 kernel is not square and odd-sized",
                 id="conv-non-square-kernel"),
    pytest.param(lambda: ad.conv2d(ones(1, 2, 4, 4), ones(3, 2, 2, 4), ones(3)),
                 "conv2d: a 2x4 kernel is not square and odd-sized",
                 id="conv-non-square-even-kernel"),
])
def test_conv_and_pool_reject_bad_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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
        ad.max_pool2d(Tensor(np.ones((1, 1, 4, 5))))


def test_conv2d_identity_kernel():
    x = t64(1, 1, 5, 5)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
    np.testing.assert_allclose(y.data, x, atol=1e-6)


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


def attention_with_grads(q, k, v, heads, g):
    """``ad.attention``'s output and the q, k, v gradients of
    sum(output * g); the output without gradients must be the same bytes."""
    tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
    y = ad.attention(tq, tk, tv, heads)
    ad.sum_all(ad.mul(y, Tensor(g))).backward()
    no_grad = ad.attention(Tensor(q), Tensor(k), Tensor(v), heads)
    assert_bitwise_equal(no_grad.data, y.data)
    return y.data, tq.grad, tk.grad, tv.grad


def assert_close_to_per_head_graph(heads, n_q, n_kv, width, dtype, rtol, gain=1):
    # the fused node scales q instead of the scores, may skip the row-max
    # shift and normalises after the value product, so it rounds
    # differently from the textbook graph: each array must agree with it
    # within rtol of its largest entry.  q and k are multiplied by gain
    r = np.random.default_rng(heads)
    q, k, v = (r.normal(size=(n, width)).astype(dtype) for n in (n_q, n_kv, n_kv))
    q, k = q * dtype(gain), k * dtype(gain)
    g = r.normal(size=(n_q, width)).astype(dtype)
    got = attention_with_grads(q, k, v, heads, g)
    for name, a, b in zip("y gq gk gv".split(), got, attention_per_head(q, k, v, heads, g)):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        assert np.isfinite(a).all(), name
        assert np.abs(a - b).max() <= rtol * np.abs(b).max(), name
    return q, k


# the small shapes run OpenBLAS's small-matrix kernel; 256 x 300 queries
# and keys at the matcher's width run its normal sgemm path
ATTENTION_SHAPES = pytest.mark.parametrize("heads, n_q, n_kv, width", [
    (4, 37, 53, 32), (2, 24, 24, 32), (1, 9, 5, 32), (4, 256, 300, 128)])


@ATTENTION_SHAPES
def test_attention_float64_agrees_with_per_head_graph(heads, n_q, n_kv, width):
    # measured worst case over 20 seeds: 3.1e-15
    assert_close_to_per_head_graph(heads, n_q, n_kv, width, np.float64, 1e-12)


@ATTENTION_SHAPES
def test_attention_float32_agrees_with_per_head_graph(heads, n_q, n_kv, width):
    # measured worst case over 20 seeds: 1.8e-6, at 256 x 300
    assert_close_to_per_head_graph(heads, n_q, n_kv, width, np.float32, 1e-5)


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_attention_shifts_scores_beyond_the_bound(dtype, rtol):
    # x16 lifts each head's Cauchy-Schwarz bound past _UNSHIFTED_EXP_BOUND
    # and some scores past the log of the dtype's largest value, so
    # unshifted exponentials would overflow.  At d_h = 16 the scale 1/4 is
    # exact, so the fused node and the textbook graph round the scores
    # alike; where it is not, their scores part by about eps |S|, beyond
    # either tolerance at |S| ~ 1e3
    heads, width = 2, 32
    q, k = assert_close_to_per_head_graph(heads, 24, 24, width, dtype, rtol, gain=16)
    dh, top = width // heads, []
    for h in range(heads):
        qh, kh = (x[:, h * dh:(h + 1) * dh].astype(np.float64) / dh ** 0.25 for x in (q, k))
        bound = np.linalg.norm(qh, axis=1).max() * np.linalg.norm(kh, axis=1).max()
        assert bound > ad._UNSHIFTED_EXP_BOUND
        top.append((qh @ kh.T).max())
    assert max(top) > np.log(np.finfo(dtype).max), top


def scores_at_the_bound(sign, n=3, m=1024, heads=2, dh=4):
    """q and k whose every score is sign * (bound - 0.1), just inside the
    unshifted bound: all m keys are the same unit vector, so each row's
    softmax is uniform and attention returns the mean of v."""
    u = np.full(dh, 0.5)
    q = np.tile(u * (ad._UNSHIFTED_EXP_BOUND - 0.1) * np.sqrt(dh), (n, heads))
    return q.astype(np.float32), np.tile(sign * u, (m, heads)).astype(np.float32)


@pytest.mark.parametrize("sign", [1, -1])
def test_attention_unshifted_at_the_bound(sign):
    # over 1,024 keys the row sums stay finite and normal.  Every key is
    # the same, so gq is 0 in exact arithmetic and each error is measured
    # against at least 1
    q, k = scores_at_the_bound(sign)
    v = np.random.default_rng(0).normal(size=k.shape).astype(np.float32)
    g = np.ones(q.shape, np.float32)
    got = attention_with_grads(q, k, v, 2, g)
    for name, a, b in zip("y gq gk gv".split(), got, attention_per_head(q, k, v, 2, g)):
        assert np.isfinite(a).all(), name
        assert np.abs(a - b).max() <= 1e-5 * max(np.abs(b).max(), 1), name
    assert np.abs(got[0] - v.mean(axis=0)).max() <= 1e-5


def test_attention_unshifted_keeps_tiny_gradients():
    # upstream gradients of ~1e-12 divided by row sums near 1,024 e^bound
    # must stay normal float32: gk and gv within 1e-6 of their largest
    # entry.  At a bound of 60 they turn subnormal, and gk and gv part
    # from the per-head graph by 9e-5 and 5e-5
    q, k = scores_at_the_bound(1)
    r = np.random.default_rng(1)
    v = r.normal(size=k.shape).astype(np.float32)
    g = (1e-12 * r.normal(size=q.shape)).astype(np.float32)
    got = attention_with_grads(q, k, v, 2, g)
    want = attention_per_head(q, k, v, 2, g)
    for name, a, b in zip("gk gv".split(), got[2:], want[2:]):
        assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max(), name


def test_attention_with_no_queries():
    # N = 0: an empty output, and backward gives k and v zero gradients
    q = Tensor(np.ones((0, 8), np.float32), requires_grad=True)
    k, v = (Tensor(np.ones((5, 8), np.float32), requires_grad=True) for _ in range(2))
    y = ad.attention(q, k, v, 2)
    assert y.data.shape == (0, 8) and y.data.dtype == np.float32
    ad.sum_all(y).backward()
    assert q.grad.shape == (0, 8)
    assert not k.grad.any() and not v.grad.any()


def test_attention_keeps_exponentials_row_sums_and_scaled_q_for_backward():
    # with gradients wanted, forward leaves backward the (heads, N, M)
    # unnormalised exponentials, their (heads, N, 1) row sums and the
    # scaled (N, D) q, beside the (N, D) output; backward splits q, k and
    # v into heads again, so the 1.5 MiB of split copies are not held
    heads, n, d = 4, 1024, 128
    r = np.random.default_rng(0)
    q, k, v = (Tensor(r.normal(size=(n, d)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    expected = 4 * (heads * n * n + heads * n + n * d + n * d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = ad.attention(q, k, v, heads)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(held - expected) <= 256 * 2**10, (held, expected)
    ad.sum_all(y).backward()
    assert q.grad.shape == k.grad.shape == v.grad.shape == (n, d)


def test_attention_without_gradients_keeps_one_head_of_probabilities():
    # the (heads, N, M) float32 stack would take 16 MiB; one (N, M) block 4
    r = np.random.default_rng(0)
    q, k, v = (r.normal(size=(1024, 128)).astype(np.float32) for _ in range(3))
    tracemalloc.start()
    try:
        ad.attention(q, k, v, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_attention_rejects_bad_shapes():
    x = Tensor(np.ones((3, 4), np.float32))
    with pytest.raises(ValueError, match="heads"):
        ad.attention(x, x, x, 3)
    with pytest.raises(ValueError, match="must be"):
        ad.attention(x, Tensor(np.ones((3, 2), np.float32)), x, 2)
    with pytest.raises(ValueError, match=r"q \(3, 4\) has no keys .*k \(0, 4\)"):
        ad.attention(x, np.ones((0, 4)), np.ones((0, 4)), 2)


def test_grad_take_rows():
    idx = np.array([0, 2, 2, 1])  # duplicate rows must accumulate
    assert gradcheck(lambda x: ad.take_rows(x, idx), [t64(4, 3)])


def test_grad_take_pairs():
    ij = np.array([[0, 1], [2, 2], [0, 1]])
    assert gradcheck(lambda x: ad.take_pairs(x, ij), [t64(3, 4)])


def test_grad_layer_norm():
    assert gradcheck(ad.layer_norm, [t64(4, 6), t64(6, lo=0.5, hi=1.5), t64(6)])


def test_grad_conv2d():
    # a frozen bias: only x and w are checked
    b = Tensor(t64(4))
    assert gradcheck(lambda x, w: ad.conv2d(x, w, b),
                     [t64(2, 3, 6, 6), t64(4, 3, 3, 3)])


def test_grad_conv2d_bias():
    assert gradcheck(ad.conv2d, [t64(2, 2, 5, 7), t64(3, 2, 3, 3), t64(3)])


def test_grad_conv2d_1x1_bias():
    # the student heads' 1x1 projections
    assert gradcheck(ad.conv2d, [t64(2, 4, 3, 5), t64(6, 4, 1, 1), t64(6)])


def test_grad_linear():
    assert gradcheck(ad.linear, [t64(5, 4), t64(4, 3), t64(3)])


def test_grad_max_pool2d():
    x = t64(1, 2, 4, 4)
    x += np.arange(32).reshape(x.shape) * 0.1  # break pooling ties
    assert gradcheck(ad.max_pool2d, [x])


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
            g = Tensor(r.normal(size=y.data.shape).astype(np.float32))
        ad.sum_all(ad.mul(y, g)).backward()
        results.append([y.data] + [t.grad for t in leaves])
    return results


def unbiased_conv(x, w):
    """conv2d without its bias, from the module's patch products (output
    and weight gradient) and their adjoint (input gradient)."""
    xd, wd = x.data, w.data
    def bwd(g):
        return ad._conv_dx(g, wd), ad._patch_products(xd, wd, a=g)
    return ad._make(ad._patch_products(xd, wd), (x, w), bwd)


@pytest.mark.parametrize("x_shape, seed", [((3, 4, 12, 12), 2), ((3, 4, 9, 7), 1)])
def test_conv2d_bias_bitwise_equals_bias_node(x_shape, seed):
    got, want = folded_and_reference(ad.conv2d, unbiased_conv,
                                     [x_shape, (5, 4, 3, 3), (5,)], seed=seed)
    for a, b in zip(got, want):
        assert_bitwise_equal(a, b)


def test_conv2d_1x1_bias_bitwise_equals_bias_node():
    got, want = folded_and_reference(ad.conv2d, unbiased_conv,
                                     [(3, 6, 8, 8), (4, 6, 1, 1), (4,)], seed=7)
    for a, b in zip(got, want):
        assert_bitwise_equal(a, b)


def test_linear_bitwise_equals_matmul_and_bias_node():
    got, want = folded_and_reference(ad.linear, ad.matmul,
                                     [(37, 24), (24, 16), (16,)], seed=3)
    for a, b in zip(got, want):
        assert_bitwise_equal(a, b)


@pytest.mark.parametrize("op, x, w", [
    (ad.conv2d, np.ones((1, 2, 4, 4)), np.ones((3, 2, 3, 3))),
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

def batched_patches(x, k):
    """The batch-wide (N, C*k*k, H*W) patch matrix the per-sample
    convolutions replaced, under a k x k kernel padded by k // 2."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((n, c, k, k, h, w), x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + h, j:j + w]
    return cols.reshape(n, c * k * k, h * w)


def batched_adjoint(gy, w):
    """conv2d's batched input gradient: one matmul over the batch, then a
    scatter-add of every sample's columns at once."""
    n, f, h, w_in = gy.shape
    c, k = w.shape[1], w.shape[2]
    p = k // 2
    cols = np.matmul(w.reshape(f, -1).T[None], gy.reshape(n, f, h * w_in))
    cols = cols.reshape(n, c, k, k, h, w_in)
    xp = np.zeros((n, c, h + 2 * p, w_in + 2 * p), gy.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, :, i:i + h, j:j + w_in] += cols[:, :, i, j]
    return xp[:, :, p:p + h, p:p + w_in]


def batched_conv2d(x, w, b, g):
    """Output and x, w and b gradients of the batched formulation."""
    n, f = len(x), len(w)
    cols = batched_patches(x, w.shape[2])
    y = np.matmul(w.reshape(f, -1)[None], cols).reshape(n, f, *x.shape[2:])
    gw = np.matmul(g.reshape(n, f, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    gb = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(b.dtype)
    return y + b[:, None, None], batched_adjoint(g, w), gw.reshape(w.shape), gb


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3, 8, 9, 17])
# a 1x1 kernel's patch matrix is the sample
@pytest.mark.parametrize("w_shape", [(6, 5, 3, 3), (6, 5, 1, 1)])
def test_conv_bitwise_equals_batched_formulation(w_shape, n, dtype):
    # the weight gradient must add the samples' products in sample order,
    # as .sum(axis=0) does; pairwise or tree sums change bytes from N = 8
    r = np.random.default_rng(n)
    x = r.normal(size=(n, 5, 9, 7)).astype(dtype)
    w = r.normal(size=w_shape).astype(dtype)
    b = r.normal(size=len(w)).astype(dtype)
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    y = ad.conv2d(*leaves)
    g = r.normal(size=y.data.shape).astype(dtype)
    ad.sum_all(ad.mul(y, Tensor(g))).backward()
    for got, want in zip([y.data] + [t.grad for t in leaves], batched_conv2d(x, w, b, g)):
        assert_bitwise_equal(got, want)


def test_conv2d_forward_holds_one_sample_of_patches():
    # the batch-wide patch matrix of this call would be 8*576*1024 float32
    x = Tensor(np.ones((8, 64, 32, 32), np.float32))
    w = Tensor(np.ones((64, 64, 3, 3), np.float32))
    tracemalloc.start()
    try:
        ad.conv2d(x, w, Tensor(np.zeros(64, np.float32)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 576 * 1024 * 4


@pytest.mark.parametrize("w_shape", [(3, 2, 3, 3), (3, 2, 1, 1)])
def test_conv_rejects_an_empty_batch(w_shape):
    x = Tensor(np.ones((0, 2, 4, 4), np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="conv2d: empty batch"):
        ad.conv2d(x, Tensor(np.ones(w_shape, np.float32), requires_grad=True),
                  Tensor(np.ones(3, np.float32)))


# -- relu -------------------------------------------------------------------

# signed zeros, NaN, infinities and subnormals: where rewritten elementwise
# formulations usually differ from the plain ones
SPECIAL = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45,
           1e-40, 2.5, -2.5, np.finfo(np.float32).max]


def test_relu_output_bitwise_equals_where():
    for dtype in (np.float32, np.float64):
        x = np.tile(np.array(SPECIAL, dtype), 7)
        want = np.where(x > 0, x, 0)
        assert_bitwise_equal(ad.relu(Tensor(x)).data, want)


def test_abs_gradient_bitwise_equals_sign():
    for dtype in (np.float32, np.float64):
        x = np.tile(np.array(SPECIAL, dtype), 7)
        g = np.random.default_rng(0).normal(size=x.shape).astype(dtype)
        t = Tensor(x, requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN in the loss
            ad.sum_all(ad.mul(ad.abs_(t), Tensor(g))).backward()
        assert_bitwise_equal(t.grad, g * np.sign(x))


# -- no-grad forward ----------------------------------------------------------

def special_windows(dtype, with_nan):
    """A (1, C, 4, 6) input whose 2x2 pooling windows put a -0.0/+0.0 tie
    above negative values at every ordered pair of window positions and,
    if with_nan, a nan/-nan pair likewise; more windows draw from SPECIAL."""
    k = 2
    r = np.random.default_rng(k)
    values = np.array(SPECIAL, dtype)
    negative = values[values < 0]
    wins = []
    for a, b in [(-0.0, 0.0)] + [(np.nan, -np.nan)] * with_nan:
        for q in range(k * k):
            for p in range(k * k):
                if p != q:
                    win = r.choice(negative, k * k)
                    win[q], win[p] = a, b
                    wins.append(win)
    drawn = values if with_nan else values[~np.isnan(values)]
    wins.extend(r.choice(drawn, (6 - len(wins) % 6 + 12, k * k)))
    c = len(wins) // 6
    return np.array(wins, dtype).reshape(1, c, 2, 3, k, k).transpose(
        0, 1, 2, 4, 3, 5).reshape(1, c, 2 * k, 3 * k)


def pool_reference(x, g):
    """max_pool2d as an argmax and take-along gather, with its gradient."""
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h // 2, w // 2, 4)
    idx = xr.argmax(axis=-1)[..., None]
    gr = np.zeros(xr.shape, g.dtype)
    np.put_along_axis(gr, idx, g[..., None], axis=-1)
    gx = gr.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.take_along_axis(xr, idx, axis=-1)[..., 0], gx.reshape(x.shape)


# (op, its output and input gradient from numpy)
NO_GRAD = [
    pytest.param(ad.relu, lambda x, g: (np.where(x > 0, x, 0), g * (x > 0)), id="relu"),
    pytest.param(ad.abs_, lambda x, g: (np.abs(x), g * np.sign(x)), id="abs"),
    pytest.param(lambda t: ad.clamp_min(t, 0.0),
                 lambda x, g: (np.maximum(x, 0.0), g * (x >= 0.0)), id="clamp_min"),
    pytest.param(ad.max_pool2d, pool_reference, id="max_pool2d-2"),
]


@pytest.mark.parametrize("with_nan", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, reference", NO_GRAD)
def test_no_grad_output_bitwise_equals_grad_path(op, reference, dtype, with_nan):
    x = special_windows(dtype, with_nan)
    frozen = op(Tensor(x))
    assert frozen._node is None
    leaf = Tensor(x, requires_grad=True)
    y = op(leaf)
    assert_bitwise_equal(frozen.data, y.data)
    g = np.random.default_rng(1).normal(size=y.data.shape).astype(dtype)
    want_y, want_g = reference(x, g)
    assert_bitwise_equal(y.data, want_y.astype(dtype))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN in the loss
        ad.sum_all(ad.mul(y, Tensor(g))).backward()
    assert_bitwise_equal(leaf.grad, want_g.astype(dtype))
