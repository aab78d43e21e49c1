"""Cosine schedule, Adam updates and the binary checkpoint format."""

import ctypes
import itertools
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import evimatch.autodiff as ad
import evimatch.optim as optim
from evimatch.autodiff import Tensor
from evimatch.extractor import (ExtractorConfig, init_student, load_extractor,
                                save_extractor)
from evimatch.matching import (CAConfig, CAMatcherParams, load_matcher,
                               save_matcher)
from evimatch.optim import (Adam, cosine_lr, fit, history_csv, load_checkpoint,
                            save_checkpoint)


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0.1, 0.0) == pytest.approx(0.1)
    assert cosine_lr(0.1, 1.0) == 0.0  # exactly zero at the end
    assert cosine_lr(0.1, 0.5) == pytest.approx(0.05)


def test_cosine_rejects_out_of_range_progress():
    with pytest.raises(ValueError):
        cosine_lr(0.1, 1.5)


def test_cosine_monotone_decreasing():
    vals = [cosine_lr(1.0, p) for p in np.linspace(0, 1, 50)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_adam_first_step_matches_closed_form():
    # with bias correction the first Adam step is lr * g / (|g| + eps)
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    g = np.array([0.3, -0.7], dtype=np.float32)
    p.grad = g.copy()
    opt = Adam({"p": p}, lr=0.01, total_steps=1)
    opt.step()
    expect = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expect, rtol=1e-5)


def test_adam_skips_params_without_grad():
    p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    q = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    p.grad = np.full(2, 0.5, dtype=np.float32)
    opt = Adam({"p": p, "q": q}, lr=0.1, total_steps=1)
    opt.step()
    assert not np.array_equal(p.data, np.ones(2))
    np.testing.assert_array_equal(q.data, np.ones(2))


def test_adam_clears_grads_after_step():
    p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    p.grad = np.ones(2, dtype=np.float32)
    opt = Adam({"p": p}, lr=0.1, total_steps=1)
    opt.step()
    assert p.grad is None


def test_adam_cosine_schedule_progress():
    p = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=1.0, total_steps=4)
    assert opt.current_lr() == pytest.approx(1.0)  # first update at lr0
    for k in range(4):
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
    assert opt.current_lr() == 0.0


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([3.0, -2.0], dtype=np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1, total_steps=300)
    for _ in range(300):
        loss = ad.sum_all(ad.square(p))
        loss.backward()
        opt.step()
    assert np.abs(p.data).max() < 1e-3


# -- fit ------------------------------------------------------------------

TARGETS = np.array([1.0, -2.0, 0.5, 3.0, -1.5])  # one scalar item each


def quadratic(calls, nan_at=None):
    """fit's batch_loss for x pulled towards each item's target: the mean of
    (x - c_i)^2 over the batch.  Records (idx, values) per call and returns
    a NaN loss on call nan_at."""
    x = Tensor(np.zeros(1, np.float32))  # frozen: fit makes it trainable

    def batch_loss(idx):
        terms = [ad.square(ad.sub(x, Tensor(np.float32([TARGETS[i]])))) for i in idx]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        loss = ad.mul(ad.sum_all(total), Tensor(np.float32(1.0 / len(idx))))
        if len(calls) == nan_at:
            loss = ad.mul(loss, Tensor(np.float32(np.nan)))
        values = (float(loss.data), float(len(idx)))
        calls.append((idx.tolist(), values))
        return loss, values

    return {"x": x}, batch_loss


RECIPE = SimpleNamespace(lr=0.1, epochs=3, batch_size=2, seed=4)


def test_fit_rows_are_epoch_means_in_step_order():
    calls, log = [], []
    params, batch_loss = quadratic(calls)
    history = fit(params, len(TARGETS), RECIPE, batch_loss, ("loss", "size"),
                  log=log.append)
    assert len(calls) == 9  # 3 steps per epoch: 2, 2 and 1 items
    for epoch, row in enumerate(history):
        sums = [0.0, 0.0]
        for _, values in calls[3 * epoch:3 * epoch + 3]:
            sums = [a + b for a, b in zip(sums, values)]
        assert row == (epoch, sums[0] / 3, sums[1] / 3)
        assert log[epoch] == "epoch %d loss=%.6f size=%.6f" % row
    assert history[-1][1] < history[0][1]
    assert history_csv(("loss", "size"), history).splitlines()[:2] == [
        "epoch,loss,size", "0,%.8f,1.66666667" % history[0][1]]


def test_fit_visits_each_index_once_per_epoch():
    calls = []
    params, batch_loss = quadratic(calls)
    fit(params, len(TARGETS), RECIPE, batch_loss, ("loss", "size"))
    rng = np.random.default_rng(RECIPE.seed)
    for epoch in range(RECIPE.epochs):
        order = sum((idx for idx, _ in calls[3 * epoch:3 * epoch + 3]), [])
        assert order == rng.permutation(len(TARGETS)).tolist()
    assert [len(idx) for idx, _ in calls] == [2, 2, 1] * 3


def test_fit_abort_names_epoch_and_global_step():
    calls = []
    params, batch_loss = quadratic(calls, nan_at=4)
    with pytest.raises(RuntimeError, match=r"at epoch 1, step 4; aborting"):
        fit(params, len(TARGETS), RECIPE, batch_loss, ("loss", "size"))
    # the check runs before backward: the NaN never reached the parameter
    assert params["x"].grad is None and np.isfinite(params["x"].data).all()
    # and the raise still re-froze the params
    assert not params["x"].requires_grad


def test_fit_trains_then_freezes_params():
    params, batch_loss = quadratic([])
    fit(params, len(TARGETS), RECIPE, batch_loss, ("loss", "size"))
    assert params["x"].data[0] != 0.0  # trained although handed in frozen
    assert not params["x"].requires_grad
    assert not ad.square(params["x"]).requires_grad


def fit_peak(steps):
    """tracemalloc peak of fit over `steps` single-item steps whose graph
    is a chain of nine 1 MiB activations scaled by one scalar parameter."""
    params = {"s": Tensor(np.float32(0.5))}
    base = np.linspace(-1.0, 1.0, 1 << 18, dtype=np.float32)

    def batch_loss(idx):
        h = Tensor(base + np.float32(idx[0]))
        for _ in range(8):
            h = ad.mul(h, params["s"])
        loss = ad.mean_all(h)
        return loss, (float(loss.data),)

    recipe = SimpleNamespace(lr=0.01, epochs=1, batch_size=1, seed=0)
    tracemalloc.start()
    try:
        fit(params, steps, recipe, batch_loss, ("loss",))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_peak_does_not_grow_with_steps():
    # each backward frees its graph, so no step's activations are still
    # alive while the next step builds its own
    fit_peak(1)  # the first run also imports numpy.random
    assert fit_peak(3) <= 1.1 * fit_peak(1)


def mlp(each_step=lambda step, tensors: None, shape=(16, 8), heads=2):
    """fit's params and batch_loss for a step of linear, relu, layer_norm,
    attention and add on inputs of the given (rows, width) shape whose
    values differ per item; each_step(step, (h, n, y)) sees each step's
    activations after its forward."""
    r = np.random.default_rng(0)
    width = shape[1]
    params = {"w": Tensor(r.normal(size=(width, width)).astype(np.float32)),
              "b": Tensor(np.zeros(width, np.float32)),
              "g": Tensor(np.ones(width, np.float32))}
    base = r.normal(size=shape).astype(np.float32)
    steps = itertools.count()

    def batch_loss(idx):
        x = Tensor(base + np.float32(idx[0]))
        h = ad.relu(ad.linear(x, params["w"], params["b"]))
        n = ad.layer_norm(h, params["g"], params["b"])
        y = ad.add(n, ad.attention(n, n, n, heads))
        each_step(next(steps), (h, n, y))
        loss = ad.mean_all(ad.square(y))
        return loss, (float(loss.data),)

    return params, batch_loss


ONE_PER_STEP = SimpleNamespace(lr=0.01, epochs=1, batch_size=1, seed=0)


def test_fit_never_recycles_what_a_step_keeps():
    # a Tensor, a bare array and a view, each kept from step 0 while the
    # later steps compute different values in arrays of the same shapes
    kept = []

    def keep(step, tensors):
        if step == 0:
            h, n, y = tensors
            kept.extend([(y, y.data.copy()), (n.data, n.data.copy()),
                         (h.data[1:, 2:], h.data[1:, 2:].copy())])

    params, batch_loss = mlp(keep)
    fit(params, 4, ONE_PER_STEP, batch_loss, ("loss",))
    assert len(kept) == 3
    for held, copy in kept:
        np.testing.assert_array_equal(held.data if isinstance(held, Tensor) else held,
                                      copy)


HAS_MALLOPT = os.name == "posix" and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
def test_fit_steps_reuse_the_pages_freed_before():
    # glibc left to itself trims or unmaps each step's freed activations
    # (16 MiB of attention probabilities here) and faults them back in on
    # the next step, over a thousand pages per step
    import resource

    faults = []
    params, batch_loss = mlp(
        lambda step, tensors: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt),
        shape=(1024, 256), heads=4)
    fit(params, 6, ONE_PER_STEP, batch_loss, ("loss",))
    # faults from one step's forward to the next; the first span also
    # holds the first backward, whose arrays the heap grows to hold
    per_step = np.diff(faults)
    assert len(per_step) == 5 and (per_step[1:] < 100).all(), per_step


def test_fit_results_do_not_depend_on_mallopt(monkeypatch):
    def run():
        params, batch_loss = mlp()
        history = fit(params, 4, ONE_PER_STEP, batch_loss, ("loss",))
        return [p.data.tobytes() for p in params.values()], history

    want = run()
    opened = []
    monkeypatch.setattr(optim, "ctypes", SimpleNamespace(
        CDLL=lambda name: opened.append(name) or SimpleNamespace()))
    assert run() == want
    assert opened == ([None] if os.name == "posix" else [])


def test_checkpoint_roundtrip(tmp_path):
    params = {
        "w": Tensor(np.arange(12, dtype=np.float32).reshape(3, 4)),
        "b": Tensor(np.array([0.5, -0.5], dtype=np.float32)),
        "scale": Tensor(np.float32(2.5)),  # 0-d must survive
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert list(back) == ["w", "b", "scale"]  # order preserved
    np.testing.assert_array_equal(back["w"], params["w"].data)
    np.testing.assert_array_equal(back["b"], params["b"].data)
    assert back["scale"].shape == ()
    assert float(back["scale"]) == 2.5


def test_checkpoint_accepts_plain_arrays(tmp_path):
    path = tmp_path / "arr.ckpt"
    save_checkpoint(path, {"x": np.ones((2, 2), dtype=np.float32)})
    np.testing.assert_array_equal(load_checkpoint(path)["x"], np.ones((2, 2)))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "pad.ckpt"
    save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(path)


def write_extractor(path):
    config = ExtractorConfig(in_channels=2, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=8)
    save_extractor(path, init_student(config, seed=0), config)
    return load_extractor


def write_matcher(path):
    config = CAConfig(desc_dim=8, dim=8, layers=1, heads=2, pe_freqs=2,
                      ffn_mult=2)
    save_matcher(path, CAMatcherParams.create(config, seed=0))
    return load_matcher


@pytest.mark.parametrize("write, key, value", [
    (write_extractor, "channels", None),
    (write_extractor, "in_channels", [np.inf]),
    (write_extractor, "in_channels", [np.nan]),
    (write_extractor, "in_channels", [0.0]),
    (write_extractor, "in_channels", []),
    (write_extractor, "in_channels", [2.0, 2.0]),
    (write_extractor, "in_channels", [2.7]),
    (write_extractor, "channels", [4.5]),
    (write_extractor, "representation", None),
    (write_extractor, "representation", [118.5, 111.0]),
    (write_extractor, "representation", [256.0]),
    (write_extractor, "representation", [-1.0]),
    (write_extractor, "representation", [255.0]),
    (write_extractor, "representation", [[118.0, 111.0, 120.0, 101.0, 108.0]]),
    (write_extractor, "representation", [115.0, 97.0, 101.0]),
    (write_matcher, "heads", None),
    (write_matcher, "heads", [0.0]),
    (write_matcher, "dim", [np.inf]),
    (write_matcher, "dim", []),
    (write_matcher, "heads", [2.5]),
    (write_matcher, "image_size", [64.0]),
    # entries the dataclass has no field for
    (write_extractor, "score_head", [4.0]),
    (write_extractor, "desc_head", [4.0]),
    (write_matcher, "mask", [1.0]),
])
def test_malformed_config_entry_names_file_and_key(tmp_path, write, key, value):
    # value None drops the entry
    path = tmp_path / "module.ckpt"
    load = write(path)
    blob = load_checkpoint(path)
    if value is None:
        del blob["__config__." + key]
    else:
        blob["__config__." + key] = np.asarray(value, np.float32)
    save_checkpoint(path, blob)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + key):
        load(path)


def test_student_checkpoint_with_head_widths_is_refused(tmp_path):
    # the layout whose heads climbed back to full resolution: head widths in
    # the config, a transposed 4x4 kernel and a 1-channel score per head
    config = ExtractorConfig(in_channels=2, channels=(4,), pools=(2,),
                             latent_dim=4, desc_dim=8)
    path = tmp_path / "old.ckpt"
    save_extractor(path, init_student(config, seed=0), config)
    old = {}
    for key, value in load_checkpoint(path).items():
        if key == "__config__.representation":
            old["__config__.score_head"] = np.array([4.0], np.float32)
            old["__config__.desc_head"] = np.array([4.0], np.float32)
        old[key] = value
    old["score.0.w"] = old["desc.0.w"] = np.zeros((4, 4, 4, 4), np.float32)
    old["score.out.w"], old["score.out.b"] = np.zeros((1, 4, 1, 1)), np.zeros(1)
    save_checkpoint(path, old)
    with pytest.raises(ValueError) as info:
        load_extractor(path)
    assert str(info.value) == f"{path}: unexpected architecture entry __config__.desc_head"


@pytest.mark.parametrize("write, key", [(write_extractor, "in_channels"),
                                        (write_matcher, "desc_dim")])
def test_oversized_architecture_rejected_without_allocating(tmp_path, write, key):
    # a small checkpoint declaring a huge input size must be rejected at the
    # cost of its own bytes, not of the parameters it declares
    path = tmp_path / "module.ckpt"
    load = write(path)
    blob = load_checkpoint(path)
    blob["__config__." + key] = np.asarray([20000.0], np.float32)
    save_checkpoint(path, blob)
    assert path.stat().st_size < 8192
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*has shape"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
