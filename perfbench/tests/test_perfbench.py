"""Tests of the benchmark's own code: span arithmetic, names, patching."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_times_subtract_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second b [5, 6]
    names = ["a", "b", "c", "b"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    out = tracing.self_times(names, starts, ends, parents)
    assert out["a"] == pytest.approx((10.0 - 3.0 - 1.0, 1))
    assert out["b"] == pytest.approx((3.0 - 1.0 + 1.0, 2))
    assert out["c"] == pytest.approx((1.0, 1))
    # self times of all spans add up to the root's duration
    assert sum(s for s, _ in out.values()) == pytest.approx(10.0)


def test_self_times_of_sibling_roots_are_independent():
    out = tracing.self_times(["x", "x"], [0.0, 2.0], [1.0, 5.0], [-1, -1])
    assert out["x"] == pytest.approx((4.0, 2))


def _bindings():
    """Every module-level binding and dict entry the tracer may patch."""
    package = importlib.import_module(tracing.PACKAGE)
    mods = [package] + [importlib.import_module(f"{tracing.PACKAGE}.{m}")
                        for m in tracing.MODULES]
    snap = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in obj.items():
                    snap[(mod.__name__, attr, key)] = val
    from evimatch.autodiff import Tensor
    from evimatch.optim import Adam
    snap["Tensor.backward"] = vars(Tensor)["backward"]
    snap["Adam.step"] = vars(Adam)["step"]
    return snap


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert changed, "install wrapped nothing"
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_names_are_wrapped_at_every_import_site():
    from evimatch import cli, datagen, matching
    from evimatch.autodiff import Tensor
    original = datagen.generate_benchmark
    with tracing.Tracer():
        assert datagen.generate_benchmark is not original
        assert cli.generate_benchmark is datagen.generate_benchmark
        assert cli._COMMANDS["synth"] is cli.cmd_synth
        assert cli._COMMANDS["synth"].__wrapped__ is not None
        assert matching.mnn_match.__wrapped__ is not None
        assert vars(Tensor)["backward"].__wrapped__ is not None


def test_spans_follow_call_nesting():
    from evimatch import autodiff as ad
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    x = ad.Tensor(np.ones(3, np.float32), requires_grad=True)
    with tracer:
        ad.sum_all(ad.neg(x)).backward()
    assert tracer.names[:3] == ["autodiff.neg", "autodiff.mul", "autodiff.sum_all"]
    assert tracer.parents[:3] == [-1, 0, -1]
    assert tracer.names[-1] == "autodiff.backward"
    summary = tracer.summary()
    assert summary["autodiff.neg"][0] == pytest.approx(
        (tracer.ends[0] - tracer.starts[0]) - (tracer.ends[1] - tracer.starts[1]))
    np.testing.assert_array_equal(x.grad, -np.ones(3))


def test_hooks_see_results():
    from evimatch import autodiff as ad
    seen = []
    tracer = tracing.Tracer()
    tracer.hooks["autodiff.square"] = lambda result, args, kwargs: seen.append(
        float(result.data.sum()))
    with tracer:
        ad.square(ad.Tensor(np.full(2, 3.0, np.float32)))
    assert seen == [18.0]


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_are_valid_and_unique():
    names = ([n for n, _ in run.END_TO_END] + [n for n, _ in layers.PER_LAYER]
             + [n for n, _ in run.PIPELINE] + list(workloads.WORKLOADS))
    for name in names:
        assert NAME.match(name), name
    assert len(set(n for n, _ in run.END_TO_END + tuple(layers.PER_LAYER))) == (
        len(run.END_TO_END) + len(layers.PER_LAYER))


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert spec["end_to_end"][0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_twoview_ground_truth_is_exact():
    import twoview
    pair = twoview.make_pair(np.random.default_rng(0), 64, 0.5, 0.5)
    m = pair.gt.matches
    assert len(m) == 32
    d = np.linalg.norm(pair.kp_b.positions[m[:, 1]] - pair.gt_pos_b[m[:, 0]], axis=1)
    assert d.max() < 6 * twoview.PIXEL_NOISE
    assert np.isnan(pair.gt_pos_b[pair.gt.unmatched_a]).all()
