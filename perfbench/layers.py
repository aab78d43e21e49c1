"""Per-layer metrics of a traced run, derived from spans and result hooks.

Self times and counts are per traced pass (run totals divided by the
number of traced passes), so runs that fit a different number of passes
into their time stay comparable.  A layer the workload does not execute
reads 0.
"""

from __future__ import annotations

import os

from evimatch.autodiff import Tensor

import tracing

# layers timed on their own; each also contributes to its module's total
SELF_SPANS = (
    "datagen.render", "datagen.surface_height", "datagen.surface_texture",
    "datagen.events_from_log_frames", "datagen.overlap_score",
    "io.save_dataset", "io.load_dataset",
    "distillation.prepare_batch_arrays", "distillation.lfd_loss",
    "extractor.forward_student_batch", "extractor.forward_student",
    "extractor.extract_keypoints", "extractor.analytic_teacher",
    "representations.build_representation",
    "autodiff.conv2d", "autodiff.conv_transpose2d", "autodiff.max_pool2d",
    "autodiff.relu", "autodiff.bias_add", "autodiff.matmul", "autodiff.softmax",
    "autodiff.layer_norm", "autodiff.slice_axis", "autodiff.concat",
    "autodiff.backward", "optim.adam_step",
    "matching.ca_forward", "matching.nll_loss", "matching.ca_assignment",
    "matching.mnn_match", "geometry.estimate_essential_ransac",
)
TRAIN_ROOTS = ("distillation.train_extractor", "matching.train_matcher")

PER_LAYER = (
    [(f"{m}.self_s", "s") for m in tracing.MODULES]
    + [(f"{s}.self_s", "s") for s in SELF_SPANS]
    + [("datagen.render.calls", "count"),
       ("datagen.benchgen.accept_ratio", "ratio"),
       ("io.save_dataset.bytes", "bytes"),
       ("autodiff.op_calls_per_step", "count"),
       ("extractor.keypoints_per_frame", "count"),
       ("geometry.ransac.iterations", "count"),
       ("geometry.ransac.inlier_ratio", "ratio"),
       ("matching.correct_match_ratio", "ratio"),
       ("trace.spans_per_pass", "count"),
       ("trace.overhead_pct", "%")]
)


def _tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def install_hooks(tracer):
    """Count what spans alone cannot show; returns the counter dict."""
    c = {"accepted_pairs": 0, "saved_bytes": 0, "event_frames": 0,
         "event_keypoints": 0, "ransac_calls": 0, "ransac_iterations": 0,
         "ransac_inliers": 0.0}

    def benchgen(result, args, kwargs):
        c["accepted_pairs"] += len(result.pairs)

    def save_dataset(result, args, kwargs):
        c["saved_bytes"] += _tree_bytes(args[0] if args else kwargs["root"])

    def keypoints(result, args, kwargs):
        maps = args[0] if args else kwargs["maps"]
        if isinstance(maps.score, Tensor):  # student maps: an event window
            c["event_frames"] += 1
            c["event_keypoints"] += len(result)

    def ransac(result, args, kwargs):
        c["ransac_calls"] += 1
        c["ransac_iterations"] += result.iterations
        c["ransac_inliers"] += result.inlier_ratio

    tracer.hooks.update({
        "datagen.generate_benchmark": benchgen,
        "io.save_dataset": save_dataset,
        "extractor.extract_keypoints": keypoints,
        "geometry.estimate_essential_ransac": ransac,
    })
    return c


def _train_op_calls(tracer):
    """autodiff op spans inside a training call (not backward itself)."""
    inside = [False] * len(tracer.names)
    count = 0
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        inside[i] = name in TRAIN_ROOTS or (parent >= 0 and inside[parent])
        if inside[i] and name.startswith("autodiff.") and name != "autodiff.backward":
            count += 1
    return count


def per_layer(tracer, counters, n_passes, correct_match_ratio, overhead_pct):
    """{name: (value, unit)} for every PER_LAYER metric."""
    summary = tracer.summary()
    values = {}
    for m in tracing.MODULES:
        values[f"{m}.self_s"] = sum(s for name, (s, _) in summary.items()
                                    if name.split(".")[0] == m)
    for span in SELF_SPANS:
        values[f"{span}.self_s"] = summary.get(span, (0.0, 0))[0]
    values = {k: v / n_passes for k, v in values.items()}

    def calls(name):
        return summary.get(name, (0.0, 0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    values.update({
        "datagen.render.calls": calls("datagen.render") / n_passes,
        "datagen.benchgen.accept_ratio": ratio(counters["accepted_pairs"],
                                               calls("datagen.overlap_score")),
        "io.save_dataset.bytes": counters["saved_bytes"] / n_passes,
        "autodiff.op_calls_per_step": ratio(_train_op_calls(tracer),
                                            calls("optim.adam_step")),
        "extractor.keypoints_per_frame": ratio(counters["event_keypoints"],
                                               counters["event_frames"]),
        "geometry.ransac.iterations": ratio(counters["ransac_iterations"],
                                            counters["ransac_calls"]),
        "geometry.ransac.inlier_ratio": ratio(counters["ransac_inliers"],
                                              counters["ransac_calls"]),
        "matching.correct_match_ratio": correct_match_ratio,
        "trace.spans_per_pass": len(tracer.names) / n_passes,
        "trace.overhead_pct": overhead_pct,
    })
    return {k: (float(values[k]), unit) for k, unit in PER_LAYER}
