"""Span tracing of viewocc layers from outside the package.

`Tracer.install()` replaces every module attribute across the loaded
`viewocc` modules that is bound to one of the listed function objects (and
the listed methods on their classes) with a wrapper that records a span:
name, start, end and the index of the enclosing span. Names imported into
other modules (`cli.render_camera_features`, `harness.render_all_cameras`)
are the same objects, so they are patched too. A listed function that no
longer exists is reported as absent and traced as never called.

Spans stay in memory; `dump()` writes them out once the run is over.
Some wrappers also collect counts where the work happens: sample validity
of the attention layers, memory levels per temporal call, blob bytes, frames
prepared and ray marches.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

# (home module, function or Class.method); span name is "<module>.<name>"
TARGETS = (
    ("scene_sim", "render_camera_features"),
    ("scene_sim", "ray_visibility"),
    ("scene_sim", "scene_ground_truth"),
    ("scene_sim", "_march"),
    ("harness", "prepare_frames"),
    ("harness", "train_model"),
    ("harness", "evaluate_model"),
    ("harness", "MetricAccumulator.add_frame"),
    ("flow_annotation", "generate_flow_field"),
    ("flow_annotation", "reduce_bev_flow"),
    ("view_attention", "attn_forward_batch"),
    ("view_attention", "attn_backward_batch"),
    ("view_attention", "proj_first_forward_batch"),
    ("view_attention", "proj_first_backward_batch"),
    ("numerics", "bilinear_many"),
    ("numerics", "bilinear_many_backward"),
    ("geometry", "project_points"),
    ("geometry", "project_jacobian"),
    ("temporal_stream", "warp_queue"),
    ("temporal_stream", "temporal_forward_arrays"),
    ("temporal_stream", "temporal_backward_arrays"),
    ("temporal_stream", "save_queue"),
    ("temporal_stream", "load_queue"),
    ("encoder", "forward_frame"),
    ("encoder", "backward_frame"),
    ("encoder", "MomentumSGD.step"),
    ("encoder", "load_params"),
    ("objective", "total_loss"),
    ("objective", "miou"),
    ("objective", "iou_geo"),
    ("objective", "mave"),
    ("blobio", "write_blob"),
    ("blobio", "read_blob"),
    ("cli", "main"),
)

# spans whose durations together make up objective.metrics
METRIC_SPANS = ("harness.MetricAccumulator.add_frame", "objective.miou",
                "objective.iou_geo", "objective.mave")

# (metric name, unit); every traced run reports all of them
PER_LAYER = (
    ("scene_sim.render_camera_features.ms", "ms"),
    ("scene_sim.ray_visibility.ms", "ms"),
    ("scene_sim.scene_ground_truth.ms", "ms"),
    ("scene_sim.marches_per_frame", "count"),
    ("harness.prepare_frames.ms_per_frame", "ms"),
    ("harness.frame_preparations_per_frame", "count"),
    ("harness.train_model.ms", "ms"),
    ("harness.evaluate_model.ms", "ms"),
    ("flow_annotation.generate_flow_field.ms", "ms"),
    ("flow_annotation.reduce_bev_flow.ms", "ms"),
    ("view_attention.attn_forward_batch.ms", "ms"),
    ("view_attention.attn_backward_batch.ms", "ms"),
    ("view_attention.proj_first_forward_batch.ms", "ms"),
    ("view_attention.proj_first_backward_batch.ms", "ms"),
    ("view_attention.attn.valid_sample_fraction", "ratio"),
    ("view_attention.proj_first.valid_sample_fraction", "ratio"),
    ("view_attention.attn.cameras_per_query", "count"),
    ("view_attention.proj_first.cameras_per_query", "count"),
    ("numerics.bilinear_many.ms", "ms"),
    ("numerics.bilinear_many_backward.ms", "ms"),
    ("geometry.project_points.ms", "ms"),
    ("geometry.project_jacobian.ms", "ms"),
    ("temporal_stream.warp_queue.ms", "ms"),
    ("temporal_stream.temporal_forward_arrays.ms", "ms"),
    ("temporal_stream.temporal_backward_arrays.ms", "ms"),
    ("temporal_stream.levels_per_call", "count"),
    ("temporal_stream.save_queue.ms", "ms"),
    ("temporal_stream.load_queue.ms", "ms"),
    ("encoder.forward_frame.self_ms", "ms"),
    ("encoder.backward_frame.self_ms", "ms"),
    ("encoder.MomentumSGD.step.ms", "ms"),
    ("encoder.load_params.ms", "ms"),
    ("objective.total_loss.ms", "ms"),
    ("objective.metrics.ms", "ms"),
    ("blobio.write_blob.ms", "ms"),
    ("blobio.read_blob.ms", "ms"),
    ("blobio.bytes_written", "bytes"),
    ("blobio.bytes_read", "bytes"),
    ("cli.main.ms", "ms"),
    ("trace.overhead_s", "s"),
)


def _blob_bytes(prefix) -> int:
    prefix = Path(prefix)
    return sum(p.stat().st_size for p in (prefix.with_suffix(".json"), prefix.with_suffix(".bin"))
               if p.exists())


class Tracer:
    """Records spans and counts while installed; one tracer per process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []       # (owner, attribute, original value)
        self.absent = []
        self.counts = {"march_calls": 0, "frames_prepared": 0, "bytes_written": 0,
                       "bytes_read": 0, "temporal_calls": 0, "temporal_levels": 0}
        for kind in ("attn", "proj_first"):
            self.counts.update({f"{kind}.valid": 0, f"{kind}.samples": 0,
                                f"{kind}.camera_hits": 0, f"{kind}.queries": 0})

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "viewocc" or n.startswith("viewocc."))]
        for home_name, attr in TARGETS:
            span = f"{home_name}.{attr}"
            home = sys.modules.get(f"viewocc.{home_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    self.absent.append(span)
                    continue
                self._patch(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches = []

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, span: str, orig):
        hook = getattr(self, "_hook_" + span.split(".")[-1], None)
        signature = inspect.signature(orig)
        force_cache = "keep_cache" in signature.parameters and span.endswith("forward_batch")

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            asked = True
            if force_cache:
                # the attention counts need the validity mask from the cache
                bound = signature.bind(*args, **kwargs)
                asked = bound.arguments.get("keep_cache", False)
                bound.arguments["keep_cache"] = True
                args, kwargs = bound.args, bound.kwargs
            index = len(self.spans)
            self.spans.append([span, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            if not asked:
                result = (result[0], None)
            return result

        return traced

    # -- count hooks (run after the span closes) ----------------------------

    def _hook__march(self, args, result) -> None:
        self.counts["march_calls"] += 1

    def _hook_prepare_frames(self, args, result) -> None:
        self.counts["frames_prepared"] += len(result)

    def _hook_write_blob(self, args, result) -> None:
        self.counts["bytes_written"] += _blob_bytes(args["prefix"])

    def _hook_read_blob(self, args, result) -> None:
        self.counts["bytes_read"] += _blob_bytes(args["prefix"])

    def _hook_temporal_forward_arrays(self, args, result) -> None:
        self.counts["temporal_calls"] += 1
        self.counts["temporal_levels"] += int(args["warped"].shape[0])

    def _attention_counts(self, kind: str, cache, key: str) -> None:
        if not isinstance(cache, dict) or key not in cache:
            return
        valid = cache[key]                       # (Q, M, K, J) bool
        self.counts[f"{kind}.valid"] += int(valid.sum())
        self.counts[f"{kind}.samples"] += int(valid.size)
        self.counts[f"{kind}.camera_hits"] += int(valid.any(axis=(1, 2)).sum())
        self.counts[f"{kind}.queries"] += int(valid.shape[0])

    def _hook_attn_forward_batch(self, args, result) -> None:
        self._attention_counts("attn", result[1], "valid")

    def _hook_proj_first_forward_batch(self, args, result) -> None:
        self._attention_counts("proj_first", result[1], "sample_ok")

    # -- reduction -----------------------------------------------------------

    def durations(self) -> dict:
        """span name -> (durations, self durations), both in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total, own = out.setdefault(name, ([], []))
            total.append(end - start)
            own.append(end - start - child[i])
        return out

    def per_layer(self, workload_frames: int, overhead_s: float) -> dict:
        """Every PER_LAYER metric; a layer the run never called reads 0."""
        spans = self.durations()
        counts = self.counts

        def median_ms(name, which=0):
            values = spans.get(name, ([], []))[which]
            return 1e3 * statistics.median(values) if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for metric, _ in PER_LAYER:
            if metric.endswith(".self_ms"):
                values[metric] = median_ms(metric[:-len(".self_ms")], which=1)
            elif metric.endswith(".ms"):
                values[metric] = median_ms(metric[:-len(".ms")])
        prep = sum(spans.get("harness.prepare_frames", ([], []))[0])
        values["harness.prepare_frames.ms_per_frame"] = 1e3 * ratio(
            prep, counts["frames_prepared"])
        values["harness.frame_preparations_per_frame"] = ratio(
            counts["frames_prepared"], workload_frames)
        values["scene_sim.marches_per_frame"] = ratio(counts["march_calls"], workload_frames)
        metric_s = sum(sum(spans.get(n, ([], []))[0]) for n in METRIC_SPANS)
        # every scored frame passes through add_frame; miou counts them if
        # add_frame is gone
        scored = max(len(spans.get(METRIC_SPANS[0], ([], []))[0]),
                     len(spans.get("objective.miou", ([], []))[0]))
        values["objective.metrics.ms"] = 1e3 * ratio(metric_s, scored)
        for kind in ("attn", "proj_first"):
            values[f"view_attention.{kind}.valid_sample_fraction"] = ratio(
                counts[f"{kind}.valid"], counts[f"{kind}.samples"])
            values[f"view_attention.{kind}.cameras_per_query"] = ratio(
                counts[f"{kind}.camera_hits"], counts[f"{kind}.queries"])
        values["temporal_stream.levels_per_call"] = ratio(counts["temporal_levels"],
                                                          counts["temporal_calls"])
        values["blobio.bytes_written"] = counts["bytes_written"]
        values["blobio.bytes_read"] = counts["bytes_read"]
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "counts": self.counts,
                       "spans": self.spans}, fh)
            fh.write("\n")
