"""Training, evaluation, and comparison runs on synthetic scenes.

A run renders every frame once, caches ground truth, then streams frames
through the model in order, pushing each fused BEV grid into the memory
queue. Metrics accumulate dataset-level counts across frames and are scored
inside the per-frame ray-visibility mask, so unobservable voxels never count
for or against a strategy. Reports are plain dicts whose floats are later
serialized as fixed 17-significant-digit strings, which keeps repeated runs
byte-identical apart from wall-clock entries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .blobio import count_field, number_field
from .encoder import (METHODS, ModelConfig, ModelParams, MomentumSGD, backward_frame,
                      forward_frame, init_model)
from .errors import ContractViolation, open_output, require
from .flow_annotation import BEVFlowField, reduce_bev_flow
from .geometry import Pose, project_rig_sparse
from .objective import (FrameTruth, LossWeights, PredictionBundle, ave_sums, class_means,
                        geo_counts, geo_ratio, iou_counts, total_loss)
from .scene_sim import SceneSpec, observe, scene_ground_truth
from .temporal_stream import BEVGrid, MemoryQueue, _same_layout

# the loss terms as `total_loss` names its parts, then their sum
LOSS_COLUMNS = ("focal", "ce", "lovasz", "l1_flow", "total")
CSV_COLUMNS = ("epoch", *LOSS_COLUMNS, "miou", "iou_geo", "mave")


def jsonable(value):
    """Recursively convert a report for JSON dumping.

    Floats become 17-significant-digit decimal strings so that equal values
    produce equal bytes regardless of how they were computed or printed.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if value is None or isinstance(value, str):
        return value
    raise ContractViolation(f"cannot serialize report value of type {type(value).__name__}")


@dataclass
class FrameData:
    """Cached render and ground truth for one frame."""

    index: int
    features: list
    pose: Pose
    truth: FrameTruth
    visibility: np.ndarray


def prepare_frames(scene: SceneSpec, frames=None):
    indices = list(range(scene.num_frames)) if frames is None else list(frames)
    out = []
    for f in indices:
        labels, field = scene_ground_truth(scene, f)
        features, visibility = observe(scene, f)
        out.append(FrameData(
            index=f,
            features=features,
            pose=scene.ego_trajectory[f],
            truth=FrameTruth(labels=labels, bev_flow=reduce_bev_flow(field)),
            visibility=visibility,
        ))
    return out


def decode_prediction(pred: PredictionBundle):
    """Semantic labels from raw logits; 0 = free, where the occupancy logit is <= 0."""
    sem = np.argmax(pred.sem_logits, axis=-1) + 1
    return np.where(pred.occ_logits > 0.0, sem, 0)


class MetricAccumulator:
    """Dataset-level metric counts; frames contribute counts, not averages."""

    def __init__(self, class_ids, foreground_ids):
        self.class_ids = list(class_ids)
        self.foreground_ids = list(foreground_ids)
        self.inter = {c: 0 for c in self.class_ids}
        self.union = {c: 0 for c in self.class_ids}
        self.geo_inter = 0
        self.geo_union = 0
        self.ave_sum = {c: 0.0 for c in self.foreground_ids}
        self.ave_count = {c: 0 for c in self.foreground_ids}

    def add_frame(self, pred_labels, gt_labels, pred_flow, bev_truth: BEVFlowField,
                  mask=None) -> dict:
        """Count one frame in (label 0 = free, for iou_geo too); returns that
        frame's own miou, iou_geo and mave."""
        inter, union = iou_counts(pred_labels, gt_labels, self.class_ids, mask)
        for c in self.class_ids:
            self.inter[c] += inter[c]
            self.union[c] += union[c]
        geo_inter, geo_union = geo_counts(pred_labels > 0, gt_labels > 0, mask)
        self.geo_inter += geo_inter
        self.geo_union += geo_union
        sums, counts = ave_sums(pred_flow, bev_truth, self.foreground_ids)
        for c in self.foreground_ids:
            self.ave_sum[c] += sums[c]
            self.ave_count[c] += counts[c]
        return {"miou": class_means(inter, union, self.class_ids)[0],
                "iou_geo": geo_ratio(geo_inter, geo_union),
                "mave": class_means(sums, counts, self.foreground_ids)[0]}

    def result(self) -> dict:
        mean_iou, iou_per_class = class_means(self.inter, self.union, self.class_ids)
        mean_ave, ave_per_class = class_means(self.ave_sum, self.ave_count, self.foreground_ids)
        return {
            "miou": mean_iou,
            "iou_per_class": iou_per_class,
            "iou_geo": geo_ratio(self.geo_inter, self.geo_union),
            "mave": mean_ave,
            "ave_per_class": ave_per_class,
        }


@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 200
    lr: float = 1e-2
    focal_alpha: float | None = 0.25
    seed: int = 0

    def __post_init__(self):
        # checked when built, so a bad setting stops a run before any render
        require(self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}")
        require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        require(self.lr > 0, "learning rate must be positive")
        # kinds after ranges, so that 0, -1 and NaN keep their range messages
        count_field(self.epochs, "epochs")
        count_field(self.seed, "seed")
        number_field(self.lr, "learning rate")
        self.loss_weights()

    def loss_weights(self) -> LossWeights:
        return LossWeights(focal_alpha=self.focal_alpha)


# preset name -> (model kwargs minus geometry, train settings kwargs)
PRESETS = {
    "small": (dict(voxel_channels=16, bev_channels=28, layers=1, heads=2, points=4,
                   queue_len=4, temporal_points=4),
              # alpha-weighting starves the sparse positives at this scene size,
              # so the preset trains with plain focal weighting
              dict(epochs=200, lr=1e-2, focal_alpha=None)),
    "desk": (dict(voxel_channels=24, bev_channels=42, layers=2, heads=4, points=4,
                  queue_len=4, temporal_points=4),
             dict(epochs=120, lr=1e-2, focal_alpha=None)),
    "full": (dict(voxel_channels=72, bev_channels=126, layers=4, heads=8, points=4,
                  queue_len=4, temporal_points=4),
             dict(epochs=24, lr=2e-4)),
}


def resolve_preset(name: str, scene: SceneSpec, method: str = "view-attn",
                   mode: str = "one-dof", queue_len: int | None = None):
    """(ModelConfig, TrainSettings) for a preset, geometry taken from the scene;
    the config fits the scene by `check_fit`."""
    if name not in PRESETS:
        raise ContractViolation(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    model_kwargs, train_kwargs = PRESETS[name]
    model_kwargs = dict(model_kwargs)
    if queue_len is not None:
        model_kwargs["queue_len"] = queue_len
    grid = scene.grid
    config = ModelConfig(grid_shape=grid.shape, pitch=grid.pitch,
                         origin=tuple(float(x) for x in grid.origin),
                         n_classes=len(scene.classes), method=method, mode=mode,
                         **model_kwargs)
    check_fit(scene, config)
    return config, TrainSettings(**train_kwargs)


def check_fit(scene: SceneSpec, config: ModelConfig, queue: MemoryQueue | None = None,
              cameras: int | None = None) -> None:
    """Refuse a model whose grid, channels, class ids or, when given, number of
    cameras its attention layers read are not the scene's, or a queue whose
    capacity is not its queue_len or whose grids are not laid out as the BEV
    grid it fuses; callers check before rendering."""
    g = scene.grid
    require(tuple(g.shape) == tuple(config.grid_shape)
            and abs(g.pitch - config.pitch) < 1e-12
            and np.allclose(g.origin, np.asarray(config.origin), rtol=0, atol=1e-12),
            "model grid geometry must match the scene grid")
    require(scene.feature_channels == config.voxel_channels,
            f"scene renders {scene.feature_channels} channels but the model expects "
            f"{config.voxel_channels}; regenerate the scene with matching channels")
    scene_ids, model_ids = sorted(scene.class_ids), list(range(1, config.n_classes + 1))
    require(scene_ids == model_ids,
            f"scene class ids {scene_ids} must be the model's class ids {model_ids}")
    require(cameras is None or cameras == len(scene.cameras),
            f"the model's attention layers read {cameras} cameras but the scene has "
            f"{len(scene.cameras)}")
    if queue is not None:
        require(queue.capacity == config.queue_len, f"memory queue capacity {queue.capacity} "
                f"must be the model's queue_len {config.queue_len}")
        # the layout rule `warp_queue` applies, against a stand-in for the fused
        # grid; a queue's grids share one layout, which `MemoryQueue.push` checks
        h, w = config.grid_shape[1:]
        fused = BEVGrid(np.broadcast_to(0.0, (h, w, config.bev_channels)), config.pitch,
                        config.origin[:2])
        for bev, _ in queue.entries[:1]:
            require(_same_layout(bev, fused), f"queued grid layout {_layout(bev)} does not "
                    f"match the model's BEV grid {_layout(fused)}")


def _layout(bev: BEVGrid) -> str:
    origin = [float(x) for x in bev.origin]
    return f"(shape {bev.data.shape}, pitch {float(bev.pitch)}, origin {origin})"


def train_model(scene: SceneSpec, config: ModelConfig, settings: TrainSettings, data):
    """Streamed training on `data`, the scene's `prepare_frames` list; returns
    (params, history).

    Every epoch replays the frame sequence with a fresh memory queue; each
    frame does one optimizer step. History rows carry the per-epoch mean loss
    terms plus metrics accumulated from the training predictions themselves.
    """
    check_fit(scene, config)
    rig = scene.cameras
    params = init_model(np.random.default_rng(settings.seed), config, len(rig))
    opt = MomentumSGD(settings.lr)
    weights = settings.loss_weights()
    history = []
    for epoch in range(settings.epochs):
        queue = MemoryQueue(config.queue_len)
        acc = MetricAccumulator(scene.class_ids, scene.foreground_class_ids)
        sums = dict.fromkeys(LOSS_COLUMNS, 0.0)
        for fd in data:
            res = forward_frame(params, fd.features, rig, fd.pose, queue, keep_cache=True)
            value, parts, loss_grads = total_loss(res.pred, fd.truth, weights,
                                                  with_grads=True)
            grads = backward_frame(params, res, fd.features, rig, loss_grads)
            opt.step(params, grads)
            queue.push(res.fused, fd.pose)
            terms = dict(parts, total=value)
            for k in LOSS_COLUMNS:
                sums[k] += terms[k]
            acc.add_frame(decode_prediction(res.pred), fd.truth.labels, res.pred.bev_flow,
                          fd.truth.bev_flow, fd.visibility)
        row = {"epoch": epoch, **{k: sums[k] / len(data) for k in LOSS_COLUMNS},
               **acc.result()}
        history.append({k: row[k] for k in CSV_COLUMNS})
    return params, history


def write_history_csv(path, history) -> None:
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in history:
            writer.writerow([row["epoch"]] + [f"{row[k]:.17g}" for k in CSV_COLUMNS[1:]])


def evaluate_model(scene: SceneSpec, params: ModelParams, data=None,
                   queue: MemoryQueue | None = None):
    """Streamed evaluation of `data`, a `prepare_frames` list (every frame of
    the scene by default); returns (report, queue after the last frame).

    Passing a queue resumes a stream mid-sequence; the default starts cold.
    The queue's capacity must be the model's queue_len.
    """
    queue_len = params.config.queue_len
    if queue is None:
        queue = MemoryQueue(queue_len)
    check_fit(scene, params.config, queue, params.layers[0].cameras)
    if data is None:
        data = prepare_frames(scene)
    rig = scene.cameras
    acc = MetricAccumulator(scene.class_ids, scene.foreground_class_ids)
    weights = LossWeights()
    per_frame = []
    for fd in data:
        res = forward_frame(params, fd.features, rig, fd.pose, queue)
        value, _ = total_loss(res.pred, fd.truth, weights)
        queue.push(res.fused, fd.pose)
        scores = acc.add_frame(decode_prediction(res.pred), fd.truth.labels,
                               res.pred.bev_flow, fd.truth.bev_flow, fd.visibility)
        per_frame.append({"frame": fd.index, "loss": value, **scores,
                          "queue_depth": len(queue)})
    report = {
        "scene": scene.name,
        "frames": per_frame,
        "aggregate": acc.result(),
        "method": params.config.method,
        "mode": params.config.mode,
        "queue_len": queue_len,
    }
    return report, queue


def compare_methods(scene: SceneSpec, preset: str, methods=METHODS,
                    queue_lens=(4,), mode: str = "one-dof",
                    settings_override: dict | None = None, seed: int | None = None):
    """Train and evaluate each (method, queue length) combination identically.

    Every combination is resolved before any work starts, then all of them
    train and evaluate on one preparation of the scene's frames.
    """
    combos = []
    for method in methods:
        for qlen in queue_lens:
            config, settings = resolve_preset(preset, scene, method=method, mode=mode,
                                              queue_len=qlen)
            override = dict(settings_override or {})
            if seed is not None:
                override["seed"] = seed
            try:
                settings = replace(settings, **override)
            except TypeError as exc:
                raise ContractViolation(f"unknown train settings override: {exc}") from exc
            combos.append((method, qlen, config, settings))
    data = prepare_frames(scene)
    runs = []
    for method, qlen, config, settings in combos:
        params, history = train_model(scene, config, settings, data=data)
        report, _ = evaluate_model(scene, params, data=data)
        runs.append({
            "method": method,
            "mode": mode if method == "view-attn" else "n/a",
            "queue_len": qlen,
            "epochs": settings.epochs,
            "initial_loss": history[0]["total"],
            "final_loss": history[-1]["total"],
            "miou": report["aggregate"]["miou"],
            "iou_geo": report["aggregate"]["iou_geo"],
            "mave": report["aggregate"]["mave"],
        })
    order = sorted(range(len(runs)), key=lambda i: -runs[i]["miou"])
    return {"scene": scene.name, "preset": preset, "runs": runs,
            "ranking_by_miou": [runs[i]["method"] + f"@N={runs[i]['queue_len']}"
                                for i in order]}


def coverage_report(scene: SceneSpec, frame: int = 0) -> dict:
    """How many cameras see each voxel center, plus gap statistics."""
    require(0 <= frame < scene.num_frames,
            f"frame {frame} is outside the scene's {scene.num_frames} frames")
    centers = scene.grid.voxel_centers().reshape(-1, 3)
    rig = scene.cameras
    index = project_rig_sparse(rig, centers, [(c.height, c.width) for c in rig])[0]
    counts = np.bincount(index // len(rig), minlength=centers.shape[0])
    hist = {int(k): int((counts == k).sum()) for k in range(len(rig) + 1)}
    total = centers.shape[0]
    return {
        "scene": scene.name,
        "frame": frame,
        "cameras": len(scene.cameras),
        "voxels": total,
        "histogram": hist,
        "fraction_unseen": hist.get(0, 0) / total,
        "fraction_single": hist.get(1, 0) / total,
        "fraction_multi": sum(v for k, v in hist.items() if k >= 2) / total,
        "mean_coverage": float(counts.mean()),
    }
