"""Occupancy network: voxel queries, multi-view attention, temporal fusion.

The per-frame pipeline is

    query table (learned, one entry per voxel)
      -> residual multi-view attention layers over the camera features
      -> squeeze to a BEV grid
      -> temporal attention against the warped memory queue (residual + ffn)
      -> expand back to voxels
      -> occupancy / semantic heads on voxels, flow head on the fused BEV

The voxel grid (Z, H, W, C_voxel) squeezes to the BEV grid (H, W, C_bev) by
concatenating its z-layers channel-wise (z-major) into one column per cell and
applying one affine map per cell; the expand map inverts the layout with a
second affine map.

Everything is plain float64 numpy with hand-written backward passes; the
parameter set walks as a flat dict of dotted names so the optimizer, the
serializer, and the finite-difference checks all share one view of it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import blobio
from .errors import ContractViolation, require
from .flow_annotation import GridSpec
from .geometry import Pose
from .numerics import FLOAT, AffineMap
from .objective import PredictionBundle
from .temporal_stream import (BEVGrid, MemoryQueue, TemporalParams, init_temporal_params,
                              temporal_backward_arrays, temporal_forward_arrays, warp_queue)
from .view_attention import (attn_backward_batch, attn_forward_batch, init_proj_first_params,
                             init_view_attn_params, proj_first_backward_batch,
                             proj_first_forward_batch)

METHODS = ("view-attn", "proj-first")
MODES = ("one-dof", "two-dof", "ego")
# ModelConfig fields that count something and so must be integers >= 1
_COUNT_FIELDS = ("voxel_channels", "bev_channels", "n_classes", "layers", "heads", "points",
                 "queue_len", "temporal_points")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; geometry must match the scene's grid."""

    grid_shape: tuple
    pitch: float
    origin: tuple
    voxel_channels: int
    bev_channels: int
    n_classes: int
    layers: int
    heads: int
    points: int
    queue_len: int
    temporal_points: int
    method: str
    mode: str

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            blobio.count_field(getattr(self, name), f"model config {name}")
        object.__setattr__(self, "pitch", blobio.number_field(self.pitch, "model config pitch"))
        for name, check in (("grid_shape", blobio.count_field), ("origin", blobio.number_field)):
            object.__setattr__(self, name, tuple(check(x, f"model config {name}")
                                                 for x in getattr(self, name)))
        require(len(self.grid_shape) == 3 and min(self.grid_shape) >= 1 and len(self.origin) == 3,
                "grid needs a 3-d shape of counts >= 1 and a 3-d origin")
        require(self.method in METHODS, f"method must be one of {METHODS}")
        require(self.mode in MODES, f"mode must be one of {MODES}")
        for name in _COUNT_FIELDS:
            require(getattr(self, name) >= 1, f"{name} must be >= 1")
        require(self.voxel_channels % self.heads == 0,
                "voxel_channels must be divisible by heads")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.grid_shape, self.pitch, self.origin)

    @property
    def n_voxels(self) -> int:
        z, h, w = self.grid_shape
        return z * h * w

    def to_json(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj.update(grid_shape=list(self.grid_shape), origin=list(self.origin))
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """Every field is required; unknown keys are ignored, so older headers
        that carry more load too."""
        kwargs = {}
        for f in fields(cls):
            require(f.name in obj, f"model config is missing key {f.name!r}")
            kwargs[f.name] = obj[f.name]
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ContractViolation(f"malformed model config: {exc}") from exc


@dataclass
class ModelParams:
    config: ModelConfig
    query_table: np.ndarray
    layers: list
    squeeze: AffineMap
    temporal: TemporalParams
    expand: AffineMap
    occ_head: AffineMap
    sem_head: AffineMap
    flow_head: AffineMap

    def arrays(self):
        """Flat (dotted-name, ndarray) walk; arrays are live references."""
        yield "query_table", self.query_table
        for i, layer in enumerate(self.layers):
            yield from layer.arrays(prefix=f"layers.{i}.")
        yield "squeeze.weight", self.squeeze.weight
        yield "squeeze.bias", self.squeeze.bias
        yield from self.temporal.arrays(prefix="temporal.")
        yield "expand.weight", self.expand.weight
        yield "expand.bias", self.expand.bias
        for name in ("occ_head", "sem_head", "flow_head"):
            m = getattr(self, name)
            yield f"{name}.weight", m.weight
            yield f"{name}.bias", m.bias

    def as_dict(self) -> dict:
        return dict(self.arrays())

    def n_parameters(self) -> int:
        return int(sum(a.size for _, a in self.arrays()))


def init_model(rng: np.random.Generator, config: ModelConfig, n_cameras: int) -> ModelParams:
    c, cb = config.voxel_channels, config.bev_channels
    z = config.grid_shape[0]
    query_table = rng.normal(0.0, 0.3, (config.n_voxels, c))
    init_layer = init_view_attn_params if config.method == "view-attn" else init_proj_first_params
    layers = [init_layer(rng, c, heads=config.heads, points=config.points, cameras=n_cameras)
              for _ in range(config.layers)]
    squeeze = AffineMap(rng.normal(0.0, 1.0 / np.sqrt(z * c), (cb, z * c)), np.zeros(cb))
    temporal = init_temporal_params(rng, cb, points=config.temporal_points,
                                    levels=config.queue_len)
    expand = AffineMap(rng.normal(0.0, 1.0 / np.sqrt(cb), (z * c, cb)), np.zeros(z * c))
    occ_head = AffineMap(rng.normal(0.0, 1.0 / np.sqrt(c), (1, c)), np.zeros(1))
    sem_head = AffineMap(rng.normal(0.0, 1.0 / np.sqrt(c), (config.n_classes, c)),
                         np.zeros(config.n_classes))
    flow_head = AffineMap(rng.normal(0.0, 1.0 / np.sqrt(cb), (2, cb)), np.zeros(2))
    return ModelParams(config, query_table, layers, squeeze, temporal, expand,
                       occ_head, sem_head, flow_head)


class _NoDraws:
    """Stands in for a Generator where only the shapes of `init_model`'s
    arrays matter: every draw is zeros."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


def save_params(prefix, params: ModelParams) -> None:
    blobio.write_blob(prefix, params.as_dict(), {"config": params.config.to_json()})


def load_params(prefix) -> ModelParams:
    arrays, meta = blobio.read_blob(prefix)
    require(isinstance(meta, dict) and isinstance(meta.get("config"), dict),
            f"parameter blob {prefix} has no meta.config table")
    config = ModelConfig.from_json(meta["config"])
    logits = arrays.get("layers.0.logit_head.weight")
    require(logits is not None and logits.ndim == 2,
            "parameter blob is missing the 2-d array 'layers.0.logit_head.weight'")
    n_cameras = logits.shape[0] // (config.heads * config.points)
    params = init_model(_NoDraws(), config, n_cameras)     # a template, overwritten below
    for name, target in params.arrays():
        if name not in arrays:
            raise ContractViolation(f"parameter blob is missing array {name!r}")
        require(arrays[name].shape == target.shape,
                f"parameter {name!r} has shape {arrays[name].shape}, expected {target.shape}")
        np.copyto(target, arrays[name])
    return params


def _to_columns(voxels: np.ndarray) -> np.ndarray:
    """Voxel grid (Z, H, W, C) -> cell columns (H*W, Z*C), z-major: a column
    reads z0's channels, then z1's, and so on."""
    z, h, w, c = voxels.shape
    return voxels.transpose(1, 2, 0, 3).reshape(h * w, z * c)


def _to_voxels(columns: np.ndarray, grid_shape) -> np.ndarray:
    """Cell columns (H*W or H, W, Z*C) -> contiguous voxel grid (Z, H, W, C);
    the inverse of _to_columns."""
    z, h, w = grid_shape
    return np.ascontiguousarray(columns.reshape(h, w, z, -1).transpose(2, 0, 1, 3))


@dataclass
class FrameResult:
    """Forward products of one frame; caches present only when requested."""

    pred: PredictionBundle
    fused: BEVGrid
    voxel_features: np.ndarray
    caches: dict | None = None


def forward_frame(params: ModelParams, features, rig, pose: Pose, queue: MemoryQueue,
                  keep_cache: bool = False) -> FrameResult:
    """Run the pipeline for one frame. The memory queue is read, not written;
    callers push the fused grid themselves so streaming stays explicit."""
    cfg = params.config
    z, h, w = cfg.grid_shape
    centers = cfg.grid.voxel_centers().reshape(-1, 3)

    v = params.query_table
    layer_caches = []
    for layer in params.layers:
        if cfg.method == "view-attn":
            out, cache = attn_forward_batch(v, centers, layer, features, rig, cfg.mode,
                                            keep_cache=keep_cache)
        else:
            out, cache = proj_first_forward_batch(v, centers, layer, features, rig,
                                                  keep_cache=keep_cache)
        v = v + out
        layer_caches.append(cache)

    columns = _to_columns(v.reshape(z, h, w, cfg.voxel_channels))
    bev = BEVGrid(columns.reshape(h, w, -1) @ params.squeeze.weight.T + params.squeeze.bias,
                  cfg.pitch, cfg.origin[:2])

    t_cache = None
    fused = bev
    if len(queue) > 0:
        warped = warp_queue(queue, pose, bev)
        fused_data, t_cache = temporal_forward_arrays(bev.data, warped, params.temporal,
                                                      keep_cache=keep_cache)
        fused = BEVGrid(fused_data, bev.pitch, bev.origin)

    feats = _to_voxels(fused.data @ params.expand.weight.T + params.expand.bias, cfg.grid_shape)
    occ_logits = feats @ params.occ_head.weight[0] + params.occ_head.bias[0]
    sem_logits = feats @ params.sem_head.weight.T + params.sem_head.bias
    bev_flow = fused.data @ params.flow_head.weight.T + params.flow_head.bias

    caches = None
    if keep_cache:
        caches = {"layers": layer_caches, "temporal": t_cache, "squeeze_columns": columns}
    pred = PredictionBundle(occ_logits, sem_logits, bev_flow)
    return FrameResult(pred, fused, feats, caches)


def backward_frame(params: ModelParams, result: FrameResult, features, rig,
                   loss_grads: dict) -> dict:
    """Backpropagate loss gradients through one cached frame.

    loss_grads carries occ_logits (Z,H,W), sem_logits (Z,H,W,n_classes), and
    bev_flow (H,W,2). Returns the gradient dict it builds, one entry per name
    of params.arrays() with that array's shape; the temporal entries are zeros
    when an empty memory queue left the temporal block unused.
    """
    require(result.caches is not None, "backward_frame needs a forward run with keep_cache")
    cfg = params.config
    _, h, w = cfg.grid_shape
    caches = result.caches
    feats, fused = result.voxel_features, result.fused

    g_occ = np.asarray(loss_grads["occ_logits"], dtype=FLOAT)
    g_sem = np.asarray(loss_grads["sem_logits"], dtype=FLOAT)
    g_flow = np.asarray(loss_grads["bev_flow"], dtype=FLOAT)

    grads = {
        "occ_head.weight": np.einsum("zhw,zhwc->c", g_occ, feats)[None],
        "occ_head.bias": g_occ.sum().reshape(1),
        "sem_head.weight": np.einsum("zhwk,zhwc->kc", g_sem, feats),
        "sem_head.bias": g_sem.sum(axis=(0, 1, 2)),
        "flow_head.weight": np.einsum("hwf,hwc->fc", g_flow, fused.data),
        "flow_head.bias": g_flow.sum(axis=(0, 1)),
    }

    g_feats = (g_occ[..., None] * params.occ_head.weight[0]
               + np.einsum("zhwk,kc->zhwc", g_sem, params.sem_head.weight))
    g_fused = g_flow @ params.flow_head.weight

    # expand: the cell columns of feats are fused (H,W,Cb) @ W.T + b
    g_expand_out = _to_columns(g_feats)
    fused_flat = fused.data.reshape(h * w, cfg.bev_channels)
    grads["expand.weight"] = g_expand_out.T @ fused_flat
    grads["expand.bias"] = g_expand_out.sum(axis=0)
    g_fused = g_fused + (g_expand_out @ params.expand.weight).reshape(h, w, cfg.bev_channels)

    if caches["temporal"] is not None:
        t_grads, g_bev = temporal_backward_arrays(caches["temporal"], params.temporal, g_fused)
    else:
        t_grads = {name: np.zeros_like(arr) for name, arr in params.temporal.arrays()}
        g_bev = g_fused
    grads.update((f"temporal.{name}", arr) for name, arr in t_grads.items())

    # squeeze: bev (H,W,Cb) is the cell columns (H,W,Z*C) @ W.T + b
    g_bev_flat = g_bev.reshape(h * w, cfg.bev_channels)
    grads["squeeze.weight"] = g_bev_flat.T @ caches["squeeze_columns"]
    grads["squeeze.bias"] = g_bev_flat.sum(axis=0)
    g_v = _to_voxels(g_bev_flat @ params.squeeze.weight, cfg.grid_shape)
    g_v = g_v.reshape(-1, cfg.voxel_channels)

    backward = attn_backward_batch if cfg.method == "view-attn" else proj_first_backward_batch
    for i in reversed(range(len(params.layers))):
        layer_grads, g_queries, _ = backward(caches["layers"][i], params.layers[i],
                                             features, rig, g_v)
        grads.update((f"layers.{i}.{name}", arr) for name, arr in layer_grads.items())
        g_v = g_v + g_queries

    grads["query_table"] = g_v
    return grads


class MomentumSGD:
    """Classic momentum: v <- mu v + g; theta <- theta - lr v, mu = 0.9."""

    MOMENTUM = 0.9

    def __init__(self, lr: float):
        require(lr > 0, "learning rate must be positive")
        self.lr = lr
        self.velocity = {}

    def step(self, params: ModelParams, grads: dict) -> None:
        for name, arr in params.arrays():
            g = grads.get(name)
            require(g is not None, f"missing gradient for {name!r}")
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(arr)
                self.velocity[name] = v
            v *= self.MOMENTUM
            v += g
            arr -= self.lr * v
