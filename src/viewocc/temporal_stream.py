"""Streaming BEV state: the grid, the memory queue, ego-motion warping and
temporal fusion.

History lives in a FIFO MemoryQueue of (BEVGrid, Pose) pairs. Warping pulls:
each output cell looks up its center in the older frame via the inverse
relative pose and samples bilinearly, zero outside; the relative rotation must
keep the z-axis fixed (planar motion).

Temporal attention treats each queued frame, warped into the current ego
frame, as one attention level. Every current cell generates per-level 2-d
offsets (cell units) and logits from its own feature, softmaxes over
points x levels, aggregates value-mapped samples, adds the result to the
current cell, and runs a per-cell feed-forward affine. An empty queue leaves
the grid untouched. Stored history is a constant for gradients: the backward
pass differentiates parameters and the current frame only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blobio
from .errors import ContractViolation, require
from .geometry import Pose, relative_pose
from .numerics import FLOAT, AffineMap, as_float_array, softmax_backward, softmax_norm
from .view_attention import (deform_aggregate, deform_aggregate_backward, gather_samples,
                             plan_dense, star_bias)

PLANAR_TOL = 1e-6


@dataclass
class BEVGrid:
    """(H, W, C) float64 features; origin is the metric min corner (x, y)."""

    data: np.ndarray
    pitch: float
    origin: np.ndarray

    def __post_init__(self):
        self.data = as_float_array(self.data, name="BEVGrid.data")
        require(self.data.ndim == 3, "BEVGrid.data must be (H, W, C)")
        require(self.pitch > 0, "BEVGrid.pitch must be positive")
        self.origin = as_float_array(self.origin, shape=(2,), name="BEVGrid.origin")

    def cell_centers(self):
        """Metric centers: xs (W,) along columns, ys (H,) along rows."""
        h, w = self.data.shape[0], self.data.shape[1]
        xs = self.origin[0] + (np.arange(w, dtype=FLOAT) + 0.5) * self.pitch
        ys = self.origin[1] + (np.arange(h, dtype=FLOAT) + 0.5) * self.pitch
        return xs, ys


def _same_layout(a: BEVGrid, b: BEVGrid) -> bool:
    return (a.data.shape == b.data.shape and a.pitch == b.pitch
            and np.array_equal(a.origin, b.origin))


class MemoryQueue:
    """FIFO of (BEVGrid, Pose) with fixed capacity; oldest entry evicted first."""

    def __init__(self, capacity: int):
        require(capacity >= 1, "MemoryQueue capacity must be >= 1")
        self.capacity = int(capacity)
        self.entries: list[tuple[BEVGrid, Pose]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, bev: BEVGrid, pose: Pose) -> "MemoryQueue":
        if self.entries and not _same_layout(self.entries[0][0], bev):
            raise ContractViolation("MemoryQueue: pushed grid layout does not match queue")
        self.entries.append((bev, pose))
        if len(self.entries) > self.capacity:
            self.entries.pop(0)
        return self


def save_queue(prefix, queue: MemoryQueue) -> None:
    arrays = {}
    poses = []
    layout = None
    for i, (bev, pose) in enumerate(queue.entries):
        arrays[f"bev.{i:04d}"] = bev.data
        poses.append(pose.to_json())
        layout = {"pitch": bev.pitch, "origin": [float(x) for x in bev.origin]}
    meta = {"capacity": queue.capacity, "count": len(queue.entries),
            "poses": poses, "layout": layout}
    blobio.write_blob(prefix, arrays, meta)


def load_queue(prefix) -> MemoryQueue:
    try:
        arrays, meta = blobio.read_blob(prefix)
    except ContractViolation as exc:    # say which of eval's two blobs it was
        raise ContractViolation(f"queue blob {prefix}: {exc}") from exc
    require(isinstance(meta, dict), f"queue blob {prefix} has no meta table")
    capacity = blobio.count_field(meta.get("capacity"), f"queue blob {prefix} meta.capacity")
    count = blobio.count_field(meta.get("count"), f"queue blob {prefix} meta.count")
    require(1 <= capacity and count <= capacity,
            f"queue blob {prefix} needs meta.capacity >= 1 and meta.count <= capacity; "
            f"got capacity {capacity}, count {count}")
    poses = meta.get("poses")
    require(isinstance(poses, list) and len(poses) == count,
            f"queue blob {prefix} needs a meta.poses list of {count} poses")
    layout = meta.get("layout")
    require(count == 0 or isinstance(layout, dict) and isinstance(layout.get("origin"), list),
            f"queue blob {prefix} has no meta.layout table with an origin list")
    queue = MemoryQueue(capacity)
    if count:       # an empty queue is saved without a layout
        pitch = blobio.number_field(layout.get("pitch"), f"queue blob {prefix} layout pitch")
        origin = blobio.number_entries(layout["origin"], f"queue blob {prefix} layout origin")
    for i in range(count):
        name = f"bev.{i:04d}"
        require(name in arrays, f"queue blob {prefix} is missing array {name!r}")
        try:
            bev = BEVGrid(arrays[name], pitch, origin)
            pose = Pose.from_json(poses[i])
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractViolation(f"malformed queue entry {i} in {prefix}: {exc}") from exc
        queue.push(bev, pose)
    return queue


def check_planar(rel: Pose) -> None:
    """Require that rel's rotation maps the z-axis to itself within PLANAR_TOL."""
    zhat = np.array([0.0, 0.0, 1.0])
    err = np.abs(rel.rotation @ zhat - zhat).max()
    if err > PLANAR_TOL:
        raise ContractViolation(f"warp requires planar motion: z-axis moves by {err:.3e}")


def warp_bev(bev: BEVGrid, rel: Pose) -> BEVGrid:
    """Resample an older BEV grid into the current frame.

    rel maps older-frame coordinates into the current frame; each current
    cell center is pulled through rel's inverse and sampled bilinearly from
    the older grid, zero where it lands outside.
    """
    check_planar(rel)
    inv = rel.inverse()
    xs, ys = bev.cell_centers()
    xg, yg = np.meshgrid(xs, ys)
    src_x = inv.rotation[0, 0] * xg + inv.rotation[0, 1] * yg + inv.translation[0]
    src_y = inv.rotation[1, 0] * xg + inv.rotation[1, 1] * yg + inv.translation[1]
    iu = (src_x - bev.origin[0]) / bev.pitch - 0.5
    iv = (src_y - bev.origin[1]) / bev.pitch - 0.5
    h, w, c = bev.data.shape
    cells = (h * w, 1, 1, 1)        # one sample of weight 1 per cell, from one map
    plan = plan_dense(np.ones(cells), iu.reshape(cells), iv.reshape(cells), [bev.data.shape])
    vals = np.zeros((h * w, c), dtype=FLOAT)
    vals[plan.index] = gather_samples(plan, bev.data.reshape(-1, c))
    return BEVGrid(vals.reshape(h, w, c), bev.pitch, bev.origin)


@dataclass
class TemporalParams:
    """Per-cell temporal attention over up to `levels` warped memory frames."""

    points: int
    levels: int
    offset_head: AffineMap
    logit_head: AffineMap
    value_map: AffineMap
    output_map: AffineMap
    feed_forward: AffineMap

    def __post_init__(self):
        c = self.channels
        require(self.points >= 1 and self.levels >= 1, "points and levels must be >= 1")
        require(self.offset_head.out_dim == self.points * self.levels * 2,
                "temporal offset head has wrong output size")
        require(self.logit_head.out_dim == self.points * self.levels
                and self.logit_head.in_dim == c, "temporal logit head has wrong shape")
        for name, m in (("value_map", self.value_map), ("output_map", self.output_map),
                        ("feed_forward", self.feed_forward)):
            require(m.in_dim == c and m.out_dim == c, f"temporal {name} must be {c}x{c}")

    @property
    def channels(self) -> int:
        return self.offset_head.in_dim

    def arrays(self, prefix: str = ""):
        for name in ("offset_head", "logit_head", "value_map", "output_map", "feed_forward"):
            m = getattr(self, name)
            yield f"{prefix}{name}.weight", m.weight
            yield f"{prefix}{name}.bias", m.bias


def init_temporal_params(rng: np.random.Generator, channels: int, points: int = 4,
                         levels: int = 4, star_radius_cells: float = 0.9) -> TemporalParams:
    offset_head = AffineMap(np.zeros((points * levels * 2, channels)),
                            star_bias(points * levels, star_radius_cells, dims=2))
    logit_head = AffineMap.zeros(points * levels, channels)
    value_map = AffineMap(rng.normal(0.0, 1.0 / np.sqrt(channels), (channels, channels)),
                          np.zeros(channels))
    output_map = AffineMap(rng.normal(0.0, 0.5 / np.sqrt(channels), (channels, channels)),
                           np.zeros(channels))
    feed_forward = AffineMap.identity(channels)
    return TemporalParams(points, levels, offset_head, logit_head,
                          value_map, output_map, feed_forward)


def temporal_forward_arrays(current: np.ndarray, warped: np.ndarray,
                            params: TemporalParams, keep_cache: bool = False):
    """Core temporal attention on raw arrays.

    current: (H, W, C); warped: (L, H, W, C) memory frames already in the
    current ego frame, oldest first, L <= params.levels. Returns
    (out (H, W, C), cache).
    """
    h, w, c = current.shape
    levels = warped.shape[0]
    require(1 <= levels <= params.levels, "memory level count exceeds configured levels")
    cells = current.reshape(h * w, c)
    p, n = params.points, params.levels

    off = (cells @ params.offset_head.weight.T + params.offset_head.bias)
    off = off.reshape(-1, p, n, 2)[:, :, :levels, :]
    logits = (cells @ params.logit_head.weight.T + params.logit_head.bias)
    logits = logits.reshape(-1, p, n)[:, :, :levels]
    attn = softmax_norm(logits.reshape(-1, p * levels), axis=-1).reshape(-1, p, levels)

    col = np.tile(np.arange(w, dtype=FLOAT), h)
    row = np.repeat(np.arange(h, dtype=FLOAT), w)
    u = col[:, None, None] + off[..., 0]
    v = row[:, None, None] + off[..., 1]

    # one head: each (cell, point, level) sample is a (Q, 1, K, J) core entry
    plan = plan_dense(attn[:, None], u[:, None], v[:, None], [f.shape for f in warped])
    agg, cache = deform_aggregate(plan, attn[:, None], list(warped), [params.value_map],
                                  [params.output_map])
    pre = cells + agg
    out = pre @ params.feed_forward.weight.T + params.feed_forward.bias

    if not keep_cache:
        return out.reshape(h, w, c), None
    cache.update(cells=cells, warped=warped, u=u, v=v, pre=pre)
    return out.reshape(h, w, c), cache


def temporal_backward_arrays(cache: dict, params: TemporalParams, g_out: np.ndarray):
    """Gradients of sum(g_out * out) w.r.t. parameters and the current frame."""
    levels, h, w, c = cache["warped"].shape
    p, n = params.points, params.levels
    g_out = np.asarray(g_out, dtype=FLOAT).reshape(h * w, c)
    cells = cache["cells"]

    g_wf = g_out.T @ cache["pre"]
    g_bf = g_out.sum(axis=0)
    g_pre = g_out @ params.feed_forward.weight
    g = deform_aggregate_backward(cache, list(cache["warped"]), [params.value_map],
                                  [params.output_map], g_pre)

    # the per-sample gradients, in plan order, go straight to the valid
    # (cell, point, level) entries of the offsets and attention weights
    valid = cache["valid"].reshape(h * w, p, levels)
    g_off = np.zeros((h * w, p, n, 2), dtype=FLOAT)
    g_off[:, :, :levels, 0][valid] = g["u"]
    g_off[:, :, :levels, 1][valid] = g["v"]
    g_off_flat = g_off.reshape(h * w, p * n * 2)

    g_attn = np.zeros((h * w, p * levels), dtype=FLOAT)
    g_attn[valid.reshape(h * w, -1)] = g["attn"]
    g_logits_used = softmax_backward(cache["attn"].reshape(-1, p * levels), g_attn, axis=-1)
    g_logits = np.zeros((h * w, p, n), dtype=FLOAT)
    g_logits[:, :, :levels] = g_logits_used.reshape(-1, p, levels)
    g_logits_flat = g_logits.reshape(h * w, p * n)

    grads = {
        "offset_head.weight": g_off_flat.T @ cells,
        "offset_head.bias": g_off_flat.sum(axis=0),
        "logit_head.weight": g_logits_flat.T @ cells,
        "logit_head.bias": g_logits_flat.sum(axis=0),
        "value_map.weight": g["value_w"][0],
        "value_map.bias": g["value_b"][0],
        "output_map.weight": g["out_w"][0],
        "output_map.bias": g["out_b"][0],
        "feed_forward.weight": g_wf,
        "feed_forward.bias": g_bf,
    }
    g_current = (g_pre + g_off_flat @ params.offset_head.weight
                 + g_logits_flat @ params.logit_head.weight)
    return grads, g_current.reshape(h, w, c)


def warp_queue(queue: MemoryQueue, current_pose: Pose, reference: BEVGrid) -> np.ndarray:
    """Warp every queued frame into the current ego frame; (L, H, W, C)."""
    warped = []
    for bev, pose in queue.entries:
        require(_same_layout(bev, reference), "queued grid layout does not match current")
        warped.append(warp_bev(bev, relative_pose(current_pose, pose)).data)
    return np.stack(warped)
