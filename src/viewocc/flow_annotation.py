"""Occupancy-flow ground truth from rigid tracked boxes.

A tracked box stores one rigid pose per frame (box frame -> annotation
frame). Under rigid motion a point occupied by the box at frame t sat, one
frame earlier, at the same box-frame location, so its backward displacement
is found by round-tripping through the box frame:

    p_prev = pose_prev . pose_t^-1 . p_t        flow = (p_t - p_prev) / dt

The per-voxel field assigns that flow to every voxel whose center falls
inside the box at frame t. The object-flow baseline instead assigns the
box-center velocity uniformly, which erases rotational structure. Voxels
claimed by several boxes go to the nearest box center: boxes are visited in
ascending track id and a later box takes a voxel only when strictly nearer,
so ties go to the lower track id. Boxes without a previous pose (new tracks)
carry zero flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blobio import count_field, number_entries, number_field
from .errors import ContractViolation, require
from .geometry import Pose, in_box
from .numerics import FLOAT, as_float_array

FLOW_MODES = ("occupancy-flow", "object-flow")


@dataclass(frozen=True)
class GridSpec:
    """Voxel lattice: counts (z, h, w), metric pitch, and min-corner origin."""

    shape: tuple
    pitch: float
    origin: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape",
                           tuple(count_field(n, "GridSpec.shape") for n in self.shape))
        object.__setattr__(self, "pitch", number_field(self.pitch, "GridSpec.pitch"))
        origin = number_entries(self.origin, "GridSpec.origin")
        require(len(self.shape) == 3 and min(self.shape) >= 1, "GridSpec.shape must be (z, h, w)")
        require(self.pitch > 0, "GridSpec.pitch must be positive")
        object.__setattr__(self, "origin",
                           as_float_array(origin, shape=(3,), name="GridSpec.origin"))

    def voxel_centers(self) -> np.ndarray:
        """(Z, H, W, 3) metric centers; x along w, y along h, z along the first axis."""
        z, h, w = self.shape
        zs = self.origin[2] + (np.arange(z, dtype=FLOAT) + 0.5) * self.pitch
        ys = self.origin[1] + (np.arange(h, dtype=FLOAT) + 0.5) * self.pitch
        xs = self.origin[0] + (np.arange(w, dtype=FLOAT) + 0.5) * self.pitch
        zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
        return np.stack([xx, yy, zz], axis=-1)

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "pitch": self.pitch,
                "origin": [float(x) for x in self.origin]}

    @classmethod
    def from_json(cls, obj: dict) -> "GridSpec":
        return cls(obj["shape"], obj["pitch"], obj["origin"])


@dataclass(frozen=True)
class TrackedBox:
    """Rigid box with per-frame poses; size is the full extent along box axes."""

    track_id: int
    category: int
    size: np.ndarray
    poses: dict = field(default_factory=dict)

    def __post_init__(self):
        count_field(self.track_id, "box track_id")
        count_field(self.category, "box category")
        object.__setattr__(self, "size", as_float_array(
            number_entries(self.size, "box size"), shape=(3,), name="box size"))
        require((self.size > 0).all(), "TrackedBox.size must be positive")
        require(self.category >= 1, "TrackedBox.category must be a nonzero class id")

    def contains(self, pose: Pose, points: np.ndarray) -> np.ndarray:
        """Inclusive membership of points (..., 3) given the box pose."""
        return in_box(pose, self.size, points)


@dataclass
class FlowField:
    """Per-voxel backward flow with occupancy and category labels."""

    grid: GridSpec
    flow: np.ndarray        # (Z, H, W, 3) meters/second
    occupied: np.ndarray    # (Z, H, W) bool
    category: np.ndarray    # (Z, H, W) int64, 0 where unoccupied
    foreground_classes: tuple = ()

    def __post_init__(self):
        z, h, w = self.grid.shape
        self.flow = as_float_array(self.flow, shape=(z, h, w, 3), name="FlowField.flow")
        self.occupied = np.asarray(self.occupied, dtype=bool)
        require(self.occupied.shape == (z, h, w), "FlowField.occupied has wrong shape")
        self.category = np.asarray(self.category, dtype=np.int64)
        require(self.category.shape == (z, h, w), "FlowField.category has wrong shape")
        if np.any(self.flow[~self.occupied] != 0.0):
            raise ContractViolation("FlowField: nonzero flow on unoccupied voxels")
        self.foreground_classes = tuple(sorted(int(c) for c in self.foreground_classes))


@dataclass
class BEVFlowField:
    """Column-reduced planar flow: (H, W, 2) with a validity mask and category."""

    flow: np.ndarray
    valid: np.ndarray
    category: np.ndarray
    pitch: float
    origin: np.ndarray

    def __post_init__(self):
        self.flow = as_float_array(self.flow, name="BEVFlowField.flow")
        require(self.flow.ndim == 3 and self.flow.shape[2] == 2,
                "BEVFlowField.flow must be (H, W, 2)")
        self.valid = np.asarray(self.valid, dtype=bool)
        self.category = np.asarray(self.category, dtype=np.int64)
        self.origin = as_float_array(self.origin, shape=(2,), name="BEVFlowField.origin")


def map_point_back(pose_t: Pose, pose_prev: Pose, points: np.ndarray) -> np.ndarray:
    """Previous-frame positions of points (..., 3) rigidly attached to the box."""
    return pose_prev.apply(pose_t.inverse().apply(points))


def flow_vector(p_t: np.ndarray, p_prev: np.ndarray, dt: float) -> np.ndarray:
    """Backward finite-difference velocity (p_t - p_prev) / dt."""
    require(dt > 0, "flow_vector: dt must be positive")
    return (np.asarray(p_t, dtype=FLOAT) - np.asarray(p_prev, dtype=FLOAT)) / dt


def generate_flow_field(boxes, frame: int, grid: GridSpec, dt: float,
                        mode: str = "occupancy-flow") -> FlowField:
    """Rasterize per-voxel flow for all boxes present at `frame`.

    mode "occupancy-flow" maps each voxel center back through the box motion;
    "object-flow" assigns the box-center velocity uniformly. Boxes lacking a
    pose at frame-1 contribute zero flow.
    """
    require(mode in FLOW_MODES, f"unknown flow mode {mode!r}")
    require(dt > 0, "generate_flow_field: dt must be positive")
    z, h, w = grid.shape
    centers = grid.voxel_centers().reshape(-1, 3)
    flow = np.zeros((z * h * w, 3), dtype=FLOAT)
    occupied = np.zeros(z * h * w, dtype=bool)
    category = np.zeros(z * h * w, dtype=np.int64)
    owner_dist = np.full(z * h * w, np.inf, dtype=FLOAT)

    # ascending track id, strict < keeps the lower id on distance ties
    for box in sorted(boxes, key=lambda b: b.track_id):
        if frame not in box.poses:
            continue
        pose_t = box.poses[frame]
        inside = box.contains(pose_t, centers)
        dist = np.full(z * h * w, np.inf, dtype=FLOAT)
        dist[inside] = np.linalg.norm(centers[inside] - pose_t.translation, axis=-1)
        closer = dist < owner_dist
        pose_prev = box.poses.get(frame - 1)
        if pose_prev is None:
            flow[closer] = 0.0
        elif mode == "occupancy-flow":
            prev_pts = map_point_back(pose_t, pose_prev, centers[closer])
            flow[closer] = flow_vector(centers[closer], prev_pts, dt)
        else:
            flow[closer] = flow_vector(pose_t.translation, pose_prev.translation, dt)
        occupied[closer] = True
        category[closer] = box.category
        owner_dist[closer] = dist[closer]

    foreground = tuple(sorted({int(b.category) for b in boxes}))
    return FlowField(grid=grid, flow=flow.reshape(z, h, w, 3),
                     occupied=occupied.reshape(z, h, w),
                     category=category.reshape(z, h, w),
                     foreground_classes=foreground)


def reduce_bev_flow(field: FlowField) -> BEVFlowField:
    """Column means of planar flow over occupied foreground voxels.

    A cell is valid iff its column holds at least one occupied voxel of a
    foreground class; its category is the most frequent foreground class in
    the column (ties to the smaller id).
    """
    z, h, w = field.grid.shape
    fg_classes = field.foreground_classes
    fg = field.occupied & np.isin(field.category, np.asarray(fg_classes, dtype=np.int64))
    count = fg.sum(axis=0)
    valid = count > 0
    planar = np.where(fg[..., None], field.flow[..., :2], 0.0).sum(axis=0)
    flow = np.where(valid[..., None], planar / np.maximum(count, 1)[..., None], 0.0)
    category = np.zeros((h, w), dtype=np.int64)
    best = np.zeros((h, w), dtype=np.int64)
    for cls in fg_classes:  # ascending ids, strict > keeps the smaller id on ties
        cls_count = (fg & (field.category == cls)).sum(axis=0)
        take = cls_count > best
        category[take] = cls
        best[take] = cls_count[take]
    category[~valid] = 0
    return BEVFlowField(flow=flow, valid=valid, category=category,
                        pitch=field.grid.pitch, origin=field.grid.origin[:2])
