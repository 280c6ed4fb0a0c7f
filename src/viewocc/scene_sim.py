"""Synthetic multi-camera scenes with analytic first-hit rendering.

A scene is a set of oriented boxes in a world frame (static walls and ground
slabs plus tracked dynamic boxes), a camera rig mounted on an ego body, a
per-frame ego trajectory, and a voxel grid fixed in the ego frame. Rendering
ray-casts each pixel by uniform stepping at pitch/4 against the analytic
elements (first hit wins; per element, a bounding-sphere test picks the
rays and a slab test the steps worth testing) and emits a feature that
depends only on the hit point's world position and the hit element's
class: a fixed orthogonal per-class code plus a smooth sinusoidal position
code. Two cameras observing
the same surface point therefore render near-identical features, and jointly
rotating scene content and rig about z reproduces the same feature maps,
which the rotational-invariance suite relies on.

Ground truth rasterizes the static elements into the ego-frame grid
(center-in-element); the flow field, derived from the tracked boxes, labels
every box voxel.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .blobio import count_field, flag_field, name_field, number_entries, number_field
from .errors import ContractViolation, open_output, require
from .flow_annotation import GridSpec, TrackedBox, generate_flow_field
from .geometry import CameraModel, Pose, in_box, rotation_z
from .numerics import FLOAT, FeatureMap, as_float_array

RAY_STEP_FRACTION = 0.25  # step length as a fraction of the grid pitch
MAX_RAY_STEPS = 10**6     # per ray; the presets need 135


@dataclass(frozen=True)
class SceneClass:
    id: int
    name: str
    foreground: bool = False

    def __post_init__(self):
        count_field(self.id, "class id")
        name_field(self.name, "class name")
        flag_field(self.foreground, "class foreground")
        require(self.id >= 1, "class ids start at 1; 0 is reserved for free space")


@dataclass(frozen=True)
class StaticElement:
    """Oriented box: a scene's static in the world frame, or any element of
    `SceneSpec.elements_in_frame` in the ego frame."""

    category: int
    size: np.ndarray
    pose: Pose

    def __post_init__(self):
        count_field(self.category, "static category")
        object.__setattr__(self, "size", as_float_array(
            number_entries(self.size, "static size"), shape=(3,), name="static size"))
        require((self.size > 0).all(), "StaticElement.size must be positive")

    def contains(self, points: np.ndarray) -> np.ndarray:
        return in_box(self.pose, self.size, points)


@dataclass(frozen=True)
class SceneSpec:
    """Complete synthetic scene description; serializable to JSON."""

    name: str
    seed: int
    feature_channels: int
    classes: list
    grid: GridSpec
    cameras: list
    ego_trajectory: list
    frame_dt: float
    statics: list = dataclass_field(default_factory=list)
    boxes: list = dataclass_field(default_factory=list)
    feature_anchor: Pose = dataclass_field(default_factory=Pose.identity)

    def __post_init__(self):
        name_field(self.name, "scene name")
        count_field(self.seed, "scene seed")
        count_field(self.feature_channels, "scene feature_channels")
        object.__setattr__(self, "frame_dt", number_field(self.frame_dt, "scene frame_dt"))
        require(self.feature_channels >= max(1, len(self.classes)),
                "feature_channels must cover the class table")
        require(self.frame_dt > 0, "frame_dt must be positive")
        require(len(self.ego_trajectory) >= 1, "scene needs at least one frame")
        require(len(self.cameras) >= 1, "scene needs at least one camera")
        ids = [c.id for c in self.classes]
        require(len(set(ids)) == len(ids), "duplicate class ids")
        fg = {c.id for c in self.classes if c.foreground}
        for box in self.boxes:
            require(box.category in fg,
                    f"box track {box.track_id} category {box.category} is not a foreground class")
        for st in self.statics:
            require(st.category in set(ids), "static element category not in class table")

    @property
    def num_frames(self) -> int:
        return len(self.ego_trajectory)

    @property
    def class_ids(self):
        return [c.id for c in self.classes]

    @property
    def foreground_class_ids(self):
        return [c.id for c in self.classes if c.foreground]

    def basis(self) -> "_FeatureBasis":
        # built on first use: a process that never renders never imports numpy.random
        if "_basis" not in vars(self):
            vars(self)["_basis"] = _FeatureBasis(self.seed, self.feature_channels, len(self.classes))
        return self._basis

    def elements_in_frame(self, frame: int):
        """The frame's elements as ego-frame `StaticElement`s, in priority
        order: the boxes present at the frame, then the statics. A point
        inside several elements takes the class of the earliest.
        """
        require(0 <= frame < self.num_frames,
                f"frame {frame} is outside the scene's {self.num_frames} frames")
        inv = self.ego_trajectory[frame].inverse()
        return ([StaticElement(b.category, b.size, inv.compose(b.poses[frame]))
                 for b in self.boxes if frame in b.poses]
                + [StaticElement(st.category, st.size, inv.compose(st.pose))
                   for st in self.statics])

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "feature_channels": self.feature_channels,
            "frame_dt": self.frame_dt,
            "classes": [{"id": c.id, "name": c.name, "foreground": c.foreground}
                        for c in self.classes],
            "grid": self.grid.to_json(),
            "cameras": [cam.to_json() for cam in self.cameras],
            "ego_trajectory": [p.to_json() for p in self.ego_trajectory],
            "statics": [{"category": s.category, "size": [float(x) for x in s.size],
                         "pose": s.pose.to_json()} for s in self.statics],
            "boxes": [{"track_id": b.track_id, "category": b.category,
                       "size": [float(x) for x in b.size],
                       "poses": {str(f): p.to_json() for f, p in sorted(b.poses.items())}}
                      for b in self.boxes],
            "feature_anchor": self.feature_anchor.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SceneSpec":
        try:
            return cls(
                name=obj.get("name", "scene"),
                seed=obj["seed"],
                feature_channels=obj["feature_channels"],
                classes=[SceneClass(c["id"], c["name"], c.get("foreground", False))
                         for c in obj["classes"]],
                grid=GridSpec.from_json(obj["grid"]),
                cameras=[CameraModel.from_json(c) for c in obj["cameras"]],
                ego_trajectory=[Pose.from_json(p) for p in obj["ego_trajectory"]],
                frame_dt=obj["frame_dt"],
                statics=[StaticElement(s["category"], s["size"], Pose.from_json(s["pose"]))
                         for s in obj.get("statics", [])],
                boxes=[TrackedBox(b["track_id"], b["category"], b["size"],
                                  _box_poses(b["poses"]))
                       for b in obj.get("boxes", [])],
                feature_anchor=Pose.from_json(obj["feature_anchor"])
                if "feature_anchor" in obj else Pose.identity(),
            )
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ContractViolation(f"malformed scene description: {exc}") from exc


def _box_poses(obj: dict) -> dict:
    """A box's {frame: Pose} from its JSON table. A key must name a frame
    as `to_json` writes it, str(frame) with frame >= 0, so that "01" cannot
    stand in for frame 1. Every key is checked before the first pose is read,
    and the poses are read one at a time by `Pose.from_json`."""
    for key in obj.keys():
        if not (key.isascii() and key.isdigit() and key == str(int(key))):
            raise ContractViolation("box frame key must be a non-negative integer without "
                                    f"leading zeros, got {key!r}")
    return {int(k): Pose.from_json(v) for k, v in obj.items()}


def save_scene(path, scene: SceneSpec) -> None:
    with open_output(path) as fh:
        json.dump(scene.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def with_feature_channels(scene: SceneSpec, channels: int) -> SceneSpec:
    """Same scene rendered at a different feature width (fresh basis)."""
    return replace(scene, feature_channels=channels)


class _FeatureBasis:
    """Deterministic surface-feature generator shared by all cameras.

    Class codes are rows of a seeded orthogonal matrix; the position code is
    a bank of low-frequency sinusoids of the anchor-frame position, smooth
    enough for bilinear sampling between neighboring pixels.
    """

    CLASS_AMP = 1.2
    POS_AMP = 0.8

    def __init__(self, seed: int, channels: int, n_classes: int):
        rng = np.random.default_rng([int(seed), 0x5EED])
        gauss = rng.normal(size=(channels, channels))
        q, _ = np.linalg.qr(gauss)
        self.class_codes = q[:n_classes] * self.CLASS_AMP
        dirs = rng.normal(size=(channels, 3))
        self.dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        self.freqs = rng.uniform(0.6, 1.4, size=channels)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=channels)

    def features(self, class_indices: np.ndarray, anchor_points: np.ndarray) -> np.ndarray:
        """class_indices are 0-based rows; anchor_points (N, 3)."""
        pos = self.POS_AMP * np.sin(self.freqs * (anchor_points @ self.dirs.T) + self.phases)
        return self.class_codes[class_indices] + pos


# At most this many ray and voxel-run tables (one of each per camera and
# grid) stay cached per process; the least recently used goes first.
_TABLE_CACHE_SIZE = 32
_tables: OrderedDict = OrderedDict()


def _read_only(value) -> None:
    """Make every array in `value` read-only: the arrays of its tuples,
    lists, dicts and object attributes, at any depth."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    elif isinstance(value, dict):
        _read_only(list(value.values()))
    elif hasattr(value, "__dict__"):
        _read_only(list(vars(value).values()))


def _cached(key, build, store: OrderedDict = _tables, size: int = _TABLE_CACHE_SIZE):
    """The value cached in `store` under `key`, its arrays made read-only;
    `build()` makes it on a miss, and nothing is cached when it raises.
    `store` keeps the `size` most recently used entries."""
    value = store.get(key)
    if value is None:
        value = build()
        _read_only(value)
        store[key] = value
        if len(store) > size:
            store.popitem(last=False)
    else:
        store.move_to_end(key)
    return value


# At most this many checked scenes stay cached per process, keyed by their
# files' text; the least recently used goes first.
_SCENE_CACHE_SIZE = 4
_scenes: OrderedDict = OrderedDict()


def load_scene(path) -> SceneSpec:
    """The scene in the JSON file at `path`, which is read on every call. A
    text parsed and checked before in this process gives the same frozen
    SceneSpec, shared with every earlier load. `_cached` makes its arrays
    read-only; its lists and box pose tables can still be changed in place,
    and callers must not. A file that fails a check is never cached."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:        # as in blobio.read_blob
        raise ContractViolation(f"cannot read scene file {path}: {exc}") from exc

    def parse():
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise ContractViolation(f"cannot read scene file {path}: {exc}") from exc
        return SceneSpec.from_json(obj)
    return _cached(text, parse, _scenes, _SCENE_CACHE_SIZE)


def _camera_key(cam: CameraModel):
    """Everything a camera's rays depend on, by value."""
    ext = cam.extrinsics
    return (np.array([cam.fx, cam.fy, cam.cx, cam.cy], dtype=FLOAT).tobytes(),
            int(cam.width), int(cam.height), ext.rotation.tobytes(), ext.translation.tobytes())


def _ray_grid(cam: CameraModel):
    """Camera origin (3,) and per-pixel unit directions (P, 3) in the ego
    frame. Both are read-only, built on the first call for the camera's
    values and reused by every later frame and call."""
    def build():
        inv = cam.extrinsics.inverse()
        us, vs = np.meshgrid(np.arange(cam.width, dtype=FLOAT),
                             np.arange(cam.height, dtype=FLOAT))
        d_cam = np.stack([(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones_like(us)],
                         axis=-1)
        d_cam /= np.linalg.norm(d_cam, axis=-1, keepdims=True)
        return inv.translation, (d_cam @ inv.rotation.T).reshape(-1, 3)
    return _cached(("rays",) + _camera_key(cam), build)


def _ray_steps(grid: GridSpec):
    """Step length and the step distances t_i = (i+1)*step out to the grid
    diagonal plus 2 m."""
    z, h, w = grid.shape
    max_range = float(np.linalg.norm([w * grid.pitch, h * grid.pitch, z * grid.pitch])) + 2.0
    step = grid.pitch * RAY_STEP_FRACTION
    # compared, not divided: a subnormal pitch rounds step to 0
    require(max_range < np.inf and max_range <= MAX_RAY_STEPS * step,
            f"grid pitch {grid.pitch!r} needs an infinite range or more than "
            f"{MAX_RAY_STEPS} ray steps")
    n_steps = int(np.ceil(max_range / step))
    return step, (np.arange(n_steps, dtype=FLOAT) + 1.0) * step


# metres added to every box face in the slab test; it covers the roundoff of
# a step point's local coordinates, so a window never misses a point that
# the element's own contains() would accept
_SLAB_SLACK = 1e-9


def _slab_steps(origin, dirs, half, step: float, n_steps: int):
    """Step range [lo, hi) of each ray that holds every step point
    t_i = (i+1)*step of origin + t*dirs inside the box |x| <= half.

    origin (3,) and dirs (P, 3) are in the box's local frame. The range is
    widened by one step on each side and clipped to [0, n_steps].
    The three axes are combined column by column with np.maximum,
    np.minimum and |: exact, and far cheaper than reducing over axis 1.
    """
    half = half + _SLAB_SLACK
    parallel = dirs == 0.0
    safe = np.where(parallel, 1.0, dirs)
    # a tiny component gives a huge or infinite t, and t/step may overflow
    # too: either way there is no bound, and the clip below is exact
    with np.errstate(over="ignore"):
        t_a = (-half - origin) / safe
        t_b = (half - origin) / safe
        enter = np.where(parallel, -np.inf, np.minimum(t_a, t_b))
        leave = np.where(parallel, np.inf, np.maximum(t_a, t_b))
        t_in = np.maximum(np.maximum(enter[:, 0], enter[:, 1]), enter[:, 2])
        t_out = np.minimum(np.minimum(leave[:, 0], leave[:, 1]), leave[:, 2])
        # i = t/step - 1 on the range's ends, then one step of slack each side
        i_in, i_out = t_in / step, t_out / step
    lo = np.clip(np.ceil(i_in) - 2.0, 0, n_steps).astype(np.int64)
    hi = np.clip(np.floor(i_out) + 1.0, 0, n_steps).astype(np.int64)
    stuck = parallel & (np.abs(origin) > half)
    blocked = stuck[:, 0] | stuck[:, 1] | stuck[:, 2]
    return lo, np.where(blocked, lo, hi)


def _window(lo, hi):
    """(ray, step) index pairs of steps lo[p] <= i < hi[p] of every ray,
    ray-major with steps ascending."""
    count = np.maximum(hi - lo, 0)
    ray = np.repeat(np.arange(lo.size), count)
    start = np.cumsum(count) - count
    return ray, np.arange(ray.size) - np.repeat(start - lo, count)


# relative margin of an element's bounding sphere in the ray pre-test: the
# radius grows by this share of (1 m + the sphere's distance), far above the
# roundoff of the test and of contains() at that distance
_CULL_MARGIN = 1e-6


def _rays_near(origin, dirs, center, radius: float, reach: float):
    """Indices of the rays (origin, dirs) that pass within `radius` (plus
    the margin) of `center` no farther than `reach` from the origin: every
    ray with a step point in an element bounded by that sphere.

    A unit ray meets the sphere ahead of its origin, which lies at distance
    D from the center, iff d.(c - o) >= sqrt(D^2 - r^2). Distances go
    through hypot and the square root is split, so no finite input
    overflows."""
    to_center = center - origin
    dist = math.hypot(*to_center)
    r = radius + _CULL_MARGIN * (1.0 + dist)
    if dist <= r:                            # the origin is inside the sphere
        return np.arange(dirs.shape[0])
    if dist - r > reach:                     # the sphere is past the last step
        return np.arange(0)
    return np.flatnonzero(dirs @ to_center >= math.sqrt(dist - r) * math.sqrt(dist + r))


def _march(scene: SceneSpec, elements, origin, dirs):
    """First-hit march for every pixel ray (origin, dirs) from `_ray_grid`
    against `elements`, the list from `scene.elements_in_frame`.

    Ray p takes steps t_i = (i+1)*step, and its first hit is the first step
    point inside any element. Each element first keeps the rays that pass
    within its bounding sphere before the last step (`_rays_near`); an
    element behind the camera or beyond the march range keeps none and is
    skipped. A slab test in the element's local frame then bounds the steps
    of the kept rays that can fall inside it, a window that ends at the ray's
    current first hit. The window is walked from its start in chunks of 3,
    6, 12, ... steps: each chunk's points (origin + ts[i]*dirs[p]) are built
    and tested with the element's own contains, and a ray leaves the walk at
    its first inside step or when its window runs out. A ray that enters the
    element is inside within a step or two of its window's start, so most
    rays leave after the first chunk. Steps are tested in ascending order, so
    every output equals the march over all rays and steps. The element that
    last lowers a ray's first hit owns it and gives its class: an earlier
    element holding that point would have set it already, as its window
    covered the step and the first hit only falls.

    Returns (hit (P,), first (P,), hit_points_ego (P, 3), hit_class_index (P,))
    where P = width*height in row-major pixel order, first is the hit's step
    index (the step count for a miss) and class indices are 0-based rows
    into the class table.
    """
    step, ts = _ray_steps(scene.grid)
    n_steps = ts.size
    first = np.full(dirs.shape[0], n_steps, dtype=np.int64)
    class_idx = np.full(dirs.shape[0], -1, dtype=np.int64)
    for box in elements:
        rot, trans = box.pose.rotation, box.pose.translation
        rays = _rays_near(origin, dirs, trans, math.hypot(*box.size) / 2.0, ts[-1])
        if rays.size == 0:
            continue
        lo, hi = _slab_steps((origin - trans) @ rot, dirs[rays] @ rot, box.size / 2.0, step,
                             n_steps)
        hi = np.minimum(hi, first[rays])
        cls = scene.class_ids.index(box.category)
        chunk = 3
        while rays.size:
            end = np.minimum(lo + chunk, hi)
            k, i = _window(lo, end)
            ray = rays[k]
            inside = box.contains(origin + ts[i, None] * dirs[ray])
            ray, i = ray[inside], i[inside]
            lead = np.flatnonzero(np.diff(ray, prepend=-1))   # each ray's earliest step
            first[ray[lead]] = i[lead]
            class_idx[ray[lead]] = cls
            walking = end < hi
            walking[k[inside]] = False
            rays, lo, hi = rays[walking], end[walking], hi[walking]
            chunk *= 2

    hit = first < n_steps
    hit_points = origin[None, :] + ts[np.minimum(first, n_steps - 1), None] * dirs
    hit_points = np.where(hit[:, None], hit_points, 0.0)
    return hit, first, hit_points, class_idx


def _grid_steps(grid: GridSpec, origin, dirs):
    """(ray, step, voxel) of every step point of the rays (origin, dirs)
    that falls in the grid, ray-major with steps ascending; voxel is the
    flat index into the (Z, H, W) grid. The slab window of the grid's box
    holds every such point."""
    step, ts = _ray_steps(grid)
    z, h, w = grid.shape
    half = np.array([w, h, z], dtype=FLOAT) * grid.pitch / 2.0
    lo, hi = _slab_steps(origin - grid.origin - half, dirs, half, step, ts.size)
    ray, i = _window(lo, hi)
    t = ts[i]
    # the voxel of each point, one axis at a time
    cells = [np.floor((origin[c] + t * dirs[ray, c] - grid.origin[c]) / grid.pitch)
             for c in range(3)]
    ok = ((cells[0] >= 0) & (cells[0] < w) & (cells[1] >= 0) & (cells[1] < h)
          & (cells[2] >= 0) & (cells[2] < z))
    x, y, zz = (cell[ok].astype(np.int64) for cell in cells)
    return ray[ok], i[ok], (zz * h + y) * w + x


def _voxel_runs(cam: CameraModel, grid: GridSpec):
    """(ray, start, voxel) of each run: a stretch of one ray's consecutive
    in-grid step points in one voxel, starting at step `start`. The ray
    observes the voxel iff start <= its first hit. Read-only, built on the
    first call for the camera's and grid's values and reused after."""
    def build():
        ray, i, voxel = _grid_steps(grid, *_ray_grid(cam))
        new = np.ones(ray.size, dtype=bool)
        new[1:] = (ray[1:] != ray[:-1]) | (i[1:] != i[:-1] + 1) | (voxel[1:] != voxel[:-1])
        fits = max(cam.width * cam.height, math.prod(grid.shape)) < 2**31
        return tuple(a[new].astype(np.int32 if fits else np.int64) for a in (ray, i, voxel))
    key = ("runs",) + _camera_key(cam) + (
        grid.shape, np.array([grid.pitch], dtype=FLOAT).tobytes(), grid.origin.tobytes())
    return _cached(key, build)


def _render(scene: SceneSpec, frame: int, cam: CameraModel, elements):
    """(FeatureMap, each ray's first-hit step) of one march of the camera's
    rays through the frame's elements; misses are zero."""
    hit, first, hit_points, class_idx = _march(scene, elements, *_ray_grid(cam))
    data = np.zeros((cam.height * cam.width, scene.feature_channels), dtype=FLOAT)
    world_pts = scene.ego_trajectory[frame].apply(hit_points[hit])
    anchor_pts = scene.feature_anchor.inverse().apply(world_pts)
    data[hit] = scene.basis().features(class_idx[hit], anchor_pts)
    return FeatureMap(data.reshape(cam.height, cam.width, scene.feature_channels)), first


def render_camera_features(scene: SceneSpec, frame: int, cam_index: int) -> FeatureMap:
    """Render one camera's feature image for a frame; misses are zero."""
    require(0 <= cam_index < len(scene.cameras), "camera index out of range")
    return _render(scene, frame, scene.cameras[cam_index], scene.elements_in_frame(frame))[0]


def render_all_cameras(scene: SceneSpec, frame: int):
    """Every camera's `render_camera_features`, from one element list."""
    elements = scene.elements_in_frame(frame)
    return [_render(scene, frame, cam, elements)[0] for cam in scene.cameras]


def observe(scene: SceneSpec, frame: int):
    """(feature maps, (Z, H, W) visibility) from one march per camera.

    A voxel is observed by any camera whose ray traverses it free or hits in
    it: one scatter per camera of the voxels of its runs (`_voxel_runs`)
    that start no later than their ray's first hit. The rig and the grid
    live in the ego frame, so each camera's rays and runs are the same on
    every frame; a process's first frame of a rig pays for building them.
    """
    grid = scene.grid
    observed = np.zeros(grid.shape, dtype=bool)
    features = []
    elements = scene.elements_in_frame(frame)
    for cam in scene.cameras:
        feature_map, first = _render(scene, frame, cam, elements)
        features.append(feature_map)
        ray, start, voxel = _voxel_runs(cam, grid)
        observed.reshape(-1)[voxel[start <= first[ray]]] = True
    return features, observed


def scene_ground_truth(scene: SceneSpec, frame: int, flow_mode: str = "occupancy-flow"):
    """(labels, FlowField) on the ego-frame grid at `frame`.

    Labels: 0 = free, otherwise the class id of the occupying element. The
    flow field labels every box voxel, giving a voxel inside several boxes to
    the nearest box center (ties to the lower track id, as the boxes are
    visited in ascending id); the statics label the rest, the earliest of
    `scene.elements_in_frame` winning. Flow lives on box voxels; frame 0 has
    no predecessor so all flow is zero there. The field's foreground classes
    are the scene's, whichever boxes the frame holds.
    """
    grid = scene.grid
    elements = scene.elements_in_frame(frame)
    present = [box for box in scene.boxes if frame in box.poses]
    centers = grid.voxel_centers().reshape(-1, 3)
    labels = np.zeros(centers.shape[0], dtype=np.int64)
    for el in reversed(elements[len(present):]):
        labels[el.contains(centers)] = el.category
    labels = labels.reshape(grid.shape)

    inv = scene.ego_trajectory[frame].inverse()
    ego_boxes = []
    for box, el in zip(present, elements):
        poses = {frame: el.pose}
        if frame - 1 in box.poses:
            poses[frame - 1] = inv.compose(box.poses[frame - 1])
        ego_boxes.append(TrackedBox(box.track_id, box.category, box.size, poses))
    flow = generate_flow_field(ego_boxes, frame, grid, scene.frame_dt, mode=flow_mode)
    labels[flow.occupied] = flow.category[flow.occupied]
    flow.foreground_classes = tuple(sorted(scene.foreground_class_ids))
    return labels, flow


def rotated_about_z(scene: SceneSpec, alpha: float) -> SceneSpec:
    """Jointly rotate scene content and rig by alpha about the ego z-axis.

    Content poses are left-composed with the rotation, the feature anchor
    rotates with the content (so surface features follow it), and camera
    extrinsics are right-composed with the inverse rotation. Requires an
    identity ego trajectory; rendered images are then identical up to
    floating-point roundoff while every ego-frame direction turns by alpha.
    """
    for pose in scene.ego_trajectory:
        require(np.allclose(pose.rotation, np.eye(3), atol=1e-15)
                and np.allclose(pose.translation, 0.0, atol=1e-15),
                "rotated_about_z requires an identity ego trajectory")
    rot = Pose.from_z_rotation(alpha)
    rot_inv = rot.inverse()
    return replace(
        scene,
        name=f"{scene.name}@rot{alpha:.3f}",
        cameras=[replace(cam, extrinsics=cam.extrinsics.compose(rot_inv))
                 for cam in scene.cameras],
        statics=[replace(s, pose=rot.compose(s.pose)) for s in scene.statics],
        boxes=[replace(b, poses={f: rot.compose(p) for f, p in b.poses.items()})
               for b in scene.boxes],
        feature_anchor=rot.compose(scene.feature_anchor),
    )


# ---------------------------------------------------------------------------
# rigs and scene presets


def build_rig(kind: str = "surround6", fov_deg: float = 55.0, width: int = 48,
              height: int = 36, mount_height: float = 1.5):
    """Camera rigs: mono1 (one forward camera), stereo2 (forward pair),
    surround6 (60-degree yaw increments)."""
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    fx = cx / np.tan(np.radians(fov_deg) / 2.0)
    axes = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

    def camera(yaw: float, position, name: str) -> CameraModel:
        rot = axes @ rotation_z(yaw).T
        trans = -rot @ np.asarray(position, dtype=FLOAT)
        return CameraModel(fx=fx, fy=fx, cx=cx, cy=cy, width=width, height=height,
                           extrinsics=Pose(rot, trans), name=name)

    if kind == "mono1":
        return [camera(0.0, (0.0, 0.0, mount_height), "front")]
    if kind == "stereo2":
        return [camera(0.0, (0.0, 0.3, mount_height), "left"),
                camera(0.0, (0.0, -0.3, mount_height), "right")]
    if kind == "surround6":
        # Cameras sit on a 0.4 m ring, each displaced along its own viewing
        # direction, so neighbouring views have a real baseline between them.
        ring = 0.4
        return [camera(np.radians(60.0 * i),
                       (ring * np.cos(np.radians(60.0 * i)),
                        ring * np.sin(np.radians(60.0 * i)),
                        mount_height), f"cam{i}")
                for i in range(6)]
    raise ContractViolation(f"unknown rig kind {kind!r}")


_DEFAULT_CLASSES = [
    SceneClass(1, "ground", foreground=False),
    SceneClass(2, "wall", foreground=False),
    SceneClass(3, "mover", foreground=True),
]


def _desk_grid() -> GridSpec:
    """20 x 20 cells of 0.4 m, 4 high."""
    return GridSpec((4, 20, 20), 0.4, (-4.0, -4.0, -0.4))


def _ground(extent_x: float = 7.9, extent_y: float = 7.9) -> StaticElement:
    return StaticElement(1, (extent_x, extent_y, 0.38),
                         Pose(np.eye(3), (0.03, -0.05, -0.19)))


def _wall(x: float, y: float, yaw: float, length: float) -> StaticElement:
    """A 1.1 m high, 0.24 m thick wall standing on z = 0."""
    return StaticElement(2, (length, 0.24, 1.1), Pose.from_z_rotation(yaw, (x, y, 0.55)))


def _training_scene(seed: int) -> SceneSpec:
    """Three-frame desk scene with content concentrated at frustum boundaries.

    The surround rig uses a 55-degree fov on 60-degree spacing, leaving thin
    azimuth wedges that no camera sees. Every wall runs tangentially across a
    wedge and both movers cross one, so image evidence near the boundaries
    rewards strategies that can draw on the neighboring camera.
    """
    frames = 3
    dt = 0.5
    ego = [Pose.from_z_rotation(0.03 * f, (0.12 * f, 0.05 * f, 0.0)) for f in range(frames)]
    boxes = []
    # mover A tracks the gap between cam0 and cam1 (ego azimuth near 30 deg)
    poses_a = {}
    for f in range(frames):
        az = np.radians(27.0 + 3.0 * f)
        local = np.array([2.8 * np.cos(az), 2.8 * np.sin(az), 0.42])
        poses_a[f] = ego[f].compose(Pose.from_z_rotation(az + 0.2, local))
    boxes.append(TrackedBox(1, 3, (0.9, 0.7, 0.84), poses_a))
    # mover B turns while crossing the cam4/cam5 gap (azimuth near -90 deg)
    poses_b = {}
    for f in range(frames):
        yaw = 0.65 * f * dt
        poses_b[f] = Pose.from_z_rotation(yaw, (0.25 * (f - 1), -2.65, 0.36))
    boxes.append(TrackedBox(2, 3, (1.15, 0.6, 0.72), poses_b))
    # mover C sweeps across the cam2/cam3 gap (azimuth near 150 deg)
    poses_c = {}
    for f in range(frames):
        az = np.radians(147.0 + 3.0 * f)
        local = np.array([2.6 * np.cos(az), 2.6 * np.sin(az), 0.45])
        poses_c[f] = ego[f].compose(Pose.from_z_rotation(az - 0.3, local))
    boxes.append(TrackedBox(3, 3, (1.0, 0.8, 0.9), poses_c))
    # three long walls, each running tangentially across a frustum gap
    walls = []
    for r, az_deg, skew, length in ((3.15, 30.0, 2.0, 2.6),
                                    (3.05, 90.0, 3.0, 2.4),
                                    (2.9, -150.0, -1.0, 2.6)):
        az = np.radians(az_deg)
        yaw = az + np.pi / 2.0 + np.radians(skew)
        walls.append(_wall(r * np.cos(az), r * np.sin(az), yaw, length))
    return SceneSpec(
        name="training", seed=seed, feature_channels=16, classes=list(_DEFAULT_CLASSES),
        grid=_desk_grid(), cameras=build_rig("surround6", fov_deg=55.0),
        ego_trajectory=ego, frame_dt=dt,
        statics=[_ground()] + walls,
        boxes=boxes,
    )


def _boundary_scene(seed: int) -> SceneSpec:
    """Two-frame scene for the cross-camera reach suite: 70-degree fov rig,
    content straddling the cam0/cam1 frustum boundary."""
    frames = 2
    ego = [Pose.identity() for _ in range(frames)]
    poses = {f: Pose.from_z_rotation(0.4, (2.95 * np.cos(np.radians(20.0)),
                                           2.95 * np.sin(np.radians(20.0)) + 0.12 * f, 0.38))
             for f in range(frames)}
    return SceneSpec(
        name="boundary", seed=seed, feature_channels=16, classes=list(_DEFAULT_CLASSES),
        grid=_desk_grid(), cameras=build_rig("surround6", fov_deg=70.0),
        ego_trajectory=ego, frame_dt=0.5,
        statics=[_ground(),
                 _wall(3.2 * np.cos(np.radians(30.0)), 3.2 * np.sin(np.radians(30.0)),
                       np.radians(120.0), 3.4),
                 _wall(3.3 * np.cos(np.radians(-5.0)), 3.3 * np.sin(np.radians(-5.0)),
                       np.radians(85.0), 2.8)],
        boxes=[TrackedBox(1, 3, (0.9, 0.7, 0.76), poses)],
    )


def _rotation_scene(seed: int) -> SceneSpec:
    """Single-frame identity-ego scene for the rotational-invariance suite."""
    return SceneSpec(
        name="rotation", seed=seed, feature_channels=12, classes=list(_DEFAULT_CLASSES),
        grid=GridSpec((4, 16, 16), 0.4, (-3.2, -3.2, -0.4)),
        cameras=build_rig("surround6", fov_deg=70.0),
        ego_trajectory=[Pose.identity()], frame_dt=0.5,
        statics=[_ground(6.2, 6.2),
                 _wall(2.45, 0.7, 0.55, 2.3),
                 _wall(-1.1, 2.3, -0.4, 1.9),
                 _wall(-2.2, -1.3, 1.05, 2.1)],
        boxes=[TrackedBox(1, 3, (0.8, 0.6, 0.7),
                          {0: Pose.from_z_rotation(0.9, (1.3, -1.7, 0.33))})],
    )


def _stream_scene(seed: int) -> SceneSpec:
    """Static world, ego translating one grid pitch per frame, twelve frames."""
    frames = 12
    ego = [Pose.from_z_rotation(0.0, (0.4 * f, 0.0, 0.0)) for f in range(frames)]
    return SceneSpec(
        name="stream", seed=seed, feature_channels=16, classes=list(_DEFAULT_CLASSES),
        grid=_desk_grid(), cameras=build_rig("surround6", fov_deg=55.0),
        ego_trajectory=ego, frame_dt=0.5,
        statics=[StaticElement(1, (16.0, 7.9, 0.38), Pose(np.eye(3), (2.4, 0.0, -0.19))),
                 _wall(1.7, 2.6, 0.12, 2.8),
                 _wall(3.9, -2.2, -0.9, 2.5),
                 _wall(6.3, 1.4, 0.7, 2.6)],
        boxes=[TrackedBox(1, 3, (0.9, 0.7, 0.7),
                          {f: Pose.from_z_rotation(0.25 * f, (1.6 + 0.3 * f, -1.2, 0.35))
                           for f in range(frames)})],
    )


# preset name -> builder(seed); the names, in this order, are the CLI's choices
SCENE_PRESETS = {"training": _training_scene, "boundary": _boundary_scene,
                 "rotation": _rotation_scene, "stream": _stream_scene}


def preset_scene(name: str, seed: int = 7) -> SceneSpec:
    """Named scene presets used by the verification harness and the CLI."""
    if name not in SCENE_PRESETS:
        raise ContractViolation(f"unknown scene preset {name!r}")
    return SCENE_PRESETS[name](seed)
