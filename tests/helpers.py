"""Shared test utilities: finite differences, tolerance helpers, a zero
gradient dict, the dense reference ray march, the one-pose-at-a-time pose
reader, the single-point view rotation, the single-camera and single-point
references, the dense rig projection and the unblocked aggregation core."""

import numpy as np

from viewocc.errors import ContractViolation, require
from viewocc.flow_annotation import FlowField, GridSpec, TrackedBox, generate_flow_field
from viewocc.blobio import number_entries
from viewocc.geometry import _DEPTH_EPS, CameraModel, Pose, rotation_z
from viewocc.numerics import FLOAT, FeatureMap, as_float_array, bilinear_valid, corner_indices
from viewocc.scene_sim import _SLAB_SLACK, RAY_STEP_FRACTION, SceneSpec
from viewocc.view_attention import SamplingPlan, _pixel_table, _scatter_rows, _stacked_maps


def rel_err(analytic: float, numeric: float, floor: float = 1e-6) -> float:
    """Relative error with an absolute floor so near-zero pairs compare sanely."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def central_diff(fn, arr: np.ndarray, index, eps: float = 1e-6) -> float:
    """Two-sided difference of scalar fn w.r.t. one coordinate of arr, in place."""
    orig = arr[index]
    arr[index] = orig + eps
    hi = fn()
    arr[index] = orig - eps
    lo = fn()
    arr[index] = orig
    return (hi - lo) / (2.0 * eps)


def pick_coords(grad: np.ndarray, rng: np.random.Generator, top: int = 3, extra: int = 2):
    """Indices worth checking: the largest-magnitude entries plus random ones."""
    flat = np.abs(grad).ravel()
    order = np.argsort(flat)[::-1]
    coords = list(order[:top])
    nz = np.flatnonzero(flat > 1e-12)
    if nz.size:
        coords.extend(rng.choice(nz, size=min(extra, nz.size), replace=False).tolist())
    seen = set()
    out = []
    for c in coords:
        if c not in seen:
            seen.add(c)
            out.append(np.unravel_index(int(c), grad.shape))
    return out


def check_grad_array(fn, arr: np.ndarray, grad: np.ndarray, rng: np.random.Generator,
                     eps: float = 1e-6, tol: float = 1e-4, top: int = 3, extra: int = 2):
    """Compare analytic grad against central differences at selected coords.

    Returns the worst relative error seen; raises AssertionError past tol.
    """
    worst = 0.0
    for idx in pick_coords(grad, rng, top, extra):
        fd = central_diff(fn, arr, idx, eps)
        err = rel_err(float(grad[idx]), fd)
        worst = max(worst, err)
        assert err < tol, (f"gradient mismatch at {idx}: analytic {grad[idx]:.9g}, "
                           f"numeric {fd:.9g}, rel err {err:.3e}")
    return worst


def zero_grads(params) -> dict:
    """A gradient dict of zeros over every array of `params`."""
    return {name: np.zeros_like(arr) for name, arr in params.arrays()}


# --- single-camera and single-point references -------------------------------
# One camera or one point at a time, as the production code was first
# written; the batched versions (the dense `project_rig` below, and through it
# geometry.project_rig_sparse, project_rig_jacobian, the render) must agree
# with them. Reads through a sampling plan (the BEV warp, the attention
# layers) must equal the reference sampler `bilinear_many`.


def altitude_rotation(phi: float) -> np.ndarray:
    """Rotation about y that lifts the x-axis toward +z by phi."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]], dtype=FLOAT)


def view_angle(p) -> float:
    """Azimuth of p in (-pi, pi]; the origin maps to 0."""
    p = np.asarray(p, dtype=FLOAT)
    theta = float(np.arctan2(p[..., 1], p[..., 0]))
    if theta <= -np.pi:
        theta = np.pi
    return theta


def altitude_angle(p) -> float:
    """Altitude of p in [-pi/2, pi/2]; zero anywhere on the z = 0 plane except poles."""
    p = np.asarray(p, dtype=FLOAT)
    return float(np.arctan2(p[..., 2], np.hypot(p[..., 0], p[..., 1])))


def view_rotation(p, mode: str) -> np.ndarray:
    """Single-point reference for `geometry.view_rotations`: the rotation
    applied to offsets at reference point p for the given mode."""
    if mode == "one-dof":
        return rotation_z(view_angle(p))
    if mode == "two-dof":
        return rotation_z(view_angle(p)) @ altitude_rotation(altitude_angle(p))
    if mode == "ego":
        return np.eye(3, dtype=FLOAT)
    raise ContractViolation(f"unknown view-coordinate mode: {mode!r}")


def project_points(cam: CameraModel, points: np.ndarray):
    """Project ego-frame points (..., 3) through a camera.

    Returns (uv, depth, in_view). Behind-camera points report in_view False
    with uv pinned to zero; in-view requires depth > 0 and the pixel inside
    [0, width-1] x [0, height-1] (the bilinear validity box).
    """
    pts = np.asarray(points, dtype=FLOAT)
    q = cam.extrinsics.apply(pts)
    depth = q[..., 2]
    safe = depth > _DEPTH_EPS
    zdiv = np.where(safe, depth, 1.0)
    u = cam.fx * q[..., 0] / zdiv + cam.cx
    v = cam.fy * q[..., 1] / zdiv + cam.cy
    in_view = (safe & (u >= 0.0) & (u <= cam.width - 1.0)
               & (v >= 0.0) & (v <= cam.height - 1.0))
    u = np.where(safe, u, 0.0)
    v = np.where(safe, v, 0.0)
    uv = np.stack([u, v], axis=-1)
    return uv, depth, in_view


def project_rig(rig, points: np.ndarray):
    """Project ego-frame points (..., 3) through all J cameras of a rig at once,
    densely: the reference whose in-view entries `geometry.project_rig_sparse`
    must return bit for bit.

    Returns (uv (..., J, 2), camera-frame points (..., J, 3), in_view
    (..., J)). Points at depth <= 1e-12 are behind the camera: out of view,
    with uv pinned to zero. Camera j's depth is the camera-frame z.
    """
    pts = np.asarray(points, dtype=FLOAT)
    rot = np.concatenate([cam.extrinsics.rotation for cam in rig])          # (3J, 3)
    trans = np.concatenate([cam.extrinsics.translation for cam in rig])
    q = (pts.reshape(-1, 3) @ rot.T + trans).reshape(pts.shape[:-1] + (len(rig), 3))
    fx, fy, cx, cy, widths, heights = np.array(
        [(c.fx, c.fy, c.cx, c.cy, c.width, c.height) for c in rig], dtype=FLOAT).T
    depth = q[..., 2]
    safe = depth > _DEPTH_EPS
    zdiv = np.where(safe, depth, 1.0)
    u = fx * q[..., 0] / zdiv + cx
    v = fy * q[..., 1] / zdiv + cy
    in_view = safe & bilinear_valid(u, v, heights, widths)
    u[~safe] = 0.0
    v[~safe] = 0.0
    return np.stack([u, v], axis=-1), q, in_view


def project_jacobian(cam: CameraModel, points: np.ndarray) -> np.ndarray:
    """d(uv)/d(point) for ego-frame points (..., 3); returns (..., 2, 3).

    Only meaningful where depth > 0; behind-camera rows are zero.
    """
    pts = np.asarray(points, dtype=FLOAT)
    q = cam.extrinsics.apply(pts)
    depth = q[..., 2]
    safe = depth > _DEPTH_EPS
    z = np.where(safe, depth, 1.0)
    jac_cam = np.zeros(pts.shape[:-1] + (2, 3), dtype=FLOAT)
    jac_cam[..., 0, 0] = cam.fx / z
    jac_cam[..., 0, 2] = -cam.fx * q[..., 0] / (z * z)
    jac_cam[..., 1, 1] = cam.fy / z
    jac_cam[..., 1, 2] = -cam.fy * q[..., 1] / (z * z)
    jac = jac_cam @ cam.extrinsics.rotation
    return np.where(safe[..., None, None], jac, 0.0)


def pinhole_project(cam: CameraModel, p) -> tuple[np.ndarray, float, bool]:
    """Single-point projection; see project_points."""
    p = as_float_array(p, shape=(3,), name="p")
    uv, depth, in_view = project_points(cam, p)
    return uv, float(depth), bool(in_view)


def bilinear_many(data: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Bilinear sample a (H, W, C) array at broadcast arrays of (u, v).

    Returns (values, valid): values has shape u.shape + (C,), zeros where
    invalid; valid is boolean with u's shape.
    """
    height, width = data.shape[0], data.shape[1]
    u = np.asarray(u, dtype=FLOAT)
    v = np.asarray(v, dtype=FLOAT)
    valid = bilinear_valid(u, v, height, width)
    uc = np.where(valid, u, 0.0)
    vc = np.where(valid, v, 0.0)
    x0, y0, x1, y1, fx, fy = corner_indices(uc, vc, height, width)
    w00 = (1.0 - fx) * (1.0 - fy)
    w10 = fx * (1.0 - fy)
    w01 = (1.0 - fx) * fy
    w11 = fx * fy
    vals = (
        data[y0, x0] * w00[..., None]
        + data[y0, x1] * w10[..., None]
        + data[y1, x0] * w01[..., None]
        + data[y1, x1] * w11[..., None]
    )
    vals = np.where(valid[..., None], vals, 0.0)
    return vals, valid


def bilinear_sample(fmap: FeatureMap, uv) -> tuple[np.ndarray, bool]:
    """Sample one location from a feature map.

    Returns (value, valid): value is a (channels,) vector, zeros when the
    location falls outside [0, width-1] x [0, height-1].
    """
    uv = as_float_array(uv, shape=(2,), name="uv")
    vals, valid = bilinear_many(fmap.data, uv[0], uv[1])
    return vals, bool(valid)


def surface_feature(scene: SceneSpec, class_id: int, world_point) -> np.ndarray:
    """Feature emitted for a surface point of a given class (pre-sampling)."""
    ids = scene.class_ids
    require(class_id in ids, f"unknown class id {class_id}")
    anchor_pt = scene.feature_anchor.inverse().apply(as_float_array(world_point, shape=(3,)))
    return scene.basis().features(np.array([ids.index(class_id)]), anchor_pt[None, :])[0]


# --- dense reference ray march -----------------------------------------------
# The march as it was before the windowed rewrite: every pixel ray takes all
# of its steps t_i = (i+1)*step and every scene element tests every step
# point. Kept as the reference that scene_sim._march and scene_sim.observe
# must equal byte for byte; it shares no ray, membership or slab code (and
# no cached table) with them.


def box_membership(el, points):
    """Inclusive membership of points (..., 3) in element `el`, written
    independently of the production `contains`."""
    local = (np.asarray(points, dtype=FLOAT) - el.pose.translation) @ el.pose.rotation
    return np.all(np.abs(local) <= el.size / 2.0, axis=-1)


def slab_steps_reference(origin, dirs, half, step, n_steps):
    """scene_sim._slab_steps as first written, with reductions over the
    length-3 axis; the production version must return the same (lo, hi)."""
    half = half + _SLAB_SLACK
    parallel = dirs == 0.0
    safe = np.where(parallel, 1.0, dirs)
    with np.errstate(over="ignore"):
        t_a = (-half - origin) / safe
        t_b = (half - origin) / safe
        t_in = np.where(parallel, -np.inf, np.minimum(t_a, t_b)).max(axis=1)
        t_out = np.where(parallel, np.inf, np.maximum(t_a, t_b)).min(axis=1)
        i_in, i_out = t_in / step, t_out / step
    lo = np.clip(np.ceil(i_in) - 2.0, 0, n_steps).astype(np.int64)
    hi = np.clip(np.floor(i_out) + 1.0, 0, n_steps).astype(np.int64)
    blocked = (parallel & (np.abs(origin) > half)).any(axis=1)
    return lo, np.where(blocked, lo, hi)


def ray_grid_reference(cam: CameraModel):
    """scene_sim._ray_grid as first written, built afresh on every call:
    camera origin (3,) and per-pixel unit directions (P, 3) in the ego frame."""
    inv = cam.extrinsics.inverse()
    us, vs = np.meshgrid(np.arange(cam.width, dtype=FLOAT), np.arange(cam.height, dtype=FLOAT))
    d_cam = np.stack([(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones_like(us)],
                     axis=-1)
    d_cam /= np.linalg.norm(d_cam, axis=-1, keepdims=True)
    return inv.translation, (d_cam @ inv.rotation.T).reshape(-1, 3)


def _max_range(grid: GridSpec) -> float:
    z, h, w = grid.shape
    return float(np.linalg.norm([w * grid.pitch, h * grid.pitch, z * grid.pitch])) + 2.0


def dense_march(scene: SceneSpec, frame: int, cam: CameraModel):
    """First-hit march for every pixel.

    Returns (hit (P,), hit_points_ego (P, 3), hit_class_index (P,),
    steps_ego, before_hit_mask) where P = width*height in row-major pixel
    order, class indices are 0-based rows into the class table, and
    before_hit_mask flags the strictly-free step points for visibility.
    """
    elements = scene.elements_in_frame(frame)
    origin, dirs = ray_grid_reference(cam)
    step = scene.grid.pitch * RAY_STEP_FRACTION
    n_steps = int(np.ceil(_max_range(scene.grid) / step))
    ts = (np.arange(n_steps, dtype=FLOAT) + 1.0) * step
    pts = origin[None, None, :] + ts[None, :, None] * dirs[:, None, :]

    flat = pts.reshape(-1, 3)
    inside_any = np.zeros(flat.shape[0], dtype=bool)
    for el in elements:
        inside_any |= box_membership(el, flat)
    inside_any = inside_any.reshape(pts.shape[0], n_steps)

    hit = inside_any.any(axis=1)
    first = np.where(hit, inside_any.argmax(axis=1), n_steps)
    hit_points = origin[None, :] + ts[np.minimum(first, n_steps - 1), None] * dirs
    hit_points = np.where(hit[:, None], hit_points, 0.0)

    class_idx = np.full(pts.shape[0], -1, dtype=np.int64)
    ids = scene.class_ids
    if hit.any():
        hp = hit_points[hit]
        owner = np.full(hp.shape[0], -1, dtype=np.int64)
        for el in reversed(elements):
            inside = box_membership(el, hp)
            owner[inside] = ids.index(el.category)
        class_idx[hit] = owner

    before_hit = np.arange(n_steps)[None, :] < first[:, None]
    return hit, hit_points, class_idx, pts, before_hit


def grid_points(grid, points):
    """The rows of points (N, 3) whose voxel index falls inside the grid."""
    z, h, w = grid.shape
    idx = np.floor((points - grid.origin[None, :]) / grid.pitch).astype(np.int64)
    ok = ((idx[:, 0] >= 0) & (idx[:, 0] < w) & (idx[:, 1] >= 0) & (idx[:, 1] < h)
          & (idx[:, 2] >= 0) & (idx[:, 2] < z))
    return points[ok]


def dense_observe(scene, frame: int):
    """(feature maps, visibility) as the dense march's render and visibility
    passes computed them, from one dense march per camera."""
    grid = scene.grid
    z, h, w = grid.shape
    observed = np.zeros((z, h, w), dtype=bool)
    features = []
    for cam in scene.cameras:
        hit, hit_points, class_idx, pts, before_hit = dense_march(scene, frame, cam)
        data = np.zeros((cam.height * cam.width, scene.feature_channels), dtype=FLOAT)
        if hit.any():
            ego_pose = scene.ego_trajectory[frame]
            world_pts = ego_pose.apply(hit_points[hit])
            anchor_pts = scene.feature_anchor.inverse().apply(world_pts)
            data[hit] = scene.basis().features(class_idx[hit], anchor_pts)
        features.append(FeatureMap(data.reshape(cam.height, cam.width, scene.feature_channels)))
        free_pts = pts[before_hit]
        mark = free_pts if not hit.any() else np.concatenate([free_pts, hit_points[hit]])
        idx = np.floor((mark - grid.origin[None, :]) / grid.pitch).astype(np.int64)
        ok = ((idx[:, 0] >= 0) & (idx[:, 0] < w) & (idx[:, 1] >= 0) & (idx[:, 1] < h)
              & (idx[:, 2] >= 0) & (idx[:, 2] < z))
        idx = idx[ok]
        observed[idx[:, 2], idx[:, 1], idx[:, 0]] = True
    return features, observed


# --- pose reader reference -----------------------------------------------------


def pose_from_json_reference(obj: dict) -> Pose:
    """geometry.Pose.from_json as first written, one pose at a time, with each
    entry held to `blobio.number_entries` as it is looked up: the rotation
    converted, a wrongly sized one checked for non-finite entries before its
    reshape, then the translation, then `Pose`'s own checks."""
    rot = np.asarray(number_entries(obj["rotation"], "Pose.rotation"), dtype=FLOAT)
    if rot.size != 9:
        as_float_array(rot, name="Pose.rotation")
    return Pose(rot.reshape(3, 3), number_entries(obj["translation"], "Pose.translation"))


# --- ground-truth reference ----------------------------------------------------


def scene_ground_truth_reference(scene: SceneSpec, frame: int,
                                 flow_mode: str = "occupancy-flow"):
    """scene_sim.scene_ground_truth as first written: every element of the
    frame rasterized, earliest winning, then the flow field's labels copied
    over every box voxel."""
    grid = scene.grid
    centers = grid.voxel_centers().reshape(-1, 3)
    labels = np.zeros(centers.shape[0], dtype=np.int64)
    for el in reversed(scene.elements_in_frame(frame)):
        labels[el.contains(centers)] = el.category
    labels = labels.reshape(grid.shape)

    inv = scene.ego_trajectory[frame].inverse()
    ego_boxes = []
    for box in scene.boxes:
        poses = {}
        if frame in box.poses:
            poses[frame] = inv.compose(box.poses[frame])
            if frame - 1 in box.poses:
                poses[frame - 1] = inv.compose(box.poses[frame - 1])
            ego_boxes.append(TrackedBox(box.track_id, box.category, box.size, poses))
    flow = generate_flow_field(ego_boxes, frame, grid, scene.frame_dt, mode=flow_mode)
    labels[flow.occupied] = flow.category[flow.occupied]
    return labels, FlowField(grid=grid, flow=flow.flow, occupied=flow.occupied,
                             category=flow.category,
                             foreground_classes=tuple(scene.foreground_class_ids))


# --- unblocked aggregation core -------------------------------------------------
# view_attention.read_plan and deform_aggregate_backward as they were before
# the reads went block by block: every corner row of all E samples gathered
# at once. The blocked versions must equal them byte for byte.


def gather_samples_reference(plan: SamplingPlan, pixels: np.ndarray) -> np.ndarray:
    """The (E, C) bilinear reads of a plan's samples from the pixel table
    (sum H*W, C) of its source maps, stacked as `_pixel_table` stacks them."""
    return np.einsum("ce,cek->ek", plan.weights, pixels[plan.rows])


def read_plan_reference(plan: SamplingPlan, nq: int, maps, value_maps, output_maps):
    """Read the features through a plan of Q queries.

    maps: J arrays (H_j, W_j, C); value_maps (c_v x C) and output_maps
    (C_out x c_v) hold one AffineMap per head. With s the bilinear read of a
    valid sample,

        out[q] = sum_m [ W_m ( sum_{k,j valid} attn * (W'_m s + b'_m) ) + b_m ]

    Returns (out (Q, C_out), the value-mapped pixel table (sum H*W * M, c_v)
    whose row pixel * M + head holds a pixel's value under that head, the
    per-head sums (Q, M, c_v)).
    """
    m = len(value_maps)
    w_v, b_v = _stacked_maps(value_maps)
    w_o, b_o = _stacked_maps(output_maps)
    c_v = w_v.shape[1]
    # The bilinear weights of a valid sample sum to 1, so value-mapping every
    # pixel once and then sampling equals value-mapping every sample.
    table = _pixel_table(maps) @ w_v.reshape(m * c_v, -1).T + b_v.reshape(-1)
    table = table.reshape(-1, c_v)                 # row = pixel * M + head
    corners = table[plan.rows * m + plan.head]                       # (4, E, c_v)
    samples = np.einsum("ce,cev->ev", plan.weights, corners)
    head_out = _scatter_rows(plan.group, plan.attn[:, None] * samples, nq * m)
    head_out = head_out.reshape(nq, m, c_v)
    out = np.einsum("qmv,mcv->qc", head_out, w_o, optimize=True) + b_o.sum(axis=0)
    return out, table, head_out


def deform_aggregate_backward_reference(cache: dict, maps, value_maps, output_maps,
                                        g_out: np.ndarray, want_map_grads: bool = False) -> dict:
    """Gradients of sum(g_out * out) for `deform_aggregate`.

    Returns a dict with "attn", "u" and "v" per valid sample (E,), in plan
    order; the per-head stacks "value_w" (M, c_v, C), "value_b" (M, c_v),
    "out_w" (M, C_out, c_v) and "out_b" (M, C_out); and "maps", the
    per-source map gradients when asked for, else None.
    """
    plan = cache["plan"]
    head = plan.head
    nq, m = cache["valid"].shape[:2]
    w_v, _ = _stacked_maps(value_maps)
    w_o, _ = _stacked_maps(output_maps)
    c_v = w_v.shape[1]
    g_out = np.asarray(g_out, dtype=FLOAT)

    g_head = np.einsum("qc,mcv->qmv", g_out, w_o, optimize=True).reshape(nq * m, c_v)
    g_head = g_head[plan.group]                                      # (E, c_v)
    a = plan.attn
    # each corner's value rows, gathered from the table again
    dots = np.einsum("cev,ev->ce", cache["table"][plan.rows * m + head], g_head)   # (4, E)
    d00, d10, d01, d11 = dots
    fx, fy = plan.fx, plan.fy
    grads = {
        "attn": np.einsum("ce,ce->e", plan.weights, dots),
        "u": a * ((1.0 - fy) * (d10 - d00) + fy * (d11 - d01)),
        "v": a * ((1.0 - fx) * (d01 - d00) + fx * (d11 - d10)),
    }
    g_value = a[:, None] * g_head
    pixels = _pixel_table(maps)
    raw = gather_samples_reference(plan, pixels)
    by_head = [head == i for i in range(m)]
    grads["value_w"] = np.stack([g_value[h].T @ raw[h] for h in by_head])
    grads["value_b"] = np.stack([g_value[h].sum(axis=0) for h in by_head])
    grads["out_w"] = np.einsum("qc,qmv->mcv", g_out, cache["head_out"], optimize=True)
    grads["out_b"] = np.broadcast_to(g_out.sum(axis=0), (m, g_out.shape[1])).copy()
    grads["maps"] = None
    if want_map_grads:
        # corner-weighted g_value scattered onto the (pixel, head) grid, then
        # through the value maps
        weighted = plan.weights[..., None] * g_value                 # (4, E, c_v)
        grid = _scatter_rows((plan.rows * m + head).reshape(-1),
                             weighted.reshape(-1, c_v), pixels.shape[0] * m)
        g_pixels = grid.reshape(-1, m * c_v) @ w_v.reshape(m * c_v, -1)
        ends = np.cumsum([f.shape[0] * f.shape[1] for f in maps])[:-1]
        grads["maps"] = [g.reshape(f.shape) for g, f in zip(np.split(g_pixels, ends), maps)]
    return grads
