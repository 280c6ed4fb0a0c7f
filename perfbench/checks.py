"""Independent checks of viewocc outputs.

The render and flow checks recompute what they need from the scene
description itself (camera intrinsics and extrinsics, world poses, box
sizes) instead of calling the code path that produced the output, and return
a list of human-readable failures; an empty list means the output passed.

- `check_render`: a stepped first-hit search with its own oriented-box test.
- `check_flow`: a rigid-motion flow oracle built from the world poses.
- `directional_fd_error`: central finite differences of a loss along one
  direction against the analytic directional derivative; `last_frame_problem`
  supplies the loss and the gradients of `backward_frame`.
"""

from __future__ import annotations

import numpy as np

from viewocc import encoder, objective, temporal_stream

STEP_FRACTION = 0.25          # march step as a fraction of the grid pitch
RANGE_MARGIN = 2.0            # metres marched beyond the grid diagonal
FEATURE_TOL = 1e-12
FLOW_TOL = 1e-9
FD_TOL = 1e-4


def _inside(points, size, rotation, translation):
    """Inclusive membership of world points (N, 3) in an oriented box."""
    local = np.einsum("ij,ni->nj", rotation, points - translation)
    return np.all(np.abs(local) <= 0.5 * size, axis=1)


def _world_elements(scene, frame):
    """(size, rotation, translation, class id) in hit priority order:
    tracked boxes present at the frame, then static elements."""
    out = [(b.size, b.poses[frame].rotation, b.poses[frame].translation, b.category)
           for b in scene.boxes if frame in b.poses]
    out += [(s.size, s.pose.rotation, s.pose.translation, s.category) for s in scene.statics]
    return out


def _pixel_rays(scene, frame, cam, pixels):
    """World-frame origin (3,) and unit directions (N, 3) of pixels (N, 2) = (u, v)."""
    ego = scene.ego_trajectory[frame]
    rot_ce, t_ce = cam.extrinsics.rotation, cam.extrinsics.translation
    d_cam = np.stack([(pixels[:, 0] - cam.cx) / cam.fx, (pixels[:, 1] - cam.cy) / cam.fy,
                      np.ones(len(pixels))], axis=1)
    d_cam /= np.linalg.norm(d_cam, axis=1, keepdims=True)
    origin_ego = -rot_ce.T @ t_ce
    dirs_world = d_cam @ rot_ce @ ego.rotation.T
    return ego.rotation @ origin_ego + ego.translation, dirs_world


def first_hits(scene, frame, cam, pixels):
    """Stepped first-hit search: t_i = (i+1) * pitch/4 along each pixel ray,
    the first step inside any element wins; returns (hit (N,), world point
    (N, 3), class id (N,), 0 where nothing is hit)."""
    grid = scene.grid
    step = grid.pitch * STEP_FRACTION
    z, h, w = grid.shape
    reach = float(np.linalg.norm([w * grid.pitch, h * grid.pitch, z * grid.pitch])) + RANGE_MARGIN
    ts = (np.arange(int(np.ceil(reach / step))) + 1.0) * step
    origin, dirs = _pixel_rays(scene, frame, cam, pixels)
    pts = origin + ts[None, :, None] * dirs[:, None, :]             # (N, T, 3)
    flat = pts.reshape(-1, 3)
    inside = np.zeros(flat.shape[0], dtype=bool)
    for size, rot, trans, _ in _world_elements(scene, frame):
        inside |= _inside(flat, size, rot, trans)
    inside = inside.reshape(pts.shape[:2])
    hit = inside.any(axis=1)
    first = inside.argmax(axis=1)
    point = pts[np.arange(len(pixels)), first]
    cls = np.zeros(len(pixels), dtype=np.int64)
    for size, rot, trans, category in reversed(_world_elements(scene, frame)):
        cls[hit & _inside(point, size, rot, trans)] = category
    return hit, point, cls


def expected_features(scene, hit, point, cls):
    """The scene's surface feature at each hit point; zeros for misses."""
    anchor = scene.feature_anchor
    out = np.zeros((len(hit), scene.feature_channels))
    if hit.any():
        local = (point[hit] - anchor.translation) @ anchor.rotation
        rows = np.array([scene.class_ids.index(int(c)) for c in cls[hit]], dtype=np.int64)
        out[hit] = scene.basis().features(rows, local)
    return out


def sample_pixels(cam, rng, count):
    """`count` distinct (u, v) integer pixels of a camera, drawn from rng."""
    flat = rng.choice(cam.width * cam.height, size=count, replace=False)
    return np.stack([flat % cam.width, flat // cam.width], axis=1)


def check_render(scene, frame, maps, rng, per_camera=48):
    """Rendered (H, W, C) maps, one per camera, against first_hits at a
    seeded sample of pixels of every camera."""
    errors = []
    for j, cam in enumerate(scene.cameras):
        data = np.asarray(maps[j])
        if data.shape != (cam.height, cam.width, scene.feature_channels):
            errors.append(f"frame {frame} cam {j}: map shape {data.shape}")
            continue
        pixels = sample_pixels(cam, rng, per_camera)
        hit, point, cls = first_hits(scene, frame, cam, pixels)
        want = expected_features(scene, hit, point, cls)
        got = data[pixels[:, 1], pixels[:, 0]]
        miss_bad = np.any(got[~hit] != 0.0, axis=1)
        if miss_bad.any():
            errors.append(f"frame {frame} cam {j}: {int(miss_bad.sum())} missed pixels "
                          "are not zero")
        if hit.any():
            err = float(np.max(np.abs(got[hit] - want[hit])))
            if not err <= FEATURE_TOL:
                errors.append(f"frame {frame} cam {j}: feature error {err:.3g} at hit pixels")
    return errors


def _voxel_centers_world(scene, frame):
    grid = scene.grid
    z, h, w = grid.shape
    zz, yy, xx = np.meshgrid(*((np.arange(n) + 0.5) * grid.pitch for n in (z, h, w)),
                             indexing="ij")
    ego_pts = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3) + grid.origin
    ego = scene.ego_trajectory[frame]
    return ego_pts @ ego.rotation.T + ego.translation


def flow_oracle(scene, frame, mode):
    """(occupied (Z,H,W), category (Z,H,W), flow (Z,H,W,3)) from rigid motion.

    A voxel belongs to the tracked box whose centre is nearest among the
    boxes containing it (ties to the lower track id). Its world position one
    frame earlier is prev_pose . pose^-1 applied to it ("occupancy-flow"),
    or the box centre moves ("object-flow"); the backward difference over
    frame_dt is rotated into the ego frame of `frame`.
    """
    centers = _voxel_centers_world(scene, frame)
    n = len(centers)
    best = np.full(n, np.inf)
    owner = np.full(n, -1)
    boxes = sorted((b for b in scene.boxes if frame in b.poses), key=lambda b: b.track_id)
    for i, box in enumerate(boxes):
        pose = box.poses[frame]
        dist = np.linalg.norm(centers - pose.translation, axis=1)
        take = _inside(centers, box.size, pose.rotation, pose.translation) & (dist < best)
        best[take] = dist[take]
        owner[take] = i
    category = np.zeros(n, dtype=np.int64)
    flow = np.zeros((n, 3))
    ego_rot = scene.ego_trajectory[frame].rotation
    for i, box in enumerate(boxes):
        sel = owner == i
        category[sel] = box.category
        prev = box.poses.get(frame - 1)
        if prev is None or not sel.any():
            continue
        pose = box.poses[frame]
        if mode == "occupancy-flow":
            local = (centers[sel] - pose.translation) @ pose.rotation
            moved = centers[sel] - (local @ prev.rotation.T + prev.translation)
        else:
            moved = np.broadcast_to(pose.translation - prev.translation, (int(sel.sum()), 3))
        flow[sel] = (moved / scene.frame_dt) @ ego_rot
    shape = scene.grid.shape
    return owner.reshape(shape) >= 0, category.reshape(shape), flow.reshape(shape + (3,))


def check_flow(scene, frame, mode, arrays):
    """gen-flow blob arrays (occupied, category, flow, labels) against the oracle."""
    occupied, category, flow = flow_oracle(scene, frame, mode)
    errors = []
    if arrays["flow"].shape != flow.shape:
        return [f"frame {frame} {mode}: flow shape {arrays['flow'].shape}"]
    if not np.array_equal(arrays["occupied"], occupied):
        errors.append(f"frame {frame} {mode}: occupied voxels differ from the oracle "
                      f"({int(arrays['occupied'].sum())} vs {int(occupied.sum())})")
    if not np.array_equal(arrays["category"], category):
        errors.append(f"frame {frame} {mode}: voxel categories differ from the oracle")
    if np.any(arrays["labels"][occupied] != category[occupied]):
        errors.append(f"frame {frame} {mode}: labels of mover voxels differ from the oracle")
    if np.any(arrays["flow"][~occupied] != 0.0):
        errors.append(f"frame {frame} {mode}: non-zero flow off the mover voxels")
    if occupied.any():
        err = float(np.max(np.abs(arrays["flow"][occupied] - flow[occupied])))
        if not err <= FLOW_TOL:
            errors.append(f"frame {frame} {mode}: flow error {err:.3g}")
    if frame == 0 and np.any(arrays["flow"] != 0.0):
        errors.append(f"frame 0 {mode}: flow is not zero")
    return errors


def directional_fd_error(arrays, grads, loss_at, rng, eps=1e-6):
    """Relative error between sum_i <grads[i], d_i> and the central difference
    (loss(theta + eps d) - loss(theta - eps d)) / (2 eps) along a seeded unit
    direction d. `arrays` maps names to the live parameter arrays that
    `loss_at()` reads; they are restored bit for bit afterwards."""
    direction = {name: rng.normal(size=arr.shape) for name, arr in arrays.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(float(np.sum(grads[name] * d)) for name, d in direction.items()) / norm
    saved = {name: arr.copy() for name, arr in arrays.items()}
    values = []
    for sign in (1.0, -1.0):
        for name, arr in arrays.items():
            np.copyto(arr, saved[name] + sign * eps * direction[name] / norm)
        values.append(loss_at())
    for name, arr in arrays.items():
        np.copyto(arr, saved[name])
    numeric = (values[0] - values[1]) / (2.0 * eps)
    return abs(numeric - analytic) / max(abs(analytic), abs(numeric), 1e-300)


def last_frame_problem(params, features, truth, scene, weights):
    """(analytic gradients, loss function) of the scene's last frame.

    The memory queue is built by running the earlier frames forward and is
    then held fixed, as training treats it; `loss_at()` re-evaluates
    forward_frame plus total_loss at the current parameter values."""
    rig, poses = scene.cameras, scene.ego_trajectory
    last = len(features) - 1
    queue = temporal_stream.MemoryQueue(params.config.queue_len)
    for f in range(last):
        res = encoder.forward_frame(params, features[f], rig, poses[f], queue)
        queue.push(temporal_stream.BEVGrid(res.fused.data.copy(), res.fused.pitch,
                                           res.fused.origin), poses[f])
    res = encoder.forward_frame(params, features[last], rig, poses[last], queue,
                                keep_cache=True)
    _, _, loss_grads = objective.total_loss(res.pred, truth[last], weights, with_grads=True)
    grads = encoder.backward_frame(params, res, features[last], rig, loss_grads)

    def loss_at():
        out = encoder.forward_frame(params, features[last], rig, poses[last], queue)
        return objective.total_loss(out.pred, truth[last], weights)[0]

    return grads, loss_at
