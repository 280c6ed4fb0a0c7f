"""Release gate: nine end-to-end checks, one test per numbered guarantee.

Each test pins a behavioral contract of the package at an explicit tolerance:

  01  analytic gradients match finite differences (100+ random instances)
  02  view attention is invariant under joint scene+rig rotation
  03  view attention reaches cameras the projection-first baseline cannot
  04  both attention variants collapse to the same single-sample operator
  05  flow annotation matches closed-form rigid-motion oracles
  06  BEV warping stays within the analytic interpolation bound; FIFO depth
  07  metric and Lovasz values match definition-based oracles exactly
  08  seeded 200-epoch training run: loss halves and view attention wins
  09  the CLI is byte-deterministic and queue save/load is transparent

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line each.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import viewocc
from viewocc.flow_annotation import GridSpec, TrackedBox, BEVFlowField, generate_flow_field
from viewocc.geometry import Pose, rotation_z
from viewocc.harness import compare_methods
from viewocc.numerics import FeatureMap
from viewocc.objective import (cross_entropy, focal_loss, iou_geo, l1_flow,
                               lovasz_softmax, mave, miou)
from viewocc.scene_sim import build_rig, preset_scene, render_all_cameras, rotated_about_z
from viewocc.temporal_stream import (BEVGrid, MemoryQueue, init_temporal_params,
                                     temporal_backward_arrays, temporal_forward_arrays,
                                     warp_bev)
from viewocc.view_attention import (QueryContext, attn_forward_batch, camera_coverage,
                                    init_proj_first_params, init_view_attn_params,
                                    projection_first_forward, view_attn_backward,
                                    view_attn_forward)

from helpers import check_grad_array, project_rig

GRAD_TOL = 1e-4


# -- 01: gradient suite -------------------------------------------------------

def _generic_lattice_positions(uv: np.ndarray) -> bool:
    """True when no sample sits within 1e-3 of an integer pixel line.

    Bilinear sampling is piecewise linear with kinks on the integer lattice
    (cell transitions and the validity border alike), so finite differences
    are only trustworthy at generic positions.
    """
    return float(np.min(np.abs(uv - np.round(uv)))) > 1e-3


def _spatial_instance(seed: int):
    """One random view-attention problem with generic sample positions."""
    for salt in range(10):
        rng = np.random.default_rng(seed + 7919 * salt)
        heads = int(rng.choice([1, 2]))
        points = int(rng.choice([1, 2, 3]))
        kind, cams = rng.choice([("mono1", 1), ("stereo2", 2), ("surround6", 3)])
        cams = int(cams)
        rig = build_rig(kind, fov_deg=float(rng.uniform(50, 80)),
                        width=int(rng.integers(6, 10)), height=int(rng.integers(5, 9)))[:cams]
        channels = heads * int(rng.choice([4, 6]))
        params = init_view_attn_params(rng, channels, heads, points, cams)
        params.offset_head.weight += rng.normal(scale=0.4, size=params.offset_head.weight.shape)
        params.offset_head.bias += rng.normal(scale=0.3, size=params.offset_head.bias.shape)
        params.logit_head.weight += rng.normal(scale=0.5, size=params.logit_head.weight.shape)
        params.logit_head.bias += rng.normal(scale=0.3, size=params.logit_head.bias.shape)
        feats = [FeatureMap(rng.normal(size=(cam.height, cam.width, channels)))
                 for cam in rig]
        az = rng.uniform(-0.35, 0.35) if kind != "surround6" else rng.uniform(0.0, 2.1)
        r = rng.uniform(1.8, 3.2)
        ref = np.array([r * np.cos(az), r * np.sin(az), rng.uniform(0.3, 1.4)])
        q = rng.normal(size=channels)
        mode = "one-dof" if seed % 2 == 0 else "two-dof"
        _, cache = attn_forward_batch(q[None], ref[None], params, feats, rig, mode,
                                      keep_cache=True)
        if (_generic_lattice_positions(project_rig(rig, cache["points"])[0])
                and cache["valid"].any()):
            return rng, params, feats, rig, q, ref, mode
    raise AssertionError("could not find a generic spatial instance")


def _check_spatial_gradients(seed: int) -> None:
    rng, params, feats, rig, q, ref, mode = _spatial_instance(seed)
    up = rng.normal(size=q.size)

    def loss() -> float:
        out, _ = attn_forward_batch(q[None], ref[None], params, feats, rig, mode)
        return float(out[0] @ up)

    grads = view_attn_backward(QueryContext(q.copy(), ref), params, feats, rig, up, mode)
    checks = [
        (params.offset_head.weight, grads["offset_head.weight"]),
        (params.logit_head.weight, grads["logit_head.weight"]),
        (params.value_maps[0].weight, grads["value_maps.0.weight"]),
        (params.output_maps[-1].weight, grads[f"output_maps.{len(params.output_maps)-1}.weight"]),
        (q, grads["query"]),
        (feats[0].data, grads["features.0"]),
    ]
    for arr, grad in checks:
        check_grad_array(loss, arr, grad, rng, tol=GRAD_TOL)


def _check_temporal_gradients(seed: int) -> None:
    for salt in range(10):
        rng = np.random.default_rng(10_000 + seed + 104_729 * salt)
        channels = int(rng.choice([6, 8]))
        points = int(rng.choice([1, 2, 3]))
        levels = int(rng.choice([1, 2, 3]))
        h, w = int(rng.integers(5, 9)), int(rng.integers(5, 9))
        params = init_temporal_params(rng, channels, points, levels)
        for name in ("offset_head", "logit_head"):
            m = getattr(params, name)
            m.weight += rng.normal(scale=0.3, size=m.weight.shape)
            m.bias += rng.normal(scale=0.3, size=m.bias.shape)
        used = max(1, levels - (seed % 2))
        current = rng.normal(size=(h, w, channels))
        warped = rng.normal(size=(used, h, w, channels))
        _, cache = temporal_forward_arrays(current, warped, params, keep_cache=True)
        uv = np.stack([cache["u"], cache["v"]])
        if _generic_lattice_positions(uv):
            break
    else:
        raise AssertionError("could not find a generic temporal instance")
    up = rng.normal(size=(h, w, channels))

    def loss() -> float:
        out, _ = temporal_forward_arrays(current, warped, params)
        return float(np.sum(out * up))

    grads, g_current = temporal_backward_arrays(cache, params, up)
    for name in ("offset_head", "logit_head", "value_map", "output_map", "feed_forward"):
        check_grad_array(loss, getattr(params, name).weight,
                         grads[f"{name}.weight"], rng, tol=GRAD_TOL)
    check_grad_array(loss, current, g_current, rng, tol=GRAD_TOL)


def _check_focal_gradient(seed: int) -> None:
    rng = np.random.default_rng(20_000 + seed)
    logits = rng.normal(scale=2.0, size=(int(rng.integers(3, 7)), int(rng.integers(2, 5))))
    labels = rng.integers(0, 2, size=logits.shape).astype(float)
    gamma = float(rng.choice([0.0, 1.5, 2.0, 3.0]))
    alpha = [None, 0.25, 0.5, 0.75][seed % 4]
    _, grad = focal_loss(logits, labels, gamma, alpha, with_grad=True)
    check_grad_array(lambda: focal_loss(logits, labels, gamma, alpha),
                     logits, grad, rng, tol=GRAD_TOL)


def _check_ce_gradient(seed: int) -> None:
    rng = np.random.default_rng(30_000 + seed)
    n, c = int(rng.integers(2, 8)), int(rng.integers(2, 5))
    logits = rng.normal(scale=2.0, size=(n, c))
    labels = rng.integers(0, c, size=n)
    _, grad = cross_entropy(logits, labels, with_grad=True)
    check_grad_array(lambda: cross_entropy(logits, labels), logits, grad, rng, tol=GRAD_TOL)


def _check_l1_gradient(seed: int) -> None:
    for salt in range(10):
        rng = np.random.default_rng(40_000 + seed + 15_485_863 * salt)
        h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        gt = BEVFlowField(rng.normal(size=(h, w, 2)), rng.random((h, w)) < 0.7,
                          rng.integers(0, 3, size=(h, w)), 0.4, (0.0, 0.0))
        pred = rng.normal(size=(h, w, 2))
        if gt.valid.any():
            diff = np.abs(pred - gt.flow)[gt.valid]
            if diff.min() > 1e-4:  # the L1 kink at zero error breaks differences
                break
    else:
        raise AssertionError("could not find a generic flow instance")
    _, grad = l1_flow(pred, gt, with_grad=True)
    check_grad_array(lambda: l1_flow(pred, gt), pred, grad, rng, tol=GRAD_TOL)


def test_01_gradient_suite_matches_finite_differences():
    t0 = time.monotonic()
    instances = 0
    for seed in range(35):
        _check_spatial_gradients(seed)
        instances += 1
    for seed in range(25):
        _check_temporal_gradients(seed)
        instances += 1
    for seed in range(15):
        _check_focal_gradient(seed)
        instances += 1
    for seed in range(15):
        _check_ce_gradient(seed)
        instances += 1
    for seed in range(10):
        _check_l1_gradient(seed)
        instances += 1
    elapsed = time.monotonic() - t0
    assert instances >= 100
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- 02: rotational consistency ----------------------------------------------

def test_02_output_invariant_under_joint_scene_and_rig_rotation():
    scene = preset_scene("rotation", seed=3)
    base_feats = render_all_cameras(scene, 0)
    rng = np.random.default_rng(41)
    params = init_view_attn_params(rng, scene.feature_channels, heads=2, points=3,
                                   cameras=len(scene.cameras))
    params.offset_head.weight += rng.normal(scale=0.03, size=params.offset_head.weight.shape)
    params.logit_head.weight += rng.normal(scale=0.2, size=params.logit_head.weight.shape)

    azimuths = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
    refs = np.array([[r * np.cos(a), r * np.sin(a), z]
                     for r in (1.4, 2.2) for z in (0.2, 0.5) for a in azimuths])
    queries = rng.normal(size=(refs.shape[0], scene.feature_channels))

    base = {mode: attn_forward_batch(queries, refs, params, base_feats,
                                     scene.cameras, mode)[0]
            for mode in ("one-dof", "two-dof", "ego")}

    angles = np.random.default_rng(17).uniform(0.0, 2.0 * np.pi, 16)
    worst = {"one-dof": 0.0, "two-dof": 0.0, "ego": 0.0}
    for alpha in angles:
        rot = rotated_about_z(scene, float(alpha))
        rot_feats = render_all_cameras(rot, 0)
        rot_refs = refs @ rotation_z(float(alpha)).T
        for mode in worst:
            out, _ = attn_forward_batch(queries, rot_refs, params, rot_feats,
                                        rot.cameras, mode)
            worst[mode] = max(worst[mode], float(np.max(np.abs(out - base[mode]))))
    assert worst["one-dof"] <= 1e-9, f"one-dof deviation {worst['one-dof']:.3e}"
    assert worst["two-dof"] <= 1e-9, f"two-dof deviation {worst['two-dof']:.3e}"
    assert worst["ego"] > 1e-3, f"ego-frame offsets should break invariance, got {worst['ego']:.3e}"


# -- 03: cross-camera reach ----------------------------------------------------

def test_03_view_attention_reaches_cameras_projection_first_cannot():
    scene = preset_scene("boundary", seed=0)
    rig = scene.cameras
    feats = render_all_cameras(scene, 0)
    rng = np.random.default_rng(5)
    channels = scene.feature_channels
    va = init_view_attn_params(rng, channels, heads=2, points=4, cameras=len(rig))
    va.offset_head.weight += rng.normal(scale=0.02, size=va.offset_head.weight.shape)
    va.logit_head.weight += rng.normal(scale=0.1, size=va.logit_head.weight.shape)
    pf = init_proj_first_params(rng, channels, heads=2, points=4, cameras=len(rig))
    pf.offset_head.weight += rng.normal(scale=0.02, size=pf.offset_head.weight.shape)

    hits = 0
    for az_deg, r, z in itertools.product(range(16, 25), (2.6, 2.8, 3.0), (0.3, 0.5)):
        az = np.radians(az_deg)
        ref = np.array([r * np.cos(az), r * np.sin(az), z])
        if camera_coverage(ref, rig) != 1:
            continue
        q = rng.normal(size=channels)
        _, va_trace = view_attn_forward(QueryContext(q, ref), va, feats, rig)
        va_cams = {j for j in range(len(rig)) if va_trace.in_view[..., j].any()}
        out_pf, pf_trace = projection_first_forward(QueryContext(q, ref), pf, feats, rig)
        pf_cams = {j for j in range(len(rig)) if pf_trace.in_view[..., j].any()}
        if len(va_cams) < 2 or len(pf_cams) != 1:
            continue
        hits += 1
        # the baseline's output must not read the cameras it never sampled
        noisy = list(feats)
        unseen = (va_cams - pf_cams).pop()
        noisy[unseen] = FeatureMap(feats[unseen].data + 1e6)
        out2, _ = projection_first_forward(QueryContext(q, ref), pf, noisy, rig)
        assert np.array_equal(out_pf, out2), "projection-first output read an unseen camera"
    assert hits >= 1, "no boundary query separated the two sampling strategies"


# -- 04: collapse equivalence --------------------------------------------------

def test_04_zero_offset_single_point_variants_agree():
    for seed in range(60):
        rng = np.random.default_rng(900 + seed)
        heads = int(rng.choice([1, 2]))
        channels = heads * int(rng.choice([4, 6]))
        rig = build_rig("mono1", fov_deg=float(rng.uniform(45, 90)),
                        width=int(rng.integers(8, 16)), height=int(rng.integers(6, 12)))
        va = init_view_attn_params(rng, channels, heads, points=1, cameras=1,
                                   star_radius=0.0)
        pf = init_proj_first_params(rng, channels, heads, points=1, cameras=1,
                                    star_radius_px=0.0)
        for src, dst in zip(va.value_maps, pf.value_maps):
            dst.weight[:] = src.weight
            dst.bias[:] = src.bias
        for src, dst in zip(va.output_maps, pf.output_maps):
            dst.weight[:] = src.weight
            dst.bias[:] = src.bias
        feats = [FeatureMap(rng.normal(size=(cam.height, cam.width, channels)))
                 for cam in rig]
        while True:
            ref = np.array([rng.uniform(1.0, 4.0), rng.uniform(-0.8, 0.8),
                            rng.uniform(0.5, 2.2)])
            if camera_coverage(ref, rig) == 1:
                break
        q = rng.normal(size=channels)
        out_va, _ = view_attn_forward(QueryContext(q, ref), va, feats, rig)
        out_pf, _ = projection_first_forward(QueryContext(q, ref), pf, feats, rig)
        assert np.max(np.abs(out_va - out_pf)) <= 1e-12


# -- 05: flow oracles -----------------------------------------------------------

def test_05_flow_matches_rigid_motion_oracles():
    grid = GridSpec((4, 18, 18), 0.25, (-2.25, -2.25, 0.0))
    omega, dt = 0.5, 0.5
    axis = np.array([0.6, -0.4])
    poses = {f: Pose.from_z_rotation(omega * dt * f, (axis[0], axis[1], 0.0))
             for f in range(2)}
    spinner = TrackedBox(1, 3, (1.3, 0.7, 0.8), poses)

    field = generate_flow_field([spinner], 1, grid, dt)
    occ = field.occupied
    assert occ.any()
    centers = grid.voxel_centers()
    radius = np.hypot(centers[..., 0] - axis[0], centers[..., 1] - axis[1])
    chord_speed = 2.0 * radius * np.sin(omega * dt / 2.0) / dt
    speed = np.linalg.norm(field.flow, axis=-1)
    assert np.max(np.abs(speed[occ] - chord_speed[occ])) <= 1e-9

    # a box spinning about its own origin has zero center velocity
    object_mode = generate_flow_field([spinner], 1, grid, dt, mode="object-flow")
    assert np.array_equal(object_mode.occupied, occ)
    assert np.all(object_mode.flow == 0.0)

    slider = TrackedBox(2, 3, (1.1, 0.8, 0.7),
                        {f: Pose.from_z_rotation(0.0, (-0.2 + 0.3 * f, 0.1 * f, 0.0))
                         for f in range(2)})
    a = generate_flow_field([slider], 1, grid, dt)
    b = generate_flow_field([slider], 1, grid, dt, mode="object-flow")
    assert a.occupied.any() and np.any(a.flow != 0.0)
    assert np.max(np.abs(a.flow - b.flow)) <= 1e-12


# -- 06: warp consistency and queue depth ---------------------------------------

def test_06_warp_error_within_interpolation_bound_and_fifo_depth():
    scene = preset_scene("stream", seed=0)
    prev_pose, cur_pose = scene.ego_trajectory[3], scene.ego_trajectory[4]
    step = np.linalg.norm(cur_pose.translation - prev_pose.translation)
    assert abs(step - 0.4) < 1e-12

    pitch, n = 0.25, 40
    origin = np.array([-5.0, -5.0])
    xs = origin[0] + np.arange(n) * pitch
    ys = origin[1] + np.arange(n) * pitch
    xg, yg = np.meshgrid(xs, ys)
    cells = np.stack([xg, yg, np.zeros_like(xg)], axis=-1)
    waves = [(1.3, 0.7, 0.3), (0.9, -1.1, 1.1), (0.5, 1.7, -0.7)]

    def world_field(pose: Pose) -> np.ndarray:
        w = pose.apply(cells.reshape(-1, 3)).reshape(n, n, 3)
        return np.stack([np.sin(a * w[..., 0] + b * w[..., 1] + phi)
                         for a, b, phi in waves], axis=-1)

    bev_prev = BEVGrid(world_field(prev_pose), pitch, origin)
    bev_cur = BEVGrid(world_field(cur_pose), pitch, origin)
    rel = cur_pose.inverse().compose(prev_pose)
    # the ego step must land between source cells, exercising interpolation
    assert abs((step / pitch) - round(step / pitch)) > 0.1
    warped = warp_bev(bev_prev, rel)

    src = rel.inverse().apply(cells.reshape(-1, 3)).reshape(n, n, 3)
    inside = ((src[..., 0] >= xs[0]) & (src[..., 0] <= xs[-1])
              & (src[..., 1] >= ys[0]) & (src[..., 1] <= ys[-1]))
    assert inside.sum() > 0.5 * inside.size
    for c, (a, b, _) in enumerate(waves):
        bound = (pitch ** 2 / 8.0) * (a * a + b * b)
        err = np.abs(warped.data[..., c] - bev_cur.data[..., c])[inside]
        assert err.mean() < 5.0 * bound, f"channel {c}: mean {err.mean():.2e} vs bound {bound:.2e}"

    assert np.max(np.abs(warp_bev(bev_cur, Pose.identity()).data - bev_cur.data)) <= 1e-12

    queue = MemoryQueue(4)
    for i in range(10):
        queue = queue.push(BEVGrid(np.full((n, n, 3), float(i)), pitch, origin),
                           scene.ego_trajectory[i])
    assert len(queue) == 4
    assert [int(bev.data.flat[0]) for bev, _ in queue.entries] == [6, 7, 8, 9]


# -- 07: metric oracles ----------------------------------------------------------

def _jaccard_loss_at_vertex(pred: np.ndarray, labels: np.ndarray) -> float:
    """Mean over present classes of 1 - IoU, the exact loss at one-hot inputs."""
    vals = []
    for c in np.unique(labels):
        inter = np.sum((pred == c) & (labels == c))
        union = np.sum((pred == c) | (labels == c))
        vals.append(1.0 - inter / union)
    return float(np.mean(vals))


def _lovasz_by_level_sets(probs: np.ndarray, labels: np.ndarray) -> float:
    """Threshold-integral form of the Lovasz extension; immune to sort ties."""
    vals = []
    for c in np.unique(labels):
        gt = labels == c
        errors = np.where(gt, 1.0 - probs[:, c], probs[:, c])
        # piecewise-constant integral: sum over intervals (lo, hi] of delta(>= hi),
        # where a level set M is the mispredicted pixels, so the predicted set is
        # G xor M and the Jaccard loss is 1 - |G \ M| / |G u M|
        ts = list(np.unique(errors)[::-1]) + [0.0]
        total = 0.0
        for hi, lo in zip(ts[:-1], ts[1:]):
            mask = errors >= hi
            delta = 1.0 - np.sum(gt & ~mask) / np.sum(gt | mask)
            total += (hi - lo) * delta
        vals.append(total)
    return float(np.mean(vals))


def test_07_metric_values_match_hand_oracles():
    # semantic IoU: |pred|=3, |gt|=4, overlap 2 -> 2/5 for the one present class
    pred = np.zeros(12, dtype=np.int64)
    gt = np.zeros(12, dtype=np.int64)
    pred[:3] = 1
    gt[1:5] = 1
    mean_iou, per_class = miou(pred, gt, [1])
    assert mean_iou == 2.0 / 5.0
    assert per_class[1] == 2.0 / 5.0

    # geometric IoU: nested occupancy 2 inside 4 -> 0.5; empty/empty -> 1
    p_occ = np.zeros(10, dtype=bool)
    g_occ = np.zeros(10, dtype=bool)
    p_occ[:2] = True
    g_occ[:4] = True
    assert iou_geo(p_occ, g_occ) == 0.5
    assert iou_geo(np.zeros(4, dtype=bool), np.zeros(4, dtype=bool)) == 1.0

    # velocity error: uniform (0.3, 0.4) offset -> 0.5 for every class
    cat = np.array([[2, 2], [3, 3]], dtype=np.int64)
    gt_flow = BEVFlowField(np.zeros((2, 2, 2)), np.ones((2, 2), dtype=bool),
                           cat, 0.4, (0.0, 0.0))
    pred_flow = np.full((2, 2, 2), 0.0)
    pred_flow[..., 0] = 0.3
    pred_flow[..., 1] = 0.4
    mean_ave, per_cls = mave(pred_flow, gt_flow, [2, 3])
    assert abs(per_cls[2] - 0.5) <= 1e-12 and abs(per_cls[3] - 0.5) <= 1e-12
    assert abs(mean_ave - 0.5) <= 1e-12

    # velocity error: class averages 0.2 and 0.6 -> mean 0.4
    pred_flow = np.zeros((2, 2, 2))
    pred_flow[0, :, 0] = 0.2
    pred_flow[1, :, 0] = 0.6
    mean_ave, per_cls = mave(pred_flow, gt_flow, [2, 3])
    assert abs(per_cls[2] - 0.2) <= 1e-12 and abs(per_cls[3] - 0.6) <= 1e-12
    assert abs(mean_ave - 0.4) <= 1e-12

    # two pixels of one class, correct probabilities (1, 0) -> loss 0.5
    probs = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([1, 1])
    assert lovasz_softmax(probs, labels) == 0.5


def test_07_lovasz_matches_definition_oracle_exhaustively():
    worst = 0.0
    for n_classes in (1, 2, 3):
        eye = np.eye(n_classes)
        for n in range(1, 7):
            for labels in itertools.product(range(n_classes), repeat=n):
                y = np.asarray(labels, dtype=np.int64)
                for assign in itertools.product(range(n_classes), repeat=n):
                    pred = np.asarray(assign, dtype=np.int64)
                    got = lovasz_softmax(eye[pred], y)
                    want = _jaccard_loss_at_vertex(pred, y)
                    worst = max(worst, abs(got - want))
                    assert worst <= 1e-10, (pred, y, got, want)
    # soft probabilities against the threshold-integral form of the extension
    rng = np.random.default_rng(71)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        c = int(rng.integers(1, 4))
        z = rng.normal(scale=2.0, size=(n, c))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, size=n)
        got = lovasz_softmax(probs, labels)
        want = _lovasz_by_level_sets(probs, labels)
        assert abs(got - want) <= 1e-10


# -- 08: learning endpoint -------------------------------------------------------

def test_08_view_attention_trains_to_parity_or_better():
    t0 = time.monotonic()
    scene = preset_scene("training", seed=0)
    report = compare_methods(scene, "small")
    elapsed = time.monotonic() - t0
    runs = {run["method"]: run for run in report["runs"]}
    va, pf = runs["view-attn"], runs["proj-first"]
    assert va["epochs"] == 200 and pf["epochs"] == 200
    assert va["final_loss"] < 0.5 * va["initial_loss"], (
        f"final {va['final_loss']:.4f} vs initial {va['initial_loss']:.4f}")
    assert va["miou"] >= pf["miou"], (
        f"view attention mIoU {va['miou']:.4f} below baseline {pf['miou']:.4f}")
    assert elapsed < 600.0, f"training comparison took {elapsed:.0f}s"


# -- 09: CLI determinism ----------------------------------------------------------

def _cli_env() -> dict:
    # The child runs in a temp directory, where a relative PYTHONPATH entry such
    # as `src` no longer resolves; point it at the package this test imported.
    env = dict(os.environ)
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def _cli(*args, cwd) -> None:
    result = subprocess.run([sys.executable, "-m", "viewocc.cli", *args],
                            cwd=cwd, env=_cli_env(), capture_output=True, text=True)
    assert result.returncode == 0, (
        f"viewocc {' '.join(args)} exited {result.returncode}:\n{result.stderr}")


def _without_wall_clock(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_clock(v) for k, v in obj.items() if k != "wall_clock_s"}
    if isinstance(obj, list):
        return [_without_wall_clock(v) for v in obj]
    return obj


def _canon(path) -> str:
    return json.dumps(_without_wall_clock(json.loads(path.read_text())), sort_keys=True)


def test_09_cli_byte_determinism_and_queue_transparency(tmp_path):
    sides = []
    for side in ("a", "b"):
        root = tmp_path / side
        root.mkdir()
        # relative paths keep the recorded output locations identical across runs
        _cli("make-scene", "--preset", "training", "--seed", "5",
             "--out", "scene.json", cwd=root)
        _cli("coverage", "--scene", "scene.json", "--out", "coverage.json", cwd=root)
        _cli("render", "--scene", "scene.json", "--frame", "1",
             "--out", "render", cwd=root)
        _cli("gen-flow", "--scene", "scene.json", "--frame", "1",
             "--out", "flow", cwd=root)
        _cli("train", "--scene", "scene.json", "--preset", "small",
             "--epochs", "2", "--seed", "3", "--params", "model",
             "--curve", "curve.csv", "--out", "train.json", cwd=root)
        _cli("eval", "--scene", "scene.json", "--params", "model",
             "--frames", "0:3", "--out", "eval.json", cwd=root)
        _cli("compare", "--scene", "scene.json", "--preset", "small",
             "--epochs", "2", "--queue-lens", "2", "--seed", "3",
             "--out", "compare.json", cwd=root)
        sides.append(root)
    a, b = sides

    exact = ("scene.json", "coverage.json", "curve.csv", "render.json", "render.bin",
             "flow.json", "flow.bin", "model.json", "model.bin")
    for name in exact:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for name in ("train.json", "eval.json", "compare.json"):
        assert _canon(a / name) == _canon(b / name), name

    # a queue saved mid-stream and reloaded must not perturb the tail frames
    root = a
    _cli("make-scene", "--preset", "stream", "--seed", "2",
         "--out", "stream.json", cwd=root)
    _cli("train", "--scene", "stream.json", "--preset", "small",
         "--epochs", "1", "--seed", "3", "--params", "smodel", cwd=root)
    _cli("eval", "--scene", "stream.json", "--params", "smodel",
         "--frames", "0:4", "--out", "full.json", cwd=root)
    _cli("eval", "--scene", "stream.json", "--params", "smodel",
         "--frames", "0:2", "--queue-out", "queue", "--out", "head.json", cwd=root)
    _cli("eval", "--scene", "stream.json", "--params", "smodel",
         "--frames", "2:4", "--queue-in", "queue", "--out", "tail.json", cwd=root)
    full = json.loads((root / "full.json").read_text())
    head = json.loads((root / "head.json").read_text())
    tail = json.loads((root / "tail.json").read_text())
    merged = head["frames"] + tail["frames"]
    assert json.dumps(merged, sort_keys=True) == json.dumps(full["frames"], sort_keys=True)
