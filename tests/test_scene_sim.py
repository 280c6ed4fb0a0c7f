import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewocc import scene_sim
from viewocc.cli import main as cli_main
from viewocc.errors import ContractViolation
from viewocc.flow_annotation import GridSpec, TrackedBox
from viewocc.geometry import Pose
from viewocc.scene_sim import (RAY_STEP_FRACTION, SceneClass, SceneSpec, StaticElement,
                               build_rig, load_scene, observe, preset_scene,
                               render_all_cameras, render_camera_features,
                               rotated_about_z, save_scene, scene_ground_truth,
                               with_feature_channels, _grid_steps, _march, _ray_grid,
                               _ray_steps, _slab_steps, _voxel_runs)

from helpers import (box_membership, dense_march, dense_observe, grid_points,
                     pose_from_json_reference, project_points,
                     ray_grid_reference, scene_ground_truth_reference, slab_steps_reference,
                     surface_feature)


# --- rig geometry ------------------------------------------------------------


def test_forward_camera_puts_axis_point_at_image_center():
    cam, = build_rig("mono1", fov_deg=55.0, mount_height=1.5)
    uv, depth, ok = project_points(cam, np.array([[2.0, 0.0, 1.5]]))
    assert ok[0] and abs(depth[0] - 2.0) < 1e-12
    np.testing.assert_allclose(uv[0], [cam.cx, cam.cy], atol=1e-12)


def test_fov_edge_lands_on_image_border():
    cam, = build_rig("mono1", fov_deg=70.0, width=48, height=36)
    half = np.radians(35.0)
    right = np.array([[2.0 * np.cos(half), -2.0 * np.sin(half), 1.5]])
    left = np.array([[2.0 * np.cos(half), 2.0 * np.sin(half), 1.5]])
    uv_r, _, ok_r = project_points(cam, right)
    uv_l, _, ok_l = project_points(cam, left)
    assert ok_r[0] and ok_l[0]
    assert abs(uv_r[0, 0] - (cam.width - 1)) < 1e-9
    assert abs(uv_l[0, 0] - 0.0) < 1e-9


def test_surround_rig_axes_and_positions():
    rig = build_rig("surround6", mount_height=1.5)
    assert [c.name for c in rig] == [f"cam{i}" for i in range(6)]
    for i, cam in enumerate(rig):
        inv = cam.extrinsics.inverse()
        yaw = np.radians(60.0 * i)
        # each camera sits 0.4 m out along its own viewing direction
        np.testing.assert_allclose(
            inv.translation, [0.4 * np.cos(yaw), 0.4 * np.sin(yaw), 1.5], atol=1e-12)
        axis = inv.rotation @ np.array([0.0, 0.0, 1.0])  # optical axis in ego frame
        np.testing.assert_allclose(axis, [np.cos(yaw), np.sin(yaw), 0.0], atol=1e-12)


def test_stereo_rig_baseline():
    left, right = build_rig("stereo2")
    np.testing.assert_allclose(left.extrinsics.inverse().translation, [0.0, 0.3, 1.5],
                               atol=1e-12)
    np.testing.assert_allclose(right.extrinsics.inverse().translation, [0.0, -0.3, 1.5],
                               atol=1e-12)


def test_unknown_rig_rejected():
    with pytest.raises(ContractViolation):
        build_rig("octo8")


# --- scene description -------------------------------------------------------


def test_scene_json_round_trip(tmp_path):
    scene = preset_scene("training")
    obj = scene.to_json()
    again = type(scene).from_json(obj).to_json()
    assert again == obj
    path = tmp_path / "scene.json"
    save_scene(path, scene)
    assert load_scene(path).to_json() == obj


def test_preset_is_deterministic():
    a = preset_scene("boundary", seed=11)
    b = preset_scene("boundary", seed=11)
    assert a.to_json() == b.to_json()


def test_with_feature_channels_changes_only_width():
    scene = preset_scene("rotation")
    wide = with_feature_channels(scene, 20)
    assert wide.feature_channels == 20
    assert wide.grid.to_json() == scene.grid.to_json()
    fmap = render_camera_features(wide, 0, 0)
    assert fmap.data.shape[-1] == 20
    with pytest.raises(ContractViolation):
        with_feature_channels(scene, 2)  # fewer channels than classes


# --- rendering ---------------------------------------------------------------


def test_render_misses_are_zero_and_hits_match_surface_features():
    scene = preset_scene("training")
    frame, cam_index = 1, 0
    cam = scene.cameras[cam_index]
    fmap = render_camera_features(scene, frame, cam_index)
    hit, _, hit_points, class_idx = _march(scene, scene.elements_in_frame(frame),
                                           *_ray_grid(cam))
    pixels = fmap.data.reshape(-1, scene.feature_channels)
    assert hit.any() and not hit.all()
    np.testing.assert_array_equal(pixels[~hit], 0.0)
    pick = np.flatnonzero(hit)[::200]
    ego_pose = scene.ego_trajectory[frame]
    for p in pick:
        world = ego_pose.apply(hit_points[p])
        cls = scene.class_ids[class_idx[p]]
        np.testing.assert_allclose(pixels[p], surface_feature(scene, cls, world),
                                   atol=1e-12)


def test_render_is_reproducible_across_save_load(tmp_path):
    scene = preset_scene("boundary")
    path = tmp_path / "scene.json"
    save_scene(path, scene)
    reloaded = load_scene(path)
    for j in range(len(scene.cameras)):
        a = render_camera_features(scene, 0, j).data
        b = render_camera_features(reloaded, 0, j).data
        np.testing.assert_array_equal(a, b)


def test_rotating_scene_and_rig_together_preserves_images():
    scene = preset_scene("rotation")
    rotated = rotated_about_z(scene, 2.0 * np.pi * 5.0 / 16.0)
    for j in range(len(scene.cameras)):
        a = render_camera_features(scene, 0, j).data
        b = render_camera_features(rotated, 0, j).data
        assert np.max(np.abs(a - b)) < 1e-9


def test_rotation_moves_ego_frame_content():
    scene = preset_scene("rotation")
    rotated = rotated_about_z(scene, np.pi / 2.0)
    labels_a, _ = scene_ground_truth(scene, 0)
    labels_b, _ = scene_ground_truth(rotated, 0)
    assert (labels_a != labels_b).any()


def test_rotation_requires_identity_ego():
    with pytest.raises(ContractViolation):
        rotated_about_z(preset_scene("training"), 0.3)


# --- ground truth ------------------------------------------------------------


def test_ground_truth_labels_and_flow_agree():
    scene = preset_scene("training")
    labels, flow = scene_ground_truth(scene, 1)
    assert flow.occupied.any()
    np.testing.assert_array_equal(labels[flow.occupied], flow.category[flow.occupied])
    present = set(np.unique(labels).tolist())
    assert {0, 1, 3} <= present  # free space, ground, and the movers
    assert 2 in present  # walls
    # flow may only live on box voxels
    assert np.all(flow.flow[~flow.occupied] == 0.0)


def test_first_frame_flow_is_zero():
    scene = preset_scene("training")
    _, flow = scene_ground_truth(scene, 0)
    assert flow.occupied.any()
    np.testing.assert_array_equal(flow.flow, 0.0)


def test_moving_box_carries_nonzero_flow_after_first_frame():
    scene = preset_scene("stream")
    _, flow = scene_ground_truth(scene, 3)
    speeds = np.linalg.norm(flow.flow[flow.occupied], axis=-1)
    assert speeds.max() > 0.1


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("preset", ["training", "boundary", "rotation", "stream"])
def test_ground_truth_is_byte_equal_to_the_reference(preset, seed):
    scene = preset_scene(preset, seed=seed)
    for frame in range(scene.num_frames):
        for mode in ("occupancy-flow", "object-flow"):
            labels, flow = scene_ground_truth(scene, frame, flow_mode=mode)
            ref_labels, ref_flow = scene_ground_truth_reference(scene, frame, flow_mode=mode)
            for got, want in ((labels, ref_labels), (flow.flow, ref_flow.flow),
                              (flow.occupied, ref_flow.occupied),
                              (flow.category, ref_flow.category)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert flow.foreground_classes == ref_flow.foreground_classes


# --- visibility --------------------------------------------------------------


def test_observe_visibility_shape_and_coverage():
    scene = preset_scene("training")
    _, seen = observe(scene, 1)
    assert seen.shape == scene.grid.shape
    assert 0 < seen.sum() < seen.size  # some voxels observed, some not


def test_observe_visibility_grows_with_cameras():
    scene = preset_scene("training")
    narrow = dataclasses.replace(scene, cameras=scene.cameras[:2])
    _, seen_narrow = observe(narrow, 0)
    _, seen_full = observe(scene, 0)
    assert not (seen_narrow & ~seen_full).any()
    assert (seen_full & ~seen_narrow).any()


def test_render_all_cameras_covers_rig():
    scene = preset_scene("training")
    maps = render_all_cameras(scene, 0)
    assert len(maps) == len(scene.cameras)
    for fmap in maps:
        assert np.abs(fmap.data).max() > 0.0  # every camera sees some content


# --- windowed march against the dense reference ------------------------------


@pytest.mark.parametrize("seed", [7, 4])
@pytest.mark.parametrize("preset", ["training", "boundary", "rotation", "stream"])
def test_observe_is_byte_equal_to_dense_march(preset, seed):
    scene = preset_scene(preset, seed=seed)
    for frame in range(scene.num_frames):
        features, seen = observe(scene, frame)
        rendered = render_all_cameras(scene, frame)
        ref_features, ref_seen = dense_observe(scene, frame)
        assert len(features) == len(rendered) == len(ref_features) == len(scene.cameras)
        for j, want in enumerate(ref_features):
            for got in (features[j], rendered[j]):
                assert got.data.dtype == want.data.dtype and got.data.shape == want.data.shape
                assert got.data.tobytes() == want.data.tobytes(), f"frame {frame} cam {j}"
        assert seen.tobytes() == ref_seen.tobytes(), f"frame {frame} visibility"


def test_poses_within_tolerance_render_although_their_products_drift_past_it(tmp_path):
    # 0.45e-9 * I added to a z-rotation deviates 0.9e-9 from orthonormal, so
    # both poses load; ego^-1 o static in elements_in_frame deviates 1.8e-9
    scene = preset_scene("stream", seed=7).to_json()
    for pose in (scene["ego_trajectory"][1], scene["statics"][1]["pose"]):
        for k in (0, 4, 8):
            pose["rotation"][k] += 0.45e-9
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    for argv in (["render", "--out", str(tmp_path / "r")], ["gen-flow"]):
        assert cli_main(argv + ["--scene", str(tmp_path / "scene.json"), "--frame", "1"]) == 0
    scene = load_scene(tmp_path / "scene.json")
    features, seen = observe(scene, 1)
    ref_features, ref_seen = dense_observe(scene, 1)
    for got, want in zip(features, ref_features):
        assert got.data.tobytes() == want.data.tobytes()
    assert seen.tobytes() == ref_seen.tobytes()
    for mode in ("occupancy-flow", "object-flow"):
        labels, flow = scene_ground_truth(scene, 1, flow_mode=mode)
        ref_labels, ref_flow = scene_ground_truth_reference(scene, 1, flow_mode=mode)
        for got, want in ((labels, ref_labels), (flow.flow, ref_flow.flow),
                          (flow.occupied, ref_flow.occupied)):
            assert got.tobytes() == want.tobytes()


def _rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


_quaternion = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1)


@st.composite
def _box(draw, step, mount):
    """(size, pose) of one box: oriented anywhere ahead of the camera,
    axis-aligned with every face on the step lattice, so the forward ray
    meets faces exactly at step points or runs along them, or around the
    camera origin."""
    kind = draw(st.sampled_from(["oriented", "on-steps", "around-camera"]))
    if kind == "on-steps":
        # (n+1)*step is how the march computes its step distances
        size = np.array([draw(st.integers(1, 10)) * step for _ in range(3)])
        low = np.array([(draw(st.integers(0, 30)) + 1.0) * step,
                        draw(st.integers(-3, 3)) * step,
                        mount + draw(st.integers(-3, 3)) * step])
        return size, Pose(np.eye(3), low + size / 2.0)
    rot = _rotation(draw(_quaternion))
    if kind == "oriented":
        size = np.array([draw(st.floats(0.05, 1.5)) for _ in range(3)])
        center = (draw(st.floats(0.2, 4.0)), draw(st.floats(-1.5, 1.5)),
                  draw(st.floats(-0.5, 1.5)))
        return size, Pose(rot, center)
    offset = np.array([draw(st.floats(-0.2, 0.2)) for _ in range(3)])
    size = 2.0 * np.sqrt(3.0) * np.abs(offset).max() + np.array(
        [draw(st.floats(0.05, 1.0)) for _ in range(3)])
    return size, Pose(rot, np.array([0.0, 0.0, mount]) + offset)


def _small_scene(pitch, mount, fov_deg, width, height, statics=(), boxes=()):
    """One frame, one forward camera at (0, 0, mount); with odd image sizes
    the middle row and column of rays have exact zero components, parallel
    to the faces of axis-aligned boxes."""
    cam, = build_rig("mono1", fov_deg=fov_deg, width=width, height=height,
                     mount_height=mount)
    return SceneSpec(
        name="small", seed=0, feature_channels=4,
        classes=[SceneClass(1, "ground"), SceneClass(2, "wall"),
                 SceneClass(3, "mover", foreground=True)],
        grid=GridSpec((4, 8, 8), pitch, (-pitch, -4.0 * pitch, -pitch)),
        cameras=[cam], ego_trajectory=[Pose.identity()], frame_dt=0.5,
        statics=list(statics), boxes=list(boxes))


@st.composite
def _small_scenes(draw):
    pitch = draw(st.sampled_from([0.25, 0.4, 0.5, 0.7]))
    step = pitch * RAY_STEP_FRACTION
    mount = draw(st.integers(2, 10)) * 0.125
    statics, boxes = [], []
    for k in range(draw(st.integers(1, 3))):
        size, pose = draw(_box(step, mount))
        if draw(st.booleans()):
            boxes.append(TrackedBox(k, 3, size, {0: pose}))
        else:
            statics.append(StaticElement(draw(st.sampled_from([1, 2])), size, pose))
    return _small_scene(pitch, mount, draw(st.floats(30.0, 110.0)),
                        draw(st.sampled_from([5, 7, 9])), draw(st.sampled_from([3, 5])),
                        statics, boxes)


def _assert_march_matches_dense(scene):
    cam = scene.cameras[0]
    origin, dirs = _ray_grid(cam)
    hit, first, hit_points, class_idx = _march(scene, scene.elements_in_frame(0), origin, dirs)
    ref_hit, ref_points, ref_class, pts, before_hit = dense_march(scene, 0, cam)
    np.testing.assert_array_equal(hit, ref_hit)
    np.testing.assert_array_equal(first, before_hit.sum(axis=1))
    assert hit_points.tobytes() == ref_points.tobytes()
    np.testing.assert_array_equal(class_idx, ref_class)
    ray, i, _ = _grid_steps(scene.grid, origin, dirs)
    before = i < first[ray]
    _, ts = _ray_steps(scene.grid)
    free = grid_points(scene.grid, origin + ts[i[before], None] * dirs[ray[before]])
    assert free.tobytes() == grid_points(scene.grid, pts[before_hit]).tobytes()


@given(_small_scenes())
@settings(max_examples=80, deadline=None)
def test_windowed_march_matches_dense_march(scene):
    _assert_march_matches_dense(scene)


def _edge_scenes():
    mount = 0.75
    for pitch in (0.4, 0.5):
        step = pitch * RAY_STEP_FRACTION
        # faces on step points; the middle rays run along the top and side faces
        slab = StaticElement(2, (8 * step, 6 * step, 4 * step),
                             Pose(np.eye(3), (14 * step, 3 * step, mount + 2 * step)))
        wall = StaticElement(2, (2 * step, 30 * step, 30 * step),
                             Pose(np.eye(3), (25 * step, 0.0, mount)))
        # a box around the camera origin, turned about z
        cage = TrackedBox(1, 3, (0.3, 0.3, 0.3),
                          {0: Pose.from_z_rotation(0.7, (0.05, 0.0, mount))})
        for statics, boxes in (([slab, wall], []), ([slab], [cage]), ([wall], [cage])):
            yield _small_scene(pitch, mount, 60.0, 9, 5, statics, boxes)
    # a box whose near face sits on a step point at pitch 0.7: one ray's
    # exact slab entry rounds past the step that contains() accepts, so a
    # window with neither its one-step nor its 1e-9 m margin loses that hit
    step = 0.7 * RAY_STEP_FRACTION
    size = np.array([7, 4, 8]) * step
    low = np.array([30.0 * step, -2 * step, 0.5])
    box = StaticElement(2, size, Pose(np.eye(3), low + size / 2.0))
    yield _small_scene(0.7, 0.5, 40.0, 5, 3, [box])


def test_windowed_march_edge_cases():
    for scene in _edge_scenes():
        _assert_march_matches_dense(scene)


def test_slab_steps_of_a_near_parallel_ray_do_not_overflow():
    # a local direction component of 1e-307 puts the slab exit near 5e306 m,
    # beyond the float range once divided by the step: no bound, not an error
    dirs = np.array([[1e-307, 0.0, 0.0], [-3e-307, 0.0, 0.0], [0.6, 0.8, 0.0]])
    args = (np.zeros(3), dirs, np.full(3, 0.5), 0.01, 400)
    with np.errstate(over="ignore"):
        want = _slab_steps(*args)
    with np.errstate(over="raise"):
        got = _slab_steps(*args)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(want[0][:2], [0, 0])
    np.testing.assert_array_equal(want[1][:2], [400, 400])


def _face_points(half):
    """Every combination, per axis, of a coordinate on a face (+-half), one
    ulp inside and outside it, and 0: points on faces, edges and corners."""
    axes = []
    for h in half:
        on = np.array([-h, h])
        axes.append(np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, 2.0 * on),
                                    [0.0]]))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


_QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("pose", [Pose.identity(), Pose(_QUARTER_TURN, np.zeros(3)),
                                  Pose.from_z_rotation(0.7, (0.3, -1.1, 0.25))],
                         ids=["identity", "quarter-turn", "oriented"])
def test_box_membership_equals_the_axis_reduction_bit_for_bit(pose):
    size = np.array([1.5, 0.5, 3.0])
    local = _face_points(size / 2.0)
    points = pose.apply(local)
    static = StaticElement(2, size, pose)
    box = TrackedBox(1, 3, size, {0: pose})
    want = box_membership(static, points)
    for got in (static.contains(points), box.contains(pose, points)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    # (2, 5, 3) inputs keep their leading shape
    batch = points[:points.shape[0] // 10 * 10].reshape(-1, 2, 5, 3)
    for chunk in batch:
        np.testing.assert_array_equal(static.contains(chunk), box_membership(static, chunk))
        np.testing.assert_array_equal(box.contains(pose, chunk), box_membership(static, chunk))
    if pose.translation.any():
        return
    # faces are exact in these frames: on a face is inside, one ulp out is not
    outside = np.any(np.abs(local) > size / 2.0, axis=-1)
    assert outside.any() and (~outside).any()
    np.testing.assert_array_equal(want, ~outside)


def test_slab_steps_equal_the_axis_reduction():
    rng = np.random.default_rng(3)
    half = np.array([0.5, 0.75, 0.25])
    dirs = rng.normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # exact zero components on one axis, on two, and along an axis; then a
    # tiny component that is not zero
    dirs[8:24, 0] = 0.0
    dirs[16:32, 1] = 0.0
    dirs[40:48, 2] = 0.0
    dirs[48:52] = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]
    dirs[52:56, 2] = 1e-300
    # the origin inside the slab on every axis, and outside it on each one
    origins = [np.zeros(3), np.array([0.2, -0.7, 0.24]), np.array([0.5, 0.0, 0.0]),
               np.array([-0.9, 0.1, 0.0]), np.array([0.0, 2.0, 0.1]),
               np.array([0.1, 0.0, -0.6]), np.array([3.0, -2.0, 1.0])]
    for origin in origins:
        for step, n_steps in ((0.1, 40), (0.025, 400)):
            want = slab_steps_reference(origin, dirs, half, step, n_steps)
            got = _slab_steps(origin, dirs, half, step, n_steps)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


def _block(x0, depth, ys, zs):
    """(size, pose) of an axis-aligned block whose near face lies on x = x0,
    spanning ys and zs."""
    lo, hi = np.array([x0, ys[0], zs[0]]), np.array([x0 + depth, ys[1], zs[1]])
    return hi - lo, Pose(np.eye(3), (lo + hi) / 2.0)


def test_first_hit_inside_two_elements_takes_the_earlier_class():
    # near faces on one plane between two steps of the axis ray, so a ray
    # meeting an overlap first hits a point inside both elements
    pitch = 0.4
    x0 = 12.5 * pitch * RAY_STEP_FRACTION
    size, pose = _block(x0, 0.6, (-0.8, -0.2), (0.5, 1.0))
    box = TrackedBox(1, 3, size, {0: pose})                  # cut into the wall
    wall = StaticElement(2, *_block(x0, 0.3, (-1.5, 0.0), (0.0, 1.5)))
    first_static = StaticElement(1, *_block(x0, 0.3, (0.2, 1.2), (0.25, 1.25)))
    second_static = StaticElement(2, *_block(x0, 0.3, (0.6, 1.6), (0.5, 1.5)))
    scene = _small_scene(pitch, 0.75, 100.0, 21, 11, [first_static, second_static, wall], [box])
    _assert_march_matches_dense(scene)

    elements = scene.elements_in_frame(0)
    hit, _, hit_points, class_idx = _march(scene, elements, *_ray_grid(scene.cameras[0]))
    box_el, first_el, second_el, wall_el = elements
    points, rows = hit_points[hit], class_idx[hit]
    in_box_and_wall = box_el.contains(points) & wall_el.contains(points)
    in_both_statics = first_el.contains(points) & second_el.contains(points)
    assert in_box_and_wall.any() and in_both_statics.any()
    np.testing.assert_array_equal(rows[in_box_and_wall], scene.class_ids.index(3))
    np.testing.assert_array_equal(rows[in_both_statics], scene.class_ids.index(1))


# --- cached per-camera tables --------------------------------------------------


def _assert_observe_matches_dense(scene, frame):
    features, seen = observe(scene, frame)
    rendered = render_all_cameras(scene, frame)
    ref_features, ref_seen = dense_observe(scene, frame)
    for j, want in enumerate(ref_features):
        for got in (features[j], rendered[j]):
            assert got.data.tobytes() == want.data.tobytes(), f"cam {j}"
    assert seen.tobytes() == ref_seen.tobytes()
    assert len(scene_sim._tables) <= scene_sim._TABLE_CACHE_SIZE


def test_cached_tables_follow_every_camera_and_grid_change():
    # the array edits are made in place, so only a cache keyed by value sees them
    scene = preset_scene("training", seed=4)
    cam = scene.cameras[2]
    _assert_observe_matches_dense(scene, 1)            # warms the tables
    cam.extrinsics.translation[1] += 0.25
    _assert_observe_matches_dense(scene, 1)
    cam = scene.cameras[2] = dataclasses.replace(
        cam, extrinsics=cam.extrinsics.compose(Pose.from_z_rotation(0.2)))
    _assert_observe_matches_dense(scene, 1)
    cam = scene.cameras[2] = dataclasses.replace(cam, fx=cam.fx * 1.2)
    _assert_observe_matches_dense(scene, 1)
    scene.grid.origin[0] += 0.13
    _assert_observe_matches_dense(scene, 1)
    scene = dataclasses.replace(scene, grid=dataclasses.replace(scene.grid, pitch=0.45))
    _assert_observe_matches_dense(scene, 1)


def test_cached_tables_are_read_only_and_bounded():
    scene = preset_scene("stream")
    cam = scene.cameras[0]
    for arr in _ray_grid(cam) + _voxel_runs(cam, scene.grid):
        with pytest.raises(ValueError):
            arr[...] = 0
    cams = [build_rig("mono1", width=3, height=2, mount_height=0.1 * (k + 1))[0]
            for k in range(scene_sim._TABLE_CACHE_SIZE + 5)]
    for cam in cams:
        _ray_grid(cam)
        assert len(scene_sim._tables) <= scene_sim._TABLE_CACHE_SIZE
    assert len(scene_sim._tables) == scene_sim._TABLE_CACHE_SIZE
    # the evicted table is built again, equal to a fresh one
    for got, want in zip(_ray_grid(cams[0]), ray_grid_reference(cams[0])):
        assert got.tobytes() == want.tobytes()


# --- rays culled before the slab test -------------------------------------------


def _slab_calls(monkeypatch, scene):
    """The number of rays of every _slab_steps call in one _march of the
    scene's first camera."""
    calls = []

    def counted(origin, dirs, *args):
        calls.append(dirs.shape[0])
        return _slab_steps(origin, dirs, *args)

    monkeypatch.setattr(scene_sim, "_slab_steps", counted)
    _march(scene, scene.elements_in_frame(0), *_ray_grid(scene.cameras[0]))
    monkeypatch.undo()
    return calls


def _cube(center, edge=1.0):
    return StaticElement(2, (edge, edge, edge), Pose(np.eye(3), center))


def test_observe_and_render_of_a_camera_that_hits_nothing():
    mount = 0.75
    scene = _small_scene(0.4, mount, 60.0, 9, 5, [_cube((-2.0, 0.0, mount))])
    hit, _, _, _ = _march(scene, scene.elements_in_frame(0), *_ray_grid(scene.cameras[0]))
    assert not hit.any()                                   # the one cube is behind it
    with np.errstate(all="raise"):
        (features,), seen = observe(scene, 0)
        rendered, = render_all_cameras(scene, 0)
    assert not features.data.any() and not rendered.data.any()
    assert seen.any()                                      # its free steps still count
    _assert_observe_matches_dense(scene, 0)


def test_march_skips_an_element_behind_the_camera(monkeypatch):
    mount = 0.75
    scene = _small_scene(0.4, mount, 60.0, 9, 5,
                         [_cube((2.0, 0.0, mount)), _cube((-2.0, 0.0, mount)),
                          _cube((-1.5, 0.5, mount + 0.5), edge=0.6)])
    _assert_march_matches_dense(scene)
    assert len(_slab_calls(monkeypatch, scene)) == 1       # only the cube ahead


def test_march_skips_an_element_beyond_the_march_range(monkeypatch):
    mount = 0.75
    base = _small_scene(0.4, mount, 60.0, 9, 5)
    _, ts = _ray_steps(base.grid)
    # one cube ahead and off axis, one across the range's end, one past it
    scene = dataclasses.replace(base, statics=[_cube((2.0, 1.0, mount), edge=0.5),
                                               _cube((ts[-1] + 0.2, 0.0, mount)),
                                               _cube((ts[-1] + 2.0, -0.5, mount), edge=1.5)])
    _assert_march_matches_dense(scene)
    assert len(_slab_calls(monkeypatch, scene)) == 2
    hit, first, _, _ = _march(scene, scene.elements_in_frame(0), *_ray_grid(scene.cameras[0]))
    assert (first[hit] > ts.size - 5).any()  # the cube across the range's end is hit


def test_march_from_inside_a_bounding_sphere_but_outside_the_element(monkeypatch):
    mount = 0.75
    # a long thin bar beside the camera: the camera is 1.1 m from its center,
    # inside its 2 m bounding sphere, and 0.4 m from the bar itself
    bar = StaticElement(1, (4.0, 0.1, 0.1), Pose(np.eye(3), (1.0, 0.4, mount)))
    wall = StaticElement(2, (0.2, 4.0, 2.0), Pose(np.eye(3), (3.5, 0.0, mount)))
    scene = _small_scene(0.4, mount, 60.0, 9, 5, [bar, wall])
    _assert_march_matches_dense(scene)
    origin, dirs = _ray_grid(scene.cameras[0])
    # every ray kept: the camera is inside the bar's sphere, the wall's fills the view
    assert _slab_calls(monkeypatch, scene) == [dirs.shape[0]] * 2
    hit, _, _, class_idx = _march(scene, scene.elements_in_frame(0), origin, dirs)
    assert set(class_idx[hit].tolist()) == {0, 1}      # the bar and the wall are both seen


@pytest.mark.parametrize("size, center", [
    ((1.0, 1.0, 1.0), (1e160, 0.0, 0.75)), ((1.0, 1.0, 1.0), (1e300, 1e300, 0.0)),
    ((1e160, 1.0, 1.0), (3.0, 0.0, 0.75)), ((1e300, 1e300, 1.0), (0.0, 0.0, -10.0)),
], ids=["far-1e160", "far-1e300", "huge-1e160", "huge-1e300"])
def test_march_on_a_far_or_huge_element_raises_no_float_fault(size, center):
    # finite scene values whose squares overflow; the CLI turns any float
    # fault into exit 2, so such a scene would stop rendering
    mount = 0.75
    far = StaticElement(2, size, Pose(np.eye(3), center))
    scene = _small_scene(0.4, mount, 60.0, 9, 5, [_cube((2.0, 1.0, mount), edge=0.5), far])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _assert_march_matches_dense(scene)


@pytest.mark.parametrize("azimuth_deg", [30.0, -30.0, 30.4, -29.6])
def test_march_on_a_thin_wall_seen_edge_on_at_the_image_border(azimuth_deg):
    # a 60-degree camera's border columns look along +-30 degrees; the wall's
    # plane holds that direction, so only rays on and next to it can meet it
    mount = 0.75
    az = np.radians(azimuth_deg)
    center = (2.0 * np.cos(az), 2.0 * np.sin(az), mount)
    wall = StaticElement(2, (2.0, 0.02, 0.6), Pose.from_z_rotation(az, center))
    scene = _small_scene(0.4, mount, 60.0, 9, 5, [wall])
    _assert_march_matches_dense(scene)
    if azimuth_deg in (30.0, -30.0):
        hit, _, _, _ = _march(scene, scene.elements_in_frame(0), *_ray_grid(scene.cameras[0]))
        assert hit.reshape(5, 9)[:, [0, -1]].any()


def _turning(a, b):
    """A rotation taking the direction of a to that of b."""
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    v = np.cross(a, b)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    u, _, vt = np.linalg.svd(np.eye(3) + vx + vx @ vx / (1.0 + a @ b))
    return u @ vt


def test_march_keeps_rays_that_graze_a_bounding_sphere_at_a_corner():
    # boxes whose corner is a step point of a pixel ray, with the
    # corner-to-center diagonal at right angles to that ray: the ray is
    # tangent to the bounding sphere there. Whether contains() takes the
    # corner, and which side of the exact sphere test it lands on, is up to
    # roundoff; the margin must keep every such ray that hits.
    rng = np.random.default_rng(11)
    base = _small_scene(0.4, 0.75, 70.0, 9, 5)
    origin, dirs = ray_grid_reference(base.cameras[0])
    _, ts = _ray_steps(base.grid)
    graze_hits = unmargined_misses = 0
    for _ in range(200):
        p, k = rng.integers(dirs.shape[0]), rng.integers(5, 60)
        corner = origin + ts[k] * dirs[p]
        half = rng.uniform(0.05, 0.6, size=3) * rng.choice([-1.0, 1.0], size=3)
        rot = _turning(half, np.cross(dirs[p], rng.normal(size=3)))
        if np.linalg.det(rot) < 0:
            continue
        box = StaticElement(2, 2.0 * np.abs(half), Pose(rot, corner + rot @ half))
        scene = dataclasses.replace(base, statics=[box])
        _assert_march_matches_dense(scene)
        if box.contains(corner[None, :])[0]:
            graze_hits += 1
            to_center = box.pose.translation - origin
            exact = np.sqrt(to_center @ to_center - (np.linalg.norm(box.size) / 2.0) ** 2)
            unmargined_misses += bool(dirs[p] @ to_center < exact)
    assert graze_hits >= 10 and unmargined_misses >= 1, (graze_hits, unmargined_misses)


# --- the march's chunked walk of each window ------------------------------------


def _march_with_windows(monkeypatch, scene, widen: bool):
    """`_march` of the scene's first camera at frame 0, its windows from the
    slab test or, with `widen`, the whole march range of every kept ray:
    the loosest window that holds every inside step."""
    if widen:
        def whole(origin, dirs, half, step, n_steps):
            rays = dirs.shape[0]
            return np.zeros(rays, dtype=np.int64), np.full(rays, n_steps, dtype=np.int64)
        monkeypatch.setattr(scene_sim, "_slab_steps", whole)
    out = _march(scene, scene.elements_in_frame(0), *_ray_grid(scene.cameras[0]))
    monkeypatch.undo()
    return out


def _assert_equals_dense(scene, marched):
    hit, first, hit_points, class_idx = marched
    ref_hit, ref_points, ref_class, _, before_hit = dense_march(scene, 0, scene.cameras[0])
    assert hit.tobytes() == ref_hit.tobytes()
    assert first.tobytes() == before_hit.sum(axis=1).astype(np.int64).tobytes()
    assert hit_points.tobytes() == ref_points.tobytes()
    assert class_idx.tobytes() == ref_class.tobytes()


def test_march_walks_past_the_first_chunk_to_a_shallow_hit_on_the_ground(monkeypatch):
    # from step 0, the stream ground slab's shallow rays are first inside
    # after the chunks of 3, 6 and 12 steps
    scene = preset_scene("stream", seed=4)
    marched = _march_with_windows(monkeypatch, scene, widen=True)
    _assert_equals_dense(scene, marched)
    hit, first, _, class_idx = marched
    ground = scene.class_ids.index(1)
    assert (first[hit & (class_idx == ground)] >= 3 + 6 + 12).any()
    assert not hit.all()                # rays that walk the whole range and miss


def test_march_on_windows_that_end_without_a_hit(monkeypatch):
    # a plate thinner than a step with its faces between two step points: the
    # forward ray's slab window is not empty, yet no step point is inside
    mount, pitch = 0.75, 0.4
    step = pitch * RAY_STEP_FRACTION
    plate = StaticElement(2, (0.2 * step, 2.0, 2.0), Pose(np.eye(3), (10.5 * step, 0.0, mount)))
    wall = StaticElement(2, (0.2, 4.0, 2.0), Pose(np.eye(3), (3.0, 0.0, mount)))
    scene = _small_scene(pitch, mount, 60.0, 9, 5, [plate, wall])
    origin, dirs = _ray_grid(scene.cameras[0])
    centre = 2 * 9 + 4                                    # the forward ray
    lo, hi = _slab_steps(origin - plate.pose.translation, dirs[centre:centre + 1],
                         plate.size / 2.0, step, _ray_steps(scene.grid)[1].size)
    assert hi[0] > lo[0]
    for widen in (False, True):
        marched = _march_with_windows(monkeypatch, scene, widen)
        _assert_equals_dense(scene, marched)
        hit, _, _, class_idx = marched
        assert hit[centre] and class_idx[centre] == 1    # the wall behind the gap
        assert not plate.contains(marched[2][centre][None, :])[0]


def test_march_on_windows_capped_by_an_earlier_elements_hit(monkeypatch):
    # a box on a ground slab: the box comes first, and the rays it stops
    # would reach the ground behind it, past their cap
    mount, pitch = 0.75, 0.4
    ground = StaticElement(1, (8.0, 4.0, 0.2), Pose(np.eye(3), (4.0, 0.0, -0.1)))
    box = TrackedBox(1, 3, (0.5, 0.5, 0.5), {0: Pose(np.eye(3), (2.0, 0.0, 0.25))})
    scene = _small_scene(pitch, mount, 60.0, 9, 5, [ground], [box])
    origin, dirs = _ray_grid(scene.cameras[0])
    _, ts = _ray_steps(scene.grid)
    for widen in (False, True):
        marched = _march_with_windows(monkeypatch, scene, widen)
        _assert_equals_dense(scene, marched)
        hit, first, _, class_idx = marched
        stopped = np.flatnonzero(hit & (class_idx == scene.class_ids.index(3)))
        beyond = [ground.contains(origin + ts[first[p]:, None] * dirs[p]).any() for p in stopped]
        assert any(beyond)


# --- pose lists read in one pass ------------------------------------------------


def _faulty(kind: str, pose: dict) -> dict:
    rot, trans = list(pose["rotation"]), list(pose["translation"])
    if kind == "nan":
        rot[4] = float("nan")
    elif kind == "nan-translation":
        trans[2] = float("nan")
    elif kind == "wrong-size":
        rot = rot[:8]
    elif kind == "short-translation":
        trans = trans[:2]
    elif kind == "non-orthonormal":
        rot = [2.0 * x for x in rot]
    elif kind == "reflection":
        rot = rot[3:6] + rot[:3] + rot[6:]                # two rows swapped
    elif kind == "true":
        trans[0] = True
    elif kind == "huge-integer":
        rot[0] = 10**400
    elif kind == "18-entries":
        rot = rot + rot
    elif kind == "12-entries":
        rot = rot + rot[:3]
    elif kind == "6-entries":
        rot = rot[:6]
    return {"rotation": rot, "translation": trans}


POSE_FAULTS = ("nan", "nan-translation", "wrong-size", "short-translation", "non-orthonormal",
               "reflection", "true", "huge-integer", "18-entries", "12-entries", "6-entries")


def _pose_list(obj: dict, where: str) -> list:
    """The JSON poses of the ego trajectory or of the stream box, in order."""
    if where == "ego_trajectory":
        return obj["ego_trajectory"]
    return list(obj["boxes"][0]["poses"].values())


def _with_poses(obj: dict, where: str, poses: list) -> dict:
    obj = json.loads(json.dumps(obj))
    if where == "ego_trajectory":
        obj["ego_trajectory"] = poses
    else:
        table = obj["boxes"][0]["poses"]
        obj["boxes"][0]["poses"] = dict(zip(table, poses))
    return obj


def _one_at_a_time_error(poses: list) -> str:
    """The scene loader's message for the first pose that reading the poses
    one at a time refuses."""
    try:
        for pose in poses:
            pose_from_json_reference(pose)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        return f"malformed scene description: {exc}"
    raise AssertionError("no pose is refused")


def _load_error(obj: dict) -> str:
    with pytest.raises(ContractViolation) as info:
        SceneSpec.from_json(obj)
    return str(info.value)


@pytest.mark.parametrize("where", ["ego_trajectory", "boxes"])
def test_pose_lists_read_in_one_pass_equal_poses_read_one_at_a_time(where):
    obj = preset_scene("stream", seed=4).to_json()
    raw = _pose_list(obj, where)
    scene = SceneSpec.from_json(obj)
    got = scene.ego_trajectory if where == "ego_trajectory" else list(scene.boxes[0].poses.values())
    assert len(got) == len(raw) == 12
    for pose, want in zip(got, map(pose_from_json_reference, raw)):
        assert pose.rotation.tobytes() == want.rotation.tobytes()
        assert pose.translation.tobytes() == want.translation.tobytes()


@pytest.mark.parametrize("where", ["ego_trajectory", "boxes"])
@pytest.mark.parametrize("kind", POSE_FAULTS)
def test_a_bad_pose_in_a_list_gives_the_one_at_a_time_message(where, kind):
    obj = preset_scene("stream", seed=4).to_json()
    raw = _pose_list(obj, where)
    for k in (0, 5, len(raw) - 1):
        poses = list(raw)
        poses[k] = _faulty(kind, raw[k])
        want = _one_at_a_time_error(poses)
        if kind in ("true", "huge-integer"):        # refused, not coerced or overflowing
            assert "must be a finite number" in want
        assert _load_error(_with_poses(obj, where, poses)) == want, (k, want)


@pytest.mark.parametrize("where", ["ego_trajectory", "boxes"])
def test_the_first_of_two_bad_poses_gives_the_message(where):
    # a fault found per pose (size, type, finiteness) and one found by the
    # stacked rotation test, in either order
    obj = preset_scene("stream", seed=4).to_json()
    raw = _pose_list(obj, where)
    for early in POSE_FAULTS:
        for late in POSE_FAULTS:
            poses = list(raw)
            poses[2] = _faulty(early, raw[2])
            poses[7] = _faulty(late, raw[7])
            want = _one_at_a_time_error(poses)
            assert want == _one_at_a_time_error(poses[:3])      # pose 2's fault
            assert _load_error(_with_poses(obj, where, poses)) == want, (early, late)


@pytest.mark.parametrize("where", ["ego_trajectory", "boxes"])
def test_rotation_sizes_that_fill_a_stacked_reshape_give_the_one_at_a_time_message(where):
    # every pose with 18 entries, or 12 and 6 entries in adjacent poses, hold
    # as many numbers in all as a list of valid poses or twice as many
    obj = preset_scene("stream", seed=4).to_json()
    raw = _pose_list(obj, where)
    lists = [[_faulty("18-entries", pose) for pose in raw]]
    for k in (0, 5, len(raw) - 2):
        for first, second in (("12-entries", "6-entries"), ("6-entries", "12-entries")):
            poses = list(raw)
            poses[k], poses[k + 1] = _faulty(first, raw[k]), _faulty(second, raw[k + 1])
            lists.append(poses)
    for poses in lists:
        want = _one_at_a_time_error(poses)
        assert "reshape" in want
        assert _load_error(_with_poses(obj, where, poses)) == want


@pytest.mark.parametrize("key", ["01", "-3", "1.0", " 1", "x", "", "١"])
def test_a_box_frame_key_must_be_written_as_to_json_writes_it(key):
    obj = preset_scene("stream", seed=4).to_json()
    table = obj["boxes"][0]["poses"]
    table[key] = table["1"]
    assert "box frame key" in _load_error(obj)
    del table[key]
    assert sorted(SceneSpec.from_json(obj).boxes[0].poses) == list(range(12))
