import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewocc.errors import ContractViolation
from viewocc.flow_annotation import GridSpec, TrackedBox
from viewocc.geometry import Pose
from viewocc.scene_sim import (RAY_STEP_FRACTION, SceneClass, SceneSpec, StaticElement,
                               build_rig, load_scene, observe, preset_scene,
                               render_all_cameras, render_camera_features,
                               rotated_about_z, save_scene, scene_ground_truth,
                               with_feature_channels, _free_points, _march, _ray_grid,
                               _slab_steps)

from helpers import (box_membership, dense_march, dense_observe, grid_points, project_points,
                     scene_ground_truth_reference, slab_steps_reference, surface_feature)


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
    free = grid_points(scene.grid, np.stack(_free_points(scene.grid, origin, dirs, first),
                                            axis=-1))
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
