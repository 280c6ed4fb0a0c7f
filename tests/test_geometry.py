import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewocc import geometry
from viewocc.errors import ContractViolation
from viewocc.geometry import (CameraModel, Pose, project_rig_jacobian, project_rig_sparse,
                              relative_pose, rotation_z, view_rotations)
from viewocc.scene_sim import preset_scene

from helpers import (altitude_angle, altitude_rotation, central_diff, pinhole_project,
                     project_jacobian, project_points, project_rig, rel_err, view_angle,
                     view_rotation)

finite_coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


# --- pose algebra ------------------------------------------------------------


def test_pose_compose_hand_value():
    # T1 = Rz(90 deg) then translate (1,0,0); T2 = translate (0,1,0)
    # (T1 o T2)(origin) = T1((0,1,0)) = (-1,0,0) + (1,0,0) = (0,0,0)
    t1 = Pose.from_z_rotation(np.pi / 2.0, (1.0, 0.0, 0.0))
    t2 = Pose(np.eye(3), (0.0, 1.0, 0.0))
    out = t1.compose(t2).apply(np.zeros(3))
    np.testing.assert_allclose(out, [0.0, 0.0, 0.0], atol=1e-15)


def test_relative_pose_maps_previous_into_current():
    # ego moved +1 m in x: the previous origin sits 1 m behind the current one
    current = Pose(np.eye(3), (1.0, 0.0, 0.0))
    previous = Pose.identity()
    rel = relative_pose(current, previous)
    np.testing.assert_allclose(rel.apply(np.zeros(3)), [-1.0, 0.0, 0.0], atol=1e-15)


def test_pose_rejects_non_rotation():
    with pytest.raises(ContractViolation):
        Pose(np.eye(3) * 2.0, np.zeros(3))


@pytest.mark.parametrize("rotation, message", [
    (np.diag([1.0, 1.0, -1.0]), "rotation has negative determinant (reflection)"),
    (rotation_z(0.4)[[1, 0, 2]], "rotation has negative determinant (reflection)"),
    (np.eye(3) * 2.0, "rotation is not orthonormal (max deviation 3.000e+00)"),
    (rotation_z(0.4) + 1e-6, "rotation is not orthonormal (max deviation"),
])
def test_pose_rejects_reflections_and_non_orthonormal_matrices(rotation, message):
    with pytest.raises(ContractViolation) as info:
        Pose(rotation, np.zeros(3))
    assert str(info.value).startswith(message)
    with pytest.raises(ContractViolation) as info:
        Pose.from_json({"rotation": rotation.reshape(-1).tolist(), "translation": [0, 0, 0]})
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("rotation, translation, field", [
    (np.eye(3, dtype=bool), np.zeros(3), "Pose.rotation"),
    (np.eye(3), np.array([True, False, False]), "Pose.translation"),
    (np.eye(3), [np.True_, 0.0, 0.0], "Pose.translation"),
])
def test_pose_built_in_code_refuses_boolean_arrays_and_entries(rotation, translation, field):
    # np.asarray would coerce each to a valid pose
    with pytest.raises(ContractViolation, match=f"^{field} must be a finite number, got "):
        Pose(rotation, translation)
    Pose(rotation.astype(float), np.asarray(translation, dtype=float))    # as floats, it builds


def test_pose_from_json_reports_a_non_finite_rotation_before_its_size():
    for rotation in ([1.0] * 8 + [float("nan")], [float("inf")] * 4):
        with pytest.raises(ContractViolation, match="Pose.rotation: contains non-finite"):
            Pose.from_json({"rotation": rotation, "translation": [0, 0, 0]})
    with pytest.raises(ValueError, match="reshape"):
        Pose.from_json({"rotation": [1.0] * 8, "translation": [0, 0, 0]})


def test_compose_and_inverse_of_checked_poses_run_no_check(monkeypatch):
    # each pose deviates 0.9e-9 from orthonormal, within ROTATION_TOL; the
    # product of one with the other's inverse deviates 1.8e-9, past it
    a = Pose(rotation_z(0.3) + 0.45e-9 * np.eye(3), (1.0, -2.0, 0.5))
    b = Pose(rotation_z(-1.1) + 0.45e-9 * np.eye(3), (0.2, 0.4, -0.1))
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_check_rotations", "as_float_array"):
        monkeypatch.setattr(geometry, name, counted(getattr(geometry, name)))
    for got, rot, trans in ((a.compose(b), a.rotation @ b.rotation,
                             a.rotation @ b.translation + a.translation),
                            (a.inverse(), a.rotation.T, -a.rotation.T @ a.translation),
                            (a.inverse().compose(b), a.rotation.T @ b.rotation,
                             a.rotation.T @ (b.translation - a.translation))):
        assert isinstance(got, Pose)
        np.testing.assert_allclose(got.rotation, rot, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.translation, trans, rtol=0, atol=1e-15)
    assert calls == []
    drift = a.inverse().compose(b).rotation
    assert np.abs(drift @ drift.T - np.eye(3)).max() > geometry.ROTATION_TOL


@given(st.floats(-np.pi, np.pi), finite_coord, finite_coord, finite_coord)
@settings(max_examples=40, deadline=None)
def test_pose_inverse_round_trip(theta, x, y, z):
    pose = Pose.from_z_rotation(theta, (x, y, z))
    p = np.array([0.7, -1.3, 2.1])
    np.testing.assert_allclose(pose.inverse().apply(pose.apply(p)), p, atol=1e-9)


def test_pose_json_round_trip():
    pose = Pose.from_z_rotation(0.37, (1.5, -2.0, 0.25))
    again = Pose.from_json(pose.to_json())
    np.testing.assert_array_equal(again.rotation, pose.rotation)
    np.testing.assert_array_equal(again.translation, pose.translation)


# --- view-coordinate frame ---------------------------------------------------


def test_view_angle_hand_values():
    assert abs(view_angle(np.array([1.0, 1.0, 0.0])) - np.pi / 4.0) < 1e-15
    assert view_angle(np.zeros(3)) == 0.0
    assert abs(view_angle(np.array([-1.0, 0.0, 0.0])) - np.pi) < 1e-15


def test_altitude_angle_hand_values():
    assert abs(altitude_angle(np.array([1.0, 0.0, 1.0])) - np.pi / 4.0) < 1e-15
    assert altitude_angle(np.zeros(3)) == 0.0
    assert abs(altitude_angle(np.array([0.0, 0.0, 2.0])) - np.pi / 2.0) < 1e-15


def test_rotation_z_hand_value():
    out = rotation_z(np.pi / 2.0) @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_altitude_rotation_hand_value():
    # phi = 45 deg sends x-hat to (cos phi, 0, sin phi)
    out = altitude_rotation(np.pi / 4.0) @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [np.sqrt(0.5), 0.0, np.sqrt(0.5)], atol=1e-15)


@given(finite_coord, finite_coord, finite_coord)
@settings(max_examples=60, deadline=None)
def test_one_dof_rotation_sends_xhat_to_azimuth(x, y, z):
    p = np.array([x, y, z])
    if np.hypot(x, y) < 1e-6:
        return
    rot = view_rotation(p, "one-dof")
    theta = view_angle(p)
    np.testing.assert_allclose(rot @ np.array([1.0, 0.0, 0.0]),
                               [np.cos(theta), np.sin(theta), 0.0], atol=1e-12)


@given(finite_coord, finite_coord, finite_coord)
@settings(max_examples=60, deadline=None)
def test_two_dof_rotation_sends_xhat_to_radial_direction(x, y, z):
    p = np.array([x, y, z])
    r = np.linalg.norm(p)
    if r < 1e-6:
        return
    rot = view_rotation(p, "two-dof")
    np.testing.assert_allclose(rot @ np.array([r, 0.0, 0.0]), p, atol=1e-9)


def test_ego_mode_is_identity():
    np.testing.assert_array_equal(view_rotation(np.array([2.0, -1.0, 0.5]), "ego"), np.eye(3))


def test_view_rotation_covariance_under_z_rotation():
    # rotating the query point rotates the offset frame with it
    p = np.array([1.7, -0.4, 0.3])
    alpha = 0.8
    q = rotation_z(alpha)
    for mode in ("one-dof", "two-dof"):
        lhs = view_rotation(q @ p, mode)
        rhs = q @ view_rotation(p, mode)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_view_rotations_batch_matches_single():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(7, 3))
    for mode in ("one-dof", "two-dof", "ego"):
        batch = view_rotations(pts, mode)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(batch[i], view_rotation(p, mode), atol=1e-14)


def test_view_frame_pole_accepts_vertical():
    phi = altitude_angle(np.array([0.0, 0.0, 3.0]))
    assert abs(phi - np.pi / 2.0) < 1e-15


# --- pinhole projection ------------------------------------------------------
# fx = fy = 30, cx = 23.5, cy = 17.5, 48 x 36, identity extrinsics.
# Point (0.1, -0.2, 2.0) in camera coordinates:
#   u = 30 * 0.1 / 2 + 23.5 = 25;  v = 30 * -0.2 / 2 + 17.5 = 14.5


def _plain_camera() -> CameraModel:
    return CameraModel(fx=30.0, fy=30.0, cx=23.5, cy=17.5, width=48, height=36,
                       extrinsics=Pose.identity(), name="test")


def test_projection_hand_value():
    cam = _plain_camera()
    uv, depth, ok = pinhole_project(cam, np.array([0.1, -0.2, 2.0]))
    assert ok
    np.testing.assert_allclose(uv, [25.0, 14.5], atol=1e-12)
    assert abs(depth - 2.0) < 1e-15


def test_projection_behind_camera_invalid():
    cam = _plain_camera()
    uv, depth, ok = pinhole_project(cam, np.array([0.0, 0.0, -1.0]))
    assert not ok
    np.testing.assert_array_equal(uv, [0.0, 0.0])


def test_projection_bounds_are_closed():
    cam = _plain_camera()
    # u = 47 exactly: x/z = (47 - 23.5) / 30
    p = np.array([(47.0 - 23.5) / 30.0, 0.0, 1.0])
    _, _, ok = pinhole_project(cam, p)
    assert ok
    p_out = np.array([(47.0 - 23.5) / 30.0 + 1e-9, 0.0, 1.0])
    _, _, ok_out = pinhole_project(cam, p_out)
    assert not ok_out


def test_projection_with_extrinsics():
    # camera shifted 1 m along ego x, looking along ego z (identity rotation):
    # ego point (1, 0, 2) lands on the optical axis
    cam = CameraModel(fx=30.0, fy=30.0, cx=23.5, cy=17.5, width=48, height=36,
                      extrinsics=Pose(np.eye(3), (-1.0, 0.0, 0.0)), name="t")
    uv, depth, ok = pinhole_project(cam, np.array([1.0, 0.0, 2.0]))
    assert ok
    np.testing.assert_allclose(uv, [23.5, 17.5], atol=1e-12)


def test_projection_jacobian_matches_fd():
    rng = np.random.default_rng(9)
    cam = CameraModel(fx=28.0, fy=31.0, cx=23.5, cy=17.5, width=48, height=36,
                      extrinsics=Pose.from_z_rotation(0.3, (0.1, -0.2, 0.05)), name="t")
    for _ in range(5):
        p = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(1.5, 4.0)])
        p = cam.extrinsics.inverse().apply(p)  # keep the point in front
        jac = project_jacobian(cam, p[None, :])[0]
        for out_axis in range(2):
            for in_axis in range(3):
                fd = central_diff(lambda: float(pinhole_project(cam, p)[0][out_axis]),
                                  p, (in_axis,))
                assert rel_err(jac[out_axis, in_axis], fd) < 1e-6


def test_project_points_batch_matches_single():
    cam = _plain_camera()
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(10, 3)) + np.array([0.0, 0.0, 2.0])
    uv, depth, ok = project_points(cam, pts)
    for i, p in enumerate(pts):
        uv1, d1, ok1 = pinhole_project(cam, p)
        np.testing.assert_allclose(uv[i], uv1, atol=1e-13)
        assert ok[i] == ok1


def _on_image_edge(cam, axis: int) -> np.ndarray:
    """An ego point whose pixel coordinate `axis` (0: u, 1: v) projects to
    exactly width-1 or height-1: start from the camera-frame point on that
    edge, then step one ego coordinate an ulp at a time onto it."""
    edge = (cam.width - 1.0, cam.height - 1.0)[axis]
    q = np.array([0.0, 0.0, 2.0])
    q[axis] = 2.0 * (edge - (cam.cx, cam.cy)[axis]) / (cam.fx, cam.fy)[axis]
    p = cam.extrinsics.inverse().apply(q)
    slope = project_jacobian(cam, p)[axis]
    d = int(np.argmax(np.abs(slope)))
    for _ in range(64):
        at = project_points(cam, p)[0][axis]
        if at == edge:
            return p
        p[d] = np.nextafter(p[d], np.inf if (edge - at) * slope[d] > 0 else -np.inf)
    raise AssertionError(f"no ego point lands exactly on pixel edge {edge}")


@pytest.mark.parametrize("preset", ["training", "boundary"])
def test_project_rig_matches_project_points_bit_for_bit(preset):
    rig = preset_scene(preset).cameras
    rng = np.random.default_rng(11)
    # points all around the rig, so every camera has some behind it
    pts = rng.uniform(-4.0, 4.0, (60, 3)) + np.array([0.0, 0.0, 1.0])
    edges = [_on_image_edge(cam, axis) for cam in rig for axis in (0, 1)]
    pts = np.concatenate([pts, edges]).reshape(-1, 4, 3)
    uv, cam_pts, in_view = project_rig(rig, pts)
    assert uv.shape == pts.shape[:-1] + (len(rig), 2)
    assert cam_pts.shape == pts.shape[:-1] + (len(rig), 3)
    for j, cam in enumerate(rig):
        uv_j, depth_j, in_view_j = project_points(cam, pts)
        assert uv[..., j, :].tobytes() == uv_j.tobytes()
        assert cam_pts[..., j, 2].tobytes() == depth_j.tobytes()
        assert in_view[..., j].tobytes() == in_view_j.tobytes()
        assert (depth_j < 0.0).any() and in_view_j.any()
    flat = in_view.reshape(-1, len(rig))
    for i, (j, axis) in enumerate((j, axis) for j in range(len(rig)) for axis in (0, 1)):
        assert flat[60 + i, j]            # the edge pixel is inside the closed bound


@pytest.mark.parametrize("preset", ["training", "boundary"])
def test_project_rig_jacobian_matches_project_jacobian_bit_for_bit(preset):
    rig = preset_scene(preset).cameras
    pts = np.random.default_rng(12).uniform(-4.0, 4.0, (400, 3)) + np.array([0.0, 0.0, 1.0])
    _, cam_pts, in_view = project_rig(rig, pts)
    point, cams = np.nonzero(in_view)
    jac = project_rig_jacobian(rig, cam_pts[in_view], cams)
    assert jac.shape == (point.size, 2, 3)
    for j, cam in enumerate(rig):
        assert (cams == j).any()
        want = project_jacobian(cam, pts[point[cams == j]])
        assert jac[cams == j].tobytes() == want.tobytes()


# --- the frustum cull --------------------------------------------------------

# the 24 rotations whose entries are 0 and +-1: they move a point exactly, so a
# camera-frame point picked on a pixel edge is the one `project_rig` computes
_AXIS_ROTATIONS = [r for r in (np.eye(3)[list(perm)] * np.array(signs)[:, None]
                               for perm in itertools.permutations(range(3))
                               for signs in itertools.product((1.0, -1.0), repeat=3))
                   if np.linalg.det(r) > 0]


def _cull_rig(rng):
    """Three cameras of random pose and three axis-aligned ones at the
    origin, all of random size and with intrinsics in steps of 1/8; the
    first axis-aligned camera's principal point lies outside its image."""
    rig = []
    for j in range(6):
        width, height = (int(n) for n in rng.integers(4, 40, 2))
        fx, fy = (float(n) / 8.0 for n in rng.integers(40, 500, 2))
        cx, cy = float(rng.integers(0, 8 * width)) / 8.0, float(rng.integers(0, 8 * height)) / 8.0
        if j < 3:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            pose = Pose(q * np.sign(np.linalg.det(q)), rng.uniform(-2.0, 2.0, 3))
        else:
            pose = Pose(_AXIS_ROTATIONS[int(rng.integers(len(_AXIS_ROTATIONS)))], np.zeros(3))
        if j == 3:
            cx, cy = -3.25, height + 2.5
        rig.append(CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height,
                               extrinsics=pose))
    return rig


def _edge_points(cam):
    """(ego point, kind) pairs for an axis-aligned camera at the origin: u or
    v exactly on each image edge ("edge"), then stepped outward one ulp of
    the larger of its two addends at a time until it is out of view
    ("outside"); depth exactly
    1e-12 ("eps") and one ulp more ("past eps") at the image centre; and
    depth zero or negative ("behind")."""
    focal, centre = np.array([cam.fx, cam.fy]), np.array([cam.cx, cam.cy])
    middle = (np.array([cam.width, cam.height]) - 1.0) / 2.0 - centre
    out = []
    for axis, size in enumerate((cam.width, cam.height)):
        for edge, outward in ((0.0, -1.0), (size - 1.0, 1.0)):
            # at depth f, the offset edge - c multiplies and divides exactly
            q = np.append(middle * focal[axis] / focal, focal[axis])
            q[axis] = edge - centre[axis]
            out.append((cam.extrinsics.rotation.T @ q, "edge"))
            for _ in range(64):
                q[axis] += outward * np.spacing(max(abs(q[axis]), abs(centre[axis])))
                if not project_rig([cam], cam.extrinsics.rotation.T @ q)[2][0]:
                    break
            out.append((cam.extrinsics.rotation.T @ q, "outside"))
    for depth, kind in ((1e-12, "eps"), (np.nextafter(1e-12, np.inf), "past eps")):
        out.append((cam.extrinsics.rotation.T @ np.append(middle * depth / focal, depth), kind))
    for q in ((0.0, 0.0, 0.0), (0.0, 0.0, -0.0), (0.1, -0.1, -1.5), (3.0, 2.0, -1e-12)):
        out.append((cam.extrinsics.rotation.T @ np.array(q), "behind"))
    return out


def _far_points(rig, rng):
    """Points near 1e150: one on each camera's optical centre line and ten
    in random directions."""
    pts = [cam.extrinsics.inverse().apply(
        1e150 * np.array([((cam.width - 1.0) / 2.0 - cam.cx) / cam.fx,
                          ((cam.height - 1.0) / 2.0 - cam.cy) / cam.fy, 1.0])) for cam in rig]
    return np.concatenate([pts, 1e150 * rng.normal(size=(10, 3))])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_project_rig_sparse_equals_dense_project_rig_bit_for_bit(seed):
    rng = np.random.default_rng([seed, 0xC0])
    rig = _cull_rig(rng)
    # maps larger and smaller than the random cameras' images; the
    # axis-aligned cameras' maps are their images, so their edges count
    shapes = [(rig[0].height - 1, rig[0].width + 2, 4), (rig[1].height + 3, rig[1].width - 1, 4),
              (rig[2].height, rig[2].width - 1, 4)] + [(c.height, c.width, 4) for c in rig[3:]]
    edges = [(j, p, kind) for j, cam in enumerate(rig[3:], 3) for p, kind in _edge_points(cam)]
    near = rng.uniform(-6.0, 6.0, (2000, 3))
    far = _far_points(rig, rng)
    pts = np.concatenate([near, far, [p for _, p, _ in edges]])[:, None, :]   # (N, 1, 3)

    uv, cam_pts, in_view = project_rig(rig, pts)
    map_h, map_w = np.array([s[:2] for s in shapes]).T
    u_all, v_all = uv[..., 0], uv[..., 1]
    valid = (in_view & (u_all >= 0.0) & (u_all <= map_w - 1.0)
             & (v_all >= 0.0) & (v_all <= map_h - 1.0))
    index, got_pts, u, v = project_rig_sparse(rig, pts, shapes)
    assert index.dtype == np.int64 and index.tobytes() == np.flatnonzero(valid).tobytes()
    assert got_pts.tobytes() == cam_pts.reshape(-1, 3)[index].tobytes()
    assert u.tobytes() == u_all.reshape(-1)[index].tobytes()
    assert v.tobytes() == v_all.reshape(-1)[index].tobytes()

    # the inputs reach every case
    flat = valid.reshape(-1, len(rig))
    assert flat[:2000].any() and not flat[:2000].all()
    assert flat[range(2000, 2000 + len(rig)), range(len(rig))].all()     # from 1e150 away
    first = 2000 + far.shape[0]
    want = {"edge": True, "outside": False, "eps": False, "past eps": True, "behind": False}
    for i, (j, _, kind) in enumerate(edges):
        assert flat[first + i, j] == want[kind], (j, kind)
    for j in range(3, 6):
        on_edge = [first + i for i, (jj, _, kind) in enumerate(edges)
                   if (jj, kind) == (j, "edge")]
        assert {0.0, rig[j].width - 1.0} <= set(u_all[on_edge, 0, j])
        assert {0.0, rig[j].height - 1.0} <= set(v_all[on_edge, 0, j])


def test_camera_json_round_trip():
    cam = CameraModel(fx=30.0, fy=29.0, cx=23.5, cy=17.5, width=48, height=36,
                      extrinsics=Pose.from_z_rotation(1.1, (0.0, 0.0, 1.5)), name="cam3")
    again = CameraModel.from_json(cam.to_json())
    assert again.name == "cam3"
    np.testing.assert_array_equal(again.extrinsics.rotation, cam.extrinsics.rotation)
    assert (again.fx, again.fy, again.width, again.height) == (30.0, 29.0, 48, 36)
