import numpy as np
import pytest

from viewocc.errors import ContractViolation
from viewocc.flow_annotation import (FlowField, GridSpec, TrackedBox, flow_vector,
                                     generate_flow_field, map_point_back, reduce_bev_flow)
from viewocc.geometry import Pose


def _grid(n=8, pitch=0.25, z=4) -> GridSpec:
    half = n * pitch / 2.0
    return GridSpec((z, n, n), pitch, (-half, -half, 0.0))


def test_voxel_centers_axis_mapping():
    grid = GridSpec((2, 3, 4), 0.5, (1.0, 2.0, 3.0))
    centers = grid.voxel_centers()
    assert centers.shape == (2, 3, 4, 3)
    # first axis is z, second y, third x; origin is the metric min corner
    np.testing.assert_allclose(centers[0, 0, 0], [1.25, 2.25, 3.25], atol=1e-15)
    np.testing.assert_allclose(centers[1, 2, 3], [1.0 + 3.5 * 0.5, 2.0 + 2.5 * 0.5,
                                                  3.0 + 1.5 * 0.5], atol=1e-15)


def test_map_point_back_hand_value():
    # object translated +1 m in x between frames: today's (1,0,0) was at origin
    o_prev = Pose.identity()
    o_t = Pose(np.eye(3), (1.0, 0.0, 0.0))
    p_prev = map_point_back(o_t, o_prev, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(p_prev, [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(flow_vector(np.array([1.0, 0.0, 0.0]), p_prev, 0.5),
                               [2.0, 0.0, 0.0], atol=1e-15)


def test_voxelize_center_in_box_is_inclusive():
    grid = GridSpec((1, 1, 2), 0.5, (0.0, 0.0, 0.0))  # centers x = 0.25, 0.75
    box = TrackedBox(1, 3, (0.5, 0.5, 0.5), {0: Pose(np.eye(3), (0.5, 0.25, 0.25))})
    inside = box.contains(box.poses[0], grid.voxel_centers())
    # both centers sit exactly half-extent from the box center: both included
    assert inside[0, 0, 0] and inside[0, 0, 1]


def test_rotating_box_chord_speeds():
    # box spinning about its own vertical axis: per-voxel speed is the chord
    # length 2 r sin(w dt / 2) / dt at radius r from the axis
    omega, dt = 0.5, 0.5
    center = np.array([0.3, -0.2, 0.5])
    poses = {0: Pose.from_z_rotation(0.3, center),
             1: Pose.from_z_rotation(0.3 + omega * dt, center)}
    box = TrackedBox(1, 3, (1.1, 0.7, 0.9), poses)
    grid = _grid(n=12, pitch=0.2, z=6)
    field = generate_flow_field([box], 1, grid, dt)
    assert field.occupied.any()
    centers = grid.voxel_centers()
    r = np.hypot(centers[..., 0] - center[0], centers[..., 1] - center[1])
    expect = 2.0 * r * np.sin(omega * dt / 2.0) / dt
    speeds = np.linalg.norm(field.flow, axis=-1)
    occ = field.occupied
    np.testing.assert_allclose(speeds[occ], expect[occ], atol=1e-9)
    # flow never leaves the horizontal plane for a yaw-only motion
    np.testing.assert_allclose(field.flow[..., 2], 0.0, atol=1e-12)


def test_object_flow_uses_center_velocity():
    omega, dt = 0.5, 0.5
    center = np.array([0.3, -0.2, 0.5])
    poses = {0: Pose.from_z_rotation(0.0, center),
             1: Pose.from_z_rotation(omega * dt, center)}
    box = TrackedBox(1, 3, (1.1, 0.7, 0.9), poses)
    grid = _grid(n=12, pitch=0.2, z=6)
    field = generate_flow_field([box], 1, grid, dt, mode="object-flow")
    # the center does not move, so object-flow is identically zero
    np.testing.assert_array_equal(field.flow, np.zeros_like(field.flow))
    assert field.occupied.any()


def test_pure_translation_modes_agree():
    dt = 0.5
    v = np.array([0.6, -0.4, 0.0])
    poses = {0: Pose(np.eye(3), (0.0, 0.1, 0.4)),
             1: Pose(np.eye(3), (0.0, 0.1, 0.4) + v * dt)}
    box = TrackedBox(2, 3, (0.9, 0.9, 0.7), poses)
    grid = _grid(n=10, pitch=0.25, z=4)
    occ_field = generate_flow_field([box], 1, grid, dt)
    obj_field = generate_flow_field([box], 1, grid, dt, mode="object-flow")
    assert occ_field.occupied.any()
    occ = occ_field.occupied
    np.testing.assert_allclose(occ_field.flow[occ], np.tile(v, (occ.sum(), 1)),
                               atol=1e-12)
    np.testing.assert_allclose(occ_field.flow, obj_field.flow, atol=1e-12)
    np.testing.assert_array_equal(occ_field.occupied, obj_field.occupied)


def test_overlap_resolves_to_nearest_center_then_lower_track():
    dt = 0.5
    size = (2.0, 2.0, 2.0)
    # equal distance from the probe voxel: lower track id wins
    a = TrackedBox(1, 3, size, {0: Pose(np.eye(3), (-0.4, 0.0, 0.5)),
                                1: Pose(np.eye(3), (-0.4 + 0.1, 0.0, 0.5))})
    b = TrackedBox(2, 3, size, {0: Pose(np.eye(3), (0.4, 0.0, 0.5)),
                                1: Pose(np.eye(3), (0.4 - 0.2, 0.0, 0.5))})
    grid = GridSpec((1, 1, 1), 1.0, (-0.5, -0.5, 0.0))  # one voxel center (0,0,0.5)
    field = generate_flow_field([a, b], 1, grid, dt)
    assert field.occupied[0, 0, 0]
    # a moved +0.1/dt = +0.2 m/s; b moved -0.4 m/s; the tie at |0.4| goes to a...
    # but at frame 1 a's center is 0.3 away and b's is 0.2 away: b owns it
    np.testing.assert_allclose(field.flow[0, 0, 0], [-0.4, 0.0, 0.0], atol=1e-12)

    # exact tie: symmetric centers, lower track id owns the voxel
    a2 = TrackedBox(1, 3, size, {0: Pose(np.eye(3), (-0.4, 0.0, 0.5)),
                                 1: Pose(np.eye(3), (-0.4, 0.0, 0.5))})
    b2 = TrackedBox(2, 3, size, {0: Pose(np.eye(3), (0.4 - 0.1, 0.0, 0.5)),
                                 1: Pose(np.eye(3), (0.4, 0.0, 0.5))})
    field2 = generate_flow_field([a2, b2], 1, grid, dt)
    np.testing.assert_allclose(field2.flow[0, 0, 0], [0.0, 0.0, 0.0], atol=1e-12)
    # the same tie with the higher track id listed first
    field3 = generate_flow_field([b2, a2], 1, grid, dt)
    np.testing.assert_allclose(field3.flow[0, 0, 0], [0.0, 0.0, 0.0], atol=1e-12)


def test_new_track_gets_zero_flow():
    box = TrackedBox(5, 3, (0.8, 0.8, 0.8), {1: Pose(np.eye(3), (0.0, 0.0, 0.4))})
    grid = _grid(n=8, pitch=0.25, z=4)
    field = generate_flow_field([box], 1, grid, 0.5)
    assert field.occupied.any()
    np.testing.assert_array_equal(field.flow, np.zeros_like(field.flow))


def test_frame_zero_has_no_motion_history():
    box = TrackedBox(1, 3, (0.8, 0.8, 0.8), {0: Pose(np.eye(3), (0.0, 0.0, 0.4)),
                                             1: Pose(np.eye(3), (0.5, 0.0, 0.4))})
    grid = _grid(n=8, pitch=0.25, z=4)
    field = generate_flow_field([box], 0, grid, 0.5)
    assert field.occupied.any()
    np.testing.assert_array_equal(field.flow, np.zeros_like(field.flow))


def test_flow_field_rejects_flow_off_occupancy():
    grid = GridSpec((1, 1, 1), 1.0, (0.0, 0.0, 0.0))
    flow = np.ones((1, 1, 1, 3))
    with pytest.raises(ContractViolation):
        FlowField(grid=grid, flow=flow, occupied=np.zeros((1, 1, 1), dtype=bool),
                  category=np.zeros((1, 1, 1), dtype=np.int64), foreground_classes=(3,))


def test_reduce_bev_column_mean_and_category_tie():
    grid = GridSpec((2, 1, 2), 0.5, (0.0, 0.0, 0.0))
    flow = np.zeros((2, 1, 2, 3))
    occupied = np.zeros((2, 1, 2), dtype=bool)
    category = np.zeros((2, 1, 2), dtype=np.int64)
    # column x=0: two foreground voxels with different flows and classes
    occupied[0, 0, 0] = occupied[1, 0, 0] = True
    flow[0, 0, 0] = [1.0, 0.0, 0.0]
    flow[1, 0, 0] = [0.0, 1.0, 0.0]
    category[0, 0, 0] = 4
    category[1, 0, 0] = 3
    field = FlowField(grid=grid, flow=flow, occupied=occupied, category=category,
                      foreground_classes=(3, 4))
    bev = reduce_bev_flow(field)
    assert bev.valid[0, 0] and not bev.valid[0, 1]
    np.testing.assert_allclose(bev.flow[0, 0], [0.5, 0.5], atol=1e-15)
    assert bev.category[0, 0] == 3  # tie in counts: smaller class id
    np.testing.assert_array_equal(bev.flow[0, 1], [0.0, 0.0])


def test_grid_spec_json_round_trip():
    grid = _grid()
    again = GridSpec.from_json(grid.to_json())
    assert tuple(again.shape) == tuple(grid.shape)
    assert again.pitch == grid.pitch
    np.testing.assert_array_equal(again.origin, grid.origin)
