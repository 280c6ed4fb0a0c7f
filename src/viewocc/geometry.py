"""Rigid poses, pinhole cameras, and the view-coordinate sampling frame.

Frames are right-handed with z up. A Pose stores a rotation matrix and a
translation and maps points from its source frame into its target frame as
`R @ p + t`. Camera extrinsics map ego-frame points into camera frame
(OpenCV axes: x right, y down, z forward); pixel coordinates follow the
sampling convention of `numerics` (u along width, v along height), and a
projection is in view iff depth > 0 and the pixel lands inside
[0, width-1] x [0, height-1].

The view-coordinate frame attaches to a reference point p: its azimuth
theta = arctan2(y, x) (zero at the origin) and altitude
phi = arctan2(z, hypot(x, y)) rotate learned offsets so that the offset
x-axis points along the view ray. Offsets rotated this way track the scene
under rotations about z, which is what the rotational-invariance suite
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blobio import count_field, name_field, number_entries, number_field
from .errors import ContractViolation, require
from .numerics import FLOAT, as_float_array, bilinear_valid

ROTATION_TOL = 1e-9
_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


def _check_rotations(rot: np.ndarray) -> None:
    """Raise if the finite matrix rot (3, 3) is not a rotation: not
    orthonormal within ROTATION_TOL, or a reflection."""
    err = float(np.abs(rot @ rot.T - _IDENTITY).max())
    if err > ROTATION_TOL:
        raise ContractViolation(f"rotation is not orthonormal (max deviation {err:.3e})")
    if np.linalg.det(rot) < 0.0:
        raise ContractViolation("rotation has negative determinant (reflection)")


@dataclass(frozen=True)
class Pose:
    """Rigid transform p_target = rotation @ p_source + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = as_float_array(self.rotation, shape=(3, 3), name="Pose.rotation")
        translation = as_float_array(self.translation, shape=(3,), name="Pose.translation")
        _check_rotations(rotation)
        vars(self).update(rotation=rotation, translation=translation)

    @classmethod
    def _checked(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        """A pose of arrays derived from checked poses, by compose and inverse."""
        pose = object.__new__(cls)
        vars(pose).update(rotation=rotation, translation=translation)
        return pose

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_z_rotation(cls, yaw: float, translation=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(rotation_z(yaw), np.asarray(translation, dtype=FLOAT))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        pts = np.asarray(points, dtype=FLOAT)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        return Pose._checked(self.rotation @ other.rotation,
                             self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rot_t = self.rotation.T
        return Pose._checked(rot_t, -rot_t @ self.translation)

    def to_json(self) -> dict:
        return {
            "rotation": [float(x) for x in self.rotation.reshape(-1)],
            "translation": [float(x) for x in self.translation],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Pose":
        """The pose of one JSON pose, checked in this order: the rotation's
        entries (`blobio.number_entries`); a wrongly sized rotation's
        non-finite entries, then its size; the translation's entries; then
        `Pose`'s own checks."""
        rot = np.asarray(number_entries(obj["rotation"], "Pose.rotation"), dtype=FLOAT)
        if rot.size != 9:
            as_float_array(rot, name="Pose.rotation")
        return cls(rot.reshape(3, 3), number_entries(obj["translation"], "Pose.translation"))


def in_box(pose: Pose, size: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Inclusive membership of points (..., 3) in the box of full extent
    `size` (3,) whose local frame `pose` maps into the points' frame.

    The three axis tests are and-ed column by column: a reduction over the
    length-3 axis costs many times more and gives the same booleans.
    """
    local = (np.asarray(points, dtype=FLOAT) - pose.translation) @ pose.rotation
    ok = np.abs(local) <= size / 2.0
    return ok[..., 0] & ok[..., 1] & ok[..., 2]


def relative_pose(current: Pose, previous: Pose) -> Pose:
    """Transform mapping previous-frame coordinates into the current frame.

    Both arguments are poses of the same rig in a shared world frame; the
    result is current^-1 composed with previous.
    """
    return current.inverse().compose(previous)


def rotation_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=FLOAT)


def view_rotations(points: np.ndarray, mode: str) -> np.ndarray:
    """Rotations applied to offsets at reference points (N, 3) for the given
    mode; returns (N, 3, 3)."""
    pts = np.asarray(points, dtype=FLOAT)
    n = pts.shape[0]
    if mode == "ego":
        return np.broadcast_to(np.eye(3, dtype=FLOAT), (n, 3, 3)).copy()
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    ct, st = np.cos(theta), np.sin(theta)
    rz = np.zeros((n, 3, 3), dtype=FLOAT)
    rz[:, 0, 0] = ct
    rz[:, 0, 1] = -st
    rz[:, 1, 0] = st
    rz[:, 1, 1] = ct
    rz[:, 2, 2] = 1.0
    if mode == "one-dof":
        return rz
    if mode == "two-dof":
        phi = np.arctan2(pts[:, 2], np.hypot(pts[:, 0], pts[:, 1]))
        cp, sp = np.cos(phi), np.sin(phi)
        ry = np.zeros((n, 3, 3), dtype=FLOAT)
        ry[:, 0, 0] = cp
        ry[:, 0, 2] = -sp
        ry[:, 1, 1] = 1.0
        ry[:, 2, 0] = sp
        ry[:, 2, 2] = cp
        return rz @ ry
    raise ContractViolation(f"unknown view-coordinate mode: {mode!r}")


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics, image size, and camera-from-ego extrinsics."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    extrinsics: Pose
    name: str = ""

    def __post_init__(self):
        for n in ("width", "height"):
            count_field(getattr(self, n), "CameraModel.image_size")
        for n in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, n, number_field(getattr(self, n), f"CameraModel.{n}"))
        name_field(self.name, "CameraModel.name")
        require(self.fx > 0 and self.fy > 0, "CameraModel: focal lengths must be positive")
        require(self.width >= 2 and self.height >= 2, "CameraModel: image must be at least 2x2")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "intrinsics": {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy},
            "image_size": [self.width, self.height],
            "extrinsics": self.extrinsics.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CameraModel":
        k, (width, height) = obj["intrinsics"], obj["image_size"]
        return cls(k["fx"], k["fy"], k["cx"], k["cy"], width, height,
                   Pose.from_json(obj["extrinsics"]), obj.get("name", ""))


_DEPTH_EPS = 1e-12


def project_rig_sparse(rig, points: np.ndarray, shapes):
    """Project ego-frame points (..., 3) through all J cameras of a rig, keeping
    the samples in view and inside the (H_j, W_j, ...) shapes of J feature maps
    (a camera's own (height, width) keeps exactly its in-view samples): (index
    (E,), their ascending flat positions in the (..., J) samples; camera-frame
    points (E, 3); u (E,); v (E,)). A sample is in view where its camera-frame
    depth z is > 1e-12 and `bilinear_valid` accepts its pixel. Only the samples
    inside a conservative frustum bound are divided: in view, |u - cx| <=
    max(|cx|, |W - 1 - cx|), so |x| * fx / (that + 1 pixel) <= z; same for v.
    """
    pts = np.asarray(points, dtype=FLOAT)
    rot = np.concatenate([cam.extrinsics.rotation for cam in rig])          # (3J, 3)
    trans = np.concatenate([cam.extrinsics.translation for cam in rig])
    # in place: a second copy of the largest arrays of a step raises its peak
    q = pts.reshape(-1, 3) @ rot.T
    q += trans
    q = q.reshape(-1, len(rig), 3)
    fx, fy, cx, cy, widths, heights = np.array(
        [(c.fx, c.fy, c.cx, c.cy, c.width, c.height) for c in rig], dtype=FLOAT).T
    # the relative 2**-40 covers rounding beyond a pixel (|cx| past 2**50)
    reach_u = (np.maximum(np.abs(cx), np.abs(widths - 1.0 - cx)) + 1.0) * (1.0 + 2.0**-40)
    reach_v = (np.maximum(np.abs(cy), np.abs(heights - 1.0 - cy)) + 1.0) * (1.0 + 2.0**-40)
    near = q[..., 2] > _DEPTH_EPS
    near &= np.abs(q[..., 0]) * (fx / reach_u) <= q[..., 2]
    near &= np.abs(q[..., 1]) * (fy / reach_v) <= q[..., 2]
    index = np.flatnonzero(near)
    cams = index % len(rig)
    cam_pts = q.reshape(-1, 3)[index]
    x, y, z = cam_pts.T
    u = fx[cams] * x / z + cx[cams]
    v = fy[cams] * y / z + cy[cams]
    map_h, map_w = np.array([s[:2] for s in shapes]).T
    ok = bilinear_valid(u, v, np.minimum(heights, map_h)[cams], np.minimum(widths, map_w)[cams])
    return index[ok], cam_pts[ok], u[ok], v[ok]


def project_rig_jacobian(rig, cam_points: np.ndarray, cams: np.ndarray) -> np.ndarray:
    """d(uv)/d(ego point) (E, 2, 3) of E samples in front of their cameras.

    cam_points (E, 3) are camera-frame points as `project_rig_sparse` returns them
    and cams (E,) their camera indices.
    """
    fx = np.array([cam.fx for cam in rig], dtype=FLOAT)[cams]
    fy = np.array([cam.fy for cam in rig], dtype=FLOAT)[cams]
    x, y, z = cam_points.T
    jac_cam = np.zeros((cam_points.shape[0], 2, 3), dtype=FLOAT)
    jac_cam[:, 0, 0] = fx / z
    jac_cam[:, 0, 2] = -fx * x / (z * z)
    jac_cam[:, 1, 1] = fy / z
    jac_cam[:, 1, 2] = -fy * y / (z * z)
    return jac_cam @ np.stack([cam.extrinsics.rotation for cam in rig])[cams]
