"""Pinhole camera model: intrinsics, extrinsics, projection and back-projection.

Conventions used throughout the package
---------------------------------------
Camera frame   : right-handed, x right, y down, z forward (optical axis).
                 A point is in front of the camera iff its camera-frame
                 z-coordinate is positive.
Pixel frame    : u grows right, v grows down, origin at the top-left pixel.
                 Pixel centers sit at integer coordinates, so the value
                 stored at ``image[v, u]`` is the sample taken at the
                 continuous location ``(u, v)``. The valid continuous
                 domain of a WxH image is ``[0, W-1] x [0, H-1]``.
Extrinsics     : poses are stored world-from-camera. For a camera-frame
                 point ``x_cam`` the world point is ``R @ x_cam + t``; the
                 camera center in world coordinates is ``t``.
Projection     : ``u = fx * x/z + cx``, ``v = fy * y/z + cy`` with
                 ``(x, y, z)`` in the camera frame. Points with
                 ``z <= 1e-6`` are rejected as behind (or on) the camera.

Back-projection inverts projection exactly:
``backproject_pixels(u, v, d) = R @ [(u-cx)*d/fx, (v-cy)*d/fy, d] + t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import ConfigError, _check

# Points with camera-frame depth at or below this are treated as behind
# the camera and cannot be projected.
BEHIND_CAMERA_EPS = 1e-6


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics plus the image size they apply to."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        _check(
            self, fx="positive", fy="positive", cx="number", cy="number", width="count", height="count"
        )
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ConfigError("principal point must lie inside the image")
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))


@dataclass(frozen=True, eq=False)
class Pose:
    """World-from-camera rigid transform.

    ``rotation`` is a proper 3x3 rotation (orthonormal, det +1 within
    1e-6), ``translation`` is the camera center in world coordinates.
    Arrays are frozen after validation so a Pose can be shared freely.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must have 3 entries, got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError(f"translation must be finite, got {t.tolist()}")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-6):
            raise ValueError("rotation is not orthonormal")
        if not np.isclose(np.linalg.det(r), 1.0, atol=1e-6):
            raise ValueError("rotation must have determinant +1")
        # C-ordered, so that a stack of rotations has each one's layout
        r = np.ascontiguousarray(r)
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map (..., 3) world points into the camera frame."""
        p = np.asarray(points, dtype=np.float64)
        return (p - self.translation) @ self.rotation

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        """Map (..., 3) camera-frame points into the world frame."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


def look_at_pose(eye, target) -> Pose:
    """World-from-camera pose for a camera at ``eye`` looking at ``target``.

    The camera z-axis points from eye toward target; the image v-axis
    (camera y, which grows downward in the image) is aligned against
    world +z as closely as possible. Raises ValueError when the viewing
    direction is vertical.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-12:
        raise ValueError("viewing direction is vertical")
    right = right / rnorm
    down = np.cross(forward, right)
    rot = np.column_stack([right, down, forward])
    return Pose(rot, eye)


def project_points(points: np.ndarray, intrinsics: Intrinsics, pose: Pose):
    """Project (N, 3) world points.

    Returns ``(uv, depth, in_front)`` where ``uv`` is (N, 2), ``depth``
    is the camera-frame z (N,), and ``in_front`` marks points with depth
    above ``BEHIND_CAMERA_EPS``. Pixel coordinates of points behind the
    camera are NaN. No image-bounds check is applied here; callers mask
    with ``uv`` against ``[0, W-1] x [0, H-1]`` as needed.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    cam = pose.world_to_camera(pts)
    z = cam[:, 2]
    in_front = z > BEHIND_CAMERA_EPS
    uv = np.full((len(pts), 2), np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        uv[in_front, 0] = intrinsics.fx * cam[in_front, 0] / z[in_front] + intrinsics.cx
        uv[in_front, 1] = intrinsics.fy * cam[in_front, 1] / z[in_front] + intrinsics.cy
    return uv, z, in_front


def project_views(points: np.ndarray, intrinsics, poses):
    """:func:`project_points` of the same (N, 3) world points into C
    cameras at once, with ``intrinsics`` and ``poses`` one per camera.

    Returns ``(uv, depth, in_front)`` shaped (C, N, 2), (C, N) and
    (C, N). Every pose's camera-frame points come from one stacked
    ``np.matmul``, which hands BLAS the product :func:`project_points`
    makes for that pose, and the pixel coordinates take the same
    operations, so each camera's rows have the bits
    :func:`project_points` gives it.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    rotations = np.array([p.rotation for p in poses]).reshape(-1, 3, 3)
    translations = np.array([p.translation for p in poses]).reshape(-1, 1, 3)
    cam = np.matmul(pts - translations, rotations)
    z = cam[..., 2]
    in_front = z > BEHIND_CAMERA_EPS
    focal = np.array([(i.fx, i.fy) for i in intrinsics]).reshape(-1, 1, 2)
    center = np.array([(i.cx, i.cy) for i in intrinsics]).reshape(-1, 1, 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        uv = focal * cam[..., :2] / z[..., None] + center
    uv[~in_front] = np.nan
    return uv, z, in_front


def backproject_pixels(u, v, depth, intrinsics: Intrinsics, pose: Pose) -> np.ndarray:
    """Back-project pixel coordinates with camera depths to (N, 3) world points."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d = np.asarray(depth, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("depths must be positive")
    cam = np.stack(
        [
            (u - intrinsics.cx) * d / intrinsics.fx,
            (v - intrinsics.cy) * d / intrinsics.fy,
            d,
        ],
        axis=-1,
    )
    return pose.camera_to_world(cam)
